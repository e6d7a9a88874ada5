"""Workloads, the measured pipeline, the correctness gate and the layer spans
of the consim benchmark.

One execution runs the pipeline a `consim run --trace` user pays for: build
the graph, construct the Simulation, run it, then `report_from_trace`,
`peak_bandwidth_by_phase`, `validate_trace` and `to_jsonl`.  The checks that
belong to the benchmark (oracle comparison, canonical digest, pins) run with
the clock paused, so they count in no reported time.

Layer spans are recorded only in a traced repetition, by wrappers that this
module installs on consim's public entry points and removes afterwards;
nothing inside `src/` is instrumented.
"""

from __future__ import annotations

import functools
import hashlib
import random
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

from consim import engine, functions, hybrid, metrics, topology
from consim.averaging import AverageProtocol
from consim.flooding import FloodingProtocol
from consim.ghs import GhsParallelProtocol, GhsTokenProtocol
from consim.messages import SizeModel

TIMING = engine.TimingParams(d=0.01, l=0.001)
# replays under these schedulers are pinned; random-scheduler replays are
# recorded only, because the integer-clock work will change them
GATED_SCHEDULERS = ("lockstep", "adversarial")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

@dataclass
class Execution:
    """One (protocol, graph, values, scheduler, seed) to run and check."""

    key: str
    algo: str
    topo: str
    n: int
    fn: str
    bits: int
    sched: str
    seed: int
    values: list
    params: dict = field(default_factory=dict)
    m: int | None = None
    eps: float = 1e-3
    record: bool = True
    fail: bool = False  # fail a hybrid tree edge, repair, re-run consensus
    graph_seed: int | None = None  # default: the scheduler seed

    @property
    def gated(self) -> bool:
        return self.sched in GATED_SCHEDULERS


def _rng(workload, seed):
    return random.Random(f"{workload}:{seed}")


def flood_async(seed, small=False):
    n, p = (8, 0.5) if small else (200, 0.05)
    rng = _rng("flood-async", seed)
    # one G(200, 0.05) sample for every seed: the edge count of a fresh
    # sample varies by about 6%, and the work with it; the seed draws the
    # values and the random scheduler's delays
    return [Execution("flood", "flooding", "random_connected", n, "max", 768,
                      "random", seed, [rng.randrange(1 << 16) for _ in range(n)],
                      params={"p": p}, graph_seed=1)]


def hybrid_unicast(seed, small=False):
    n = 8 if small else 100
    rng = _rng("hybrid-unicast", seed)
    return [Execution("hybrid", "hybrid", "complete", n, "max", 768,
                      "lockstep", seed, [rng.randrange(1 << 16) for _ in range(n)],
                      m=2)]


def average_lean(seed, small=False):
    n = 8 if small else 64
    rng = _rng("average-lean", seed)
    # a ramp along the path loads the slowest mode of the iteration, so the
    # round count (the work) barely moves from seed to seed
    values = sorted(rng.randrange(1 << 16) for _ in range(n))
    return [Execution("average", "average", "path", n, "mean", 128,
                      "lockstep", seed, values, eps=1e-3, record=False)]


MATRIX_ALGOS = ("flooding", "ghs-parallel", "ghs-token", "hybrid")
MATRIX_TOPOS = ("path", "cycle", "star", "complete", "random_connected")
MATRIX_FNS = ("max", "mean", "vote:3")
MATRIX_SCHEDS = ("lockstep", "random", "adversarial")


def matrix_small(seed, small=False):
    n = 8 if small else 16
    exec_seeds = [3 * seed + k for k in range(1 if small else 3)]
    failures = 4 if small else 40
    rng = _rng("matrix-small", seed)
    out = []
    for algo in MATRIX_ALGOS:
        for topo in MATRIX_TOPOS:
            params = {"p": 0.3} if topo == "random_connected" else {}
            for fname in MATRIX_FNS:
                for sched in MATRIX_SCHEDS:
                    for s in exec_seeds:
                        if fname.startswith("vote"):
                            values = [rng.randrange(3) for _ in range(n)]
                        else:
                            values = [rng.randrange(10, 100) for _ in range(n)]
                        out.append(Execution(
                            f"{algo}/{topo}/{fname}/{sched}/{s}", algo, topo,
                            n, fname, 128, sched, s, values, params=params,
                            m=3 if algo == "hybrid" else None))
    for topo in ("cycle", "complete"):
        for s in exec_seeds:
            values = [rng.randrange(10, 100) for _ in range(n)]
            out.append(Execution(f"average/{topo}/mean/lockstep/{s}", "average",
                                 topo, n, "mean", 128, "lockstep", s, values,
                                 eps=1e-6))
    for i in range(failures):
        s = 100 * seed + i
        sched = MATRIX_SCHEDS[i % 3]
        values = [rng.randrange(1000) for _ in range(n)]
        out.append(Execution(f"hybrid-fail/{i}/{sched}/{s}", "hybrid",
                             "random_connected", n, "max", 64, sched, s, values,
                             params={"p": 0.45}, m=2 + i % 4, fail=True))
    return out


WORKLOADS = {
    "flood-async": flood_async,
    "hybrid-unicast": hybrid_unicast,
    "average-lean": average_lean,
    "matrix-small": matrix_small,
}


def _protocol(ex):
    if ex.algo == "flooding":
        return FloodingProtocol()
    if ex.algo == "average":
        return AverageProtocol(eps=ex.eps)
    if ex.algo == "ghs-parallel":
        return GhsParallelProtocol()
    if ex.algo == "ghs-token":
        return GhsTokenProtocol()
    return hybrid.HybridProtocol(ex.m)


# ---------------------------------------------------------------------------
# the clock and the layer spans
# ---------------------------------------------------------------------------

class SetupDone(Exception):
    """Raised at the first Simulation.run call of a set-up-only repetition."""


class Clock:
    """Benchmark time since `t0`, less the time spent in the benchmark's own
    checks; also marks the first Simulation.run call (the end of set-up)."""

    def __init__(self, t0, setup_only=False):
        self.t0 = t0
        self.setup_only = setup_only
        self.excluded = 0.0
        self.setup = None

    def now(self):
        return time.perf_counter() - self.t0 - self.excluded

    @contextmanager
    def paused(self):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.excluded += time.perf_counter() - start

    def before_run(self):
        if self.setup is None:
            self.setup = self.now()
            if self.setup_only:
                raise SetupDone


# public entry points, with the layer each one belongs to
LAYER_ENTRY_POINTS = (
    (topology, "make_topology", "topology"),
    (topology, "fail_link", "topology"),
    (engine.Simulation, "__init__", "engine.init"),
    (engine.Simulation, "run", "engine.run"),
    (engine, "validate_trace", "validate"),
    (engine.ExecutionTrace, "to_jsonl", "export"),
    (metrics, "report_from_trace", "metrics.report"),
    (metrics, "peak_bandwidth_by_phase", "metrics.phase"),
    (hybrid.FailureExperiment, "fail_link", "recovery.repair"),
    (hybrid.FailureExperiment, "reconsensus", "recovery.rerun"),
)
LAYER_NAMES = sorted({name for _, _, name in LAYER_ENTRY_POINTS})
# automaton methods the engine calls as transitions; begin_epoch is the kick
# FailureExperiment.reconsensus schedules
HANDLERS = ("on_start", "on_message", "on_flush", "on_link_down", "begin_epoch")


def _subclasses(cls):
    found = [cls]
    for sub in cls.__subclasses__():
        found += _subclasses(sub)
    return list(dict.fromkeys(found))  # once each, so nothing is wrapped twice


class Spans:
    """Inclusive seconds per layer and protocol call counts, taken by wrappers
    around consim's public entry points and automaton handlers.

    Protocol handlers only run inside Simulation.run, so engine self time is
    the run span less the protocol span.  A handler reached through super()
    from a wrapped handler is not counted twice.
    """

    def __init__(self):
        self.seconds = dict.fromkeys(LAYER_NAMES, 0.0)
        self.covered = 0.0  # seconds inside outermost spans
        self.protocol_s = 0.0
        self.protocol_calls = 0  # one per engine transition
        self.round_calls = 0
        self.msg_calls = 0
        self.count_fanout = False
        self.fanout = 0  # deliveries implied by the sends handlers returned
        self._open = 0
        self._in_handler = False
        self._restore = []

    def install(self):
        for owner, attr, name in LAYER_ENTRY_POINTS:
            self._patch(owner, attr, self._timed(name, getattr(owner, attr)))
        for cls in _subclasses(engine.Automaton):
            for attr in HANDLERS:
                if attr in vars(cls):
                    self._patch(cls, attr, self._handler(
                        vars(cls)[attr], attr == "on_message"))
        for cls in _subclasses(engine.Protocol):
            if "on_round_boundary" in vars(cls):
                self._patch(cls, "on_round_boundary",
                            self._round_hook(vars(cls)["on_round_boundary"]))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore = []

    def _patch(self, owner, attr, wrapper):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _timed(self, name, fn):
        spans = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans._open += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - start
                spans._open -= 1
                spans.seconds[name] += dt
                if not spans._open:
                    spans.covered += dt
        return wrapper

    def _handler(self, fn, is_msg):
        spans = self

        @functools.wraps(fn)
        def wrapper(auto, *args):
            if spans._in_handler:
                return fn(auto, *args)
            spans._in_handler = True
            start = time.perf_counter()
            try:
                out = fn(auto, *args)
            finally:
                spans.protocol_s += time.perf_counter() - start
                spans._in_handler = False
            spans.protocol_calls += 1
            spans.msg_calls += is_msg
            if out and spans.count_fanout:
                spans.fanout += len(out) * len(auto.ctx.live_neighbors())
            return out
        return wrapper

    def _round_hook(self, fn):
        spans = self

        @functools.wraps(fn)
        def wrapper(protocol, automata, r, sim):
            start = time.perf_counter()
            try:
                halted, sends = fn(protocol, automata, r, sim)
            finally:
                spans.protocol_s += time.perf_counter() - start
            spans.round_calls += 1
            if spans.count_fanout:
                spans.fanout += sum(len(automata[uid].ctx.live_neighbors())
                                    for uid, _ in sends)
            return halted, sends
        return wrapper


# ---------------------------------------------------------------------------
# one execution
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    traces: list  # every trace the execution produced, in order
    checked: list  # the traces whose outputs must match the oracle
    rows: list  # CSV report rows
    jsonl_bytes: int
    invalid: str | None  # the first validate_trace failure


def _validate(traces):
    """validate_trace on each trace; a failure is recorded, and the pipeline
    goes on so that a failing execution costs the same work as a passing one."""
    invalid = None
    for trace in traces:
        try:
            engine.validate_trace(trace)
        except AssertionError as exc:
            invalid = invalid or f"validate_trace: {exc}"
    return invalid


def _breakable_tree_edges(graph, automata):
    """Forest edges whose removal keeps the graph connected, sorted."""
    tree = sorted({topology.edge_weight(u, a.parent)
                   for u, a in automata.items() if a.parent is not None})
    out = []
    for edge in tree:
        adj = {u: [v for v in graph.adj[u] if topology.edge_weight(u, v) != edge]
               for u in graph.uids}
        seen, stack = {graph.uids[0]}, [graph.uids[0]]
        while stack:
            for v in adj[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) == graph.n:
            out.append(edge)
    return out


def execute(ex, clock, rng):
    """The user-paid pipeline for one execution; `rng` picks the failed edge."""
    graph = topology.make_topology(
        ex.topo, ex.n, ex.params,
        seed=ex.seed if ex.graph_seed is None else ex.graph_seed)
    fn = functions.get_function(ex.fn, ex.bits)
    sm = SizeModel.for_network(ex.n, ex.bits, pool_size=graph.pool_size)
    if not ex.fail:
        sim = engine.Simulation(_protocol(ex), graph, ex.values, fn=fn,
                                timing=TIMING, scheduler=ex.sched, seed=ex.seed,
                                size_model=sm, record_events=ex.record)
        clock.before_run()
        trace = sim.run()
        row = metrics.report_from_trace(trace, m=ex.m).csv_row()
        metrics.peak_bandwidth_by_phase(trace)
        invalid = _validate([trace])
        jsonl = len(trace.to_jsonl())
        return Outcome([trace], [trace], [row], jsonl, invalid)
    clock.before_run()
    exp = hybrid.FailureExperiment(graph, ex.values, fn, ex.m, timing=TIMING,
                                   seed=ex.seed, scheduler=ex.sched,
                                   size_model=sm)
    with clock.paused():
        breakable = _breakable_tree_edges(graph, exp.automata)
        if not breakable:
            raise RuntimeError("no breakable tree edge")
        edge = breakable[rng.randrange(len(breakable))]
    exp.fail_link(edge)
    rerun = exp.reconsensus()
    traces = [exp.initial_trace, exp.repair_trace, rerun]
    rows = [metrics.report_from_trace(exp.initial_trace, algo="hybrid",
                                      m=ex.m).csv_row(),
            metrics.report_from_trace(rerun, algo="hybrid-rerun",
                                      m=ex.m).csv_row()]
    metrics.peak_bandwidth_by_phase(rerun)
    invalid = _validate(traces)
    jsonl = len(rerun.to_jsonl())
    return Outcome(traces, [exp.initial_trace, rerun], rows, jsonl, invalid)


# ---------------------------------------------------------------------------
# the correctness gate
# ---------------------------------------------------------------------------

def digest_and_count(traces):
    """Canonical SHA-256 over each trace's events and outputs, independent of
    any export format, plus the exact engine counts of the traces."""
    h = hashlib.sha256()
    counts = Counter()
    for trace in traces:
        events = trace.events
        for i in range(0, len(events), 65536):
            lines = []
            for e in events[i:i + 65536]:
                m = e.msg
                if m is None:
                    lines.append(f"{e.kind} {e.t!r} {e.node} - 0 - - {e.ref}\n")
                    continue
                lines.append(f"{e.kind} {e.t!r} {e.node} {m.mtype} "
                             f"{m.size_bits} {m.src} {m.dst} {e.ref}\n")
                if e.kind == "deliver":
                    counts["deliveries"] += 1
                    if m.dst is not None and m.dst != e.node:
                        counts["dropped"] += 1
            h.update("".join(lines).encode())
        h.update(f"out {sorted(trace.outputs.items())!r}\n"
                 f"totals {trace.messages_total} {trace.bits_total}\n".encode())
        counts["events"] += len(events)
        counts["sends"] += trace.messages_total
    return h.hexdigest(), counts


def pin_token(digest, rows):
    """Short pin of one execution: its trace digest and its CSV rows."""
    text = digest + "\n" + "\n".join(rows)
    return hashlib.sha256(text.encode()).hexdigest()[:8]


def _expected_output(ex, graph):
    """Value every node must output, and the tolerance allowed."""
    fn = functions.get_function(ex.fn, ex.bits)
    if ex.algo != "average":
        want = functions.oracle(fn, ex.values)
        return want, (1e-9 * abs(want) if ex.fn == "mean" else 0)
    # the averaging iteration stops within eps * range of its fixed point,
    # the degree-weighted mean, which is oracle(mean) on regular graphs only
    w = [graph.degree(u) + 1 for u in graph.uids]
    want = sum(wi * v for wi, v in zip(w, ex.values)) / sum(w)
    spread = max(ex.values) - min(ex.values)
    if all(wi == w[0] for wi in w):
        want = functions.oracle(fn, ex.values)
    return want, ex.eps * spread + 1e-9 * abs(want)


def check_outputs(ex, outcome):
    want, tol = _expected_output(ex, outcome.traces[0].graph)
    for trace in outcome.checked:
        if len(trace.outputs) != ex.n:
            return f"{len(trace.outputs)}/{ex.n} nodes output"
        for uid, got in trace.outputs.items():
            if abs(got - want) > tol:
                return f"node {uid} output {got!r}, want {want!r}"
    return None


# ---------------------------------------------------------------------------
# one repetition
# ---------------------------------------------------------------------------

def repetition(workload, seed, *, t0, traced=False, small=False,
               setup_only=False, pins=None):
    """Run every execution of a workload once; return its timings, gate
    results and (traced) per-layer figures as a JSON-able dict.

    `pins` lists the expected token of each gated execution in order; None
    means a held-out seed, gated by the oracle and validate_trace only.
    """
    clock = Clock(t0, setup_only)
    spans = Spans() if traced else None
    if spans:
        spans.install()
    try:
        executions = WORKLOADS[workload](seed, small)
        edge_rng = _rng(workload + ":edges", seed)
        exec_ms, tokens, ungated, problems = [], [], hashlib.sha256(), []
        counts = Counter()
        failed = jsonl_bytes = 0
        for ex in executions:
            start = clock.now()
            before = spans and (spans.fanout, spans.msg_calls,
                                spans.protocol_calls)
            if spans:
                spans.count_fanout = not ex.record
            try:
                outcome = execute(ex, clock, edge_rng)
                error = None
            except SetupDone:
                return {"setup": clock.setup}
            except Exception as exc:  # the execution fails; the run goes on
                outcome, error = None, f"{type(exc).__name__}: {exc}"
            exec_ms.append((clock.now() - start) * 1e3)
            with clock.paused():
                if outcome is not None:
                    jsonl_bytes += outcome.jsonl_bytes
                    digest, c = digest_and_count(outcome.traces)
                    if not ex.record and spans:
                        fanout, msgs, calls = (
                            x - y for x, y in zip(
                                (spans.fanout, spans.msg_calls,
                                 spans.protocol_calls), before))
                        c["deliveries"] += fanout
                        c["dropped"] += fanout - msgs
                        c["events"] += c["sends"] + fanout + calls
                    counts += c
                    error = outcome.invalid or check_outputs(ex, outcome)
                    if ex.gated:
                        token = pin_token(digest, outcome.rows)
                        i = len(tokens)
                        if error is None and pins is not None and (
                                i >= len(pins) or pins[i] != token):
                            error = (f"pin mismatch: got {token}, pinned "
                                     f"{pins[i] if i < len(pins) else None}")
                        tokens.append("-" if error else token)
                    else:
                        ungated.update(digest.encode())
                elif ex.gated:
                    tokens.append("-")
                if error is not None:
                    failed += 1
                    problems.append(f"{workload} seed {seed} {ex.key}: {error}")
        result = {
            "wall": clock.now(),
            "setup": clock.setup,
            "exec_ms": exec_ms,
            "attempted": len(executions),
            "failed": failed,
            "problems": problems[:10],
            "tokens": tokens,
            "ungated": ungated.hexdigest(),
            "pinned": pins is not None,
        }
        if spans:
            result["layers"] = _layers(spans, counts, jsonl_bytes, result)
        return result
    finally:
        if spans:
            spans.uninstall()


def _layers(spans, counts, jsonl_bytes, result):
    s = spans.seconds
    run_s = s["engine.run"]
    deliveries = counts["deliveries"]
    return {
        "topology.s": s["topology"],
        "engine.init_s": s["engine.init"],
        "engine.run_s": run_s,
        "engine.self_s": run_s - spans.protocol_s,
        "protocol.s": spans.protocol_s,
        "protocol.calls": spans.protocol_calls + spans.round_calls,
        "protocol.msg_calls": spans.msg_calls,
        "engine.sends": counts["sends"],
        "engine.deliveries": deliveries,
        "engine.dropped_deliveries": counts["dropped"],
        "engine.useful_delivery_ratio": (spans.msg_calls / deliveries
                                         if deliveries else 1.0),
        "engine.events": counts["events"],
        "engine.events_per_s": counts["events"] / run_s if run_s else 0.0,
        "export.s": s["export"],
        "export.mb": jsonl_bytes / 1e6,
        "validate.s": s["validate"],
        "metrics.report_s": s["metrics.report"],
        "metrics.phase_s": s["metrics.phase"],
        "recovery.repair_s": s["recovery.repair"],
        "recovery.rerun_s": s["recovery.rerun"],
        "unaccounted_s": result["wall"] - spans.covered,
        "failed_frac": result["failed"] / result["attempted"],
    }
