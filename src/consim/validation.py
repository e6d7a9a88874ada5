"""Acceptance checks, grouped into three runnable suites.

  oracles      every algorithm's outputs against the centralized oracle,
               the MST against a union-find oracle, and link-failure
               recovery experiments
  invariants   token-traversal guarantees, operator algebra, the peak
               sweep against a brute-force oracle, determinism replays
  bounds       the headline bandwidth figures, formula ceilings with
               stable measured constants, the m-sweep interpolation and
               the time-scale growth checks

Every check returns a CheckResult; the command-line `validate` subcommand
and the acceptance test module both run these.

Configuration notes.  Ceiling checks run each algorithm on the topology
that maximizes simultaneous transmissions (complete graphs for averaging,
flooding and the cluster algorithm's early phases; depth-one trees for the
parallel convergecast), and report the measured constant per formula.  The
interpolation sweep runs on a cycle: its diameter dominates flooding's
running time, which is what the m -> n endpoint must match, while complete
graphs degenerate the cluster structure (any fragment can absorb every
late joiner, so one cluster swallows the graph).  Disjoint transmission
windows are asserted under the full-delay adversarial scheduler; under
randomized delays an early delivery lets the next hop start transmitting
inside the previous window by construction of the charging rule.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from . import bounds as bnd
from .algorithms import ALGORITHMS
from .averaging import AverageProtocol
from .engine import (SCHEDULERS, ExecutionTrace, Simulation, TimingParams,
                     TraceRows, run, trace_digest)
from .flooding import FloodingProtocol
from .functions import (MaxFunction, MeanFunction, MinFunction, VoteFunction,
                        get_function, oracle)
from .ghs import (GhsMstProtocol, GhsTokenProtocol,
                  ParallelConvergecastProtocol, TokenConvergecastProtocol,
                  mst_edges, root_tree)
from .hybrid import FailureExperiment, HybridProtocol, check_cluster_discipline
from .messages import Message, SizeModel
from .metrics import (byte_complexity, message_complexity, peak_bandwidth,
                      peak_bandwidth_by_phase, time_complexity)
from .topology import kruskal_mst, make_topology

D = 0.01
TIMING = TimingParams(d=D, l=D / 10)
B_HEADLINE = 768


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}: {self.detail}"


def _run(protocol, graph, values, fn, scheduler="lockstep", seed=0, **kw):
    return run(protocol, graph, values, fn=fn, timing=TIMING,
               scheduler=scheduler, seed=seed, **kw)


def _peak(protocol, kind, n, fn) -> float:
    """Peak bandwidth of one lockstep run on the seed-1 graph of `kind`,
    with initial values 0..n-1."""
    g = make_topology(kind, n, seed=1)
    return peak_bandwidth(_run(protocol, g, list(range(n)), fn))


# ---------------------------------------------------------------------------
# headline figures (criterion 1)
# ---------------------------------------------------------------------------

def _headline(name, peak, target, tolerance) -> CheckResult:
    off = abs(peak - target) / target
    return CheckResult(name, off <= tolerance,
                       f"peak {peak:.0f} bps vs {target:.0f} ({off:+.2%})")


def check_headline_average() -> CheckResult:
    return _headline("headline.average-7750kbps",
                     _peak(AverageProtocol(eps=1e-3), "complete", 100,
                           MeanFunction(B_HEADLINE)), 7_750_000.0, 0.05)


def check_headline_flooding() -> CheckResult:
    return _headline("headline.flooding-775Mbps",
                     _peak(FloodingProtocol(), "complete", 100,
                           MaxFunction(B_HEADLINE)), 775_000_000.0, 0.10)


def check_headline_token() -> CheckResult:
    peak = _peak(GhsTokenProtocol(), "star", 100, MaxFunction(B_HEADLINE))
    bound = ALGORITHMS["ghs-token"].bound
    formulas = {mode: bound(100, B_HEADLINE, D, None, mode)
                for mode in bnd.MODES}
    offs = {mode: (peak - f) / f for mode, f in formulas.items()}
    ok = any(abs(v) <= 0.15 for v in offs.values())
    detail = f"peak {peak:.0f} bps; " + ", ".join(
        f"{m} {v:+.2%}" for m, v in offs.items())
    return CheckResult("headline.token-143kbps-band", ok, detail)


# ---------------------------------------------------------------------------
# token traversal invariants (criterion 2)
# ---------------------------------------------------------------------------

def check_token_invariants(trees: int = 50) -> CheckResult:
    rng = random.Random(2024)
    fn = MaxFunction(64)
    for trial in range(trees):
        n = rng.randrange(2, 201)
        g = make_topology("random_tree", n, seed=trial)
        root = rng.choice(g.uids)
        values = [rng.randrange(10_000) for _ in range(n)]
        trace = _run(TokenConvergecastProtocol(root_tree(g, root)), g, values,
                     fn, scheduler="adversarial", seed=trial)
        msgs = message_complexity(trace)
        if msgs != 4 * (n - 1):
            return CheckResult("token.invariants", False,
                               f"n={n}: {msgs} messages, wanted {4*(n-1)}")
        starts = sorted(t for t, _ in trace.events.sent())
        for a, b in zip(starts, starts[1:]):
            if b - a < D - 1e-12:
                return CheckResult("token.invariants", False,
                                   f"n={n}: windows overlap at t={a:.4f}")
        if set(trace.outputs.values()) != {max(values)}:
            return CheckResult("token.invariants", False, f"n={n}: bad output")
    return CheckResult("token.invariants", True,
                       f"{trees} trees: exactly 4(n-1) messages, windows disjoint")


# ---------------------------------------------------------------------------
# MST oracle equivalence (criterion 3)
# ---------------------------------------------------------------------------

def check_mst_oracle(graphs: int = 100) -> CheckResult:
    rng = random.Random(31)
    for trial in range(graphs):
        n = rng.randrange(2, 51)
        p = rng.choice([0.15, 0.3, 0.6, 1.0])
        g = make_topology("random_connected", n, {"p": p}, seed=trial)
        sim = Simulation(GhsMstProtocol(), g, [0] * n, fn=None, timing=TIMING,
                         scheduler=tuple(SCHEDULERS)[trial % len(SCHEDULERS)],
                         seed=trial)
        sim.run()
        if mst_edges(sim.automata) != kruskal_mst(g):
            return CheckResult("mst.kruskal-equivalence", False,
                               f"mismatch at n={n} p={p} trial={trial}")
    return CheckResult("mst.kruskal-equivalence", True,
                       f"{graphs} random graphs, exact edge-set equality")


# ---------------------------------------------------------------------------
# consensus correctness matrix (criterion 4)
# ---------------------------------------------------------------------------

def _matrix_graph(kind: str, n: int, seed: int):
    params = {"p": 0.45} if kind == "random" else {}
    actual = "random_connected" if kind == "random" else kind
    return make_topology(actual, n, params, seed=seed)


def _mismatch(fn, values, trace) -> str | None:
    """The first output that misses the oracle, as `got vs want`; the mean
    gets a relative 1e-9."""
    want = oracle(fn, values)
    tol = 1e-9 * abs(want) if fn.name == "mean" else 0
    for got in trace.outputs.values():
        if abs(got - want) > tol:
            return f"{got} vs {want}"
    return None


def check_consensus_matrix(n: int = 8, seeds: int = 5) -> CheckResult:
    topologies = ("path", "cycle", "star", "complete", "random")
    fns = ("max", "mean", "vote:3")
    rng = random.Random(55)
    runs = 0
    for algo in ("flooding", "ghs-parallel", "ghs-token", "hybrid"):
        factory = ALGORITHMS[algo].protocol
        for topo in topologies:
            for fname in fns:
                fn = get_function(fname, 128)
                span = (0, 3) if fname.startswith("vote") else (10, 100)
                for sched in SCHEDULERS:
                    for seed in range(seeds):
                        g = _matrix_graph(topo, n, seed)
                        values = [rng.randrange(*span) for _ in range(n)]
                        trace = _run(factory(3, None), g, values, fn,
                                     scheduler=sched, seed=seed)
                        runs += 1
                        bad = _mismatch(fn, values, trace)
                        if bad:
                            return CheckResult(
                                "consensus.matrix", False,
                                f"{algo}/{topo}/{fname}/{sched}/{seed}: {bad}")
    # averaging: regular graphs, lockstep, mean only
    for topo in ("cycle", "complete"):
        for seed in range(seeds):
            g = _matrix_graph(topo, n, seed)
            values = [rng.randrange(10, 100) for _ in range(n)]
            fn = MeanFunction(128)
            trace = _run(ALGORITHMS["average"].protocol(None, 1e-12), g,
                         values, fn, seed=seed)
            runs += 1
            bad = _mismatch(fn, values, trace)
            if bad:
                return CheckResult("consensus.matrix", False,
                                   f"average/{topo}/{seed}: {bad}")
    return CheckResult("consensus.matrix", True,
                       f"{runs} runs match the centralized oracle")


# ---------------------------------------------------------------------------
# formula ceilings (criterion 5)
# ---------------------------------------------------------------------------

NS = (10, 20, 50, 100)


def _stability(name, ratios) -> CheckResult:
    lo, hi = min(ratios), max(ratios)
    ok = lo > 0 and hi / lo <= 2.0
    detail = (f"C per n {['%.3f' % r for r in ratios]}, max/min "
              f"{hi / lo:.2f}")
    return CheckResult(name, ok, detail)


def _ratios(algo, kind, fn) -> list[float]:
    """Measured peak over the registry's ceiling, per n in NS."""
    protocol, bound = ALGORITHMS[algo]
    return [_peak(protocol(None, 1e-3), kind, n, fn)
            / bound(n, B_HEADLINE, D, None, "ceil_log2") for n in NS]


def check_ceiling_average() -> CheckResult:
    return _stability("ceiling.average", _ratios(
        "average", "complete", MeanFunction(B_HEADLINE)))


def check_ceiling_flooding() -> CheckResult:
    return _stability("ceiling.flooding", _ratios(
        "flooding", "complete", MaxFunction(B_HEADLINE)))


def check_ceiling_parallel_convergecast() -> CheckResult:
    ratios = []
    for n in NS:
        g = make_topology("star", n, seed=1)
        hub = max(g.uids, key=g.degree)
        trace = _run(ParallelConvergecastProtocol(root_tree(g, hub)), g,
                     list(range(n)), MaxFunction(B_HEADLINE))
        ratios.append(peak_bandwidth(trace) / ALGORITHMS["ghs-parallel"]
                      .bound(n, B_HEADLINE, D, None, "ceil_log2"))
    return _stability("ceiling.parallel-convergecast", ratios)


def check_ceiling_hybrid_phases(m: int = 2) -> list[CheckResult]:
    per_phase: dict[str, list[float]] = {p: [] for p in ("p1", "p2", "p3", "p4")}
    for n in NS:
        g = make_topology("complete", n, seed=1)
        trace = _run(HybridProtocol(m), g, list(range(n)),
                     MaxFunction(B_HEADLINE))
        peaks = peak_bandwidth_by_phase(trace)
        formulas = bnd.hybrid_phase_bandwidth(n, B_HEADLINE, D, m)
        for p in per_phase:
            per_phase[p].append(peaks.get(p, 0.0) / formulas[p])
    return [_stability(f"ceiling.hybrid-{p}", ratios)
            for p, ratios in per_phase.items()]


def check_token_tightness() -> CheckResult:
    """The bandwidth-frugal pipeline sits within a constant factor of the
    (n log n + b)/d expression on both sides at desk scale."""
    ratios = _ratios("ghs-token", "star", MaxFunction(B_HEADLINE))
    ok = all(0.4 <= r <= 2.5 for r in ratios)
    return CheckResult("ceiling.token-tightness", ok,
                       f"peak/formula per n: {['%.3f' % r for r in ratios]}")


# ---------------------------------------------------------------------------
# interpolation sweep (criterion 6)
# ---------------------------------------------------------------------------

def _doubled_ranks(xs) -> list[int]:
    """Twice each x's 1-based rank, tied values sharing the mean of their
    ranks: integers, where the average ranks are halves."""
    s = sorted(xs)
    return [bisect_left(s, x) + bisect_right(s, x) + 1 for x in xs]


def spearman_rho(xs, ys) -> float:
    """Spearman's rank correlation: the Pearson correlation of the average
    ranks, ties included, as scipy.stats.spearmanr gives it; NaN when
    either side is constant.  Sums run on integers, so the sign is exact."""
    rx, ry = _doubled_ranks(xs), _doubled_ranks(ys)
    n, sx, sy = len(rx), sum(rx), sum(ry)
    cov = n * sum(a * b for a, b in zip(rx, ry)) - sx * sy
    vx = n * sum(a * a for a in rx) - sx * sx
    vy = n * sum(b * b for b in ry) - sy * sy
    return cov / math.sqrt(vx * vy) if vx and vy else math.nan


def check_interpolation(n: int = 100) -> CheckResult:
    fn = MaxFunction(B_HEADLINE)
    g = make_topology("cycle", n, seed=1)
    values = list(range(n))
    flood = _run(FloodingProtocol(), g, values, fn)
    token = _run(GhsTokenProtocol(), g, values, fn)
    flood_time = time_complexity(flood)
    token_peak, token_bits = peak_bandwidth(token), byte_complexity(token)
    ms = (1, 2, 5, 10, 20, 50, 100)
    peaks, bits, times = [], [], []
    for m in ms:
        tr = _run(HybridProtocol(m), g, values, fn)
        peaks.append(peak_bandwidth(tr))
        bits.append(byte_complexity(tr))
        times.append(time_complexity(tr))
    problems = []
    if peaks[0] > 2 * token_peak:
        problems.append(f"m=1 peak {peaks[0]:.0f} > 2x token {token_peak:.0f}")
    if bits[0] > 2 * token_bits:
        problems.append(f"m=1 bytes {bits[0]} > 2x token {token_bits}")
    if times[-1] > 2 * flood_time:
        problems.append(f"m=n time {times[-1]:.2f} > 2x flooding {flood_time:.2f}")
    rho_peak = spearman_rho(ms, peaks)
    rho_bits = spearman_rho(ms, bits)
    if rho_peak < 0:
        problems.append(f"peak not increasing with m (rho={rho_peak:.2f})")
    if rho_bits < 0:
        problems.append(f"bytes not increasing with m (rho={rho_bits:.2f})")
    detail = (f"m=1 peak/bytes x{peaks[0]/token_peak:.2f}/x{bits[0]/token_bits:.2f}"
              f" of token; m={n} time x{times[-1]/flood_time:.2f} of flooding;"
              f" rho(peak)={rho_peak:.2f}, rho(bytes)={rho_bits:.2f}")
    return CheckResult("interpolation.m-sweep", not problems,
                       detail if not problems else "; ".join(problems))


# ---------------------------------------------------------------------------
# time scales (criterion 7)
# ---------------------------------------------------------------------------

def check_time_flooding() -> CheckResult:
    g = make_topology("complete", 100, seed=1)
    trace = _run(FloodingProtocol(), g, list(range(100)),
                 MaxFunction(B_HEADLINE))
    t = time_complexity(trace)
    return CheckResult("time.flooding-3-rounds", t <= 3 * D + 1e-12,
                       f"completed in {t / D:.0f} round(s), {t:.3f} s")


def check_time_token_growth() -> CheckResult:
    cs = []
    for n in (25, 50, 100, 200):
        g = make_topology("cycle", n, seed=2)
        trace = _run(GhsTokenProtocol(), g, list(range(n)),
                     MaxFunction(B_HEADLINE))
        cs.append(time_complexity(trace) / (n * math.log2(n) * D))
    ok = max(cs) / min(cs) <= 2.0
    return CheckResult("time.token-nlogn-growth", ok,
                       f"time/(n log n d) per n: {['%.3f' % c for c in cs]}")


def check_time_average_mixing() -> CheckResult:
    rounds = []
    for n in (32, 64):
        g = make_topology("path", n, seed=6)
        trace = _run(AverageProtocol(eps=1e-3), g, list(range(n)),
                     MeanFunction(128), record_events=False)
        rounds.append(round(trace.last_output_time() / D))
    ratio = rounds[1] / rounds[0]
    return CheckResult("time.average-superlinear-mixing", ratio >= 3.0,
                       f"rounds P32={rounds[0]}, P64={rounds[1]}, "
                       f"ratio {ratio:.2f}")


# ---------------------------------------------------------------------------
# failure recovery (criterion 8)
# ---------------------------------------------------------------------------

def check_recovery(instances: int = 20) -> CheckResult:
    rng = random.Random(88)
    fn = MaxFunction(64)
    done = trial = 0
    while done < instances:
        trial += 1
        n = rng.randrange(8, 21)
        m = rng.randrange(2, 6)
        g = make_topology("random_connected", n, {"p": rng.choice([0.4, 0.6])},
                          seed=trial)
        values = [rng.randrange(1000) for _ in range(n)]
        exp = FailureExperiment(g, values, fn, m, timing=TIMING, seed=trial)
        breakable = exp.breakable_tree_edges()
        if not breakable:
            continue
        exp.fail_link(breakable[rng.randrange(len(breakable))])
        rerun = exp.reconsensus()
        want = oracle(fn, values)
        if set(rerun.outputs.values()) != {want}:
            return CheckResult("recovery.tree-edge", False,
                               f"trial {trial}: wrong outputs after recovery")
        problems = check_cluster_discipline(exp.automata, n, m)
        if problems:
            return CheckResult("recovery.tree-edge", False,
                               f"trial {trial}: {problems[0]}")
        done += 1
    return CheckResult("recovery.tree-edge", True,
                       f"{instances} tree-edge failures recovered, outputs "
                       f"exact, cluster discipline restored")


# ---------------------------------------------------------------------------
# property suites (criterion 9)
# ---------------------------------------------------------------------------

def check_operator_algebra(samples: int = 10_000) -> CheckResult:
    rng = random.Random(9)
    ops = [
        (MaxFunction(64), lambda r: r.randrange(1 << 16)),
        (MinFunction(64), lambda r: r.randrange(1 << 16)),
        (MeanFunction(128), lambda r: r.randrange(-10_000, 10_000)),
        (VoteFunction(128, 4), lambda r: r.randrange(4)),
    ]
    for fn, draw in ops:
        for _ in range(samples):
            a, b, c = (fn.initial(draw(rng)) for _ in range(3))
            if fn.combine(a, b) != fn.combine(b, a):
                return CheckResult("properties.operator-algebra", False,
                                   f"{fn.name} not commutative")
            if fn.combine(fn.combine(a, b), c) != fn.combine(a, fn.combine(b, c)):
                return CheckResult("properties.operator-algebra", False,
                                   f"{fn.name} not associative")
    return CheckResult("properties.operator-algebra", True,
                       f"{samples} triples per operator, four operators")


def _synthetic_trace(rng) -> ExecutionTrace:
    g = make_topology("path", 2, seed=0)
    draws = [(Message("x.m", g.uids[0], rng.randrange(8, 4096)),
              rng.uniform(0, 0.25)) for _ in range(rng.randrange(1, 60))]
    rows = TraceRows()
    for ref, (msg, t) in enumerate(sorted(draws, key=lambda draw: draw[1])):
        rows.send(t, g.uids[0], ref, msg, ())
    sm = SizeModel(uid_bits=7, value_bits=64)
    return ExecutionTrace(events=rows, outputs={}, config={},
                          timing=TIMING, size_model=sm, graph=g,
                          messages_total=len(draws),
                          bits_total=sum(msg.size_bits for msg, _ in draws))


def check_peak_against_brute_force(traces: int = 100) -> CheckResult:
    rng = random.Random(12)
    for _ in range(traces):
        tr = _synthetic_trace(rng)
        swept = peak_bandwidth(tr)
        eps = D * 1e-6
        brute = 0.0
        sends = [(t, msg.size_bits) for t, msg in tr.events.sent()]
        for t, _s in sends:
            for probe in (t + eps, t + D - eps):
                rate = sum(s / D for (ts, s) in sends if ts <= probe < ts + D)
                brute = max(brute, rate)
        if abs(swept - brute) > 1e-6 * max(1.0, brute):
            return CheckResult("properties.peak-oracle", False,
                               f"sweep {swept} vs brute force {brute}")
    return CheckResult("properties.peak-oracle", True,
                       f"{traces} random traces, sweep = endpoint sampling")


def check_determinism(configs: int = 50) -> CheckResult:
    rng = random.Random(77)
    names = ("flooding", "ghs-token", "ghs-parallel", "hybrid")
    for trial in range(configs):
        name = names[trial % len(names)]
        factory = ALGORITHMS[name].protocol
        n = rng.randrange(2, 16)
        m = rng.randrange(1, n + 1)
        sched = tuple(SCHEDULERS)[trial % len(SCHEDULERS)]
        g = make_topology("random_connected", n, {"p": 0.5}, seed=trial)
        values = [rng.randrange(100) for _ in range(n)]
        fn = MaxFunction(64)
        t1, t2 = (_run(factory(m, None), g, list(values), fn,
                       scheduler=sched, seed=trial) for _ in range(2))
        if trace_digest(t1) != trace_digest(t2):
            return CheckResult("properties.determinism", False,
                               f"{name} n={n} {sched} seed={trial} diverged")
    return CheckResult("properties.determinism", True,
                       f"{configs} configs replayed bit-identically")


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

SUITES = {
    "oracles": (check_mst_oracle, check_consensus_matrix, check_recovery),
    "invariants": (check_token_invariants, check_operator_algebra,
                   check_peak_against_brute_force, check_determinism),
    "bounds": (check_headline_average, check_headline_flooding,
               check_headline_token, check_ceiling_average,
               check_ceiling_flooding, check_ceiling_parallel_convergecast,
               check_ceiling_hybrid_phases, check_token_tightness,
               check_interpolation, check_time_flooding,
               check_time_token_growth, check_time_average_mixing),
}


def run_suites(which: str = "all") -> list[CheckResult]:
    """Each named suite's checks in table order; a check returns one
    CheckResult or a list of them."""
    out = []
    for name in (SUITES if which == "all" else [which]):
        for check in SUITES[name]:
            res = check()
            out += res if isinstance(res, list) else [res]
    return out
