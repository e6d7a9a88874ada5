"""Print one replay digest per fixed execution, to compare two versions.

Run it at two commits and diff the outputs; identical output means the
executions it covers replay byte for byte:

    PYTHONPATH=src python3 tools/replay_digests.py > after.txt

Each line is `case sha256`, the digest covering every trace of the case:
its `consim.engine.trace_digest`, which is what "the same execution"
means (the rows, each ref as its send's ordinal, the send table with its
fan-out, the totals and the outputs), plus the per-phase peaks and, for a
trace in which every node outputs, its CSV row.  A case that raises prints
the error instead.

Cases: every registry algorithm, and MST construction alone (`ghs-mst`,
whose digest also covers the rooted tree it leaves), on every topology kind
under every scheduler at n = 9 and 17, averaging both recorded and lean,
averaging again started off the grid at START (its rounds count from the
first boundary after it), and hybrid failure experiments that fail, one at
a time, every breakable edge of a few graphs (tree edges, cut boundaries,
intra- and cross-cluster edges).  Three families come after these, so
that the lines above keep their places: hybrid at m = 1, 2, ceil(n/2) and
n (m = n is the singleton end of the trade-off, where phase 1 halts at
wakeup) on the same graphs under every scheduler; ABSORB, a run in which a
`p1.absorb` adopts a node that is still in phase 1; and every registry
algorithm on a single node, with a hierarchical function.
"""

from __future__ import annotations

import hashlib
import math
import sys

from consim.algorithms import ALGORITHMS
from consim.engine import SCHEDULERS, Simulation, TimingParams, trace_digest
from consim.errors import ConsimError, WouldDisconnect
from consim.functions import MaxFunction, get_function
from consim.ghs import GhsMstProtocol, tree_from_automata
from consim.hybrid import FailureExperiment
from consim.metrics import peak_bandwidth_by_phase, report_from_trace
from consim.topology import TOPOLOGY_KINDS, fail_link, make_topology

TIMING = TimingParams(d=0.01, l=0.001)
START = 0.014  # the off-grid start time of the `average@` cases
FUNCTIONS = {"flooding": "median", "average": "mean", "ghs-parallel": "vote:3",
             "ghs-token": "min", "hybrid": "max"}
# (kind, n, p, seed, m); the first three hold every edge kind, and failing
# (1, 11) of the third forwards a join request down the lower half
FAILURE_GRAPHS = (("random_connected", 10, 0.3, 0, 2),
                  ("random_connected", 10, 0.3, 2, 3),
                  ("random_connected", 14, 0.3, 1, 2),
                  ("cycle", 12, None, 13, 4),
                  ("complete", 9, None, 3, 3))
# (kind, n, p, topology seed, m, simulation seed) of the `hybrid-absorb` case
ABSORB = ("random_connected", 17, 0.3, 2, 2, 4)


def _digest(traces, extra=None) -> str:
    h = hashlib.sha256()
    if extra is not None:
        h.update(repr(extra).encode())
    for trace in traces:
        h.update(trace_digest(trace).encode())
        h.update(repr(peak_bandwidth_by_phase(trace)).encode())
        if len(trace.events.values) == trace.graph.n:  # every node output
            h.update(report_from_trace(trace).csv_row().encode())
    return h.hexdigest()


def _line(name, execute, *args):
    try:
        return f"{name} {execute(*args)}"
    except ConsimError as err:
        return f"{name} error {type(err).__name__}: {err}"


def _single(algo, g, values, fn, sched, mode, start=0.0, m=3, seed=None):
    sim = Simulation(ALGORITHMS[algo].protocol(m, 1e-3), g, values, fn=fn,
                     timing=TIMING, scheduler=sched,
                     seed=g.n if seed is None else seed,
                     record_events=mode == "recorded", start_time=start)
    return _digest([sim.run()])


def _mst(g, sched):
    sim = Simulation(GhsMstProtocol(), g, [0] * g.n, fn=None, timing=TIMING,
                     scheduler=sched, seed=g.n)
    trace = sim.run()
    return _digest([trace], extra=sorted(tree_from_automata(sim.automata)
                                         .items()))


def _failure(g, values, m, seed, sched, edge):
    exp = FailureExperiment(g, values, MaxFunction(64), m, timing=TIMING,
                            seed=seed, scheduler=sched)
    exp.fail_link(edge)
    exp.reconsensus()
    return _digest([exp.initial_trace, exp.repair_trace, exp.rerun_trace])


def _graphs(fn):
    """(kind, n, graph, values) of every single-execution case."""
    for kind in TOPOLOGY_KINDS:
        for n in (9, 17):
            g = make_topology(kind, n, {"p": 0.35}, seed=n)
            values = [(7 * i + 3) % (3 if fn.name == "vote" else 41)
                      for i in range(n)]
            yield kind, n, g, values


def single_cases():
    for algo in sorted(ALGORITHMS):
        fn = get_function(FUNCTIONS[algo], 128)
        modes = ("recorded", "lean") if algo == "average" else ("recorded",)
        for kind, n, g, values in _graphs(fn):
            for sched in sorted(SCHEDULERS):
                for mode in modes:
                    yield _line(f"{algo}/{kind}/{n}/{sched}/{mode}",
                                _single, algo, g, values, fn, sched, mode)


def start_cases():
    fn = get_function(FUNCTIONS["average"], 128)
    for kind, n, g, values in _graphs(fn):
        for mode in ("recorded", "lean"):
            yield _line(f"average@{START}/{kind}/{n}/lockstep/{mode}",
                        _single, "average", g, values, fn, "lockstep", mode,
                        START)


def mst_cases():
    for kind in TOPOLOGY_KINDS:
        for n in (9, 17):
            g = make_topology(kind, n, {"p": 0.35}, seed=n)
            for sched in sorted(SCHEDULERS):
                yield _line(f"ghs-mst/{kind}/{n}/{sched}", _mst, g, sched)


def failure_cases():
    for kind, n, p, seed, m in FAILURE_GRAPHS:
        g = make_topology(kind, n, {"p": p} if p else {}, seed=seed)
        values = [(5 * i + 2) % 37 for i in range(n)]
        for edge in sorted(g.edges):
            try:
                fail_link(g, edge)
            except WouldDisconnect:
                continue
            for sched in sorted(SCHEDULERS):
                yield _line(f"hybrid-fail/{kind}/{n}/{edge[0]}-{edge[1]}/"
                            f"{sched}", _failure, g, values, m, seed, sched,
                            edge)


def hybrid_m_cases():
    fn = get_function(FUNCTIONS["hybrid"], 128)
    for kind, n, g, values in _graphs(fn):
        for m in (1, 2, math.ceil(n / 2), n):
            for sched in sorted(SCHEDULERS):
                yield _line(f"hybrid@m{m}/{kind}/{n}/{sched}", _single,
                            "hybrid", g, values, fn, sched, "recorded", 0.0, m)


def absorb_cases():
    kind, n, p, topo_seed, m, seed = ABSORB
    g = make_topology(kind, n, {"p": p}, seed=topo_seed)
    values = [(7 * i + 3) % 31 for i in range(n)]
    fn = get_function(FUNCTIONS["hybrid"], 128)
    for sched in sorted(SCHEDULERS):
        yield _line(f"hybrid-absorb/{kind}/{n}/{sched}", _single, "hybrid", g,
                    values, fn, sched, "recorded", 0.0, m, seed)


def single_node_cases():
    g = make_topology("path", 1, seed=0)
    for algo in sorted(ALGORITHMS):
        fn = get_function("mean" if algo == "average" else "max", 128)
        for sched in sorted(SCHEDULERS):
            yield _line(f"single-node/{algo}/{sched}", _single, algo, g, [5],
                        fn, sched, "recorded", 0.0, 1)


# in print order; a new family goes at the end, so no earlier line moves
FAMILIES = (single_cases, start_cases, mst_cases, failure_cases,
            hybrid_m_cases, absorb_cases, single_node_cases)


def main() -> int:
    for family in FAMILIES:
        for line in family():
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
