import random
import zlib

import pytest

from consim.engine import Simulation, TimingParams, run, validate_trace
from consim.errors import (ConfigError, InvariantViolation, NotHierarchical,
                           WouldDisconnect)
from consim.functions import (MaxFunction, MeanFunction, MedianFunction,
                              VoteFunction, oracle)
from consim.hybrid import (FailureExperiment, HybridProtocol, branch_sizes,
                           check_cluster_discipline, cluster_map)
from consim.messages import SizeModel
from consim.metrics import (byte_complexity, message_complexity,
                            peak_bandwidth, peak_bandwidth_by_phase,
                            time_complexity)
from consim.topology import Graph, fail_link, make_topology

D = 0.01
TIMING = TimingParams(d=D, l=D / 10)


def run_hybrid(graph, values, fn, m, scheduler="lockstep", seed=0,
               keep_sim=False):
    sm = SizeModel.for_network(graph.n, fn.bits, pool_size=graph.pool_size)
    sim = Simulation(HybridProtocol(m), graph, values, fn=fn, timing=TIMING,
                     scheduler=scheduler, seed=seed, size_model=sm)
    trace = sim.run()
    return (trace, sim) if keep_sim else trace


def test_m1_single_cluster_equals_mst():
    g = make_topology("random_connected", 12, {"p": 0.4}, seed=3)
    fn = MaxFunction(64)
    values = list(range(12))
    trace, sim = run_hybrid(g, values, fn, m=1, keep_sim=True)
    assert set(trace.outputs.values()) == {11}
    assert len(cluster_map(sim.automata)) == 1
    from consim.ghs import mst_edges
    from consim.topology import kruskal_mst
    assert mst_edges(sim.automata) == kruskal_mst(g)


def test_m_equals_n_singleton_clusters():
    g = make_topology("cycle", 8, seed=2)
    fn = MaxFunction(64)
    values = [3, 7, 2, 9, 1, 4, 8, 5]
    trace, sim = run_hybrid(g, values, fn, m=8, keep_sim=True)
    clusters = cluster_map(sim.automata)
    assert len(clusters) == 8
    assert all(len(members) == 1 for members in clusters.values())
    assert set(trace.outputs.values()) == {9}
    # singleton exchange degenerates into broadcast flooding
    mtypes = {msg.mtype for _, msg in trace.events.sent()}
    assert "p4.share" in mtypes
    assert "p4.values" not in mtypes


def test_path5_split_into_sizes_two_and_three():
    # engineered UID layout: one fragment absorbs the whole path, then the
    # counting phase cuts it at the third node from the leaf
    g = Graph(uids=(0, 1, 2, 4, 3),
              edges=frozenset({(0, 1), (1, 2), (2, 4), (3, 4)}),
              kind="path")
    fn = MaxFunction(64)
    trace, sim = run_hybrid(g, {0: 5, 1: 6, 2: 7, 4: 8, 3: 9}, fn, m=2,
                            keep_sim=True)
    sizes = sorted(len(m) for m in cluster_map(sim.automata).values())
    assert sizes == [2, 3]
    assert set(trace.outputs.values()) == {9}
    assert not check_cluster_discipline(sim.automata, 5, 2)


@pytest.mark.parametrize("scheduler", ["lockstep", "random", "adversarial"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_outputs_equal_oracle_across_schedulers(scheduler, m):
    rng = random.Random(zlib.crc32(f"{scheduler}/{m}".encode()) & 0xFFFF)
    fn = MaxFunction(64)
    for trial in range(3):
        n = rng.randrange(max(2, m), 16)
        g = make_topology("random_connected", n, {"p": 0.5}, seed=trial + 7)
        values = [rng.randrange(999) for _ in range(n)]
        trace, sim = run_hybrid(g, values, fn, m=min(m, n),
                                scheduler=scheduler, seed=trial, keep_sim=True)
        validate_trace(trace)
        assert set(trace.outputs.values()) == {oracle(fn, values)}, \
            f"{scheduler} m={m} n={n} trial={trial}"
        assert not check_cluster_discipline(sim.automata, n, min(m, n))


def test_mean_and_vote_supported():
    g = make_topology("random_connected", 10, {"p": 0.4}, seed=11)
    mean = MeanFunction(128)
    values = [5, 1, 8, 2, 9, 4, 7, 3, 6, 0]
    trace = run_hybrid(g, values, mean, m=3)
    want = oracle(mean, values)
    for v in trace.outputs.values():
        assert abs(v - want) <= 1e-9 * max(1.0, abs(want))
    vote = VoteFunction(128, 3)
    ballots = [0, 1, 2, 1, 1, 0, 2, 1, 0, 1]
    trace = run_hybrid(g, ballots, vote, m=3)
    assert set(trace.outputs.values()) == {oracle(vote, ballots)}


def test_rejects_non_hierarchical_and_bad_m():
    g = make_topology("path", 4, seed=0)
    with pytest.raises(NotHierarchical):
        run_hybrid(g, [1, 2, 3, 4], MedianFunction(32), m=2)
    with pytest.raises(ConfigError):
        HybridProtocol(0)
    with pytest.raises(ConfigError):
        run_hybrid(g, [1, 2, 3, 4], MaxFunction(64), m=9)


def test_single_node():
    g = make_topology("path", 1, seed=0)
    trace = run_hybrid(g, [42], MaxFunction(64), m=1)
    assert trace.outputs[g.uids[0]] == 42
    assert message_complexity(trace) == 0


def test_cluster_sizes_track_m_on_cycles():
    g = make_topology("cycle", 24, seed=5)
    fn = MaxFunction(64)
    for m in (2, 4, 8):
        trace, sim = run_hybrid(g, list(range(24)), fn, m=m, keep_sim=True)
        clusters = cluster_map(sim.automata)
        assert set(trace.outputs.values()) == {23}
        assert not check_cluster_discipline(sim.automata, 24, m)
        # arcs can merge to ceil(n/m) and absorb one more arc before stopping,
        # and the splitting phase trims anything deeper
        assert all(len(mem) <= 2 * (24 // m) + 1
                   for mem in clusters.values())


def test_phase_attribution_and_p1_burst():
    g = make_topology("balanced_tree", 20, {"arity": 3}, seed=4)
    fn = MaxFunction(256)
    trace = run_hybrid(g, list(range(20)), fn, m=4)
    peaks = peak_bandwidth_by_phase(trace)
    sm = trace.size_model
    # the synchronized wakeup burst: every node opens with one compact connect
    assert peaks["p1"] >= 20 * (sm.flag_bits + sm.uid_bits) / D - 1e-9
    assert set(peaks) >= {"p1", "p2", "p3", "p4"}


def test_value_messages_route_hop_by_hop_with_no_duplication():
    g = make_topology("cycle", 12, seed=9)
    fn = MaxFunction(64)
    trace, sim = run_hybrid(g, list(range(12)), fn, m=3, keep_sim=True)
    # each routed copy is a unicast: exactly one sender per send event, and
    # every routed message names its next hop
    for _, msg in trace.events.sent():
        if msg.mtype == "p4.values":
            assert msg.dst is not None
    assert set(trace.outputs.values()) == {11}


# -- failure recovery --------------------------------------------------------


def _tree_edges(automata):
    return {(min(u, a.parent), max(u, a.parent))
            for u, a in automata.items() if a.parent is not None}


def test_recovery_after_tree_edge_failure():
    g = make_topology("random_connected", 12, {"p": 0.5}, seed=21)
    fn = MaxFunction(64)
    values = [random.Random(21).randrange(500) for _ in range(12)]
    exp = FailureExperiment(g, values, fn, m=3, timing=TIMING)
    want = oracle(fn, values)
    assert set(exp.initial_trace.outputs.values()) == {want}
    tree = _tree_edges(exp.automata)
    breakable = [e for e in tree
                 if len(g.edges) > 1 and _still_connected(g, e)]
    assert breakable
    edge = sorted(breakable)[0]
    exp.fail_link(edge)
    rerun = exp.reconsensus()
    assert set(rerun.outputs.values()) == {want}
    assert not check_cluster_discipline(exp.automata, 12, 3)


def _still_connected(g, edge):
    try:
        fail_link(g, edge)
        return True
    except WouldDisconnect:
        return False


def test_recovery_after_non_tree_edge_failure_keeps_clusters():
    g = make_topology("complete", 9, seed=3)
    fn = MaxFunction(64)
    values = list(range(9))
    exp = FailureExperiment(g, values, fn, m=3, timing=TIMING)
    before = cluster_map(exp.automata)
    tree = _tree_edges(exp.automata)
    non_tree = sorted(e for e in g.edges if e not in tree)
    assert non_tree
    exp.fail_link(non_tree[0])
    assert cluster_map(exp.automata) == before  # no re-clustering
    rerun = exp.reconsensus()
    assert set(rerun.outputs.values()) == {8}


def _edge_kind(automata, u, v):
    """How the link {u, v} relates to the final clusters: the boundary of a
    cut (a cut root and the old parent it left), a tree edge, or a non-tree
    edge inside one cluster or between two."""
    a, b = automata[u], automata[v]
    if v == a.old_parent or u == b.old_parent:
        return "cut-boundary"
    if v == a.parent or u == b.parent:
        return "tree"
    return "intra-cluster" if a.cluster_id == b.cluster_id else "cross-cluster"


def _recovery_case(g, m, scheduler, seed):
    """A finished hybrid run on g, ready for one link failure."""
    values = [(5 * i + 2) % 37 for i in range(g.n)]
    return FailureExperiment(g, values, MaxFunction(64), m, timing=TIMING,
                             seed=seed, scheduler=scheduler)


def _fail_and_recover(exp, edge, at=None):
    """Fail `edge` and recompute: every trace must be valid, the outputs
    exact and the clusters disciplined."""
    exp.fail_link(edge, at)
    rerun = exp.reconsensus()
    for trace in (exp.initial_trace, exp.repair_trace, rerun):
        validate_trace(trace)
    want = oracle(exp.fn, exp.sim.values.values())
    assert rerun.outputs == dict.fromkeys(exp.graph.uids, want)
    assert not check_cluster_discipline(exp.automata, exp.graph.n, exp.m)


# (seed, p, m) of random_connected n=10 graphs on which every edge kind
# occurs; their first edges of each kind run every branch of on_link_down
# and of _route_repair, and the pf.route_dead relay
KIND_GRAPHS = [(0, 0.3, 2), (2, 0.3, 3)]


@pytest.mark.parametrize("scheduler", ["lockstep", "random"])
@pytest.mark.parametrize("kind", ["cut-boundary", "cross-cluster",
                                  "intra-cluster"])
def test_recovery_after_non_tree_edge_failure_of_every_kind(kind, scheduler):
    for seed, p, m in KIND_GRAPHS:
        g = make_topology("random_connected", 10, {"p": p}, seed=seed)
        automata = _recovery_case(g, m, scheduler, seed).automata
        edges = [e for e in sorted(g.edges)
                 if _edge_kind(automata, *e) == kind and _still_connected(g, e)]
        assert edges, (seed, kind)
        for edge in edges[:2]:
            _fail_and_recover(_recovery_case(g, m, scheduler, seed), edge)


@pytest.mark.parametrize("scheduler", ["lockstep", "random"])
def test_small_half_joins_through_the_child_that_found_the_candidate(scheduler):
    # the half below the failed tree edge is under ceil(n/2m), and its best
    # foreign edge lies below its new root: the join goes down to it
    g = make_topology("random_connected", 14, {"p": 0.3}, seed=1)
    exp = _recovery_case(g, 2, scheduler, seed=1)
    assert _edge_kind(exp.automata, 1, 11) == "tree"
    _fail_and_recover(exp, (1, 11))
    assert any(msg.mtype == "pf.join"
               for _, msg in exp.repair_trace.events.sent())


def test_link_down_before_output_is_rejected_promptly():
    # recovery starts only once consensus has completed; a failure during
    # phase 1 must end in a typed error, not loop until the event cap
    g = make_topology("random_connected", 30, {"p": 0.3}, seed=3)
    sim = Simulation(HybridProtocol(3), g, list(range(30)), fn=MaxFunction(64),
                     timing=TIMING, seed=3, event_cap=200_000)
    sim.schedule_link_down(1, 2, at=0.015)
    with pytest.raises(InvariantViolation, match="before node 1 output"):
        sim.run()


def test_failed_bridge_rejected():
    g = make_topology("path", 5, seed=1)
    fn = MaxFunction(64)
    exp = FailureExperiment(g, [1, 2, 3, 4, 5], fn, m=2, timing=TIMING)
    with pytest.raises(WouldDisconnect):
        exp.fail_link(sorted(g.edges)[0])


@pytest.mark.parametrize("at", ["before", float("nan"), float("inf"),
                                -float("inf")])
def test_link_failure_before_the_consensus_ends_is_rejected(at):
    g = make_topology("complete", 6, seed=2)
    exp = _recovery_case(g, 2, "lockstep", seed=2)
    if at == "before":
        at = exp.initial_trace.last_output_time() - 0.001
    with pytest.raises(ConfigError, match="must be finite and not before"):
        exp.fail_link(sorted(g.edges)[0], at=at)
    assert exp.repair_trace is None and exp.graph is g


@pytest.mark.parametrize("scheduler", ["lockstep", "random"])
def test_link_failure_at_the_last_output_is_accepted(scheduler):
    g = make_topology("complete", 6, seed=2)
    exp = _recovery_case(g, 2, scheduler, seed=2)
    _fail_and_recover(exp, sorted(g.edges)[0],
                      at=exp.initial_trace.last_output_time())


def test_rerun_starts_a_full_window_after_the_repair():
    # the random scheduler's records are off the grid: the rerun starts at
    # the first boundary not before one window after the repair's last one
    g = make_topology("random_connected", 14, {"p": 0.35}, seed=6)
    exp = _recovery_case(g, 3, "random", seed=6)
    edge = next(e for e in sorted(_tree_edges(exp.automata))
                if _still_connected(g, e))
    exp.fail_link(edge)
    exp.reconsensus()
    end, start = exp.repair_trace.last_time(), exp.sim.start_time
    assert end + TIMING.d <= start < end + 2 * TIMING.d
    assert start == TIMING.boundary(start)


def test_small_half_rejoins_a_neighbor_cluster():
    # cycle: break a tree edge near a cluster boundary; the lone half must
    # end up attached to some adjacent cluster and sizes stay disciplined
    g = make_topology("cycle", 12, seed=13)
    fn = MaxFunction(64)
    values = list(range(12))
    exp = FailureExperiment(g, values, fn, m=4, timing=TIMING)
    tree = sorted(_tree_edges(exp.automata))
    edge = next(e for e in tree if _still_connected(g, e))
    exp.fail_link(edge)
    rerun = exp.reconsensus()
    assert set(rerun.outputs.values()) == {11}
    problems = check_cluster_discipline(exp.automata, 12, 4)
    assert not problems, problems


class _Node:
    def __init__(self, parent):
        self.parent = parent


def test_branch_sizes_of_a_hand_built_forest():
    # two trees, 1 <- {2, 3}, 3 <- {4, 5}, 5 <- 6 and 7 <- 8, plus a lone 9,
    # listed children before parents so no order of the input helps
    parents = {6: 5, 4: 3, 5: 3, 2: 1, 3: 1, 8: 7, 1: None, 7: None, 9: None}
    sizes = branch_sizes({u: _Node(p) for u, p in parents.items()})
    assert sizes == {1: 6, 2: 1, 3: 4, 4: 1, 5: 2, 6: 1, 7: 2, 8: 1, 9: 1}


@pytest.mark.parametrize("parents", [
    {1: 2, 2: 3, 3: 1, 4: None},  # a 3-cycle beside a root
    {1: None, 2: 1, 3: 4, 4: 3, 5: 4},  # a branch hanging off a 2-cycle
    {1: 1},  # a node that is its own parent
])
def test_branch_sizes_rejects_parent_pointer_cycles(parents):
    with pytest.raises(InvariantViolation, match="form a cycle"):
        branch_sizes({u: _Node(p) for u, p in parents.items()})
