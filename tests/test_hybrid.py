import random
import zlib
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consim.engine import (SCHEDULERS, Simulation, TimingParams, run,
                           trace_digest, validate_trace)
from consim.errors import (ConfigError, InvariantViolation, NotHierarchical,
                           WouldDisconnect)
from consim.functions import (MaxFunction, MeanFunction, MedianFunction,
                              VoteFunction, oracle)
from consim.ghs import BASIC, BRANCH
from consim.hybrid import (FailureExperiment, HybridAutomaton, HybridProtocol,
                           branch_sizes, check_cluster_discipline, cluster_map)
from consim.messages import Message, SizeModel
from consim.metrics import (byte_complexity, message_complexity,
                            peak_bandwidth, peak_bandwidth_by_phase,
                            time_complexity)
from consim.topology import TOPOLOGY_KINDS, Graph, fail_link, make_topology

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


@pytest.mark.parametrize("scheduler", ["lockstep", "random"])
def test_absorb_adopts_a_node_still_in_phase_1(scheduler, monkeypatch):
    # an absorb that reaches a node before the done flood does is its
    # adoption into the finished cluster, and its entry into phase 2
    adoptions = []
    on_absorb = HybridAutomaton.HANDLERS["p1.absorb"]

    def counting(self, msg, src, out):
        if not self.halted:
            adoptions.append(self.ctx.uid)
        return on_absorb(self, msg, src, out)

    monkeypatch.setitem(HybridAutomaton.HANDLERS, "p1.absorb", counting)
    g = make_topology("random_connected", 16, {"p": 0.3}, seed=5)
    fn = MaxFunction(64)
    values = list(range(16))
    trace, sim = run_hybrid(g, values, fn, m=2, scheduler=scheduler, seed=5,
                            keep_sim=True)
    assert adoptions
    validate_trace(trace)
    assert trace.outputs == {u: oracle(fn, values) for u in g.uids}
    assert not check_cluster_discipline(sim.automata, 16, 2)


@pytest.mark.parametrize("mtype, payload, reply", [
    ("p1.connect", (2,), "p1.absorb"),
    ("p1.test", (2, 99), "p1.accept"),
])
def test_a_finished_cluster_absorbs_connects_and_accepts_tests(mtype, payload,
                                                               reply):
    g = make_topology("path", 4, seed=0)
    _trace, sim = run_hybrid(g, [1, 2, 3, 4], MaxFunction(64), m=2,
                             keep_sim=True)
    node = sim.automata[g.uids[0]]
    peer = node.ctx.neighbors[0]
    msg = Message(mtype, peer, sim.size_model.size(n_uids=1), g.uids[0],
                  payload)
    out = node.on_message(msg, peer)
    absorb = (node.cluster_id,) if reply == "p1.absorb" else None
    assert [(m.mtype, m.dst, m.payload) for m in out] == \
        [(reply, peer, absorb)]
    assert node.edge_state[peer] == BRANCH


@st.composite
def hybrid_configs(draw):
    n = draw(st.integers(2, 14))
    return (draw(st.sampled_from(TOPOLOGY_KINDS)), n, draw(st.integers(1, n)),
            draw(st.sampled_from(sorted(SCHEDULERS))),
            draw(st.integers(0, 2**16)))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(config=hybrid_configs())
def test_every_m_reaches_consensus_with_disciplined_clusters(config):
    kind, n, m, scheduler, seed = config
    g = make_topology(kind, n, {"p": 0.35}, seed=seed)
    fn = MaxFunction(64)
    values = [(7 * i + seed) % 41 for i in range(n)]
    trace, sim = run_hybrid(g, values, fn, m, scheduler=scheduler, seed=seed,
                            keep_sim=True)
    assert trace.outputs == dict.fromkeys(g.uids, oracle(fn, values))
    validate_trace(trace)
    assert not check_cluster_discipline(sim.automata, n, m)
    again = run_hybrid(g, values, fn, m, scheduler=scheduler, seed=seed)
    assert trace_digest(again) == trace_digest(trace)


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


def test_recovery_after_tree_edge_failure():
    g = make_topology("random_connected", 12, {"p": 0.5}, seed=21)
    fn = MaxFunction(64)
    values = [random.Random(21).randrange(500) for _ in range(12)]
    exp = FailureExperiment(g, values, fn, m=3, timing=TIMING)
    want = oracle(fn, values)
    assert set(exp.initial_trace.outputs.values()) == {want}
    breakable = exp.breakable_tree_edges()
    assert breakable
    exp.fail_link(breakable[0])
    rerun = exp.reconsensus()
    assert set(rerun.outputs.values()) == {want}
    assert not check_cluster_discipline(exp.automata, 12, 3)


def test_recovery_puts_both_ends_of_a_failed_tree_edge_back_in_the_scan():
    # `_test` resumes its scan of the neighbors at `basic_from`; the child
    # and the parent side of a failed tree edge each set it back to BASIC,
    # and each must move its index back so that no BASIC edge is skipped
    g = make_topology("random_connected", 12, {"p": 0.5}, seed=21)
    values = [random.Random(21).randrange(500) for _ in range(12)]
    exp = FailureExperiment(g, values, MaxFunction(64), m=3, timing=TIMING)
    edge = exp.breakable_tree_edges()[0]
    u, v = edge
    child, parent = (u, v) if exp.automata[u].parent == v else (v, u)
    ends = ((child, parent), (parent, child))
    for uid, peer in ends:  # the first MST's scans passed the tree edge
        a = exp.automata[uid]
        assert a.ctx.neighbors.index(peer) < a.basic_from
    exp.fail_link(edge)
    for uid, peer in ends:
        assert exp.automata[uid].edge_state[peer] == BASIC
    for a in exp.automata.values():
        assert all(a.edge_state.get(p) != BASIC
                   for p in a.ctx.neighbors[:a.basic_from])
    rerun = exp.reconsensus()
    assert set(rerun.outputs.values()) == {oracle(MaxFunction(64), values)}


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
    tree = exp.breakable_tree_edges()  # all of them: K9 has no bridge
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


def test_a_cut_from_a_superseded_counting_pass_still_counts(monkeypatch):
    # node 17 cuts loose in a recount pass that node 1 has since restarted;
    # the cut must stand, for 17 answers no later pass: dropping it left
    # node 1 waiting for 17, and the rerun never output
    stale = []
    on_cut = HybridAutomaton.HANDLERS["pf.cut"]

    def counting(self, msg, src, out):
        if msg.payload[1] != self.pf_token:
            stale.append((self.ctx.uid, src))
        return on_cut(self, msg, src, out)

    monkeypatch.setitem(HybridAutomaton.HANDLERS, "pf.cut", counting)
    g = make_topology("random_connected", 11, {"p": 0.15}, seed=899841)
    exp = _recovery_case(g, 4, "random", seed=899841)
    _fail_and_recover(exp, (4, 13))
    assert stale == [(1, 17)]


def test_a_link_failure_during_discovery_is_the_typed_error():
    # the failed link's entry outlives it until on_link_down: the discovery
    # gate must not open on that count and read a live neighbor it lacks
    g = make_topology("random_connected", 10, {"p": 0.35}, seed=0)
    sim = Simulation(HybridProtocol(2), g, list(range(10)), fn=MaxFunction(64),
                     timing=TIMING, seed=0)
    sim.schedule_link_down(9, 11, at=22 * D)
    with pytest.raises(InvariantViolation, match="before node 9 output"):
        sim.run()


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
    exp.fail_link(exp.breakable_tree_edges()[0])
    exp.reconsensus()
    end, start = exp.repair_trace.last_time(), exp.sim.start_time
    assert end + TIMING.d <= start < end + 2 * TIMING.d
    assert start == TIMING.boundary(start)


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_a_later_failure_follows_the_latest_consensus(scheduler):
    # a second failure is timed from the first rerun, not from the initial
    # consensus, which ended 0.44 s before that rerun's last record
    g = make_topology("random_connected", 14, {"p": 0.35}, seed=6)
    exp = FailureExperiment(g, list(range(14)), MaxFunction(64), 3,
                            timing=TIMING, seed=6, scheduler=scheduler)
    traces = [exp.initial_trace]
    for _ in range(2):
        traces.append(exp.fail_link(exp.breakable_tree_edges()[0]))
        traces.append(exp.reconsensus())
        assert traces[-1].outputs == dict.fromkeys(
            g.uids, oracle(exp.fn, range(14)))
        assert not check_cluster_discipline(exp.automata, 14, 3)
    for before, after in zip(traces, traces[1:]):
        validate_trace(before)
        assert after.config["start_time"] >= before.last_time()
    validate_trace(traces[-1])


def test_failure_experiment_steps_run_in_order():
    g = make_topology("random_connected", 14, {"p": 0.35}, seed=6)
    exp = _recovery_case(g, 3, "lockstep", seed=6)
    with pytest.raises(ConfigError, match="needs a link failure first"):
        exp.reconsensus()
    exp.fail_link(exp.breakable_tree_edges()[0])
    with pytest.raises(ConfigError, match="needs its reconsensus first"):
        exp.fail_link(exp.breakable_tree_edges()[0])
    exp.reconsensus()
    with pytest.raises(ConfigError, match="needs a link failure first"):
        exp.reconsensus()


def test_small_half_rejoins_a_neighbor_cluster():
    # cycle: break a tree edge near a cluster boundary; the lone half must
    # end up attached to some adjacent cluster and sizes stay disciplined
    g = make_topology("cycle", 12, seed=13)
    fn = MaxFunction(64)
    values = list(range(12))
    exp = FailureExperiment(g, values, fn, m=4, timing=TIMING)
    exp.fail_link(exp.breakable_tree_edges()[0])
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


# the path 1 <- 2 <- 3 <- 4 as one cluster: at n = 4, m = 2 the cap is 2
# and node 2's branch of 3 is over it
_PATH_CLUSTER = {1: (1, None), 2: (1, 1), 3: (1, 2), 4: (1, 3)}


@pytest.mark.parametrize("forest, undo, problem", [
    ({1: (5, None), 2: (5, 1), 3: (3, None), 4: (3, 3)}, None,
     "cluster 5 does not contain its root"),
    ({1: (1, 2), 2: (2, None), 3: (2, 2), 4: (2, 3)}, None,
     "root 1 has a parent"),
    ({1: (1, None), 2: (1, 1), 3: (3, None), 4: (1, 3)}, None,
     "node 4 of cluster 1 has parent 3"),
    (_PATH_CLUSTER, None, "non-root node 2 keeps a branch of 3 > 2"),
    (_PATH_CLUSTER, 2, None),  # the root took node 2's cut back
])
def test_cluster_discipline_of_a_hand_built_forest(forest, undo, problem):
    # uid -> (cluster_id, parent); the root records the undo exception
    automata = {u: SimpleNamespace(cluster_id=cid, parent=p,
                                   undo_exception=undo if p is None else None)
                for u, (cid, p) in forest.items()}
    assert check_cluster_discipline(automata, 4, 2) == \
        ([] if problem is None else [problem])
