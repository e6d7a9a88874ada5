import random
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consim.engine import Simulation, TimingParams, run, validate_trace
from consim.errors import InvariantViolation, NotHierarchical
from consim.functions import MaxFunction, MeanFunction, MedianFunction, oracle
from consim.ghs import (GhsMstProtocol, GhsParallelProtocol, GhsTokenProtocol,
                        ParallelConvergecastProtocol, TokenConvergecastProtocol,
                        TokenPass, mst_edges, root_tree, tree_from_automata)
from consim.messages import Message, SizeModel
from consim.metrics import (byte_complexity, message_complexity,
                            peak_bandwidth, time_complexity)
from consim.topology import Graph, edge_weight, kruskal_mst, make_topology

D = 0.01
TIMING = TimingParams(d=D, l=D / 10)


def run_mst(graph, scheduler="lockstep", seed=0):
    sim = Simulation(GhsMstProtocol(), graph, [0] * graph.n, fn=None,
                     scheduler=scheduler, seed=seed, timing=TIMING)
    trace = sim.run()
    return sim, trace


def test_triangle_mst_by_hand():
    # weights (1,2) < (1,3) < (2,3): tree keeps the two cheapest
    g = Graph(uids=(1, 2, 3), edges=frozenset({(1, 2), (1, 3), (2, 3)}))
    sim, trace = run_mst(g)
    assert mst_edges(sim.automata) == frozenset({(1, 2), (1, 3)})
    validate_trace(trace)


def test_tree_input_is_its_own_mst():
    g = make_topology("random_tree", 17, seed=3)
    sim, _ = run_mst(g)
    assert mst_edges(sim.automata) == g.edges


@pytest.mark.parametrize("scheduler", ["lockstep", "random", "adversarial"])
def test_mst_equals_kruskal_on_random_graphs(scheduler):
    rng = random.Random(zlib.crc32(scheduler.encode()) & 0xFFFF)
    for trial in range(12):
        n = rng.randrange(2, 30)
        p = rng.choice([0.15, 0.3, 0.6, 1.0])
        g = make_topology("random_connected", n, {"p": p}, seed=trial)
        sim, trace = run_mst(g, scheduler=scheduler, seed=trial)
        assert mst_edges(sim.automata) == kruskal_mst(g), \
            f"n={n} p={p} trial={trial} {scheduler}"
        validate_trace(trace)


def test_root_is_higher_uid_endpoint_of_final_core_edge():
    g = make_topology("random_connected", 12, {"p": 0.4}, seed=8)
    sim, trace = run_mst(g)
    roots = [u for u, a in sim.automata.items() if a.is_root]
    assert len(roots) == 1
    assert set(trace.outputs.values()) == {roots[0]}
    tree = tree_from_automata(sim.automata)
    # parent pointers walk to the root from everywhere
    for uid in g.uids:
        cur, hops = uid, 0
        while tree[cur].parent is not None:
            cur = tree[cur].parent
            hops += 1
            assert hops <= g.n
        assert cur == roots[0]


def test_mst_message_sizes_capped_at_flag_plus_three_uids():
    g = make_topology("random_connected", 20, {"p": 0.3}, seed=5)
    sim, trace = run_mst(g, scheduler="random", seed=2)
    sm = trace.size_model
    cap = sm.flag_bits + 3 * sm.uid_bits
    for _, msg in trace.events.sent():
        if msg.mtype.startswith("ghs."):
            assert msg.size_bits <= cap, msg.mtype


def test_run_mst_tree_from_automata_is_the_kruskal_tree():
    g = make_topology("cycle", 9, seed=4)
    sim, _trace = run_mst(g, seed=4)
    tree = tree_from_automata(sim.automata)
    roots = [u for u, ti in tree.items() if ti.is_root]
    assert len(roots) == 1
    child_edges = {(min(u, ti.parent), max(u, ti.parent))
                   for u, ti in tree.items() if ti.parent is not None}
    assert child_edges == kruskal_mst(g)


# -- token convergecast -------------------------------------------------------


def token_on_tree(graph, values, fn, root, scheduler="adversarial", seed=0):
    tree = root_tree(graph, root)
    sm = SizeModel.for_network(graph.n, fn.bits, pool_size=graph.pool_size)
    return run(TokenConvergecastProtocol(tree), graph, values, fn=fn,
               timing=TIMING, scheduler=scheduler, seed=seed, size_model=sm)


def test_token_exact_message_count_and_disjoint_windows():
    rng = random.Random(2)
    for trial in range(8):
        n = rng.randrange(2, 40)
        g = make_topology("random_tree", n, seed=trial)
        root = rng.choice(g.uids)
        values = [rng.randrange(1000) for _ in range(n)]
        trace = token_on_tree(g, values, MaxFunction(64), root)
        assert message_complexity(trace) == 4 * (n - 1)
        starts = sorted(t for t, _ in trace.events.sent())
        for a, b in zip(starts, starts[1:]):
            assert b - a >= D - 1e-12, "transmission windows overlap"
        assert set(trace.outputs.values()) == {max(values)}


def test_token_n1_and_n5():
    g1 = make_topology("path", 1, seed=0)
    t1 = token_on_tree(g1, [7], MaxFunction(64), g1.uids[0])
    assert message_complexity(t1) == 0
    assert t1.outputs[g1.uids[0]] == 7

    g5 = make_topology("random_tree", 5, seed=9)
    t5 = token_on_tree(g5, [3, 1, 4, 1, 5], MaxFunction(64), g5.uids[0])
    assert message_complexity(t5) == 16


def test_token_uniform_message_size():
    g = make_topology("random_tree", 10, seed=1)
    trace = token_on_tree(g, list(range(10)), MaxFunction(64), g.uids[0])
    sm = trace.size_model
    want = sm.flag_bits + 2 * sm.uid_bits + sm.value_bits
    assert {msg.size_bits for _, msg in trace.events.sent()} == {want}


def test_token_time_is_4n_minus_1_d_under_adversary():
    g = make_topology("random_tree", 12, seed=6)
    trace = token_on_tree(g, list(range(12)), MaxFunction(64), g.uids[2])
    assert time_complexity(trace) == pytest.approx(4 * 11 * D)


def test_token_children_visited_in_ascending_uid_order():
    g = make_topology("star", 6, seed=3)
    hub = max(g.uids, key=g.degree)
    trace = token_on_tree(g, [0] * 6, MaxFunction(64), hub)
    computes = [msg.dst for _, msg in trace.events.sent()
                if msg.mtype == "token.compute"]
    assert computes == sorted(computes)


def test_token_rejects_non_hierarchical():
    g = make_topology("path", 3, seed=0)
    tree = root_tree(g, g.uids[0])
    with pytest.raises(NotHierarchical):
        run(TokenConvergecastProtocol(tree), g, [1, 2, 3],
            fn=MedianFunction(32), timing=TIMING)


def test_token_pass_rejects_foreign_message_with_typed_error():
    token = TokenPass(None, None, (), ("t.compute", "t.reply", "t.relay",
                                       "t.ack"))
    with pytest.raises(InvariantViolation, match="foreign message x.other"):
        token.handle(Message("x.other", 1, 8), 1)


# -- parallel convergecast ----------------------------------------------------


def test_parallel_p4_hand_trace():
    # path rooted at one end: 3 reports up, then 3 result broadcasts down
    g = make_topology("path", 4, seed=0)
    end = g.uids[0]
    tree = root_tree(g, end)
    fn = MaxFunction(64)
    values = dict(zip(g.uids, [2, 9, 4, 7]))
    sm = SizeModel.for_network(4, 64, pool_size=g.pool_size)
    trace = run(ParallelConvergecastProtocol(tree), g, values, fn=fn,
                timing=TIMING, size_model=sm)
    assert set(trace.outputs.values()) == {9}
    assert message_complexity(trace) == 6


def test_parallel_star_peak_is_linear_in_n():
    n = 30
    g = make_topology("star", n, seed=2)
    hub = max(g.uids, key=g.degree)
    tree = root_tree(g, hub)
    fn = MaxFunction(64)
    sm = SizeModel.for_network(n, 64, pool_size=g.pool_size)
    trace = run(ParallelConvergecastProtocol(tree), g, list(range(n)), fn=fn,
                timing=TIMING, size_model=sm)
    per_msg = sm.flag_bits + sm.uid_bits + sm.value_bits
    assert peak_bandwidth(trace) == pytest.approx((n - 1) * per_msg / D)


def test_parallel_and_token_agree():
    rng = random.Random(13)
    fn = MeanFunction(128)
    for trial in range(5):
        n = rng.randrange(2, 25)
        g = make_topology("random_tree", n, seed=trial + 50)
        root = rng.choice(g.uids)
        values = [rng.randrange(200) for _ in range(n)]
        tree = root_tree(g, root)
        sm = SizeModel.for_network(n, 128, pool_size=g.pool_size)
        t1 = run(ParallelConvergecastProtocol(tree), g, values, fn=fn,
                 timing=TIMING, size_model=sm)
        t2 = run(TokenConvergecastProtocol(tree), g, values, fn=fn,
                 timing=TIMING, size_model=sm)
        assert t1.outputs == t2.outputs


# -- full pipelines -----------------------------------------------------------


@pytest.mark.parametrize("proto_cls", [GhsParallelProtocol, GhsTokenProtocol])
@pytest.mark.parametrize("scheduler", ["lockstep", "random", "adversarial"])
def test_pipeline_outputs_equal_oracle(proto_cls, scheduler):
    rng = random.Random(
        zlib.crc32(f"{proto_cls.name}/{scheduler}".encode()) & 0xFFFF)
    fn = MaxFunction(64)
    for trial in range(4):
        n = rng.randrange(2, 20)
        g = make_topology("random_connected", n, {"p": 0.4}, seed=trial)
        values = [rng.randrange(500) for _ in range(n)]
        sm = SizeModel.for_network(n, 64, pool_size=g.pool_size)
        trace = run(proto_cls(), g, values, fn=fn, timing=TIMING,
                    scheduler=scheduler, seed=trial, size_model=sm)
        validate_trace(trace)
        assert set(trace.outputs.values()) == {oracle(fn, values)}


def test_pipeline_token_message_count_decomposition():
    g = make_topology("star", 20, seed=7)
    fn = MaxFunction(64)
    sm = SizeModel.for_network(20, 64, pool_size=g.pool_size)
    trace = run(GhsTokenProtocol(), g, list(range(20)), fn=fn, timing=TIMING,
                size_model=sm)
    token_msgs = [msg for _, msg in trace.events.sent()
                  if msg.mtype.startswith("token.")]
    assert len(token_msgs) == 4 * 19
    assert set(trace.outputs.values()) == {19}


def test_pipeline_single_node():
    g = make_topology("path", 1, seed=0)
    fn = MaxFunction(64)
    for proto in (GhsParallelProtocol(), GhsTokenProtocol()):
        trace = run(proto, g, [42], fn=fn, timing=TIMING)
        assert trace.outputs[g.uids[0]] == 42
        assert message_complexity(trace) == 0


@st.composite
def connected_graphs(draw):
    """A connected graph on a random UID set: a random spanning tree plus
    random extra edges."""
    uids = draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=24,
                         unique=True))
    edges = {edge_weight(u, uids[draw(st.integers(0, i - 1))])
             for i, u in enumerate(uids) if i}
    if len(uids) > 1:
        pairs = st.tuples(st.sampled_from(uids), st.sampled_from(uids))
        edges |= {edge_weight(a, b)
                  for a, b in draw(st.lists(pairs, max_size=40)) if a != b}
    return Graph(uids=tuple(uids), edges=frozenset(edges))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(g=connected_graphs())
def test_neighbour_order_is_edge_weight_order(g):
    # GHS picks a node's cheapest (basic) edge as its first such neighbour
    sim = Simulation(GhsMstProtocol(), g, [0] * g.n, fn=None, timing=TIMING)
    for uid, auto in sim.automata.items():
        assert auto.ctx.neighbors == tuple(
            sorted(g.adj[uid], key=lambda v: edge_weight(uid, v)))
