import random

import pytest

from consim.errors import DisconnectedGraph, InvalidParams, WouldDisconnect
from consim.messages import uid_bits_for_pool
from consim.topology import (Graph, edge_weight, fail_link, kruskal_mst,
                             make_topology)


def test_complete_four_nodes():
    g = make_topology("complete", 4, seed=1)
    assert g.n == 4
    assert len(g.edges) == 6
    assert all(g.degree(u) == 3 for u in g.uids)


def test_star_is_depth_one_tree():
    g = make_topology("depth_one_tree", 10, seed=3)
    degs = sorted(g.degree(u) for u in g.uids)
    assert degs == [1] * 9 + [9]
    assert len(g.edges) == 9


@pytest.mark.parametrize("kind,n,edge_count", [
    ("path", 7, 6),
    ("cycle", 7, 7),
    ("cycle", 2, 1),
    ("star", 5, 4),
    ("balanced_tree", 13, 12),
    ("random_tree", 20, 19),
])
def test_families_have_expected_edge_counts(kind, n, edge_count):
    g = make_topology(kind, n, seed=11)
    assert len(g.edges) == edge_count
    assert g.is_connected()


def test_random_connected_is_connected_by_independent_traversal():
    g = make_topology("random_connected", 50, {"p": 0.1}, seed=7)
    # breadth-first oracle, written out independently of Graph.is_connected
    seen = {g.uids[0]}
    frontier = [g.uids[0]]
    while frontier:
        nxt = []
        for u in frontier:
            for v in g.adj[u]:
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    assert len(seen) == 50


def test_uid_pool_is_two_n_and_seed_dependent():
    g1 = make_topology("path", 8, seed=1)
    g2 = make_topology("path", 8, seed=2)
    assert all(0 <= u < 16 for u in g1.uids)
    assert g1.uids != g2.uids


def test_all_generators_connected_over_seeds():
    for kind in ("path", "cycle", "star", "complete", "balanced_tree",
                 "random_tree"):
        for seed in range(10):
            assert make_topology(kind, 9, seed=seed).is_connected()
    for seed in range(10):
        g = make_topology("random_connected", 25, {"p": 0.2}, seed=seed)
        assert g.is_connected()


def test_invalid_params_rejected():
    with pytest.raises(InvalidParams):
        make_topology("random_connected", 5, {"p": 1.5}, seed=0)
    with pytest.raises(InvalidParams):
        make_topology("balanced_tree", 5, {"arity": 0}, seed=0)
    with pytest.raises(InvalidParams):
        make_topology("hypercube", 8, seed=0)
    with pytest.raises(InvalidParams):
        make_topology("path", 0, seed=0)


def test_edge_weights_total_order_and_unique_mst():
    g = make_topology("random_connected", 20, {"p": 0.3}, seed=5)
    weights = [edge_weight(a, b) for a, b in g.edges]
    assert len(set(weights)) == len(weights)
    ordered = sorted(weights)
    for w1, w2 in zip(ordered, ordered[1:]):
        assert w1 < w2
    mst = kruskal_mst(g)
    assert len(mst) == g.n - 1


def test_fail_link_cycle_chord_and_bridge():
    c4 = make_topology("cycle", 4, seed=0)
    edge = next(iter(c4.edges))
    p4 = fail_link(c4, edge)
    assert len(p4.edges) == 3
    assert p4.is_connected()
    # removing any edge of the resulting path disconnects it
    with pytest.raises(WouldDisconnect):
        fail_link(p4, next(iter(p4.edges)))
    with pytest.raises(InvalidParams):
        fail_link(p4, edge)  # already gone


def test_direct_graph_construction_rejects_disconnected():
    with pytest.raises(DisconnectedGraph):
        Graph(uids=(0, 1, 2, 3), edges=frozenset({(0, 1), (2, 3)}))


def test_imported_uids_are_charged_their_full_width():
    g = Graph(uids=(10, 20, 30), edges=frozenset({(10, 20), (20, 30)}))
    assert g.pool_size == 31
    assert uid_bits_for_pool(g.pool_size) == 5  # UID 30 needs five bits


def test_kruskal_matches_networkx_free_brute_force_on_tiny_graph():
    # every spanning tree of this triangle-plus-tail enumerated by hand:
    # nodes 1,2,3,9: edges (1,2),(1,3),(2,3),(3,9); MST drops (2,3)
    g = Graph(uids=(1, 2, 3, 9),
              edges=frozenset({(1, 2), (1, 3), (2, 3), (3, 9)}))
    assert kruskal_mst(g) == frozenset({(1, 2), (1, 3), (3, 9)})
