"""Topology construction and the broadcast-channel graph.

Graphs are connected, undirected and static for the life of an execution;
`fail_link` produces a new graph value rather than mutating in place.  Node
UIDs are drawn from a pool of 2n integers shuffled by the seed, so distinct
seeds exercise distinct UID assignments.  Edge weights are the lexicographic
pair (min UID, max UID), which totally orders the edges and makes the
minimum spanning tree unique.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

from .errors import DisconnectedGraph, InvalidParams, WouldDisconnect

TOPOLOGY_KINDS = ("path", "cycle", "star", "complete", "random_connected",
                  "balanced_tree", "depth_one_tree", "random_tree")


def edge_weight(u: int, v: int) -> tuple[int, int]:
    """Unique, totally ordered weight of the edge {u, v}."""
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Undirected connected graph over explicit node UIDs."""

    uids: tuple[int, ...]
    edges: frozenset[tuple[int, int]]
    kind: str = "custom"
    pool_size: int = 0
    adj: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        uidset = set(self.uids)
        if len(uidset) != len(self.uids):
            raise InvalidParams("duplicate UIDs")
        for a, b in self.edges:
            if a == b:
                raise InvalidParams("self loop")
            if a not in uidset or b not in uidset:
                raise InvalidParams("edge references unknown UID")
            if a > b:
                raise InvalidParams("edges must be stored as (min, max)")
        adj = _adjacency(self.uids, self.edges)
        object.__setattr__(self, "adj", {u: tuple(sorted(ns)) for u, ns in adj.items()})
        if self.n > 1 and not self.is_connected():
            raise DisconnectedGraph(f"graph on {self.n} nodes is not connected")
        object.__setattr__(self, "pool_size",
                           self.pool_size or 2 * len(self.uids))

    @property
    def n(self) -> int:
        return len(self.uids)

    def degree(self, u: int) -> int:
        return len(self.adj[u])

    def is_connected(self) -> bool:
        return _connected(self.adj)

    def sorted_edges(self) -> list[tuple[int, int]]:
        """Edges in increasing weight order (weight == the edge itself)."""
        return sorted(self.edges)


def _adjacency(nodes, edges) -> dict:
    adj = {u: [] for u in nodes}
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def _connected(adj) -> bool:
    """Breadth-first search over an adjacency mapping: does it reach every
    node from the first one?"""
    if not adj:
        return True
    start = next(iter(adj))
    seen = {start}
    queue = deque(seen)
    while queue:
        for v in adj[queue.popleft()]:
            if v not in seen:
                seen.add(v)
                queue.append(v)
    return len(seen) == len(adj)


def _assign_uids(n: int, seed: int, pool_size: int | None = None) -> list[int]:
    pool = list(range(pool_size if pool_size is not None else 2 * n))
    if len(pool) < n:
        raise InvalidParams("UID pool smaller than node count")
    random.Random(seed).shuffle(pool)
    return pool[:n]


def _index_edges(kind: str, n: int, params: dict, rng: random.Random):
    """Edge list over node indices 0..n-1 for the requested family."""
    if kind in ("star", "depth_one_tree"):
        return [(0, i) for i in range(1, n)]
    if kind == "path":
        return [(i, i + 1) for i in range(n - 1)]
    if kind == "cycle":
        if n == 2:
            return [(0, 1)]
        return [(i, (i + 1) % n) for i in range(n)]
    if kind == "complete":
        return [(i, j) for i in range(n) for j in range(i + 1, n)]
    if kind == "balanced_tree":
        arity = int(params.get("arity", 2))
        if arity < 1:
            raise InvalidParams("arity must be >= 1")
        return [(i, (i - 1) // arity) for i in range(1, n)]
    if kind == "random_tree":
        # random recursive tree: each new node attaches to a uniform earlier one
        return [(i, rng.randrange(i)) for i in range(1, n)]
    if kind == "random_connected":
        p = float(params.get("p", 0.2))
        if not 0.0 < p <= 1.0:
            raise InvalidParams("edge probability must be in (0, 1]")
        for _ in range(1000):
            edges = [(i, j) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < p]
            if _connected(_adjacency(range(n), edges)):
                return edges
        raise InvalidParams(f"no connected sample after 1000 tries (n={n}, p={p})")
    raise InvalidParams(f"unknown topology kind {kind!r}")


def make_topology(kind: str, n: int, params: dict | None = None,
                  seed: int = 0, pool_size: int | None = None) -> Graph:
    """Build a connected graph of the given family on seeded UIDs."""
    if n < 1:
        raise InvalidParams("need at least one node")
    params = params or {}
    rng = random.Random(seed ^ 0x5EED)
    uids = _assign_uids(n, seed, pool_size)
    idx_edges = _index_edges(kind, n, params, rng) if n > 1 else []
    edges = frozenset(edge_weight(uids[a], uids[b]) for a, b in idx_edges)
    return Graph(uids=tuple(uids), edges=edges, kind=kind,
                 pool_size=pool_size if pool_size is not None else 2 * n)


def fail_link(graph: Graph, edge: tuple[int, int]) -> Graph:
    """Graph with one edge removed; rejects removals that disconnect it."""
    key = edge_weight(*edge)
    if key not in graph.edges:
        raise InvalidParams(f"edge {edge} not in graph")
    try:
        return Graph(uids=graph.uids, edges=graph.edges - {key},
                     kind=graph.kind, pool_size=graph.pool_size)
    except DisconnectedGraph:
        raise WouldDisconnect(
            f"removing {edge} disconnects the graph") from None


def dump_adjacency(graph: Graph) -> str:
    """Text form: first line n, then one `u v` pair per edge."""
    lines = [str(graph.n)]
    lines += [f"{a} {b}" for a, b in graph.sorted_edges()]
    return "\n".join(lines) + "\n"


def load_adjacency(text: str, kind: str = "imported") -> Graph:
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    n = int(lines[0])
    edges = set()
    uids = set()
    for ln in lines[1:]:
        a, b = (int(x) for x in ln.split())
        edges.add(edge_weight(a, b))
        uids.update((a, b))
    if len(uids) < n:
        # isolated nodes are only legal for n == 1
        if n == 1 and not edges:
            uids = {0}
        else:
            raise DisconnectedGraph("adjacency text lists fewer UIDs than nodes")
    if len(uids) != n:
        raise InvalidParams("node count does not match edge list")
    return Graph(uids=tuple(sorted(uids)), edges=frozenset(edges), kind=kind)


def kruskal_mst(graph: Graph) -> frozenset[tuple[int, int]]:
    """Independent minimum-spanning-tree oracle (union-find over sorted edges)."""
    parent = {u: u for u in graph.uids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree = set()
    for a, b in graph.sorted_edges():
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            tree.add((a, b))
    return frozenset(tree)
