"""Distributed minimum-spanning-tree construction (GHS) and two ways to
aggregate a consensus value over the resulting rooted tree.

MST construction is the classic fragment-merging algorithm: fragments track
a level and a fragment name, probe their cheapest basic edges with
test/accept/reject exchanges, report the best outgoing edge toward the
fragment core, and merge or absorb across it.  Edge weights are the
lexicographic UID pairs supplied by the topology layer, so the MST is
unique.  Seen from one node u, edge_weight(u, v) grows with v, so the
sorted neighbour tuple is already in weight order: a node's cheapest edge,
or cheapest basic edge, is its first such neighbour, and weights are only
compared when they come from other nodes.  Messages carry only
identifiers, one edge weight and booleans; every MST-phase message fits in
flag_bits + 3 * uid_bits.

The fragment name is the smaller endpoint UID of the core edge.  Fragments
are disjoint, and the core endpoints belong to the fragment, so coexisting
fragments always carry distinct names, which is all the test/accept logic
needs.

When the last merge completes, both endpoints of the final core edge detect
it; the higher-UID endpoint becomes the root.  Every node's `in_branch`
pointer already points toward the core, so the tree is rooted for free.

The pipelines hand the finished tree to one of the aggregation automata
below: once a node knows its tree position (parent, children) it builds
the aggregation's automaton, returns its start messages, forwards every
later aggregation message to it and copies its output.  A parallel node
learns its position from the root's `ghs.rooted` flood; the token root
starts when it halts, and a token non-root starts at its first
`token.compute`, which is also how it learns that the MST is final.

Each automaton routes a message by its full type through one class-level
table, `HANDLERS`; a type it does not handle is an InvariantViolation.  Each
pipeline's table holds the MST types plus only its own aggregation's.

Aggregation schemes over a rooted tree:

  parallel convergecast  leaves send first; every node folds its children's
                         values with its own and forwards the result to its
                         parent; the root broadcasts the final value back
                         down the tree.  Fast, but on a depth-one tree up to
                         n-1 nodes transmit inside one window.
  token convergecast     a depth-first token visits children one at a time:
                         a compute/reply pass folds values up, then a
                         relay/ack pass pushes the final value down.  At
                         most one message is in flight at any instant and
                         the message count is exactly 4(n-1).

Both schemes require a hierarchically computable function (a commutative,
associative combine whose intermediates stay within b bits).
"""

from __future__ import annotations

from dataclasses import dataclass

from .engine import Automaton, Protocol
from .errors import InvariantViolation
from .topology import edge_weight

BASIC, BRANCH, REJECTED = "basic", "branch", "rejected"
FIND, FOUND = "find", "found"
INF_W = (float("inf"), float("inf"))
TREE_TOKEN_TYPES = ("token.compute", "token.reply", "token.relay", "token.ack")


@dataclass(frozen=True)
class TreeInfo:
    """Per-node view of a rooted tree: parent edge, ordered children."""

    uid: int
    parent: int | None
    children: tuple[int, ...]

    @property
    def is_root(self) -> bool:
        return self.parent is None

    @property
    def is_leaf(self) -> bool:
        return not self.children


def root_tree(graph, root: int) -> dict[int, TreeInfo]:
    """Orient a tree-shaped graph away from `root` (children sorted by UID)."""
    parents: dict[int, int | None] = {root: None}
    children: dict[int, list[int]] = {u: [] for u in graph.uids}
    order = [root]
    for u in order:
        for v in graph.adj[u]:
            if v not in parents:
                parents[v] = u
                children[u].append(v)
                order.append(v)
    return {u: TreeInfo(uid=u, parent=parents[u],
                        children=tuple(sorted(children[u])))
            for u in graph.uids}


class TokenPass:
    """Depth-first token traversal shared by the token pipeline, the
    standalone protocol and the in-cluster aggregation of the tunable
    algorithm.  handle() returns (messages, event) where event is one of
    None, ("computed", folded) at the root when the fold is complete, or
    ("terminated", final) once this node's part of the dissemination pass
    is over (for the root that is the moment the last ack arrives, which
    is also when the traversal as a whole ends)."""

    def __init__(self, ctx, parent, children, mtypes):
        self.ctx = ctx
        self.parent = parent
        self.children = tuple(children)
        self.m_compute, self.m_reply, self.m_relay, self.m_ack = mtypes
        self.acc = None
        self.idx = 0
        self.final = None

    def start_compute(self, own_value):
        self.acc = own_value
        self.idx = 0
        return self._advance(relay=False)

    def start_relay(self, final):
        self.final = final
        self.idx = 0
        return self._advance(relay=True)

    def handle(self, msg, src):
        if msg.mtype == self.m_compute:
            self.parent = src
            self.acc = self.ctx.fn.initial(self.ctx.value)
            self.idx = 0
        elif msg.mtype == self.m_reply:
            self.acc = self.ctx.fn.combine(self.acc, msg.payload)
            self.idx += 1
        elif msg.mtype == self.m_relay:
            self.final = msg.payload
            self.idx = 0
        elif msg.mtype == self.m_ack:
            self.idx += 1
        else:
            raise InvariantViolation(
                f"token pass got foreign message {msg.mtype}")
        return self._advance(relay=msg.mtype in (self.m_relay, self.m_ack))

    def _advance(self, relay):
        """Pass the token to the next child; once every child is done, hand
        it back to the parent (a reply, or an ack that ends this node's
        relay pass) or, at the root, end the pass."""
        message = self.ctx.message
        if self.idx < len(self.children):
            child = self.children[self.idx]
            if relay:
                return [message(self.m_relay, child, self.final)], None
            return [message(self.m_compute, child)], None
        if not relay:
            if self.parent is None:
                return [], ("computed", self.acc)
            return [message(self.m_reply, self.parent, self.acc)], None
        up = [] if self.parent is None else [message(self.m_ack, self.parent)]
        return up, ("terminated", self.final)


class GhsAutomaton(Automaton):
    """MST construction; the pipelines' subclasses chain it into the
    aggregation automaton they name as AGGREGATION."""

    MSG_PREFIX = "ghs"
    AGGREGATION = None

    def __init__(self, ctx):
        super().__init__(ctx)
        self.state = "sleep"
        self.level = 0
        self.fname = ctx.uid
        self.edge_state = {p: BASIC for p in ctx.neighbors}
        self.basic_from = 0  # no neighbor before this index is BASIC
        self.in_branch: int | None = None
        self.best_peer: int | None = None
        self.best_wt = INF_W
        self.test_peer: int | None = None
        self.find_count = 0
        self.count_acc = 0  # subtree size accumulator (used by subclasses)
        self.deferred: list = []
        self.root_uid: int | None = None
        self.agg: Automaton | None = None  # aggregation over the final tree

    @property
    def is_root(self) -> bool:
        """The MST's root is the node that names itself its root."""
        return self.root_uid == self.ctx.uid

    # -- small helpers ---------------------------------------------------

    def _w(self, peer):
        return edge_weight(self.ctx.uid, peer)

    def _m(self, tag, dst=None, payload=None):
        return self.ctx.message(f"{self.MSG_PREFIX}.{tag}", dst, payload)

    def _branch_peers(self):
        return [p for p, s in self.edge_state.items() if s == BRANCH]

    def children(self):
        return tuple(sorted(p for p in self._branch_peers()
                            if p != self.in_branch))

    # -- lifecycle ----------------------------------------------------------

    def on_start(self):
        out = []
        self._wakeup(out)
        return out

    def _wakeup(self, out):
        self.state = FOUND
        if not self.ctx.neighbors:
            self._finish_as_root(out)
            return
        best = self.ctx.neighbors[0]  # the cheapest edge
        self.edge_state[best] = BRANCH
        # the level-0 connect every node opens with rides in its own compact
        # tag (level implicit), so the synchronized wakeup burst costs one
        # recipient UID per node
        out.append(self._m("connect0", best, (0,)))

    def _finish_as_root(self, out):
        """The MST is final and this node is its root."""
        self.root_uid = self.ctx.uid
        self._after_halt(out)

    def on_message(self, msg, src):
        out: list = []
        self._dispatch(msg, src, out)
        self._drain(out)
        return out

    def _drain(self, out):
        progress = True
        while progress and self.deferred:
            progress = False
            pending, self.deferred = self.deferred, []
            for msg, src in pending:
                before = len(self.deferred)
                self._dispatch(msg, src, out)
                if len(self.deferred) == before:
                    progress = True

    # -- MST message handling ---------------------------------------------

    def _dispatch(self, msg, src, out):
        handler = self.HANDLERS.get(msg.mtype, GhsAutomaton._on_unknown)
        handler(self, msg, src, out)

    def _on_unknown(self, msg, src, out):
        raise InvariantViolation(f"unknown message {msg.mtype}")

    def _on_connect(self, msg, src, out):
        level = msg.payload[0]
        if level < self.level:
            # absorb the lower-level fragment
            self.edge_state[src] = BRANCH
            out.append(self._m("initiate", src,
                               (self.level, self.fname, self.state)))
            if self.state == FIND:
                self.find_count += 1
        elif self.edge_state[src] == BASIC:
            self.deferred.append((msg, src))
        else:
            # connect crossed ours on the same edge: merge at level + 1
            name = min(self.ctx.uid, src)
            out.append(self._m("initiate", src, (self.level + 1, name, FIND)))

    def _on_initiate(self, msg, src, out):
        level, fname, state = msg.payload
        self.level = level
        self.fname = fname
        self.state = state
        self.in_branch = src
        self.best_peer = None
        self.best_wt = INF_W
        self.count_acc = 0
        for peer in self._branch_peers():
            if peer == src:
                continue
            out.append(self._m("initiate", peer, (level, fname, state)))
            if state == FIND:
                self.find_count += 1
        if state == FIND:
            self._test(out)

    def _test(self, out):
        nbrs, state, i = self.ctx.neighbors, self.edge_state, self.basic_from
        while i < len(nbrs) and state[nbrs[i]] != BASIC:
            i += 1
        self.basic_from = i
        self.test_peer = nbrs[i] if i < len(nbrs) else None
        if self.test_peer is None:
            self._report(out)
        else:
            out.append(self._m("test", self.test_peer,
                               (self.level, self.fname)))

    def _reopen(self, peer):
        """Set the edge to `peer` back to BASIC, for `_test` to try again."""
        self.edge_state[peer] = BASIC
        self.basic_from = min(self.basic_from, self.ctx.neighbors.index(peer))

    def _on_test(self, msg, src, out):
        level, fname = msg.payload
        if level > self.level:
            self.deferred.append((msg, src))
        elif fname != self.fname:
            out.append(self._m("accept", src))
        else:
            if self.edge_state[src] == BASIC:
                self.edge_state[src] = REJECTED
            if self.test_peer != src:
                out.append(self._m("reject", src))
            else:
                self._test(out)

    def _on_accept(self, msg, src, out):
        self.test_peer = None
        if self._w(src) < self.best_wt:
            self.best_wt = self._w(src)
            self.best_peer = src
        self._report(out)

    def _on_reject(self, msg, src, out):
        if self.edge_state[src] == BASIC:
            self.edge_state[src] = REJECTED
        self._test(out)

    def _report_payload(self):
        return (self.best_wt, 0)

    def _report(self, out):
        if self.find_count == 0 and self.test_peer is None:
            self.state = FOUND
            out.append(self._m("report", self.in_branch,
                               self._report_payload()))

    def _on_report(self, msg, src, out):
        w, count = msg.payload
        if src != self.in_branch:
            self.find_count -= 1
            if w < self.best_wt:
                self.best_wt = w
                self.best_peer = src
            self.count_acc += count
            self._report(out)
        elif self.state == FIND:
            self.deferred.append((msg, src))
        else:
            self._core_decide(w, count, src, out)

    def _core_decide(self, peer_w, peer_count, src, out):
        """Both core endpoints run this on the peer's report."""
        if peer_w > self.best_wt:
            self._change_root(out)
        elif peer_w == INF_W and self.best_wt == INF_W:
            self._halt(src, out)

    def _on_changeroot(self, msg, src, out):
        self._change_root(out)

    def _change_root(self, out):
        if self.edge_state[self.best_peer] == BRANCH:
            out.append(self._m("changeroot", self.best_peer))
        else:
            self.edge_state[self.best_peer] = BRANCH
            out.append(self._m("connect", self.best_peer, (self.level,)))

    def _halt(self, core_peer, out):
        if self.ctx.uid > core_peer:  # the higher core endpoint is the root
            self.in_branch = None  # the core peer becomes a child of the root
            self._finish_as_root(out)
        # the non-root core endpoint learns the root from the flood / token

    # -- post-MST: rooting and aggregation ---------------------------------

    def _after_halt(self, out):
        """Runs once this node knows the MST is final and who its root is:
        at the root when it halts, elsewhere on the root's `rooted` flood
        (which the token pipeline, whose table lacks it, never sends)."""
        if "ghs.rooted" in self.HANDLERS and self.children():
            # announce the root; doubles as the parallel aggregation kickoff
            out.append(self._m("rooted", payload=(self.root_uid,)))
        if self.AGGREGATION is None:
            self.output = self.root_uid
        else:
            self._start_aggregation(out)

    def _on_rooted(self, msg, src, out):
        if src != self.in_branch or self.root_uid is not None:
            return
        self.root_uid = msg.payload[0]
        self._after_halt(out)

    def _start_aggregation(self, out):
        self.agg = self.AGGREGATION(self.ctx, TreeInfo(
            self.ctx.uid, self.in_branch, self.children()))
        self._forward(self.agg.on_start(), out)

    def _on_aggregation(self, msg, src, out):
        if self.agg is None:
            # a token non-root: the first compute arrival tells it the MST
            # is final
            self._start_aggregation(out)
        self._forward(self.agg.on_message(msg, src), out)

    def _forward(self, msgs, out):
        out.extend(msgs)
        self.output = self.agg.output

    # message type -> handler(self, msg, src, out); MST_HANDLERS is keyed by
    # the tag after the prefix, for hybrid's phase 1 to reuse under its own
    MST_HANDLERS = {"connect0": _on_connect, "connect": _on_connect,
                    "initiate": _on_initiate, "test": _on_test,
                    "accept": _on_accept, "reject": _on_reject,
                    "report": _on_report, "changeroot": _on_changeroot}
    HANDLERS = {**{f"ghs.{tag}": h for tag, h in MST_HANDLERS.items()},
                "ghs.rooted": _on_rooted}


class TokenConvergecastAutomaton(Automaton):
    def __init__(self, ctx, info: TreeInfo):
        super().__init__(ctx)
        self.token = TokenPass(ctx, info.parent, info.children,
                               TREE_TOKEN_TYPES)
        self.info = info

    def on_start(self):
        if not self.info.is_root:
            return []
        return self._advance(*self.token.start_compute(
            self.ctx.fn.initial(self.ctx.value)))

    def on_message(self, msg, src):
        return self._advance(*self.token.handle(msg, src))

    def _advance(self, msgs, event):
        """The token's messages, plus the relay pass the root starts once
        the fold is complete; a terminated pass sets the output."""
        fn = self.ctx.fn
        if event is not None and event[0] == "computed":
            relay, event = self.token.start_relay(fn.finalize(event[1]))
            msgs = msgs + relay
        if event is not None and event[0] == "terminated":
            self.output = fn.decode(event[1])
        return msgs


class ParallelConvergecastAutomaton(Automaton):
    def __init__(self, ctx, info: TreeInfo):
        super().__init__(ctx)
        self.info = info
        self.pending = set(info.children)
        self.acc = ctx.fn.initial(ctx.value)

    def on_start(self):
        if self.info.is_root and self.info.is_leaf:
            self.output = self.ctx.fn.decode(self.ctx.fn.finalize(self.acc))
            return []
        if self.info.is_leaf:
            return [self.ctx.message("agg.report", self.info.parent, self.acc)]
        return []

    def on_message(self, msg, src):
        fn = self.ctx.fn
        if msg.mtype == "agg.report":
            self.acc = fn.combine(self.acc, msg.payload)
            self.pending.discard(src)
            if self.pending:
                return []
            if self.info.is_root:
                final = fn.finalize(self.acc)
                self.output = fn.decode(final)
                return [self.ctx.message("agg.result", payload=final)]
            return [self.ctx.message("agg.report", self.info.parent, self.acc)]
        if msg.mtype != "agg.result":
            raise InvariantViolation(f"unknown message {msg.mtype}")
        if src != self.info.parent or self.output is not None:
            return []
        self.output = fn.decode(msg.payload)
        if self.info.is_leaf:
            return []
        return [self.ctx.message("agg.result", payload=msg.payload)]


class GhsParallelAutomaton(GhsAutomaton):
    AGGREGATION = ParallelConvergecastAutomaton
    HANDLERS = {**GhsAutomaton.HANDLERS, **dict.fromkeys(
        ("agg.report", "agg.result"), GhsAutomaton._on_aggregation)}


class GhsTokenAutomaton(GhsAutomaton):
    AGGREGATION = TokenConvergecastAutomaton  # the token carries the news
    HANDLERS = {**{t: h for t, h in GhsAutomaton.HANDLERS.items()
                   if t != "ghs.rooted"},
                **dict.fromkeys(TREE_TOKEN_TYPES, GhsAutomaton._on_aggregation)}


class GhsMstProtocol(Protocol):
    """MST construction only; every node outputs the root UID.  A pipeline
    chains it into an aggregation through its `node` automaton."""

    name, node = "ghs-mst", GhsAutomaton


class GhsParallelProtocol(GhsMstProtocol):
    """MST construction chained into a parallel convergecast."""

    name, node, hierarchical_only = "ghs-parallel", GhsParallelAutomaton, True


class GhsTokenProtocol(GhsMstProtocol):
    """MST construction chained into the bandwidth-frugal token traversal."""

    name, node, hierarchical_only = "ghs-token", GhsTokenAutomaton, True


class TokenConvergecastProtocol(Protocol):
    """Token traversal over an already-rooted tree."""

    name = "token-convergecast"
    hierarchical_only = True
    node = TokenConvergecastAutomaton

    def __init__(self, tree: dict[int, TreeInfo]):
        self.tree = tree

    def automaton(self, ctx):
        return self.node(ctx, self.tree[ctx.uid])


class ParallelConvergecastProtocol(TokenConvergecastProtocol):
    """Parallel (leaves-first) convergecast over an already-rooted tree."""

    name, node = "parallel-convergecast", ParallelConvergecastAutomaton


# -- extraction helpers ------------------------------------------------------

def mst_edges(automata) -> frozenset:
    """Branch edge set of a finished MST run, checked for symmetry."""
    edges = set()
    for uid, auto in automata.items():
        for peer, state in auto.edge_state.items():
            if state == BRANCH:
                edges.add(edge_weight(uid, peer))
    for a, b in edges:
        if (automata[a].edge_state.get(b) != BRANCH
                or automata[b].edge_state.get(a) != BRANCH):
            raise InvariantViolation(f"branch edge {(a, b)} is one-sided")
    return frozenset(edges)


def tree_from_automata(automata) -> dict[int, TreeInfo]:
    """Rooted TreeInfo map from a finished MST or pipeline run."""
    return {uid: TreeInfo(uid=uid, parent=auto.in_branch,
                          children=auto.children())
            for uid, auto in automata.items()}

