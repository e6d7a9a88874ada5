"""Distributed minimum-spanning-tree construction (GHS) and two ways to
aggregate a consensus value over the resulting rooted tree.

MST construction is the classic fragment-merging algorithm: fragments track
a level and a fragment name, probe their cheapest basic edges with
test/accept/reject exchanges, report the best outgoing edge toward the
fragment core, and merge or absorb across it.  Edge weights are the
lexicographic UID pairs supplied by the topology layer, so the MST is
unique.  Messages carry only identifiers, one edge weight and booleans;
every MST-phase message fits in flag_bits + 3 * uid_bits.

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

from .engine import Automaton, Protocol, Simulation
from .errors import InvariantViolation
from .topology import edge_weight

BASIC, BRANCH, REJECTED = "basic", "branch", "rejected"
FIND, FOUND = "find", "found"
INF_W = (float("inf"), float("inf"))


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
    order = [root]
    for u in order:
        for v in graph.adj[u]:
            if v not in parents:
                parents[v] = u
                order.append(v)
    children: dict[int, list[int]] = {u: [] for u in graph.uids}
    for u, p in parents.items():
        if p is not None:
            children[p].append(u)
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

    def _msg(self, mtype, dst, value=None):
        return self.ctx.message(mtype, dst=dst, payload=value, uids=2, values=1)

    def start_compute(self, own_value):
        self.acc = own_value
        if not self.children:
            return [], ("computed", self.acc)
        return [self._msg(self.m_compute, self.children[0])], None

    def start_relay(self, final):
        self.final = final
        self.idx = 0
        if not self.children:
            return [], ("terminated", final)
        return [self._msg(self.m_relay, self.children[0], final)], None

    def handle(self, msg, src):
        if msg.mtype == self.m_compute:
            self.parent = src
            self.acc = self.ctx.fn.initial(self.ctx.value)
            self.idx = 0
            if not self.children:
                return [self._msg(self.m_reply, self.parent, self.acc)], None
            return [self._msg(self.m_compute, self.children[0])], None
        if msg.mtype == self.m_reply:
            self.acc = self.ctx.fn.combine(self.acc, msg.payload)
            self.idx += 1
            if self.idx < len(self.children):
                return [self._msg(self.m_compute, self.children[self.idx])], None
            if self.parent is None:
                return [], ("computed", self.acc)
            return [self._msg(self.m_reply, self.parent, self.acc)], None
        if msg.mtype == self.m_relay:
            self.final = msg.payload
            self.idx = 0
            if self.children:
                return [self._msg(self.m_relay, self.children[0], self.final)], None
            if self.parent is not None:
                # a leaf acks and is done
                return ([self._msg(self.m_ack, self.parent)],
                        ("terminated", self.final))
            return [], ("terminated", self.final)
        if msg.mtype == self.m_ack:
            self.idx += 1
            if self.idx < len(self.children):
                return [self._msg(self.m_relay, self.children[self.idx],
                                  self.final)], None
            if self.parent is None:
                return [], ("terminated", self.final)
            return ([self._msg(self.m_ack, self.parent)],
                    ("terminated", self.final))
        raise InvariantViolation(f"token pass got foreign message {msg.mtype}")


class GhsAutomaton(Automaton):
    """MST construction, optionally chained into one of the aggregation
    schemes (mode None, "parallel" or "token")."""

    MSG_PREFIX = "ghs"

    def __init__(self, ctx, mode=None):
        super().__init__(ctx)
        self.mode = mode
        self.state = "sleep"
        self.level = 0
        self.fname = ctx.uid
        self.edge_state = {p: BASIC for p in ctx.neighbors}
        self.in_branch: int | None = None
        self.best_peer: int | None = None
        self.best_wt = INF_W
        self.test_peer: int | None = None
        self.find_count = 0
        self.count_acc = 0  # subtree size accumulator (used by subclasses)
        self.deferred: list = []
        self.halted = False
        self.is_root = False
        self.root_uid: int | None = None
        self.agg: Automaton | None = None  # aggregation over the final tree

    # -- small helpers ---------------------------------------------------

    def _w(self, peer):
        return edge_weight(self.ctx.uid, peer)

    def _m(self, tag, **fields):
        return self.ctx.message(f"{self.MSG_PREFIX}.{tag}", **fields)

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
            self._solo_finish(out)
            return
        best = min(self.ctx.neighbors, key=self._w)
        self.edge_state[best] = BRANCH
        # the level-0 connect every node opens with rides in its own compact
        # tag (level implicit), so the synchronized wakeup burst costs one
        # recipient UID per node
        out.append(self._m("connect0", dst=best, payload=(0,), uids=1))

    def _solo_finish(self, out):
        self.halted = True
        self.is_root = True
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

    def _defer(self, msg, src):
        self.deferred.append((msg, src))

    # -- MST message handling ---------------------------------------------

    def _dispatch(self, msg, src, out):
        prefix, tag = msg.mtype.split(".", 1)
        if self.halted and self._handle_after_done(tag, msg, src, out):
            return
        if prefix != self.MSG_PREFIX:
            self._on_aggregation(msg, src, out)
        elif tag in ("connect", "connect0"):
            self._on_connect(msg, src, out)
        elif tag == "initiate":
            self._on_initiate(msg, src, out)
        elif tag == "test":
            self._on_test(msg, src, out)
        elif tag == "accept":
            self._on_accept(src, out)
        elif tag == "reject":
            self._on_reject(src, out)
        elif tag == "report":
            self._on_report(msg, src, out)
        elif tag == "changeroot":
            self._change_root(out)
        elif tag == "rooted":
            self._on_rooted(msg, src, out)
        else:
            raise InvariantViolation(f"unknown message {msg.mtype}")

    def _handle_after_done(self, tag, msg, src, out) -> bool:
        """Hook for subclasses whose fragments stop while neighbors are
        still merging; plain MST construction never sees this."""
        return False

    def _on_connect(self, msg, src, out):
        level = msg.payload[0]
        if level < self.level:
            # absorb the lower-level fragment
            self.edge_state[src] = BRANCH
            out.append(self._m("initiate", dst=src,
                               payload=(self.level, self.fname, self.state),
                               uids=3))
            if self.state == FIND:
                self.find_count += 1
        elif self.edge_state[src] == BASIC:
            self._defer(msg, src)
        else:
            # connect crossed ours on the same edge: merge at level + 1
            name = min(self.ctx.uid, src)
            out.append(self._m("initiate", dst=src,
                               payload=(self.level + 1, name, FIND), uids=3))

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
            out.append(self._m("initiate", dst=peer,
                               payload=(level, fname, state), uids=3))
            if state == FIND:
                self.find_count += 1
        if state == FIND:
            self._test(out)

    def _test(self, out):
        basics = [p for p, s in self.edge_state.items() if s == BASIC]
        if basics:
            self.test_peer = min(basics, key=self._w)
            out.append(self._m("test", dst=self.test_peer,
                               payload=(self.level, self.fname), uids=3))
        else:
            self.test_peer = None
            self._report(out)

    def _on_test(self, msg, src, out):
        level, fname = msg.payload
        if level > self.level:
            self._defer(msg, src)
        elif fname != self.fname:
            out.append(self._m("accept", dst=src, uids=1))
        else:
            if self.edge_state[src] == BASIC:
                self.edge_state[src] = REJECTED
            if self.test_peer != src:
                out.append(self._m("reject", dst=src, uids=1))
            else:
                self._test(out)

    def _on_accept(self, src, out):
        self.test_peer = None
        if self._w(src) < self.best_wt:
            self.best_wt = self._w(src)
            self.best_peer = src
        self._report(out)

    def _on_reject(self, src, out):
        if self.edge_state[src] == BASIC:
            self.edge_state[src] = REJECTED
        self._test(out)

    REPORT_UIDS = 3  # recipient plus one edge weight

    def _report_payload(self):
        return (self.best_wt, 0)

    def _report(self, out):
        if self.find_count == 0 and self.test_peer is None:
            self.state = FOUND
            out.append(self._m("report", dst=self.in_branch,
                               payload=self._report_payload(),
                               uids=self.REPORT_UIDS))

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
            self._defer(msg, src)
        else:
            self._core_decide(w, count, src, out)

    def _core_decide(self, peer_w, peer_count, src, out):
        """Both core endpoints run this on the peer's report."""
        if peer_w > self.best_wt:
            self._change_root(out)
        elif peer_w == INF_W and self.best_wt == INF_W:
            self._halt(src, out)

    def _change_root(self, out):
        if self.edge_state[self.best_peer] == BRANCH:
            out.append(self._m("changeroot", dst=self.best_peer, uids=1))
        else:
            self.edge_state[self.best_peer] = BRANCH
            out.append(self._m("connect", dst=self.best_peer,
                               payload=(self.level,), uids=2))

    def _halt(self, core_peer, out):
        self.halted = True
        self.is_root = self.ctx.uid > core_peer
        if self.is_root:
            self.in_branch = None  # the core peer becomes a child of the root
            self.root_uid = self.ctx.uid
            self._after_halt(out)
        # the non-root core endpoint learns the root from the flood / token

    # -- post-MST: rooting and aggregation ---------------------------------

    def _after_halt(self, out):
        """Runs once this node knows the MST is final and who its root is:
        at the root when it halts, elsewhere on the root's `rooted` flood
        (which the token pipeline never sends)."""
        if self.mode is None:
            self.output = self.root_uid
        if self.mode != "token" and self.children():
            # announce the root; doubles as the parallel aggregation kickoff
            out.append(self._m("rooted", payload=(self.root_uid,), uids=1))
        if self.mode is not None:
            self._start_aggregation(out)

    def _on_rooted(self, msg, src, out):
        if src != self.in_branch or self.root_uid is not None:
            return
        self.halted = True
        self.root_uid = msg.payload[0]
        self._after_halt(out)

    def _start_aggregation(self, out):
        aggregation = {"parallel": ParallelConvergecastAutomaton,
                       "token": TokenConvergecastAutomaton}[self.mode]
        self.agg = aggregation(self.ctx, TreeInfo(self.ctx.uid, self.in_branch,
                                                  self.children()))
        self._forward(self.agg.on_start(), out)

    def _on_aggregation(self, msg, src, out):
        if self.agg is None:
            # a token non-root: the first compute arrival tells it the MST
            # is final
            self.halted = True
            self._start_aggregation(out)
        self._forward(self.agg.on_message(msg, src), out)

    def _forward(self, msgs, out):
        out.extend(msgs)
        self.output = self.agg.output


class GhsMstProtocol(Protocol):
    """MST construction only; every node outputs the root UID."""

    name = "ghs-mst"

    def automaton(self, ctx):
        return GhsAutomaton(ctx, mode=None)


class GhsParallelProtocol(Protocol):
    """MST construction chained into a parallel convergecast."""

    name = "ghs-parallel"
    hierarchical_only = True

    def automaton(self, ctx):
        return GhsAutomaton(ctx, mode="parallel")


class GhsTokenProtocol(Protocol):
    """MST construction chained into the bandwidth-frugal token traversal."""

    name = "ghs-token"
    hierarchical_only = True

    def automaton(self, ctx):
        return GhsAutomaton(ctx, mode="token")


class TokenConvergecastAutomaton(Automaton):
    def __init__(self, ctx, info: TreeInfo):
        super().__init__(ctx)
        self.token = TokenPass(ctx, info.parent, info.children,
                               ("token.compute", "token.reply",
                                "token.relay", "token.ack"))
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


class TokenConvergecastProtocol(Protocol):
    """Token traversal over an already-rooted tree."""

    name = "token-convergecast"
    hierarchical_only = True

    def __init__(self, tree: dict[int, TreeInfo]):
        self.tree = tree

    def automaton(self, ctx):
        return TokenConvergecastAutomaton(ctx, self.tree[ctx.uid])


class ParallelConvergecastAutomaton(Automaton):
    def __init__(self, ctx, info: TreeInfo):
        super().__init__(ctx)
        self.info = info
        self.pending = set(info.children)
        self.acc = ctx.fn.initial(ctx.value)

    def _value_msg(self, tag, payload, dst=None):
        return self.ctx.message(tag, dst=dst, payload=payload, uids=1, values=1)

    def on_start(self):
        if self.info.is_root and self.info.is_leaf:
            self.output = self.ctx.fn.decode(self.ctx.fn.finalize(self.acc))
            return []
        if self.info.is_leaf:
            return [self._value_msg("agg.report", self.acc, dst=self.info.parent)]
        return []

    def on_message(self, msg, src):
        fn = self.ctx.fn
        if msg.mtype == "agg.report":
            if msg.dst != self.ctx.uid:
                return []
            self.acc = fn.combine(self.acc, msg.payload)
            self.pending.discard(src)
            if self.pending:
                return []
            if self.info.is_root:
                final = fn.finalize(self.acc)
                self.output = fn.decode(final)
                return [self._value_msg("agg.result", final)]
            return [self._value_msg("agg.report", self.acc, dst=self.info.parent)]
        if msg.mtype == "agg.result":
            if src != self.info.parent or self.output is not None:
                return []
            self.output = fn.decode(msg.payload)
            if not self.info.is_leaf:
                return [self._value_msg("agg.result", msg.payload)]
        return []


class ParallelConvergecastProtocol(Protocol):
    """Parallel (leaves-first) convergecast over an already-rooted tree."""

    name = "parallel-convergecast"
    hierarchical_only = True

    def __init__(self, tree: dict[int, TreeInfo]):
        self.tree = tree

    def automaton(self, ctx):
        return ParallelConvergecastAutomaton(ctx, self.tree[ctx.uid])


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
    return {uid: TreeInfo(uid=uid,
                          parent=None if auto.is_root else auto.in_branch,
                          children=auto.children())
            for uid, auto in automata.items()}


def ghs_build_mst(graph, scheduler="lockstep", seed=0, timing=None):
    """Run MST construction and return (tree map, trace)."""
    sim = Simulation(GhsMstProtocol(), graph, [0] * graph.n, fn=None,
                     scheduler=scheduler, seed=seed, timing=timing)
    trace = sim.run()
    return tree_from_automata(sim.automata), trace
