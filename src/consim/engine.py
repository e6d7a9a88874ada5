"""Discrete-event execution engine for per-node protocol automata.

Each node runs an automaton: a state machine that reacts to a start signal,
to delivered messages and to link failures, emitting broadcasts and at most
one output value.  The engine owns the event loop, the clock and all
randomness, which makes executions bit-for-bit reproducible from (protocol,
graph, values, scheduler, seed).

Timing model
------------
Two parameters govern an execution: every message is delivered within `d`
seconds of the start of its transmission, and every enabled transition fires
within `l` seconds.  A transmission occupies its sender for a full window of
`d` seconds, so a node sending several messages transmits them back to back;
this keeps per-node transmission windows disjoint, which the bandwidth
metric relies on.  Deliveries on a directed link are FIFO without a
per-link clock: a copy lands by its send's start + d, which is no later than
the sender's next start, and every delay is positive (float addition and
multiplication round monotonically, so this holds exactly).

Schedulers
----------
SynchronousLockstep   rounds of length d; everything sent during round r is
                      delivered exactly at (r+1)*d and transitions fire
                      immediately.  Special case of the asynchronous model.
AdversarialMaxDelay   every delivery takes the full d and co-enabled
                      transitions fire together, maximizing the traffic that
                      shares a transmission window.  With zero transition
                      latency every transmission starts on a multiple of d,
                      so this replays exactly as SynchronousLockstep.
RandomAsync           delivery delays drawn uniformly from (0, d] per
                      receiver and transition latencies from (0, l].

A broadcast is charged once regardless of receiver count and delivered to
every neighbor it had when its transmission started.  Messages carrying a
`dst` tag are delivered everywhere but only the tagged recipient's automaton
reacts.

Deliveries land in batches of (message, ref, receivers, reactors), and
every reaction runs in one loop over such a batch.  Under the quantized
schedulers a batch holds every copy of a send, or of a round-driven
protocol's round of broadcasts (lockstep only); under the random scheduler
each copy draws its own delay and latency and is a batch of one.  A batch
takes the sequence numbers of the entries it stands for, so records, refs,
order and the event cap's count are those per-message events give.
"""

from __future__ import annotations

import heapq
import json
import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable

from .errors import (ConfigError, DisconnectedGraph, InvariantViolation,
                     NonTermination, NotHierarchical)
from .messages import Message, SizeModel
from .topology import Graph


@dataclass(frozen=True)
class TimingParams:
    """Maximum delivery delay d and maximum transition latency l, seconds."""

    d: float = 0.01
    l: float = 0.001

    def __post_init__(self):
        if not (0 < self.d < math.inf and 0 < self.l < math.inf):
            raise ConfigError("timing parameters must be positive and finite")


REL_TOL = 1e-9  # of d: rounding allowed between times that should coincide


class SynchronousLockstep:
    name = "lockstep"
    quantized = True

    def delivery_time(self, start: float, timing: TimingParams, rng) -> float:
        return (round(start / timing.d) + 1) * timing.d

    def latency(self, timing: TimingParams, rng) -> float:
        return 0.0


class AdversarialMaxDelay(SynchronousLockstep):
    """Every delivery takes the full d.  Transitions have zero latency, so
    every transmission starts on a multiple of d and start + d is exactly
    the lockstep delivery time."""

    name = "adversarial"


class RandomAsync:
    name = "random"
    quantized = False

    def delivery_time(self, start, timing, rng):
        # 1 - random() lies in (0, 1], so the delay never degenerates to zero
        return start + timing.d * (1.0 - rng.random())

    def latency(self, timing, rng):
        return timing.l * (1.0 - rng.random())


SCHEDULERS = {
    "lockstep": SynchronousLockstep,
    "random": RandomAsync,
    "adversarial": AdversarialMaxDelay,
}


def get_scheduler(name: str):
    try:
        return SCHEDULERS[name]()
    except KeyError:
        raise ConfigError(f"unknown scheduler {name!r}") from None


@dataclass(slots=True)
class Event:
    """One trace record: a send, a per-neighbor delivery, an automaton
    transition or a node output."""

    kind: str  # send | deliver | transition | output
    t: float
    node: int
    msg: Message | None = None
    ref: int | None = None  # send sequence a deliver/transition refers to
    value: Any = None  # output events only

    def to_record(self) -> dict:
        rec = {
            "kind": self.kind,
            "t": self.t,
            "node": self.node,
            "msg_type": self.msg.mtype if self.msg else None,
            "size_bits": self.msg.size_bits if self.msg else 0,
            "src": self.msg.src if self.msg else None,
        }
        if self.msg is not None and self.msg.dst is not None:
            rec["dst"] = self.msg.dst
        return rec


_JSONL_CHUNK = 65536  # records per piece of a streamed export


def _record_format(e: Event) -> str:
    """%-format string of `e`'s JSONL record, taking (kind, t, node); the
    rest is json.dumps of the record's message fields, which depend only on
    the message."""
    rec = e.to_record()
    del rec["kind"], rec["t"], rec["node"]
    tail = ", " + json.dumps(rec)[1:]
    return '{"kind": "%s", "t": %r, "node": %d' + tail.replace("%", "%%")


@dataclass
class ExecutionTrace:
    """Time-ordered event log of one fair execution plus its configuration.

    Runs started with record_events=False log outputs only; the aggregate
    message and bit counters are still filled in.
    """

    events: list
    outputs: dict
    config: dict
    timing: TimingParams
    size_model: SizeModel
    graph: Graph
    send_fanout: dict = field(default_factory=dict, repr=False)
    messages_total: int = 0
    bits_total: int = 0

    def sends(self):
        return [e for e in self.events if e.kind == "send"]

    def jsonl_chunks(self):
        """The JSONL export in pieces of _JSONL_CHUNK records, each piece
        ending in a newline.  A record is its kind, time and node formatted
        into a tail prebuilt, with json.dumps, once per distinct message."""
        formats = {}
        events, chunk = self.events, _JSONL_CHUNK
        if not events:
            yield "\n"
        for i in range(0, len(events), chunk):
            lines = []
            for e in events[i:i + chunk]:
                m = e.msg
                key = None if m is None else (m.mtype, m.size_bits, m.src,
                                              m.dst)
                fmt = formats.get(key)
                if fmt is None:
                    fmt = formats[key] = _record_format(e)
                lines.append(fmt % (e.kind, e.t, e.node))
            lines.append("")
            yield "\n".join(lines)

    def to_jsonl(self) -> str:
        return "".join(self.jsonl_chunks())

    def last_output_time(self) -> float:
        return max(e.t for e in self.events if e.kind == "output")


class NodeContext:
    """Static per-node knowledge handed to an automaton, plus a live view of
    the neighborhood (links may fail mid-execution)."""

    def __init__(self, sim, uid):
        self.uid = uid
        self.value = sim.values[uid]
        self.n = sim.graph.n
        self.fn = sim.fn
        self.size_model = sim.size_model
        self.neighbors = tuple(sorted(sim.adj[uid]))
        self._adj = sim.adj[uid]  # not the Simulation: no reference cycle
        self._flush_requested = False

    def live_neighbors(self) -> tuple:
        return tuple(sorted(self._adj))

    def message(self, mtype, dst=None, payload=None, uids=0, values=0,
                extra=0) -> Message:
        """A message from this node, sized by the execution's size model
        from its counts of UID-sized fields, values and extra bits."""
        size = self.size_model.size(n_uids=uids, n_values=values,
                                    extra_bits=extra)
        return Message(mtype, self.uid, size, dst=dst, payload=payload)

    def request_flush(self):
        """Ask the engine for a deferred self-transition after the pending
        same-time deliveries are in; used to batch rebroadcasts."""
        self._flush_requested = True


class Automaton:
    """Base protocol state machine.  Handlers return the broadcasts to emit;
    setting `self.output` ends the node's participation in the consensus."""

    def __init__(self, ctx: NodeContext):
        self.ctx = ctx
        self.output = None

    def on_start(self):
        return []

    def on_message(self, msg: Message, src: int):
        return []

    def on_link_down(self, peer: int):
        return []

    def on_flush(self):
        return []


class Protocol:
    """Factory for a family of automata, one per node."""

    name = "?"
    hierarchical_only = False  # needs a commutative, associative combine
    round_driven = False  # sends only at round boundaries; lockstep only

    def automaton(self, ctx: NodeContext) -> Automaton:
        raise NotImplementedError

    def on_round_boundary(self, automata, r, sim):
        """Round-driven protocols only: returns (halted, [(uid, Message)])."""
        raise NotImplementedError

    def validate(self, graph, fn, scheduler):
        """Hook for per-protocol configuration constraints."""


# event priorities at equal timestamps: transmissions start, deliveries land,
# links fail, transitions fire, flush transitions run, round hooks close out
_KICK, _TX, _DELIVER, _LINKDOWN, _FIRE, _FLUSH, _ROUND = 0, 1, 2, 3, 4, 5, 9
# a heap entry is (t, prio, seq, kind, *args); the batch entries ("fan",
# count, batch, reactions) and ("react", count, batch) carry their event count
_BATCHES = ("react", "fan")


class Simulation:
    """One execution.  Use run() for the common case; keep the instance when
    the automata must survive the run (failure recovery drives a second
    execution over the same automaton states)."""

    def __init__(self, protocol, graph, values, *, fn=None, timing=None,
                 scheduler="lockstep", seed=0, size_model=None,
                 event_cap=10_000_000, automata=None, start_time=0.0,
                 record_events=True):
        if graph.n > 1 and not graph.is_connected():
            raise DisconnectedGraph("refusing to simulate a disconnected graph")
        self.protocol = protocol
        self.graph = graph
        self.values = self._normalize_values(graph, values)
        self.fn = fn
        self.timing = timing or TimingParams()
        self.scheduler = get_scheduler(scheduler)
        self.seed = seed
        self.rng = random.Random(seed)
        self.size_model = size_model or SizeModel.for_network(
            graph.n, getattr(fn, "bits", 32), pool_size=graph.pool_size)
        self.event_cap = event_cap
        self.start_time = start_time

        if protocol.round_driven and self.scheduler.name != "lockstep":
            raise ConfigError(
                f"protocol {protocol.name} only runs under the lockstep scheduler")
        if protocol.hierarchical_only and not getattr(fn, "hierarchical", False):
            raise NotHierarchical(
                f"{protocol.name} needs a hierarchically computable function")
        protocol.validate(graph, fn, self.scheduler)

        self.adj: dict[int, set] = {u: set(graph.adj[u]) for u in graph.uids}
        self._fresh_automata = automata is None
        if automata is None:
            self.automata = {u: protocol.automaton(NodeContext(self, u))
                             for u in sorted(graph.uids)}
        else:
            self.automata = automata
            for u, a in automata.items():
                a.ctx._adj = self.adj[u]  # re-home live-neighbor views

        self._heap: list = []
        self._seq = 0
        self._record = record_events
        self._events: list[Event] = []
        self._messages_total = 0
        self._bits_total = 0
        self.outputs: dict[int, Any] = {}
        self._send_fanout: dict[int, int] = {}
        self._tx_free = {u: start_time for u in graph.uids}
        self._last_fire = {u: start_time for u in graph.uids}
        self._flush_pending: set = set()
        self._quantized = getattr(self.scheduler, "quantized", False)
        self.now = start_time

    @staticmethod
    def _normalize_values(graph, values):
        if isinstance(values, dict):
            return dict(values)
        vals = list(values)
        if len(vals) != graph.n:
            raise ConfigError("need exactly one initial value per node")
        return dict(zip(graph.uids, vals))

    # -- scheduling -----------------------------------------------------

    def _push(self, t, prio, *entry, span=1):
        """Push (t, prio, seq, *entry).  A batch takes the `span` numbers of
        the entries it stands for, seq being the first."""
        seq = self._seq + 1
        self._seq += span
        heapq.heappush(self._heap, (t, prio, seq, *entry))

    def _snap(self, t: float) -> float:
        if self._quantized:
            return round(t / self.timing.d) * self.timing.d
        return t

    def schedule_link_down(self, u, v, at: float):
        self._push(at, _LINKDOWN, "linkdown", u, v)

    def schedule_kick(self, uid, method: str, args=(), at=None):
        """Driver hook: invoke a named automaton method as a transition."""
        self._push(self.start_time if at is None else at, _KICK,
                   "kick", uid, method, tuple(args))

    def _schedule_fire(self, uid, t, *entry):
        """Push a transition of `uid` enabled at t: it fires after the
        scheduler's latency, and not before the node's previous one."""
        lat = self.scheduler.latency(self.timing, self.rng)
        ft = self._snap(max(t + lat, self._last_fire[uid]))
        self._last_fire[uid] = ft
        self._push(ft, _FIRE, *entry)

    def _transmit(self, uid, msgs, emit_t):
        for msg in msgs:
            start = self._snap(max(emit_t, self._tx_free[uid]))
            self._tx_free[uid] = start + self.timing.d
            self._push(start, _TX, "tx", uid, msg)

    def _post_transition(self, uid, t):
        auto = self.automata[uid]
        if auto.output is not None and uid not in self.outputs:
            self.outputs[uid] = auto.output
            self._events.append(Event("output", t, uid, value=auto.output))
        ctx = auto.ctx
        if ctx._flush_requested:
            ctx._flush_requested = False
            if uid not in self._flush_pending:
                self._flush_pending.add(uid)
                self._push(t, _FLUSH, "flush", uid)

    # -- the loop ---------------------------------------------------------

    def run(self) -> ExecutionTrace:
        if self._fresh_automata:
            for uid in sorted(self.automata):
                self.schedule_kick(uid, "on_start")
        if self.protocol.round_driven:
            r0 = round(self.start_time / self.timing.d)
            self._push(self.start_time, _ROUND, "round", r0)

        processed = 0
        while self._heap:
            e = heapq.heappop(self._heap)
            t, kind = e[0], e[3]
            # a batch counts once per copy or transition it stands for
            processed += e[4] if kind in _BATCHES else 1
            if processed > self.event_cap:
                raise NonTermination(
                    f"event cap {self.event_cap} exceeded at t={t:.6g}")
            self.now = t
            if kind == "react":
                self._react(t, e[2], e[5])
            elif kind == "fan":
                self._land(t, e[5], e[6])
            elif kind == "tx":
                self._do_tx(t, e[2], e[4], e[5])
            elif kind == "fire":
                self._fire(t, e[4], e[5], e[6])
            elif kind == "flush":
                self._flush_pending.discard(e[4])
                self._fire(t, e[4], "on_flush")
            elif kind == "round":
                self._do_round(t, e[4])
            elif kind == "kick":
                self._schedule_fire(e[4], t, "fire", *e[4:])
            elif kind == "linkdown":
                self._do_linkdown(t, e[4], e[5])

        missing = [u for u, a in self.automata.items() if a.output is None]
        if missing:
            raise NonTermination(
                f"execution went quiescent but nodes {missing} never output")
        return self._trace()

    def _charge(self, t, sends, ref):
        """Charge and record (uid, msg) sends starting at t, numbered from
        `ref`; returns their batch of (msg, ref, live neighbors, reactors)
        items and its copy and reaction counts."""
        batch, copies, reactions = [], 0, 0
        for uid, msg in sends:
            adj = self.adj[uid]
            receivers = sorted(adj)
            dst = msg.dst
            reactors = (receivers if dst is None
                        else (dst,) if dst in adj else ())
            self._messages_total += 1
            self._bits_total += msg.size_bits
            if self._record:
                self._events.append(Event("send", t, uid, msg, ref))
                self._send_fanout[ref] = len(receivers)
            batch.append((msg, ref, receivers, reactors))
            copies += len(receivers)
            reactions += len(reactors)
            ref += 1
        return batch, copies, reactions

    def _do_tx(self, t, seq, uid, msg):
        """A transmission starts.  Under a quantized scheduler its copies
        land at one boundary as one entry, numbered as the per-copy entries
        it stands for.  Under the random scheduler each copy is an entry of
        its own."""
        batch, copies, reactions = self._charge(t, ((uid, msg),), seq)
        if self._quantized:
            if copies:
                dt = self.scheduler.delivery_time(t, self.timing, self.rng)
                self._push(dt, _DELIVER, "fan", copies, batch, reactions,
                           span=copies)
            return
        for nb in batch[0][2]:
            dt = self.scheduler.delivery_time(t, self.timing, self.rng)
            copy = (nb,)
            reacts = msg.dst is None or msg.dst == nb
            self._push(dt, _DELIVER, "fan", 1,
                       ((msg, seq, copy, copy if reacts else ()),), reacts)

    def _land(self, t, batch, reactions):
        """A delivery entry lands, in batch and receiver order.  Under a
        quantized scheduler its reactions follow as one batch at (t, _FIRE):
        with no latency, and a node's earlier transitions all fired by t,
        the per-node fire clock never holds them back and is not kept."""
        if self._record:
            self._events.extend([Event("deliver", t, nb, msg, ref)
                                 for msg, ref, receivers, _ in batch
                                 for nb in receivers])
        if not reactions:
            return
        if self._quantized:
            self._push(t, _FIRE, "react", reactions, batch, span=reactions)
        else:  # one copy, one reactor
            self._schedule_fire(batch[0][3][0], t, "react", 1, batch)

    def _react(self, t, seq, batch):
        """The message transitions of a batch, the fire entry numbered seq
        at (t, _FIRE): one per reactor of each item, in order.  Every
        on_message call runs here."""
        automata = self.automata
        events = self._events if self._record else None
        items = iter(batch)
        for item in items:
            msg, ref, _, reactors = item
            src = msg.src
            for uid in reactors:
                auto = automata[uid]
                if events is not None:
                    events.append(Event("transition", t, uid, msg, ref))
                msgs = auto.on_message(msg, src)
                if msgs:
                    return self._answer(t, seq, item, uid, msgs, items)
                elif auto.output is not None or auto.ctx._flush_requested:
                    self._post_transition(uid, t)  # else it would do nothing

    def _answer(self, t, seq, item, uid, msgs, items):
        """A reaction in a batch transmits, maybe starting at t, before the
        next reaction; so the rest of the batch, the reactors after `uid`
        and the `items` left, goes back on the heap, counted already, under
        the batch's number seq: no other entry holds a number in the span
        the batch reserved, so it keeps its place."""
        if self.protocol.round_driven:
            raise InvariantViolation(
                f"node {uid} answered a round delivery with messages;"
                f" a round-driven protocol sends only at boundaries")
        self._transmit(uid, msgs, t)
        self._post_transition(uid, t)
        msg, ref, receivers, reactors = item
        later = reactors[reactors.index(uid) + 1:]
        rest = [(msg, ref, receivers, later)] if later else []
        rest += items
        if rest:
            heapq.heappush(self._heap, (t, _FIRE, seq, "react", 0, rest))

    def _do_linkdown(self, t, u, v):
        if v in self.adj[u]:
            self.adj[u].discard(v)
            self.adj[v].discard(u)
            for uid, peer in ((u, v), (v, u)) if u < v else ((v, u), (u, v)):
                self._schedule_fire(uid, t, "fire", uid, "on_link_down",
                                    (peer,))

    def _fire(self, t, uid, method, args=()):
        """A transition other than a reaction to a message: invoke the
        automaton's `method` and transmit what it returns."""
        auto = self.automata[uid]
        if self._record:
            self._events.append(Event("transition", t, uid))
        self._transmit(uid, getattr(auto, method)(*args) or [], t)
        self._post_transition(uid, t)

    def _do_round(self, t, r):
        """Round boundary r.  The protocol's broadcasts start now, numbered
        as their transmission entries would have been, and land at (r+1)*d
        as one delivery entry that the event cap counts per send and copy."""
        halted, sends = self.protocol.on_round_boundary(self.automata, r, self)
        d = self.timing.d
        start = self._snap(t)
        for uid, _ in sends:
            free = self._tx_free[uid]
            if free > t and self._snap(free) != start:
                raise InvariantViolation(
                    f"node {uid}'s round-{r} send would start inside its "
                    f"earlier transmission window")
            self._tx_free[uid] = start + d
        first_ref = self._seq + 1
        self._seq += len(sends)
        for uid in sorted(self.automata):
            self._post_transition(uid, t)
        if not halted:
            self._push((r + 1) * d, _ROUND, "round", r + 1)
        if not sends:
            return
        batch, copies, reactions = self._charge(start, sends, first_ref)
        self._push((r + 1) * d, _DELIVER, "fan", len(sends) + copies, batch,
                   reactions, span=copies)

    def _trace(self) -> ExecutionTrace:
        config = {
            "protocol": self.protocol.name,
            "scheduler": self.scheduler.name,
            "seed": self.seed,
            "start_time": self.start_time,
            "fn": getattr(self.fn, "name", None),
        }
        return ExecutionTrace(events=self._events, outputs=dict(self.outputs),
                              config=config, timing=self.timing,
                              size_model=self.size_model, graph=self.graph,
                              send_fanout=dict(self._send_fanout),
                              messages_total=self._messages_total,
                              bits_total=self._bits_total)


def run(protocol, graph, values, **kwargs) -> ExecutionTrace:
    """Run one execution to quiescence and return its trace."""
    return Simulation(protocol, graph, values, **kwargs).run()


def validate_trace(trace: ExecutionTrace):
    """Check the structural invariants every fair execution must satisfy:
    chronological order, complete per-neighbor fan-out with every delivery
    delay in (0, d], transition latency within l, disjoint per-node
    transmission windows and at most one output per node.  `tol`, d *
    REL_TOL, absorbs float rounding at the upper ends and in the ordering
    checks; any positive delay is a valid draw.  Raises AssertionError on
    the first violation, explicitly, so the checks also run under
    `python -O`."""
    d, l = trace.timing.d, trace.timing.l
    tol = d * REL_TOL
    last_t = float("-inf")
    sends: dict[int, Event] = {}
    deliver_counts: dict[int, int] = {}
    node_send_end: dict[int, float] = {}
    node_deliver_t: dict[tuple, float] = {}
    outputs_seen = set()
    for e in trace.events:
        if e.t < last_t - tol:
            raise AssertionError("events out of chronological order")
        last_t = max(last_t, e.t)
        if e.kind == "send":
            sends[e.ref] = e
            deliver_counts[e.ref] = 0
            prev_end = node_send_end.get(e.node, float("-inf"))
            if e.t < prev_end - tol:
                raise AssertionError(
                    f"node {e.node} started a send inside an earlier window")
            node_send_end[e.node] = e.t + d
        elif e.kind == "deliver":
            if e.ref not in sends:
                raise AssertionError("deliver references an unknown send")
            delay = e.t - sends[e.ref].t
            if not 0 < delay <= d + tol:
                raise AssertionError(f"delivery delay {delay} outside (0, d]")
            deliver_counts[e.ref] += 1
            if e.msg.dst is None or e.msg.dst == e.node:  # it may react
                node_deliver_t[(e.node, e.ref)] = e.t
        elif e.kind == "transition" and e.ref is not None:
            if (e.node, e.ref) not in node_deliver_t:
                raise AssertionError(f"node {e.node} reacted to send {e.ref} "
                                     f"it never got as a recipient")
            dt = e.t - node_deliver_t[(e.node, e.ref)]
            if not -tol <= dt <= l + tol:
                raise AssertionError(f"transition latency {dt} exceeds l")
        elif e.kind == "output":
            if e.node in outputs_seen:
                raise AssertionError(f"node {e.node} output twice")
            outputs_seen.add(e.node)
    for ref, expected in trace.send_fanout.items():
        if deliver_counts.get(ref, 0) != expected:
            raise AssertionError(f"send {ref} delivered "
                                 f"{deliver_counts.get(ref, 0)}/{expected} times")
