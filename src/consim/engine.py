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
SCHEDULERS maps each scheduler's name to whether it is quantized, and the
engine holds the one timing rule for each kind.  Every layer puts a time on
the grid through TimingParams.boundary, the first multiple of d not before it.

lockstep      quantized: rounds of length d, counted from each execution's
              own first boundary; everything sent during a round lands
              exactly at the next boundary and transitions fire at the
              first boundary not before their cause.  Special case of the
              asynchronous model.
adversarial   quantized, an alias of lockstep: every delivery takes the full
              d and co-enabled transitions fire together, which with zero
              latency is exactly lockstep.
random        delivery delays drawn uniformly from (0, d] per receiver and
              transition latencies from (0, l], in event order from the
              seeded generator.

A broadcast is charged once regardless of receiver count and delivered to
every neighbor it had when its transmission started.  Messages carrying a
`dst` tag are delivered everywhere but only the tagged recipient's automaton
reacts.

Under the quantized schedulers deliveries land in batches of (message,
ref, receivers, reactors), one per send or per round-driven protocol's round
(lockstep only), which take the sequence numbers of the entries they stand
for, so records, refs, order and the event cap's count are those
per-message events give.  Under the random scheduler each copy is one flat
heap entry, with its own delay, and so is its reaction, with its latency.

Traces
------
The records are stored as columns (TraceRows): one row per send,
transition and output, and one per landing item.  Under the quantized
schedulers every copy of a send lands at one time, in receiver order, so a
landing row stands for all of them and its receivers are kept once, with
the send; under the random scheduler each copy is a row of its own.
ExecutionTrace.events is a read-only sequence that expands rows into
Events on demand; the JSONL export, validate_trace and the metrics read the
columns directly.

The export writes schema 3: a header with the configuration and the graph,
then the records.  A copy or a message transition names its send by the
send's ordinal in the file.  Of a tagged message's copies only the one to
dst, the only receiver that may react, is written.
"""

from __future__ import annotations

import functools
import heapq
import json
import math
import random
from array import array
from bisect import bisect_right
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import islice
from typing import Any

from .errors import (ConfigError, DisconnectedGraph, InvariantViolation,
                     NonTermination, NotHierarchical, TraceViolation)
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

    def boundary(self, t: float) -> float:
        """The first multiple of d not before t, up to REL_TOL."""
        return math.ceil(t / self.d - REL_TOL) * self.d


REL_TOL = 1e-9  # of d: rounding allowed between times that should coincide

# scheduler name -> whether it is quantized (see the module docstring)
SCHEDULERS = {"lockstep": True, "random": False, "adversarial": True}


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
TRACE_SCHEMA = 3  # the version the export writes in its header

# row kinds of a trace; a landing row stands for one deliver record per
# receiver of its send, in receiver order, all at the row's time
_ROW_SEND, _ROW_DELIVER, _ROW_TRANSITION, _ROW_OUTPUT, _ROW_LAND = range(5)
_KINDS = ("send", "deliver", "transition", "output")
_NO_REF = -(1 << 63)  # the ref column's None


class TraceRows(Sequence):
    """The records of a trace, stored as columns with one row per record or
    landing, and read as a sequence of Events built on demand: indexing and
    slicing expand only the rows they reach.

    Row i is (kind[i], t[i], node[i], ref[i], mid[i]); rows() yields these
    tuples.  For an output, mid indexes `values`.  For any other row it is
    the message id, the key in `sends` of its (message, sorted receivers),
    or -1 for a transition without a message.  A recorded execution keys
    each send by its ref, so there mid equals ref; a trace built from
    Events keys each Message object from 0, with no receivers.  A landing
    row's node is unused: its receivers are its send's.  The columns hold
    no objects, so the garbage collector walks only `sends` and `values`.
    """

    def __init__(self):
        self.columns = (self.kind, self.t, self.node, self.ref, self.mid) = (
            bytearray(), array("d"), array("q"), array("q"), array("q"))
        self.sends: dict[int, tuple] = {}
        self.values: list = []
        self._starts = None  # per row, the index of its first record

    def add(self, kind, t, node, ref, mid):
        self.kind.append(kind)
        self.t.append(t)
        self.node.append(node)
        self.ref.append(ref)
        self.mid.append(mid)

    def send(self, t, node, ref, msg, receivers):
        self.sends[ref] = (msg, receivers)
        self.add(_ROW_SEND, t, node, ref, ref)

    def output(self, t, node, value):
        self.add(_ROW_OUTPUT, t, node, _NO_REF, len(self.values))
        self.values.append(value)

    @classmethod
    def from_events(cls, events) -> "TraceRows":
        """One row per Event; records sharing a Message object share its
        entry of `sends`.  An output keeps its value, not a message."""
        rows = cls()
        mids: dict[int, int] = {}
        for e in events:
            if e.kind == "output":
                rows.output(e.t, e.node, e.value)
                continue
            mid = mids.get(id(e.msg))
            if mid is None:
                mid = mids[id(e.msg)] = len(rows.sends)
                rows.sends[mid] = (e.msg, ())
            rows.add(_KINDS.index(e.kind), e.t, e.node,
                     _NO_REF if e.ref is None else e.ref, mid)
        return rows

    def rows(self):
        return zip(*self.columns)

    def starts(self) -> array:
        """Per row the index of its first record, then the record count."""
        if self._starts is None:
            starts, n, sends = array("q"), 0, self.sends
            for k, mid in zip(self.kind, self.mid):
                starts.append(n)
                n += len(sends[mid][1]) if k == _ROW_LAND else 1
            starts.append(n)
            self._starts = starts
        return self._starts

    def __len__(self):
        return self.starts()[-1]

    def __getitem__(self, i):
        n = len(self)
        if isinstance(i, slice):
            start, stop, step = i.indices(n)
            if step != 1:
                return [self[j] for j in range(start, stop, step)]
            return list(islice(self._expand(start), max(stop - start, 0)))
        if i < 0:
            i += n
        if not 0 <= i < n:
            raise IndexError("trace index out of range")
        return next(self._expand(i))

    def __iter__(self):
        return self._expand(0)

    def _expand(self, start):
        """The records from index `start` on, as Events."""
        starts = self.starts()
        row = bisect_right(starts, start) - 1
        skip = start - starts[row]
        for i in range(row, len(self.kind)):
            if self.kind[i] == _ROW_LAND:
                msg, receivers = self.sends[self.mid[i]]
                t, ref = self.t[i], self.ref[i]
                for nb in receivers[skip:]:
                    yield Event("deliver", t, nb, msg, ref)
                skip = 0
            else:
                yield self.record(i)

    def record(self, i) -> Event:
        """The Event of row i, which is not a landing."""
        k, t, node, ref, mid = (self.kind[i], self.t[i], self.node[i],
                                self.ref[i], self.mid[i])
        if k == _ROW_OUTPUT:
            return Event("output", t, node, value=self.values[mid])
        return Event(_KINDS[k], t, node,
                     None if mid < 0 else self.sends[mid][0],
                     None if ref == _NO_REF else ref)

    def indices_of(self, kind) -> list:
        """The indices of the rows of `kind`, found by a scan in C."""
        find, out = self.kind.find, []
        i = find(kind)
        while i >= 0:
            out.append(i)
            i = find(kind, i + 1)
        return out

    def sent(self) -> list:
        """(t, message) of every send, in order."""
        t, mid, sends = self.t, self.mid, self.sends
        return [(t[i], sends[mid[i]][0]) for i in self.indices_of(_ROW_SEND)]

    def output_times(self) -> list:
        t = self.t
        return [t[i] for i in self.indices_of(_ROW_OUTPUT)]


@functools.lru_cache(maxsize=1024)
def _send_format(mtype, size_bits, src) -> str:
    """The JSONL %-format of a send of a message with these fields, taking
    (t, node, its dst field or "", fanout); cached by the fields, which a
    sender's sends share whatever their dst."""
    fields = {"msg_type": mtype, "size_bits": size_bits, "src": src}
    return ('{"kind": "send", "t": %r, "node": %d, '
            + json.dumps(fields)[1:-1].replace("%", "%%")
            + '%s, "fanout": %s}')


@dataclass
class ExecutionTrace:
    """Time-ordered event log of one fair execution plus its configuration.

    `events` holds the records as TraceRows; a list of Events given to the
    constructor or assigned to `events` is converted once.  Runs started
    with record_events=False log outputs only; the aggregate message and
    bit counters are still filled in.
    """

    events: TraceRows
    outputs: dict
    config: dict
    timing: TimingParams
    size_model: SizeModel
    graph: Graph
    send_fanout: dict = field(default_factory=dict, repr=False)
    messages_total: int = 0
    bits_total: int = 0

    def __setattr__(self, name, value):
        if name == "events" and not isinstance(value, TraceRows):
            value = TraceRows.from_events(value)
        super().__setattr__(name, value)

    def _header(self) -> str:
        """The first record of the export: the schema version and all that
        validate_trace and the report row of the trace read, the graph
        included."""
        cfg, sm = self.config, self.size_model
        return json.dumps({
            "kind": "header", "schema": TRACE_SCHEMA,
            "protocol": cfg.get("protocol"),
            "algo": cfg.get("algo", cfg.get("protocol")),
            "scheduler": cfg.get("scheduler"), "seed": cfg.get("seed", 0),
            "start_time": cfg.get("start_time", 0.0), "fn": cfg.get("fn"),
            "m": cfg.get("m"), "topology": self.graph.kind,
            "n": self.graph.n, "uids": self.graph.uids,
            "edges": sorted(self.graph.edges), "b": sm.value_bits,
            "d": self.timing.d, "l": self.timing.l,
            "size_model": {"uid_bits": sm.uid_bits,
                           "value_bits": sm.value_bits,
                           "flag_bits": sm.flag_bits},
            "messages": self.messages_total, "bits": self.bits_total})

    def jsonl_chunks(self):
        """The schema-3 JSONL export in pieces of about _JSONL_CHUNK
        records, each ending in a newline; a piece ends after the landing
        that fills it, so it holds fewer than _JSONL_CHUNK plus one fan-out
        records.  The header comes first.  A copy is written only if its
        receiver may react: every copy of an untagged message, and of a
        tagged one only the copy to its dst."""
        rows, chunk, fanout = self.events, _JSONL_CHUNK, self.send_fanout
        sends, kinds = rows.sends, _KINDS
        send_row, deliver_row, land_row = _ROW_SEND, _ROW_DELIVER, _ROW_LAND
        bare = '{"kind": "%s", "t": %r, "node": %d}'
        named = '{"kind": "%s", "t": %r, "node": %d, "ref": %s}'
        ordinal: dict[int, int] = {}  # a send's ref -> its ordinal
        lines, count, sent = [self._header()], 1, 0
        for k, t, node, ref, mid in rows.rows():
            if k == land_row:
                msg, receivers = sends[mid]
                if msg.dst is None:  # one join over the receivers
                    head = '{"kind": "deliver", "t": %r, "node": ' % t
                    tail = ', "ref": %d}' % ordinal[ref]
                    lines.append(head + (tail + "\n" + head).join(
                        map(str, receivers)) + tail)
                    count += len(receivers)
                elif msg.dst in receivers:
                    lines.append(named % ("deliver", t, msg.dst, ordinal[ref]))
                    count += 1
            elif k == send_row:
                msg, f = sends[mid][0], fanout.get(ref)
                dst = "" if msg.dst is None else ', "dst": %d' % msg.dst
                lines.append(_send_format(msg.mtype, msg.size_bits, msg.src)
                             % (t, node, dst, "null" if f is None else f))
                ordinal[ref] = sent
                sent += 1
                count += 1
            elif k == deliver_row and sends[mid][0].dst not in (None, node):
                continue  # a copy its receiver drops unread
            else:  # a copy, or a transition naming its send or none
                lines.append(bare % (kinds[k], t, node)
                             if ref == _NO_REF and k != deliver_row else
                             named % (kinds[k], t, node,
                                      ordinal.get(ref, "null")))
                count += 1
            if count >= chunk:
                lines.append("")
                yield "\n".join(lines)
                lines, count = [], 0
        if lines:
            lines.append("")
            yield "\n".join(lines)

    def to_jsonl(self) -> str:
        return "".join(self.jsonl_chunks())

    def last_output_time(self) -> float:
        return max(self.events.output_times())

    def last_time(self) -> float | None:
        """Time of the last record; None for an empty trace."""
        t = self.events.t
        return t[-1] if t else None


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
        # the live neighbor set, which the engine updates; automata only
        # read it.  Not the Simulation: no reference cycle
        self.live = sim.adj[uid]
        self._flush_requested = False

    def live_neighbors(self) -> tuple:
        return tuple(sorted(self.live))

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

    def validate(self, graph, fn):
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
        if scheduler not in SCHEDULERS:
            raise ConfigError(f"unknown scheduler {scheduler!r}")
        self.scheduler = scheduler
        self.seed = seed
        self.rng = random.Random(seed)
        self.size_model = size_model or SizeModel.for_network(
            graph.n, getattr(fn, "bits", 32), pool_size=graph.pool_size)
        if event_cap < 1:
            raise ConfigError("the event cap must be at least 1")
        self.event_cap = event_cap
        if not math.isfinite(start_time):
            raise ConfigError(f"start_time must be finite, got {start_time!r}")
        self.start_time = start_time

        if protocol.round_driven and scheduler != "lockstep":
            raise ConfigError(
                f"protocol {protocol.name} only runs under the lockstep scheduler")
        if protocol.hierarchical_only and not getattr(fn, "hierarchical", False):
            raise NotHierarchical(
                f"{protocol.name} needs a hierarchically computable function")
        protocol.validate(graph, fn)

        self.adj: dict[int, set] = {u: set(graph.adj[u]) for u in graph.uids}
        self._fresh_automata = automata is None
        if automata is None:
            self.automata = {u: protocol.automaton(NodeContext(self, u))
                             for u in sorted(graph.uids)}
        else:
            self.automata = automata
            for u, a in automata.items():
                a.ctx.live = self.adj[u]  # re-home live-neighbor views

        self._heap: list = []
        self._ran = False
        self._seq = 0
        self._record = record_events
        self._rows = TraceRows()
        self._messages_total = 0
        self._bits_total = 0
        self.outputs: dict[int, Any] = {}
        self._send_fanout: dict[int, int] = {}
        self._receivers: dict[int, tuple] = {}  # sorted live neighbors
        self._tx_free = {u: start_time for u in graph.uids}
        self._last_fire = {u: start_time for u in graph.uids}  # random only
        self._flush_pending: set = set()
        self._quantized = SCHEDULERS[scheduler]
        self.now = start_time

    @staticmethod
    def _normalize_values(graph, values):
        if isinstance(values, dict):
            if values.keys() != set(graph.uids):
                raise ConfigError("need exactly one initial value per node, "
                                  "keyed by the graph's UIDs")
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

    def schedule_link_down(self, u, v, at: float):
        self._push(self._hook_time(at), _LINKDOWN, "linkdown", u, v)

    def schedule_kick(self, uid, method: str, args=(), at=None):
        """Driver hook: invoke a named automaton method as a transition."""
        if not callable(getattr(self.automata.get(uid), method, None)):
            raise ConfigError(f"node {uid!r} has no automaton method "
                              f"{method!r}")
        self._push(self._hook_time(self.start_time if at is None else at),
                   _KICK, "kick", uid, method, tuple(args))

    def _hook_time(self, at):
        """A driver hook's time: finite and not before start_time."""
        if not self.start_time <= at < math.inf:
            raise ConfigError(f"time {at!r} is not finite or before start_time")
        return at

    def _fire_time(self, uid, t):
        """When a transition of `uid` enabled at t fires.  A quantized
        scheduler fires it at the first boundary not before t, so that no
        transition precedes its cause; the random one after a latency drawn
        from (0, l], and not before the node's previous transition."""
        if self._quantized:
            return self.timing.boundary(t)
        ft = max(t + self.timing.l * (1.0 - self.rng.random()),
                 self._last_fire[uid])
        self._last_fire[uid] = ft
        return ft

    def _transmit(self, uid, msgs, emit_t):
        for msg in msgs:
            start = max(emit_t, self._tx_free[uid])
            if self._quantized:
                start = self.timing.boundary(start)
            self._tx_free[uid] = start + self.timing.d
            self._push(start, _TX, "tx", uid, msg)

    def _post_transition(self, uid, t):
        auto = self.automata[uid]
        if auto.output is not None and uid not in self.outputs:
            self.outputs[uid] = auto.output
            self._rows.output(t, uid, auto.output)
        ctx = auto.ctx
        if ctx._flush_requested:
            ctx._flush_requested = False
            if uid not in self._flush_pending:
                self._flush_pending.add(uid)
                self._push(t, _FLUSH, "flush", uid)

    # -- the loop ---------------------------------------------------------

    def run(self) -> ExecutionTrace:
        if self._ran:  # a second run would change the first one's trace
            raise ConfigError("a Simulation runs only once")
        self._ran = True
        if self._fresh_automata:
            for uid in sorted(self.automata):
                self.schedule_kick(uid, "on_start")
        if self.protocol.round_driven:
            self._push(self.timing.boundary(self.start_time), _ROUND,
                       "round", 0)

        heap, pop, push = self._heap, heapq.heappop, heapq.heappush
        record, automata, outputs = self._record, self.automata, self.outputs
        kinds, times, nodes, refs, mids = (c.append for c in self._rows.columns)
        rng, l, last_fire = self.rng, self.timing.l, self._last_fire
        processed = 0
        while heap:
            e = pop(heap)
            t, kind = e[0], e[3]
            # a batch counts once per copy or transition it stands for
            processed += e[4] if kind in _BATCHES else 1
            if processed > self.event_cap:
                raise NonTermination(
                    f"event cap {self.event_cap} exceeded at t={t:.6g}")
            self.now = t
            if kind == "copy":  # a random copy lands, then maybe reacts
                _, _, _, _, nb, msg, ref, reacts = e
                if record:
                    kinds(_ROW_DELIVER), times(t), nodes(nb), refs(ref)
                    mids(ref)
                if reacts:  # _fire_time's rule inline: a call is ~10% of run
                    ft = t + l * (1.0 - rng.random())
                    if ft < last_fire[nb]:
                        ft = last_fire[nb]
                    last_fire[nb] = ft
                    self._seq += 1
                    push(heap, (ft, _FIRE, self._seq, "react1", nb, msg, ref))
            elif kind == "react1":
                _, _, _, _, nb, msg, ref = e
                if record:
                    kinds(_ROW_TRANSITION), times(t), nodes(nb), refs(ref)
                    mids(ref)
                auto = automata[nb]
                msgs = auto.on_message(msg, msg.src)
                if msgs:
                    self._transmit(nb, msgs, t)
                if (auto.ctx._flush_requested or auto.output is not None
                        and nb not in outputs):
                    self._post_transition(nb, t)
            elif kind == "react":
                self._react(t, e[2], e[5])
            elif kind == "fan":  # a quantized landing; reactions at _FIRE
                if record:
                    for _, ref, receivers, _ in e[5]:
                        if receivers:
                            kinds(_ROW_LAND), times(t), nodes(-1), refs(ref)
                            mids(ref)
                if e[6]:  # no latency, and every earlier transition fired
                    self._push(t, _FIRE, "react", e[6], e[5], span=e[6])
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
                self._push(self._fire_time(e[4], t), _FIRE, "fire", *e[4:])
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
            receivers = self._receivers.get(uid)
            if receivers is None:
                receivers = self._receivers[uid] = tuple(sorted(adj))
            dst = msg.dst
            reactors = (receivers if dst is None
                        else (dst,) if dst in adj else ())
            self._messages_total += 1
            self._bits_total += msg.size_bits
            if self._record:
                self._rows.send(t, uid, ref, msg, receivers)
                self._send_fanout[ref] = len(receivers)
            batch.append((msg, ref, receivers, reactors))
            copies += len(receivers)
            reactions += len(reactors)
            ref += 1
        return batch, copies, reactions

    def _do_tx(self, t, seq, uid, msg):
        """A transmission starts.  Under a quantized scheduler its copies
        land at the next boundary as one entry, numbered as the per-copy
        entries it stands for.  Under the random scheduler each copy is a
        flat entry, its delay drawn from (0, d] in receiver order."""
        batch, copies, reactions = self._charge(t, ((uid, msg),), seq)
        d = self.timing.d
        if self._quantized:
            if copies:
                self._push(self.timing.boundary(t + d), _DELIVER, "fan",
                           copies, batch, reactions, span=copies)
            return
        rng, dst, heap, push = self.rng, msg.dst, self._heap, heapq.heappush
        for nb in batch[0][2]:
            # 1 - random() lies in (0, 1], so no delay degenerates to zero
            self._seq += 1
            push(heap, (t + d * (1.0 - rng.random()), _DELIVER, self._seq,
                        "copy", nb, msg, seq, dst in (None, nb)))

    def _react(self, t, seq, batch):
        """The message transitions of a quantized batch, the fire entry
        numbered seq at (t, _FIRE): one per reactor of each item, in
        order."""
        automata = self.automata
        rows = self._rows if self._record else None
        items = iter(batch)
        for item in items:
            msg, ref, _, reactors = item
            src = msg.src
            for uid in reactors:
                auto = automata[uid]
                if rows is not None:
                    rows.add(_ROW_TRANSITION, t, uid, ref, ref)
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
            self._receivers.pop(u, None)
            self._receivers.pop(v, None)
            for uid, peer in ((u, v), (v, u)) if u < v else ((v, u), (u, v)):
                self._push(self._fire_time(uid, t), _FIRE, "fire", uid,
                           "on_link_down", (peer,))

    def _fire(self, t, uid, method, args=()):
        """A transition other than a reaction to a message: invoke the
        automaton's `method` and transmit what it returns."""
        auto = self.automata[uid]
        if self._record:
            self._rows.add(_ROW_TRANSITION, t, uid, _NO_REF, -1)
        self._transmit(uid, getattr(auto, method)(*args) or [], t)
        self._post_transition(uid, t)

    def _do_round(self, t, r):
        """Round r of this execution, at the boundary t.  The protocol's
        broadcasts start now, numbered as their transmission entries would
        have been, and land at the next boundary as one delivery entry that
        the event cap counts per send and copy."""
        halted, sends = self.protocol.on_round_boundary(self.automata, r, self)
        timing = self.timing
        for uid, _ in sends:
            free = self._tx_free[uid]
            if free > t and timing.boundary(free) != t:
                raise InvariantViolation(
                    f"node {uid}'s round-{r} send would start inside its "
                    f"earlier transmission window")
            self._tx_free[uid] = t + timing.d
        first_ref = self._seq + 1
        self._seq += len(sends)
        for uid in sorted(self.automata):
            self._post_transition(uid, t)
        nxt = timing.boundary(t + timing.d)
        if not halted:
            self._push(nxt, _ROUND, "round", r + 1)
        if not sends:
            return
        batch, copies, reactions = self._charge(t, sends, first_ref)
        self._push(nxt, _DELIVER, "fan", len(sends) + copies, batch,
                   reactions, span=copies)

    def _trace(self) -> ExecutionTrace:
        config = {
            "protocol": self.protocol.name,
            "scheduler": self.scheduler,
            "seed": self.seed,
            "start_time": self.start_time,
            "fn": getattr(self.fn, "name", None),
            "m": getattr(self.protocol, "m", None),
        }
        return ExecutionTrace(events=self._rows, outputs=dict(self.outputs),
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
    chronological order; complete per-neighbor fan-out, each delay in
    (0, d]; at most one copy of a send at a node, and for each copy its
    node may react to, one transition on it within l; disjoint per-node
    transmission windows; one output per node; and totals that count the
    recorded sends, if any.
    `tol`, d * REL_TOL, absorbs float rounding at the upper ends and in the
    ordering checks; any positive delay is a valid draw.  Raises
    TraceViolation, an AssertionError, on the first violation, explicitly,
    so the checks also run under `python -O`."""
    d, l = trace.timing.d, trace.timing.l
    tol = d * REL_TOL
    table = trace.events.sends
    last_t = never = -math.inf
    seen: dict[int, list] = {}  # [start, sender, copies, got_from[sender]]
    node_send_end: dict[int, float] = {}
    got_from = defaultdict(dict)  # sender -> node -> last start it got
    react_t: dict[tuple, float] = {}  # copies yet to react, by (node, ref)
    outputs_seen = set()
    sent = bits = 0
    for k, t, node, ref, mid in trace.events.rows():
        if t < last_t - tol:
            raise TraceViolation("events out of chronological order")
        if t > last_t:
            last_t = t
        if k == _ROW_SEND:
            sent += 1
            bits += table[mid][0].size_bits
            seen[ref] = [t, node, 0, got_from[node]]
            if t < node_send_end.get(node, t) - tol:
                raise TraceViolation(
                    f"node {node} started a send inside an earlier window")
            node_send_end[node] = t + d
        elif k == _ROW_DELIVER or k == _ROW_LAND:
            send = seen.get(ref)
            if send is None:
                raise TraceViolation("deliver references an unknown send")
            delay = t - send[0]
            if not 0 < delay <= d + tol:
                raise TraceViolation(f"delivery delay {delay} outside (0, d]")
            msg, receivers = table[mid]
            dst = msg.dst
            if k == _ROW_DELIVER:
                send[2] += 1
                # a sender's windows are disjoint, so its copies reach a
                # node in the order of their sends
                last = send[3]
                if last.get(node, never) >= send[0]:
                    raise TraceViolation(
                        f"node {node} got {_send_name(seen, ref)} twice")
                last[node] = send[0]
                if dst is None or dst == node:
                    react_t[(node, ref)] = t
            else:  # a landing; a second one of a send shows in its count
                send[2] += len(receivers)
                if dst is not None:
                    receivers = (dst,) if dst in receivers else ()
                for nb in receivers:
                    react_t[(nb, ref)] = t
        elif k == _ROW_TRANSITION and ref != _NO_REF:
            got = react_t.pop((node, ref), None)  # one reaction per copy
            if got is None:
                if ref not in seen:
                    raise TraceViolation(
                        "transition references an unknown send")
                raise TraceViolation(
                    f"node {node} reacted to {_send_name(seen, ref)} it "
                    f"never got as a recipient, or twice")
            dt = t - got
            if not -tol <= dt <= l + tol:
                raise TraceViolation(f"transition latency {dt} exceeds l")
        elif k == _ROW_OUTPUT:
            if node in outputs_seen:
                raise TraceViolation(f"node {node} output twice")
            outputs_seen.add(node)
    for ref, expected in trace.send_fanout.items():
        copies = seen[ref][2] if ref in seen else 0
        if copies != expected:
            raise TraceViolation(f"{_send_name(seen, ref)} delivered "
                                 f"{copies}/{expected} times")
    for node, ref in react_t:
        raise TraceViolation(
            f"node {node} never reacted to {_send_name(seen, ref)}")
    if sent and (trace.messages_total, trace.bits_total) != (sent, bits):
        raise TraceViolation(
            f"{sent} sends of {bits} bits recorded, the totals count "
            f"{trace.messages_total} of {trace.bits_total}")


def _send_name(seen, ref) -> str:
    """A send by sender and start, which, unlike its ref, a file keeps."""
    if ref not in seen:
        return f"unrecorded send {ref}"
    return f"node {seen[ref][1]}'s send at t={seen[ref][0]!r}"
