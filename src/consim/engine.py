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
Of a node's queued transmissions only the next is on the heap; the rest
wait in a per-node FIFO, numbered as the entries they stand for.

Traces
------
The records are stored as columns (TraceRows): one row per send,
transition and output, and one per landing item.  A row names its message
by ref, the sequence number of its send.  Under the quantized schedulers
every copy of a send lands at one time, in receiver order, so a landing
row stands for all of them and its receivers are kept once, with the send;
under the random scheduler each copy is a row of its own.  A row is 17
bytes: kind 1, t 8, and node and ref int32 (ref -1 for none); a uid or a
recorded send's ref that does not fit 32 bits is a ConsimError.  A trace
is built only as rows, and carries its message and bit totals.
ExecutionTrace.events also reads as a sequence that expands rows into
Events on demand; the JSONL export, validate_trace and the metrics read the
columns directly.  trace_digest says when two traces are the same
execution: it hashes the columns and the send table with refs written as
send ordinals, so it does not depend on how the engine numbers its sends.

The export writes schema 3: a header with the configuration and the graph,
then the records.  A copy or a message transition names its send by the
send's ordinal in the file.  Of a tagged message's copies only the one to
dst, the only receiver that may react, is written.  ExecutionTrace.from_jsonl
reads the file back into columns as a run holds them, checking the format.
"""

from __future__ import annotations

import functools
import hashlib
import heapq
import json
import math
import random
import sys
from array import array
from bisect import bisect_right
from collections import defaultdict, deque
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import islice
from typing import Any

from .errors import (ConfigError, ConsimError, DisconnectedGraph,
                     InvariantViolation, NonTermination, NotHierarchical,
                     TraceViolation)
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


_JSONL_CHUNK = 4096  # records per piece of a streamed export
TRACE_SCHEMA = 3  # the version the export writes in its header

# row kinds of a trace; a landing row stands for one deliver record per
# receiver of its send, in receiver order, all at the row's time
_ROW_SEND, _ROW_DELIVER, _ROW_TRANSITION, _ROW_OUTPUT, _ROW_LAND = range(5)
_KINDS = ("send", "deliver", "transition", "output")
_NO_REF = -1  # the ref column's None; a send's ref is never negative
_I32 = 1 << 31  # the node and ref columns hold ints in [-_I32, _I32)


class TraceRows(Sequence):
    """The records of a trace, stored as columns with one row per record or
    landing, and read as a sequence of Events built on demand: indexing and
    slicing expand only the rows they reach.  The engine appends rows by
    kind code through `appends`, the columns' append methods; other
    writers use add, by kind name, send and output.

    Row i is (kind[i], t[i], node[i], ref[i]); rows() yields these tuples.
    A row's ref is its message's key in `sends`, which holds each send's
    (message, sorted receivers); a transition without a message, and an
    output, have none.  `values` maps an output's row index to its value.
    A landing row's node is unused: its receivers are its send's.  The
    columns hold no objects, so the garbage collector walks only `sends`
    and `values`.
    """

    def __init__(self):
        self.columns = (self.kind, self.t, self.node, self.ref) = (
            bytearray(), array("d"), array("i"), array("i"))
        self.appends = tuple(c.append for c in self.columns)
        self.sends: dict[int, tuple] = {}
        self.values: dict[int, Any] = {}
        self._starts = None  # per row, the index of its first record

    def add(self, kind, t, node, ref=None):
        """Append a record of `kind`, by name, naming its send by `ref`."""
        self._append(_KINDS.index(kind), t, node,
                     _NO_REF if ref is None else ref)

    def _append(self, code, t, node, ref=_NO_REF):
        """Append a row of the kind code `code`."""
        self.kind.append(code)
        self.t.append(t)
        self.node.append(node)
        self.ref.append(ref)

    def send(self, t, node, ref, msg, receivers):
        self.sends[ref] = (msg, receivers)
        self._append(_ROW_SEND, t, node, ref)

    def output(self, t, node, value):
        self.values[len(self.kind)] = value
        self._append(_ROW_OUTPUT, t, node)

    def rows(self):
        return zip(*self.columns)

    def starts(self) -> array:
        """Per row the index of its first record, then the record count;
        computed again once rows have been appended since."""
        if self._starts is None or len(self._starts) != len(self.kind) + 1:
            starts, n, sends = array("q"), 0, self.sends
            for k, ref in zip(self.kind, self.ref):
                starts.append(n)
                n += len(sends[ref][1]) if k == _ROW_LAND else 1
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
            k, t, node, ref = (column[i] for column in self.columns)
            if k == _ROW_LAND:
                msg, receivers = self.sends[ref]
                for nb in receivers[skip:]:
                    yield Event("deliver", t, nb, msg, ref)
                skip = 0
            elif k == _ROW_OUTPUT:
                yield Event("output", t, node, value=self.values[i])
            elif ref == _NO_REF:
                yield Event(_KINDS[k], t, node)
            else:
                yield Event(_KINDS[k], t, node, self.sends[ref][0], ref)

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
        t, ref, sends = self.t, self.ref, self.sends
        return [(t[i], sends[ref[i]][0]) for i in self.indices_of(_ROW_SEND)]

    def output_times(self) -> list:
        t = self.t
        return [t[i] for i in self.indices_of(_ROW_OUTPUT)]


@functools.lru_cache(maxsize=1024)
def _send_format(mtype, size_bits) -> str:
    """The JSONL %-format of a send of a message of this type and size,
    taking (repr of t, node, src, its dst field or "", fanout); cached by
    type and size, which sends share whatever their sender and dst."""
    fields = {"msg_type": mtype, "size_bits": size_bits}
    return ('{"kind": "send", "t": %s, "node": %d, '
            + json.dumps(fields)[1:-1].replace("%", "%%")
            + ', "src": %d%s, "fanout": %s}')


def _not_schema(why) -> ConfigError:
    return ConfigError(f"not a schema-{TRACE_SCHEMA} trace: {why}")


def _not_json(name):
    raise ValueError(f"{name} is not a JSON number")


_NULL, _INT, _NUM = type(None), ((int,), "an int"), ((int, float), "a number")
_TIME = (("t", *_NUM),)  # every record's time


def _typed(where, rec, fields):
    """Refuse the first (key, types, what) with rec[key] of no type in types."""
    for k, types, what in fields:
        if type(rec[k]) not in types:
            raise _not_schema(f"{where}: {k} is {rec[k]!r}, not {what}")


def _int32(where, k, v):  # a uid or node: what a node column holds
    if type(v) is not int or not -_I32 <= v < _I32:
        raise _not_schema(f"{where}: {k} is {v!r}, not a 32-bit int")


def _trace(head) -> ExecutionTrace:
    """A trace with the header's configuration and no records yet; the
    header's n, b and flag_bits must restate its uids and size model."""
    if not (isinstance(head, dict) and head.get("kind") == "header"
            and head.get("schema") == TRACE_SCHEMA):
        raise _not_schema("the first record is not its header")
    sm = head["size_model"]
    for k, got, want in (("n", head["n"], len(head["uids"])),
                         ("b", head["b"], sm["value_bits"]),
                         ("flag_bits", sm["flag_bits"], SizeModel.flag_bits)):
        if got != want:
            raise _not_schema(f"its header: {k} is {got!r}, not {want!r}")
    _typed("its header", {**head, **sm}, (  # the size model's fields too
        *((k, *_NUM) for k in ("start_time", "d", "l")),
        *((k, *_INT) for k in ("seed", "messages", "bits", "uid_bits",
                               "value_bits")),
        ("m", (int, _NULL), "an int or null"), ("topology", (str,), "a string"),
        *((k, (str, _NULL), "a string or null")
          for k in ("protocol", "algo", "scheduler", "fn"))))
    for u in head["uids"]:
        _int32("its header", "a uid", u)
    try:
        return ExecutionTrace(
            events=TraceRows(), outputs={},
            config={k: head[k] for k in ("protocol", "algo", "scheduler",
                                         "seed", "start_time", "fn", "m")},
            timing=TimingParams(head["d"], head["l"]),
            size_model=SizeModel(sm["uid_bits"], sm["value_bits"]),
            graph=Graph(tuple(head["uids"]),
                        frozenset(map(tuple, head["edges"])),
                        kind=head["topology"]),
            messages_total=head["messages"], bits_total=head["bits"])
    except ConsimError as exc:
        raise _not_schema(f"its header: {exc}") from None


def _read(trace, records):
    """Append the records to the trace's rows; a send's ref is its ordinal.
    Only an untagged send has all its copies in the file, and a fan-out."""
    rows, fanout, uids = trace.events, trace.send_fanout, set(trace.graph.uids)
    for rec in records:
        kind, t, node = rec["kind"], rec["t"], rec["node"]
        where = f"{kind} record"
        _typed(where, rec, _TIME)
        _int32(where, "node", node)
        if node not in uids:
            raise TraceViolation(f"{kind} at node {node!r}, not in the graph")
        if kind == "send":
            _typed("send record", rec, (
                ("msg_type", (str,), "a string"), ("size_bits", *_INT),
                ("src", *_INT), ("fanout", (int, _NULL), "an int or null"),
                *((("dst", *_INT),) if "dst" in rec else ())))
            msg = Message(rec["msg_type"], rec["src"], rec["size_bits"],
                          dst=rec.get("dst"))
            if msg.src != node:
                raise TraceViolation(f"a send at node {node} from {msg.src!r}")
            ref = len(rows.sends)
            rows.send(t, node, ref, msg, ())
            if rec["fanout"] is not None and msg.dst is None:
                fanout[ref] = rec["fanout"]
        elif kind == "output":
            rows.output(t, node, None)
        elif kind == "transition" and "ref" not in rec:
            rows.add(kind, t, node)
        elif kind in ("deliver", "transition"):
            ref = rec["ref"]
            if not (type(ref) is int and 0 <= ref < len(rows.sends)):
                raise TraceViolation(f"{kind} references an unknown send")
            dst = rows.sends[ref][0].dst
            if kind == "deliver" and dst not in (None, node):
                raise TraceViolation(f"copy for node {dst} recorded at "
                                     f"node {node}")
            rows.add(kind, t, node, ref)
        else:
            raise _not_schema(f"unknown record kind {kind!r}")


@dataclass
class ExecutionTrace:
    """Time-ordered event log of one fair execution plus its configuration.

    `events` holds the records as TraceRows, and anything else is a
    ConfigError; `messages_total` and `bits_total` count every send, and
    the metrics report them.  Runs started with record_events=False log
    outputs only; the totals are still filled in.
    """

    events: TraceRows
    outputs: dict
    config: dict
    timing: TimingParams
    size_model: SizeModel
    graph: Graph
    messages_total: int
    bits_total: int
    send_fanout: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not isinstance(self.events, TraceRows):
            raise ConfigError(f"a trace's events are TraceRows, not "
                              f"{type(self.events).__name__}")

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
        records, and its list of lines stays small whether a caller streams
        the pieces to a file or to_jsonl appends them to one string.  The
        header comes first.  A copy is written only if its receiver may
        react: every copy of an untagged message, and of a tagged one only
        the copy to its dst."""
        rows, chunk, fanout = self.events, _JSONL_CHUNK, self.send_fanout
        sends, kinds = rows.sends, _KINDS
        send_row, deliver_row, land_row = _ROW_SEND, _ROW_DELIVER, _ROW_LAND
        bare = '{"kind": "%s", "t": %s, "node": %d}'
        named = '{"kind": "%s", "t": %s, "node": %d, "ref": %s}'
        ordinal: dict[int, int] = {}  # a send's ref -> its ordinal
        lines, count, sent = [self._header()], 1, 0
        last_t, rt = None, ""
        for k, t, node, ref in rows.rows():
            if k == deliver_row and sends[ref][0].dst not in (None, node):
                continue  # a copy its receiver drops unread
            # rows share times, a lockstep round's all of them: format each
            # time once.  Equal floats have one repr, except 0.0 and -0.0
            if t != last_t or not t:
                last_t, rt = t, repr(t)
            if k == land_row:
                msg, receivers = sends[ref]
                if msg.dst is None:  # one join over the receivers
                    head = '{"kind": "deliver", "t": %s, "node": ' % rt
                    tail = ', "ref": %d}' % ordinal[ref]
                    lines.append(head + (tail + "\n" + head).join(
                        map(str, receivers)) + tail)
                    count += len(receivers)
                elif msg.dst in receivers:
                    lines.append(named % ("deliver", rt, msg.dst,
                                          ordinal[ref]))
                    count += 1
            elif k == send_row:
                msg, f = sends[ref][0], fanout.get(ref, "null")
                dst = "" if msg.dst is None else ', "dst": %d' % msg.dst
                lines.append(_send_format(msg.mtype, msg.size_bits)
                             % (rt, node, msg.src, dst, f))
                ordinal[ref] = sent
                sent += 1
                count += 1
            else:  # a copy, or a transition naming its send or none
                lines.append(bare % (kinds[k], rt, node)
                             if ref == _NO_REF and k != deliver_row else
                             named % (kinds[k], rt, node,
                                      ordinal.get(ref, "null")))
                count += 1
            if count >= chunk:
                lines.append("")
                yield "\n".join(lines)
                lines, count = [], 0
        if lines:
            lines.append("")
            yield "\n".join(lines)

    @classmethod
    def from_jsonl(cls, lines) -> ExecutionTrace:
        """The trace of a schema-3 export, given as its lines.  Checks the
        format only: raises ConfigError if they are not one, TraceViolation
        at a record whose ref or node no execution writes."""
        loads = functools.partial(json.loads, parse_constant=_not_json)
        lines = iter(lines)
        try:
            trace = _trace(loads(next(lines, "null")))
            _read(trace, map(loads, lines))
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise _not_schema(f"{type(exc).__name__}: {exc}") from None
        return trace

    def to_jsonl(self) -> str:
        """The whole export as one string.  `out` is its only reference, so
        CPython grows it in place (by mremap once large) and holds it once,
        plus a piece; under a tracer or profiler 3.11 copies it instead."""
        out = ""
        for piece in self.jsonl_chunks():
            out += piece
        return out

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
        self._wire = sim.size_model.wire
        self.neighbors = tuple(sorted(sim.adj[uid]))
        # the live neighbor set, which the engine updates; automata only
        # read it.  Not the Simulation: no reference cycle
        self.live = sim.adj[uid]
        self._flush_requested = False

    def live_neighbors(self) -> tuple:
        return tuple(sorted(self.live))

    def message(self, mtype, dst=None, payload=None, items=0) -> Message:
        """A message from this node, sized by the wire table; `items` is the
        length of the list a list-carrying type holds."""
        try:
            fixed, per_item = self._wire[mtype]
        except KeyError:
            raise InvariantViolation(f"no WIRE entry for {mtype!r}") from None
        return Message(mtype, self.uid, fixed + items * per_item, dst, payload)

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
    node = None  # the Automaton class each node runs
    hierarchical_only = False  # needs a commutative, associative combine
    round_driven = False  # sends only at round boundaries; lockstep only

    def automaton(self, ctx: NodeContext) -> Automaton:
        return self.node(ctx)

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

    __slots__ = ("protocol", "graph", "values", "fn", "timing", "scheduler",
                 "seed", "rng", "size_model", "event_cap", "start_time", "adj",
                 "_fresh_automata", "automata", "_heap", "_ran", "_seq",
                 "_record", "_rows", "_messages_total", "_bits_total",
                 "outputs", "_send_fanout", "_receivers", "_tx_free",
                 "_tx_queue", "_last_fire", "_flush_pending", "_quantized",
                 "now", "__weakref__")

    def __init__(self, protocol, graph, values, *, fn=None, timing=None,
                 scheduler="lockstep", seed=0, size_model=None,
                 event_cap=10_000_000, automata=None, start_time=0.0,
                 record_events=True):
        if graph.n > 1 and not graph.is_connected():
            raise DisconnectedGraph("refusing to simulate a disconnected graph")
        for u in graph.uids:  # a lean run writes them too, in output rows
            if not -_I32 <= u < _I32:
                raise ConfigError(f"uid {u} does not fit a 32-bit node column")
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
        else:  # in uid order, as a fresh set is
            self.automata = dict(sorted(automata.items()))
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
        # per node, its pending "tx" entries in order; the first is on the heap
        self._tx_queue: dict[int, deque] = defaultdict(deque)
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
        """Driver hook: fail the graph's link u-v at time `at`."""
        if v not in self.graph.adj.get(u, ()):
            raise ConfigError(f"no link {u}-{v} in the graph")
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
        """Queue the transmissions of msgs, back to back.  Each takes its
        number now and joins the node's FIFO, in the order of their starts
        and numbers; only the FIFO's first sits on the heap, and the loop
        pushes the next when it pops one, before the next could be due."""
        queue = self._tx_queue[uid]
        for msg in msgs:
            start = max(emit_t, self._tx_free[uid])
            if self._quantized:
                start = self.timing.boundary(start)
            self._tx_free[uid] = start + self.timing.d
            self._seq += 1
            queue.append((start, _TX, self._seq, "tx", uid, msg))
            if len(queue) == 1:
                heapq.heappush(self._heap, queue[0])

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
            for uid in self.automata:
                self.schedule_kick(uid, "on_start")
        if self.protocol.round_driven:
            self._push(self.timing.boundary(self.start_time), _ROUND,
                       "round", 0)

        heap, pop, push = self._heap, heapq.heappop, heapq.heappush
        record, automata, outputs = self._record, self.automata, self.outputs
        kinds, times, nodes, refs = self._rows.appends
        rng, l, last_fire = self.rng, self.timing.l, self._last_fire
        tx_queue = self._tx_queue
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
                if e[6]:  # no latency, and every earlier transition fired
                    self._push(t, _FIRE, "react", e[6], e[5], span=e[6])
            elif kind == "tx":
                queue = tx_queue[e[4]]
                queue.popleft()
                if queue:
                    push(heap, queue[0])
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
        batch, copies, reactions, bits = [], 0, 0, 0
        adjs, cached, record = self.adj, self._receivers, self._record
        for uid, msg in sends:
            adj = adjs[uid]
            receivers = cached.get(uid)
            if receivers is None:
                receivers = cached[uid] = tuple(sorted(adj))
            dst = msg.dst
            reactors = (receivers if dst is None
                        else (dst,) if dst in adj else ())
            bits += msg.size_bits
            if record:
                if ref >= _I32:
                    raise NonTermination(f"send {ref} passes {_I32 - 1}, the "
                                         f"last ref a trace can record")
                self._rows.send(t, uid, ref, msg, receivers)
                self._send_fanout[ref] = len(receivers)
            batch.append((msg, ref, receivers, reactors))
            copies += len(receivers)
            reactions += len(reactors)
            ref += 1
        self._messages_total += len(batch)
        self._bits_total += bits
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
        automata, record = self.automata, self._record
        kinds, times, nodes, refs = self._rows.appends
        for item in batch:
            msg, ref, _, reactors = item
            src = msg.src
            for uid in reactors:
                auto = automata[uid]
                if record:
                    kinds(_ROW_TRANSITION), times(t), nodes(uid), refs(ref)
                msgs = auto.on_message(msg, src)
                if msgs:
                    return self._answer(t, seq, item, uid, msgs)
                elif auto.output is not None or auto.ctx._flush_requested:
                    self._post_transition(uid, t)  # else it would do nothing

    def _answer(self, t, seq, item, uid, msgs):
        """A reaction in a batch transmits, maybe starting at t, before the
        next reaction; so the reactors after `uid` go back on the heap,
        counted already, under the batch's number seq: no other entry holds
        a number in the span the batch reserved, so they keep their place.
        Only a round-driven protocol's round batches several items, and its
        reactions may not transmit (the error below): no item follows."""
        if self.protocol.round_driven:
            raise InvariantViolation(
                f"node {uid} answered a round delivery with messages;"
                f" a round-driven protocol sends only at boundaries")
        self._transmit(uid, msgs, t)
        self._post_transition(uid, t)
        msg, ref, receivers, reactors = item
        later = reactors[reactors.index(uid) + 1:]
        if later:
            heapq.heappush(self._heap, (t, _FIRE, seq, "react", 0,
                                        [(msg, ref, receivers, later)]))

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
            self._rows._append(_ROW_TRANSITION, t, uid)
        self._transmit(uid, getattr(auto, method)(*args) or [], t)
        self._post_transition(uid, t)

    def _do_round(self, t, r):
        """Round r of this execution, at the boundary t.  The protocol's
        broadcasts start now, numbered as their transmission entries would
        have been, and land at the next boundary as one delivery entry that
        the event cap counts per send and copy."""
        halted, sends = self.protocol.on_round_boundary(self.automata, r, self)
        timing, tx_free, end = self.timing, self._tx_free, t + self.timing.d
        for uid, _ in sends:
            free = tx_free[uid]
            if free > t and timing.boundary(free) != t:
                raise InvariantViolation(
                    f"node {uid}'s round-{r} send would start inside its "
                    f"earlier transmission window")
            tx_free[uid] = end
        first_ref = self._seq + 1
        self._seq += len(sends)
        outputs = self.outputs
        for uid, auto in self.automata.items():  # in uid order
            if (auto.ctx._flush_requested or auto.output is not None
                    and uid not in outputs):  # else it would do nothing
                self._post_transition(uid, t)
        nxt = timing.boundary(end)
        if not halted:
            self._push(nxt, _ROUND, "round", r + 1)
        if not sends:
            return
        batch, copies, reactions = self._charge(t, sends, first_ref)
        self._push(nxt, _DELIVER, "fan", len(sends) + copies, batch,
                   reactions, span=copies)

    def _trace(self) -> ExecutionTrace:
        config = {"protocol": self.protocol.name, "scheduler": self.scheduler,
                  "seed": self.seed, "start_time": self.start_time,
                  "fn": getattr(self.fn, "name", None),
                  "m": getattr(self.protocol, "m", None)}
        return ExecutionTrace(events=self._rows, outputs=self.outputs,
                              config=config, timing=self.timing,
                              size_model=self.size_model, graph=self.graph,
                              send_fanout=self._send_fanout,
                              messages_total=self._messages_total,
                              bits_total=self._bits_total)


def run(protocol, graph, values, **kwargs) -> ExecutionTrace:
    """Run one execution to quiescence and return its trace."""
    return Simulation(protocol, graph, values, **kwargs).run()


def validate_trace(trace: ExecutionTrace):
    """Check the structural invariants every fair execution must satisfy:
    chronological order from the start time; complete per-neighbor
    fan-out, each delay in (0, d]; at most one copy of a send at a node,
    and for each copy its node may react to, one transition on it within
    l; disjoint per-node transmission windows; one output per node; and
    totals that count the recorded sends, if any.
    `tol`, d * REL_TOL, absorbs float rounding at the upper ends and in the
    ordering checks; any positive delay is a valid draw.  Raises
    TraceViolation, an AssertionError, on the first violation, explicitly,
    so the checks also run under `python -O`."""
    d, l = trace.timing.d, trace.timing.l
    tol = d * REL_TOL
    table = trace.events.sends
    last_t, never = trace.config.get("start_time", 0.0), -math.inf
    seen: dict[int, list] = {}  # [start, sender, copies, got_from[sender]]
    node_send_end: dict[int, float] = {}
    got_from = defaultdict(dict)  # sender -> node -> last start it got
    react_t: dict[tuple, float] = {}  # copies yet to react, by (node, ref)
    outputs_seen = set()
    sent = bits = 0
    for k, t, node, ref in trace.events.rows():
        if t < last_t - tol:
            raise TraceViolation("events out of chronological order")
        if t > last_t:
            last_t = t
        if k == _ROW_SEND:
            sent += 1
            bits += table[ref][0].size_bits
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
            msg, receivers = table[ref]
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


def trace_digest(trace: ExecutionTrace) -> str:
    """The SHA-256 that says what "the same execution" means: every row's
    kind, exact time and node, and its ref written as its send's ordinal,
    read from the columns; each send's mtype, size, src, dst, receivers and
    fan-out, in ordinal order; the message and bit totals; and the sorted
    outputs.  It does not depend on how the engine numbers its sends, nor
    on the platform's byte order.  Raises TraceViolation for a row naming
    a send that the trace does not hold."""
    rows = trace.events
    ordinal = {ref: i for i, ref in enumerate(rows.sends)}  # in send order
    ordinal[_NO_REF] = -1
    try:
        refs = array("q", map(ordinal.__getitem__, rows.ref))
    except KeyError as err:
        raise TraceViolation(f"a row names send {err.args[0]}, which the "
                             f"trace does not hold") from None
    h = hashlib.sha256(b"%d rows\n" % len(refs))
    h.update(rows.kind)
    # the node column hashed as int64: a digest does not see its width
    for col in (rows.t, array("q", rows.node), refs):
        if sys.byteorder != "little":
            col = array(col.typecode, col)
            col.byteswap()
        h.update(col)
    fanout = trace.send_fanout
    h.update(repr([(msg.mtype, msg.size_bits, msg.src, msg.dst,
                    tuple(receivers), fanout.get(ref))
                   for ref, (msg, receivers) in rows.sends.items()]).encode())
    h.update(f"\n{trace.messages_total} {trace.bits_total} "
             f"{sorted(trace.outputs.items())!r}".encode())
    return h.hexdigest()


def _send_name(seen, ref) -> str:
    """A send by sender and start, which, unlike its ref, a file keeps."""
    if ref not in seen:
        return f"unrecorded send {ref}"
    return f"node {seen[ref][1]}'s send at t={seen[ref][0]!r}"
