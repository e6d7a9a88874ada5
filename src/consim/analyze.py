"""Read a schema-3 JSONL trace back into an ExecutionTrace, held as columns
as a run holds it, and run `consim run`'s validate_trace and
report_from_trace on it.  The reader checks only the format: the header
(whose n, b and flag_bits must restate its uids and size model), record
kinds and keys, finite numbers, refs, where tagged copies are written, and
each record's node, which the graph has and a send's src is.

    consim analyze trace.jsonl
"""

from __future__ import annotations

import functools
import json

from .engine import (TRACE_SCHEMA, ExecutionTrace, TimingParams, TraceRows,
                     validate_trace)
from .errors import ConfigError, ConsimError, TraceViolation
from .messages import Message, SizeModel
from .metrics import ComplexityReport, report_from_trace
from .topology import Graph


def _not_schema(why) -> ConfigError:
    return ConfigError(f"not a schema-{TRACE_SCHEMA} trace: {why}")


def _not_json(name):
    raise ValueError(f"{name} is not a JSON number")


def _trace(head) -> ExecutionTrace:
    """A trace with the header's configuration and no records yet."""
    if not (isinstance(head, dict) and head.get("kind") == "header"
            and head.get("schema") == TRACE_SCHEMA):
        raise _not_schema("the first record is not its header")
    sm = head["size_model"]
    for k, got, want in (("n", head["n"], len(head["uids"])),
                         ("b", head["b"], sm["value_bits"]),
                         ("flag_bits", sm["flag_bits"], SizeModel.flag_bits)):
        if got != want:
            raise _not_schema(f"its header: {k} is {got!r}, not {want!r}")
    for k in ("start_time", "d", "l"):
        if type(head[k]) not in (int, float):
            raise _not_schema(f"its header: {k} is {head[k]!r}, not a number")
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
        if node not in uids:
            raise TraceViolation(f"{kind} at node {node!r}, not in the graph")
        if kind == "send":
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


def analyze(lines) -> ComplexityReport:
    """The report row of a schema-3 trace, given as its lines.  Raises
    ConfigError if they are not one, TraceViolation at the first failed
    check and IncompleteTrace if a node never output."""
    loads = functools.partial(json.loads, parse_constant=_not_json)
    lines = iter(lines)
    try:
        trace = _trace(loads(next(lines, "null")))
        _read(trace, map(loads, lines))
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise _not_schema(f"{type(exc).__name__}: {exc}") from None
    validate_trace(trace)
    return report_from_trace(trace)
