"""Read a schema-2 JSONL trace back: check what its records show, and
recompute the report row `consim run` printed for it.

    consim analyze trace.jsonl

The file is streamed, and a send is kept only while copies of it may still
land.  A node's sends start at least d apart and each copy lands within d
of its send, so a copy at t belongs to the one send of its sender that
started in [t - d, t), which is one of the sender's last two sends.
"""

from __future__ import annotations

import json

from .engine import REL_TOL, TRACE_SCHEMA
from .errors import ConfigError, IncompleteTrace, TraceViolation
from .metrics import ComplexityReport, _sweep


def _not_schema(why) -> ConfigError:
    return ConfigError(f"not a schema-{TRACE_SCHEMA} trace: {why}")


def _check_copies(src, send):
    t, fields, fanout, got = send
    if fanout is not None and (len(got) > fanout
                               or fields[2] is None and len(got) != fanout):
        raise TraceViolation(f"node {src}'s send at t={t!r} has {len(got)} "
                             f"recorded copies for a fan-out of {fanout}")


def _check(head, records) -> ComplexityReport:
    d = head["d"]
    tol = d * REL_TOL
    last_t = float("-inf")
    recent: dict[int, list] = {}  # node -> its last two sends, latest first
    sent = []  # (t, size_bits) of every send, in order
    outputs: dict[int, float] = {}
    for rec in records:
        kind, t, node = rec["kind"], rec["t"], rec["node"]
        if t < last_t - tol:
            raise TraceViolation(f"record at t={t!r} out of chronological "
                                 f"order")
        last_t = max(last_t, t)
        if kind == "deliver":
            src, fields = rec["src"], (rec["msg_type"], rec["size_bits"],
                                       rec.get("dst"))
            send = next((s for s in recent.get(src, ()) if s[0] < t), None)
            if send is None or t - send[0] > d + tol or send[1] != fields:
                raise TraceViolation(
                    f"copy at node {node}, t={t!r} has no send of node {src}"
                    f" in [t - d, t) with its message")
            if fields[2] not in (None, node):
                raise TraceViolation(f"copy for node {fields[2]} recorded "
                                     f"at node {node}")
            if node in send[3]:
                raise TraceViolation(f"node {node} got node {src}'s send at "
                                     f"t={send[0]!r} twice")
            send[3].add(node)
        elif kind == "send":
            pair = recent.get(node, [])
            if pair and t < pair[0][0] + d - tol:
                raise TraceViolation(f"node {node} started a send inside an "
                                     f"earlier window")
            for old in pair[1:]:  # no copy of it can come any more
                _check_copies(node, old)
            fields = (rec["msg_type"], rec["size_bits"], rec.get("dst"))
            recent[node] = [[t, fields, rec["fanout"], set()]] + pair[:1]
            sent.append((t, rec["size_bits"]))
        elif kind == "output":
            if node in outputs:
                raise TraceViolation(f"node {node} output twice")
            outputs[node] = t
        elif kind != "transition":
            raise _not_schema(f"unknown record kind {kind!r}")
    for node, pair in recent.items():
        for send in pair:
            _check_copies(node, send)
    bits = sum(b for _, b in sent)
    if sent and head["messages"] and (head["messages"], head["bits"]) != (
            len(sent), bits):
        raise TraceViolation(
            f"{len(sent)} sends of {bits} bits recorded, the header counts "
            f"{head['messages']} of {head['bits']}")
    if len(outputs) < head["n"]:
        raise IncompleteTrace(
            f"only {len(outputs)}/{head['n']} nodes produced an output")
    return ComplexityReport(
        algo=head["algo"], topology=head["topology"], n=head["n"],
        b_bits=head["b"], d_s=d, m=head["m"], seed=head["seed"],
        time_s=max(outputs.values()) - head["start_time"],
        messages=head["messages"] or len(sent), bits=head["bits"] or bits,
        peak_bps=_sweep(sent, d))


def analyze(lines) -> ComplexityReport:
    """Check the records of a schema-2 trace, given as its lines, and
    return its report row.  Raises ConfigError if the lines are not a
    schema-2 trace, TraceViolation at the first failed check and
    IncompleteTrace if a node never output."""
    lines = iter(lines)
    try:
        head = json.loads(next(lines, "null"))
        if not (isinstance(head, dict) and head.get("kind") == "header"
                and head.get("schema") == TRACE_SCHEMA):
            raise _not_schema("the first record is not its header")
        return _check(head, map(json.loads, lines))
    except (KeyError, TypeError, ValueError) as exc:
        raise _not_schema(f"{type(exc).__name__}: {exc}") from None
