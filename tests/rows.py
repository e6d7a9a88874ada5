"""Hand-built trace rows for the tests, written through TraceRows' own
writers as the engine writes them, and the rows' kind codes and copies for
tests that read a trace.

    rows_of(("send", 0.0, 1, 0, msg), ("deliver", 0.004, 2, 0),
            ("output", 0.005, 2, 7))

A record is (kind, t, node[, ref[, message]]); an output's fourth item is
its value.  A send writes its message under its ref, with no receivers.  A
copy or transition given a message writes it under its ref if no send has,
because the export and the Event view look each copy's message up there.
"""

from consim.engine import TraceRows
from consim.engine import _ROW_DELIVER as DELIVER
from consim.engine import _ROW_LAND as LAND
from consim.engine import _ROW_OUTPUT as OUTPUT
from consim.engine import _ROW_SEND as SEND
from consim.engine import _ROW_TRANSITION as TRANSITION
from consim.engine import _NO_REF as NO_REF

__all__ = ["DELIVER", "LAND", "NO_REF", "OUTPUT", "SEND", "TRANSITION",
           "copies", "rows_of"]


def rows_of(*records) -> TraceRows:
    rows = TraceRows()
    for kind, t, node, *rest in records:
        if kind == "output":
            rows.output(t, node, *rest)
        elif kind == "send":
            ref, msg = rest
            rows.send(t, node, ref, msg, ())
        else:
            ref, msg = (*rest, None, None)[:2]
            if msg is not None:
                rows.sends.setdefault(ref, (msg, ()))
            rows.add(kind, t, node, ref)
    return rows


def copies(rows):
    """(t, node, ref) of every copy in the rows, in order: a landing row
    stands for one copy per receiver of its send."""
    for k, t, node, ref in rows.rows():
        if k == LAND:
            for nb in rows.sends[ref][1]:
                yield t, nb, ref
        elif k == DELIVER:
            yield t, node, ref
