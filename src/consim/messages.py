"""Protocol messages and the wire table that sizes them.

`WIRE` declares, once for every message type the shipped protocols send,
its UID-sized fields, values and extra bits, and for a type that carries a
list the UIDs and values of one item.  A `SizeModel` turns the table into
(fixed bits, bits per item) once, and `NodeContext.message` sizes each
message from that with one lookup, refusing a type the table lacks:

    size = flag_bits + uid_bits * uids + value_bits * values + extra
           + items * (uid_bits * item_uids + value_bits * item_values)

`flag_bits` is the one-byte type tag.  UID-sized fields are recipients,
fragment and cluster ids, edge weights (two UIDs) and counters bounded by n;
extra bits cover the rest, such as hybrid's epoch byte.  A broadcast is
charged once, however many neighbors hear it; a one-to-one message tags its
recipient (`dst`), charged as a UID, and other receivers drop it.  A protocol
outside this package sizes its `Message` with `SizeModel.size`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any


def uid_bits_for_pool(pool_size: int) -> int:
    """Bits needed to encode one UID drawn from a pool of the given size."""
    if pool_size < 2:
        return 1
    return math.ceil(math.log2(pool_size))


EPOCH_BITS = 8  # hybrid's phase-3/4 and recovery messages carry an epoch byte
E = EPOCH_BITS

# mtype -> (UID-sized fields, values, extra bits), then (UIDs, values) per
# item for a list-carrying type
WIRE: dict[str, tuple[int, ...]] = {
    # flooding's (uid, value) pairs; averaging's estimate
    "flood.init": (0, 0, 0, 1, 1), "flood.relay": (0, 0, 0, 1, 1),
    "avg.estimate": (1, 1, 0),
    # MST construction; a report carries its recipient and one edge weight
    "ghs.connect0": (1, 0, 0), "ghs.connect": (2, 0, 0),
    "ghs.initiate": (3, 0, 0), "ghs.test": (3, 0, 0), "ghs.accept": (1, 0, 0),
    "ghs.reject": (1, 0, 0), "ghs.report": (3, 0, 0),
    "ghs.changeroot": (1, 0, 0), "ghs.rooted": (1, 0, 0),
    # aggregation over a rooted tree: the token pass, parallel convergecast
    "token.compute": (2, 1, 0), "token.reply": (2, 1, 0),
    "token.relay": (2, 1, 0), "token.ack": (2, 1, 0),
    "agg.report": (1, 1, 0), "agg.result": (1, 1, 0),
    # hybrid phase 1 is MST construction whose report adds a subtree count
    "p1.connect0": (1, 0, 0), "p1.connect": (2, 0, 0),
    "p1.initiate": (3, 0, 0), "p1.test": (3, 0, 0), "p1.accept": (1, 0, 0),
    "p1.reject": (1, 0, 0), "p1.report": (4, 0, 0),
    "p1.changeroot": (1, 0, 0), "p1.done": (1, 0, 0), "p1.absorb": (2, 0, 0),
    "p2.count": (4, 0, 0), "p2.cut": (2, 0, 0),
    # phases 3 and 4: cluster ids, and (cluster, size, value) triples
    "p3.announce": (2, 0, E), "p3.clusters": (1, 0, E, 1, 0),
    "p3.compute": (2, 1, 0), "p3.reply": (2, 1, 0),
    "p4.share": (1, 0, E, 2, 1), "p4.values": (3, 0, E, 2, 1),
    "p4.relay": (2, 1, 0), "p4.ack": (2, 1, 0),
    # recovery from a link failure
    "pf.count_req": (3, 0, E), "pf.count": (6, 0, E), "pf.cut": (4, 0, E),
    "pf.branch_lost": (1, 0, E), "pf.size_up": (2, 0, E),
    "pf.join": (4, 0, E), "pf.join_req": (2, 0, E), "pf.join_ack": (2, 0, E),
    "pf.adopt": (1, 0, E), "pf.newid": (1, 0, E), "pf.route_dead": (2, 0, E),
}


@dataclass(frozen=True)
class SizeModel:
    """Bit costs used to size every message in an execution.

    uid_bits   -- ceil(log2 |S|) for the UID pool S in use
    value_bits -- width b of one consensus value (initial or intermediate)
    flag_bits  -- constant per-message type tag, one byte
    """

    uid_bits: int
    value_bits: int
    # mtype -> (fixed bits, bits per item), from WIRE
    wire: dict = field(init=False, repr=False, compare=False)
    flag_bits = 8

    def __post_init__(self):
        if self.uid_bits < 1 or self.value_bits < 1:
            raise ValueError("all size-model fields must be positive")
        object.__setattr__(self, "wire", {
            mtype: (self.size(*counts[:3]),
                    self.size(*counts[3:]) - self.flag_bits)
            for mtype, counts in WIRE.items()})

    @classmethod
    def for_network(cls, n: int, value_bits: int,
                    pool_size: int | None = None) -> "SizeModel":
        """Model for an n-node network; the UID pool defaults to 2n."""
        pool = 2 * n if pool_size is None else pool_size
        return cls(uid_bits=uid_bits_for_pool(pool), value_bits=value_bits)

    def size(self, n_uids: int = 0, n_values: int = 0, extra_bits: int = 0) -> int:
        return (self.flag_bits + n_uids * self.uid_bits
                + n_values * self.value_bits + extra_bits)


@dataclass(slots=True)
class Message:
    """One protocol payload.

    mtype     -- dotted type tag; the prefix names the protocol phase and is
                 used by the metrics module for per-phase attribution
    src       -- sender UID
    size_bits -- exact wire size, computed via a SizeModel at construction
    dst       -- recipient UID for one-to-one emulation, None for broadcast
    payload   -- protocol data, tuples only: every receiver of a broadcast
                 reads the one object, so none may change it
    """

    mtype: str
    src: int
    size_bits: int
    dst: int | None = None
    payload: Any = field(default=None, compare=False)

    def __post_init__(self):
        if self.size_bits <= 0:
            raise ValueError("message size must be positive")
