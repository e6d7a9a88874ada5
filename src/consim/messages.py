"""Protocol messages with bit-exact size accounting.

Every message a protocol sends is charged according to a single size model:

    size = flag_bits + uid_bits * (#UID-sized fields) + value_bits * (#values)
           + extra_bits

`flag_bits` covers the message-type tag (one byte is enough for every tag in
this package).  UID-sized fields include sender/receiver addresses, fragment
and cluster identifiers, edge weights (a pair of UIDs) and small counters
that are bounded by the number of nodes.  `extra_bits` covers anything else
a message type declares explicitly (e.g. an epoch byte).  Automata build
their messages with `NodeContext.message`, which applies this formula.

Local broadcast reaches every neighbor at the cost of one message, so the
engine charges each send once, independent of the receiver count.  One-to-one
traffic is emulated by tagging the intended recipient's UID (`dst`); the
recipient UID is charged as a UID field, while non-recipients drop the
message without acting on it.
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


@dataclass(frozen=True)
class SizeModel:
    """Bit costs used to size every message in an execution.

    uid_bits   -- ceil(log2 |S|) for the UID pool S in use
    value_bits -- width b of one consensus value (initial or intermediate)
    flag_bits  -- constant per-message type tag, one byte
    """

    uid_bits: int
    value_bits: int
    flag_bits = 8

    def __post_init__(self):
        if self.uid_bits < 1 or self.value_bits < 1:
            raise ValueError("all size-model fields must be positive")

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
