"""Consensus functions and their encodings.

Every function fixes a bit budget b and guarantees that initial values,
intermediate combine products and the final consensus value all serialize to
exactly b bits.  Hierarchically computable functions expose a commutative,
associative `combine` so tree protocols can fold values in any order;
`finalize` turns the folded value into the b-bit consensus value, and
`decode` turns that into a plain Python number for comparisons.

Layouts:

  max / min  -- unsigned integer of b bits.
  mean       -- intermediates are (accumulator, count): a signed fixed-point
                accumulator with 16 fractional bits in b-32 bits plus a
                32-bit count.  The final value is a signed fixed point with
                b-64 fractional bits, so b >= 96 is required.
  vote:k     -- intermediates are k tallies of b//k bits each; the final
                value is the winning candidate index (lowest index wins
                ties), padded to b bits.
  median     -- not hierarchically computable; only protocols that gather
                the full multiset (flooding) can evaluate it.

`oracle` computes each function directly from the raw inputs, without going
through combine/finalize, and is the ground truth for every correctness test.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce

from .errors import DomainOverflow, InvalidParams, NotHierarchical

MEAN_ACC_FRAC = 16  # fractional bits of the running (sum, count) accumulator


class ConsensusFunction:
    """Shared interface; see module docstring for the per-function layouts."""

    hierarchical = True
    name = "?"

    def __init__(self, bits: int):
        if bits < 1:
            raise InvalidParams("bit budget must be positive")
        self.bits = bits

    # encoding -------------------------------------------------------
    def initial(self, raw):
        """Encode one node's initial condition as a b-bit value."""
        raise NotImplementedError

    def encoded_bits(self, value) -> int:
        """Serialized size of a value; always b, or DomainOverflow."""
        self._check(value)
        return self.bits

    def _check(self, value):
        raise NotImplementedError

    # hierarchical route ----------------------------------------------
    def combine(self, a, b):
        raise NotImplementedError

    def finalize(self, value):
        """Fold result -> final b-bit consensus value."""
        raise NotImplementedError

    def decode(self, final):
        """Final consensus value -> plain number."""
        raise NotImplementedError

    # full-multiset route (non-hierarchical functions) ------------------
    def compute_full(self, raws):
        """Consensus value straight from all raw inputs."""
        return self.finalize(reduce(self.combine,
                                    [self.initial(r) for r in raws]))


class _UnsignedFunction(ConsensusFunction):
    """Values, intermediates and the result are unsigned b-bit integers."""

    def initial(self, raw):
        v = int(raw)
        self._check(v)
        return v

    def _check(self, value):
        if not 0 <= value < (1 << self.bits):
            raise DomainOverflow(f"{value} does not fit in {self.bits} bits")

    def decode(self, final):
        return final


class MaxFunction(_UnsignedFunction):
    name = "max"

    def combine(self, a, b):
        return a if a >= b else b

    def finalize(self, value):
        self._check(value)
        return value


class MinFunction(MaxFunction):
    name = "min"

    def combine(self, a, b):
        return a if a <= b else b


class MeanFunction(ConsensusFunction):
    name = "mean"

    def __init__(self, bits: int):
        super().__init__(bits)
        if bits < 96:
            raise InvalidParams("mean needs b >= 96 (32-bit count + headroom)")
        self.acc_bits = bits - 32
        self.final_frac = bits - 64

    def initial(self, raw):
        acc = round(Fraction(raw) * (1 << MEAN_ACC_FRAC))
        val = (acc, 1)
        self._check(val)
        return val

    def _check(self, value):
        acc, count = value
        if not -(1 << (self.acc_bits - 1)) <= acc < (1 << (self.acc_bits - 1)):
            raise DomainOverflow("mean accumulator overflow")
        if not 0 < count < (1 << 32):
            raise DomainOverflow("mean count overflow")

    def combine(self, a, b):
        out = (a[0] + b[0], a[1] + b[1])
        self._check(out)
        return out

    def finalize(self, value):
        acc, count = value
        exact = Fraction(acc, count * (1 << MEAN_ACC_FRAC))
        out = round(exact * (1 << self.final_frac))
        if not -(1 << (self.bits - 1)) <= out < (1 << (self.bits - 1)):
            raise DomainOverflow("mean result overflow")
        return out

    def decode(self, final):
        return final / (1 << self.final_frac)


class VoteFunction(ConsensusFunction):
    name = "vote"

    def __init__(self, bits: int, candidates: int):
        super().__init__(bits)
        if candidates < 2:
            raise InvalidParams("vote needs at least two candidates")
        self.candidates = candidates
        self.tally_bits = bits // candidates
        if self.tally_bits < 1:
            raise InvalidParams("bit budget too small for the candidate count")

    def initial(self, raw):
        c = int(raw)
        if not 0 <= c < self.candidates:
            raise DomainOverflow(f"ballot {c} out of range")
        return tuple(1 if i == c else 0 for i in range(self.candidates))

    def _check(self, value):
        if len(value) != self.candidates:
            raise DomainOverflow("tally vector has wrong arity")
        for t in value:
            if not 0 <= t < (1 << self.tally_bits):
                raise DomainOverflow("tally overflow")

    def combine(self, a, b):
        out = tuple(x + y for x, y in zip(a, b))
        self._check(out)
        return out

    def finalize(self, value):
        self._check(value)
        best = max(value)
        return value.index(best)  # lowest index wins ties

    def decode(self, final):
        return final


class MedianFunction(_UnsignedFunction):
    """Lower median; kept as the stock example of a non-hierarchical function."""

    hierarchical = False
    name = "median"

    def combine(self, a, b):
        raise NotHierarchical("median has no commutative/associative combine")

    def finalize(self, value):
        raise NotHierarchical("median has no fold to finalize")

    def compute_full(self, raws):
        ordered = sorted(int(r) for r in raws)
        return ordered[(len(ordered) - 1) // 2]


def get_function(spec: str, bits: int) -> ConsensusFunction:
    """Parse a function spec string: max, min, mean, vote:k, median."""
    if spec == "max":
        return MaxFunction(bits)
    if spec == "min":
        return MinFunction(bits)
    if spec == "mean":
        return MeanFunction(bits)
    if spec.startswith("vote:"):
        return VoteFunction(bits, int(spec.split(":", 1)[1]))
    if spec == "median":
        return MedianFunction(bits)
    raise InvalidParams(f"unknown consensus function {spec!r}")


def oracle(fn: ConsensusFunction, raws):
    """Centralized ground truth, computed without the combine path."""
    raws = list(raws)
    if not raws:
        raise InvalidParams("oracle needs at least one value")
    if fn.name == "max":
        return max(int(r) for r in raws)
    if fn.name == "min":
        return min(int(r) for r in raws)
    if fn.name == "mean":
        return sum(float(r) for r in raws) / len(raws)
    if fn.name == "vote":
        counts = [0] * fn.candidates
        for r in raws:
            counts[int(r)] += 1
        return counts.index(max(counts))
    if fn.name == "median":
        return sorted(int(r) for r in raws)[(len(raws) - 1) // 2]
    raise InvalidParams(f"no oracle for {fn.name}")
