"""Iterative local-averaging consensus for the mean.

Lockstep only.  Each round every node broadcasts its current estimate, then
replaces it with the plain average of its own and all received neighbor
estimates (uniform 1/(deg+1) weights).  On regular graphs the iteration
converges to the mean of the initial values; on irregular graphs its fixed
point is the degree-weighted mean sum((deg_i+1) x_i) / sum(deg_i+1), so the
convergence monitor measures distance to that actual fixed point and mean
accuracy is only claimed for regular topologies.

Estimates are signed fixed-point numbers with b-64 fractional bits carried
in the b-bit value budget, updated with round-to-nearest; all arithmetic is
exact integer work, so executions replay bit-identically.

Termination is decided by a global convergence monitor (simulation harness
machinery, not protocol traffic): the run halts, and every node outputs its
estimate, once every estimate is within eps * range(x) of the fixed point.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .engine import Automaton, Protocol
from .errors import ConfigError, InvariantViolation
from .messages import Message


def div_round_half_even(num: int, den: int) -> int:
    """num / den rounded to the nearest integer, ties to even, for den > 0:
    the value of round(Fraction(num, den)) in integer arithmetic."""
    q, rem = divmod(num, den)
    if 2 * rem > den or (2 * rem == den and q & 1):
        q += 1
    return q


class AverageAutomaton(Automaton):
    def __init__(self, ctx):
        super().__init__(ctx)
        self.estimate = round(Fraction(ctx.value) * (1 << ctx.fn.final_frac))
        self.inbox: list[int] = []
        # per-node constants: an estimate's size, and the update's divisor
        self.msg_bits = ctx.size_model.wire["avg.estimate"][0]
        self.weights = len(ctx.neighbors) + 1

    def on_message(self, msg, src):
        self.inbox.append(msg.payload)
        return ()

    def estimate_value(self) -> float:
        return self.ctx.fn.decode(self.estimate)


class AverageProtocol(Protocol):
    """Needs fn=mean; rejects everything else at validation time."""

    name, node = "average", AverageAutomaton
    round_driven = True

    def __init__(self, eps: float = 1e-3):
        if not 0 < eps < math.inf:
            raise ConfigError("eps must be positive and finite")
        self.eps = eps

    def validate(self, graph, fn):
        if fn is None or fn.name != "mean":
            raise ConfigError("the averaging algorithm only computes the mean")

    def _fixed_point(self, sim) -> float:
        """Limit of the iteration: degree-weighted mean (plain mean when the
        graph is regular)."""
        w = {u: sim.graph.degree(u) + 1 for u in sim.graph.uids}
        return (sum(w[u] * sim.values[u] for u in sim.graph.uids)
                / sum(w.values()))

    def on_round_boundary(self, automata, r, sim):
        """One pass over the automata, in the engine's uid order: each
        applies its update (after round 0), the average of its own estimate
        and every neighbor's rounded to nearest; the pass keeps the two
        extreme estimates and builds the round's messages."""
        if r == 0:  # a new execution: set up its convergence monitor
            self._target = self._fixed_point(sim)
            self._spread = max(sim.values.values()) - min(sim.values.values())
        sends, estimates = [], []
        for uid, a in automata.items():
            if r:
                inbox = a.inbox
                if len(inbox) + 1 != a.weights:
                    raise InvariantViolation(
                        "lockstep round delivered an incomplete neighborhood")
                a.estimate = div_round_half_even(a.estimate + sum(inbox),
                                                 a.weights)
                inbox.clear()
            est = a.estimate
            estimates.append(est)
            sends.append((uid, Message("avg.estimate", uid, a.msg_bits, None,
                                       est)))
        # decode is monotone in the estimate, so the two extreme estimates
        # are the farthest from the target
        decode = sim.fn.decode
        worst = max(abs(decode(est) - self._target)
                    for est in (min(estimates), max(estimates)))
        if worst <= self.eps * self._spread:
            for a in automata.values():
                a.output = a.estimate_value()
            return True, []
        return False, sends
