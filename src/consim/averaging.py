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

from fractions import Fraction

from .engine import Automaton, Protocol
from .errors import ConfigError, InvariantViolation


class AverageAutomaton(Automaton):
    def __init__(self, ctx, frac_bits):
        super().__init__(ctx)
        self.frac = frac_bits
        self.estimate = round(Fraction(ctx.value) * (1 << frac_bits))
        self.inbox: list[int] = []
        self.rounds_run = 0

    def on_message(self, msg, src):
        self.inbox.append(msg.payload)
        return []

    def apply_update(self):
        """Average of own estimate and every neighbor's, round to nearest."""
        if len(self.inbox) != len(self.ctx.neighbors):
            raise InvariantViolation(
                "lockstep round delivered an incomplete neighborhood")
        total = self.estimate + sum(self.inbox)
        self.estimate = round(Fraction(total, len(self.inbox) + 1))
        self.inbox = []
        self.rounds_run += 1

    def estimate_value(self) -> float:
        return self.estimate / (1 << self.frac)

    def broadcast(self):
        return self.ctx.message("avg.estimate", payload=self.estimate,
                                uids=1, values=1)


class AverageProtocol(Protocol):
    """Needs fn=mean; rejects everything else at validation time."""

    name = "average"
    lockstep_only = True
    round_driven = True

    def __init__(self, eps: float = 1e-3):
        if eps <= 0:
            raise ConfigError("eps must be positive")
        self.eps = eps
        self._target = None
        self._spread = None

    def validate(self, graph, fn, scheduler):
        if fn is None or fn.name != "mean":
            raise ConfigError("the averaging algorithm only computes the mean")

    def automaton(self, ctx):
        return AverageAutomaton(ctx, ctx.fn.bits - 64)

    def _fixed_point(self, sim) -> float:
        """Limit of the iteration: degree-weighted mean (plain mean when the
        graph is regular)."""
        w = {u: sim.graph.degree(u) + 1 for u in sim.graph.uids}
        return (sum(w[u] * sim.values[u] for u in sim.graph.uids)
                / sum(w.values()))

    def on_round_boundary(self, automata, r, sim):
        if self._target is None:
            self._target = self._fixed_point(sim)
            vals = [sim.values[u] for u in sim.graph.uids]
            self._spread = max(vals) - min(vals)
        if r > 0:
            for uid in sorted(automata):
                automata[uid].apply_update()
        worst = max(abs(a.estimate_value() - self._target)
                    for a in automata.values())
        if worst <= self.eps * self._spread:
            for a in automata.values():
                a.output = a.estimate_value()
            return True, []
        return False, [(uid, automata[uid].broadcast())
                       for uid in sorted(automata)]
