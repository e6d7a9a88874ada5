"""Time-optimal flooding consensus.

Every node broadcasts its own (uid, value) pair at start, then rebroadcasts
whatever new pairs it learned, batched into one message per transition.
A node outputs as soon as it knows all n pairs, so the node count is assumed
known a priori.  Works for any consensus function, including ones with no
combine step, because every node ends up holding the full multiset.
"""

from __future__ import annotations

from functools import reduce

from .engine import Automaton, Protocol
from .errors import DuplicateUidConflict


class FloodingAutomaton(Automaton):
    def __init__(self, ctx):
        super().__init__(ctx)
        self.known = {ctx.uid: ctx.fn.initial(ctx.value)}
        self.fresh: list[tuple[int, object]] = []

    def on_start(self):
        if len(self.known) == self.ctx.n:
            self._emit_output()
            return []
        pair = (self.ctx.uid, self.known[self.ctx.uid])
        return [self._pair_msg("flood.init", (pair,))]

    def on_message(self, msg, src):
        new = []
        for uid, val in msg.payload:
            if uid in self.known:
                if self.known[uid] != val:
                    raise DuplicateUidConflict(
                        f"uid {uid} seen with two different values")
            else:
                self.known[uid] = val
                new.append((uid, val))
        if new:
            self.fresh.extend(new)
            self.ctx.request_flush()
            if len(self.known) == self.ctx.n and self.output is None:
                self._emit_output()
        return []

    def on_flush(self):
        if not self.fresh:
            return []
        pairs = tuple(self.fresh)
        self.fresh = []
        return [self._pair_msg("flood.relay", pairs)]

    def _pair_msg(self, mtype, pairs):
        return self.ctx.message(mtype, payload=tuple(pairs), uids=len(pairs),
                                values=len(pairs))

    def _emit_output(self):
        fn = self.ctx.fn
        vals = [self.known[u] for u in sorted(self.known)]
        if fn.hierarchical:
            self.output = fn.decode(fn.finalize(reduce(fn.combine, vals)))
        else:
            # non-hierarchical functions work straight off the raw multiset;
            # initial() is injective for them (plain b-bit integers)
            self.output = fn.decode(fn.compute_full(vals))


class FloodingProtocol(Protocol):
    name = "flooding"

    def automaton(self, ctx):
        return FloodingAutomaton(ctx)
