"""Complexity metrics extracted from execution traces.

Bandwidth accounting: each send of size s occupies a constant-rate window,
contributing s/d bits per second over [t_send, t_send + d).  The peak is the
maximum over time of the sum of active contributions, computed exactly by
sweeping the window endpoints.  A broadcast is charged once at its sender,
whatever the per-neighbor delivery jitter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .engine import REL_TOL
from .errors import ConfigError, IncompleteTrace


def peak_bandwidth(trace) -> float:
    """Exact peak data rate (bits/second) of a trace.

    Windows are half-open, so a window ending exactly where another begins
    does not stack with it.
    """
    return _sweep(((t, msg.size_bits) for t, msg in trace.events.sent()),
                  trace.timing.d)


def _sweep(sent, d: float) -> float:
    """Peak of the summed constant-rate windows of `sent`'s (t, size_bits)
    sends; a ConfigError if it overflows, which no floor on d rules out
    for every size."""
    # endpoint times and rates in two lists, ordered by a stable index
    # sort, so that endpoints at one time are summed in send order; floats
    # and ints are not tracked by the garbage collector, tuples would be
    times, rates = [], []
    for t, bits in sent:
        rate = bits / d
        times.append(t)
        times.append(t + d)
        rates.append(rate)
        rates.append(-rate)
    order = sorted(range(len(times)), key=times.__getitem__)
    # coalesce endpoint times that should coincide but drift by an ulp
    tol = d * REL_TOL
    level = peak = 0.0
    i = 0
    while i < len(order):
        t0 = times[order[i]]
        while i < len(order) and times[order[i]] <= t0 + tol:
            level += rates[order[i]]
            i += 1
        peak = max(peak, level)
    if not math.isfinite(peak):
        raise ConfigError(f"d={d!r} is too small: the peak rate overflows")
    return peak


def peak_bandwidth_by_phase(trace) -> dict:
    """Peak per message-type prefix (the dotted phase tag)."""
    phases: dict[str, list] = {}
    for t, msg in trace.events.sent():
        phases.setdefault(msg.mtype.split(".")[0], []).append(
            (t, msg.size_bits))
    return {p: _sweep(phases[p], trace.timing.d) for p in sorted(phases)}


def time_complexity(trace) -> float:
    """Seconds from execution start to the last output."""
    outs = trace.events.output_times()
    if len(outs) < trace.graph.n:
        raise IncompleteTrace(
            f"only {len(outs)}/{trace.graph.n} nodes produced an output")
    start = trace.config.get("start_time", 0.0)
    return max(outs) - start


def message_complexity(trace) -> int:
    """The trace's send count, which lean runs carry too."""
    return trace.messages_total


def byte_complexity(trace) -> int:
    """Total traffic in bits (divide by 8 for bytes)."""
    return trace.bits_total


CSV_HEADER = "algo,topology,n,b_bits,d_s,m,seed,time_s,messages,bytes,peak_bps"


@dataclass
class ComplexityReport:
    """One row of measurements for a single execution."""

    algo: str
    topology: str
    n: int
    b_bits: int
    d_s: float
    m: int | None
    seed: int
    time_s: float
    messages: int
    bits: int
    peak_bps: float

    @property
    def bytes(self) -> float:
        return self.bits / 8.0

    def csv_row(self) -> str:
        m = "" if self.m is None else str(self.m)
        return (f"{self.algo},{self.topology},{self.n},{self.b_bits},"
                f"{self.d_s!r},{m},{self.seed},{self.time_s!r},"
                f"{self.messages},{self.bytes!r},{self.peak_bps!r}")


def report_from_trace(trace, algo: str | None = None,
                      m: int | None = None) -> ComplexityReport:
    return ComplexityReport(
        algo=algo or trace.config.get("algo") or trace.config["protocol"],
        topology=trace.graph.kind,
        n=trace.graph.n,
        b_bits=trace.size_model.value_bits,
        d_s=trace.timing.d,
        m=trace.config.get("m") if m is None else m,
        seed=trace.config.get("seed", 0),
        time_s=time_complexity(trace),
        messages=message_complexity(trace),
        bits=byte_complexity(trace),
        peak_bps=peak_bandwidth(trace),
    )
