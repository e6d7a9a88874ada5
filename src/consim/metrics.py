"""Complexity metrics extracted from execution traces.

Bandwidth accounting: each send of size s occupies a constant-rate window,
contributing s/d bits per second over [t_send, t_send + d).  The peak is the
maximum over time of the sum of active contributions, computed exactly by
sweeping the window endpoints.  A broadcast is charged once at its sender,
whatever the per-neighbor delivery jitter.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import IncompleteTrace


def peak_bandwidth(trace, d: float | None = None, msg_filter=None) -> float:
    """Exact peak data rate (bits/second) of a trace.

    Windows are half-open, so a window ending exactly where another begins
    does not stack with it.  `msg_filter` restricts the sweep to matching
    messages (e.g. one protocol phase).
    """
    sends = trace.sends()
    if msg_filter is not None:
        sends = [e for e in sends if msg_filter(e.msg)]
    return _sweep(sends, trace.timing.d if d is None else d)


def _sweep(sends, d: float) -> float:
    """Peak of the summed constant-rate windows of `sends`."""
    endpoints: list[tuple[float, float]] = []
    for e in sends:
        rate = e.msg.size_bits / d
        endpoints.append((e.t, rate))
        endpoints.append((e.t + d, -rate))
    endpoints.sort(key=lambda p: p[0])
    # endpoint times that should coincide can drift by an ulp (t + d versus a
    # later send computed as (k+1)*d), so coalesce within a relative hair
    tol = d * 1e-9
    level = peak = 0.0
    i = 0
    while i < len(endpoints):
        t0 = endpoints[i][0]
        while i < len(endpoints) and endpoints[i][0] <= t0 + tol:
            level += endpoints[i][1]
            i += 1
        peak = max(peak, level)
    return peak


def peak_bandwidth_by_phase(trace, d: float | None = None) -> dict:
    """Peak per message-type prefix (the dotted phase tag)."""
    phases: dict[str, list] = {}
    for e in trace.sends():
        phases.setdefault(e.msg.mtype.split(".")[0], []).append(e)
    d = trace.timing.d if d is None else d
    return {p: _sweep(phases[p], d) for p in sorted(phases)}


def time_complexity(trace) -> float:
    """Seconds from execution start to the last output."""
    outs = [e.t for e in trace.events if e.kind == "output"]
    if len(outs) < trace.graph.n:
        raise IncompleteTrace(
            f"only {len(outs)}/{trace.graph.n} nodes produced an output")
    start = trace.config.get("start_time", 0.0)
    return max(outs) - start


def message_complexity(trace, msg_filter=None) -> int:
    if msg_filter is None and trace.messages_total:
        return trace.messages_total  # the engine's counter, lean runs too
    return sum(1 for e in trace.sends()
               if msg_filter is None or msg_filter(e.msg))


def byte_complexity(trace, msg_filter=None) -> int:
    """Total traffic in bits (divide by 8 for bytes)."""
    if msg_filter is None and trace.bits_total:
        return trace.bits_total
    return sum(e.msg.size_bits for e in trace.sends()
               if msg_filter is None or msg_filter(e.msg))


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
        algo=algo or trace.config["protocol"],
        topology=trace.config.get("topology", "?"),
        n=trace.graph.n,
        b_bits=trace.size_model.value_bits,
        d_s=trace.timing.d,
        m=m,
        seed=trace.config.get("seed", 0),
        time_s=time_complexity(trace),
        messages=message_complexity(trace),
        bits=byte_complexity(trace),
        peak_bps=peak_bandwidth(trace),
    )
