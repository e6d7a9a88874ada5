"""Closed-form worst-case complexity ceilings for the shipped algorithms.

The formulas use `log n` for the per-identifier cost.  Because rounding that
logarithm up or not moves small-n figures by several percent, every formula
can be evaluated in two modes: `ceil_log2` (ceil(log2 n)) and `exact_log2`
(log2 n).  Callers that compare measurements against a ceiling should pick
one mode and report the measured constant alongside it.

Per algorithm, for n nodes, b-bit values, window d and cluster parameter m:

  flooding    bandwidth n^2 (log n + b) / d
  average     bandwidth n (log n + b) / d
  ghs-token   bandwidth (n log n + b) / d, bytes n (log n + b),
              messages 4(n-1) and time 4(n-1) d for the tree-aggregation
              stage alone
  hybrid      bandwidth is the max of its phase ceilings:
              forest building and splitting n log n / d, discovery plus
              in-cluster aggregation (n m log n + b) / d, inter-cluster
              flooding min(n m, m^3)(b + log n) / d
"""

from __future__ import annotations

import math

from .errors import InvalidParams

MODES = ("ceil_log2", "exact_log2")


def log_term(n: int, mode: str) -> float:
    if mode == "ceil_log2":
        return float(math.ceil(math.log2(n))) if n > 1 else 1.0
    if mode == "exact_log2":
        return math.log2(n) if n > 1 else 1.0
    raise InvalidParams(f"unknown log mode {mode!r}")


def flooding_bandwidth(n, b, d, mode="ceil_log2"):
    return n * n * (log_term(n, mode) + b) / d


def average_bandwidth(n, b, d, mode="ceil_log2"):
    return n * (log_term(n, mode) + b) / d


def ghs_token_bandwidth(n, b, d, mode="ceil_log2"):
    return (n * log_term(n, mode) + b) / d


def ghs_token_bytes(n, b, mode="ceil_log2"):
    return n * (log_term(n, mode) + b)


def token_messages(n):
    return 4 * (n - 1)


def token_time(n, d):
    return 4 * (n - 1) * d


def hybrid_phase_bandwidth(n, b, d, m, mode="ceil_log2") -> dict:
    L = log_term(n, mode)
    return {
        "p1": n * L / d,
        "p2": n * L / d,
        "p3": (n * m * L + b) / d,
        "p4": min(n * m, m ** 3) * (b + L) / d,
    }


def hybrid_bandwidth(n, b, d, m, mode="ceil_log2"):
    return max(hybrid_phase_bandwidth(n, b, d, m, mode).values())


def eval_bounds(n: int, b: int, d: float, m: int | None = None,
                mode: str = "ceil_log2") -> dict:
    """Full table of ceilings for one (n, b, d, m) point."""
    if n < 1 or b < 1 or d <= 0:
        raise InvalidParams("need n >= 1, b >= 1, d > 0")
    if m is not None and not 1 <= m <= n:
        raise InvalidParams("need 1 <= m <= n")
    out = {
        "mode": mode,
        "n": n, "b": b, "d": d, "m": m,
        "flooding_bandwidth_bps": flooding_bandwidth(n, b, d, mode),
        "average_bandwidth_bps": average_bandwidth(n, b, d, mode),
        "ghs_token_bandwidth_bps": ghs_token_bandwidth(n, b, d, mode),
        "ghs_token_bytes_bits": ghs_token_bytes(n, b, mode),
        "token_messages": token_messages(n),
        "token_time_s": token_time(n, d),
    }
    if m is not None:
        phases = hybrid_phase_bandwidth(n, b, d, m, mode)
        out.update({f"hybrid_{k}_bandwidth_bps": v for k, v in phases.items()})
        out["hybrid_bandwidth_bps"] = max(phases.values())
    return out


CURVE_CSV_COLUMNS = ("mode", "algo", "n", "b", "d", "m",
                     "bandwidth_bps", "bytes_bits", "time_s", "messages")


def curve_rows(n: int, b: int, d: float, m_values, modes=MODES) -> list[dict]:
    """Long-format table for bound curves: one row per (algorithm, m, mode).
    The fixed algorithms ignore m; the tunable one gets one row per m."""
    def row(mode, algo, bandwidth, m=None, bytes_bits=None, time_s=None,
            messages=None):
        return {"mode": mode, "algo": algo, "n": n, "b": b, "d": d, "m": m,
                "bandwidth_bps": bandwidth, "bytes_bits": bytes_bits,
                "time_s": time_s, "messages": messages}

    rows = []
    for mode in modes:
        rows.append(row(mode, "flooding", flooding_bandwidth(n, b, d, mode)))
        rows.append(row(mode, "average", average_bandwidth(n, b, d, mode)))
        rows.append(row(mode, "ghs-token", ghs_token_bandwidth(n, b, d, mode),
                        bytes_bits=ghs_token_bytes(n, b, mode),
                        time_s=token_time(n, d), messages=token_messages(n)))
        rows += [row(mode, "hybrid", hybrid_bandwidth(n, b, d, m, mode), m=m)
                 for m in m_values]
    return rows


def curve_csv(rows) -> str:
    lines = [",".join(CURVE_CSV_COLUMNS)]
    for row in rows:
        cells = []
        for c in CURVE_CSV_COLUMNS:
            v = row.get(c)
            cells.append("" if v is None else repr(v) if isinstance(v, float)
                         else str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"

