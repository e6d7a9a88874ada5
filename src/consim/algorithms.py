"""The algorithm registry: one entry per algorithm that the command line
and the acceptance checks run by name.

Each entry pairs a protocol factory, taking the cluster parameter m and the
averaging tolerance eps, with the algorithm's closed-form bandwidth ceiling
as a function of (n, b, d, m, log mode).  Algorithms without a cluster
parameter ignore m.  Which schedulers and functions a protocol accepts is
declared on the protocol itself (`round_driven`, `hierarchical_only`) and
enforced by the engine.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from . import bounds as bnd
from .averaging import AverageProtocol
from .flooding import FloodingProtocol
from .ghs import GhsParallelProtocol, GhsTokenProtocol
from .hybrid import HybridProtocol


class Algorithm(NamedTuple):
    protocol: Callable  # (m, eps) -> Protocol
    bound: Callable  # (n, b, d, m, log mode) -> bandwidth ceiling, bits/s


def _fixed(formula):
    """Ceiling of an algorithm without a cluster parameter."""
    return lambda n, b, d, m, mode: formula(n, b, d, mode)


ALGORITHMS = {
    "flooding": Algorithm(lambda m, eps: FloodingProtocol(),
                          _fixed(bnd.flooding_bandwidth)),
    "average": Algorithm(lambda m, eps: AverageProtocol(eps=eps),
                         _fixed(bnd.average_bandwidth)),
    "ghs-parallel": Algorithm(lambda m, eps: GhsParallelProtocol(),
                              _fixed(bnd.average_bandwidth)),
    "ghs-token": Algorithm(lambda m, eps: GhsTokenProtocol(),
                           _fixed(bnd.ghs_token_bandwidth)),
    "hybrid": Algorithm(lambda m, eps: HybridProtocol(m), bnd.hybrid_bandwidth),
}
