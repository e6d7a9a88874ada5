import inspect
import itertools
import math
import re
from collections import Counter

import pytest

from consim import validation
from consim.averaging import AverageProtocol
from consim.validation import spearman_rho


@pytest.mark.parametrize("xs, ys, want", [
    ([1, 2, 3, 4, 5], [10, 20, 30, 40, 50], 1.0),
    ([1, 2, 3, 4, 5], [9, 7, 5, 3, 1], -1.0),
    # ys ranks 1.5, 3.5, 3.5, 5, 1.5: covariance 1.5, variances 10 and 9
    ([1, 2, 3, 4, 5], [1, 2, 2, 3, 1], 1.5 / math.sqrt(90)),
    # ties on both sides: ranks 1.5, 1.5, 3.5, 3.5 against 1, 2.5, 2.5, 4;
    # covariance 3, variances 4 and 4.5
    ([0, 0, 1, 1], [0, 5, 5, 9], 3 / math.sqrt(4 * 4.5)),
    # the m-sweep's xs against a curve flat until its end: ys ranks six
    # 3.5s and a 7; covariance 10.5, variances 28 and 10.5
    ([1, 2, 5, 10, 20, 50, 100], [3, 3, 3, 3, 3, 3, 4], math.sqrt(10.5 / 28)),
])
def test_spearman_rho_by_hand(xs, ys, want):
    assert spearman_rho(xs, ys) == pytest.approx(want, abs=1e-15)


def test_spearman_rho_of_a_constant_side_is_nan():
    # undefined, as in scipy; the interpolation check then finds no
    # decreasing trend
    assert math.isnan(spearman_rho([1, 2, 3], [7, 7, 7]))
    assert math.isnan(spearman_rho([4, 4], [1, 2]))


def test_spearman_rho_sign_is_exact():
    # one swapped pair in a long ramp: a correlation just under 1, and a
    # zero covariance stays exactly zero
    n = 200
    xs = list(range(n))
    ys = xs[:]
    ys[0], ys[1] = ys[1], ys[0]
    assert 0 < spearman_rho(xs, ys) < 1
    assert spearman_rho([1, 2, 3, 4], [1, 2, 2, 1]) == 0.0


def test_spearman_rho_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    import random
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randrange(2, 15)
        xs = [rng.randrange(5) for _ in range(n)]
        ys = [rng.randrange(1 << rng.randrange(1, 20)) for _ in range(n)]
        if len(set(xs)) < 2 or len(set(ys)) < 2:
            continue
        want = stats.spearmanr(xs, ys).statistic
        assert spearman_rho(xs, ys) == pytest.approx(want, abs=1e-12)


# -- every failure return of the oracle and invariant checks ------------------

class _HalfMax(validation.MaxFunction):
    """Commutative, not associative."""

    def combine(self, a, b):
        return (a + b) // 2


class _LeftMax(validation.MaxFunction):
    """Not commutative."""

    def combine(self, a, b):
        return a


def _patch(name, value):
    return lambda mp: mp.setattr(validation, name, value)


def _average_stops_at_round_0(mp):
    # eps = 1 holds every spread: the initial values are the outputs
    stop = AverageProtocol(eps=1.0)
    mp.setitem(validation.ALGORITHMS, "average", validation.ALGORITHMS[
        "average"]._replace(protocol=lambda m, eps: stop))


@pytest.mark.parametrize("check, kwargs, plant, detail", [
    pytest.param("check_token_invariants", {"trees": 1},
                 _patch("message_complexity", lambda trace: -1),
                 r"n=\d+: -1 messages, wanted \d+$", id="token-messages"),
    pytest.param("check_token_invariants", {"trees": 1}, _patch("D", 1.0),
                 r"n=\d+: windows overlap at t=", id="token-windows"),
    pytest.param("check_token_invariants", {"trees": 1},
                 _patch("MaxFunction", validation.MinFunction),
                 r"n=\d+: bad output$", id="token-output"),
    pytest.param("check_mst_oracle", {"graphs": 1},
                 _patch("kruskal_mst", lambda g: frozenset()),
                 r"mismatch at n=\d+ p=[\d.]+ trial=0$", id="mst"),
    pytest.param("check_consensus_matrix", {"n": 3, "seeds": 1},
                 _patch("oracle", lambda fn, values: -1),
                 r"flooding/path/max/lockstep/0: \d+ vs -1$",
                 id="matrix-algorithms"),
    pytest.param("check_consensus_matrix", {"n": 3, "seeds": 1},
                 _average_stops_at_round_0, r"average/cycle/0: [\d.]+ vs ",
                 id="matrix-average"),
    pytest.param("check_recovery", {"instances": 1},
                 _patch("oracle", lambda fn, values: -1),
                 r"trial \d+: wrong outputs after recovery$",
                 id="recovery-outputs"),
    pytest.param("check_recovery", {"instances": 1},
                 _patch("check_cluster_discipline",
                        lambda automata, n, m: ["planted"]),
                 r"trial \d+: planted$", id="recovery-discipline"),
    pytest.param("check_operator_algebra", {"samples": 10},
                 _patch("MaxFunction", _LeftMax), r"max not commutative$",
                 id="algebra-commutative"),
    pytest.param("check_operator_algebra", {"samples": 10},
                 _patch("MaxFunction", _HalfMax), r"max not associative$",
                 id="algebra-associative"),
    pytest.param("check_peak_against_brute_force", {"traces": 1},
                 _patch("peak_bandwidth", lambda trace: -1.0),
                 r"sweep -1.0 vs brute force \d", id="peak"),
    pytest.param("check_determinism", {"configs": 1},
                 _patch("trace_digest", lambda trace, c=itertools.count():
                        next(c)),
                 r"flooding n=\d+ lockstep seed=0 diverged$",
                 id="determinism"),
])
def test_every_failure_return_of_a_check_is_reachable(monkeypatch, check,
                                                      kwargs, plant, detail):
    assert getattr(validation, check)(**kwargs).passed
    plant(monkeypatch)
    res = getattr(validation, check)(**kwargs)
    assert res.passed is False
    assert re.match(detail, res.detail), res.detail


def test_the_suite_table_holds_every_check_once():
    # read off the table: no check runs
    checks = [f for name, f in vars(validation).items()
              if name.startswith("check_") and inspect.isfunction(f)
              and f.__module__ == validation.__name__]
    listed = [f for suite in validation.SUITES.values() for f in suite]
    assert checks and Counter(listed) == Counter(checks)
