import math

import pytest

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
