import math

import pytest

from consim.bounds import (curve_csv, curve_rows, eval_bounds,
                           hybrid_phase_bandwidth, log_term, token_messages,
                           token_time)
from consim.errors import InvalidParams


def test_headline_numbers_reproduce_exactly():
    ceil = eval_bounds(100, 768, 0.01, mode="ceil_log2")
    assert ceil["flooding_bandwidth_bps"] == pytest.approx(775_000_000)
    assert ceil["average_bandwidth_bps"] == pytest.approx(7_750_000)
    exact = eval_bounds(100, 768, 0.01, mode="exact_log2")
    assert exact["ghs_token_bandwidth_bps"] == pytest.approx(143_238.6, abs=1.0)
    # the figure quoted as 143 kbps falls out of the exact-log evaluation
    assert round(exact["ghs_token_bandwidth_bps"] / 1000) == 143


def test_token_degenerate_single_node():
    assert token_messages(1) == 0
    assert token_time(1, 0.01) == 0
    table = eval_bounds(1, 64, 0.01, m=1)
    assert table["token_messages"] == 0


def test_log_modes():
    assert log_term(100, "ceil_log2") == 7
    assert log_term(100, "exact_log2") == pytest.approx(math.log2(100))
    assert log_term(1, "ceil_log2") == 1.0
    with pytest.raises(InvalidParams):
        log_term(10, "natural")


def test_monotone_in_n_and_b():
    for mode in ("ceil_log2", "exact_log2"):
        prev = None
        for n in (2, 4, 8, 16, 64, 128):
            row = eval_bounds(n, 768, 0.01, m=min(n, 4), mode=mode)
            vals = (row["flooding_bandwidth_bps"], row["average_bandwidth_bps"],
                    row["ghs_token_bandwidth_bps"], row["hybrid_bandwidth_bps"])
            assert all(v > 0 for v in vals)
            if prev:
                assert all(b >= a for a, b in zip(prev, vals))
            prev = vals
        b_prev = eval_bounds(64, 64, 0.01, mode=mode)
        b_next = eval_bounds(64, 4096, 0.01, mode=mode)
        assert b_next["flooding_bandwidth_bps"] > b_prev["flooding_bandwidth_bps"]


def test_hybrid_interpolates_between_token_and_flooding():
    n, b, d = 100, 768, 0.01
    at_1 = eval_bounds(n, b, d, m=1)["hybrid_bandwidth_bps"]
    token = eval_bounds(n, b, d)["ghs_token_bandwidth_bps"]
    # one cluster: the discovery term collapses to the token expression
    assert at_1 == pytest.approx(token)
    at_n = eval_bounds(n, b, d, m=n)["hybrid_bandwidth_bps"]
    flooding = eval_bounds(n, b, d)["flooding_bandwidth_bps"]
    assert at_n == pytest.approx(flooding, rel=0.01)
    mid = eval_bounds(n, b, d, m=10)["hybrid_bandwidth_bps"]
    assert at_1 < mid < at_n


def test_phase_table_matches_components():
    phases = hybrid_phase_bandwidth(100, 768, 0.01, 10)
    L = 7
    assert phases["p1"] == pytest.approx(100 * L / 0.01)
    assert phases["p3"] == pytest.approx((100 * 10 * L + 768) / 0.01)
    assert phases["p4"] == pytest.approx(min(1000, 1000) * (768 + L) / 0.01)


def test_param_validation():
    with pytest.raises(InvalidParams):
        eval_bounds(0, 768, 0.01)
    with pytest.raises(InvalidParams):
        eval_bounds(10, 768, 0.01, m=11)
    with pytest.raises(InvalidParams):
        eval_bounds(10, 768, -1.0)
    for d in (math.nan, math.inf):
        with pytest.raises(InvalidParams):
            eval_bounds(10, 768, d)


def test_curve_rows_shape():
    rows = curve_rows(100, 768, 0.01, [1, 2, 4])
    hybrid = [r for r in rows if r["algo"] == "hybrid"]
    assert len(hybrid) == 3 * 2  # three m values, two log modes
    text = curve_csv(rows)
    assert text.splitlines()[0].startswith("mode,algo,n,b,d,m,bandwidth_bps")
    assert len(text.splitlines()) == len(rows) + 1
