"""`tools/bench_pairs.py` summarises alternating benchmark pairs; its
summary is checked here on fixed numbers, without running a benchmark."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_metric_summary_compares_the_medians(tool):
    out = tool.summarize_metric([4.0, 2.0, 3.0, 5.0, 1.0],
                                [3.0, 2.5, 3.3, 4.0, 0.5], 0.25)
    # inclusive quartiles of 1..5 are 2, 3, 4; of the change 2.5, 3.0, 3.3
    assert out["parent"] == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    assert out["change"] == pytest.approx({"q1": 2.5, "median": 3.0,
                                           "q3": 3.3})
    assert out["relative_change"] == 0.0 and out["within_bound"]
    assert out["parent_iqr_frac"] == pytest.approx(2 / 3, abs=1e-5)
    assert out["pairs_change_lower"] == 3  # pairs 1, 4 and 5
    assert out["parent_runs"] == [4.0, 2.0, 3.0, 5.0, 1.0]


@pytest.mark.parametrize("better, change, within", [
    ("lower", 1.25, True), ("lower", 1.3, False),
    ("higher", 0.8, True), ("higher", 0.7, False)])
def test_the_bound_holds_in_the_metric_s_direction(tool, better, change,
                                                   within):
    out = tool.summarize_metric([1.0, 1.0], [change, change], 0.25, better)
    assert out["within_bound"] is within


TEN = [10.0] * 10


@pytest.mark.parametrize("better, parent, change, verdict", [
    ("lower", TEN, [13.0] * 10, "worse"),  # 30% up, the bound is 25%
    ("higher", TEN, [7.0] * 10, "worse"),
    # the parent's IQR is 40% of its median: a 30% gain is unresolved
    # unless every change run beats every parent run
    ("lower", [6.0, 8.0, 10.0, 12.0, 14.0], [7.0] * 5, "unresolved"),
    ("lower", [6.0, 8.0, 10.0, 12.0, 14.0], [5.5] * 5, "better"),
    # 9 wins of 10, a tie counting for neither
    ("lower", TEN, [9.0] * 9 + [10.0], "better"),
    ("higher", TEN, [11.0] * 9 + [10.0], "better"),
    ("lower", TEN, [9.0] * 8 + [10.0, 11.0], "unchanged"),
    ("lower", TEN, [11.0] * 10, "unchanged"),
    # every pair won, but the medians differ by less than the parent's IQR
    ("lower", [9.0, 11.0] * 5, [7.5, 9.5] * 5, "unchanged"),
])
def test_a_metric_summary_gives_a_verdict(tool, better, parent, change,
                                          verdict):
    out = tool.summarize_metric(parent, change, 0.25, better)
    assert out["verdict"] == verdict


def test_a_workload_summary_sums_each_side(tool):
    def run(value, attempted, failed=0):
        return {"correct": failed == 0, "attempted": attempted,
                "failed": failed,
                "metrics": {"wall_s": {"value": value, "unit": "s"}}}

    spec = {"end_to_end": [{"name": "wall_s", "better": "lower",
                            "bound": 0.25}]}
    runs = [{"parent": run(2.0, 3), "change": run(1.0, 4)},
            {"change": run(1.5, 2, failed=1), "parent": run(2.0, 3)}]
    out = tool.summarize(runs, spec, 3)
    assert (out["seed"], out["pairs"], out["all_correct"]) == (3, 2, False)
    assert out["failed"] == {"parent": 0, "change": 1}
    assert out["attempted"] == {"parent": 6, "change": 6}
    assert out["first_in_pair"] == {"1": "parent", "2": "change"}
    wall = out["metrics"]["wall_s"]
    assert wall["change"]["median"] == 1.25
    assert wall["relative_change"] == -0.375
    assert wall["pairs_change_lower"] == 2
    # one pair: every quartile is its one run
    one = tool.summarize(runs[:1], spec, 4242)["metrics"]["wall_s"]
    assert one["parent"] == {"q1": 2.0, "median": 2.0, "q3": 2.0}
    assert one["parent_iqr_frac"] == 0.0
