import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from consim.algorithms import ALGORITHMS
from consim.engine import SCHEDULERS, ExecutionTrace, TimingParams, run
from consim.errors import IncompleteTrace
from consim.functions import MaxFunction, MeanFunction
from consim.messages import Message, SizeModel
from consim.metrics import (byte_complexity, message_complexity,
                            peak_bandwidth, peak_bandwidth_by_phase,
                            report_from_trace, time_complexity)
from consim.topology import make_topology
from rows import rows_of


def synthetic_trace(sends, d=0.01, n=2, outputs_at=None):
    """sends: list of (t, size_bits[, mtype]); builds a minimal valid trace
    whose nodes output at `outputs_at`, by default each at 0."""
    g = make_topology("path", n, seed=0)
    records = [("send", t, g.uids[0], i, Message(mtype, g.uids[0], size))
               for i, (t, size, mtype, *_) in enumerate(
                   item + ("x.msg",) for item in sends)]
    records += [("output", t, uid, 0) for uid, t in
                zip(g.uids, [0.0] * n if outputs_at is None else outputs_at)]
    records.sort(key=lambda r: r[1])
    sm = SizeModel(uid_bits=7, value_bits=768)
    return ExecutionTrace(events=rows_of(*records),
                          outputs={u: 0 for u in g.uids},
                          config={"seed": 0},
                          timing=TimingParams(d=d, l=d / 10),
                          size_model=sm, graph=g, messages_total=len(sends),
                          bits_total=sum(item[1] for item in sends))


def brute_force_peak(sends, d):
    """Independent oracle: sample the rate function at every window endpoint
    nudged inward by epsilon."""
    eps = d * 1e-6
    points = []
    for t, size, *_ in sends:
        points += [t + eps, t + d - eps]
    best = 0.0
    for p in points:
        rate = sum(size / d for t, size, *_ in sends if t <= p < t + d)
        best = max(best, rate)
    return best


def test_single_message_rate():
    tr = synthetic_trace([(0.0, 775)])
    assert peak_bandwidth(tr) == pytest.approx(77_500)


def test_two_overlapping_windows():
    tr = synthetic_trace([(0.0, 775), (0.005, 775)])
    assert peak_bandwidth(tr) == pytest.approx(155_000)


def test_touching_windows_do_not_stack():
    tr = synthetic_trace([(0.0, 775), (0.01, 775)])
    assert peak_bandwidth(tr) == pytest.approx(77_500)


def test_peak_at_least_largest_single_message():
    tr = synthetic_trace([(0.0, 100), (0.05, 9000), (0.2, 50)])
    assert peak_bandwidth(tr) >= 9000 / 0.01


def test_sweep_matches_brute_force_on_random_traces():
    rng = random.Random(7)
    d = 0.01
    for _ in range(100):
        sends = [(rng.uniform(0, 0.2), rng.randrange(8, 4096))
                 for _ in range(rng.randrange(1, 60))]
        tr = synthetic_trace(sends, d=d)
        assert peak_bandwidth(tr) == pytest.approx(brute_force_peak(sends, d))


def test_peak_invariant_under_same_timestamp_reordering():
    sends = [(0.0, 100, "a.x"), (0.0, 200, "b.y"), (0.0, 300, "c.z")]
    tr1 = synthetic_trace(sends)
    tr2 = synthetic_trace(list(reversed(sends)))
    assert peak_bandwidth(tr1) == peak_bandwidth(tr2)


def test_per_phase_attribution():
    tr = synthetic_trace([(0.0, 100, "p1.a"), (0.0, 200, "p2.b"),
                          (0.02, 400, "p1.c")])
    peaks = peak_bandwidth_by_phase(tr)
    assert peaks["p1"] == pytest.approx(40_000)
    assert peaks["p2"] == pytest.approx(20_000)


def test_time_message_byte_metrics():
    tr = synthetic_trace([(0.0, 100), (0.003, 60)], outputs_at=[0.04, 0.05])
    assert time_complexity(tr) == pytest.approx(0.05)
    assert message_complexity(tr) == 2
    assert byte_complexity(tr) == 160


def test_incomplete_trace_rejected():
    tr = synthetic_trace([(0.0, 100)], outputs_at=[0.0])
    with pytest.raises(IncompleteTrace):
        time_complexity(tr)


def test_report_row_shape():
    tr = synthetic_trace([(0.0, 775)], outputs_at=[0.01, 0.01])
    rep = report_from_trace(tr, algo="demo")
    row = rep.csv_row()
    assert row.startswith("demo,path,2,768,")
    assert rep.bytes == pytest.approx(775 / 8)
    assert rep.peak_bps == pytest.approx(77_500)


@pytest.mark.parametrize("algo, m", [("hybrid", 3), ("flooding", None)])
def test_report_row_takes_its_m_from_its_trace(algo, m):
    # the registry passes m to every factory; only hybrid's protocol keeps it
    g = make_topology("cycle", 6, seed=1)
    trace = run(ALGORITHMS[algo].protocol(3, None), g, list(range(6)),
                fn=MaxFunction(64), timing=TimingParams(d=0.01, l=0.001))
    assert report_from_trace(trace).m == m
    assert report_from_trace(trace, m=5).m == 5


# averaging is round-driven and runs under lockstep only
CASES = [(algo, sched) for algo in sorted(ALGORITHMS)
         for sched in (["lockstep"] if algo == "average"
                       else sorted(SCHEDULERS))]


@pytest.mark.parametrize("algo, sched", CASES)
@settings(derandomize=True, max_examples=60, deadline=None)
@given(n=st.integers(2, 16), p=st.sampled_from([0.2, 0.5, 1.0]),
       m=st.integers(1, 16), seed=st.integers(0, 2**16))
def test_bits_fit_under_the_peak_over_the_sending_span(algo, sched, n, p, m,
                                                        seed):
    # every send's d-window lies in [start, last send + d], so the bits
    # sent are at most the peak rate over that span
    g = make_topology("random_connected", n, {"p": p}, seed=seed)
    fn = MeanFunction(128) if algo == "average" else MaxFunction(64)
    trace = run(ALGORITHMS[algo].protocol(min(m, n), 1e-3), g,
                [(7 * i + seed) % 23 for i in range(n)], fn=fn,
                scheduler=sched, seed=seed,
                timing=TimingParams(d=0.01, l=0.001))
    span = trace.events.sent()[-1][0] + 0.01 - trace.config["start_time"]
    assert byte_complexity(trace) <= peak_bandwidth(trace) * span * (1 + 1e-9)
