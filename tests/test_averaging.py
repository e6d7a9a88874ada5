from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from consim.averaging import AverageProtocol, div_round_half_even
from consim.engine import Simulation, TimingParams, run, validate_trace
from consim.errors import ConfigError, InvariantViolation, NonTermination
from consim.functions import MaxFunction, MeanFunction, oracle
from consim.messages import SizeModel
from consim.metrics import message_complexity
from consim.topology import Graph, make_topology

D = 0.01
TIMING = TimingParams(d=D, l=D / 10)


def average(graph, values, eps=1e-3, bits=128, lean=False):
    fn = MeanFunction(bits)
    sm = SizeModel.for_network(graph.n, bits, pool_size=graph.pool_size)
    return run(AverageProtocol(eps=eps), graph, values, fn=fn, timing=TIMING,
               scheduler="lockstep", size_model=sm, record_events=not lean)


def rounds_used(trace):
    return round(trace.last_output_time() / D)


def test_two_nodes_meet_in_one_round():
    g = make_topology("path", 2, seed=0)
    trace = average(g, [0, 10])
    assert all(v == pytest.approx(5.0) for v in trace.outputs.values())
    assert rounds_used(trace) == 1


def test_p3_first_round_estimates():
    # hand-applied update on the 3-node path with values [0, 0, 3]
    g = make_topology("path", 3, seed=0)
    end_a, mid, end_b = g.uids[0], g.uids[1], g.uids[2]
    values = {end_a: 0, mid: 0, end_b: 3}
    fn = MeanFunction(128)
    from consim.averaging import AverageAutomaton
    from consim.engine import Simulation
    sim = Simulation(AverageProtocol(eps=1e-12), g, values, fn=fn,
                     timing=TIMING, scheduler="lockstep")
    trace = sim.run()
    validate_trace(trace)
    # recompute round 1 by hand: ends average over 2, middle over 3
    # [0,0,3] -> [0, 1, 1.5]
    # cannot observe intermediate rounds from outputs, so replay payloads
    first_round = [msg for t, msg in trace.events.sent()
                   if t == pytest.approx(D)]
    est = {msg.src: msg.payload / (1 << (128 - 64)) for msg in first_round}
    assert est[end_a] == pytest.approx(0.0)
    assert est[mid] == pytest.approx(1.0)
    assert est[end_b] == pytest.approx(1.5)


def test_identical_values_halt_at_round_zero():
    g = make_topology("cycle", 6, seed=1)
    trace = average(g, [7] * 6)
    assert rounds_used(trace) == 0
    assert message_complexity(trace) == 0
    assert all(v == pytest.approx(7.0) for v in trace.outputs.values())


def test_complete_graph_converges_in_one_round():
    g = make_topology("complete", 8, seed=2)
    values = list(range(8))
    trace = average(g, values, eps=1e-9)
    want = oracle(MeanFunction(128), values)
    assert all(v == pytest.approx(want, abs=1e-12) for v in trace.outputs.values())
    assert rounds_used(trace) == 1


def test_estimates_stay_in_convex_hull_and_regular_graphs_preserve_mean():
    g = make_topology("cycle", 10, seed=3)
    values = [0, 100, 20, 50, 80, 10, 90, 30, 60, 40]
    fn = MeanFunction(128)
    from consim.engine import Simulation
    sim = Simulation(AverageProtocol(eps=1e-6), g, values, fn=fn,
                     timing=TIMING, scheduler="lockstep")
    trace = sim.run()
    frac = 1 << (128 - 64)
    by_round = {}
    for t, msg in trace.events.sent():
        by_round.setdefault(round(t / D), []).append(msg.payload / frac)
    mean = sum(values) / len(values)
    for r, ests in sorted(by_round.items()):
        assert min(ests) >= min(values) - 1e-12
        assert max(ests) <= max(values) + 1e-12
        assert sum(ests) / len(ests) == pytest.approx(mean, abs=1e-9)


def test_accuracy_on_regular_graph_to_1e9():
    g = make_topology("cycle", 12, seed=4)
    values = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8]
    trace = average(g, values, eps=1e-12, bits=768)
    want = sum(values) / len(values)
    for v in trace.outputs.values():
        assert abs(v - want) <= 1e-9 * abs(want)


def test_irregular_graph_converges_to_degree_weighted_fixed_point():
    g = make_topology("star", 5, seed=5)
    values = {u: 0 for u in g.uids}
    hub = max(g.uids, key=g.degree)
    values[hub] = 10
    trace = average(g, values, eps=1e-9)
    w = {u: g.degree(u) + 1 for u in g.uids}
    target = sum(w[u] * values[u] for u in g.uids) / sum(w.values())
    assert target != pytest.approx(sum(values.values()) / 5)
    for v in trace.outputs.values():
        assert v == pytest.approx(target, abs=1e-7)


@pytest.mark.parametrize("eps", [float("nan"), float("inf")])
def test_eps_must_be_finite(eps):
    with pytest.raises(ConfigError):
        AverageProtocol(eps=eps)


def test_rejects_non_mean_functions_and_non_lockstep():
    g = make_topology("cycle", 4, seed=0)
    with pytest.raises(ConfigError):
        run(AverageProtocol(), g, [1, 2, 3, 4], fn=MaxFunction(128),
            timing=TIMING, scheduler="lockstep")
    with pytest.raises(ConfigError):
        run(AverageProtocol(), g, [1, 2, 3, 4], fn=MeanFunction(128),
            timing=TIMING, scheduler="random")


def test_one_protocol_instance_serves_two_executions():
    # the convergence monitor belongs to an execution, not to the protocol
    g = make_topology("complete", 4, seed=0)
    proto = AverageProtocol(eps=1e-3)
    for values, want in (([0, 10, 20, 30], 15.0),
                         ([100, 110, 120, 130], 115.0)):
        trace = run(proto, g, values, fn=MeanFunction(128), timing=TIMING,
                    scheduler="lockstep", event_cap=10_000)
        assert set(trace.outputs.values()) == {want}


@pytest.mark.parametrize("start", [0.014, 0.02, 1.0])
def test_runs_alike_at_any_start_time(start):
    # rounds count from the execution's own first boundary, so a run that
    # starts off the grid, or on a later boundary, repeats the run at 0
    g = make_topology("path", 6, seed=1)
    values = [3, 1, 4, 1, 5, 9]
    sm = SizeModel.for_network(g.n, 128, pool_size=g.pool_size)
    base, trace = (run(AverageProtocol(eps=1e-3), g, values,
                       fn=MeanFunction(128), timing=TIMING, size_model=sm,
                       start_time=t) for t in (0.0, start))
    validate_trace(trace)
    assert trace.outputs == base.outputs
    first = TIMING.boundary(start)
    assert round((trace.last_output_time() - first) / D) == rounds_used(base)
    assert rounds_used(base) > 1
    assert (trace.messages_total, trace.bits_total) == (base.messages_total,
                                                        base.bits_total)


@pytest.mark.parametrize("bits", [96, 128, 200])  # mean needs b >= 96
@pytest.mark.parametrize("lean", [False, True])
def test_every_estimate_is_charged_one_uid_and_one_value(bits, lean):
    # each node sizes its estimate once, at construction; every send of the
    # run must still cost exactly what the size model charges for it
    g = make_topology("path", 7, seed=2)
    trace = average(g, [5, 0, 9, 2, 7, 1, 3], bits=bits, lean=lean)
    sm = SizeModel.for_network(g.n, bits, pool_size=g.pool_size)
    assert trace.messages_total > 0
    assert trace.bits_total == trace.messages_total * sm.size(n_uids=1,
                                                              n_values=1)


def test_automata_iterate_in_uid_order_on_an_unsorted_graph():
    # the round hook reads the automata in the engine's order, which must
    # be uid order whatever order the graph lists its uids in
    uids = (5, 2, 9, 0, 7)
    g = Graph(uids=uids, edges=frozenset(
        (min(a, b), max(a, b)) for a, b in zip(uids, uids[1:])))
    sim = Simulation(AverageProtocol(eps=1e-3), g, [4, 0, 8, 1, 6],
                     fn=MeanFunction(128), timing=TIMING, scheduler="lockstep")
    assert list(sim.automata) == sorted(uids)
    trace = sim.run()
    validate_trace(trace)
    first_round = [msg.src for t, msg in trace.events.sent()
                   if t == pytest.approx(0.0)]
    assert first_round == sorted(uids)


def test_link_down_mid_run_raises_typed_error():
    # a lost link leaves a round's neighborhood incomplete; averaging does
    # not support that and must say so with a typed error
    g = make_topology("path", 6, seed=1)
    sim = Simulation(AverageProtocol(eps=1e-9), g, list(range(6)),
                     fn=MeanFunction(128), timing=TIMING, scheduler="lockstep")
    sim.schedule_link_down(g.uids[2], g.uids[3], at=1.5 * D)
    with pytest.raises(InvariantViolation, match="incomplete neighborhood"):
        sim.run()


def test_event_cap_counts_every_message_of_a_round():
    # a round's broadcasts travel as one batch, yet the cap counts each send,
    # delivery and reaction: a run that never converges stops after the same
    # simulated time as with one event per message (17 per round on P4)
    g = make_topology("path", 4, seed=0)
    with pytest.raises(NonTermination, match=r"cap 1700 exceeded at t=1$"):
        run(AverageProtocol(eps=1e-30), g, [0, 1, 2, 3], fn=MeanFunction(128),
            timing=TIMING, event_cap=1700, record_events=False)


WIDE = 1 << 800  # estimates of a b-bit run are b bits wide; b = 768 is the widest
TOTALS = st.one_of(st.integers(-(1 << 20), 1 << 20), st.integers(-WIDE, WIDE))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(total=TOTALS, k=st.integers(1, 130))
@example(total=-7, k=2)
@example(total=-(WIDE + 1), k=3)
@example(total=WIDE - 1, k=129)
def test_integer_rounding_equals_fraction_rounding(total, k):
    assert div_round_half_even(total, k) == round(Fraction(total, k))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(q=TOTALS, half=st.integers(1, 65))
@example(q=-1, half=1)
@example(q=-WIDE, half=65)
def test_integer_rounding_sends_exact_ties_to_even(q, half):
    k = 2 * half
    total = q * k + half  # exactly halfway between q and q + 1
    got = div_round_half_even(total, k)
    assert got == round(Fraction(total, k))
    assert got in (q, q + 1) and got % 2 == 0
