import random
import zlib

import pytest

from consim.engine import Simulation, TimingParams, run, validate_trace
from consim.errors import DuplicateUidConflict
from consim.flooding import FloodingProtocol
from consim.functions import (MaxFunction, MeanFunction, MedianFunction,
                              VoteFunction, get_function, oracle)
from consim.messages import Message, SizeModel
from consim.metrics import byte_complexity, message_complexity, time_complexity
from consim.topology import make_topology

D = 0.01
TIMING = TimingParams(d=D, l=D / 10)


def flood(graph, values, fn, scheduler="lockstep", seed=0):
    sm = SizeModel.for_network(graph.n, fn.bits, pool_size=graph.pool_size)
    return run(FloodingProtocol(), graph, values, fn=fn, timing=TIMING,
               scheduler=scheduler, seed=seed, size_model=sm)


def test_k3_max_all_output_five():
    g = make_topology("complete", 3, seed=0)
    trace = flood(g, [1, 5, 3], MaxFunction(32))
    assert set(trace.outputs.values()) == {5}
    assert all(t <= 2 * D + 1e-12 for t in trace.events.t)


def test_path3_max_within_three_rounds():
    g = make_topology("path", 3, seed=1)
    trace = flood(g, [1, 5, 3], MaxFunction(32))
    assert set(trace.outputs.values()) == {5}
    assert time_complexity(trace) <= 3 * D + 1e-12


def test_p10_completes_within_diameter_rounds():
    g = make_topology("path", 10, seed=5)
    trace = flood(g, list(range(10)), MaxFunction(32))
    assert time_complexity(trace) <= 10 * D + 1e-12


def test_single_node_outputs_immediately():
    g = make_topology("path", 1, seed=0)
    trace = flood(g, [42], MaxFunction(32))
    assert trace.outputs[g.uids[0]] == 42
    assert message_complexity(trace) == 0


def test_k4_byte_complexity_matches_hand_enumeration():
    # two lockstep rounds on K4: four single-pair broadcasts, then four
    # relays of the three pairs each node just learned
    g = make_topology("complete", 4, seed=2)
    fn = MaxFunction(768)
    trace = flood(g, [1, 2, 3, 4], fn)
    sm = trace.size_model
    f, u, b = sm.flag_bits, sm.uid_bits, sm.value_bits
    expected = 4 * (f + u + b) + 4 * (f + 3 * (u + b))
    assert byte_complexity(trace) == expected
    assert message_complexity(trace) == 8


def test_each_pair_rebroadcast_at_most_once_per_node():
    g = make_topology("random_connected", 15, {"p": 0.3}, seed=4)
    trace = flood(g, list(range(15)), MaxFunction(32), scheduler="random", seed=7)
    validate_trace(trace)
    shipped = {}
    for _, msg in trace.events.sent():
        for uid, _val in msg.payload:
            key = (msg.src, uid)
            assert key not in shipped, f"node {msg.src} re-flooded {uid}"
            shipped[key] = True


@pytest.mark.parametrize("scheduler", ["lockstep", "random", "adversarial"])
@pytest.mark.parametrize("fnspec", ["max", "mean", "vote:3", "median"])
def test_outputs_equal_oracle_across_schedulers_and_functions(scheduler, fnspec):
    rng = random.Random(zlib.crc32(f"{scheduler}/{fnspec}".encode()) & 0xFFFF)
    fn = get_function(fnspec, 128)
    for seed in range(3):
        g = make_topology("random_connected", 9, {"p": 0.35}, seed=seed)
        if fnspec.startswith("vote"):
            values = [rng.randrange(3) for _ in range(9)]
        else:
            values = [rng.randrange(100) for _ in range(9)]
        trace = flood(g, values, fn, scheduler=scheduler, seed=seed)
        want = oracle(fn, values)
        for out in trace.outputs.values():
            if fn.name == "mean":
                assert abs(out - want) <= 1e-9 * max(1.0, abs(want))
            else:
                assert out == want


def test_same_inputs_different_seeds_same_outputs():
    g = make_topology("random_connected", 10, {"p": 0.4}, seed=3)
    values = list(range(10))
    t1 = flood(g, values, MaxFunction(32), scheduler="random", seed=1)
    t2 = flood(g, values, MaxFunction(32), scheduler="random", seed=2)
    assert t1.to_jsonl() != t2.to_jsonl()  # genuinely different interleavings
    assert t1.outputs == t2.outputs
    assert set(t1.outputs.values()) == {oracle(MaxFunction(32), values)}


def test_duplicate_uid_conflict_detected():
    g = make_topology("path", 2, seed=0)
    fn = MaxFunction(32)
    sm = SizeModel.for_network(2, 32)
    sim = Simulation(FloodingProtocol(), g, [1, 2], fn=fn, timing=TIMING,
                     size_model=sm)
    a, b = g.uids
    poison = Message("flood.relay", b, sm.size(1, 1), payload=((a, 999),))
    sim.schedule_kick(b, "on_message", (poison, b), at=0.0)
    with pytest.raises(DuplicateUidConflict):
        sim.run()
