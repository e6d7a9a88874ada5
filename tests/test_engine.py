import os
import random
import re
import subprocess
import sys

import pytest

from consim.engine import (AdversarialMaxDelay, Automaton, Event,
                           ExecutionTrace, Protocol, RandomAsync, Simulation,
                           SynchronousLockstep, TimingParams, get_scheduler,
                           run, validate_trace)
from consim.errors import (ConfigError, DisconnectedGraph, NonTermination,
                           NotHierarchical)
from consim.functions import MaxFunction, MedianFunction
from consim.messages import Message, SizeModel
from consim.topology import Graph, make_topology


class PingOnce(Automaton):
    """Broadcasts one message at start; outputs on first delivery (or at
    start for isolated nodes)."""

    def on_start(self):
        if not self.ctx.neighbors:
            self.output = self.ctx.value
            return []
        size = self.ctx.size_model.size(n_uids=1)
        return [Message("ping.hello", self.ctx.uid, size)]

    def on_message(self, msg, src):
        if self.output is None:
            self.output = self.ctx.value
        return []


class PingProtocol(Protocol):
    name = "ping"

    def automaton(self, ctx):
        return PingOnce(ctx)


def _sim(graph, scheduler="lockstep", seed=0, **kw):
    fn = MaxFunction(32)
    return Simulation(PingProtocol(), graph, [1] * graph.n, fn=fn,
                      scheduler=scheduler, seed=seed,
                      timing=TimingParams(d=0.01, l=0.001), **kw)


def test_lockstep_delivers_at_round_boundary():
    g = make_topology("path", 3, seed=0)
    trace = _sim(g).run()
    validate_trace(trace)
    for e in trace.events:
        if e.kind == "send":
            assert e.t == 0.0
        if e.kind == "deliver":
            assert e.t == pytest.approx(0.01)


def test_adversarial_delay_is_exactly_d():
    g = make_topology("complete", 4, seed=0)
    trace = _sim(g, scheduler="adversarial").run()
    validate_trace(trace)
    sends = {e.ref: e.t for e in trace.events if e.kind == "send"}
    for e in trace.events:
        if e.kind == "deliver":
            assert e.t - sends[e.ref] == pytest.approx(0.01)


def test_random_async_delays_in_window_with_sane_mean():
    # statistical check on the uniform delay sampler
    rng = random.Random(42)
    sched = RandomAsync()
    timing = TimingParams(d=0.01, l=0.001)
    delays = [sched.delivery_time(0.0, timing, rng) for _ in range(1000)]
    assert all(0.0 < t <= 0.01 for t in delays)
    assert 0.004 <= sum(delays) / len(delays) <= 0.006


def test_random_async_trace_is_fair_and_within_bounds():
    g = make_topology("random_connected", 12, {"p": 0.4}, seed=3)
    trace = _sim(g, scheduler="random", seed=5).run()
    validate_trace(trace)


def test_broadcast_fans_out_to_every_neighbor_once():
    g = make_topology("star", 6, seed=1)
    trace = _sim(g).run()
    hub = max(g.uids, key=g.degree)
    hub_sends = [e for e in trace.events if e.kind == "send" and e.node == hub]
    assert len(hub_sends) == 1
    delivers = [e for e in trace.events
                if e.kind == "deliver" and e.ref == hub_sends[0].ref]
    assert sorted(e.node for e in delivers) == sorted(g.adj[hub])


def test_determinism_bit_identical_replay():
    g = make_topology("random_connected", 10, {"p": 0.5}, seed=2)
    t1 = _sim(g, scheduler="random", seed=9).run()
    t2 = _sim(g, scheduler="random", seed=9).run()
    assert t1.to_jsonl() == t2.to_jsonl()
    t3 = _sim(g, scheduler="random", seed=10).run()
    assert t1.to_jsonl() != t3.to_jsonl()


def test_single_node_runs_with_zero_messages():
    g = make_topology("path", 1, seed=0)
    trace = _sim(g).run()
    assert trace.outputs == {g.uids[0]: 1}
    assert not trace.sends()


def test_per_node_transmissions_serialize():
    class Chatty(Automaton):
        def on_start(self):
            self.output = 0
            size = self.ctx.size_model.size(n_uids=1)
            return [Message("chat.a", self.ctx.uid, size),
                    Message("chat.b", self.ctx.uid, size),
                    Message("chat.c", self.ctx.uid, size)]

    class ChattyProtocol(Protocol):
        name = "chatty"

        def automaton(self, ctx):
            return Chatty(ctx)

    g = make_topology("path", 2, seed=0)
    trace = run(ChattyProtocol(), g, [0, 0], fn=MaxFunction(32),
                scheduler="adversarial", timing=TimingParams(d=0.01, l=0.001))
    validate_trace(trace)
    starts = sorted(e.t for e in trace.sends() if e.node == g.uids[0])
    assert starts == pytest.approx([0.0, 0.01, 0.02])


def test_fifo_per_directed_link_under_random_scheduler():
    class TwoShots(Automaton):
        def on_start(self):
            self.output = 0
            size = self.ctx.size_model.size()
            return [Message("shot.first", self.ctx.uid, size),
                    Message("shot.second", self.ctx.uid, size)]

    class TwoShotProtocol(Protocol):
        name = "twoshot"

        def automaton(self, ctx):
            return TwoShots(ctx)

    g = make_topology("complete", 5, seed=4)
    for seed in range(20):
        trace = run(TwoShotProtocol(), g, [0] * 5, fn=MaxFunction(32),
                    scheduler="random", seed=seed)
        seen = {}
        for e in trace.events:
            if e.kind == "deliver":
                key = (e.msg.src, e.node)
                assert seen.get(key, -1.0) <= e.t
                seen[key] = e.t


def test_event_cap_raises_nontermination():
    class Babbler(Automaton):
        def on_start(self):
            return [Message("b.b", self.ctx.uid, 8)]

        def on_message(self, msg, src):
            return [Message("b.b", self.ctx.uid, 8)]

    class BabblerProtocol(Protocol):
        name = "babbler"

        def automaton(self, ctx):
            return Babbler(ctx)

    g = make_topology("cycle", 3, seed=0)
    with pytest.raises(NonTermination):
        run(BabblerProtocol(), g, [0, 0, 0], fn=MaxFunction(32),
            event_cap=500)


def test_quiescent_without_outputs_raises():
    class Mute(Automaton):
        pass

    class MuteProtocol(Protocol):
        name = "mute"

        def automaton(self, ctx):
            return Mute(ctx)

    g = make_topology("path", 2, seed=0)
    with pytest.raises(NonTermination):
        run(MuteProtocol(), g, [0, 0], fn=MaxFunction(32))


def test_disconnected_graph_rejected_before_start():
    g = make_topology("path", 4, seed=0)
    broken = Graph.__new__(Graph)  # bypass the constructor check on purpose
    object.__setattr__(broken, "uids", g.uids)
    object.__setattr__(broken, "edges", frozenset(list(g.edges)[:1]))
    object.__setattr__(broken, "kind", "broken")
    object.__setattr__(broken, "pool_size", g.pool_size)
    object.__setattr__(broken, "adj", {u: tuple() for u in g.uids})
    with pytest.raises(DisconnectedGraph):
        _sim(broken)


def test_hierarchical_only_is_enforced_before_validate():
    class Picky(PingProtocol):
        name = "picky"
        hierarchical_only = True

        def validate(self, graph, fn, scheduler):
            raise AssertionError("validate ran before the engine's check")

    g = make_topology("path", 3, seed=0)
    with pytest.raises(NotHierarchical, match="picky"):
        Simulation(Picky(), g, [1, 2, 3], fn=MedianFunction(32))


def test_unknown_scheduler_rejected():
    with pytest.raises(ConfigError):
        get_scheduler("chaotic")


def test_trace_jsonl_schema_field_order():
    g = make_topology("path", 2, seed=0)
    trace = _sim(g).run()
    first_send = next(ln for ln in trace.to_jsonl().splitlines()
                      if '"kind": "send"' in ln)
    keys = [part.split(":")[0].strip(' {"') for part in first_send.split(",")]
    assert keys == ["kind", "t", "node", "msg_type", "size_bits", "src"]


# -- validate_trace on hand-built traces ---------------------------------------

PATH2 = make_topology("path", 2, seed=0)


def _hand_trace(sends):
    """sends: (send time, delivery delay or None[, transition latency])
    from one node of a 2-node path; each send expects one delivery, and a
    latency adds the receiver's transition on it."""
    a, b = PATH2.uids
    events = []
    for ref, (t, delay, *latency) in enumerate(sends):
        msg = Message("x.msg", a, 8)
        events.append(Event("send", t, a, msg=msg, ref=ref))
        if delay is not None:
            events.append(Event("deliver", t + delay, b, msg=msg, ref=ref))
        for lat in latency:
            events.append(Event("transition", t + (delay or 0.0) + lat, b,
                                msg=msg, ref=ref))
    events.sort(key=lambda e: e.t)
    return ExecutionTrace(events=events, outputs={}, config={},
                          timing=TimingParams(d=0.01, l=0.001),
                          size_model=SizeModel(uid_bits=2, value_bits=8),
                          graph=PATH2,
                          send_fanout={ref: 1 for ref in range(len(sends))})


def test_validate_trace_accepts_tiny_random_delay():
    # RandomAsync draws delays from (0, d]; this one came from a real run
    validate_trace(_hand_trace([(0.0, 2.79e-10)]))


@pytest.mark.parametrize("sends, text", [
    ([(0.0, 0.0101)], "outside (0, d]"),
    ([(0.0, 0.0)], "outside (0, d]"),
    ([(0.0, 0.004), (0.005, 0.004)], "inside an earlier window"),
    ([(0.0, None)], "delivered 0/1 times"),
    ([(0.0, 0.004, 0.0), (0.01, None, 0.0005)], "it never got"),
])
def test_validate_trace_rejects(sends, text):
    with pytest.raises(AssertionError, match=re.escape(text)):
        validate_trace(_hand_trace(sends))


def test_checks_survive_python_O():
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "pytest", "-q", "-p", "no:cacheprovider",
         os.path.join(here, "test_engine.py") + "::test_validate_trace_rejects",
         os.path.join(here, "test_averaging.py")
         + "::test_link_down_mid_run_raises_typed_error"],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
