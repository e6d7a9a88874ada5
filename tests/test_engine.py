import dataclasses
import gc
import json
import os
import re
import subprocess
import sys
import weakref

import pytest

from consim import engine
from consim.algorithms import ALGORITHMS
from consim.cli import _single_report, build_parser
from consim.cli import main as cli_main
from consim.engine import (SCHEDULERS, Automaton, Event, ExecutionTrace,
                           Protocol, Simulation, TimingParams, TraceRows,
                           run, trace_digest, validate_trace)
from consim.errors import (ConfigError, DisconnectedGraph,
                           InvariantViolation, NonTermination, NotHierarchical,
                           TraceViolation)
from consim.functions import MaxFunction, MeanFunction, MedianFunction
from consim.hybrid import FailureExperiment
from consim.messages import Message, SizeModel
from consim.metrics import report_from_trace
from consim.topology import (TOPOLOGY_KINDS, Graph, edge_weight,
                              make_topology)
from rows import (DELIVER, NO_REF, OUTPUT, SEND, TRANSITION, copies,
                  rows_of)


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


@pytest.mark.parametrize("d, l", [(float("nan"), 0.001), (0.01, float("nan")),
                                  (float("inf"), 0.001), (0.01, float("inf"))])
def test_timing_params_must_be_finite(d, l):
    with pytest.raises(ConfigError):
        TimingParams(d=d, l=l)


def test_lockstep_delivers_at_round_boundary():
    g = make_topology("path", 3, seed=0)
    trace = _sim(g).run()
    validate_trace(trace)
    rows = trace.events
    assert {rows.t[i] for i in rows.indices_of(SEND)} == {0.0}
    for t, _, _ in copies(rows):
        assert t == pytest.approx(0.01)


def test_adversarial_delay_is_exactly_d():
    g = make_topology("complete", 4, seed=0)
    trace = _sim(g, scheduler="adversarial").run()
    validate_trace(trace)
    sends = _send_times(trace.events)
    for t, _, ref in copies(trace.events):
        assert t - sends[ref] == pytest.approx(0.01)


def _send_times(rows):
    return {rows.ref[i]: rows.t[i] for i in rows.indices_of(SEND)}


def test_random_async_delays_in_window_with_sane_mean():
    # statistical check on the uniform delay sampler, through the deliveries
    # of a real run: 40 * 39 copies, each with a delay of its own
    g = make_topology("complete", 40, seed=42)
    trace = _sim(g, scheduler="random", seed=42).run()
    sends = _send_times(trace.events)
    delays = [t - sends[ref] for t, _, ref in copies(trace.events)]
    assert len(delays) >= 1000
    assert all(0.0 < t <= 0.01 for t in delays)
    assert 0.004 <= sum(delays) / len(delays) <= 0.006


def test_random_async_trace_is_fair_and_within_bounds():
    g = make_topology("random_connected", 12, {"p": 0.4}, seed=3)
    trace = _sim(g, scheduler="random", seed=5).run()
    validate_trace(trace)


def _outputs(trace):
    rows = trace.events
    return [(rows.t[i], rows.node[i], rows.values[i])
            for i in rows.indices_of(OUTPUT)]


LEAN_CASES = pytest.mark.parametrize("algo, kind, n, seed", [
    (algo, kind, n, seed)
    for algo in sorted(a for a in ALGORITHMS
                       if not ALGORITHMS[a].protocol(2, 1e-3).round_driven)
    for kind, n in (("random_connected", 13), ("star", 17))
    for seed in (2, 9)])


@LEAN_CASES
def test_lean_run_equals_recorded_run_under_random(algo, kind, n, seed):
    _assert_lean_run_equals_recorded_run(algo, kind, n, seed, "random")


@pytest.mark.parametrize("scheduler", sorted(
    s for s, quantized in SCHEDULERS.items() if quantized))
@LEAN_CASES
def test_lean_run_equals_recorded_run_under_quantized_schedulers(
        algo, kind, n, seed, scheduler):
    _assert_lean_run_equals_recorded_run(algo, kind, n, seed, scheduler)


def _assert_lean_run_equals_recorded_run(algo, kind, n, seed, scheduler):
    # a lean run records no copy and no reaction, yet draws the same delays
    # and latencies: the same outputs at the same times, the same totals
    g = make_topology(kind, n, {"p": 0.3} if kind == "random_connected"
                      else None, seed=seed)
    lean, recorded = (
        run(ALGORITHMS[algo].protocol(2, 1e-3), g,
            [(7 * i + seed) % 23 for i in range(n)], fn=MaxFunction(64),
            scheduler=scheduler, seed=seed,
            timing=TimingParams(d=0.01, l=0.001), record_events=record)
        for record in (False, True))
    assert set(lean.events.kind) == {OUTPUT}
    assert lean.outputs == recorded.outputs
    assert len(lean.outputs) == n
    assert (lean.messages_total, lean.bits_total) == (
        recorded.messages_total, recorded.bits_total)
    assert _outputs(lean) == _outputs(recorded)


def test_broadcast_fans_out_to_every_neighbor_once():
    g = make_topology("star", 6, seed=1)
    trace = _sim(g).run()
    hub = max(g.uids, key=g.degree)
    rows = trace.events
    hub_sends = [rows.ref[i] for i in rows.indices_of(SEND)
                 if rows.node[i] == hub]
    assert len(hub_sends) == 1
    assert sorted(nb for _, nb, ref in copies(rows)
                  if ref == hub_sends[0]) == sorted(g.adj[hub])


def test_determinism_bit_identical_replay():
    g = make_topology("random_connected", 10, {"p": 0.5}, seed=2)
    t1 = _sim(g, scheduler="random", seed=9).run()
    t2 = _sim(g, scheduler="random", seed=9).run()
    assert t1.to_jsonl() == t2.to_jsonl()
    t3 = _sim(g, scheduler="random", seed=10).run()
    assert t1.to_jsonl() != t3.to_jsonl()


def test_determinism_check_tells_apart_a_non_recipient_copy():
    # the export drops the copies no receiver reads; the check compares
    # every row and send, so a replay that moved or lost one still diverges
    g = make_topology("complete", 6, seed=2)
    trace = run(ALGORITHMS["hybrid"].protocol(2, 1e-3), g, list(range(6)),
                fn=MaxFunction(64), seed=2)
    rows = trace.events
    i, ref = next((i, ref) for i, (k, _, _, ref) in enumerate(rows.rows())
                  if k == engine._ROW_LAND and rows.sends[ref][0].dst
                  is not None and len(rows.sends[ref][1]) > 1)
    msg, receivers = rows.sends[ref]
    other = next(nb for nb in receivers if nb != msg.dst)
    fewer = (msg, tuple(nb for nb in receivers if nb != other))

    def mutant(send, moved=False):
        """The trace with the send of `ref` replaced by `send`; `moved`
        adds a copy of it to `other` in a deliver row after the landing."""
        out = TraceRows()
        for j, row in enumerate(rows.rows()):
            if j in rows.values:
                out.values[len(out.kind)] = rows.values[j]
            for col, x in zip(out.columns, row):
                col.append(x)
            if moved and j == i:
                out.add("deliver", row[1] + 1e-3, other, ref)
        out.sends.update(rows.sends)
        out.sends[ref] = send
        return ExecutionTrace(
            events=out, outputs=trace.outputs, config=trace.config,
            timing=trace.timing, size_model=trace.size_model, graph=g,
            messages_total=trace.messages_total, bits_total=trace.bits_total,
            send_fanout=trace.send_fanout)

    assert trace_digest(mutant(rows.sends[ref])) == trace_digest(trace)
    for changed in (mutant(fewer), mutant(fewer, moved=True)):
        assert changed.to_jsonl() == trace.to_jsonl()
        assert trace_digest(changed) != trace_digest(trace)
    # a message compares by its fields; the export shows this change
    bigger = Message(msg.mtype, msg.src, msg.size_bits + 1, dst=msg.dst)
    assert trace_digest(mutant((bigger, receivers))) != trace_digest(trace)


def _digest_cases():
    g = make_topology("random_connected", 10, {"p": 0.4}, seed=3)
    yield run(ALGORITHMS["flooding"].protocol(2, 1e-3), g, list(range(10)),
              fn=MaxFunction(64), scheduler="random", seed=3)
    g = make_topology("complete", 6, seed=2)
    yield run(ALGORITHMS["hybrid"].protocol(2, 1e-3), g, list(range(6)),
              fn=MaxFunction(64), scheduler="lockstep", seed=2)


def _copy_trace(trace, relabel=lambda ref: ref):
    """The trace with copies of its rows, send table, fan-out and outputs
    that a test may change; `relabel` renames every ref."""
    rows, out = trace.events, TraceRows()
    for col, src in zip(out.columns[:3], rows.columns):
        col.extend(src)
    out.ref.extend(r if r == NO_REF else relabel(r) for r in rows.ref)
    out.sends.update((relabel(r), send) for r, send in rows.sends.items())
    out.values.update(rows.values)
    return dataclasses.replace(
        trace, events=out, outputs=dict(trace.outputs),
        send_fanout={relabel(r): f for r, f in trace.send_fanout.items()})


@pytest.mark.parametrize("trace", list(_digest_cases()),
                         ids=["flooding-random", "hybrid-lockstep"])
def test_trace_digest_sees_every_field(trace):
    base = trace_digest(trace)
    rows = trace.events
    assert trace_digest(_copy_trace(trace)) == base
    # refs renamed in their order: the same execution
    assert trace_digest(_copy_trace(trace, lambda r: 3 * r + 1000)) == base
    i = next(i for i in rows.indices_of(TRANSITION) if rows.ref[i] != NO_REF)
    ref = rows.ref[i]
    other = next(r for r in rows.sends if r != ref)
    msg, receivers = rows.sends[ref]
    uid = next(u for u in trace.graph.uids if u != rows.node[i])

    def column(name, value):
        return lambda c: getattr(c.events, name).__setitem__(i, value)

    def send(**fields):
        return lambda c: c.events.sends.__setitem__(
            ref, (dataclasses.replace(msg, **fields), receivers))

    def total(name):
        return lambda c: setattr(c, name, getattr(c, name) + 1)

    mutations = {
        "kind": column("kind", DELIVER),
        "time": column("t", rows.t[i] + 1e-9),
        "node": column("node", uid),
        "ref": column("ref", other),
        "mtype": send(mtype=msg.mtype + "x"),
        "size": send(size_bits=msg.size_bits + 1),
        "dst": send(dst=receivers[0] if msg.dst is None else None),
        "receivers": lambda c: c.events.sends.__setitem__(
            ref, (msg, receivers[1:])),
        "fanout": lambda c: c.send_fanout.__setitem__(
            ref, c.send_fanout[ref] + 1),
        "messages": total("messages_total"),
        "bits": total("bits_total"),
        "output": lambda c: c.outputs.__setitem__(uid, c.outputs[uid] + 1),
    }
    for name, mutate in mutations.items():
        changed = _copy_trace(trace)
        mutate(changed)
        assert trace_digest(changed) != base, name


def test_trace_digest_rejects_a_ref_with_no_send():
    trace = next(_digest_cases())
    changed = _copy_trace(trace)
    changed.events.ref[-1] = max(trace.events.sends) + 1
    with pytest.raises(TraceViolation, match="does not hold"):
        trace_digest(changed)


class DownClock(Protocol):
    """Outputs at start and pings once; notes the engine clock at every
    link-down transition."""

    name = "down-clock"

    def __init__(self):
        self.sim, self.downs = None, []

    def automaton(self, ctx):
        proto = self

        class Node(Automaton):
            def on_start(self):
                self.output = self.ctx.value
                return [Message("x.ping", self.ctx.uid,
                                self.ctx.size_model.size(n_uids=1))]

            def on_link_down(self, peer):
                proto.downs.append((self.ctx.uid, peer, proto.sim.now))
                return []

        return Node(ctx)


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
@pytest.mark.parametrize("rounds", [0.4, 1.0, 1.4, 1.5, 1.6, 2.0, 2.999])
def test_link_down_transitions_never_precede_the_failure(scheduler, rounds):
    g = make_topology("cycle", 6, seed=1)
    timing = TimingParams(d=0.01, l=0.001)
    proto = DownClock()
    proto.sim = sim = Simulation(proto, g, list(range(6)), fn=MaxFunction(32),
                                 timing=timing, scheduler=scheduler, seed=3)
    u, v = g.uids[0], g.uids[1]
    at = rounds * timing.d
    sim.schedule_link_down(u, v, at=at)
    trace = sim.run()
    assert sorted((a, b) for a, b, _ in proto.downs) == sorted([(u, v),
                                                                (v, u)])
    for _, _, t in proto.downs:
        assert at <= t <= at + max(timing.d, timing.l)
    # each node's first transition without a message is its start
    started, fired, rows = set(), [], trace.events
    for i in rows.indices_of(TRANSITION):
        if rows.ref[i] == NO_REF:
            if rows.node[i] in started:
                fired.append(rows.t[i])
            started.add(rows.node[i])
    assert fired == [t for _, _, t in proto.downs]


def test_single_node_runs_with_zero_messages():
    g = make_topology("path", 1, seed=0)
    trace = _sim(g).run()
    assert trace.outputs == {g.uids[0]: 1}
    assert not trace.events.sent()


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
    starts = sorted(t for t, msg in trace.events.sent()
                    if msg.src == g.uids[0])
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
        seen, sends = {}, trace.events.sends
        for t, node, ref in copies(trace.events):
            key = (sends[ref][0].src, node)
            assert seen.get(key, -1.0) <= t
            seen[key] = t


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

        def validate(self, graph, fn):
            raise AssertionError("validate ran before the engine's check")

    g = make_topology("path", 3, seed=0)
    with pytest.raises(NotHierarchical, match="picky"):
        Simulation(Picky(), g, [1, 2, 3], fn=MedianFunction(32))


class Answering(Automaton):
    def on_message(self, msg, src):
        return [Message("ping.answer", self.ctx.uid,
                        self.ctx.size_model.size())]


class RoundPing(Protocol):
    """Round-driven: each node broadcasts `per_node` messages at round 0 and
    outputs its value at round 1."""

    name = "round-ping"
    round_driven = True

    def __init__(self, per_node=1, automaton=Automaton):
        self.per_node = per_node
        self.automaton = automaton

    def on_round_boundary(self, automata, r, sim):
        if r > 0:
            for a in automata.values():
                a.output = a.ctx.value
            return True, []
        size = sim.size_model.size()
        return False, [(uid, Message("ping.round", uid, size))
                       for uid in sorted(automata)
                       for _ in range(self.per_node)]


def _round_ping(protocol, scheduler="lockstep"):
    g = make_topology("path", 3, seed=0)
    return run(protocol, g, [1, 2, 3], fn=MaxFunction(32),
               scheduler=scheduler, timing=TimingParams(d=0.01, l=0.001))


def _times(trace):
    """The times of the sends, and of the records that name a send."""
    rows = trace.events
    return ({rows.t[i] for i in rows.indices_of(SEND)},
            {t for k, t, _, ref in rows.rows() if k != SEND and ref != NO_REF})


def test_round_driven_broadcasts_land_at_the_next_boundary():
    trace = _round_ping(RoundPing())
    validate_trace(trace)
    assert sorted(trace.outputs.values()) == [1, 2, 3]
    assert trace.messages_total == 3 and sum(trace.send_fanout.values()) == 4
    assert _times(trace) == ({0.0}, {0.01})


def test_boundary_is_the_first_multiple_of_d_not_before():
    timing = TimingParams(d=0.01, l=0.001)
    assert timing.boundary(0.0) == 0.0
    assert timing.boundary(0.0137) == 0.02
    assert timing.boundary(0.02) == 0.02
    assert timing.boundary(0.01 + 0.01 + 0.01) == 3 * 0.01  # float rounding
    assert timing.boundary(0.0201) == 0.03


def test_round_driven_rounds_count_from_the_first_boundary():
    # started off the grid, the execution's first round is r = 0, at the
    # first boundary after the start, and its broadcasts land at the next
    seen = []

    class Counting(RoundPing):
        def on_round_boundary(self, automata, r, sim):
            seen.append((r, sim.now))
            return super().on_round_boundary(automata, r, sim)

    g = make_topology("path", 3, seed=0)
    trace = run(Counting(), g, [1, 2, 3], fn=MaxFunction(32),
                timing=TimingParams(d=0.01, l=0.001), start_time=0.0137)
    validate_trace(trace)
    assert seen == [(0, 0.02), (1, 0.03)]
    assert sorted(trace.outputs.values()) == [1, 2, 3]
    assert _times(trace) == ({0.02}, {0.03})


@pytest.mark.parametrize("scheduler", ["random", "adversarial"])
def test_round_driven_protocol_needs_lockstep(scheduler):
    with pytest.raises(ConfigError, match="round-ping only runs under"):
        _round_ping(RoundPing(), scheduler)


def test_round_delivery_answered_with_messages_is_rejected():
    with pytest.raises(InvariantViolation, match="answered a round delivery"):
        _round_ping(RoundPing(automaton=Answering))


def test_round_send_inside_earlier_window_is_rejected():
    # a second send in one round would start a round late and miss the
    # next boundary
    with pytest.raises(InvariantViolation,
                       match="round-0 send would start inside its earlier"):
        _round_ping(RoundPing(per_node=2))


def test_unknown_scheduler_rejected():
    g = make_topology("path", 3, seed=0)
    with pytest.raises(ConfigError, match="unknown scheduler 'chaotic'"):
        _sim(g, scheduler="chaotic")


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
@pytest.mark.parametrize("start", [float("nan"), float("inf"),
                                   -float("inf")])
def test_non_finite_start_time_rejected(start, scheduler):
    g = make_topology("path", 3, seed=0)
    with pytest.raises(ConfigError, match="start_time must be finite"):
        _sim(g, scheduler=scheduler, start_time=start)


def test_value_map_missing_a_node_rejected():
    g = make_topology("path", 3, seed=0)
    values = dict.fromkeys(g.uids[:2], 1)
    with pytest.raises(ConfigError, match="one initial value per node"):
        Simulation(PingProtocol(), g, values, fn=MaxFunction(32))


@pytest.mark.parametrize("count", [2, 4])
def test_value_list_of_the_wrong_length_rejected(count):
    g = make_topology("path", 3, seed=0)
    with pytest.raises(ConfigError, match="one initial value per node"):
        Simulation(PingProtocol(), g, [1] * count, fn=MaxFunction(32))


def test_value_map_naming_an_unknown_uid_rejected():
    g = make_topology("path", 3, seed=0)
    stranger = max(g.uids) + 1
    values = dict.fromkeys((*g.uids, stranger), 1)
    with pytest.raises(ConfigError, match="one initial value per node"):
        Simulation(PingProtocol(), g, values, fn=MaxFunction(32))


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
@pytest.mark.parametrize("at", [-5.0, float("nan"), float("inf"),
                                -float("inf"), 0.0199])
def test_hooks_reject_impossible_times(at, scheduler):
    # the execution starts at 0.02; a hook may not act before it, or never
    g = make_topology("cycle", 6, seed=1)
    sim = _sim(g, scheduler=scheduler, start_time=0.02)
    u, v = g.uids[0], g.uids[1]
    with pytest.raises(ConfigError, match="not finite or before start_time"):
        sim.schedule_link_down(u, v, at=at)
    with pytest.raises(ConfigError, match="not finite or before start_time"):
        sim.schedule_kick(u, "on_flush", at=at)
    sim.schedule_link_down(u, v, at=0.02)  # the start itself is a time
    sim.schedule_kick(u, "on_flush", at=0.02)
    validate_trace(sim.run())


def test_kick_of_an_unknown_method_is_rejected_when_scheduled():
    g = make_topology("cycle", 6, seed=1)
    sim = _sim(g)
    with pytest.raises(ConfigError, match="no automaton method"):
        sim.schedule_kick(g.uids[0], "no_such_method", at=0.05)
    with pytest.raises(ConfigError, match="no automaton method"):
        sim.schedule_kick(max(g.uids) + 1, "on_flush", at=0.05)
    # neither left a row or an entry behind: the run is the plain one
    assert sim.run().to_jsonl() == _sim(g).run().to_jsonl()


@pytest.mark.parametrize("u, v", [(99, 4), (4, 5), (4, 99), (4, 4)])
def test_link_down_of_a_pair_that_is_not_a_link_is_rejected(u, v):
    # P4 has uids 4, 1, 5, 2: an unknown node, a non-neighbour, a self pair
    g = make_topology("path", 4, seed=0)
    sim = _sim(g)
    with pytest.raises(ConfigError, match=f"no link {u}-{v} in the graph"):
        sim.schedule_link_down(u, v, at=0.005)
    assert sim.run().to_jsonl() == _sim(g).run().to_jsonl()


def test_a_second_run_is_rejected_and_the_first_trace_kept():
    g = make_topology("cycle", 6, seed=1)
    sim = _sim(g)
    trace = sim.run()
    exported = trace.to_jsonl()
    with pytest.raises(ConfigError, match="runs only once"):
        sim.run()
    assert trace.to_jsonl() == exported
    validate_trace(trace)


@pytest.mark.parametrize("cap", [0, -5])
def test_event_cap_below_one_rejected(cap):
    g = make_topology("path", 3, seed=0)
    with pytest.raises(ConfigError, match="event cap"):
        _sim(g, event_cap=cap)


def _assert_on_grid(trace):
    """Every record time is exactly k * d, the float product, for an
    integer k: ticks convert to these seconds with one multiplication."""
    d = trace.timing.d
    times = trace.events.t
    assert times
    assert all(t == round(t / d) * d for t in times)


@pytest.mark.parametrize("scheduler", ["lockstep", "adversarial"])
@pytest.mark.parametrize("n", [9, 17])
@pytest.mark.parametrize("kind", TOPOLOGY_KINDS)
def test_quantized_record_times_are_multiples_of_d(kind, n, scheduler):
    g = make_topology(kind, n, seed=n)
    for algo in sorted(ALGORITHMS):
        if algo == "average" and scheduler != "lockstep":
            continue  # round-driven: lockstep only
        fn = MeanFunction(128) if algo == "average" else MaxFunction(64)
        _assert_on_grid(run(ALGORITHMS[algo].protocol(3, 1e-3), g,
                            [(7 * i + 1) % 19 for i in range(n)], fn=fn,
                            scheduler=scheduler, seed=n,
                            timing=TimingParams(d=0.01, l=0.001)))


@pytest.mark.parametrize("scheduler", ["lockstep", "adversarial"])
@pytest.mark.parametrize("n", [9, 17])
def test_quantized_failure_traces_are_multiples_of_d(n, scheduler):
    g = make_topology("complete", n, seed=4)
    exp = FailureExperiment(g, list(range(n)), MaxFunction(64), 3,
                            timing=TimingParams(d=0.01, l=0.001), seed=4,
                            scheduler=scheduler)
    child = next(u for u, a in sorted(exp.automata.items())
                 if a.parent is not None)
    # a failure off the grid: the transitions it enables wait for a boundary
    exp.fail_link((child, exp.automata[child].parent),
                  at=exp.initial_trace.last_time() + 0.0137)
    exp.reconsensus()
    for trace in (exp.initial_trace, exp.repair_trace, exp.rerun_trace):
        _assert_on_grid(trace)


def _keys(line):
    return [part.split(":")[0].strip(' {"') for part in line.split(",")]


def test_trace_jsonl_schema_field_order():
    g = make_topology("path", 2, seed=0)
    trace = _sim(g).run()
    fields = ["kind", "t", "node", "msg_type", "size_bits", "src"]
    first_send = next(ln for ln in _schema1(trace.events).splitlines()
                      if '"kind": "send"' in ln)
    assert _keys(first_send) == fields
    # schema 3 keeps that order for a send and appends its fan-out; any
    # other record has kind, t and node, and a ref if it has a message
    lines = trace.to_jsonl().splitlines()
    assert _keys(lines[0])[:2] == ["kind", "schema"]
    keys = {tuple(_keys(ln)) for ln in lines[1:]}
    assert keys == {tuple(fields + ["fanout"]), ("kind", "t", "node", "ref"),
                    ("kind", "t", "node")}


# -- validate_trace on hand-built traces ---------------------------------------

PATH2 = make_topology("path", 2, seed=0)


def _hand_trace(sends, d=0.01):
    """sends: (send time, delivery delay or None[, transition latency[,
    dst tag]]) from one node of a 2-node path; each send expects one
    delivery, and a latency adds the receiver's transition on it.  A
    rows_of record, (kind, t, node, ...), among them is placed by hand: it
    follows the sends' records, in the order given."""
    a, b = PATH2.uids
    placed = [s for s in sends if isinstance(s[0], str)]
    sends = [s for s in sends if not isinstance(s[0], str)]
    records = []
    for ref, (t, delay, *rest) in enumerate(sends):
        msg = Message("x.msg", a, 8, dst=rest[1] if len(rest) > 1 else None)
        records.append(("send", t, a, ref, msg))
        if delay is not None:
            records.append(("deliver", t + delay, b, ref))
        for lat in rest[:1]:
            records.append(("transition", t + (delay or 0.0) + lat, b, ref))
    records.sort(key=lambda r: r[1])
    return ExecutionTrace(events=rows_of(*records, *placed), outputs={},
                          config={}, timing=TimingParams(d=d, l=d / 10),
                          size_model=SizeModel(uid_bits=2, value_bits=8),
                          graph=PATH2,
                          send_fanout={ref: 1 for ref in range(len(sends))},
                          messages_total=len(sends), bits_total=8 * len(sends))


def test_validate_trace_accepts_tiny_random_delay():
    # the random scheduler draws delays from (0, d]; this one came from a
    # real run
    validate_trace(_hand_trace([(0.0, 2.79e-10, 0.0)]))


@pytest.mark.parametrize("sends, text", [
    ([(0.0, 0.0101)], "outside (0, d]"),
    ([(0.0, 0.0)], "outside (0, d]"),
    ([(0.0, 0.004), (0.005, 0.004)], "inside an earlier window"),
    ([(0.0, None)], "delivered 0/1 times"),
    ([(0.0, 0.004, 0.0), (0.01, None, 0.0005)], "it never got"),
    # the copy reached the receiver, but the send is tagged for its sender
    ([(0.0, 0.004, 0.0, PATH2.uids[0])], "it never got as a recipient"),
    ([(0.01, 0.004), ("output", 0.0, PATH2.uids[0], 1)],
     "out of chronological order"),
    # a copy whose ref names no send: its message is written under the ref
    ([(0.0, 0.004), ("deliver", 0.005, PATH2.uids[1], 7,
                     Message("x.msg", PATH2.uids[0], 8))],
     "references an unknown send"),
    ([(0.0, 0.004, 0.002)], "exceeds l"),
    ([(0.0, 0.004), ("output", 0.005, PATH2.uids[1], 1),
      ("output", 0.006, PATH2.uids[1], 1)], "output twice"),
    # one delivered copy, two transitions on it
    ([(0.0, 0.004, 0.0), ("transition", 0.0045, PATH2.uids[1], 0)],
     "or twice"),
    ([(0.0, 0.004, 0.0), ("transition", 0.0045, PATH2.uids[1], 7,
                          Message("x.msg", PATH2.uids[0], 8))],
     "transition references an unknown send"),
    # a second copy of the send at the receiver before it reacts, and one
    # after it did
    ([(0.0, 0.004), ("deliver", 0.0045, PATH2.uids[1], 0)],
     f"node {PATH2.uids[1]} got node {PATH2.uids[0]}'s send at t=0.0 twice"),
    ([(0.0, 0.004, 0.0), ("deliver", 0.005, PATH2.uids[1], 0)],
     f"node {PATH2.uids[1]} got node {PATH2.uids[0]}'s send at t=0.0 twice"),
    ([(0.0, 0.004)],
     f"node {PATH2.uids[1]} never reacted to node {PATH2.uids[0]}'s send"),
    # a send that the totals do not count
    ([(0.0, 0.004, 0.0), ("send", 0.02, PATH2.uids[0], 5,
                          Message("x.msg", PATH2.uids[0], 8))],
     "2 sends of 16 bits recorded, the totals count 1 of 8"),
])
def test_validate_trace_rejects(sends, text):
    trace = _hand_trace(sends)
    with pytest.raises(AssertionError, match=re.escape(text)):
        validate_trace(trace)
    # its file fails the same check with the same message
    with pytest.raises(AssertionError, match=re.escape(text)):
        validate_trace(ExecutionTrace.from_jsonl(
            trace.to_jsonl().splitlines()))


def test_validate_trace_rejects_a_second_copy_that_replaces_a_missing_one():
    # the fan-out count holds: one receiver got the send again after it
    # reacted to it, and the other receiver never got it
    g = make_topology("star", 3, seed=0)
    hub = next(u for u in g.uids if g.degree(u) == 2)
    leaf = g.adj[hub][0]
    records = [("send", 0.0, hub, 0, Message("x.msg", hub, 8))]
    for t in (0.004, 0.006):
        records += [("deliver", t, leaf, 0),
                    ("transition", t + 0.0005, leaf, 0)]
    trace = ExecutionTrace(events=rows_of(*records), outputs={}, config={},
                           timing=TimingParams(d=0.01, l=0.001),
                           size_model=SizeModel(uid_bits=2, value_bits=8),
                           graph=g, send_fanout={0: 2}, messages_total=1,
                           bits_total=8)
    text = f"node {leaf} got node {hub}'s send at t=0.0 twice"
    with pytest.raises(AssertionError, match=re.escape(text)):
        validate_trace(trace)
    with pytest.raises(AssertionError, match=re.escape(text)):
        validate_trace(ExecutionTrace.from_jsonl(
            trace.to_jsonl().splitlines()))


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_a_run_before_time_zero_validates_in_memory_and_as_a_file(scheduler):
    # the duplicate-copy check compares send starts, which may be negative
    g = make_topology("cycle", 6, seed=1)
    trace = _sim(g, scheduler=scheduler, start_time=-5.0).run()
    validate_trace(trace)
    copy = ExecutionTrace.from_jsonl(trace.to_jsonl().splitlines())
    validate_trace(copy)
    assert report_from_trace(copy).messages == trace.messages_total > 0


def test_validate_trace_rejects_late_delivery_at_small_d():
    # the tolerance scales with d: an absolute 1e-9 s would let this
    # delivery, 1.5 d after its send, pass
    with pytest.raises(AssertionError, match=re.escape("outside (0, d]")):
        validate_trace(_hand_trace([(0.0, 1.5e-10)], d=1e-10))


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


# -- the JSONL export against a plain json.dumps of every record ---------------

def _schema1(events):
    """The schema-1 rendering: every record, every copy included."""
    return "\n".join(json.dumps(e.to_record()) for e in events) + "\n"


def _header(trace):
    cfg, sm, g = trace.config, trace.size_model, trace.graph
    return {"kind": "header", "schema": 3, "protocol": cfg.get("protocol"),
            "algo": cfg.get("algo", cfg.get("protocol")),
            "scheduler": cfg.get("scheduler"), "seed": cfg.get("seed", 0),
            "start_time": cfg.get("start_time", 0.0), "fn": cfg.get("fn"),
            "m": cfg.get("m"), "topology": g.kind, "n": g.n,
            "uids": list(g.uids), "edges": sorted(g.edges),
            "b": sm.value_bits, "d": trace.timing.d, "l": trace.timing.l,
            "size_model": {"uid_bits": sm.uid_bits,
                           "value_bits": sm.value_bits, "flag_bits": 8},
            "messages": trace.messages_total, "bits": trace.bits_total}


def _reference_jsonl(trace):
    """Schema 3 from the Event view: the header, then each send's schema-1
    line with its fan-out appended, and every other record as its kind, t
    and node, plus for a copy or a message transition the ordinal of its
    send; the copies of a tagged message to nodes other than its dst are
    left out."""
    events = list(trace.events)
    lines, ordinal, sent = [json.dumps(_header(trace))], {}, 0
    for e, line in zip(events, _schema1(events).splitlines()):
        rec = {"kind": e.kind, "t": e.t, "node": e.node}
        if e.kind == "send":
            if e.ref is not None:
                ordinal[e.ref] = sent
            sent += 1
            lines.append(line[:-1] + ', "fanout": %s}' % json.dumps(
                trace.send_fanout.get(e.ref)))
            continue
        if e.kind == "deliver" and e.msg.dst not in (None, e.node):
            continue
        if e.kind == "deliver" or e.kind == "transition" and e.ref is not None:
            rec["ref"] = ordinal.get(e.ref)
        lines.append(json.dumps(rec))
    return "\n".join(lines) + "\n"


def _assert_export_matches(trace):
    expected = _reference_jsonl(trace)
    assert trace.to_jsonl() == expected
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(engine, "_JSONL_CHUNK", 7)  # many chunk boundaries
        assert trace.to_jsonl() == expected


def _algorithm_scheduler_cases():
    for algo in sorted(ALGORITHMS):
        # averaging is round-driven and runs under lockstep only
        scheds = ["lockstep"] if algo == "average" else sorted(SCHEDULERS)
        yield from ((algo, s) for s in scheds)


@pytest.mark.parametrize("algo, scheduler", _algorithm_scheduler_cases())
def test_export_matches_json_dumps_per_record(algo, scheduler):
    g = make_topology("random_connected", 12, {"p": 0.3}, seed=5)
    fn = MeanFunction(128) if algo == "average" else MaxFunction(64)
    trace = run(ALGORITHMS[algo].protocol(3, 1e-3), g,
                [(5 * i + 2) % 23 for i in range(12)], fn=fn,
                scheduler=scheduler, seed=5,
                timing=TimingParams(d=0.01, l=0.001))
    _assert_export_matches(trace)


@pytest.mark.parametrize("start", [0.0, 0.0137])  # on and off the grid
@pytest.mark.parametrize("algo, scheduler", _algorithm_scheduler_cases())
def test_from_jsonl_restores_the_header(algo, scheduler, start):
    g = make_topology("random_connected", 12, {"p": 0.3}, seed=5)
    fn = MeanFunction(128) if algo == "average" else MaxFunction(64)
    trace = run(ALGORITHMS[algo].protocol(3, 1e-3), g,
                [(5 * i + 2) % 23 for i in range(12)], fn=fn,
                scheduler=scheduler, seed=5, start_time=start,
                timing=TimingParams(d=0.01, l=0.003))
    copy = ExecutionTrace.from_jsonl(trace.to_jsonl().splitlines())
    for k in ("timing", "size_model", "graph", "messages_total",
              "bits_total"):
        assert getattr(copy, k) == getattr(trace, k), k
    assert copy.config == dict(trace.config, algo=trace.config["protocol"])


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_export_matches_json_dumps_on_failure_traces(scheduler):
    g = make_topology("complete", 8, seed=2)
    exp = FailureExperiment(g, list(range(8)), MaxFunction(64), 2,
                            timing=TimingParams(d=0.01, l=0.001), seed=2,
                            scheduler=scheduler)
    child = next(u for u, a in sorted(exp.automata.items())
                 if a.parent is not None)
    exp.fail_link((child, exp.automata[child].parent))
    exp.reconsensus()
    for trace in (exp.initial_trace, exp.repair_trace, exp.rerun_trace):
        assert trace.events.kind
        _assert_export_matches(trace)
    # the initial consensus has tagged messages, whose other copies go
    assert exp.initial_trace.to_jsonl().count('"deliver"') < sum(
        1 for _ in copies(exp.initial_trace.events))


def test_export_of_lean_and_empty_traces():
    g = make_topology("cycle", 6, seed=1)
    lean = _sim(g, record_events=False).run()
    assert set(lean.events.kind) == {OUTPUT}
    _assert_export_matches(lean)
    lean.events = rows_of()
    assert _schema1(lean.events) == "\n"
    assert lean.to_jsonl() == json.dumps(_header(lean)) + "\n"
    _assert_export_matches(lean)


def test_export_of_hand_built_records():
    # floats whose repr is long or exponent-form, zeros of both signs, which
    # compare equal, a dst of 0, and an mtype that needs escaping and
    # carries a %-format directive
    msg = Message('x."q"\\%s\n\u00e9', 0, 9, dst=0)
    rows = rows_of(("send", 1e-05, 0, 1, msg), ("deliver", 0.1 + 0.2, 3, 1),
                   ("transition", 1e16, 3, 1), ("transition", 0.0, 5),
                   ("transition", -0.0, 5), ("transition", 0.0, 5),
                   ("output", 2, 3, 7),
                   # copies whose refs name no send
                   ("deliver", 0.5, 0, 2, Message("y", 3, 8, dst=0)),
                   ("deliver", 0.5, 0, 3, Message("y", 3, 8)))
    trace = ExecutionTrace(events=rows, outputs={}, config={},
                           timing=TimingParams(), graph=PATH2,
                           size_model=SizeModel(uid_bits=2, value_bits=8),
                           messages_total=1, bits_total=9)
    _assert_export_matches(trace)


def test_export_formats_build_the_json_once_per_type_and_size(monkeypatch):
    # a send's JSON is built once per message type and size, whatever its
    # sender and dst, so the sends of a trace, and of the traces after it,
    # share it; no other record has one
    engine._send_format.cache_clear()
    dumps, built = json.dumps, []
    monkeypatch.setattr(engine.json, "dumps",
                        lambda obj: built.append(obj) or dumps(obj))
    g = make_topology("complete", 6, seed=1)
    trace = run(ALGORITHMS["hybrid"].protocol(2, 1e-3), g, list(range(6)),
                fn=MaxFunction(64), seed=1)
    for _ in range(2):
        trace.to_jsonl()
    sent = [msg for _, msg in trace.events.sent()]
    fields = {(msg.mtype, msg.size_bits) for msg in sent}
    assert len({(msg.mtype, msg.size_bits, msg.src, msg.dst)
                for msg in sent}) > len({(msg.mtype, msg.size_bits, msg.src)
                                         for msg in sent}) > len(fields)
    assert len([obj for obj in built if "kind" not in obj]) == len(fields)


def test_export_format_cache_holds_a_format_per_type_and_size():
    # K100's sends come from 100 senders; keyed by sender, they would miss
    # the cache once per (type, size, sender)
    engine._send_format.cache_clear()
    g = make_topology("complete", 100, seed=3)
    trace = run(ALGORITHMS["hybrid"].protocol(2, 1e-3), g, list(range(100)),
                fn=MaxFunction(64), seed=3)
    for _ in trace.jsonl_chunks():
        pass
    pairs = {(msg.mtype, msg.size_bits) for _, msg in trace.events.sent()}
    assert engine._send_format.cache_info().currsize <= len(pairs)


@pytest.mark.parametrize("fail", [False, True])
def test_cli_trace_file_equals_to_jsonl(tmp_path, capsys, fail):
    argv = ["run", "--algo", "hybrid", "--m", "2", "--topo", "complete",
            "--n", "6", "--fn", "max", "--seed", "3"]
    if fail:
        u, v = sorted(make_topology("complete", 6, seed=3).edges)[0]
        argv += ["--fail", f"{u},{v}"]
    _rows, trace = _single_report(build_parser(0).parse_args(argv))
    path = tmp_path / "trace.jsonl"
    assert cli_main(argv + ["--trace", str(path)]) == 0
    capsys.readouterr()
    assert path.read_text() == trace.to_jsonl() == _reference_jsonl(trace)


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_export_pieces_are_bounded_by_records(scheduler, monkeypatch):
    # a landing row stands for a whole fan-out: a piece may overrun the
    # chunk by less than one fan-out, never by a whole chunk of rows
    monkeypatch.setattr(engine, "_JSONL_CHUNK", 7)
    g = make_topology("complete", 9, seed=1)
    trace = run(ALGORITHMS["hybrid"].protocol(2, 1e-3), g, list(range(9)),
                fn=MaxFunction(64), scheduler=scheduler, seed=1)
    fanout = max(trace.send_fanout.values())
    pieces = list(trace.jsonl_chunks())
    sizes = [piece.count("\n") for piece in pieces]
    assert all(piece.endswith("\n") for piece in pieces)
    assert all(7 <= k < 7 + fanout for k in sizes[:-1])
    assert 0 < sizes[-1] < 7 + fanout
    assert "".join(pieces) == _reference_jsonl(trace)


_EXPORT_PEAK = """
import tracemalloc
from consim.algorithms import ALGORITHMS
from consim.engine import run
from consim.functions import MaxFunction
from consim.topology import make_topology
g = make_topology("random_connected", 55, {"p": 0.2}, seed=1)
trace = run(ALGORITHMS["flooding"].protocol(2, 1e-3), g, list(range(55)),
            fn=MaxFunction(64), scheduler="random", seed=1)
tracemalloc.start()
before = tracemalloc.get_traced_memory()[0]
exported = trace.to_jsonl()
peak = tracemalloc.get_traced_memory()[1]
print(peak - before, len(exported), exported.count("\\n"))
"""


def test_export_string_is_held_once():
    # to_jsonl appends each piece to the one string it returns, so the
    # export is never held twice: the pieces are small next to it.  A
    # tracer or profiler turns CPython 3.11's in-place append off, so the
    # export is measured in a fresh interpreter, which none is tracing.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", _EXPORT_PEAK], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    peak, length, lines = map(int, proc.stdout.split())
    assert peak <= 1.5 * length
    assert lines >= 10 * engine._JSONL_CHUNK  # pieces


# -- the column store and its Event view --------------------------------------

@pytest.mark.parametrize("algo, scheduler", _algorithm_scheduler_cases())
def test_event_view_agrees_with_its_expansion(algo, scheduler):
    g = make_topology("random_connected", 9, {"p": 0.4}, seed=4)
    fn = MeanFunction(128) if algo == "average" else MaxFunction(64)
    trace = run(ALGORITHMS[algo].protocol(2, 1e-3), g, list(range(9)),
                fn=fn, scheduler=scheduler, seed=4,
                timing=TimingParams(d=0.01, l=0.001))
    view = trace.events
    # a row names its message by its ref alone
    assert view.columns == (view.kind, view.t, view.node, view.ref)
    expanded = list(view)
    n = len(expanded)
    assert len(view) == n > 0
    if scheduler != "random":  # every landing is one row
        assert len(trace.events.kind) < n
    assert [view[i] for i in range(n)] == expanded
    assert [view[i] for i in range(-n, 0)] == expanded
    assert view[-1] == expanded[-1]
    for bad in (n, -n - 1):
        with pytest.raises(IndexError):
            view[bad]
    # slices that start and stop inside landings and across their ends
    starts = sorted(set(trace.events.starts()))
    for a, b in zip(starts, starts[2:]):
        for lo, hi in ((a, b), (a + 1, b - 1), (a - 1, b + 1), (b - 1, a)):
            assert view[lo:hi] == expanded[lo:hi]
    for s in (slice(None), slice(-5, None), slice(None, None, 3),
              slice(None, None, -2), slice(n, None)):
        assert view[s] == expanded[s]


def test_a_trace_row_costs_17_bytes():
    # kind 1, t 8, node 4 and ref 4
    g = make_topology("random_connected", 12, {"p": 0.4}, seed=1)
    rows = run(ALGORITHMS["flooding"].protocol(2, 1e-3), g, list(range(12)),
               fn=MaxFunction(64), scheduler="random", seed=1).events
    assert sum(getattr(c, "itemsize", 1) for c in rows.columns) == 17
    assert (sum(memoryview(c).nbytes for c in rows.columns)
            == 17 * len(rows.kind) > 0)


_EDGE_UIDS = (-(1 << 31), (1 << 31) - 1)


@pytest.mark.parametrize("record", [True, False])
@pytest.mark.parametrize("uid", [1 << 31, -(1 << 31) - 1])
def test_a_uid_outside_32_bits_is_a_configuration_error(uid, record):
    # a lean run writes its output rows' nodes too
    g = Graph((0, uid), frozenset({edge_weight(0, uid)}))
    with pytest.raises(ConfigError, match=f"uid {uid} does not fit"):
        Simulation(ALGORITHMS["flooding"].protocol(2, 1e-3), g, [1, 2],
                   fn=MaxFunction(8), record_events=record)


def test_uids_at_the_32_bit_ends_run_and_read_back():
    g = Graph(_EDGE_UIDS, frozenset({_EDGE_UIDS}))
    trace = run(ALGORITHMS["flooding"].protocol(2, 1e-3), g, [1, 2],
                fn=MaxFunction(8), scheduler="random", seed=1)
    text = trace.to_jsonl()
    back = ExecutionTrace.from_jsonl(text.splitlines())
    validate_trace(back)
    assert back.to_jsonl() == text


def test_a_recorded_send_past_the_32_bit_ref_column_is_refused():
    g = make_topology("path", 3, seed=1)
    sims = [Simulation(ALGORITHMS["flooding"].protocol(2, 1e-3), g,
                       [1, 2, 3], fn=MaxFunction(8), record_events=record)
            for record in (True, False)]
    for sim in sims:
        sim._seq = (1 << 31) - 3
    with pytest.raises(NonTermination, match=f"passes {(1 << 31) - 1}"):
        sims[0].run()
    # a lean run records no ref: its numbers are unbounded Python ints
    assert sims[1].run().outputs == {u: 3 for u in g.uids}


def test_event_view_counts_rows_appended_after_a_read():
    rows = rows_of(("transition", 0.0, 1))
    assert len(rows) == 1
    rows.add("transition", 0.1, 1)
    assert len(rows) == len(list(rows)) == 2
    assert rows[-1].t == 0.1


@pytest.mark.parametrize("events", [[], [Event("output", 0.0, 0, value=1)],
                                    None])
def test_a_trace_holds_only_trace_rows(events):
    # records are written through TraceRows' writers; a list fails here,
    # not later inside the export or the metrics
    with pytest.raises(ConfigError, match="TraceRows"):
        ExecutionTrace(events=events, outputs={}, config={},
                       timing=TimingParams(), size_model=SizeModel(2, 8),
                       graph=PATH2, messages_total=0, bits_total=0)


def _live_events():
    gc.collect()
    return sum(type(o) is Event for o in gc.get_objects())


def test_recorded_run_keeps_no_event_objects():
    before = _live_events()
    g = make_topology("complete", 20, seed=1)
    trace = run(ALGORITHMS["hybrid"].protocol(2, 1e-3), g, list(range(20)),
                fn=MaxFunction(64), scheduler="lockstep", seed=1)
    assert _live_events() == before
    assert len(trace.events) > 10_000  # the records are all there


# -- a finished execution is freed by reference counting alone ---------------

@pytest.fixture
def no_cycle_collector():
    was_enabled = gc.isenabled()
    gc.disable()
    yield
    if was_enabled:
        gc.enable()


@pytest.mark.parametrize("algo, scheduler", _algorithm_scheduler_cases())
def test_finished_simulation_is_not_a_reference_cycle(algo, scheduler,
                                                      no_cycle_collector):
    g = make_topology("random_connected", 9, {"p": 0.4}, seed=3)
    fn = MeanFunction(128) if algo == "average" else MaxFunction(64)
    sim = Simulation(ALGORITHMS[algo].protocol(2, 1e-3), g, list(range(9)),
                     fn=fn, scheduler=scheduler, seed=3)
    trace = sim.run()
    ref = weakref.ref(sim)
    del sim
    assert ref() is None
    assert len(trace.outputs) == 9  # the trace outlives its execution


@pytest.mark.parametrize("scheduler", ["lockstep", "random"])
def test_failure_experiment_executions_are_not_reference_cycles(
        scheduler, no_cycle_collector):
    g = make_topology("complete", 8, seed=2)
    exp = FailureExperiment(g, list(range(8)), MaxFunction(64), 2, seed=2,
                            scheduler=scheduler)
    refs = [weakref.ref(exp.sim)]
    child = next(u for u, a in sorted(exp.automata.items())
                 if a.parent is not None)
    exp.fail_link((child, exp.automata[child].parent))
    refs.append(weakref.ref(exp.sim))
    exp.reconsensus()
    refs.append(weakref.ref(exp.sim))
    del exp
    assert [r() for r in refs] == [None, None, None]
