"""The wire table: every message type a shipped protocol sends is declared
in `messages.WIRE`, each is declared there once, and a message of any other
type is refused, both by `NodeContext.message` and by the protocols, whose
`HANDLERS` tables route exactly the types they are sent."""

import itertools

import pytest

from consim.algorithms import ALGORITHMS
from consim.engine import SCHEDULERS, Simulation, TimingParams, run
from consim.errors import InvariantViolation, WouldDisconnect
from consim.functions import MaxFunction, get_function
from consim.ghs import (GhsAutomaton, GhsMstProtocol, GhsParallelAutomaton,
                        GhsParallelProtocol, GhsTokenAutomaton,
                        GhsTokenProtocol, ParallelConvergecastProtocol,
                        TokenConvergecastProtocol, root_tree)
from consim.hybrid import FailureExperiment, HybridAutomaton, HybridProtocol
from consim.messages import (EPOCH_BITS, WIRE, Message, SizeModel,
                             uid_bits_for_pool)
from consim.topology import TOPOLOGY_KINDS, fail_link, make_topology

TIMING = TimingParams(d=0.01, l=0.001)
PATH4 = make_topology("path", 4, seed=0)
# (kind, n, p, seed, m): between them, failing each of their edges sends
# every recovery message type
FAILURE_GRAPHS = (("random_connected", 10, 0.3, 0, 2),
                  ("random_connected", 10, 0.3, 2, 3),
                  ("random_connected", 14, 0.3, 1, 2),
                  ("cycle", 12, None, 13, 4),
                  ("complete", 9, None, 3, 3))


def _single_runs():
    """The registry algorithms and MST construction alone on every topology
    kind, and both convergecasts over a random tree."""
    for kind in TOPOLOGY_KINDS:
        g = make_topology(kind, 17, {"p": 0.35}, seed=17)
        values = [(7 * i + 3) % 41 for i in range(17)]
        for sched in sorted(SCHEDULERS):
            for algo in sorted(ALGORITHMS):
                if algo == "average" and sched != "lockstep":
                    continue
                fn = get_function("mean" if algo == "average" else "max", 128)
                yield run(ALGORITHMS[algo].protocol(3, 1e-3), g, values,
                          fn=fn, timing=TIMING, scheduler=sched, seed=17)
            yield run(GhsMstProtocol(), g, values, fn=None, timing=TIMING,
                      scheduler=sched, seed=17)
    t = make_topology("random_tree", 14, seed=1)
    for make in (ParallelConvergecastProtocol, TokenConvergecastProtocol):
        yield run(make(root_tree(t, max(t.uids))), t, list(range(14)),
                  fn=MaxFunction(64), timing=TIMING)


def _failure_runs():
    """Hybrid failure experiments, one per breakable edge."""
    for kind, n, p, seed, m in FAILURE_GRAPHS:
        g = make_topology(kind, n, {"p": p} if p else {}, seed=seed)
        values = [(5 * i + 2) % 37 for i in range(n)]
        for edge in sorted(g.edges):
            try:
                fail_link(g, edge)
            except WouldDisconnect:
                continue
            exp = FailureExperiment(g, values, MaxFunction(64), m,
                                    timing=TIMING, seed=seed)
            exp.fail_link(edge)
            exp.reconsensus()
            yield from (exp.initial_trace, exp.repair_trace, exp.rerun_trace)


@pytest.fixture(scope="module")
def sent():
    """Protocol name -> the message types its executions send."""
    sent: dict = {}
    for trace in itertools.chain(_single_runs(), _failure_runs()):
        sent.setdefault(trace.config["protocol"], set()).update(
            msg.mtype for _, msg in trace.events.sent())
    return sent


def test_the_wire_table_declares_exactly_the_types_the_protocols_send(sent):
    assert sorted(WIRE) == sorted(set().union(*sent.values()))
    assert len(WIRE) == 49


@pytest.mark.parametrize("automaton, protocols", [
    (GhsAutomaton, ("ghs-mst",)),
    (HybridAutomaton, ("hybrid",)),
    (GhsParallelAutomaton, ("ghs-parallel",)),
    (GhsTokenAutomaton, ("ghs-token",)),
])
def test_an_automaton_routes_exactly_the_types_it_is_sent(sent, automaton,
                                                           protocols):
    received = set().union(*(sent[name] for name in protocols))
    assert set(automaton.HANDLERS) <= set(WIRE)
    assert sorted(automaton.HANDLERS) == sorted(received)


def test_a_size_model_turns_the_table_into_fixed_and_per_item_bits():
    sm = SizeModel(uid_bits=5, value_bits=64)
    assert set(sm.wire) == set(WIRE)
    assert sm.wire["ghs.report"] == (8 + 3 * 5, 0)
    assert sm.wire["p4.values"] == (8 + 3 * 5 + EPOCH_BITS, 2 * 5 + 64)
    assert sm.wire["flood.relay"] == (8, 5 + 64)
    for mtype, (fixed, per_item) in sm.wire.items():
        uids, values, extra, *item = WIRE[mtype]
        assert fixed == 8 + 5 * uids + 64 * values + extra, mtype
        assert item in ([], [1, 0], [1, 1], [2, 1]), mtype
        assert per_item == (5 * item[0] + 64 * item[1] if item else 0), mtype


def test_sizes_must_be_positive():
    with pytest.raises(ValueError, match="message size must be positive"):
        Message("ghs.accept", 1, 0)
    with pytest.raises(ValueError, match="message size must be positive"):
        Message("ghs.accept", 1, -8)
    for fields in ({"uid_bits": 0, "value_bits": 8},
                   {"uid_bits": 4, "value_bits": -1}):
        with pytest.raises(ValueError, match="must be positive"):
            SizeModel(**fields)
    assert uid_bits_for_pool(1) == 1  # one UID still takes a bit
    assert uid_bits_for_pool(2) == 1


def test_a_message_of_an_undeclared_type_is_refused():
    g = make_topology("path", 3, seed=0)
    sim = Simulation(GhsMstProtocol(), g, [0, 0, 0], fn=None, timing=TIMING)
    ctx = sim.automata[g.uids[0]].ctx
    assert ctx.message("ghs.accept", dst=g.uids[1]).size_bits == \
        sim.size_model.size(n_uids=1)
    with pytest.raises(InvariantViolation, match="'ghs.bogus'"):
        ctx.message("ghs.bogus")


@pytest.mark.parametrize("protocol, mtype, text", [
    (GhsMstProtocol(), "ghs.bogus", "unknown message ghs.bogus"),
    (HybridProtocol(2), "p2.bogus", "unknown message p2.bogus"),
    (HybridProtocol(2), "p3.bogus", "unknown message p3.bogus"),
    (HybridProtocol(2), "pf.bogus", "unknown message pf.bogus"),
    # another protocol's type, and a type of no protocol
    (HybridProtocol(2), "token.ack", "unknown message token.ack"),
    (HybridProtocol(2), "ghs.test", "unknown message ghs.test"),
    (GhsMstProtocol(), "agg.report", "unknown message agg.report"),
    (GhsMstProtocol(), "x.y", "unknown message x.y"),
    # each pipeline routes only its own aggregation's types
    (GhsParallelProtocol(), "token.compute", "unknown message token.compute"),
    (GhsTokenProtocol(), "agg.report", "unknown message agg.report"),
    (GhsTokenProtocol(), "ghs.rooted", "unknown message ghs.rooted"),
    (ParallelConvergecastProtocol(root_tree(PATH4, PATH4.uids[0])), "x.y",
     "unknown message x.y"),
])
def test_a_protocol_refuses_a_message_type_it_does_not_handle(protocol, mtype,
                                                              text):
    g = make_topology("path", 4, seed=0)
    sim = Simulation(protocol, g, [1, 2, 3, 4], fn=MaxFunction(64),
                     timing=TIMING)
    u, v = g.uids[:2]
    msg = Message(mtype, v, sim.size_model.size(n_uids=1))
    with pytest.raises(InvariantViolation, match=text):
        sim.automata[u].on_message(msg, v)
