"""Replay pins: `trace_digest` of a few fixed executions, or for a case of
several traces one SHA-256 over theirs.  A refactor that keeps these pins
produces the same executions; a change that alters them must say why and
re-pin."""

import hashlib

import pytest

from consim.averaging import AverageProtocol
from consim.engine import (Automaton, Protocol, Simulation, TimingParams, run,
                           trace_digest)
from consim.errors import InvariantViolation, NonTermination, WouldDisconnect
from consim.flooding import FloodingProtocol
from consim.functions import MaxFunction, MeanFunction
from consim.ghs import (GhsMstProtocol, GhsParallelProtocol, GhsTokenProtocol,
                        ParallelConvergecastProtocol, TokenConvergecastProtocol,
                        root_tree)
from consim.hybrid import FailureExperiment
from consim.messages import Message
from consim.topology import fail_link, make_topology
from rows import copies

TIMING = TimingParams(d=0.01, l=0.001)


def pin(traces):
    """The SHA-256 of the traces' trace_digests, in order."""
    return hashlib.sha256(" ".join(map(trace_digest, traces)).encode()
                          ).hexdigest()


def _single(make, kind, n, fn):
    def execute(scheduler):
        g = make_topology(kind, n, {"p": 0.35}, seed=4)
        values = [(7 * i + 3) % 41 for i in range(n)]
        proto = make(g)
        return [run(proto, g, values, fn=fn, timing=TIMING,
                    scheduler=scheduler, seed=4)]
    return execute


def _hybrid_failure(scheduler):
    g = make_topology("random_connected", 14, {"p": 0.35}, seed=6)
    exp = FailureExperiment(g, list(range(14)), MaxFunction(64), 3,
                            timing=TIMING, seed=6, scheduler=scheduler)
    exp.fail_link(exp.breakable_tree_edges()[0])
    exp.reconsensus()
    return [exp.initial_trace, exp.repair_trace, exp.rerun_trace]


CASES = {
    "ghs-mst": _single(lambda g: GhsMstProtocol(), "random_connected", 14,
                       None),
    "ghs-parallel": _single(lambda g: GhsParallelProtocol(),
                            "random_connected", 14, MeanFunction(128)),
    "ghs-token": _single(lambda g: GhsTokenProtocol(), "random_connected", 14,
                         MaxFunction(64)),
    "parallel-convergecast": _single(
        lambda g: ParallelConvergecastProtocol(root_tree(g, max(g.uids))),
        "random_tree", 14, MaxFunction(64)),
    "token-convergecast": _single(
        lambda g: TokenConvergecastProtocol(root_tree(g, min(g.uids))),
        "random_tree", 14, MeanFunction(128)),
    "flooding": _single(lambda g: FloodingProtocol(), "random_connected", 14,
                        MaxFunction(64)),
    "hybrid-m3-failure": _hybrid_failure,
}

PINS = {
    "flooding/lockstep":
        "c87bd30daead705944e9daa7a8c8ea677eea702f3dc07e76fe6cfb286bd4a813",
    "flooding/random":
        "3423532aea61e1cbfc680839ad60f098bc75b7fa7457f509ea92093034843954",
    "flooding/adversarial":
        "c87bd30daead705944e9daa7a8c8ea677eea702f3dc07e76fe6cfb286bd4a813",
    "ghs-mst/lockstep":
        "d0e9e455b99e2e4e2268dc076ea7bf71f16df5a7b8c82ace1b63e5be3e1167f8",
    "ghs-mst/random":
        "b4a5e52a35f19b0660b9bf75405968b8cac59473a6739fbb690659e5f25d9302",
    "ghs-mst/adversarial":
        "d0e9e455b99e2e4e2268dc076ea7bf71f16df5a7b8c82ace1b63e5be3e1167f8",
    "ghs-parallel/lockstep":
        "d23fee6f2bb2ee98ef5985e9c830965324f326d63f4945d1f9b1b962595e56dd",
    "ghs-parallel/random":
        "fc2ce23234a0effe736f4b5f5e011b62bb2ae8093d2bbc59c1f32293079235d7",
    "ghs-parallel/adversarial":
        "d23fee6f2bb2ee98ef5985e9c830965324f326d63f4945d1f9b1b962595e56dd",
    "ghs-token/lockstep":
        "ae18bd4cdcb59ac217e0385fa9e8258d7ffd5279c86729b715612c018274df59",
    "ghs-token/random":
        "d2f2665147d675837f1dd9ff4dbe2fdbabe8f4963a0075ae492744973154e2c0",
    "ghs-token/adversarial":
        "ae18bd4cdcb59ac217e0385fa9e8258d7ffd5279c86729b715612c018274df59",
    "hybrid-m3-failure/lockstep":
        "893f6cfa643b2a82c5fbe73f10685de1fa05e861cc57591d8f897dd79e000b1f",
    # the rerun starts at 0.56 s, the first boundary a full window after
    # the repair's last record (0.5436 s)
    "hybrid-m3-failure/random":
        "84f96c2939526f784c0aa239b17a687b6c93dba53c692f145a1ea6ecea268857",
    "hybrid-m3-failure/adversarial":
        "893f6cfa643b2a82c5fbe73f10685de1fa05e861cc57591d8f897dd79e000b1f",
    "parallel-convergecast/lockstep":
        "0064f26942fc206bc263f0aee2341862e428bce632cf239ea73ab1c77f7bb096",
    "parallel-convergecast/random":
        "630b123fdddb82e4ff6eaa52a439e2741d57f8cc30aa642e0d57ca62584656e4",
    "parallel-convergecast/adversarial":
        "0064f26942fc206bc263f0aee2341862e428bce632cf239ea73ab1c77f7bb096",
    "token-convergecast/lockstep":
        "f639a91ac1cdbb47efdea30467e07beaad355405b9299d82474fa4a1bd3fad09",
    "token-convergecast/random":
        "acfd7fe5132bfa3697228368b2fcb3ea6e48750bae68969b018cfe0c9120e30c",
    "token-convergecast/adversarial":
        "f639a91ac1cdbb47efdea30467e07beaad355405b9299d82474fa4a1bd3fad09",
}


AVERAGE_PINS = {
    "recorded":
        "6aac96dbc17ec83fdf0ce18d6a3f2ab38185c7fc75113be6886150f212bd25f2",
    "lean":
        "8534d3b997d24143c194af3c99833bafc111b4f9d2cfb7bd29819f03dba97b6e",
    # pin over n = 2, 5, 16 of one topology kind
    "path/recorded":
        "67f0fbe864c6b486b9bc344b570369e21cd9ba43705cded5bfd9ebd8c53ad79e",
    "path/lean":
        "265a70ae22763de488175e719689b3cc098c5747864bc9480f96d232783ee01e",
    "cycle/recorded":
        "eb5484975d6d63e1bb9aaf758a99c00037e877c263c313c4a35acac9ece38a2a",
    "cycle/lean":
        "a89239722d939ab01b2f77ec97a7c1db5246aae78f03fc6e2e900854f940e19b",
    "complete/recorded":
        "c1073304f5da58b23ab6451dc287fb79b20c81bcc7c0255cc5b6331ba8ba7a61",
    "complete/lean":
        "b8918d44b242b05acb4c3543725f71f3915a7353f8fb6084b4132f78c36d3391",
    "star/recorded":
        "e47c8d48d0b7ac83390a1f71733c4aeacd49c8df63c80e52ff3df79d72853661",
    "star/lean":
        "92e94efe11012b7b78016f95c9ffd3cc7825adfc1262cb0e0097787d73543d03",
    "random_connected/recorded":
        "2a2aad954a7169a32d8178534fb56f48ac3a7f7b54c3823edf289829b4a1424e",
    "random_connected/lean":
        "64bb8c1e24b9b8377219ce9542e210651ce93fd45ab999ff03743b617aa4a82c",
}

# link-down runs end in the incomplete-neighborhood error: its text, the
# round it is raised at and trace_digest of the records up to it
AVERAGE_LINK_DOWN_PINS = {
    "2.3": ("lockstep round delivered an incomplete neighborhood", 4,
            "7bfbd8d57b2c45058d48cce7a5e5cf80c2aaf9d4efc30f2557da7deaed6d2bf4"),
    "2.7": ("lockstep round delivered an incomplete neighborhood", 4,
            "7bfbd8d57b2c45058d48cce7a5e5cf80c2aaf9d4efc30f2557da7deaed6d2bf4"),
    "3": ("lockstep round delivered an incomplete neighborhood", 4,
           "0c7ce4d8420b6c0a2f4e8f357448be5657428ed2e3acd065f788a04b459902bc"),
}

AVERAGE_KINDS = ("path", "cycle", "complete", "star", "random_connected")


@pytest.mark.parametrize("scheduler", ["lockstep", "random", "adversarial"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_digest_is_pinned(case, scheduler):
    assert pin(CASES[case](scheduler)) == PINS[f"{case}/{scheduler}"]


def _average(kind, n, mode):
    g = make_topology(kind, n, {"p": 0.35}, seed=4)
    values = [(7 * i + 3) % 41 for i in range(n)]
    return run(AverageProtocol(eps=1e-3), g, values, fn=MeanFunction(128),
               timing=TIMING, seed=4, record_events=mode == "recorded")


@pytest.mark.parametrize("mode", ["lean", "recorded"])
def test_average_digest_is_pinned(mode):
    # averaging runs under lockstep only; a lean run logs outputs alone
    trace = _average("random_connected", 14, mode)
    assert trace_digest(trace) == AVERAGE_PINS[mode]


@pytest.mark.parametrize("mode", ["lean", "recorded"])
@pytest.mark.parametrize("kind", AVERAGE_KINDS)
def test_average_topology_digest_is_pinned(kind, mode):
    traces = [_average(kind, n, mode) for n in (2, 5, 16)]
    assert pin(traces) == AVERAGE_PINS[f"{kind}/{mode}"]


@pytest.mark.parametrize("at", sorted(AVERAGE_LINK_DOWN_PINS))
def test_average_link_down_is_pinned(at):
    # 2.3 d and 2.7 d are mid-round, and their link-down transitions fire at
    # the next boundary, never before the failure, where they fall between
    # that round's deliveries and its message transitions; 3 d is exactly on
    # that boundary
    g = make_topology("path", 6, seed=1)
    sim = Simulation(AverageProtocol(eps=1e-9), g, list(range(6)),
                     fn=MeanFunction(128), timing=TIMING, seed=4)
    sim.schedule_link_down(g.uids[2], g.uids[3], at=float(at) * TIMING.d)
    with pytest.raises(InvariantViolation) as err:
        sim.run()
    got = (str(err.value), round(sim.now / TIMING.d),
           trace_digest(sim._trace()))
    assert got == AVERAGE_LINK_DOWN_PINS[at]


# -- fan-out batches: under lockstep one send's copies land together ---------

class Chatter(Automaton):
    """Outputs at start and sends three messages tagged for itself, so that
    no receiver reacts: each send is a fan-out nobody answers."""

    def on_start(self):
        self.output = self.ctx.value
        return [Message("chat.x", self.ctx.uid,
                        self.ctx.size_model.size(n_uids=1), self.ctx.uid)] * 3


class ChatterProtocol(Protocol):
    name = "chatter"

    def automaton(self, ctx):
        return Chatter(ctx)


# on K4 the loop takes 12 entries at t=0 and the 4 transmissions at d, then
# the 12 copies that land at d; cap 27 falls inside the last of them
EVENT_CAP_PINS = {16: "t=0.01", 17: "t=0.01", 21: "t=0.01", 27: "t=0.01",
                  28: "t=0.02", 40: "t=0.02", 52: "t=0.03"}


@pytest.mark.parametrize("cap", sorted(EVENT_CAP_PINS))
def test_event_cap_counts_every_copy_of_a_fan_out(cap):
    g = make_topology("complete", 4, seed=0)
    with pytest.raises(NonTermination) as err:
        run(ChatterProtocol(), g, [1, 2, 3, 4], fn=MaxFunction(32),
            timing=TIMING, event_cap=cap)
    assert str(err.value) == (f"event cap {cap} exceeded at "
                              f"{EVENT_CAP_PINS[cap]}")


class Echo(Automaton):
    """Outputs at start and asks once; answers every ask it gets, so the
    reactions to an ask transmit while the rest of their batch waits."""

    def on_start(self):
        self.output = self.ctx.value
        return [Message("echo.ask", self.ctx.uid,
                        self.ctx.size_model.size(n_uids=1))]

    def on_message(self, msg, src):
        if msg.mtype == "echo.ask":
            return [Message("echo.answer", self.ctx.uid,
                            self.ctx.size_model.size(n_uids=1))]
        return []


class EchoProtocol(Protocol):
    name = "echo"

    def automaton(self, ctx):
        return Echo(ctx)


# on K4 the loop takes 12 entries at t=0, then at d the 12 copies of the
# asks, their 12 reactions and the 4 answers that start at d; caps 24-39
# fall inside those reactions, so a reaction counted twice or not at all
# moves one of these to another time
ECHO_CAP_PINS = {23: "t=0.01", 24: "t=0.01", 25: "t=0.01", 27: "t=0.01",
                 30: "t=0.01", 33: "t=0.01", 36: "t=0.01", 39: "t=0.01",
                 40: "t=0.02", 67: "t=0.02", 68: "t=0.03", 119: "t=0.04"}

ECHO_PINS = {
    "lockstep":
        "c6bb907384480879753d8e7165b13cd8bb49a7b3a4088c12bf659fd5bb77c496",
    "random":
        "ab9ebb2b946335716f9a865ea7cbf8862922b1f518d796fe7407cb08b20b88cd",
    "adversarial":
        "c6bb907384480879753d8e7165b13cd8bb49a7b3a4088c12bf659fd5bb77c496",
}


def _echo(scheduler, cap=10_000):
    g = make_topology("complete", 4, seed=0)
    return run(EchoProtocol(), g, [1, 2, 3, 4], fn=MaxFunction(32),
               timing=TIMING, scheduler=scheduler, seed=2, event_cap=cap)


@pytest.mark.parametrize("cap", sorted(ECHO_CAP_PINS))
def test_event_cap_counts_every_reaction_that_transmits(cap):
    with pytest.raises(NonTermination) as err:
        _echo("lockstep", cap)
    assert str(err.value) == (f"event cap {cap} exceeded at "
                              f"{ECHO_CAP_PINS[cap]}")


# under the random scheduler every copy and every reaction is an entry of
# its own, counted once; on K4 at seed 2 the loop takes 12 entries before the
# first copy lands (Chatter's copies never react), and each Echo cap but 12
# and 36 stops the run after a copy and before that copy's reaction
RANDOM_EVENT_CAP_PINS = {12: "t=0.000995253", 13: "t=0.00168898",
                         24: "t=0.010044", 25: "t=0.0100522",
                         27: "t=0.0109151", 40: "t=0.020044",
                         55: "t=0.0298054"}
RANDOM_ECHO_CAP_PINS = {12: "t=0.000995253", 13: "t=0.00104586",
                        22: "t=0.00407842", 35: "t=0.00977079",
                        36: "t=0.010044", 63: "t=0.0198806",
                        103: "t=0.034269", 119: "t=0.0406389"}


@pytest.mark.parametrize("cap", sorted(RANDOM_EVENT_CAP_PINS))
def test_random_event_cap_counts_every_copy(cap):
    g = make_topology("complete", 4, seed=0)
    with pytest.raises(NonTermination) as err:
        run(ChatterProtocol(), g, [1, 2, 3, 4], fn=MaxFunction(32),
            timing=TIMING, scheduler="random", seed=2, event_cap=cap)
    assert str(err.value) == (f"event cap {cap} exceeded at "
                              f"{RANDOM_EVENT_CAP_PINS[cap]}")


@pytest.mark.parametrize("cap", sorted(RANDOM_ECHO_CAP_PINS))
def test_random_event_cap_counts_every_copy_and_reaction(cap):
    with pytest.raises(NonTermination) as err:
        _echo("random", cap)
    assert str(err.value) == (f"event cap {cap} exceeded at "
                              f"{RANDOM_ECHO_CAP_PINS[cap]}")


@pytest.mark.parametrize("scheduler", sorted(ECHO_PINS))
def test_reactions_that_transmit_are_pinned(scheduler):
    # every reaction to an ask starts an answer, whose send record sits
    # between the transitions of one fan-out's receivers
    assert trace_digest(_echo(scheduler)) == ECHO_PINS[scheduler]


LINK_DOWN_FAN_OUT_PINS = {
    "0.6": "d24cdfc8338c210f372f51b94a95e300530817a4b8f6058a7a06a54e3c84c7d3",
    "1.6": "dd51aa1261e40852802886e0cf5c68df51fe8a4325f2661af9639b2ff68d8d78",
}


def _breakable(g, edge):
    try:
        fail_link(g, edge)
    except WouldDisconnect:
        return False
    return True


@pytest.mark.parametrize("scheduler", ["lockstep", "adversarial"])
@pytest.mark.parametrize("at", sorted(LINK_DOWN_FAN_OUT_PINS))
def test_link_down_in_flight_still_reaches_send_time_receivers(at, scheduler):
    # the link fails between a round's sends and their delivery; the copies
    # already in flight on it still land
    g = make_topology("random_connected", 14, {"p": 0.35}, seed=4)
    u, v = next(e for e in sorted(g.edges) if _breakable(g, e))
    values = [(7 * i + 3) % 41 for i in range(14)]
    sim = Simulation(FloodingProtocol(), g, values, fn=MaxFunction(64),
                     timing=TIMING, scheduler=scheduler, seed=4)
    down = float(at) * TIMING.d
    sim.schedule_link_down(u, v, at=down)
    trace = sim.run()
    sends = trace.events.sends
    across = [t for t, node, ref in copies(trace.events)
              if t > down and {node, sends[ref][0].src} == {u, v}]
    assert across and all(t < down + TIMING.d for t in across)
    assert trace_digest(trace) == LINK_DOWN_FAN_OUT_PINS[at]
