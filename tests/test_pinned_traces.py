"""Replay pins: SHA-256 of the schema-1 rendering (one JSON line per event
of `trace.events`, every copy included) plus the outputs of a few fixed
executions.  A refactor that keeps these digests produces the same
executions byte for byte; a change that alters them must say why and
re-pin."""

import hashlib
import json

import pytest

from consim.averaging import AverageProtocol
from consim.engine import Automaton, Protocol, Simulation, TimingParams, run
from consim.errors import InvariantViolation, NonTermination, WouldDisconnect
from consim.flooding import FloodingProtocol
from consim.functions import MaxFunction, MeanFunction
from consim.ghs import (GhsMstProtocol, GhsParallelProtocol, GhsTokenProtocol,
                        ParallelConvergecastProtocol, TokenConvergecastProtocol,
                        root_tree)
from consim.hybrid import FailureExperiment
from consim.topology import edge_weight, fail_link, make_topology

TIMING = TimingParams(d=0.01, l=0.001)


def schema1(trace):
    return "\n".join(json.dumps(e.to_record()) for e in trace.events) + "\n"


def digest(traces):
    h = hashlib.sha256()
    for trace in traces:
        h.update(schema1(trace).encode())
        h.update(repr(sorted(trace.outputs.items())).encode())
    return h.hexdigest()


def full_digest(traces):
    """digest() plus what the records leave out: every event's ref,
    the per-send fan-out and the message and bit totals."""
    h = hashlib.sha256(digest(traces).encode())
    for trace in traces:
        h.update(repr([e.ref for e in trace.events]).encode())
        h.update(repr(sorted(trace.send_fanout.items())).encode())
        h.update(f"{trace.messages_total} {trace.bits_total}".encode())
    return h.hexdigest()


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
    for edge in sorted(edge_weight(u, a.parent)
                       for u, a in exp.automata.items() if a.parent is not None):
        try:
            exp.fail_link(edge)
            break
        except WouldDisconnect:
            continue
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
        "063076191b98f8194592fb3070f565d30b0975bffcbb564e6312a13340c87350",
    "flooding/random":
        "5a09a7db46d15004e17005e9068861af8a09d4e9b61572eab03285df699ae782",
    "flooding/adversarial":
        "063076191b98f8194592fb3070f565d30b0975bffcbb564e6312a13340c87350",
    "ghs-mst/lockstep":
        "59f6124a9ca51483a3762e439c520ce6e7daef8a00431d57a540117e441769c4",
    "ghs-mst/random":
        "b0357f8065a1592ef5a819675c168a5f45e2a1fb64c3dee849b3734843ea84c0",
    "ghs-mst/adversarial":
        "59f6124a9ca51483a3762e439c520ce6e7daef8a00431d57a540117e441769c4",
    "ghs-parallel/lockstep":
        "6875428b012efa0de12d04cad6c508890c843fc8db3bf2da68614e7fb2c604f8",
    "ghs-parallel/random":
        "bc4aa970f203bcdfc34defdb0418a52eb723398cce1469fad599176b76f50f4f",
    "ghs-parallel/adversarial":
        "6875428b012efa0de12d04cad6c508890c843fc8db3bf2da68614e7fb2c604f8",
    "ghs-token/lockstep":
        "632bbbf994d84150c65da2b5a982f75dc38d98063433919e5dcce2cdc19b497c",
    "ghs-token/random":
        "54a19f87990d3197eeb8f31fcc7b5a15c26859ce7dd73723815f3e13c35fe89d",
    "ghs-token/adversarial":
        "632bbbf994d84150c65da2b5a982f75dc38d98063433919e5dcce2cdc19b497c",
    "hybrid-m3-failure/lockstep":
        "74ddd6087448dac28e59ebbb190a29b4a69d50ec4f9cf6b7e3aef842011565a4",
    # the rerun starts at 0.56 s, the first boundary a full window after
    # the repair's last record (0.5436 s)
    "hybrid-m3-failure/random":
        "93a6e4c830768759e47faec1e3d45197cec1461c96b2b060f87a2722ba1025f6",
    "hybrid-m3-failure/adversarial":
        "74ddd6087448dac28e59ebbb190a29b4a69d50ec4f9cf6b7e3aef842011565a4",
    "parallel-convergecast/lockstep":
        "21387d58fe5543d8ffac2c37192fdea553654a710e168b51a289decfdf663b34",
    "parallel-convergecast/random":
        "688543ef285ec4983842d246a23386858317729ec8e19fa2323a3c1bf3cab495",
    "parallel-convergecast/adversarial":
        "21387d58fe5543d8ffac2c37192fdea553654a710e168b51a289decfdf663b34",
    "token-convergecast/lockstep":
        "f2a27bb6c968b1c608fa55cb639e87a3e3e4930b607b076b0a2718131af8f3b1",
    "token-convergecast/random":
        "58e55ed47686de23da22693b56014a122995c73a092df07c9436f86eb96c28b7",
    "token-convergecast/adversarial":
        "f2a27bb6c968b1c608fa55cb639e87a3e3e4930b607b076b0a2718131af8f3b1",
}


AVERAGE_PINS = {
    "recorded":
        "cda5c5fe37b65c95e46df7b2724b1558a65c326585831f42cc0ab212b4a0d937",
    "lean":
        "2800bbdad953b7117573ac352d812dff6fc5c0803e16121911198bc72a85aa10",
    # full_digest over n = 2, 5, 16 of one topology kind
    "path/recorded":
        "845ac6ebdb268185fff9f78b96e09e628ab10163125c31a48e1c7bfd3002d523",
    "path/lean":
        "dc51ebfb7a38311eaea2a42194ff12c2f9ee215cdb5c3bad7cabf97aa98fda86",
    "cycle/recorded":
        "f40d84fcbf4a3ef4bb8de61a77e49bbe2d6a7713cdfad04322609c09c812bc66",
    "cycle/lean":
        "f8fb08ef532f83c7bbb6d884a0e835f569ad7c837464cd8067b75119e8cd5a0f",
    "complete/recorded":
        "13c15e885678ab57d0b86a3b21eb0b07823e926d941cd8d34768e64bb958ccbf",
    "complete/lean":
        "415804e79d7cadfa908be9d861a14715a76d39da82fd684dca8a9f001789aa23",
    "star/recorded":
        "a1700cca5ef6b9680dcaeb9ed6fb38d17bfd82b6a6787be037a05cbdf747e231",
    "star/lean":
        "f67be76def2b6f1d30a0cdbecb0f2976dce92935143ea709ca21f24ca37280d4",
    "random_connected/recorded":
        "f67a66d8e7c77451b7e559ea84e7749090cd3315c1fb31617874d4a3f6aa672a",
    "random_connected/lean":
        "e0075c4661b432ffeaebf0c7a4db34065afefadef14d53c07c65a888bc685d70",
}

# link-down runs end in the incomplete-neighborhood error: its text, the
# round it is raised at and full_digest of the records up to it
AVERAGE_LINK_DOWN_PINS = {
    "2.3": ("lockstep round delivered an incomplete neighborhood", 4,
            "e2e7cd546664f862b6b733495253456e9b1aebc6fe0cef23e4b4213e32cf399d"),
    "2.7": ("lockstep round delivered an incomplete neighborhood", 4,
            "e2e7cd546664f862b6b733495253456e9b1aebc6fe0cef23e4b4213e32cf399d"),
    "3": ("lockstep round delivered an incomplete neighborhood", 4,
           "6d5cfa6b24074eb5efd53ee00196630f9bd6bd26bceada16a9d672a5b5dfe8eb"),
}

AVERAGE_KINDS = ("path", "cycle", "complete", "star", "random_connected")


@pytest.mark.parametrize("scheduler", ["lockstep", "random", "adversarial"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_digest_is_pinned(case, scheduler):
    assert digest(CASES[case](scheduler)) == PINS[f"{case}/{scheduler}"]


def _average(kind, n, mode):
    g = make_topology(kind, n, {"p": 0.35}, seed=4)
    values = [(7 * i + 3) % 41 for i in range(n)]
    return run(AverageProtocol(eps=1e-3), g, values, fn=MeanFunction(128),
               timing=TIMING, seed=4, record_events=mode == "recorded")


@pytest.mark.parametrize("mode", ["lean", "recorded"])
def test_average_digest_is_pinned(mode):
    # averaging runs under lockstep only; a lean run logs outputs alone
    trace = _average("random_connected", 14, mode)
    assert digest([trace]) == AVERAGE_PINS[mode]


@pytest.mark.parametrize("mode", ["lean", "recorded"])
@pytest.mark.parametrize("kind", AVERAGE_KINDS)
def test_average_topology_digest_is_pinned(kind, mode):
    traces = [_average(kind, n, mode) for n in (2, 5, 16)]
    assert full_digest(traces) == AVERAGE_PINS[f"{kind}/{mode}"]


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
           full_digest([sim._trace()]))
    assert got == AVERAGE_LINK_DOWN_PINS[at]


# -- fan-out batches: under lockstep one send's copies land together ---------

class Chatter(Automaton):
    """Outputs at start and sends three messages tagged for itself, so that
    no receiver reacts: each send is a fan-out nobody answers."""

    def on_start(self):
        self.output = self.ctx.value
        return [self.ctx.message("chat.x", dst=self.ctx.uid, uids=1)] * 3


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
        return [self.ctx.message("echo.ask", uids=1)]

    def on_message(self, msg, src):
        if msg.mtype == "echo.ask":
            return [self.ctx.message("echo.answer", uids=1)]
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
        "f4158ee8913a6c108437fa3b2fd7f5366ef93eba37e7cc1f4b9b323a7ac40551",
    "random":
        "45954d712cbb2a7790fa2d960cd5f5436a6136770e024f8ebb64bcc38f437b17",
    "adversarial":
        "f4158ee8913a6c108437fa3b2fd7f5366ef93eba37e7cc1f4b9b323a7ac40551",
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
    assert full_digest([_echo(scheduler)]) == ECHO_PINS[scheduler]


LINK_DOWN_FAN_OUT_PINS = {
    "0.6": "613e0322ef1af981d5681ead3acbf1021dfa6efb01463f4beba7d30fb3012a91",
    "1.6": "2accf71b89f8c367817f5cda849833602c582ba74edfa4af931b5ba73bf94275",
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
    across = [e for e in trace.events if e.kind == "deliver" and e.t > down
              and {e.node, e.msg.src} == {u, v}]
    assert across and all(e.t < down + TIMING.d for e in across)
    assert full_digest([trace]) == LINK_DOWN_FAN_OUT_PINS[at]
