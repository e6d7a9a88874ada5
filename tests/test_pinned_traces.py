"""Replay pins: SHA-256 of the JSONL export plus the outputs of a few fixed
executions.  A refactor that keeps these digests produces the same
executions byte for byte; a change that alters them must say why and
re-pin."""

import hashlib

import pytest

from consim.averaging import AverageProtocol
from consim.engine import TimingParams, run
from consim.errors import WouldDisconnect
from consim.flooding import FloodingProtocol
from consim.functions import MaxFunction, MeanFunction
from consim.ghs import (GhsMstProtocol, GhsParallelProtocol, GhsTokenProtocol,
                        ParallelConvergecastProtocol, TokenConvergecastProtocol,
                        root_tree)
from consim.hybrid import FailureExperiment
from consim.topology import edge_weight, make_topology

TIMING = TimingParams(d=0.01, l=0.001)


def digest(traces):
    h = hashlib.sha256()
    for trace in traces:
        h.update(trace.to_jsonl().encode())
        h.update(repr(sorted(trace.outputs.items())).encode())
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
    "hybrid-m3-failure/random":
        "aa5b08216888dd2dfd19133e3db972ed140f64e7e3debc895bf488a685d15e42",
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
}


@pytest.mark.parametrize("scheduler", ["lockstep", "random", "adversarial"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_digest_is_pinned(case, scheduler):
    assert digest(CASES[case](scheduler)) == PINS[f"{case}/{scheduler}"]


@pytest.mark.parametrize("mode", sorted(AVERAGE_PINS))
def test_average_digest_is_pinned(mode):
    # averaging runs under lockstep only; a lean run logs outputs alone
    g = make_topology("random_connected", 14, {"p": 0.35}, seed=4)
    values = [(7 * i + 3) % 41 for i in range(14)]
    trace = run(AverageProtocol(eps=1e-3), g, values, fn=MeanFunction(128),
                timing=TIMING, seed=4, record_events=mode == "recorded")
    assert digest([trace]) == AVERAGE_PINS[mode]
