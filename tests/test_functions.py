import itertools
import random

import pytest

from consim.errors import DomainOverflow, InvalidParams, NotHierarchical
from consim.functions import (ConsensusFunction, MaxFunction, MeanFunction,
                              MedianFunction, MinFunction, VoteFunction,
                              get_function, oracle)


def fold(fn, raws, order=None):
    vals = [fn.initial(r) for r in raws]
    if order:
        vals = [vals[i] for i in order]
    acc = vals[0]
    for v in vals[1:]:
        acc = fn.combine(acc, v)
    return fn.decode(fn.finalize(acc))


def test_max_basics():
    fn = MaxFunction(16)
    assert fn.combine(5, 3) == 5
    for order in itertools.permutations(range(3)):
        assert fold(fn, [1, 5, 3], list(order)) == 5
    assert oracle(fn, [42]) == 42


def test_mean_pair_semantics():
    fn = MeanFunction(128)
    a = fn.combine(fn.initial(6), fn.initial(6))   # (sum 12, count 2): mean 6
    b = fn.initial(3)
    c = fn.combine(a, b)
    assert c[1] == 3
    assert fn.decode(fn.finalize(c)) == pytest.approx(5.0)
    assert oracle(fn, [1, 2, 3, 4]) == 2.5


def test_mean_equals_oracle_over_all_fold_orders_small():
    fn = MeanFunction(128)
    raws = [7, -3, 12, 0, 5, 9]
    want = oracle(fn, raws)
    for order in itertools.permutations(range(len(raws))):
        got = fold(fn, raws, list(order))
        assert abs(got - want) <= 1e-12


def test_vote_matches_plurality_count():
    rng = random.Random(5)
    fn = VoteFunction(128, 4)
    for _ in range(50):
        ballots = [rng.randrange(4) for _ in range(rng.randrange(1, 20))]
        assert fold(fn, ballots) == oracle(fn, ballots)


def test_vote_tie_breaks_to_lowest_index():
    fn = VoteFunction(128, 4)
    assert fold(fn, [3, 1, 1, 3]) == 1
    assert fold(fn, [2, 0, 2, 0]) == 0


def _sample_triples(fn, draw, count, rng):
    for _ in range(count):
        a, b, c = draw(rng), draw(rng), draw(rng)
        assert fn.combine(a, b) == fn.combine(b, a)
        assert fn.combine(fn.combine(a, b), c) == fn.combine(a, fn.combine(b, c))


def test_commutativity_and_associativity_sampled():
    rng = random.Random(99)
    mx = MaxFunction(64)
    _sample_triples(mx, lambda r: mx.initial(r.randrange(1 << 16)), 500, rng)
    mean = MeanFunction(128)
    _sample_triples(mean, lambda r: mean.initial(r.randrange(-1000, 1000)), 500, rng)
    vote = VoteFunction(128, 3)
    _sample_triples(vote, lambda r: vote.initial(r.randrange(3)), 500, rng)


def test_size_discipline():
    for fn in (MaxFunction(64), MeanFunction(128), VoteFunction(128, 4)):
        rng = random.Random(3)
        vals = [fn.initial(rng.randrange(2)) for _ in range(10)]
        acc = vals[0]
        for v in vals[1:]:
            acc = fn.combine(acc, v)  # raises DomainOverflow past b bits


def test_sensitivity_every_position_matters():
    rng = random.Random(11)
    n = 7
    mx = MaxFunction(64)
    xs = [rng.randrange(100) for _ in range(n)]
    for i in range(n):
        lo = xs.copy()
        hi = xs.copy()
        lo[i], hi[i] = max(xs) + 1, max(xs) + 2
        assert oracle(mx, lo) != oracle(mx, hi)
    mean = MeanFunction(128)
    xs = [rng.randrange(100) for _ in range(n)]
    for i in range(n):
        lo, hi = xs.copy(), xs.copy()
        lo[i], hi[i] = xs[i] - 1, xs[i] + 1
        assert oracle(mean, lo) != oracle(mean, hi)
    # plurality is only argument-sensitive on knife-edge tallies, so build one
    vote = VoteFunction(128, 3)
    xs = [0, 1, 0, 1, 2, 2]
    for i in range(len(xs)):
        outs = {oracle(vote, xs[:i] + [c] + xs[i + 1:]) for c in range(3)}
        assert len(outs) > 1


def test_overflow_paths():
    with pytest.raises(DomainOverflow):
        MaxFunction(8).initial(300)
    small = MeanFunction(96)
    big = small.initial(2 ** 40)
    with pytest.raises(DomainOverflow):
        acc = big
        for _ in range(2 ** 8):
            acc = small.combine(acc, big)
    with pytest.raises(InvalidParams):
        MeanFunction(64)
    with pytest.raises(DomainOverflow):
        VoteFunction(128, 4).initial(9)


def test_median_is_non_hierarchical():
    med = MedianFunction(32)
    assert med.compute_full([5, 1, 9]) == 5
    assert med.compute_full([5, 1, 9, 2]) == 2  # lower median
    with pytest.raises(NotHierarchical):
        med.combine(med.initial(1), med.initial(2))
    assert oracle(med, [5, 1, 9]) == 5


def test_function_guards():
    vote = VoteFunction(128, 3)
    with pytest.raises(DomainOverflow, match="wrong arity"):
        vote.finalize((1, 0))
    with pytest.raises(DomainOverflow, match="wrong arity"):
        vote.combine((1, 0, 0), (0, 1))
    with pytest.raises(NotHierarchical):
        MedianFunction(32).finalize(3)
    assert oracle(MinFunction(8), [5, 1, 9]) == 1
    with pytest.raises(InvalidParams, match="at least one value"):
        oracle(MaxFunction(8), [])
    with pytest.raises(InvalidParams, match="no oracle for"):
        oracle(ConsensusFunction(8), [1])


def test_get_function_parsing():
    assert get_function("max", 32).name == "max"
    assert get_function("min", 32).name == "min"
    assert get_function("mean", 128).name == "mean"
    v = get_function("vote:5", 160)
    assert v.name == "vote" and v.candidates == 5
    assert get_function("median", 32).name == "median"
    with pytest.raises(InvalidParams):
        get_function("sum", 32)
    for spec in ("vote:x", "vote:", "vote:2.5"):
        with pytest.raises(InvalidParams):
            get_function(spec, 64)
