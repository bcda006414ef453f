"""Distribution core: constructors, normalisation, expectation, posterior."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from hyperflow.errors import NegativeWeight, WeightOverflow, ZeroCondition, ZeroWeight
from hyperflow.probcore import (
    Domain,
    FiniteDist,
    Value,
    expected_value,
    normalize,
    posterior,
    rat_str,
    value_key,
    vbool,
    vnum,
    vsym,
)

from oracles import FractionDist


def test_mk_dist_uniform():
    assert FiniteDist([(0, F(1, 3)), (1, F(1, 3)), (2, F(1, 3))]) == FiniteDist.uniform([0, 1, 2])


def test_mk_dist_point():
    d = FiniteDist([(5, F(1))])
    assert d == FiniteDist.point(5)
    assert d.is_full


def test_mk_dist_duplicates_add():
    assert FiniteDist([(0, F(1, 4)), (0, F(1, 4))]) == FiniteDist([(0, F(1, 2))])


def test_mk_dist_rejects_negative_and_overflow():
    with pytest.raises(NegativeWeight):
        FiniteDist([(0, F(-1, 2))])
    with pytest.raises(WeightOverflow):
        FiniteDist([(0, F(2, 3)), (1, F(2, 3))])


def test_zero_weights_dropped():
    d = FiniteDist([(0, F(0)), (1, F(1, 2))])
    assert d.support == (1,)
    assert d.weight == F(1, 2)


def test_normalize_paper_example():
    assert normalize(FiniteDist([(1, F(1, 3)), (3, F(1, 6))])) == FiniteDist(
        [(1, F(2, 3)), (3, F(1, 3))]
    )


def test_normalize_full_is_identity():
    d = FiniteDist.uniform([0, 1])
    assert normalize(d) == d


def test_normalize_single_point_scaling():
    assert normalize(FiniteDist([(0, F(1, 8))])) == FiniteDist.point(0)


def test_normalize_zero_weight_raises():
    with pytest.raises(ZeroWeight):
        normalize(FiniteDist([]))


def test_expected_value_scalar():
    d = FiniteDist.uniform([0, 1, 2])
    assert expected_value(d, lambda h: F(h, 2)) == F(1, 2)


def test_expected_value_constant_one_is_weight():
    d = FiniteDist.uniform([0, 1, 2])
    assert expected_value(d, lambda h: 1) == F(1)


def test_expected_value_boolean_coerced():
    d = FiniteDist.uniform([0, 1, 2])
    assert expected_value(d, lambda h: h > 0) == F(2, 3)


def test_expected_value_distribution_valued():
    # hand enumeration: 1/3*point(0) + 1/3*point(1) + 1/3*point(0)
    d = FiniteDist.uniform([0, 1, 2])
    out = expected_value(d, lambda h: FiniteDist.point(h % 2))
    assert out == FiniteDist([(0, F(2, 3)), (1, F(1, 3))])


def test_posterior_paper_example():
    d = FiniteDist.uniform([0, 1, 2])
    assert posterior(d, lambda h: F(h, 2)) == FiniteDist([(1, F(1, 3)), (2, F(2, 3))])


def test_posterior_vacuous():
    d = FiniteDist.uniform([0, 1, 2])
    assert posterior(d, lambda h: 1) == d


def test_posterior_boolean_restriction():
    d = FiniteDist.uniform([0, 1, 2])
    assert posterior(d, lambda h: h != 0) == FiniteDist.uniform([1, 2])


def test_posterior_zero_condition():
    d = FiniteDist.uniform([0, 1])
    with pytest.raises(ZeroCondition):
        posterior(d, lambda h: 0)


def test_rat_str_always_carries_denominator():
    assert rat_str(F(2, 3)) == "2/3"
    assert rat_str(F(1)) == "1/1"


weights = st.lists(
    st.tuples(st.integers(0, 5), st.fractions(min_value=0, max_value=F(1, 4))),
    min_size=1,
    max_size=4,
)


@given(weights)
def test_construction_canonical(pairs):
    d = FiniteDist(pairs)
    assert all(w > 0 for _, w in d.items())
    assert 0 <= d.weight <= 1
    # entries sorted and unique
    points = [v for v, _ in d.items()]
    assert len(set(points)) == len(points)
    assert points == sorted(points)


@given(weights.filter(lambda ps: sum(w for _, w in ps) > 0))
def test_normalize_idempotent(pairs):
    d = FiniteDist(pairs)
    assert normalize(normalize(d)) == normalize(d)


@given(weights.filter(lambda ps: sum(w for _, w in ps) > 0))
def test_posterior_support_shrinks(pairs):
    d = normalize(FiniteDist(pairs))
    weight_fn = lambda v: F(1, 2) if v % 2 == 0 else F(0)
    if all(v % 2 == 1 for v in d.support):
        with pytest.raises(ZeroCondition):
            posterior(d, weight_fn)
        return
    post = posterior(d, weight_fn)
    assert set(post.support) <= {v for v in d.support if v % 2 == 0}


@given(weights.filter(lambda ps: sum(w for _, w in ps) > 0))
def test_expected_point_dists_preserve_weight(pairs):
    d = FiniteDist(pairs)
    out = expected_value(d, lambda v: FiniteDist.point(v % 2))
    assert out.weight == d.weight


# -- the dict-backed core --------------------------------------------------------

MIXED = [vbool(False), vbool(True), vnum(0), vnum(1), vnum(F(1, 2)), vsym("a"), vsym("b")]
mixed_pairs = st.lists(
    st.tuples(st.sampled_from(MIXED), st.fractions(min_value=0, max_value=F(1, 8))),
    min_size=1,
    max_size=8,
)


@given(mixed_pairs, st.randoms(use_true_random=False), st.data())
def test_equality_and_hash_ignore_construction_order_and_splits(pairs, rnd, data):
    d = FiniteDist(pairs)
    # the same weights, each split in two and the parts shuffled
    split = []
    for v, w in pairs:
        part = data.draw(st.fractions(min_value=0, max_value=w))
        split += [(v, part), (v, w - part)]
    rnd.shuffle(split)
    e = FiniteDist(split)
    assert d == e and hash(d) == hash(e)
    assert d.items() == e.items() and repr(d) == repr(e) and d.key() == e.key()


@given(mixed_pairs)
def test_items_and_repr_sorted_by_value_key(pairs):
    d = FiniteDist(pairs)
    points = [v for v, _ in d.items()]
    assert points == sorted(points, key=value_key)
    assert repr(d) == "{" + ", ".join(f"{v}@{rat_str(w)}" for v, w in d.items()) + "}"


def test_missing_point_reads_zero():
    d = FiniteDist([(vnum(0), F(1, 2))])
    assert d[vnum(0)] == F(1, 2) and d[vnum(1)] == 0 and d[vbool(False)] == 0


def test_num_and_bool_values_stay_apart():
    assert vnum(1) != vbool(True) and vnum(0) != vbool(False)
    bools = Domain("b", (vbool(False), vbool(True)))
    assert vbool(True) in bools and vnum(1) not in bools and vnum(0) not in bools
    assert len(FiniteDist([(vnum(1), F(1, 2)), (vbool(True), F(1, 2))])) == 2


def test_value_hash_is_structural():
    assert Value("num", F(1)) == vnum(1)
    assert hash(Value("num", F(1))) == hash(vnum(1))
    assert hash(Value("bool", True)) == hash(vbool(True))


def test_int_and_fraction_payloads_are_one_value():
    three = Value("num", F(3))
    assert Value("num", 3) == three and hash(Value("num", 3)) == hash(three)
    assert str(Value("num", 3)) == str(three) == "3"
    assert vnum(F(3)).payload.__class__ is int and vnum(F(6, 4)).payload == F(3, 2)


# -- the fraction-free distribution against a dict of Fractions ------------------


def _random_pairs(rng: random.Random, scale: F = F(1)) -> list:
    """Weighted points with repeats and zero weights, summing to scale (or 0)."""
    raw = [
        (rng.randrange(5), F(rng.randrange(4), rng.choice([1, 2, 3, 6, 7])))
        for _ in range(rng.randrange(7))
    ]
    total = sum((w for _, w in raw), F(0)) or F(1)
    return [(v, w * scale / total) for v, w in raw]


def _agree(d: FiniteDist, ref: FractionDist):
    assert d.items() == ref.items() and d.weight == ref.weight
    assert d.max_weight() == ref.max_weight()
    assert all(d[v] == ref[v] for v in range(-1, 6))


def _same_error(make, make_ref):
    with pytest.raises((NegativeWeight, WeightOverflow)) as got:
        make()
    with pytest.raises(got.type) as want:
        make_ref()
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("seed", range(40))
def test_fraction_free_dist_agrees_with_fraction_oracle(seed):
    rng = random.Random(seed)
    pairs = _random_pairs(rng, rng.choice([F(1), F(1, 2), F(2, 3)]))
    d, ref = FiniteDist(pairs), FractionDist(pairs)
    _agree(d, ref)
    shuffled = pairs[:]
    rng.shuffle(shuffled)
    assert FiniteDist(shuffled) == d and hash(FiniteDist(shuffled)) == hash(d)
    c = F(rng.randrange(4), rng.choice([3, 4, 5]))
    _agree(d.scale(c), ref.scale(c))
    half = _random_pairs(rng, F(1, 2))
    _agree(d.scale(F(1, 2)).add(FiniteDist(half)), ref.scale(F(1, 2)).add(FractionDist(half)))
    _agree(d.map(lambda v: v % 2), ref.map(lambda v: v % 2))
    if ref.weight:
        _agree(normalize(d), ref.normalize())
    if any(w for _, w in pairs):
        over = [(v, w * 3) for v, w in pairs]
        _same_error(lambda: FiniteDist(over), lambda: FractionDist(over))
        negative = pairs + [(rng.randrange(5), -F(1, rng.randrange(1, 9)))]
        _same_error(lambda: FiniteDist(negative), lambda: FractionDist(negative))
