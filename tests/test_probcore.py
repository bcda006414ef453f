"""Distribution core: constructors, normalisation, expectation, posterior."""

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
