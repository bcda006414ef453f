"""Leakage measures, their paper values, and independent oracles."""

import itertools
import random
from fractions import Fraction as F

import mpmath
import pytest

from conftest import ht, hyper, load, rand_full_dist, rand_hyper, run_module, threebox_init
from oracles import brute_force_guess_count
from hyperflow.errors import DomainMismatch
from hyperflow.measures import (
    BAYES,
    GENTROPY,
    SHANNON,
    bayes_vuln,
    elementary_compare,
    ft,
    guessing_entropy,
    guesswork,
    marginal_guesswork,
    shannon_entropy,
)
from hyperflow.probcore import FiniteDist, vnum, vsym
from hyperflow.refine import extract_partition, bv_partition
from hyperflow.semantics import HyperDist, SplitState

BOT = (vsym("bot"),)


def threebox(name):
    return run_module(load(name), threebox_init())


# -- ft -----------------------------------------------------------------------


def test_ft_threebox_S():
    out = ft(threebox("threebox_S"))
    assert out == FiniteDist.uniform([(BOT, ht(k)) for k in range(3)])


def test_ft_point():
    h = hyper([(((vnum(0),), [(ht(1), F(1))]), F(1))])
    assert ft(h) == FiniteDist.point(((vnum(0),), ht(1)))


def test_ft_p2_p4_agree():
    from conftest import p_init

    a = ft(run_module(load("P2"), p_init()))
    b = ft(run_module(load("P4"), p_init()))
    expected = FiniteDist.uniform(
        [((vnum(0),), ht(2)), ((vnum(1),), ht(1)), ((vnum(1),), ht(3))]
    )
    assert a == expected and b == expected


# -- Bayes vulnerability ---------------------------------------------------------


def test_bv_paper_values():
    assert bayes_vuln(threebox("threebox_S")) == F(2, 3)
    assert bayes_vuln(threebox("threebox_I1")) == F(1, 3)
    assert bayes_vuln(threebox("threebox_I2")) == F(2, 3)


def test_bv_point_hyper_is_one():
    h = hyper([(((vnum(0),), [(ht(1), F(1))]), F(1))])
    assert bayes_vuln(h) == 1


def test_bv_skip_h_skip():
    from conftest import run_source

    src = "hid h : {1/4, 1/2}; vis v : {0}; skip [h] skip"
    init = SplitState(
        (vnum(0),), FiniteDist.uniform([(vnum(F(1, 4)),), (vnum(F(1, 2)),)])
    )
    assert bayes_vuln(run_source(src, init)) == F(5, 8)


def test_bv_decomposes_over_partitions():
    rng = random.Random(3)
    for _ in range(30):
        h = rand_hyper(rng, [vnum(0), vnum(1)], [vnum(k) for k in range(3)])
        total = sum(
            (bv_partition(extract_partition(h, v)) for v in h.visible_values()), F(0)
        )
        assert bayes_vuln(h) == total


def test_bv_bounds_with_full_support():
    rng = random.Random(5)
    hvals = [vnum(k) for k in range(4)]
    for _ in range(30):
        pairs = []
        weights = [F(rng.randint(1, 9)) for _ in range(2)]
        t = sum(weights)
        for k, w in enumerate(weights):
            pairs.append(
                (((vnum(k),), list(rand_full_dist(rng, [(x,) for x in hvals]).items())), w / t)
            )
        h = hyper(pairs)
        assert F(1, 4) <= bayes_vuln(h) <= 1
        marg = FiniteDist(
            [(hv, q) for (_, hv), q in ft(h).items()]
        )
        assert bayes_vuln(h) >= marg.max_weight()


# -- Shannon ---------------------------------------------------------------------


def test_shannon_I2_exactly_two_thirds():
    sv = shannon_entropy(threebox("threebox_I2"))
    assert sv.lo <= F(2, 3) <= sv.hi
    assert abs(float(sv.value) - 2 / 3) < 1e-9


def test_shannon_S_is_lg3_minus_two_thirds():
    sv = shannon_entropy(threebox("threebox_S"))
    with mpmath.workprec(200):
        want = mpmath.log(3, 2) - mpmath.mpf(2) / 3
    assert abs(float(sv.value) - float(want)) < 1e-9


def test_shannon_point_deltas_zero():
    h = hyper(
        [
            (((vnum(0),), [(ht(0), F(1))]), F(1, 2)),
            (((vnum(1),), [(ht(1), F(1))]), F(1, 2)),
        ]
    )
    sv = shannon_entropy(h)
    assert sv.lo <= 0 <= sv.hi


def test_shannon_enclosure_is_tight():
    sv = shannon_entropy(threebox("threebox_S"), precision=128)
    assert sv.hi - sv.lo <= F(1, 2 ** 120)


# -- guessing entropy ---------------------------------------------------------------


def test_gentropy_paper_values():
    assert guessing_entropy(threebox("threebox_S")) == F(4, 3)
    assert guessing_entropy(threebox("threebox_I2")) == F(4, 3)


def test_gentropy_point_is_one():
    h = hyper([(((vnum(0),), [(ht(1), F(1))]), F(1))])
    assert guessing_entropy(h) == 1


def test_gentropy_context_values():
    from hyperflow.lang import ast as A
    from hyperflow.lang import parse_program

    ctx = parse_program("h := (1 if h = 2 else h)")

    def with_ctx(name):
        m = load(name)
        return run_module(A.Module(m.decls, A.Seq(m.body, ctx)), threebox_init())

    assert guessing_entropy(with_ctx("threebox_S")) == F(7, 6)
    assert guessing_entropy(with_ctx("threebox_I2")) == F(4, 3)


def test_gentropy_against_brute_force_guess_orders():
    rng = random.Random(7)
    hvals = [(vnum(k),) for k in range(4)]
    for _ in range(20):
        delta = rand_full_dist(rng, hvals)
        h = hyper([(((vnum(0),), list(delta.items())), F(1))])
        probs = [q for _, q in delta.items()] + [F(0)] * (4 - len(delta))
        assert guessing_entropy(h) == brute_force_guess_count(probs)
    # several split-states, partial supports, hidden domains up to 6
    for _ in range(20):
        n = rng.randint(1, 6)
        h = rand_hyper(rng, [vnum(0), vnum(1)], [vnum(k) for k in range(n)])
        expected = sum(
            (
                w * brute_force_guess_count(
                    [q for _, q in s.delta.items()] + [F(0)] * (n - len(s.delta))
                )
                for s, w in h.items()
            ),
            F(0),
        )
        assert guessing_entropy(h) == expected


def test_gentropy_at_least_one_equality_iff_points():
    rng = random.Random(9)
    for _ in range(25):
        h = rand_hyper(rng, [vnum(0)], [vnum(k) for k in range(3)])
        g = guessing_entropy(h)
        assert g >= 1
        assert (g == 1) == all(len(s.delta) == 1 for s, _ in h.items())


# -- marginal guesswork ----------------------------------------------------------------


def marginal_oracle(h: HyperDist, alpha, n: int) -> int:
    """Independent oracle: try every i and every per-state guess set."""
    for i in range(1, n + 1):
        total = F(0)
        for s, w in h.items():
            probs = [q for _, q in s.delta.items()] + [F(0)] * (n - len(s.delta))
            best = max(
                sum(combo, F(0)) for combo in itertools.combinations(probs, i)
            )
            total += w * best
        if total >= alpha:
            return i
    raise AssertionError("unreachable")


def paper_guesswork_pair():
    v = (vnum(0),)
    ds = hyper(
        [
            ((v, [(ht(0), F(1))]), F(1, 2)),
            ((v, [(ht(k), F(1, 4)) for k in (1, 2, 3, 4)]), F(1, 2)),
        ]
    )
    di = hyper(
        [((v, [(ht(0), F(1, 2))] + [(ht(k), F(1, 8)) for k in (1, 2, 3, 4)]), F(1))]
    )
    return ds, di


def test_guesswork_paper_pair_both_one():
    ds, di = paper_guesswork_pair()
    assert marginal_guesswork(ds, F(1, 2)) == 1
    assert marginal_guesswork(di, F(1, 2)) == 1


def test_guesswork_alpha_one_covers_largest_support():
    ds, di = paper_guesswork_pair()
    assert marginal_guesswork(ds, F(1)) == 4
    assert marginal_guesswork(di, F(1)) == 5


def test_guesswork_nondecreasing_in_alpha():
    rng = random.Random(11)
    for _ in range(20):
        h = rand_hyper(rng, [vnum(0), vnum(1)], [vnum(k) for k in range(4)])
        values = [
            marginal_guesswork(h, F(k, 8)) for k in range(1, 9)
        ]
        assert values == sorted(values)


def test_guesswork_matches_oracle():
    rng = random.Random(13)
    for _ in range(15):
        h = rand_hyper(rng, [vnum(0)], [vnum(k) for k in range(4)])
        for alpha in (F(1, 4), F(1, 2), F(3, 4), F(1)):
            assert marginal_guesswork(h, alpha) == marginal_oracle(h, alpha, 4)


def test_guesswork_matches_oracle_at_every_threshold():
    # alpha exactly at each i-guess success probability, where ">=" matters
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(1, 6)
        h = rand_hyper(rng, [vnum(0), vnum(1)], [vnum(k) for k in range(n)])
        for i in range(1, n + 1):
            alpha = sum(
                (
                    w * max(sum(c, F(0)) for c in itertools.combinations(
                        [q for _, q in s.delta.items()] + [F(0)] * (n - len(s.delta)), i
                    ))
                    for s, w in h.items()
                ),
                F(0),
            )
            assert marginal_guesswork(h, alpha) == marginal_oracle(h, alpha, n) <= i


# -- elementary comparison ----------------------------------------------------------


def test_elementary_bayes_holds_threebox():
    s, i1, i2 = (threebox(n) for n in ("threebox_S", "threebox_I1", "threebox_I2"))
    assert elementary_compare(s, i1, BAYES).kind == "Holds"
    assert elementary_compare(s, i2, BAYES).kind == "Holds"


def test_elementary_reflexive_for_all_measures():
    s = threebox("threebox_S")
    for m in (BAYES, SHANNON, GENTROPY, guesswork(F(1, 2))):
        assert elementary_compare(s, s, m).kind == "Holds"


def test_elementary_functional_mismatch():
    a = hyper([(((vnum(0),), [(ht(0), F(1))]), F(1))])
    b = hyper([(((vnum(0),), [(ht(1), F(1))]), F(1))])
    assert elementary_compare(a, b, BAYES).kind == "FailsFunctional"


def test_elementary_bayes_fails_increased_vulnerability():
    s = threebox("threebox_I1")
    i = threebox("threebox_S")  # same ft, higher vulnerability
    verdict = elementary_compare(s, i, BAYES)
    assert verdict.kind == "FailsMeasure"
    assert (verdict.spec_value, verdict.impl_value) == (F(1, 3), F(2, 3))


def test_elementary_shannon_order_and_context_reversal():
    from hyperflow.lang import ast as A
    from hyperflow.lang import parse_program

    s = threebox("threebox_S")
    i2 = threebox("threebox_I2")
    # I2 below S in the Shannon order (H(I2)=2/3 < H(S)~0.918)
    assert elementary_compare(i2, s, SHANNON).kind == "Holds"
    assert elementary_compare(s, i2, SHANNON).kind == "FailsMeasure"
    ctx = parse_program("h := (1 if h = 2 else h)")

    def with_ctx(name):
        m = load(name)
        return run_module(A.Module(m.decls, A.Seq(m.body, ctx)), threebox_init())

    cs, ci2 = with_ctx("threebox_S"), with_ctx("threebox_I2")
    hs = shannon_entropy(cs)
    assert abs(float(hs.value) - 0.4591479170272448) < 1e-9
    # ... and the order flips under the context
    assert elementary_compare(ci2, cs, SHANNON).kind == "FailsMeasure"


def test_elementary_shannon_inconclusive_on_equal_entropies():
    # same ft, same entropy, different hypers: the enclosures overlap and
    # the comparison refuses to pick a side
    a = hyper(
        [
            ((BOT, [(ht(0), F(1, 2)), (ht(1), F(1, 2))]), F(1, 2)),
            ((BOT, [(ht(2), F(1, 2)), (ht(3), F(1, 2))]), F(1, 2)),
        ]
    )
    b = hyper(
        [
            ((BOT, [(ht(0), F(1, 2)), (ht(2), F(1, 2))]), F(1, 2)),
            ((BOT, [(ht(1), F(1, 2)), (ht(3), F(1, 2))]), F(1, 2)),
        ]
    )
    assert ft(a) == ft(b) and a != b
    assert elementary_compare(a, b, SHANNON).kind == "ToleranceInconclusive"


def test_elementary_domain_mismatch():
    a = hyper([(((vnum(0),), [(ht(0), F(1))]), F(1))])
    b = hyper([(((), [(ht(0), F(1))]), F(1))])
    with pytest.raises(DomainMismatch):
        elementary_compare(a, b, BAYES)


def test_shannon_precision_floor():
    with pytest.raises(ValueError):
        shannon_entropy(threebox("threebox_S"), precision=32)
