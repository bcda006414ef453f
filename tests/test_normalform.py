"""Matrix normal-form backend and the atomicity distribution check."""

import random
from collections import Counter
from fractions import Fraction as F

import pytest

from conftest import load, rand_program, rand_small_init, small_scope_module, threebox_init
from hyperflow.errors import UnsupportedConstruct
from hyperflow.lang import ast as A
from hyperflow.lang import desugar, parse, parse_program
from hyperflow.matrix import RatMatrix
from hyperflow.normalform import (
    StateIndex,
    _nf,
    check_atomic_distribution,
    classical_matrix,
    eval_via_normal_form,
    normal_form,
)
from hyperflow.probcore import FiniteDist, vnum
from hyperflow.semantics import Scope, SplitState
from hyperflow.semantics import eval as eval_hyper

SC2 = Scope.of_module(parse("vis v : {0,1}; hid h : {0,1}; skip"))
SC23 = Scope.of_module(parse("vis v : {0,1}; hid h : {0..2}; skip"))


def test_classical_matrix_rows_one_summing():
    rng = random.Random(2)
    for _ in range(10):
        p = rand_program(rng, depth=2, allow_local=False)
        m = classical_matrix(desugar(small_scope_module(p)).body, StateIndex.of_scope(SC23))
        assert all(sum(row, F(0)) == 1 for row in m.rows)


def test_skip_normal_form_is_visible_projections():
    nf = normal_form(A.Skip(), SC2)
    index = nf.index
    assert nf.matrices == [index.id_v(v) for v in index.v_tuples]


def test_assign_v_h_normal_form_hand_expansion():
    # V = H = {0,1}; classical matrix of v := h sends (v,h) to (h,h)
    nf = normal_form(parse_program("v := h"), SC2)
    [(m0), (m1)] = nf.matrices
    idx = nf.index
    c = RatMatrix.zero(4, 4)
    for i, (v, h) in enumerate(idx.pairs):
        c.rows[i][idx.index(h, h)] = F(1)
    assert m0 == c @ idx.id_v((vnum(0),))
    assert m1 == c @ idx.id_v((vnum(1),))


def test_seq_normal_form_size_multiplies():
    a = parse_program("v := h")
    b = parse_program("h <- uniform{0,1}")
    na = normal_form(a, SC2)
    nb = normal_form(b, SC2)
    nseq = normal_form(A.Seq(a, b), SC2)
    assert len(nseq.matrices) == len(na.matrices) * len(nb.matrices)


def test_seq_normal_form_is_the_pairwise_products():
    # the paper's sequencing: every product of a matrix of a with one of b
    rng = random.Random(47)
    for _ in range(20):
        a, b = (
            desugar(small_scope_module(rand_program(rng, depth=2, allow_local=False))).body
            for _ in range(2)
        )
        products = Counter(
            m1 @ m2
            for m1 in normal_form(a, SC23).matrices
            for m2 in normal_form(b, SC23).matrices
        )
        assert Counter(normal_form(A.Seq(a, b), SC23).matrices) == products


def test_nf_agrees_on_threebox():
    m = desugar(load("threebox_S"))
    scope = Scope.of_module(m)
    init = threebox_init()
    assert eval_via_normal_form(m.body, scope, init) == eval_hyper(m.body, scope, init)


def test_nf_agrees_on_skip():
    s = SplitState((vnum(0),), FiniteDist.point((vnum(0),)))
    assert eval_via_normal_form(A.Skip(), SC2, s) == eval_hyper(A.Skip(), SC2, s)


def test_nf_agrees_on_a_long_straight_line_program():
    # one visible value keeps one row, pushed through 10,000 statements
    src = "vis v : {0}; hid h : {0..2};\n" + ";\n".join(
        "h <- uniform{h, (h + 1) mod 3}" if i % 2 else "h := (h * 2) mod 3"
        for i in range(10_000)
    )
    m = parse(src)
    scope = Scope.of_module(m)
    s = SplitState((vnum(0),), FiniteDist.point((vnum(1),)))
    assert eval_via_normal_form(m.body, scope, s) == eval_hyper(m.body, scope, s)


def test_nf_evaluation_drops_zero_rows():
    # each assignment splits by the four visible values; only v = 0 carries mass
    m = parse("vis v : {0..3}; hid h : {0,1}; v := 0; v := 0; v := 0")
    scope = Scope.of_module(m)
    assert len(normal_form(m.body, scope).matrices) == 4**3
    index = StateIndex.of_scope(scope)
    s = SplitState((vnum(2),), FiniteDist([((vnum(0),), F(1, 3)), ((vnum(1),), F(2, 3))]))
    row = {index.index(s.v, h): w for h, w in s.delta}
    assert len(_nf(m.body, index, [[row]], keep_zero=False)) == 1
    assert eval_via_normal_form(m.body, scope, s) == eval_hyper(m.body, scope, s)


def test_nf_rejects_local_blocks():
    src = "vis v : {0,1}; local hid t : {0,1} := {0 @ 1} in { skip }"
    m = parse(src)
    with pytest.raises(UnsupportedConstruct):
        normal_form(m.body, Scope.of_module(m))


def test_nf_agrees_with_direct_evaluator_on_random_programs():
    # the 200-program duel also runs inside the acceptance suite; keep a
    # faster smoke version here
    rng = random.Random(41)
    for _ in range(40):
        p = desugar(small_scope_module(rand_program(rng, depth=3, allow_local=False))).body
        s = rand_small_init(rng)
        assert eval_via_normal_form(p, SC23, s) == eval_hyper(p, SC23, s)


# -- atomicity distribution ---------------------------------------------------


def test_atomicity_check_rejects_reveal_then_overwrite():
    report = check_atomic_distribution(
        parse_program("v := h"), parse_program("v := 0"), SC2
    )
    assert not report.ok
    v, v_final, m1, m2 = report.witness
    assert v_final == (vnum(0),) and m1 != m2


def test_atomicity_check_skip_pair():
    assert check_atomic_distribution(A.Skip(), A.Skip(), SC2).ok


def test_atomicity_check_encryption_decomposition():
    src = "vis p : {false,true}; hid k : {false,true}; hid e : {false,true}; skip"
    scope = Scope.of_module(parse(src))
    report = check_atomic_distribution(
        parse_program("p <- uniform{false,true}"),
        parse_program("k := p xor e"),
        scope,
    )
    assert report.ok


def test_atomicity_precondition_implies_distribution_law():
    rng = random.Random(43)
    tried = ok_pairs = 0
    while ok_pairs < 12 and tried < 300:
        tried += 1
        p1 = rand_program(rng, depth=1, allow_local=False, in_atomic=True)
        p2 = rand_program(rng, depth=1, allow_local=False, in_atomic=True)
        report = check_atomic_distribution(p1, p2, SC23)
        if not report.ok:
            continue
        ok_pairs += 1
        for _ in range(3):
            s = rand_small_init(rng)
            lhs = eval_hyper(A.Atomic(A.Seq(p1, p2)), SC23, s)
            rhs = eval_hyper(A.Seq(A.Atomic(p1), A.Atomic(p2)), SC23, s)
            assert lhs == rhs
    assert ok_pairs >= 12


def _brute_force_witness(p1, p2, scope):
    """The first (v, v', vhat1, vhat2) in v_tuples order where two
    intermediate visible values link v to v', read off dense matrices."""
    index = StateIndex.of_scope(scope)
    c1, c2 = classical_matrix(p1, index), classical_matrix(p2, index)
    nh = len(index.h_tuples)

    def block(v):
        t = index.v_tuples.index(v)
        return range(t * nh, (t + 1) * nh)

    def links(v, vhat, v_final):
        return any(
            any(c1[i, jm] != 0 for i in block(v)) and any(c2[jm, jf] != 0 for jf in block(v_final))
            for jm in block(vhat)
        )

    for v in index.v_tuples:
        for v_final in index.v_tuples:
            linking = [vhat for vhat in index.v_tuples if links(v, vhat, v_final)]
            if len(linking) > 1:
                return (v, v_final, linking[0], linking[1])
    return None


def test_atomicity_witness_matches_brute_force():
    rng = random.Random(53)
    failing = 0
    for _ in range(300):
        v_dom, h_dom = rng.choice([2, 3, 4]), rng.choice([2, 3])
        scope = Scope.of_module(parse(f"vis v : {{0..{v_dom - 1}}}; hid h : {{0..{h_dom - 1}}}; skip"))
        p1, p2 = (
            rand_program(rng, depth=2, allow_local=False, in_atomic=True, v_dom=v_dom, h_dom=h_dom)
            for _ in range(2)
        )
        report = check_atomic_distribution(p1, p2, scope)
        expected = _brute_force_witness(p1, p2, scope)
        assert report.ok == (expected is None)
        assert report.witness == expected
        failing += not report.ok
    assert failing >= 30
