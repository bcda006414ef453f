"""Split-state semantics: command rows, embeddings, blocks, and laws."""

import functools
import itertools
import random
from fractions import Fraction as F

import pytest

from conftest import (
    ht,
    hyper,
    load,
    rand_full_dist,
    rand_program,
    rand_small_init,
    run_module,
    run_source,
    small_scope_module,
    threebox_init,
)
from hyperflow.errors import DistNotOneSumming, UnsupportedConstruct
from hyperflow.errors import EvalError
from hyperflow.lang import ast as A
from hyperflow.lang import desugar, parse, parse_program
from hyperflow.lang import validate
from hyperflow.measures import ft
from hyperflow.probcore import FiniteDist, expected_value, vbool, vnum, vsym
from hyperflow.semantics import (
    HyperDist,
    Scope,
    SplitState,
    classical_eval,
    eval_atomic_block,
    hide_embed,
)
from hyperflow.semantics import eval as eval_hyper
from hyperflow.semantics import eval_expr

SC2 = Scope.of_module(parse("vis v : {0,1}; hid h : {0,1}; skip"))
SC23 = Scope.of_module(parse("vis v : {0,1}; hid h : {0..2}; skip"))


def point_delta(*ks):
    return FiniteDist.point(ht(*ks))


# -- classical semantics -----------------------------------------------------


def test_classical_assign_visible():
    out = classical_eval(parse_program("v := h"), SC2, ((vnum(0),), ht(1)))
    assert out == FiniteDist.point(((vnum(1),), ht(1)))


def test_classical_uniform_choice():
    out = classical_eval(parse_program("h <- uniform{0,1,2}"), SC23, ((vnum(1),), ht(0)))
    assert out == FiniteDist.uniform([((vnum(1),), ht(k)) for k in range(3)])


def test_classical_threebox_middle_statement():
    src = "vis v : {w, b, bot}; hid h : {0..2}; v <- {w @ h/2, b @ 1 - h/2}"
    m = parse(src)
    scope = Scope.of_module(m)
    out = classical_eval(m.body, scope, ((vsym("bot"),), ht(1)))
    assert out == FiniteDist(
        [(((vsym("w"),), ht(1)), F(1, 2)), (((vsym("b"),), ht(1)), F(1, 2))]
    )


def test_classical_checks_one_summing():
    src = "hid h : {0..2}; vis v : {0,1}; h <- {0 @ h/2, 1 @ 1/3}"
    m = parse(src)
    with pytest.raises(DistNotOneSumming):
        classical_eval(m.body, Scope.of_module(m), ((vnum(0),), ht(2)))


# -- hide embedding -----------------------------------------------------------


def test_hide_embed_paper_example():
    joint = FiniteDist.uniform(
        [((vnum(0),), ht(0)), ((vnum(0),), ht(2)), ((vnum(1),), ht(1))]
    )
    out = hide_embed(joint)
    assert out == hyper(
        [
            (((vnum(0),), [(ht(0), F(1, 2)), (ht(2), F(1, 2))]), F(2, 3)),
            (((vnum(1),), [(ht(1), F(1))]), F(1, 3)),
        ]
    )


def test_hide_embed_point():
    joint = FiniteDist.point(((vnum(1),), ht(0)))
    assert hide_embed(joint) == HyperDist.point(SplitState((vnum(1),), point_delta(0)))


def test_hide_embed_product_keeps_delta():
    delta = FiniteDist([(ht(0), F(1, 4)), (ht(1), F(3, 4))])
    joint = FiniteDist(
        [
            (((vnum(v),), h), F(1, 2) * w)
            for v in (0, 1)
            for h, w in delta.items()
        ]
    )
    out = hide_embed(joint)
    assert all(s.delta == delta for s, _ in out.items())


# -- hyper semantics: atomic rows -----------------------------------------------


def test_skip_is_identity():
    s = SplitState((vnum(0),), FiniteDist.uniform([ht(0), ht(1)]))
    assert eval_hyper(A.Skip(), SC2, s) == HyperDist.point(s)


def test_assign_visible_reveals_h():
    s = SplitState((vnum(0),), FiniteDist.uniform([ht(0), ht(1)]))
    out = eval_hyper(parse_program("v := h"), SC2, s)
    assert out == hyper(
        [
            (((vnum(0),), [(ht(0), F(1))]), F(1, 2)),
            (((vnum(1),), [(ht(1), F(1))]), F(1, 2)),
        ]
    )


def test_choose_visible_independent_reveals_nothing():
    delta = FiniteDist([(ht(0), F(1, 3)), (ht(1), F(2, 3))])
    s = SplitState((vnum(0),), delta)
    out = eval_hyper(parse_program("v <- {0 @ 1/3, 1 @ 2/3}"), SC2, s)
    assert out == hyper(
        [
            (((vnum(0),), list(delta.items())), F(1, 3)),
            (((vnum(1),), list(delta.items())), F(2, 3)),
        ]
    )


def test_assign_visible_h_mod_2():
    s = SplitState((vnum(0),), FiniteDist.uniform([ht(0), ht(1), ht(2)]))
    out = eval_hyper(parse_program("v := h mod 2"), SC23, s)
    assert out == hyper(
        [
            (((vnum(0),), [(ht(0), F(1, 2)), (ht(2), F(1, 2))]), F(2, 3)),
            (((vnum(1),), [(ht(1), F(1))]), F(1, 3)),
        ]
    )


def test_choose_hidden_mixes_delta():
    s = SplitState((vnum(0),), FiniteDist.uniform([ht(0), ht(1)]))
    out = eval_hyper(parse_program("h <- uniform{0,1,2}"), SC23, s)
    assert out == HyperDist.point(
        SplitState((vnum(0),), FiniteDist.uniform([ht(0), ht(1), ht(2)]))
    )


def test_implicit_flow_of_general_choice():
    s = SplitState((vnum(0),), FiniteDist.uniform([ht(0), ht(1)]))
    out = eval_hyper(parse_program("h := 0 [1/2] h := 1"), SC2, s)
    assert out == hyper(
        [
            (((vnum(0),), [(ht(0), F(1))]), F(1, 2)),
            (((vnum(0),), [(ht(1), F(1))]), F(1, 2)),
        ]
    )


def test_general_choice_partial_leak():
    src = "hid h : {1/4, 1/2}; vis v : {0}; skip [h] skip"
    quarter, half = (vnum(F(1, 4)),), (vnum(F(1, 2)),)
    init = SplitState((vnum(0),), FiniteDist.uniform([quarter, half]))
    out = run_source(src, init)
    assert out == hyper(
        [
            (((vnum(0),), [(quarter, F(1, 3)), (half, F(2, 3))]), F(3, 8)),
            (((vnum(0),), [(quarter, F(3, 5)), (half, F(2, 5))]), F(5, 8)),
        ]
    )


def test_zero_probability_branch_contributes_nothing():
    s = SplitState((vnum(0),), point_delta(1))
    out = eval_hyper(parse_program("v := 1 [0] v := 0"), SC2, s)
    assert out == HyperDist.point(SplitState((vnum(0),), point_delta(1)))


def test_conditional_reveals_guard():
    s = SplitState((vnum(0),), FiniteDist.uniform([ht(0), ht(1), ht(2)]))
    out = eval_hyper(parse_program("if h = 0 then skip else skip fi"), SC23, s)
    assert out == hyper(
        [
            (((vnum(0),), [(ht(0), F(1))]), F(1, 3)),
            (((vnum(0),), [(ht(1), F(1, 2)), (ht(2), F(1, 2))]), F(2, 3)),
        ]
    )


# -- three-box programs ----------------------------------------------------------


def test_threebox_S_hyper():
    out = run_module(load("threebox_S"), threebox_init())
    bot = (vsym("bot"),)
    assert out == hyper(
        [
            ((bot, [(ht(1), F(1, 3)), (ht(2), F(2, 3))]), F(1, 2)),
            ((bot, [(ht(0), F(2, 3)), (ht(1), F(1, 3))]), F(1, 2)),
        ]
    )


def test_threebox_I1_reduces_to_single_split_state():
    out = run_module(load("threebox_I1"), threebox_init())
    bot = (vsym("bot"),)
    assert out == hyper([((bot, [(ht(k), F(1, 3)) for k in range(3)]), F(1))])


def test_threebox_I2_hyper():
    out = run_module(load("threebox_I2"), threebox_init())
    bot = (vsym("bot"),)
    assert out == hyper(
        [
            ((bot, [(ht(2), F(1))]), F(1, 3)),
            ((bot, [(ht(0), F(1, 2)), (ht(1), F(1, 2))]), F(2, 3)),
        ]
    )


# -- reduction ----------------------------------------------------------------


def test_reduce_merges_equal_split_states():
    s = SplitState((vnum(0),), point_delta(0))
    out = HyperDist([(s, F(1, 2)), (s, F(1, 2))])
    assert out == HyperDist.point(s)


def test_reduce_canonical_is_identity():
    out = run_module(load("threebox_S"), threebox_init())
    assert HyperDist(out) == out


# -- atomicity ------------------------------------------------------------------


def test_atomic_equals_plain_for_syntactically_atomic():
    rng = random.Random(3)
    for src in ("v := h mod 2", "h <- uniform{0,1,2}", "v <- {0 @ h/2, 1 @ 1 - h/2}", "skip"):
        p = parse_program(src)
        for _ in range(5):
            s = rand_small_init(rng)
            assert eval_hyper(A.Atomic(p), SC23, s) == eval_hyper(p, SC23, s)


def test_atomic_suppresses_recall():
    s = SplitState((vnum(1),), FiniteDist.uniform([ht(0), ht(1)]))
    out = eval_hyper(parse_program("atomic { v := h; v := 0 }"), SC2, s)
    assert out == HyperDist.point(
        SplitState((vnum(0),), FiniteDist.uniform([ht(0), ht(1)]))
    )


def test_atomic_block_is_hide_of_classical_expectation():
    rng = random.Random(5)
    for _ in range(20):
        p = rand_program(rng, depth=2, allow_local=False, in_atomic=True)
        s = rand_small_init(rng)
        direct = eval_atomic_block(p, SC23, s)
        joint = expected_value(
            s.delta, lambda h: classical_eval(p, SC23, (s.v, h))
        )
        assert direct == hide_embed(joint)


# -- local blocks and the Encryption Lemma -----------------------------------------


def test_local_visible_observation_persists_after_exit():
    # the local copies h into a visible temp; its scope ends, but the split
    # it caused must remain (perfect recall)
    src = (
        "vis v : {0,1}; hid h : {0,1}; "
        "local vis t : {0,1} := {0 @ 1} in { t := h }"
    )
    s = SplitState((vnum(0),), FiniteDist.uniform([ht(0), ht(1)]))
    out = run_source(src, s)
    assert out == hyper(
        [
            (((vnum(0),), [(ht(0), F(1))]), F(1, 2)),
            (((vnum(0),), [(ht(1), F(1))]), F(1, 2)),
        ]
    )


def test_local_hidden_marginalised_on_exit():
    src = (
        "vis v : {0,1}; hid h : {0,1}; "
        "local hid t : {0,1} := uniform{0,1} in { v := t }"
    )
    s = SplitState((vnum(0),), point_delta(0))
    out = run_source(src, s)
    # v ends 0 or 1 with 1/2 each; t is gone, h untouched
    assert out == hyper(
        [
            (((vnum(0),), [(ht(0), F(1))]), F(1, 2)),
            (((vnum(1),), [(ht(0), F(1))]), F(1, 2)),
        ]
    )


def test_later_local_init_reads_earlier_local():
    src = (
        "vis v : {0,1}; hid h : {0,1}; "
        "local hid a : {0,1} := uniform{0,1}, hid b : {0,1} := {a @ 1} in { v := b }"
    )
    s = SplitState((vnum(0),), point_delta(0))
    out = run_source(src, s)
    assert out == hyper(
        [
            (((vnum(0),), [(ht(0), F(1))]), F(1, 2)),
            (((vnum(1),), [(ht(0), F(1))]), F(1, 2)),
        ]
    )


def encryption_grid():
    f, t = (vbool(False),), (vbool(True),)
    yield FiniteDist.point(f)
    yield FiniteDist.point(t)
    yield FiniteDist.uniform([f, t])
    rng = random.Random(17)
    for _ in range(20):
        yield rand_full_dist(rng, [f, t])


def test_encryption_lemma_block_equals_skip():
    m = desugar(load("encryption_lemma"))
    scope = Scope.of_module(m)
    for delta in encryption_grid():
        s = SplitState((), delta)
        assert eval_hyper(m.body, scope, s) == HyperDist.point(s)


def test_biased_choice_breaks_the_encryption_lemma():
    # flipping a biased private coin and revealing its xor with e leaks
    src = (
        "hid e : {false,true}; "
        "local vis p : {false,true} := {false @ 1}, "
        "      hid k : {false,true} := {false @ 1} in { "
        "  k <- {true @ 1/3, false @ 2/3}; p := k xor e }"
    )
    m = desugar(parse(src))
    scope = Scope.of_module(m)
    f, t = (vbool(False),), (vbool(True),)
    delta = FiniteDist([(f, F(1, 4)), (t, F(3, 4))])
    s = SplitState((), delta)
    assert eval_hyper(m.body, scope, s) != HyperDist.point(s)


# -- algebraic laws ---------------------------------------------------------------


def test_seq_skip_identities():
    rng = random.Random(23)
    for _ in range(25):
        p = rand_program(rng, depth=2)
        s = rand_small_init(rng)
        body = desugar(small_scope_module(p)).body
        base = eval_hyper(body, SC23, s)
        assert eval_hyper(A.Seq(body, A.Skip()), SC23, s) == base
        assert eval_hyper(A.Seq(A.Skip(), body), SC23, s) == base


def test_sequencing_is_associative_and_compositional():
    # both evaluators fold a sequence left to right; each nesting must give
    # the meaning of running the first part, then the rest from each outcome
    rng = random.Random(37)
    for _ in range(30):
        a, b, c = (rand_program(rng, depth=2) for _ in range(3))
        s = rand_small_init(rng)
        left, right = A.Seq(A.Seq(a, b), c), A.Seq(a, A.Seq(b, c))
        out = eval_hyper(right, SC23, s)
        assert eval_hyper(left, SC23, s) == out
        assert out == HyperDist(
            [
                (st2, w * w2)
                for st, w in eval_hyper(a, SC23, s).items()
                for st2, w2 in eval_hyper(A.Seq(b, c), SC23, st).items()
            ]
        )
        assert eval_atomic_block(left, SC23, s) == eval_atomic_block(right, SC23, s)
        start = (s.v, s.delta.support[0])
        assert classical_eval(right, SC23, start) == expected_value(
            classical_eval(a, SC23, start), lambda st: classical_eval(A.Seq(b, c), SC23, st)
        )


def test_long_straight_line_sequence_evaluates():
    # 3000 statements, built as an AST so that no parser or validator runs;
    # the evaluators must not recurse down the sequence
    stmts = (
        [parse_program("v := h mod 2")]
        + [parse_program("h := (h + 1) mod 3")] * 2998
        + [parse_program("v := 0")]
    )
    right_nested = stmts[-1]
    for stmt in reversed(stmts[:-1]):
        right_nested = A.Seq(stmt, right_nested)
    s = SplitState((vnum(0),), FiniteDist.uniform([ht(0), ht(1), ht(2)]))
    for prog in (right_nested, functools.reduce(A.Seq, stmts)):
        # the first statement's split is recalled; 2998 increments shift h by 1
        assert eval_hyper(prog, SC23, s) == hyper(
            [
                (((vnum(0),), [(ht(1), F(1, 2)), (ht(0), F(1, 2))]), F(2, 3)),
                (((vnum(0),), [(ht(2), F(1))]), F(1, 3)),
            ]
        )
        assert eval_hyper(A.Atomic(prog), SC23, s) == HyperDist.point(s)


def test_functional_projection_law():
    rng = random.Random(29)
    for _ in range(40):
        p = desugar(small_scope_module(rand_program(rng, depth=3))).body
        s = rand_small_init(rng)
        lhs = ft(eval_hyper(p, SC23, s))
        rhs = expected_value(s.delta, lambda h: classical_eval(p, SC23, (s.v, h)))
        assert lhs == rhs


def test_outer_weights_sum_one_and_inner_full():
    rng = random.Random(31)
    for _ in range(30):
        p = desugar(small_scope_module(rand_program(rng, depth=3))).body
        out = eval_hyper(p, SC23, rand_small_init(rng))
        assert sum((w for _, w in out.items()), F(0)) == 1
        assert all(s.delta.is_full for s, _ in out.items())


def test_reveal_must_be_desugared():
    with pytest.raises(UnsupportedConstruct):
        eval_hyper(A.Reveal(A.Name("v")), SC2, SplitState((vnum(0),), point_delta(0)))


# -- binary operators: the validator's kinds against evaluated values ----------

_LITERALS = {
    "bool": (vbool(True), vbool(False)),
    "num": (vnum(7), vnum(F(1, 2))),
    "int": (vnum(7), vnum(2)),
    "sym": (vsym("w"), vsym("k")),
}
# literal kinds each operand kind of the table takes
_TAKES = {"bool": ("bool",), "num": ("num", "bool"), "int": ("int", "bool"), "any": ("num", "bool", "sym")}


def _checked_kind(e: A.Expr) -> str:
    # storing into an enum variable reports the kind the validator gave e
    m = A.Module(parse("vis s : {w, k}; skip").decls, A.Assign("s", e))
    (stored,) = [d for d in validate(m) if d.message.startswith("cannot store a ")]
    return stored.message.split()[3]


def test_operator_result_kinds_match_evaluated_values():
    for name, op in A.BINOPS.items():
        for lk, rk in itertools.product(_TAKES[op.operand], repeat=2):
            for lv, rv in itertools.product(_LITERALS[lk], _LITERALS[rk]):
                if op.by_zero and not rv.payload:
                    continue
                e = A.Binop(name, A.Lit(lv), A.Lit(rv))
                assert _checked_kind(e) == eval_expr(e, {}).kind, (name, lv, rv)


_ZERO_DIVISOR_ERRORS = {"/": "division by zero", "div": "div by zero", "mod": "mod by zero"}


def test_dividing_operators_reject_a_zero_divisor():
    assert {name for name, op in A.BINOPS.items() if op.by_zero} == set(_ZERO_DIVISOR_ERRORS)
    for name, message in _ZERO_DIVISOR_ERRORS.items():
        m = parse(f"vis v : {{0..3}}; v := v {name} (1 - 1)")
        assert [(d.code, d.message) for d in validate(m)] == [("DivisionByZero", f"'{name}' by the constant 0")]
        with pytest.raises(EvalError) as err:
            eval_expr(A.Binop(name, A.Name("v"), A.Name("z")), {"v": vnum(3), "z": vnum(0)})
        assert str(err.value) == message


def test_and_or_short_circuit_but_xor_evaluates_both_operands():
    assert eval_expr(parse_program("reveal false and (1 div 0 = 0)").expr, {}) == vbool(False)
    assert eval_expr(parse_program("reveal true or (1 div 0 = 0)").expr, {}) == vbool(True)
    # xor evaluates both operands before it checks either
    with pytest.raises(EvalError) as err:
        eval_expr(parse_program("reveal 3 xor not 0").expr, {})
    assert str(err.value) == "'not': expected a boolean, got 0"
