"""Parser, printer round trips, validation, views, and desugaring."""

import itertools
import json
import random
import re
from fractions import Fraction

import pytest

from conftest import CORPUS, load, rand_program, small_scope_module
from hyperflow.errors import HprogSyntaxError, UnknownAgent
from hyperflow.jsonio import module_json
from hyperflow.lang import ast as A
from hyperflow.lang import (
    agents_of,
    desugar,
    parse,
    parse_program,
    pretty_print,
    project_view,
    validate,
)
from hyperflow.lang.parser import tokenize
from hyperflow.lang.transform import has_construct
from hyperflow.probcore import FiniteDist, vnum
from hyperflow.semantics import eval_dist


def test_infix_choice_sugar():
    p = parse_program("h <- 0 [1/3] 1")
    assert isinstance(p, A.Choose)
    (e0, p0), (e1, p1) = p.dist.entries
    assert e0 == A.Lit(vnum(0)) and e1 == A.Lit(vnum(1))
    assert isinstance(p1, A.Binop) and p1.op == "-"  # 1 - 1/3


def test_uniform_chain_sugar():
    p = parse_program("h <- 0 [] 1 [] 2")
    assert p == A.Choose("h", A.DistUniform((A.Lit(vnum(0)), A.Lit(vnum(1)), A.Lit(vnum(2)))))


def test_parse_skip():
    assert parse_program("skip") == A.Skip()


def test_threebox_parses_to_three_statements():
    m = load("threebox_S")
    assert isinstance(m.body, A.Seq) and len(m.body.stmts) == 3
    assert isinstance(m.body.stmts[0], A.Choose)
    assert isinstance(m.body.stmts[-1], A.Assign)


def test_general_choice_between_statements():
    p = parse_program("skip [h] skip")
    assert p == A.GeneralChoice(A.Skip(), A.Name("h"), A.Skip())


def test_syntax_error_carries_position():
    with pytest.raises(HprogSyntaxError) as exc:
        parse("vis v : {0..1};\nskip skip")
    assert exc.value.line == 2


@pytest.mark.parametrize(
    "dist, message",
    [
        ("({0 @ 1} if h = 0 else ({1 @ 1} if h = 1 else {2 @ 1}) + 1)", "2:61: expected ')', found '+'"),
        ("({0 @ 1} if h = 0 else {1 @ 1)", "2:35: expected '}', found ')'"),
    ],
)
def test_a_broken_distribution_chain_is_reported_where_it_breaks(dist, message):
    with pytest.raises(HprogSyntaxError) as exc:
        parse("vis v : {0..2}; hid h : {0..2};\nv <- " + dist)
    assert str(exc.value) == message


def _tokens(src):
    return [(t.kind, t.text, t.line, t.col) for t in tokenize(src)]


def test_tokens_carry_line_and_column():
    # a tab and a '\r' are one column each; a comment that ends the file puts eof after it
    assert _tokens("vis\tx : {0..1};\r\nx := -1 // one\n// end") == [
        ("kw", "vis", 1, 1), ("ident", "x", 1, 5), (":", ":", 1, 7), ("{", "{", 1, 9),
        ("int", "0", 1, 10), ("..", "..", 1, 11), ("int", "1", 1, 13), ("}", "}", 1, 14),
        (";", ";", 1, 15), ("ident", "x", 2, 1), (":=", ":=", 2, 3), ("-", "-", 2, 6),
        ("int", "1", 2, 7), ("eof", "", 3, 7),
    ]
    assert _tokens("é_1 <=") == [("ident", "é_1", 1, 1), ("<=", "<=", 1, 5), ("eof", "", 1, 7)]


@pytest.mark.parametrize(
    "src, char, col", [("v := $", "$", 6), ("v := 1.5", ".", 7), ("v := ²", "²", 6), ("½", "½", 1)]
)
def test_unexpected_character_is_a_syntax_error(src, char, col):
    with pytest.raises(HprogSyntaxError) as exc:
        tokenize(src)
    assert str(exc.value) == f"1:{col}: unexpected character {char!r}"


def test_sequences_are_flat():
    a, b, c = (A.Assign("v", A.Lit(vnum(k))) for k in range(3))
    left, right = A.Seq(A.Seq(a, b), c), A.Seq(a, A.Seq(b, c))
    assert left == right == A.Seq(a, b, c) and hash(left) == hash(right)
    assert left.stmts == (a, b, c)
    with pytest.raises(ValueError):
        A.Seq(a)
    src = "vis v : {0..1};\n" + ";\n".join(["v := (v + 1) mod 2"] * 10_000)
    m1, m2 = parse(src), parse(src)
    assert m1 is not m2 and m1 == m2 and hash(m1) == hash(m2)
    assert repr(m1) == repr(m2)


def test_distribution_conditionals_are_flat():
    a, b, c = (A.DistExplicit(((A.Lit(vnum(k)), A.Lit(vnum(1))),)) for k in range(3))
    g, k = A.Name("g"), A.Name("k")
    chained = A.DistCond(a, g, A.DistCond(b, k, c))
    assert chained == A.DistCond(a, g, b, k, c) and hash(chained) == hash(A.DistCond(a, g, b, k, c))
    assert chained.arms == ((a, g), (b, k)) and chained.otherwise == c
    nested = A.DistCond(A.DistCond(a, g, b), k, c)
    assert nested.arms == ((A.DistCond(a, g, b), k),) and nested != chained
    with pytest.raises(ValueError):
        A.DistCond(a, g)
    decls = "vis v : {0..2}; hid g, k : {false, true}; "
    for text, node in (
        ("({0 @ 1} if g else ({1 @ 1} if k else {2 @ 1}))", chained),
        ("(({0 @ 1} if g else {1 @ 1}) if k else {2 @ 1})", nested),
    ):
        m = parse(decls + "v <- " + text)
        assert m.body.dist == node
        assert pretty_print(m).endswith("v <- " + text + "\n")


def test_pretty_print_skip():
    assert pretty_print(parse("skip")).strip() == "skip"


def test_pretty_print_general_choice():
    out = pretty_print(parse("skip [h] skip"))
    assert "skip [h]" in out and parse(out) == parse("skip [h] skip")


@pytest.mark.parametrize("name", sorted(f.stem for f in CORPUS.glob("*.hprog")))
def test_corpus_round_trip(name):
    m = load(name)
    assert parse(pretty_print(m)) == m


def test_random_program_round_trip():
    rng = random.Random(7)
    for _ in range(150):
        module = small_scope_module(rand_program(rng, depth=3))
        assert parse(pretty_print(module)) == module


def test_validate_clean_corpus():
    for f in CORPUS.glob("*.hprog"):
        m = parse(f.read_text())
        assert [d for d in validate(m) if d.severity == "error"] == []


def test_validate_undeclared_variable():
    m = parse("vis v : {0..1}; v := z")
    codes = [d.code for d in validate(m)]
    assert "UndeclaredVariable" in codes


def test_validate_weights_not_one_summing():
    m = parse("hid h : {0..1}; h <- {0 @ 1/2, 1 @ 1/3}")
    codes = [d.code for d in validate(m)]
    assert "WeightsNotOneSumming" in codes


def test_validate_local_needs_init():
    src = "vis v : {0..1}; local hid t : {0..1} in { v := t }"
    m = parse(src)
    assert any(d.code == "MissingLocalInit" for d in validate(m))
    relaxed = validate(m, allow_uniform_init=True)
    assert all(d.severity == "warning" for d in relaxed)


def test_validate_local_in_atomic_rejected():
    src = "vis v : {0..1}; atomic { local hid t : {0..1} := {0 @ 1} in { skip } }"
    assert any(d.code == "LocalInAtomic" for d in validate(parse(src)))


def test_validate_reveal_in_atomic_rejected():
    src = "vis v : {0..1}; atomic { reveal v }"
    assert any(d.code == "RevealInAtomic" for d in validate(parse(src)))


def test_validate_division_by_constant_zero():
    m = parse("vis v : {0..1}; v := v div 0")
    assert any(d.code == "DivisionByZero" for d in validate(m))
    m = parse("vis v : {0..1}; v := v div (2 div 2 - 1)")
    assert any(d.code == "DivisionByZero" for d in validate(m))
    m = parse("vis v : {0..1}; v := v mod (3 mod 3)")
    assert any(d.code == "DivisionByZero" for d in validate(m))


def test_constant_division_folds_exactly():
    m = parse("hid h : {0..2}; h <- {0 @ 1/3 + 1/3 + 1/3}; h <- {0 @ 1/3, 1 @ 1/3, 2 @ 1/3}")
    assert validate(m) == []
    assert A.BINOPS["/"].fn(1, 3) == Fraction(1, 3)


def test_validate_resolves_enum_constants_by_scope():
    outside = parse(
        "vis v : {0..1}; v := (1 if red = red else 0);"
        " local hid b : {red, blue} := {red @ 1} in { v := 0 }"
    )
    assert [(d.code, d.pos.line, d.pos.col) for d in validate(outside)] == [
        ("UndeclaredVariable", 1, 28),
        ("UndeclaredVariable", 1, 34),
    ]
    inside = parse(
        "vis v : {0..1};"
        " local hid b : {red, blue} := {red @ 1} in { v := (1 if b = red else 0) }"
    )
    assert validate(inside) == []


# -- views -------------------------------------------------------------------


def test_three_judges_view_A():
    m = project_view(load("three_judges_spec"), "A")
    vis = {d.name: d.visibility for d in m.decls}
    assert vis["a"] == A.VIS
    assert vis["b"] == A.HID and vis["c"] == A.HID


def test_two_party_view_B():
    m = project_view(load("two_party_conj"), "B")
    assert {d.name: d.visibility for d in m.decls} == {"b": A.VIS, "c": A.HID}
    block = m.body
    assert isinstance(block, A.LocalBlock)
    local_vis = {ld.decl.name: ld.decl.visibility for ld in block.decls}
    assert local_vis == {"b0": A.VIS, "b1": A.VIS, "c0": A.HID}


def test_view_of_global_only_program_unchanged():
    m = load("threebox_S")
    # no agent annotations anywhere: external view is the identity
    assert project_view(m, None) == m


def test_view_unknown_agent():
    with pytest.raises(UnknownAgent):
        project_view(load("three_judges_spec"), "Z")


def test_view_idempotent_and_structure_preserving():
    for agent in ("A", "B", "C", None):
        m = load("three_judges_fig2")
        once = project_view(m, agent)
        assert project_view(once, agent) == once
        assert A.node_count(once.body) == A.node_count(m.body)


def test_view_any_agent_on_global_only_module_is_identity():
    m = load("threebox_S")
    assert project_view(m, "A") == m


# -- desugaring ----------------------------------------------------------------


def test_desugar_reveal_becomes_local_assign():
    m = desugar(load("three_judges_spec"))
    block = m.body
    assert isinstance(block, A.LocalBlock)
    (ld,) = block.decls
    assert ld.decl.visibility == A.VIS
    assert isinstance(block.body, A.Assign)
    assert block.body.target == ld.decl.name
    # revealed expression is boolean: domain is {false, true}
    assert [v.kind for v in ld.decl.domain.values] == ["bool", "bool"]


def test_desugar_without_reveal_is_identity():
    m = load("threebox_S")
    assert desugar(m) == m


def test_desugar_xor_assign():
    from hyperflow.probcore import vbool

    m = parse(
        "vis p : {false,true}; hid k : {false,true}; hid e : {false,true};"
        "(p xor k) := e"
    )
    d = desugar(m)
    assert isinstance(d.body, A.Seq)
    assert d.body.stmts == (
        A.Choose("p", A.DistUniform((A.Lit(vbool(False)), A.Lit(vbool(True))))),
        A.Assign("k", A.Binop("xor", A.Name("p"), A.Name("e"))),
    )


def test_desugar_removes_all_sugar_and_validates():
    rng = random.Random(11)
    for name in ("two_party_conj", "three_judges_fig2", "three_judges_fig3"):
        m = desugar(project_view(load(name), "B"))
        assert not has_construct(m.body, (A.Reveal, A.XorAssign))
        assert [d for d in validate(m) if d.severity == "error"] == []


def test_desugar_fresh_names_avoid_collisions():
    src = "vis reveal_1 : {0..1}; hid h : {0..1}; reveal h = 1"
    d = desugar(parse(src))
    assert isinstance(d.body, A.LocalBlock)
    assert d.body.decls[0].decl.name != "reveal_1"


def _positions(body):
    return [(type(q).__name__, q.pos) for q in A.walk(body)]


def _parsed_with_local_blocks(n):
    """n printed-and-reparsed random programs that contain a local block."""
    rng = random.Random(23)
    while n:
        body = rand_program(rng, depth=4)
        if has_construct(body, (A.LocalBlock,)):
            n -= 1
            yield parse(pretty_print(small_scope_module(body)))


def test_rewrites_keep_node_positions():
    # validation of a projected view reports the positions these carry
    corpus = [load(f.stem) for f in sorted(CORPUS.glob("*.hprog"))]
    for m in corpus + list(_parsed_with_local_blocks(100)):
        before = _positions(m.body)
        assert all(pos is not None for kind, pos in before if kind != "Seq")
        for agent in sorted(agents_of(m)) + [None]:
            assert _positions(project_view(m, agent).body) == before
        d = desugar(m)
        if not has_construct(m.body, (A.Reveal, A.XorAssign)):
            assert _positions(d.body) == before
        # an expanded xor-assignment is a Seq that carries a position
        assert _positions(project_view(d, None).body) == _positions(d.body)


_LONG_STATEMENTS = [
    "v := (v + 1) mod 2",
    "h <- uniform{h, (h + 1) mod 3}",
    "(a xor k) := v = 1",
    "local vis{B} t : {0..1} := {0 @ 1} in { reveal (h + t) mod 2 }",
]


def test_walkers_handle_a_long_straight_line_program():
    # every lang walker iterates a sequence's statements instead of recursing on them
    n = 10_000
    src = "vis{A} a : {false, true}; vis v : {0..1}; hid h : {0..2}; hid k : {false, true};\n"
    m = parse(src + ";\n".join(_LONG_STATEMENTS[i % 4] for i in range(n)))
    stmts = list(A.statements(m.body))
    assert len(stmts) == n and A.node_count(m.body) == n + 1 + n // 4
    assert validate(m) == []
    assert agents_of(m) == {"A", "B"}
    assert has_construct(m.body, (A.Reveal,)) and not has_construct(m.body, (A.Cond,))
    viewed = project_view(m, "A")
    viewed_stmts = list(A.statements(viewed.body))
    assert viewed.decls[0].visibility == A.VIS and viewed_stmts[:3] == stmts[:3]
    assert viewed_stmts[-1].decls[0].decl.visibility == A.HID and len(viewed_stmts) == n
    d = desugar(viewed)
    assert not has_construct(d.body, (A.Reveal, A.XorAssign))
    # each xor-assignment becomes two statements; fresh names follow the source
    desugared = list(A.statements(d.body))
    assert len(desugared) == n + n // 4
    reveals = [q.body.decls[0].decl.name for q in desugared if isinstance(q, A.LocalBlock)]
    assert reveals == [f"reveal_{i}" for i in range(1, n // 4 + 1)]
    text = pretty_print(m)
    again = parse(text)
    assert pretty_print(again) == text
    assert again == m


def test_walkers_handle_a_long_conditional_distribution_chain():
    # a chain of conditional distributions is one node with a tuple of arms,
    # so no walker recurses once per arm
    n = 1200
    arms = "".join(f"({{{k % 3} @ 1}} if h = {k} else " for k in range(n))
    src = f"vis v : {{0..2}};\nhid h : {{0..{n}}};\n\nv <- {arms}uniform{{0, 1, 2}}" + ")" * n + "\n"
    m = parse(src)
    d = m.body.dist
    assert len(d.arms) == n and d.otherwise == A.DistUniform(tuple(A.Lit(vnum(k)) for k in range(3)))
    assert pretty_print(m) == src
    again = parse(pretty_print(m))
    assert again == m and hash(again) == hash(m) and repr(again) == repr(m)
    assert validate(m) == []
    for h, expected in ((0, FiniteDist.point(vnum(0))), (601, FiniteDist.point(vnum(1))),
                        (n, FiniteDist.uniform([vnum(k) for k in range(3)]))):
        assert eval_dist(d, {"v": vnum(0), "h": vnum(h)}) == expected
    node = json.loads(json.dumps(module_json(m)))["body"]["dist"]
    assert len(node["arms"]) == n and node["else"] == {"uniform": [{"lit": str(k)} for k in range(3)]}
    # each arm keeps the position of its own `(`
    bad = src.replace(f"if h = {n - 1} else", f"if h + {n - 1} else")
    col = bad.splitlines()[3].index(f"({{{(n - 1) % 3} @ 1}} if h + ") + 1
    assert [str(x) for x in validate(parse(bad))] == [
        f"4:{col}: error: TypeMismatch: distribution guard must be boolean"
    ]


# -- the operator table --------------------------------------------------------


def _exprs_over_operator_pairs():
    """For every ordered pair of binary operators, the inner one as the left
    and as the right child of the outer one, each also under `not`, unary
    minus and in every place of a conditional expression."""
    a, b, c = A.Name("a"), A.Name("b"), A.Name("c")
    for outer, inner in itertools.product(A.BINOPS, repeat=2):
        for e in (A.Binop(outer, A.Binop(inner, a, b), c), A.Binop(outer, a, A.Binop(inner, b, c))):
            yield e
            yield A.Unop("not", e)
            yield A.Unop("-", e)
            yield A.IfExpr(e, b, c)
            yield A.IfExpr(a, e, c)
            yield A.IfExpr(a, b, e)


def test_every_operator_pair_round_trips():
    for e in _exprs_over_operator_pairs():
        m = A.Module((), A.Assign("x", e))
        text = pretty_print(m)
        assert parse(text) == m, text
        assert pretty_print(parse(text)) == text


@pytest.mark.parametrize("src, col", [("x := a < b < c", 12), ("x := x and a < b < c", 18), ("x := not a < b < c", 16)])
def test_comparisons_do_not_chain(src, col):
    with pytest.raises(HprogSyntaxError) as err:
        parse_program(src)
    assert (err.value.line, err.value.col) == (1, col)
    assert str(err.value) == f"1:{col}: expected 'eof', found '<'"


def test_grammar_doc_lists_the_operator_table():
    doc = (CORPUS.parent / "docs" / "grammar.md").read_text()
    intro, block = doc.split("Binding, loosest to tightest")[1].split("```")[:2]
    assert "BINOPS" in intro
    listed = [set(re.findall(r'"([^"]+)"', line)) for line in block.strip().splitlines()]
    levels = sorted({op.level for op in A.BINOPS.values()} | {A.NOT_LEVEL})
    assert 0 < levels[0] and levels[-1] < A.UNARY_LEVEL  # 0 is the conditional
    groups = [
        {name for name, op in A.BINOPS.items() if op.level == level} | ({"not"} if level == A.NOT_LEVEL else set())
        for level in levels
    ]
    assert listed == [{"if", "else"}, *groups, {"-"}]
