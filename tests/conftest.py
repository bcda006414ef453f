"""Shared fixtures and seeded random generators."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

from hyperflow.lang import ast as A
from hyperflow.lang import desugar, parse
from hyperflow.probcore import Domain, FiniteDist, vnum, vsym
from hyperflow.semantics import HyperDist, Scope, SplitState
from hyperflow.semantics import eval as eval_hyper

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

F = Fraction


@pytest.fixture(scope="session")
def corpus():
    return CORPUS


def load(name: str) -> A.Module:
    return parse((CORPUS / f"{name}.hprog").read_text())


def run_module(module: A.Module, init: SplitState) -> HyperDist:
    m = desugar(module)
    return eval_hyper(m.body, Scope.of_module(m), init)


def run_source(src: str, init: SplitState) -> HyperDist:
    return run_module(parse(src), init)


def threebox_init() -> SplitState:
    return SplitState((vsym("bot"),), FiniteDist.point((vnum(0),)))


def p_init() -> SplitState:
    return SplitState((vnum(0),), FiniteDist.point((vnum(1),)))


def ht(*ks):
    """Hidden tuple of numeric values."""
    return tuple(vnum(k) for k in ks)


def hyper(pairs) -> HyperDist:
    return HyperDist(
        [(SplitState(v, FiniteDist(d)), w) for (v, d), w in pairs]
    )


# ---------------------------------------------------------------------------
# random rational structures
# ---------------------------------------------------------------------------


def rand_full_dist(rng: random.Random, points) -> FiniteDist:
    weights = [F(rng.randint(1, 16)) for _ in points]
    total = sum(weights)
    return FiniteDist([(p, w / total) for p, w in zip(points, weights)])


def rand_subdist(rng: random.Random, points, weight: Fraction) -> FiniteDist:
    full = rand_full_dist(rng, points)
    return full.scale(weight)


def rand_hyper(
    rng: random.Random,
    v_values: list,
    h_values: list,
    max_states: int = 4,
) -> HyperDist:
    """A random canonical hyper-distribution over single-variable tuples."""
    k = rng.randint(1, max_states)
    weights = [F(rng.randint(1, 12)) for _ in range(k)]
    total = sum(weights)
    pairs = []
    for w in weights:
        v = (rng.choice(v_values),)
        support = rng.sample(h_values, rng.randint(1, len(h_values)))
        delta = rand_full_dist(rng, [(h,) for h in sorted(support, key=str)])
        pairs.append((SplitState(v, delta), w / total))
    return HyperDist(pairs)


def rand_partition(rng: random.Random, n_fractions: int, n_h: int, weight=F(1)):
    """n_fractions random fractions over the hidden values 0..n_h-1 that
    add up to `weight`; each uses a random subset of the hidden values."""
    from hyperflow.refine import Partition

    shares = [F(rng.randint(1, 9)) for _ in range(n_fractions)]
    total = sum(shares)
    out = []
    for share in shares:
        hs = rng.sample(range(n_h), rng.randint(1, n_h))
        ws = [F(rng.randint(1, 9)) for _ in hs]
        pairs = [(ht(h), w / sum(ws) * share / total * weight) for h, w in zip(hs, ws)]
        out.append(FiniteDist(pairs))
    return Partition.of(out)


def rand_refinement_matrix(rng: random.Random, rows: int, cols: int):
    """Random column-stochastic matrix: a convex mix of simple matrices."""
    from hyperflow.matrix import RatMatrix

    k = rng.randint(1, 4)
    coefs = [F(rng.randint(1, 8)) for _ in range(k)]
    total = sum(coefs)
    m = RatMatrix.zero(rows, cols)
    for c in coefs:
        pick = [rng.randrange(rows) for _ in range(cols)]
        for col, row in enumerate(pick):
            m.rows[row][col] += c / total
    return m


def refine_hyper(rng: random.Random, h: HyperDist) -> HyperDist:
    """A hyper-distribution that the given one refines to (per-v merges)."""
    from hyperflow.refine import extract_partition

    pairs = []
    for v in h.visible_values():
        pi = extract_partition(h, v)
        rows = rng.randint(1, len(pi))
        r = rand_refinement_matrix(rng, rows, len(pi))
        for row in range(rows):
            acc = None
            for col, f in enumerate(pi.fractions):
                part = f.scale(r[row, col])
                acc = part if acc is None else acc.add(part)
            if acc.weight == 0:
                continue
            w = acc.weight
            pairs.append((SplitState(v, acc.scale(1 / w)), w))
    return HyperDist(pairs)


# ---------------------------------------------------------------------------
# random programs over a small scope
# ---------------------------------------------------------------------------

SMALL_SCOPE_SRC = "vis v : {0..1}; hid h : {0..2};"


def small_scope_module(body: A.Program) -> A.Module:
    header = parse(SMALL_SCOPE_SRC + " skip")
    return A.Module(header.decls, body)


def _rand_int_expr(rng: random.Random, names, modulus: int) -> A.Expr:
    def atom():
        if names and rng.random() < 0.6:
            return A.Name(rng.choice(names))
        return A.Lit(vnum(rng.randint(0, modulus)))

    e = atom()
    for _ in range(rng.randint(0, 2)):
        op = rng.choice(["+", "+", "*", "-"])
        e = A.Binop(op, e, atom())
    return A.Binop("mod", e, A.Lit(vnum(modulus)))


def _rand_guard(rng: random.Random, names, modulus: int) -> A.Expr:
    left = _rand_int_expr(rng, names, modulus)
    op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
    return A.Binop(op, left, A.Lit(vnum(rng.randint(0, modulus - 1))))


def _rand_prob(rng: random.Random, names, modulus: int) -> A.Expr:
    if rng.random() < 0.3 and names:
        # state-dependent probability, guaranteed inside [0,1]
        num = _rand_int_expr(rng, names, modulus)
        return A.Binop("/", num, A.Lit(vnum(modulus)))
    den = rng.randint(1, 6)
    num = rng.randint(0, den)
    return A.Binop("/", A.Lit(vnum(num)), A.Lit(vnum(den)))


def _rand_dist(rng: random.Random, names, values) -> A.DistExpr:
    style = rng.random()
    if style < 0.45:
        subset = rng.sample(values, rng.randint(1, len(values)))
        return A.DistUniform(tuple(A.Lit(vnum(x)) for x in sorted(subset)))
    if style < 0.8:
        k = rng.randint(1, min(3, len(values)))
        chosen = rng.sample(values, k)
        cuts = sorted(rng.randint(0, 12) for _ in range(k - 1))
        bounds = [0] + cuts + [12]
        entries = []
        for x, (a, b) in zip(chosen, itertools.pairwise(bounds)):
            entries.append((A.Lit(vnum(x)), _const_prob(F(b - a, 12))))
        return A.DistExplicit(tuple(entries))
    guard = _rand_guard(rng, names, len(values))
    return A.DistCond(
        _rand_dist(rng, names, values), guard, _rand_dist(rng, names, values)
    )


def _const_prob(q: Fraction) -> A.Expr:
    if q.denominator == 1:
        return A.Lit(vnum(q))
    return A.Binop("/", A.Lit(vnum(q.numerator)), A.Lit(vnum(q.denominator)))


def rand_program(
    rng: random.Random,
    depth: int = 3,
    allow_local: bool = True,
    in_atomic: bool = False,
    v_dom: int = 2,
    h_dom: int = 3,
    k_dom: int = 0,
) -> A.Program:
    """Random program over `vis v : {0..v_dom-1}; hid h : {0..h_dom-1}`,
    plus `hid k : {0..k_dom-1}` when k_dom > 0; with k_dom = 0 a seed
    draws the same program as it would without the parameter."""
    names = ["v", "h", "k"] if k_dom else ["v", "h"]
    moduli = {"v": v_dom, "h": h_dom, "k": k_dom}

    def sub(allow_local=allow_local, in_atomic=in_atomic):
        return rand_program(rng, depth - 1, allow_local, in_atomic, v_dom, h_dom, k_dom)

    def leaf():
        roll = rng.random()
        if roll < 0.15:
            return A.Skip()
        target = rng.choice(names)
        modulus = moduli[target]
        if roll < 0.55:
            return A.Assign(target, _rand_int_expr(rng, names, modulus))
        return A.Choose(target, _rand_dist(rng, names, list(range(modulus))))

    if depth <= 0:
        return leaf()
    roll = rng.random()
    if roll < 0.30:
        return leaf()
    if roll < 0.55:
        return A.Seq(sub(), sub())
    if roll < 0.70:
        return A.GeneralChoice(sub(), _rand_prob(rng, names, h_dom), sub())
    if roll < 0.85:
        return A.Cond(_rand_guard(rng, names, h_dom), sub(), sub())
    if roll < 0.95 or not allow_local or in_atomic:
        return A.Atomic(sub(allow_local=False, in_atomic=True))
    name = f"t{rng.randint(0, 999)}"
    decl = A.VarDecl(
        name,
        Domain(name, (vnum(0), vnum(1))),
        A.VIS if rng.random() < 0.5 else A.HID,
    )
    init = A.DistUniform((A.Lit(vnum(0)), A.Lit(vnum(1))))
    return A.LocalBlock((A.LocalDecl(decl, init),), sub())


def rand_context(rng: random.Random, depth: int = 2):
    """A random one-hole context built from sequencing, choice, conditionals."""
    pre = rand_program(rng, depth, allow_local=False)
    post = rand_program(rng, depth, allow_local=False)
    other = rand_program(rng, depth, allow_local=False)
    shape = rng.randrange(5)
    if shape == 0:
        return lambda p: A.Seq(pre, p)
    if shape == 1:
        return lambda p: A.Seq(p, post)
    if shape == 2:
        return lambda p: A.Seq(pre, A.Seq(p, post))
    if shape == 3:
        q = _rand_prob(rng, ["v", "h"], 3)
        return lambda p: A.GeneralChoice(p, q, other)
    g = _rand_guard(rng, ["v", "h"], 3)
    return lambda p: A.Seq(A.Cond(g, p, other), post)


def rand_small_init(
    rng: random.Random, v_dom: int = 2, h_dom: int = 3, k_dom: int = 0
) -> SplitState:
    """Random split-state over the scope of `rand_program` with the same domains."""
    v = (vnum(rng.randrange(v_dom)),)
    domains = [range(h_dom), range(k_dom)] if k_dom else [range(h_dom)]
    hidden = [tuple(map(vnum, t)) for t in itertools.product(*domains)]
    return SplitState(v, rand_full_dist(rng, hidden))
