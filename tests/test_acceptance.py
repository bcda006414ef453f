"""Acceptance gate: one test per criterion, exact values, stated budgets.

Run with `pytest tests/test_acceptance.py -s` to see one PASS line per
criterion.  Every expected number here is exact; Shannon values carry the
1e-9 tolerance and nothing else is approximate.
"""

import itertools
import math
import random
import time
from fractions import Fraction as F

import mpmath

from conftest import (
    ht,
    hyper,
    load,
    p_init,
    rand_context,
    rand_full_dist,
    rand_program,
    rand_refinement_matrix,
    rand_small_init,
    refine_hyper,
    rand_hyper,
    run_module,
    run_source,
    threebox_init,
)
from oracles import is_simple
from hyperflow.attack import synthesize_and_verify
from hyperflow.lang import ast as A
from hyperflow.lang import desugar, parse, parse_program, project_view
from hyperflow.matrix import RatMatrix
from hyperflow.measures import (
    BAYES,
    GENTROPY,
    SHANNON,
    bayes_vuln,
    elementary_compare,
    guessing_entropy,
    guesswork,
    marginal_guesswork,
    shannon_entropy,
)
from hyperflow.normalform import check_atomic_distribution, eval_via_normal_form
from hyperflow.probcore import FiniteDist, vbool, vnum, vsym
from hyperflow.refine import (
    NotRefined,
    RefinementWitness,
    bv_partition,
    check_refinement,
    decompose_refinement,
    extract_partition,
    refines,
)
from hyperflow.semantics import HyperDist, Scope, SplitState
from hyperflow.semantics import eval as eval_hyper

BOT = (vsym("bot"),)
TOL = F(1, 10 ** 9)


class Budget:
    def __init__(self, name, seconds):
        self.name = name
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            print(f"PASS  {self.name}  ({elapsed:.2f}s)")
            assert elapsed < self.seconds, f"{self.name}: {elapsed:.1f}s over budget {self.seconds}s"
        else:
            print(f"FAIL  {self.name}  ({elapsed:.2f}s)")
        return False


def scoped_module(body: A.Program, v_dom=2, h_dom=3) -> A.Module:
    header = parse(f"vis v : {{0..{v_dom - 1}}}; hid h : {{0..{h_dom - 1}}}; skip")
    return A.Module(header.decls, body)


def with_context(name: str, ctx_src: str, init) -> HyperDist:
    m = load(name)
    m2 = A.Module(m.decls, A.Seq(m.body, parse_program(ctx_src)))
    return run_module(m2, init)


def test_criterion_1_threebox_suite():
    with Budget("criterion 1: three-box suite, exact hypers and non-compositionality", 1.0):
        s = run_module(load("threebox_S"), threebox_init())
        i1 = run_module(load("threebox_I1"), threebox_init())
        i2 = run_module(load("threebox_I2"), threebox_init())
        assert s == hyper(
            [
                ((BOT, [(ht(1), F(1, 3)), (ht(2), F(2, 3))]), F(1, 2)),
                ((BOT, [(ht(0), F(2, 3)), (ht(1), F(1, 3))]), F(1, 2)),
            ]
        )
        assert i1 == hyper([((BOT, [(ht(k), F(1, 3)) for k in range(3)]), F(1))])
        assert i2 == hyper(
            [
                ((BOT, [(ht(2), F(1))]), F(1, 3)),
                ((BOT, [(ht(0), F(1, 2)), (ht(1), F(1, 2))]), F(2, 3)),
            ]
        )
        assert bayes_vuln(s) == F(2, 3)
        assert bayes_vuln(i1) == F(1, 3)
        assert bayes_vuln(i2) == F(2, 3)
        # the elementary order holds in isolation ...
        assert elementary_compare(s, i2, BAYES).kind == "Holds"
        # ... and the context h := h div 2 voids it
        cs = with_context("threebox_S", "h := h div 2", threebox_init())
        ci2 = with_context("threebox_I2", "h := h div 2", threebox_init())
        assert bayes_vuln(cs) == F(5, 6)
        assert bayes_vuln(ci2) == F(1)
        assert elementary_compare(cs, ci2, BAYES).kind == "FailsMeasure"


def test_criterion_2_general_choice_example():
    with Budget("criterion 2: skip [h] skip leaks exactly 5/8", 5.0):
        quarter, half = (vnum(F(1, 4)),), (vnum(F(1, 2)),)
        init = SplitState((vnum(0),), FiniteDist.uniform([quarter, half]))
        out = run_source("hid h : {1/4, 1/2}; vis v : {0}; skip [h] skip", init)
        assert out == hyper(
            [
                (((vnum(0),), [(quarter, F(1, 3)), (half, F(2, 3))]), F(3, 8)),
                (((vnum(0),), [(quarter, F(3, 5)), (half, F(2, 5))]), F(5, 8)),
            ]
        )
        assert bayes_vuln(out) == F(5, 8)


def test_criterion_3_p2_p4_suite():
    with Budget("criterion 3: P2/P4 refinement, attack, published channels", 10.0):
        h2 = run_module(load("P2"), p_init())
        h4 = run_module(load("P4"), p_init())
        assert bayes_vuln(h2) == F(5, 6) and bayes_vuln(h4) == F(5, 6)
        witness = check_refinement(h2, h4)
        assert isinstance(witness, RefinementWitness)
        failure = check_refinement(h4, h2)
        assert isinstance(failure, NotRefined) and failure.v == (vnum(1),)

        # synthesized attacks via both routes, the vertex one enumerating
        # |P2 fractions| ** |P4 fractions| = 3^2 <= 3^3 vertices
        for method in ("farkas", "vertices"):
            rep = synthesize_and_verify(load("P4"), load("P2"), p_init(), method=method)
            assert rep.verdict and rep.bv_impl > rep.bv_spec

        # published channel 1, with the 0-value split over -1 and -2
        ctx1 = (
            "if v = 1 then "
            "h <- ({1 @ 2/5, 2 @ 3/10, 3 @ 3/10} if h = 1 else "
            "({0 @ 1/10, 1 @ 3/10, 2 @ 3/10, 3 @ 3/10} if h = 2 else "
            "{-2 @ 1/5, -1 @ 1/5, 2 @ 3/10, 3 @ 3/10})) "
            "else h := 0 fi"
        )
        from hyperflow.probcore import Domain

        vulns = {}
        for name in ("P4", "P2"):
            m = load(name)
            decls = tuple(
                A.VarDecl(
                    "h",
                    Domain("h", tuple([vnum(-2), vnum(-1), vnum(0)] + list(d.domain.values))),
                    d.visibility,
                )
                if d.name == "h"
                else d
                for d in m.decls
            )
            m2 = A.Module(decls, A.Seq(m.body, parse_program(ctx1)))
            vulns[name] = bayes_vuln(run_module(m2, p_init()))
        assert vulns["P4"] == F(8, 15)  # the paper's ~0.53
        assert vulns["P2"] == F(11, 20)  # the paper's ~0.55

        # published channel 2: footnote partition vulnerabilities at v'=1
        ctx2 = (
            "if v = 1 then "
            "h <- ({1 @ 1/2, 2 @ 1/4, 3 @ 1/4} if h = 1 else {2 @ 1/2, 3 @ 1/2}) "
            "else h := 1 fi"
        )
        pvulns = {
            name: bv_partition(
                extract_partition(with_context(name, ctx2, p_init()), (vnum(1),))
            )
            for name in ("P4", "P2")
        }
        assert pvulns["P4"] == F(13, 48) and pvulns["P2"] == F(7, 24)


def test_criterion_4_decomposition():
    with Budget("criterion 4: convex decomposition, worked example + 500 random", 60.0):
        r = RatMatrix([[F(1, 3), F(3, 4)], [F(2, 3), F(1, 4)]])
        got = decompose_refinement(r)
        assert [c for c, _ in got] == [F(1, 4), F(1, 12), F(2, 3)]
        assert got[0][1] == RatMatrix.identity(2)
        assert got[1][1] == RatMatrix([[1, 1], [0, 0]])
        assert got[2][1] == RatMatrix([[0, 1], [1, 0]])
        rng = random.Random(404)
        for _ in range(500):
            rows, cols = rng.randint(1, 5), rng.randint(1, 5)
            m = rand_refinement_matrix(rng, rows, cols)
            parts = decompose_refinement(m)
            assert sum((c for c, _ in parts), F(0)) == 1
            assert all(is_simple(s) for _, s in parts)
            acc = RatMatrix.zero(rows, cols)
            for c, s in parts:
                acc = RatMatrix(
                    [[a + c * b for a, b in zip(ra, rb)] for ra, rb in zip(acc.rows, s.rows)]
                )
            assert acc == m


def _f2_programs():
    """The parametric guesswork pair at alpha=1/2, N=3 (prior uniform{-3..2})."""
    s_src = (
        "hid h : {-3..2}; vis v : {w, b, bot}; "
        "h <- uniform{-3,-2,-1,0,1,2}; "
        "v <- ({w @ h/2, b @ 1 - h/2} if h >= 0 else {w @ 1/2, b @ 1/2}); "
        "v := bot"
    )
    i_src = (
        "hid h : {-3..2}; vis v : {w, b, bot}; "
        "h <- uniform{-3,-2,-1,0,1,2}; "
        "v <- ({w @ h div 2, b @ 1 - h div 2} if h >= 0 else {w @ 1/3, b @ 2/3}); "
        "v := bot"
    )
    ctx = "h := (h div 2 if h >= 0 else h)"
    return s_src, i_src, ctx


def test_criterion_5_alternative_measures():
    with Budget("criterion 5: Shannon / guessing entropy / marginal guesswork values", 10.0):
        s = run_module(load("threebox_S"), threebox_init())
        i2 = run_module(load("threebox_I2"), threebox_init())
        hs, hi2 = shannon_entropy(s), shannon_entropy(i2)
        assert hi2.lo - TOL <= F(2, 3) <= hi2.hi + TOL
        with mpmath.workprec(160):
            want = mpmath.log(3, 2) - mpmath.mpf(2) / 3
        assert abs(float(hs.value) - float(want)) < 1e-9
        assert round(float(hs.value), 3) == 0.918

        # Shannon order reversal under h := (1 if h = 2 else h)
        ctx = "h := (1 if h = 2 else h)"
        cs = with_context("threebox_S", ctx, threebox_init())
        ci2 = with_context("threebox_I2", ctx, threebox_init())
        hcs, hci2 = shannon_entropy(cs), shannon_entropy(ci2)
        assert abs(float(hcs.value) - float(want) / 2) < 1e-9  # ~0.459
        assert hci2.lo - TOL <= F(2, 3) <= hci2.hi + TOL
        assert elementary_compare(i2, s, SHANNON).kind == "Holds"
        assert elementary_compare(ci2, cs, SHANNON).kind == "FailsMeasure"

        # guessing entropy 4/3 vs 4/3; under the context 7/6 vs 4/3
        assert guessing_entropy(s) == F(4, 3)
        assert guessing_entropy(i2) == F(4, 3)
        assert guessing_entropy(cs) == F(7, 6)
        assert guessing_entropy(ci2) == F(4, 3)
        assert elementary_compare(i2, s, GENTROPY).kind == "Holds"
        assert elementary_compare(ci2, cs, GENTROPY).kind == "FailsMeasure"

        # marginal guesswork: G_1/2 = 1 on both hyper-distributions
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
        assert marginal_guesswork(ds, F(1, 2)) == 1
        assert marginal_guesswork(di, F(1, 2)) == 1

        # parametric non-compositionality of guesswork at alpha=1/2, N=3
        s_src, i_src, f2ctx = _f2_programs()
        init = SplitState(BOT, FiniteDist.point((vnum(0),)))
        hs_ = run_source(s_src, init)
        hi_ = run_source(i_src, init)
        assert marginal_guesswork(hs_, F(1, 2)) == 2
        assert marginal_guesswork(hi_, F(1, 2)) == 2
        assert elementary_compare(hs_, hi_, guesswork(F(1, 2))).kind == "Holds"
        cs_ = run_source(s_src + "; " + f2ctx, init)
        ci_ = run_source(i_src + "; " + f2ctx, init)
        assert marginal_guesswork(cs_, F(1, 2)) == 2
        assert marginal_guesswork(ci_, F(1, 2)) == 1
        assert (
            elementary_compare(cs_, ci_, guesswork(F(1, 2))).kind
            == "FailsMeasure"
        )


def test_criterion_6_property_suites():
    with Budget("criterion 6: property suites (order laws, monotonicity, soundness, completeness)", 300.0):
        hvals = [vnum(k) for k in range(4)]
        vvals = [vnum(0), vnum(1)]

        # (a) partial-order laws on 1000 generated pairs
        rng = random.Random(600)
        mutual = 0
        for k in range(1000):
            h1 = rand_hyper(rng, vvals, hvals)
            h2 = refine_hyper(rng, h1)
            assert refines(h1, h1)
            assert refines(h1, h2)
            if refines(h2, h1):
                mutual += 1
                assert h1 == h2  # antisymmetry: mutual refinement is equality
            if k % 5 == 0:
                h3 = refine_hyper(rng, h2)
                assert refines(h2, h3) and refines(h1, h3)  # transitivity
        assert mutual > 0

        # (c) soundness of the four measures on refining pairs
        rng = random.Random(601)
        alphas = (F(1, 4), F(1, 2), F(3, 4), F(1))
        for _ in range(200):
            h1 = rand_hyper(rng, vvals, hvals)
            h2 = refine_hyper(rng, h1)
            assert bayes_vuln(h2) <= bayes_vuln(h1)
            s1, s2 = shannon_entropy(h1), shannon_entropy(h2)
            assert s2.hi >= s1.lo - TOL
            assert guessing_entropy(h2) >= guessing_entropy(h1)
            for alpha in alphas:
                assert marginal_guesswork(h2, alpha) >= marginal_guesswork(h1, alpha)

        # (b) monotonicity of refinement under 500 random contexts
        rng = random.Random(602)
        scope = Scope.of_module(scoped_module(A.Skip()))
        pairs = []
        for _ in range(10):
            base = rand_program(rng, depth=2, allow_local=False)
            pairs.append((base, A.Atomic(base)))
        for k in range(500):
            spec, impl = pairs[k % len(pairs)]
            ctx = rand_context(rng, depth=1)
            s = rand_small_init(rng)
            hs = eval_hyper(desugar(scoped_module(ctx(spec))).body, scope, s)
            hi = eval_hyper(desugar(scoped_module(ctx(impl))).body, scope, s)
            assert refines(hs, hi)

        # (d) completeness end-to-end at |V| <= 3, |H| <= 4 and
        # (e) a Bayes attack for every fixture failing a non-Bayes order
        rng = random.Random(603)
        attacks = 0
        other_order_failures = 0
        tries = 0
        while attacks < 40 and tries < 400:
            tries += 1
            h_dom = rng.choice([3, 4])
            v_dom = rng.choice([2, 3])
            p = rand_program(rng, depth=2, allow_local=False, v_dom=v_dom, h_dom=h_dom)
            spec = scoped_module(A.Atomic(p), v_dom, h_dom)
            impl = scoped_module(p, v_dom, h_dom)
            init = rand_small_init(rng, v_dom, h_dom)
            hs = eval_hyper(desugar(spec).body, Scope.of_module(spec), init)
            hi = eval_hyper(desugar(impl).body, Scope.of_module(impl), init)
            verdict = check_refinement(hs, hi)
            if not isinstance(verdict, NotRefined) or verdict.functional_mismatch:
                continue
            report = synthesize_and_verify(spec, impl, init)
            assert report.verdict, "completeness: attack must verify"
            attacks += 1
            # (e): whenever a non-Bayes order already fails, the synthesized
            # context makes the Bayes order fail -- which it just did
            for kind in (SHANNON, GENTROPY, guesswork(F(1, 2))):
                cv = elementary_compare(hs, hi, kind)
                if cv.kind == "FailsMeasure":
                    other_order_failures += 1
                    assert report.verdict
                    break
        assert attacks == 40
        assert other_order_failures > 0


def test_criterion_7_program_algebra():
    with Budget("criterion 7: encryption lemma, atomicity checker, 200-program duel", 120.0):
        # Encryption Lemma on the grid: all points + uniform + 20 random
        m = desugar(load("encryption_lemma"))
        scope = Scope.of_module(m)
        f, t = (vbool(False),), (vbool(True),)
        grid = [FiniteDist.point(f), FiniteDist.point(t), FiniteDist.uniform([f, t])]
        rng = random.Random(700)
        grid += [rand_full_dist(rng, [f, t]) for _ in range(20)]
        for delta in grid:
            s = SplitState((), delta)
            assert eval_hyper(m.body, scope, s) == HyperDist.point(s)

        # atomicity distribution checker
        sc2 = Scope.of_module(parse("vis v : {0,1}; hid h : {0,1}; skip"))
        assert not check_atomic_distribution(
            parse_program("v := h"), parse_program("v := 0"), sc2
        ).ok
        enc_scope = Scope.of_module(
            parse("vis p : {false,true}; hid k : {false,true}; hid e : {false,true}; skip")
        )
        assert check_atomic_distribution(
            parse_program("p <- uniform{false,true}"),
            parse_program("k := p xor e"),
            enc_scope,
        ).ok

        # direct evaluator vs matrix normal form on 200 random programs
        def nf_size(p: A.Program, n_v: int) -> int:
            if isinstance(p, (A.Skip, A.Assign, A.Choose, A.Atomic)):
                return n_v
            if isinstance(p, A.Seq):
                return math.prod(nf_size(q, n_v) for q in p.stmts)
            if isinstance(p, A.GeneralChoice):
                return nf_size(p.left, n_v) + nf_size(p.right, n_v)
            if isinstance(p, A.Cond):
                return nf_size(p.then_branch, n_v) + nf_size(p.else_branch, n_v)
            raise TypeError(p)

        rng = random.Random(701)
        done = 0
        while done < 200:
            v_dom = rng.choice([2, 3, 4])
            h_dom = rng.choice([2, 3, 4])
            depth = rng.randint(1, 5)
            p = rand_program(rng, depth=depth, allow_local=False, v_dom=v_dom, h_dom=h_dom)
            if nf_size(p, v_dom) > 64:
                continue  # keep the matrix stack tractable
            module = desugar(scoped_module(p, v_dom, h_dom))
            sc = Scope.of_module(module)
            s = rand_small_init(rng, v_dom, h_dom)
            assert eval_via_normal_form(module.body, sc, s) == eval_hyper(module.body, sc, s)
            done += 1


def test_criterion_8_three_judges():
    with Budget("criterion 8: three judges, all views, mutual refinement", 600.0):
        spec = load("three_judges_spec")
        fig2 = load("three_judges_fig2")
        rng = random.Random(800)

        # priors over the joint vote (a, b, c): every point, the uniform,
        # and 10 sampled full-support joints; each view conditions the
        # joint on the values of its visible variables
        names = ("a", "b", "c")
        tf = (vbool(False), vbool(True))
        joint_space = list(itertools.product(tf, tf, tf))
        joints = [FiniteDist.point(t) for t in joint_space]
        joints.append(FiniteDist.uniform(joint_space))
        joints += [rand_full_dist(rng, joint_space) for _ in range(10)]

        for agent in ("A", "B", "C", None):
            ms = desugar(project_view(spec, agent))
            mi = desugar(project_view(fig2, agent))
            scs, sci = Scope.of_module(ms), Scope.of_module(mi)
            vis_idx = [names.index(d.name) for d in scs.visible]
            hid_idx = [names.index(d.name) for d in scs.hidden]
            for joint in joints:
                seen_v = {}
                for tup, w in joint.items():
                    vt = tuple(tup[i] for i in vis_idx)
                    seen_v.setdefault(vt, []).append((tuple(tup[i] for i in hid_idx), w))
                for vt, entries in seen_v.items():
                    total = sum((w for _, w in entries), F(0))
                    delta = FiniteDist([(h, w / total) for h, w in entries])
                    s0 = SplitState(vt, delta)
                    a = eval_hyper(ms.body, scs, s0)
                    b = eval_hyper(mi.body, sci, s0)
                    assert isinstance(check_refinement(a, b), RefinementWitness)
                    assert isinstance(check_refinement(b, a), RefinementWitness)


def sweep_program(n: int, atomic_tail: bool = False) -> str:
    """The sweep-family program over h : {0..n-1}, v : {0..7}; with
    atomic_tail its last three statements run as one atomic block."""
    body = [
        "v <- uniform{0, 1}",
        f"h <- {{(h + v) mod {n} @ 1/2, (h * 3) mod {n} @ 1/2}}",
        f"if h mod 2 = 0 then v := h mod 8 else v <- uniform{{0, 1, 2, 3, 4, 5, 6, 7}} fi",
        f"h := (h + 1) mod {n} [1/3] h := (h * 2) mod {n}",
        "v := (h + v) mod 8",
    ]
    if atomic_tail:
        body[-3:] = ["atomic { " + "; ".join(body[-3:]) + " }"]
    return f"hid h : {{0..{n - 1}}}; vis v : {{0..7}}; " + "; ".join(body)


def test_refinement_at_a_large_hidden_domain():
    # many more hidden values than fractions per visible value: the LP is
    # solved on a column basis of the hidden values, and equal partitions
    # need no LP at all
    n = 256
    init = SplitState((vnum(0),), FiniteDist.uniform([ht(k) for k in range(n)]))
    with Budget(f"large hidden domain: sweep program at N = {n}, self and atomic tail", 8.0):
        h = run_source(sweep_program(n), init)
        a = run_source(sweep_program(n, atomic_tail=True), init)
        same = check_refinement(h, h)
        assert isinstance(same, RefinementWitness)
        assert all(r == RatMatrix.identity(r.nrows) for r in same.per_v.values())
        assert isinstance(check_refinement(h, a), RefinementWitness)
