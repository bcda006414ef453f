"""Golden-value self-checks runnable from the CLI.

Each check recomputes a known exact result from the bundled corpus (or a
small inline program) and compares bit-exactly; Shannon values compare
within 1e-9.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from pathlib import Path

from .lang import ast as A
from .lang import desugar, parse, parse_program, project_view
from .matrix import RatMatrix
from .measures import (
    bayes_vuln,
    guessing_entropy,
    marginal_guesswork,
    shannon_entropy,
)
from .probcore import FiniteDist, expected_value, mk_dist, normalize, posterior, vnum, vsym
from .refine import (
    NotRefined,
    Partition,
    RefinementWitness,
    bv_partition,
    check_refinement,
    decompose_refinement,
    extract_partition,
)
from .semantics import HyperDist, Scope, SplitState, eval as eval_hyper
from .initspec import product_delta

F = Fraction


def _corpus_module(corpus_dir: Path, name: str) -> A.Module:
    return parse((corpus_dir / f"{name}.hprog").read_text())


def _eval_corpus(corpus_dir: Path, name: str, v0, delta0) -> HyperDist:
    m = desugar(_corpus_module(corpus_dir, name))
    return eval_hyper(m.body, Scope.of_module(m), SplitState(v0, delta0))


def _threebox_init():
    return (vsym("bot"),), FiniteDist.point((vnum(0),))


def _p_init():
    return (vnum(0),), FiniteDist.point((vnum(1),))


def _split(v, dpairs) -> SplitState:
    return SplitState(v, FiniteDist(dpairs))


def run_selftest(corpus_dir: Path, report=print) -> bool:
    checks = []

    def check(name, fn):
        checks.append((name, fn))

    bot = (vsym("bot"),)

    def h1(k):
        return (vnum(k),)

    # posterior / expectation arithmetic
    check(
        "posterior of uniform{0,1,2} on weight h/2 is {1@1/3,2@2/3}",
        lambda: posterior(FiniteDist.uniform([0, 1, 2]), lambda h: F(h, 2))
        == mk_dist([(1, F(1, 3)), (2, F(2, 3))]),
    )
    check(
        "expected value of h/2 over uniform{0,1,2} is 1/2",
        lambda: expected_value(FiniteDist.uniform([0, 1, 2]), lambda h: F(h, 2)) == F(1, 2),
    )
    check(
        "normalise {1@1/3,3@1/6} = {1@2/3,3@1/3}",
        lambda: normalize(mk_dist([(1, F(1, 3)), (3, F(1, 6))]))
        == mk_dist([(1, F(2, 3)), (3, F(1, 3))]),
    )

    # three-box suite
    def threebox(name):
        return _eval_corpus(corpus_dir, name, *_threebox_init())

    expected_s = HyperDist(
        [
            (_split(bot, [(h1(1), F(1, 3)), (h1(2), F(2, 3))]), F(1, 2)),
            (_split(bot, [(h1(0), F(2, 3)), (h1(1), F(1, 3))]), F(1, 2)),
        ]
    )
    expected_i1 = HyperDist(
        [(_split(bot, [(h1(0), F(1, 3)), (h1(1), F(1, 3)), (h1(2), F(1, 3))]), F(1))]
    )
    expected_i2 = HyperDist(
        [
            (_split(bot, [(h1(2), F(1))]), F(1, 3)),
            (_split(bot, [(h1(0), F(1, 2)), (h1(1), F(1, 2))]), F(2, 3)),
        ]
    )
    check("three-box S hyper-distribution", lambda: threebox("threebox_S") == expected_s)
    check("three-box I1 hyper-distribution", lambda: threebox("threebox_I1") == expected_i1)
    check("three-box I2 hyper-distribution", lambda: threebox("threebox_I2") == expected_i2)
    check("bv(S)=2/3", lambda: bayes_vuln(threebox("threebox_S")) == F(2, 3))
    check("bv(I1)=1/3", lambda: bayes_vuln(threebox("threebox_I1")) == F(1, 3))
    check("bv(I2)=2/3", lambda: bayes_vuln(threebox("threebox_I2")) == F(2, 3))

    def with_context(name, ctx_src):
        m = _corpus_module(corpus_dir, name)
        ctx = parse_program(ctx_src)
        m2 = desugar(A.Module(m.decls, A.Seq(desugar(m).body, ctx)))
        v0, d0 = _threebox_init()
        return eval_hyper(m2.body, Scope.of_module(m2), SplitState(v0, d0))

    check(
        "bv(S ; h := h div 2) = 5/6",
        lambda: bayes_vuln(with_context("threebox_S", "h := h div 2")) == F(5, 6),
    )
    check(
        "bv(I2 ; h := h div 2) = 1",
        lambda: bayes_vuln(with_context("threebox_I2", "h := h div 2")) == F(1),
    )

    # general choice observed partially
    def skip_h_skip():
        src = "hid h : {1/4, 1/2}; vis v : {0}; skip [h] skip"
        m = desugar(parse(src))
        d0 = FiniteDist.uniform([(vnum(F(1, 4)),), (vnum(F(1, 2)),)])
        return eval_hyper(m.body, Scope.of_module(m), SplitState((vnum(0),), d0))

    expected_ghost = HyperDist(
        [
            (
                _split((vnum(0),), [((vnum(F(1, 4)),), F(1, 3)), ((vnum(F(1, 2)),), F(2, 3))]),
                F(3, 8),
            ),
            (
                _split((vnum(0),), [((vnum(F(1, 4)),), F(3, 5)), ((vnum(F(1, 2)),), F(2, 5))]),
                F(5, 8),
            ),
        ]
    )
    check("skip [h] skip hyper-distribution", lambda: skip_h_skip() == expected_ghost)
    check("bv(skip [h] skip) = 5/8", lambda: bayes_vuln(skip_h_skip()) == F(5, 8))

    # P2 / P4 suite
    def pprog(name):
        return _eval_corpus(corpus_dir, name, *_p_init())

    check("bv(P2) = 5/6", lambda: bayes_vuln(pprog("P2")) == F(5, 6))
    check("bv(P4) = 5/6", lambda: bayes_vuln(pprog("P4")) == F(5, 6))
    check(
        "P2 refined by P4 (witness verified)",
        lambda: isinstance(check_refinement(pprog("P2"), pprog("P4")), RefinementWitness),
    )

    def p4_not_p2():
        r = check_refinement(pprog("P4"), pprog("P2"))
        return isinstance(r, NotRefined) and r.v == (vnum(1),)

    check("P4 not refined by P2, failing at v'=1", p4_not_p2)

    def p2_partition():
        got = extract_partition(pprog("P2"), (vnum(1),))
        want = Partition.of(
            [
                mk_dist([(h1(1), F(1, 6))]),
                mk_dist([(h1(1), F(1, 6)), (h1(3), F(1, 6))]),
                mk_dist([(h1(3), F(1, 6))]),
            ]
        )
        return got.fractions == want.fractions

    check("partition of P2 at v'=1", p2_partition)

    # the two published attack channels
    def paper_channel_one():
        ctx = (
            "if v = 1 then "
            "h <- ({1 @ 2/5, 2 @ 3/10, 3 @ 3/10} if h = 1 else "
            "({0 @ 1/10, 1 @ 3/10, 2 @ 3/10, 3 @ 3/10} if h = 2 else "
            "{-2 @ 1/5, -1 @ 1/5, 2 @ 3/10, 3 @ 3/10})) "
            "else h := 0 fi"
        )
        results = {}
        for name in ("P4", "P2"):
            m = _corpus_module(corpus_dir, name)
            decls = []
            for d in m.decls:
                if d.name == "h":
                    from .probcore import Domain

                    values = tuple(
                        [vnum(-2), vnum(-1), vnum(0)] + list(d.domain.values)
                    )
                    decls.append(A.VarDecl("h", Domain("h", values), d.visibility))
                else:
                    decls.append(d)
            m2 = desugar(A.Module(tuple(decls), A.Seq(m.body, parse_program(ctx))))
            results[name] = bayes_vuln(
                eval_hyper(m2.body, Scope.of_module(m2), SplitState(*_p_init()))
            )
        return results["P4"] == F(8, 15) and results["P2"] == F(11, 20)

    check("published channel 1: bv(P4;C)=8/15, bv(P2;C)=11/20", paper_channel_one)

    def paper_channel_two():
        ctx = (
            "if v = 1 then "
            "h <- ({1 @ 1/2, 2 @ 1/4, 3 @ 1/4} if h = 1 else {2 @ 1/2, 3 @ 1/2}) "
            "else h := 1 fi"
        )
        vulns = {}
        for name in ("P4", "P2"):
            m = _corpus_module(corpus_dir, name)
            m2 = desugar(A.Module(m.decls, A.Seq(m.body, parse_program(ctx))))
            hyper = eval_hyper(m2.body, Scope.of_module(m2), SplitState(*_p_init()))
            vulns[name] = bv_partition(extract_partition(hyper, (vnum(1),)))
        return vulns["P4"] == F(13, 48) and vulns["P2"] == F(7, 24)

    check("published channel 2: partition vulns 13/48 vs 7/24 at v'=1", paper_channel_two)

    def synthesized_attack():
        from .attack import synthesize_and_verify

        rep = synthesize_and_verify(
            _corpus_module(corpus_dir, "P4"),
            _corpus_module(corpus_dir, "P2"),
            SplitState(*_p_init()),
        )
        return rep.verdict

    check("synthesized attack: bv(P2;C) > bv(P4;C)", synthesized_attack)

    # App. A worked decomposition
    def decomposition():
        r = RatMatrix([[F(1, 3), F(3, 4)], [F(2, 3), F(1, 4)]])
        got = decompose_refinement(r)
        coefs = [c for c, _ in got]
        return coefs == [F(1, 4), F(1, 12), F(2, 3)] and got[0][1] == RatMatrix.identity(2)

    check("2x2 decomposition gives coefficients 1/4, 1/12, 2/3", decomposition)

    # alternative measures
    def shannon_values():
        hs = shannon_entropy(threebox("threebox_S"))
        hi2 = shannon_entropy(threebox("threebox_I2"))
        tol = F(1, 10 ** 9)
        # |H(S) - (lg3 - 2/3)| and |H(I2) - 2/3| both within 1e-9
        approx = abs(float(hs.value) - 0.9182958340544896) < 1e-9
        return approx and hi2.lo - tol <= F(2, 3) <= hi2.hi + tol

    check("Shannon: H(S) ~ lg3 - 2/3, H(I2) = 2/3", shannon_values)
    check(
        "guessing entropy 4/3 for both S and I2",
        lambda: guessing_entropy(threebox("threebox_S"), 3) == F(4, 3)
        and guessing_entropy(threebox("threebox_I2"), 3) == F(4, 3),
    )

    def guesswork_pair():
        v = (vnum(0),)
        ds = HyperDist(
            [
                (_split(v, [(h1(0), F(1))]), F(1, 2)),
                (_split(v, [(h1(k), F(1, 4)) for k in (1, 2, 3, 4)]), F(1, 2)),
            ]
        )
        di = HyperDist(
            [
                (
                    _split(
                        v,
                        [(h1(0), F(1, 2))] + [(h1(k), F(1, 8)) for k in (1, 2, 3, 4)],
                    ),
                    F(1),
                )
            ]
        )
        return (
            marginal_guesswork(ds, F(1, 2), 5) == 1
            and marginal_guesswork(di, F(1, 2), 5) == 1
        )

    check("marginal guesswork G_1/2 = 1 on both hypers", guesswork_pair)

    # language-level golden forms
    def infix_sugar():
        p = parse_program("h <- 0 [1/3] 1")
        entries = p.dist.entries
        return (
            len(entries) == 2
            and entries[0][0] == A.Lit(vnum(0))
            and entries[1][0] == A.Lit(vnum(1))
        )

    check("'h <- 0 [1/3] 1' parses to a two-way hidden choice", infix_sugar)

    def implicit_flow():
        src = "hid h : {0,1}; vis v : {0}; h := 0 [1/2] h := 1"
        m = desugar(parse(src))
        out = eval_hyper(
            m.body,
            Scope.of_module(m),
            SplitState((vnum(0),), FiniteDist.uniform([h1(0), h1(1)])),
        )
        want = HyperDist(
            [
                (_split((vnum(0),), [(h1(0), F(1))]), F(1, 2)),
                (_split((vnum(0),), [(h1(1), F(1))]), F(1, 2)),
            ]
        )
        return out == want

    check("branch of a choice is observable (implicit flow)", implicit_flow)

    def atomic_suppresses_recall():
        src = "vis v : {0,1}; hid h : {0,1}; atomic { v := h; v := 0 }"
        m = parse(src)
        out = eval_hyper(
            m.body,
            Scope.of_module(m),
            SplitState((vnum(1),), FiniteDist.uniform([h1(0), h1(1)])),
        )
        want = HyperDist(
            [(_split((vnum(0),), [(h1(0), F(1, 2)), (h1(1), F(1, 2))]), F(1))]
        )
        return out == want

    check("atomic{v:=h; v:=0} behaves as the classical v:=0", atomic_suppresses_recall)

    def s_refined_by_i1():
        r = check_refinement(threebox("threebox_S"), threebox("threebox_I1"))
        if not isinstance(r, RefinementWitness):
            return False
        (mat,) = r.per_v.values()
        return mat.rows == [[F(1), F(1)]]

    check("three-box S refined by I1 via the summing witness [1 1]", s_refined_by_i1)

    def encryption_lemma():
        m = desugar(_corpus_module(corpus_dir, "encryption_lemma"))
        scope = Scope.of_module(m)
        from .probcore import vbool

        f, t = (vbool(False),), (vbool(True),)
        for delta in (
            FiniteDist.point(f),
            FiniteDist.point(t),
            FiniteDist.uniform([f, t]),
            FiniteDist([(f, F(1, 5)), (t, F(4, 5))]),
        ):
            s = SplitState((), delta)
            if eval_hyper(m.body, scope, s) != HyperDist.point(s):
                return False
        return True

    check("encryption-lemma block equals skip", encryption_lemma)

    # three judges, uniform prior, all views
    def judges():
        spec = _corpus_module(corpus_dir, "three_judges_spec")
        fig2 = _corpus_module(corpus_dir, "three_judges_fig2")
        for agent in ("A", "B", "C", None):
            ms = desugar(project_view(spec, agent))
            mi = desugar(project_view(fig2, agent))
            scs, sci = Scope.of_module(ms), Scope.of_module(mi)
            vis_doms = [d.domain.values for d in scs.visible]
            hid_doms = [d.domain.values for d in scs.hidden]
            for vt in itertools.product(*vis_doms):
                delta = product_delta([FiniteDist.uniform(vals) for vals in hid_doms])
                s0 = SplitState(vt, delta)
                a = eval_hyper(ms.body, scs, s0)
                b = eval_hyper(mi.body, sci, s0)
                if not isinstance(check_refinement(a, b), RefinementWitness):
                    return False
                if not isinstance(check_refinement(b, a), RefinementWitness):
                    return False
        return True

    check("three judges: spec and fig2 mutually refine in every view", judges)

    ok = True
    for name, fn in checks:
        try:
            good = fn()
        except Exception as exc:  # keep going; report the failure
            good = False
            name = f"{name} ({type(exc).__name__}: {exc})"
        report(("PASS  " if good else "FAIL  ") + name)
        ok = ok and good
    return ok
