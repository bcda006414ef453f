"""Golden-value self-checks runnable from the CLI (`hyperflow selftest`).

Most golden values are answers of other subcommands, so they are asked as
CLI questions: each row of `CLI_CHECKS` is a check name, an argv whose
`*.hprog` arguments name corpus files, the expected exit code, and the
top-level JSON fields the answer must carry, compared exactly.  Each row
runs in-process through `cli.run` with stdout and stderr captured.

`library_checks` keeps as code only the values no subcommand prints:
probability arithmetic, partitions and their vulnerabilities, programs
under an added context, inline programs, the worked decomposition, the
guesswork pair, parsed sugar, and the three-judges mutual refinement.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
from fractions import Fraction
from pathlib import Path

from . import cli
from .attack import compose, verify_attack
from .initspec import product_delta
from .lang import ast as A
from .lang import parse, parse_program, project_view
from .matrix import RatMatrix
from .measures import bayes_vuln, marginal_guesswork
from .probcore import FiniteDist, expected_value, normalize, posterior, vnum, vsym
from .refine import Partition, bv_partition, decompose_refinement, extract_partition, refines
from .semantics import HyperDist, Scope, SplitState, eval_module

F = Fraction

TB = ["--init", "v=bot; h~uniform"]  # three-box programs
P = ["--init", "v=0; h~uniform"]  # P2 and P4
SHANNON_128 = ["--precision-bits", "128", "measure", "--measure", "shannon"]


def _hyper(vis, hid, *rows):
    """The "hyper" field of `eval --json` from (p, v, [(h, p), ...]) rows
    over one visible variable `vis` (None for none) and one hidden `hid`."""
    return [
        {"p": p, "v": {vis: v} if vis else {}, "delta": [{"h": {hid: h}, "p": q} for h, q in d]}
        for p, v, d in rows
    ]


def _encryption_row(prior, delta):
    # skip leaves the prior as the one inner distribution, seen with certainty
    argv = ["eval", "encryption_lemma.hprog", "--init", f"e~{prior}", "--json"]
    return (f"encryption-lemma block equals skip under e~{prior}", argv, 0,
            {"hyper": _hyper(None, "e", ("1/1", None, delta))})


CLI_CHECKS = [
    ("three-box S hyper-distribution", ["eval", "threebox_S.hprog", *TB, "--json"], 0,
     {"hyper": _hyper("v", "h", ("1/2", "bot", [("0", "2/3"), ("1", "1/3")]),
                      ("1/2", "bot", [("1", "1/3"), ("2", "2/3")]))}),
    ("three-box I1 hyper-distribution", ["eval", "threebox_I1.hprog", *TB, "--json"], 0,
     {"hyper": _hyper("v", "h", ("1/1", "bot", [("0", "1/3"), ("1", "1/3"), ("2", "1/3")]))}),
    ("three-box I2 hyper-distribution", ["eval", "threebox_I2.hprog", *TB, "--json"], 0,
     {"hyper": _hyper("v", "h", ("2/3", "bot", [("0", "1/2"), ("1", "1/2")]),
                      ("1/3", "bot", [("2", "1/1")]))}),
    ("bv(S) = 2/3", ["measure", "threebox_S.hprog", *TB, "--measure", "bayes"], 0,
     {"value": "2/3"}),
    ("bv(I1) = 1/3", ["measure", "threebox_I1.hprog", *TB, "--measure", "bayes"], 0,
     {"value": "1/3"}),
    ("bv(I2) = 2/3", ["measure", "threebox_I2.hprog", *TB, "--measure", "bayes"], 0,
     {"value": "2/3"}),
    ("bv(P2) = 5/6", ["measure", "P2.hprog", *P, "--measure", "bayes"], 0, {"value": "5/6"}),
    ("bv(P4) = 5/6", ["measure", "P4.hprog", *P, "--measure", "bayes"], 0, {"value": "5/6"}),
    ("P2 refined by P4 (witness verified)",
     ["compare", "P2.hprog", "P4.hprog", "--order", "refine", *P], 0, {"holds": True}),
    ("P4 not refined by P2, failing at v'=1",
     ["compare", "P4.hprog", "P2.hprog", "--order", "refine", *P], 1,
     {"points": [{"verdict": "NotRefined", "functional_mismatch": False, "v": "1"}],
      "holds": False}),
    ("three-box S refined by I1 via the summing witness [1 1]",
     ["compare", "threebox_S.hprog", "threebox_I1.hprog", "--order", "refine", *TB], 0,
     {"points": [{"verdict": "Refined", "witness": [{"v": "bot", "R": [["1/1", "1/1"]]}]}]}),
    ("synthesized attack: bv(P2;C) > bv(P4;C) at v'=1",
     ["attack", "P4.hprog", "P2.hprog", *P], 0, {"trigger_v": "1", "verdict": True}),
    ("Shannon: H(S) = lg3 - 2/3 to 30 digits", [*SHANNON_128, "threebox_S.hprog", *TB], 0,
     {"value": "0.918295834054489514787072277281", "precision_bits": 128}),
    ("Shannon: H(I2) = 2/3 to 30 digits", [*SHANNON_128, "threebox_I2.hprog", *TB], 0,
     {"value": "0.666666666666666666666666666667", "precision_bits": 128}),
    ("guessing entropy of S is 4/3",
     ["measure", "threebox_S.hprog", *TB, "--measure", "gentropy"], 0, {"value": "4/3"}),
    ("guessing entropy of I2 is 4/3",
     ["measure", "threebox_I2.hprog", *TB, "--measure", "gentropy"], 0, {"value": "4/3"}),
    _encryption_row("false", [("false", "1/1")]),
    _encryption_row("true", [("true", "1/1")]),
    _encryption_row("uniform", [("false", "1/2"), ("true", "1/2")]),
    _encryption_row("{false@1/5, true@4/5}", [("false", "1/5"), ("true", "4/5")]),
]


def _cli_check(corpus_dir: Path, argv, code, fields) -> bool:
    """Run one row in-process; True if the exit code and every field match."""
    argv = [str(corpus_dir / a) if a.endswith(".hprog") else a for a in argv]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        got = cli.run(argv)
    answer = json.loads(out.getvalue()) if got == code else {}
    return got == code and all(answer.get(key) == want for key, want in fields.items())


def _delta(pairs) -> FiniteDist:
    """A distribution over single-value hidden tuples from (value, p) pairs."""
    return FiniteDist([((vnum(h),), q) for h, q in pairs])


def _hyper_dist(v, *rows) -> HyperDist:
    """A hyper-distribution at visible value v from (weight, [(h, p), ...]) rows."""
    return HyperDist([(SplitState((vnum(v),), _delta(delta)), F(w)) for w, delta in rows])


TB_INIT = SplitState((vsym("bot"),), _delta([(0, 1)]))
P_INIT = SplitState((vnum(0),), _delta([(1, 1)]))
TB_DECLS = "hid h : {0..2}; vis v : {w, b, bot};"
P_DECLS = "hid h : {1, 2, 3}; vis v : {0, 1, 2, 4};"
CHANNEL_ONE = (  # needs 0, -1 and -2 as hidden values too
    "hid h : {-2, -1, 0, 1, 2, 3}; vis v : {0, 1, 2, 4};"
    "if v = 1 then h <- ({1 @ 2/5, 2 @ 3/10, 3 @ 3/10} if h = 1 else "
    "({0 @ 1/10, 1 @ 3/10, 2 @ 3/10, 3 @ 3/10} if h = 2 else "
    "{-2 @ 1/5, -1 @ 1/5, 2 @ 3/10, 3 @ 3/10})) else h := 0 fi"
)
CHANNEL_TWO = P_DECLS + (
    "if v = 1 then h <- ({1 @ 1/2, 2 @ 1/4, 3 @ 1/4} if h = 1 else {2 @ 1/2, 3 @ 1/2}) "
    "else h := 1 fi"
)


def library_checks(corpus_dir: Path) -> list:
    """(name, check) pairs for the golden values no subcommand prints."""
    half, sixth = F(1, 2), F(1, 6)
    uniform3 = FiniteDist.uniform([0, 1, 2])
    p2_at_1 = [_delta([(1, sixth)]), _delta([(1, sixth), (3, sixth)]), _delta([(3, sixth)])]

    def corpus(name: str) -> A.Module:
        return parse((corpus_dir / f"{name}.hprog").read_text())

    def bv_with_context(spec, impl, context, init):
        report = verify_attack(corpus(spec), corpus(impl), parse(context), (), None, init)
        return report.bv_spec, report.bv_impl

    def v1_partition(module, context=None):
        if context is not None:
            module = compose(module, parse(context))
        return extract_partition(eval_module(module, P_INIT), (vnum(1),))

    def inline(src, v0, hs=(0, 1)):
        """An inline program run from v0 with h uniform over hs."""
        return eval_module(parse(src), SplitState((vnum(v0),), _delta([(h, half) for h in hs])))

    def skip_h_skip():
        return inline("hid h : {1/4, 1/2}; vis v : {0}; skip [h] skip", 0, (F(1, 4), half))

    def decomposition():
        got = decompose_refinement(RatMatrix([[F(1, 3), F(3, 4)], [F(2, 3), F(1, 4)]]))
        coefs = [c for c, _ in got]
        return coefs == [F(1, 4), F(1, 12), F(2, 3)] and got[0][1] == RatMatrix.identity(2)

    def guesswork_pair():
        ds = _hyper_dist(0, (half, [(0, 1)]), (half, [(k, F(1, 4)) for k in (1, 2, 3, 4)]))
        di = _hyper_dist(0, (1, [(0, half)] + [(k, F(1, 8)) for k in (1, 2, 3, 4)]))
        return marginal_guesswork(ds, half) == 1 == marginal_guesswork(di, half)

    def infix_sugar():
        entries = parse_program("h <- 0 [1/3] 1").dist.entries
        return [e[0] for e in entries] == [A.Lit(vnum(0)), A.Lit(vnum(1))]

    def judges():
        spec, fig2 = corpus("three_judges_spec"), corpus("three_judges_fig2")
        for agent in ("A", "B", "C", None):
            ms, mi = project_view(spec, agent), project_view(fig2, agent)
            scope = Scope.of_module(ms)
            delta = product_delta([FiniteDist.uniform(d.domain.values) for d in scope.hidden])
            for vt in itertools.product(*(d.domain.values for d in scope.visible)):
                s0 = SplitState(vt, delta)
                a, b = eval_module(ms, s0), eval_module(mi, s0)
                if not (refines(a, b) and refines(b, a)):
                    return False
        return True

    return [
        ("posterior of uniform{0,1,2} on weight h/2 is {1@1/3,2@2/3}",
         lambda: posterior(uniform3, lambda h: F(h, 2))
         == FiniteDist([(1, F(1, 3)), (2, F(2, 3))])),
        ("expected value of h/2 over uniform{0,1,2} is 1/2",
         lambda: expected_value(uniform3, lambda h: F(h, 2)) == half),
        ("normalise {1@1/3,3@1/6} = {1@2/3,3@1/3}",
         lambda: normalize(FiniteDist([(1, F(1, 3)), (3, sixth)]))
         == FiniteDist([(1, F(2, 3)), (3, F(1, 3))])),
        ("bv(S ; h := h div 2) = 5/6, bv(I2 ; h := h div 2) = 1",
         lambda: bv_with_context("threebox_S", "threebox_I2", TB_DECLS + "h := h div 2", TB_INIT)
         == (F(5, 6), 1)),
        ("skip [h] skip hyper-distribution",
         lambda: skip_h_skip() == _hyper_dist(0, (F(3, 8), [(F(1, 4), F(1, 3)), (half, F(2, 3))]),
                                              (F(5, 8), [(F(1, 4), F(3, 5)), (half, F(2, 5))]))),
        ("bv(skip [h] skip) = 5/8", lambda: bayes_vuln(skip_h_skip()) == F(5, 8)),
        ("partition of P2 at v'=1",
         lambda: v1_partition(corpus("P2")).fractions == Partition.of(p2_at_1).fractions),
        ("published channel 1: bv(P4;C)=8/15, bv(P2;C)=11/20",
         lambda: bv_with_context("P4", "P2", CHANNEL_ONE, P_INIT) == (F(8, 15), F(11, 20))),
        ("published channel 2: partition vulns 13/48 vs 7/24 at v'=1",
         lambda: [bv_partition(v1_partition(corpus(n), CHANNEL_TWO)) for n in ("P4", "P2")]
         == [F(13, 48), F(7, 24)]),
        ("2x2 decomposition gives coefficients 1/4, 1/12, 2/3", decomposition),
        ("marginal guesswork G_1/2 = 1 on both hypers", guesswork_pair),
        ("'h <- 0 [1/3] 1' parses to a two-way hidden choice", infix_sugar),
        ("branch of a choice is observable (implicit flow)",
         lambda: inline("hid h : {0,1}; vis v : {0}; h := 0 [1/2] h := 1", 0)
         == _hyper_dist(0, (half, [(0, 1)]), (half, [(1, 1)]))),
        ("atomic{v:=h; v:=0} behaves as the classical v:=0",
         lambda: inline("vis v : {0,1}; hid h : {0,1}; atomic { v := h; v := 0 }", 1)
         == _hyper_dist(0, (1, [(0, half), (1, half)]))),
        ("three judges: spec and fig2 mutually refine in every view", judges),
    ]


def run_selftest(corpus_dir: Path, report=print) -> bool:
    """Run every check, report one PASS or FAIL line each; True if all pass."""
    checks = [(name, lambda row=row: _cli_check(corpus_dir, *row)) for name, *row in CLI_CHECKS]
    ok = True
    for name, fn in checks + library_checks(corpus_dir):
        try:
            good = fn()
        except Exception as exc:  # keep going; report the failure
            good = False
            name = f"{name} ({type(exc).__name__}: {exc})"
        report(("PASS  " if good else "FAIL  ") + name)
        ok = ok and good
    return ok
