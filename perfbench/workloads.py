"""The four question workloads, generated from a seed.

A workload is a list of rounds; a round is a list of questions whose mix
(kinds, size strata, priors) is fixed, and the seed only draws sizes
inside each stratum, sampled-prior seeds and the order of the round.  The
cost of a round therefore hardly depends on the seed, which keeps the
end-to-end figures steady across seeds.

Every question carries its known answer:
  * corpus: hand-written values (see CORPUS_MEASURES and the checks below);
  * sweep: values recorded once in sweep_answers.json (record_sweep.py);
  * refine, crosscheck: fixed by construction.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
SWEEP_ANSWERS = HERE / "sweep_answers.json"

WORKLOADS = ("corpus", "sweep", "refine", "crosscheck")


@dataclass
class Question:
    qid: str
    inputs: str  # what the program is given, for reproducibility checks
    ask: Callable[[], object]
    check: Callable[[object], Optional[str]]  # None when the answer is right


def ask_cli(run, argv: list[str]):
    """One CLI command in-process; returns (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run(argv)
    return code, out.getvalue()


def cli_question(hf, qid, argv, code, judge=None) -> Question:
    """A CLI question whose answer must exit with `code` and, if given,
    satisfy judge(stdout) -> None or a reason."""

    def check(answer):
        got, out = answer
        if got != code:
            return f"exit {got}, expected {code}"
        return judge(out) if judge else None

    return Question(qid, " ".join(argv), lambda: ask_cli(hf.cli.run, argv), check)


def rng_for(seed: int, *labels) -> random.Random:
    return random.Random(f"{seed}/" + "/".join(map(str, labels)))


def _json_fields(expected: dict):
    def judge(out):
        payload = json.loads(out)
        for key, want in expected.items():
            if payload.get(key) != want:
                return f"{key}={payload.get(key)!r}, expected {want!r}"
        return None

    return judge


def _points(verdict: str, n: int):
    def judge(out):
        points = json.loads(out)["points"]
        if len(points) != n or any(p["verdict"] != verdict for p in points):
            return f"points {[p['verdict'] for p in points]}, expected {n} x {verdict}"
        return None

    return judge


# ---------------------------------------------------------------------------
# corpus: the README mix over the ten corpus programs
# ---------------------------------------------------------------------------

CORPUS_PROGRAMS = (
    "P2",
    "P4",
    "encryption_lemma",
    "three_judges_fig2",
    "three_judges_fig3",
    "three_judges_spec",
    "threebox_I1",
    "threebox_I2",
    "threebox_S",
    "two_party_conj",
)

# Each of these programs overwrites its hidden variable with a uniform
# choice first, so its leakage does not depend on the prior.
CORPUS_PRIORS = {
    "threebox_S": ("v=bot; h~uniform", "v=bot; h~1", "v=bot; h~sample:3"),
    "threebox_I1": ("v=bot; h~uniform", "v=bot; h~2", "v=bot; h~sample:3"),
    "threebox_I2": ("v=bot; h~uniform", "v=bot; h~0", "v=bot; h~sample:3"),
    "P2": ("v=0; h~uniform", "v=0; h~3", "v=0; h~sample:3"),
    "P4": ("v=0; h~uniform", "v=0; h~1", "v=0; h~sample:3"),
}

# A declaration each program's pretty-printed form must show.
CORPUS_DECLS = {
    "P2": "hid h : {1..3};",
    "P4": "hid h : {1..3};",
    "encryption_lemma": "hid e : {false, true};",
    "three_judges_fig2": "vis{A} a : {false, true};",
    "three_judges_fig3": "vis{C} c : {false, true};",
    "three_judges_spec": "vis{B} b : {false, true};",
    "threebox_I1": "vis v : {w, b, bot};",
    "threebox_I2": "hid h : {0..2};",
    "threebox_S": "hid h : {0..2};",
    "two_party_conj": "vis{B} b : {false, true};",
}

MEASURES = ("bayes", "shannon", "gentropy", "guesswork:1/2")

# Hand-checked leakage of the prior-independent corpus programs.
CORPUS_MEASURES = {
    ("threebox_S", "bayes"): "2/3",
    ("threebox_S", "shannon"): "0.918295834054489514787072277281",
    ("threebox_S", "gentropy"): "4/3",
    ("threebox_S", "guesswork:1/2"): 1,
    ("threebox_I1", "bayes"): "1/3",
    ("threebox_I1", "shannon"): "1.58496250072115618145373894395",
    ("threebox_I1", "gentropy"): "2/1",
    ("threebox_I1", "guesswork:1/2"): 2,
    ("threebox_I2", "bayes"): "2/3",
    ("threebox_I2", "shannon"): "0.666666666666666666666666666667",
    ("threebox_I2", "gentropy"): "4/3",
    ("threebox_I2", "guesswork:1/2"): 1,
    ("P2", "bayes"): "5/6",
    ("P2", "shannon"): "0.333333333333333333333333333333",
    ("P2", "gentropy"): "7/6",
    ("P2", "guesswork:1/2"): 1,
    ("P4", "bayes"): "5/6",
    ("P4", "shannon"): "0.540852082972755242606463861359",
    ("P4", "gentropy"): "7/6",
    ("P4", "guesswork:1/2"): 1,
}

VIEWS = {
    # view flags, then uniform, point and sampled priors in that view
    "A": (["--agent", "A"], "a=true; b~uniform; c~uniform", "a=false; b~true; c~false",
          "a=true; b~sample:2; c~sample:2"),
    "B": (["--agent", "B"], "b=false; a~uniform; c~uniform", "b=true; a~true; c~true",
          "b=false; a~sample:2; c~sample:2"),
    "C": (["--agent", "C"], "c=true; a~uniform; b~uniform", "c=false; a~false; b~true",
          "c=true; a~sample:2; b~sample:2"),
    "external": (["--external"], "a~uniform; b~uniform; c~uniform", "a~true; b~false; c~true",
                 "a~sample:2; b~sample:2; c~sample:2"),
}


def _measure_judge(value, samples: int):
    def judge(out):
        payload = json.loads(out)
        results = payload["results"] if samples > 1 else [payload]
        got = [r["value"] for r in results]
        if got != [value] * samples:
            return f"values {got}, expected {samples} x {value!r}"
        return None

    return judge


def _eval_threebox_s(out):
    rows = json.loads(out)["hyper"]
    got = [(r["p"], r["v"]["v"], {d["h"]["h"]: d["p"] for d in r["delta"]}) for r in rows]
    want = [("1/2", "bot", {"0": "2/3", "1": "1/3"}), ("1/2", "bot", {"1": "1/3", "2": "2/3"})]
    return None if sorted(got, key=str) == sorted(want, key=str) else f"hyper {got}"


def _contains(*needles):
    def judge(out):
        missing = [n for n in needles if n not in out]
        return f"missing {missing}" if missing else None

    return judge


def corpus_round(hf, seed: int, r: int, corpus: Path) -> list[Question]:
    rng = rng_for(seed, "corpus", r)
    cli_seed = str(rng.randrange(1 << 30))

    def f(name):
        return str(corpus / f"{name}.hprog")

    qs = []
    for name in CORPUS_PROGRAMS:
        qs.append(cli_question(hf, f"parse/{name}", ["parse", f(name)], 0, _contains(CORPUS_DECLS[name])))
    for name in ("P4", "three_judges_fig3"):
        qs.append(cli_question(hf, f"parse-json/{name}", ["parse", f(name), "--json"], 0,
                               _contains('"module"', '"diagnostics"')))
    for name in ("three_judges_spec", "three_judges_fig2", "three_judges_fig3"):
        for agent in ("A", "B", "C", None):
            argv = ["view", f(name)] + (["--agent", agent] if agent else [])
            seen = f"vis {agent.lower()}" if agent else "hid a"
            qs.append(cli_question(hf, f"view/{name}/{agent}", argv, 0, _contains(seen)))
    for agent, seen in (("B", "vis b"), ("C", "vis c"), (None, "hid b")):
        argv = ["view", f("two_party_conj")] + (["--agent", agent] if agent else [])
        qs.append(cli_question(hf, f"view/two_party_conj/{agent}", argv, 0, _contains(seen)))

    qs.append(cli_question(hf, "eval/threebox_S", ["eval", f("threebox_S"), "--init",
                                                   "v=bot; h~uniform", "--json"], 0, _eval_threebox_s))
    for name in ("threebox_I1", "threebox_I2", "P2", "P4"):
        init = CORPUS_PRIORS[name][0]
        qs.append(cli_question(hf, f"eval/{name}", ["eval", f(name), "--init", init, "--json"], 0,
                               _contains('"hyper"')))
    qs.append(cli_question(hf, "eval/encryption_lemma", ["eval", f("encryption_lemma"), "--init",
                                                         "e~uniform", "--json"], 0, _contains('"hyper"')))
    qs.append(cli_question(hf, "eval/two_party_conj", ["eval", f("two_party_conj"), "--external",
                                                       "--init", "b~uniform; c~uniform", "--json"], 0,
                           _contains('"hyper"')))
    # fig3 in every view: with the three-judges comparisons these are the
    # slow tail, over a tenth of the round, so p90 lies inside the tail
    # and not on the gap below it
    for view, (flags, *inits) in VIEWS.items():
        for init in inits[:1] if view != "A" else inits[::2]:
            qs.append(cli_question(hf, f"eval/three_judges_fig3/{view}/{init}",
                                   ["eval", f("three_judges_fig3"), *flags, "--init", init, "--json"], 0,
                                   _contains('"hyper"')))

    for i, name in enumerate(CORPUS_PRIORS):
        for j, measure in enumerate(MEASURES):
            init = CORPUS_PRIORS[name][(i + j) % 3]
            samples = 3 if "sample" in init else 1
            argv = ["measure", f(name), "--init", init, "--measure", measure, "--seed", cli_seed]
            qs.append(cli_question(hf, f"measure/{name}/{measure}/{init}", argv, 0,
                                   _measure_judge(CORPUS_MEASURES[name, measure], samples)))
    qs.append(cli_question(hf, "measure/encryption_lemma/bayes",
                           ["measure", f("encryption_lemma"), "--init", "e~uniform", "--measure", "bayes"],
                           0, _measure_judge("1/2", 1)))

    p_init = ["--init", "v=0; h~uniform"]
    qs.append(cli_question(hf, "compare/P4/P2/refine", ["compare", f("P4"), f("P2"), "--order", "refine"] + p_init,
                           1, _json_fields({"points": [{"verdict": "NotRefined", "functional_mismatch": False,
                                                        "v": "1"}]})))
    qs.append(cli_question(hf, "compare/P2/P4/refine", ["compare", f("P2"), f("P4"), "--order", "refine"] + p_init,
                           0, _points("Refined", 1)))
    tb_init = ["--init", "v=bot; h~uniform"]
    qs.append(cli_question(hf, "compare/threebox_S/threebox_I1/refine",
                           ["compare", f("threebox_S"), f("threebox_I1"), "--order", "refine"] + tb_init,
                           0, _points("Refined", 1)))
    qs.append(cli_question(hf, "compare/threebox_I1/threebox_S/refine",
                           ["compare", f("threebox_I1"), f("threebox_S"), "--order", "refine"] + tb_init,
                           1, _points("NotRefined", 1)))
    # P4 -> P2 is not a refinement; Bayes vulnerability, guessing entropy
    # and guesswork cannot tell them apart, Shannon entropy can
    for measure, holds in (("bayes", True), ("shannon", False), ("gentropy", True), ("guesswork:1/2", True)):
        qs.append(cli_question(hf, f"compare/P4/P2/elementary:{measure}",
                               ["compare", f("P4"), f("P2"), "--order", f"elementary:{measure}"] + p_init,
                               0 if holds else 1, _json_fields({"holds": holds})))
    qs.append(cli_question(hf, "compare/threebox_I1/threebox_S/elementary:bayes",
                           ["compare", f("threebox_I1"), f("threebox_S"), "--order", "elementary:bayes"] + tb_init,
                           1, _json_fields({"holds": False})))

    for method, bv_s, bv_i in (("farkas", "37/72", "13/24"), ("vertices", "23/39", "8/13")):
        qs.append(cli_question(hf, f"attack/P4/P2/{method}",
                               ["attack", f("P4"), f("P2"), "--method", method] + p_init, 0,
                               _json_fields({"trigger_v": "1", "bv_spec_with_context": bv_s,
                                             "bv_impl_with_context": bv_i, "verdict": True})))
    for name, init in (("threebox_S", tb_init), ("threebox_I1", tb_init), ("threebox_I2", tb_init),
                       ("P2", p_init), ("P4", p_init)):
        qs.append(cli_question(hf, f"normalform/{name}", ["normalform", f(name)] + init, 0,
                               _json_fields({"backends_agree": True})))
    qs.append(cli_question(hf, "selftest", ["selftest", "--corpus", str(corpus)], 0, _contains("PASS")))

    for impl in ("three_judges_fig2", "three_judges_fig3"):
        for view, (flags, *inits) in VIEWS.items():
            for init in inits:
                samples = 2 if "sample" in init else 1
                argv = ["compare", f("three_judges_spec"), f(impl), "--order", "refine", *flags,
                        "--init", init, "--seed", cli_seed]
                qs.append(cli_question(hf, f"judges/{impl}/{view}/{init}", argv, 0,
                                       _points("Refined", samples)))
    rng.shuffle(qs)
    return qs


# ---------------------------------------------------------------------------
# sweep: the ROADMAP sweep family, growing inner support and program length
# ---------------------------------------------------------------------------

V = 8
SWEEP_BINS = ((8, 9), (12, 14), (18, 21), (27, 31), (40, 46))  # hidden-domain sizes, k = 1
SWEEP_LONG_N = 4  # hidden-domain size for the body repeated twice
SWEEP_KINDS = ("eval",) + MEASURES
GOLDEN = 0.6180339887498949
SWEEP_PRIORS = ("uniform", "sample:1@1", "sample:1@2")  # sampled prior @ CLI seed


def sweep_source(n: int, k: int, atomic_tail: bool = False, v_dom: int = V) -> str:
    """The sweep program over h : {0..n-1}, v : {0..v_dom-1}, body repeated k times.

    With atomic_tail, the last three statements run inside one atomic
    block, which hides the intermediate visible values they produce.
    """
    body = [
        "v <- uniform{0, 1}",
        f"h <- {{(h + v) mod {n} @ 1/2, (h * 3) mod {n} @ 1/2}}",
        f"if h mod 2 = 0 then v := h mod {v_dom} else v <- uniform{{{', '.join(map(str, range(v_dom)))}}} fi",
        f"h := (h + 1) mod {n} [1/3] h := (h * 2) mod {n}",
        f"v := (h + v) mod {v_dom}",
    ] * k
    if atomic_tail:
        body[-3:] = ["atomic { " + ";\n  ".join(body[-3:]) + " }"]
    return f"hid h : {{0..{n - 1}}};\nvis v : {{0..{v_dom - 1}}};\n\n" + ";\n".join(body) + "\n"


def sweep_argv(path: str, kind: str, prior: str) -> list[str]:
    spec, _, cli_seed = prior.partition("@")
    argv = ["eval", path] if kind == "eval" else ["measure", path]
    argv += ["--init", f"v=0; h~{spec}", "--seed", cli_seed or "0"]
    return argv + (["--json"] if kind == "eval" else ["--measure", kind])


def sweep_key(n: int, k: int, kind: str, prior: str) -> str:
    return f"{n}/{k}/{kind}/{prior}"


def sweep_space():
    """Every (n, k, kind, prior) the sweep generator can draw."""
    sizes = [(n, 1) for lo, hi in SWEEP_BINS for n in range(lo, hi + 1)]
    sizes.append((SWEEP_LONG_N, 2))
    return [(n, k, kind, prior) for n, k in sizes for kind in SWEEP_KINDS for prior in SWEEP_PRIORS]


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def load_sweep_answers() -> dict:
    return json.loads(SWEEP_ANSWERS.read_text())


def _recorded(answer):
    def judge(out):
        return None if digest(out) == answer["sha256"] else f"output digest differs from {answer}"

    return judge


def write_program(workdir: Path, name: str, source: str) -> str:
    path = workdir / f"{name}.hprog"
    path.write_text(source)
    return str(path)


def sweep_round(hf, seed: int, r: int, workdir: Path, answers: dict) -> list[Question]:
    """One program per size bin, the kinds rotating over the bins so that
    five consecutive rounds ask every (bin, kind) pair once, each pair
    under its own prior; every fifth round adds one program with the body
    repeated twice."""
    rng = rng_for(seed, "sweep", r)
    cells = []
    for b, (lo, hi) in enumerate(SWEEP_BINS):
        kind = (b + r) % len(SWEEP_KINDS)
        # the m-th visit of a (bin, kind) cell takes the m-th point of a
        # golden-ratio sequence with a seeded offset, so that every run
        # spreads its sizes evenly over the bin
        offset = rng_for(seed, "sweep", b, kind).random()
        n = lo + int((offset + (r // 5) * GOLDEN) % 1 * (hi - lo + 1))
        cells.append((n, 1, SWEEP_KINDS[kind], SWEEP_PRIORS[(b + 2 * kind) % 3]))
    if r % 5 == 4:
        cells.append((SWEEP_LONG_N, 2, SWEEP_KINDS[(r // 5) % len(SWEEP_KINDS)], "uniform"))
    qs = []
    for n, k, kind, prior in cells:
        path = write_program(workdir, f"sweep_{n}_{k}", sweep_source(n, k))
        answer = answers[sweep_key(n, k, kind, prior)]
        qs.append(cli_question(hf, f"sweep/{sweep_key(n, k, kind, prior)}",
                               sweep_argv(path, kind, prior), answer["code"], _recorded(answer)))
    rng.shuffle(qs)
    return qs


# ---------------------------------------------------------------------------
# refine: refinement decisions, (a) on generated hyper-distributions and
# (b) on sweep programs against their atomic-tail variant, with attacks
# ---------------------------------------------------------------------------

REFINE_H = (4, 8, 12, 16)  # hidden-value counts of generated pairs
REFINE_STATES = (4, 8)  # split-states per generated hyper
REFINE_PROGRAM_N = (4, 5, 6)  # hidden-domain sizes of the program pairs, one a round


def _rand_full_dist(hf, rng, points):
    weights = [rng.randint(1, 16) for _ in points]
    total = sum(weights)
    return hf.probcore.FiniteDist([(p, Fraction(w, total)) for p, w in zip(points, weights)])


def rand_hyper(hf, rng, n_h: int, n_states: int):
    """A canonical hyper with n_states split-states, alternately at v = 0
    and v = 1, each with random weights on three quarters of n_h hidden
    values."""
    vnum = hf.probcore.vnum
    hs = [(vnum(i),) for i in range(n_h)]
    weights = [rng.randint(1, 12) for _ in range(n_states)]
    total = sum(weights)
    pairs = []
    for i, w in enumerate(weights):
        support = sorted(rng.sample(range(n_h), n_h - n_h // 4))
        delta = _rand_full_dist(hf, rng, [hs[j] for j in support])
        pairs.append((hf.semantics.SplitState((vnum(i % 2),), delta), Fraction(w, total)))
    return hf.semantics.HyperDist(pairs)


def merge_hyper(hf, rng, h):
    """A hyper that h refines to: per visible value, a random convex merge
    of the partition's fractions into half as many (a column-stochastic
    matrix applied to them)."""
    pairs = []
    for v in h.visible_values():
        fractions = hf.refine.extract_partition(h, v).fractions
        rows = max(1, len(fractions) // 2)
        mixes = [(Fraction(rng.randint(1, 8)), [rng.randrange(rows) for _ in fractions])
                 for _ in range(rng.randint(1, 3))]
        total = sum(c for c, _ in mixes)
        merged = [{} for _ in range(rows)]
        for c, pick in mixes:
            for fraction, row in zip(fractions, pick):
                for hv, w in fraction.items():
                    merged[row][hv] = merged[row].get(hv, 0) + c / total * w
        for acc in merged:
            weight = sum(acc.values())
            if weight:
                delta = hf.probcore.FiniteDist([(hv, w / weight) for hv, w in acc.items()])
                pairs.append((hf.semantics.SplitState(v, delta), weight))
    return hf.semantics.HyperDist(pairs)


def _refinement_question(hf, qid, spec, impl, refined: bool) -> Question:
    def check(result):
        got = isinstance(result, hf.refine.RefinementWitness)
        if got != refined:
            return f"{'Refined' if got else 'NotRefined'}, expected {'Refined' if refined else 'NotRefined'}"
        return None

    return Question(qid, f"{spec!r} -> {impl!r}", lambda: hf.refine.check_refinement(spec, impl), check)


def refine_round(hf, seed: int, r: int, workdir: Path) -> list[Question]:
    rng = rng_for(seed, "refine", r)
    qs = []
    for n_h in REFINE_H:
        for n_states in REFINE_STATES:
            h = rand_hyper(hf, rng, n_h, n_states)
            m = merge_hyper(hf, rng, h)
            qid = f"refine/hyper/{n_h}/{len(h)}->{len(m)}"
            qs.append(_refinement_question(hf, qid, h, m, True))
            # refinement is antisymmetric on canonical hypers
            qs.append(_refinement_question(hf, qid + "/reverse", m, h, h == m))
    n = REFINE_PROGRAM_N[r % len(REFINE_PROGRAM_N)]
    p = write_program(workdir, f"sweep_{n}_1", sweep_source(n, 1))
    a = write_program(workdir, f"sweep_{n}_1_atomic", sweep_source(n, 1, atomic_tail=True))
    init = ["--init", "v=0; h~uniform"]
    qs.append(cli_question(hf, f"refine/program/{n}/self", ["compare", p, p, "--order", "refine"] + init,
                           0, _points("Refined", 1)))
    qs.append(cli_question(hf, f"refine/program/{n}/atomic", ["compare", p, a, "--order", "refine"] + init,
                           0, _points("Refined", 1)))
    qs.append(cli_question(hf, f"refine/program/{n}/reverse", ["compare", a, p, "--order", "refine"] + init,
                           1, _points("NotRefined", 1)))
    qs.append(cli_question(hf, f"refine/program/{n}/attack", ["attack", a, p] + init, 0, _verified_attack))
    rng.shuffle(qs)
    return qs


def _verified_attack(out):
    payload = json.loads(out)
    bv_s, bv_i = (Fraction(payload[k]) for k in ("bv_spec_with_context", "bv_impl_with_context"))
    if payload["verdict"] is not True or not bv_i > bv_s:
        return f"attack not verified: {payload}"
    return None


# ---------------------------------------------------------------------------
# crosscheck: random programs through both evaluation backends
# ---------------------------------------------------------------------------

# One program per stratum and round.  A stratum fixes the domains and the
# block structure, and with them the normal form's size: a leaf block is
# one statement or an atomic pair (v_dom matrices), a branch block is a
# probabilistic choice or a conditional between two statements
# (2 v_dom matrices), and sequencing multiplies.  The seed draws the
# statements, guards, probabilities, block order and initial state.
CROSSCHECK_STRATA = (
    (2, 8, "LLBL"),
    (3, 6, "BLL"),
    (2, 8, "BBLL"),
    (4, 4, "LBL"),
    (3, 8, "BLB"),
    (4, 6, "LLB"),
    (4, 8, "LBL"),
    (4, 8, "BLL"),
)


def _int_expr(rng, modulus: int) -> str:
    def atom():
        return rng.choice(["v", "h"]) if rng.random() < 0.6 else str(rng.randint(0, modulus))

    e = atom()
    for _ in range(rng.randint(0, 2)):
        e = f"({e} {rng.choice(['+', '+', '*', '-'])} {atom()})"
    return f"{e} mod {modulus}"


def _guard(rng, modulus: int) -> str:
    op = rng.choice(["=", "!=", "<", "<=", ">", ">="])
    return f"({_int_expr(rng, modulus)}) {op} {rng.randint(0, modulus - 1)}"


def _prob(rng, h_dom: int) -> str:
    if rng.random() < 0.3:
        return f"({_int_expr(rng, h_dom)}) / {h_dom}"
    den = rng.randint(2, 6)
    return f"{rng.randint(1, den - 1)}/{den}"


def _dist(rng, values: int, h_dom: int, nested: bool = False) -> str:
    style = rng.random()
    if style < 0.45:
        subset = sorted(rng.sample(range(values), rng.randint(1, values)))
        return "uniform{" + ", ".join(map(str, subset)) + "}"
    if style < 0.8 or nested:
        chosen = rng.sample(range(values), rng.randint(1, min(3, values)))
        cuts = sorted(rng.sample(range(1, 12), len(chosen) - 1))
        bounds = [0] + cuts + [12]
        return "{" + ", ".join(f"{x} @ {b - a}/12" for x, a, b in zip(chosen, bounds, bounds[1:])) + "}"
    return f"({_dist(rng, values, h_dom, True)} if {_guard(rng, h_dom)} else {_dist(rng, values, h_dom, True)})"


def _statement(rng, v_dom: int, h_dom: int) -> str:
    if rng.random() < 0.1:
        return "skip"
    target, modulus = rng.choice([("v", v_dom), ("h", h_dom)])
    if rng.random() < 0.5:
        return f"{target} := {_int_expr(rng, modulus)}"
    return f"{target} <- {_dist(rng, modulus, h_dom)}"


def _block(rng, kind: str, v_dom: int, h_dom: int) -> str:
    def stmt():
        return _statement(rng, v_dom, h_dom)

    if kind == "L":
        return stmt() if rng.random() < 0.7 else f"atomic {{ {stmt()}; {stmt()} }}"
    if rng.random() < 0.5:
        return f"{{ {stmt()} }} [{_prob(rng, h_dom)}] {{ {stmt()} }}"
    return f"if {_guard(rng, h_dom)} then {stmt()} else {stmt()} fi"


def crosscheck_program(rng, v_dom: int, h_dom: int, blocks: str):
    """(source, init spec) of a random program with the stratum's shape."""
    order = list(blocks)
    rng.shuffle(order)
    body = ";\n".join(_block(rng, kind, v_dom, h_dom) for kind in order)
    v0 = rng.randrange(v_dom)
    init = rng.choice([f"v={v0}; h~uniform", f"v={v0}; h~sample:1", f"v={v0}; h~{rng.randrange(h_dom)}"])
    return f"vis v : {{0..{v_dom - 1}}};\nhid h : {{0..{h_dom - 1}}};\n\n{body}\n", init


def crosscheck_round(hf, seed: int, r: int, workdir: Path) -> list[Question]:
    rng = rng_for(seed, "crosscheck", r)
    qs = []
    for b, stratum in enumerate(CROSSCHECK_STRATA):
        source, init = crosscheck_program(rng, *stratum)
        path = write_program(workdir, f"crosscheck_{r}_{b}", source)
        argv = ["normalform", path, "--init", init, "--seed", str(rng.randrange(1 << 30))]
        qs.append(cli_question(hf, f"crosscheck/{r}/{b}", argv, 0, _json_fields({"backends_agree": True})))
    rng.shuffle(qs)
    return qs


# ---------------------------------------------------------------------------


# Rounds per cycle, where the whole mix takes several rounds: sweep rotates
# its kinds over the bins, refine its program sizes.
CYCLE = {"sweep": len(SWEEP_KINDS), "refine": len(REFINE_PROGRAM_N)}


def make_rounds(hf, workload: str, seed: int, n_rounds: int, workdir: Path, corpus: Path):
    if workload == "corpus":
        return [corpus_round(hf, seed, r, corpus) for r in range(n_rounds)]
    if workload == "sweep":
        answers = load_sweep_answers()
        return [sweep_round(hf, seed, r, workdir, answers) for r in range(n_rounds)]
    if workload == "refine":
        return [refine_round(hf, seed, r, workdir) for r in range(n_rounds)]
    if workload == "crosscheck":
        return [crosscheck_round(hf, seed, r, workdir) for r in range(n_rounds)]
    raise ValueError(f"unknown workload {workload!r}")
