"""Command-line surface: exit codes and machine-readable output."""

import json
import shutil

import pytest

from conftest import CORPUS
from hyperflow import attack, cli
from hyperflow.cli import run
from hyperflow.lang import parse, validate


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_ok(capsys):
    code, out, _ = invoke(capsys, "parse", str(CORPUS / "threebox_S.hprog"))
    assert code == 0 and "h <- uniform{0, 1, 2}" in out


def test_parse_json(capsys):
    code, out, _ = invoke(capsys, "parse", "--json", str(CORPUS / "threebox_S.hprog"))
    payload = json.loads(out)
    assert code == 0 and payload["module"]["decls"][0]["name"] == "h"


def test_parse_missing_file_is_usage_error(capsys):
    code, _, err = invoke(capsys, "parse", "/nonexistent.hprog")
    assert code == 2 and "error" in err


def test_parse_bad_syntax_is_usage_error(tmp_path, capsys):
    bad = tmp_path / "bad.hprog"
    bad.write_text("vis v : {0..1};\nskip skip\n")
    code, _, err = invoke(capsys, "eval", str(bad), "--init", "v=0")
    assert code == 2 and "2:" in err


@pytest.mark.parametrize(
    "decl, message",
    [
        ("vis v : {0, 1, 1};", "1:16: duplicate domain value 1"),
        ("vis v : {0, 1/0};", "1:15: zero denominator in a domain value"),
    ],
)
def test_a_bad_domain_value_is_a_positioned_usage_error(tmp_path, capsys, decl, message):
    prog = tmp_path / "p.hprog"
    prog.write_text(f"{decl}\nv := 0\n")
    for argv in (("parse", str(prog)), ("eval", str(prog), "--init", "v=0")):
        assert invoke(capsys, *argv) == (2, "", f"error: {message}\n")


def test_division_is_exact(tmp_path, capsys):
    prog = tmp_path / "p.hprog"
    prog.write_text("vis v : {0..1};\nv := 1 / 2 * 2\n")
    code, out, _ = invoke(capsys, "eval", str(prog), "--init", "v=0")
    assert (code, out) == (0, "p=1/1  v=1  delta=[()@1/1]\n")


def test_eval_json_schema(capsys):
    code, out, _ = invoke(
        capsys,
        "eval",
        str(CORPUS / "threebox_S.hprog"),
        "--init",
        "v=bot; h~uniform",
        "--json",
    )
    payload = json.loads(out)
    assert code == 0
    assert payload["hyper"][0]["p"] == "1/2"
    assert payload["hyper"][0]["v"] == {"v": "bot"}
    assert {"h": {"h": "0"}, "p": "2/3"} in payload["hyper"][0]["delta"]


def test_measure_bayes(capsys):
    code, out, _ = invoke(
        capsys,
        "measure",
        str(CORPUS / "threebox_S.hprog"),
        "--init",
        "v=bot; h~uniform",
        "--measure",
        "bayes",
    )
    assert code == 0
    assert json.loads(out) == {"measure": "bayes", "value": "2/3"}


def test_measure_shannon_has_precision(capsys):
    code, out, _ = invoke(
        capsys,
        "measure",
        str(CORPUS / "threebox_I2.hprog"),
        "--init",
        "v=bot; h~uniform",
        "--measure",
        "shannon",
    )
    payload = json.loads(out)
    assert code == 0 and payload["precision_bits"] == 128
    assert abs(float(payload["value"]) - 2 / 3) < 1e-9


def test_measure_guesswork(capsys):
    code, out, _ = invoke(
        capsys,
        "measure",
        str(CORPUS / "threebox_S.hprog"),
        "--init",
        "v=bot; h~uniform",
        "--measure",
        "guesswork:1/2",
    )
    payload = json.loads(out)
    assert code == 0 and payload["value"] == 1 and payload["alpha"] == "1/2"


def test_compare_refine_witness_and_exit_codes(capsys):
    code, out, _ = invoke(
        capsys,
        "compare",
        str(CORPUS / "P2.hprog"),
        str(CORPUS / "P4.hprog"),
        "--order",
        "refine",
        "--init",
        "v=0; h~uniform",
    )
    payload = json.loads(out)
    assert code == 0 and payload["holds"]
    assert "pointwise" in payload["quantification"]
    witness = payload["points"][0]["witness"]
    assert any(entry["v"] == "1" for entry in witness)

    code, out, _ = invoke(
        capsys,
        "compare",
        str(CORPUS / "P4.hprog"),
        str(CORPUS / "P2.hprog"),
        "--order",
        "refine",
        "--init",
        "v=0; h~uniform",
    )
    payload = json.loads(out)
    assert code == 1 and not payload["holds"]
    assert payload["points"][0]["v"] == "1"


def test_compare_elementary(capsys):
    code, out, _ = invoke(
        capsys,
        "compare",
        str(CORPUS / "threebox_S.hprog"),
        str(CORPUS / "threebox_I1.hprog"),
        "--order",
        "elementary:bayes",
        "--init",
        "v=bot; h~uniform",
    )
    assert code == 0 and json.loads(out)["points"][0]["verdict"] == "Holds"


def test_compare_sampled_inits_deterministic(capsys):
    args = (
        "compare",
        str(CORPUS / "P2.hprog"),
        str(CORPUS / "P4.hprog"),
        "--order",
        "refine",
        "--init",
        "v=0; h~sample:3",
        "--seed",
        "5",
    )
    code1, out1, _ = invoke(capsys, *args)
    code2, out2, _ = invoke(capsys, *args)
    assert code1 == code2 == 0 and out1 == out2
    assert json.loads(out1)["seed"] == 5


def test_attack_writes_context(tmp_path, capsys):
    ctx_file = tmp_path / "ctx.hprog"
    code, out, _ = invoke(
        capsys,
        "attack",
        str(CORPUS / "P4.hprog"),
        str(CORPUS / "P2.hprog"),
        "--init",
        "v=0; h~uniform",
        "-o",
        str(ctx_file),
    )
    payload = json.loads(out)
    assert code == 0 and payload["verdict"]
    assert ctx_file.exists()
    parse(ctx_file.read_text())  # emitted context is valid source


def test_attack_by_vertices_is_pinned(tmp_path, capsys):
    ctx_file = tmp_path / "ctx.hprog"
    code, out, _ = invoke(
        capsys,
        "attack",
        str(CORPUS / "P4.hprog"),
        str(CORPUS / "P2.hprog"),
        "--method",
        "vertices",
        "--init",
        "v=0; h~uniform",
        "-o",
        str(ctx_file),
    )
    payload = json.loads(out)
    assert code == 0 and payload["verdict"]
    assert (payload["bv_spec_with_context"], payload["bv_impl_with_context"]) == ("23/39", "8/13")
    assert ctx_file.read_text() == (
        "hid h : {1, 2, 3, 0};\n"
        "vis v : {0, 1, 2, 4};\n"
        "\n"
        "if v = 1 then\n"
        "  h <- ({1 @ 6 / 13, 2 @ 5 / 13, 3 @ 2 / 13} if h = 1 else "
        "({1 @ 4 / 13, 2 @ 4 / 13, 3 @ 4 / 13, 0 @ 1 / 13} if h = 2 else "
        "{1 @ 2 / 13, 2 @ 5 / 13, 3 @ 6 / 13}))\n"
        "else\n"
        "  h := 1\n"
        "fi\n"
    )


def test_attack_past_a_thousand_hidden_values(tmp_path, capsys, monkeypatch):
    # the context selects its channel row with one conditional of 1099 arms
    reports, synthesize = [], attack.synthesize_and_verify

    def recorded(*args, **kwargs):
        reports.append(synthesize(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(attack, "synthesize_and_verify", recorded)
    header = "vis v : {0..1};\nhid h : {0..1099};\n"
    (tmp_path / "spec.hprog").write_text(header + "atomic { v := h mod 2; v := 0 }\n")
    (tmp_path / "impl.hprog").write_text(header + "v := h mod 2; v := 0\n")
    ctx_file = tmp_path / "ctx.hprog"
    code, out, err = invoke(
        capsys,
        "attack",
        str(tmp_path / "spec.hprog"),
        str(tmp_path / "impl.hprog"),
        "--init",
        "v=0; h~uniform",
        "--method",
        "farkas",
        "-o",
        str(ctx_file),
    )
    assert (code, err) == (0, "") and json.loads(out)["verdict"]
    context = parse(ctx_file.read_text())
    assert validate(context) == [] and context == reports[0].context


def test_attack_on_two_hidden_variables(tmp_path, capsys):
    header = "vis v : {0..1};\nhid h : {0..1};\nhid k : {0..1};\n"
    (tmp_path / "spec.hprog").write_text(header + "skip\n")
    (tmp_path / "impl.hprog").write_text(header + "reveal h\n")
    code, out, _ = invoke(
        capsys,
        "attack",
        str(tmp_path / "spec.hprog"),
        str(tmp_path / "impl.hprog"),
        "--init",
        "v=0; h~uniform; k~uniform",
        "-o",
        str(tmp_path / "ctx.hprog"),
    )
    assert code == 0 and json.loads(out)["verdict"]
    assert "h = 0 and k = 0" in (tmp_path / "ctx.hprog").read_text()


def test_view_agent_and_external(capsys):
    code, out, _ = invoke(capsys, "view", str(CORPUS / "three_judges_spec.hprog"), "--agent", "A")
    assert code == 0 and "vis a" in out and "hid b" in out
    code, out, _ = invoke(capsys, "view", str(CORPUS / "three_judges_spec.hprog"))
    assert code == 0 and "hid a" in out


def test_eval_requires_view_for_agent_annotations(capsys):
    code, _, err = invoke(
        capsys, "eval", str(CORPUS / "three_judges_spec.hprog"), "--init", "a~uniform; b~uniform; c~uniform"
    )
    assert code == 2 and "view" in err


def test_normalform_crosscheck(capsys):
    code, out, _ = invoke(
        capsys,
        "normalform",
        str(CORPUS / "P2.hprog"),
        "--init",
        "v=0; h~uniform",
    )
    assert code == 0 and json.loads(out)["backends_agree"]


@pytest.mark.parametrize("last", ["v <- {0 @ h, 1 @ 1 - h}", "v := 0 [h] v := 1"])
def test_normalform_checks_weights_only_at_reachable_states(tmp_path, capsys, last):
    # the last statement's weights are invalid at h = 2 and 3, which no run reaches
    prog = tmp_path / "p.hprog"
    prog.write_text(f"hid h : {{0..3}};\nvis v : {{0..1}};\nh <- uniform{{0, 1}};\n{last}\n")
    for cmd in ("eval", "normalform"):
        code, out, _ = invoke(capsys, cmd, str(prog), "--init", "v=0; h~uniform")
        assert code == 0
    assert json.loads(out)["backends_agree"]


@pytest.mark.parametrize(
    "last, message",
    [("v <- {0 @ h, 1 @ 1 - h}", "negative weight -1"), ("v := 0 [h] v := 1", "probability 2 outside [0,1]")],
)
def test_normalform_refuses_a_weight_bad_at_a_reachable_state(tmp_path, capsys, last, message):
    prog = tmp_path / "p.hprog"
    prog.write_text(f"hid h : {{0..3}};\nvis v : {{0..1}};\n{last}\n")
    for cmd in ("eval", "normalform"):
        assert invoke(capsys, cmd, str(prog), "--init", "v=0; h~uniform") == (2, "", f"error: {message}\n")


def test_bad_init_spec(capsys):
    code, _, err = invoke(
        capsys, "eval", str(CORPUS / "threebox_S.hprog"), "--init", "v=bot"
    )
    assert code == 2 and "prior" in err


def test_eval_with_agent_view(capsys):
    code, out, _ = invoke(
        capsys,
        "eval",
        str(CORPUS / "three_judges_spec.hprog"),
        "--agent",
        "A",
        "--init",
        "a=true; b~uniform; c~uniform",
        "--json",
    )
    payload = json.loads(out)
    assert code == 0
    assert all(row["v"]["a"] == "true" for row in payload["hyper"])


def test_allow_uniform_init_flag(tmp_path, capsys):
    src = "vis v : {0,1};\nlocal hid t : {0,1} in { v := t }\n"
    f = tmp_path / "u.hprog"
    f.write_text(src)
    code, _, err = invoke(capsys, "eval", str(f), "--init", "v=0")
    assert code == 2  # missing initialisation is an error by default
    code, out, err = invoke(
        capsys, "eval", str(f), "--init", "v=0", "--allow-uniform-init", "--json"
    )
    payload = json.loads(out)
    assert code == 0 and "warning" in err
    assert [row["p"] for row in payload["hyper"]] == ["1/2", "1/2"]


def test_precision_env_var(capsys, monkeypatch):
    monkeypatch.setenv("HYPERFLOW_PRECISION_BITS", "96")
    code, out, _ = invoke(
        capsys,
        "measure",
        str(CORPUS / "threebox_S.hprog"),
        "--init",
        "v=bot; h~uniform",
        "--measure",
        "shannon",
    )
    assert code == 0 and json.loads(out)["precision_bits"] == 96


def test_selftest_subcommand(capsys, monkeypatch):
    monkeypatch.setenv("HYPERFLOW_CORPUS", str(CORPUS))
    code, out, _ = invoke(capsys, "selftest")
    assert code == 0
    assert out.count("PASS") > 20 and "FAIL" not in out


def test_crash_exits_internal_without_traceback(tmp_path, capsys):
    # 1200 nested conditionals nest deeper than the recursive-descent
    # parser reaches: the crash is exit 3, never 1 ("verdict fails")
    deep = tmp_path / "deep.hprog"
    body = "if v = 0 then " * 1200 + "skip" + " else skip fi" * 1200
    deep.write_text(f"vis v : {{0..1}};\nhid h : {{0..1}};\n\n{body}\n")
    code, out, err = invoke(capsys, "eval", str(deep), "--init", "v=0; h~uniform")
    assert code == 3 and out == ""
    assert err.startswith("internal error: RecursionError") and err.count("\n") == 1
    assert "Traceback" not in err


def test_long_sequence_evaluates(tmp_path, capsys):
    # a ';' sequence has no length limit: 1200 flips of v parse, check and
    # run, and an even number of flips leaves the state as skip does
    header = "vis v : {0..1};\nhid h : {0..1};\n\n"
    long, short = tmp_path / "long.hprog", tmp_path / "skip.hprog"
    long.write_text(header + ";\n".join(["v := (v + 1) mod 2"] * 1200) + "\n")
    short.write_text(header + "skip\n")
    code, out, err = invoke(capsys, "eval", str(long), "--init", "v=0; h~uniform")
    assert code == 0 and err == ""
    assert out == invoke(capsys, "eval", str(short), "--init", "v=0; h~uniform")[1]
    # the JSON form lists a sequence's statements instead of nesting them
    code, out, err = invoke(capsys, "parse", "--json", str(long))
    body = json.loads(out)["module"]["body"]
    assert code == 0 and err == ""
    assert body["kind"] == "seq" and len(body["statements"]) == 1200
    assert {q["kind"] for q in body["statements"]} == {"assign"}


def test_measure_gentropy(capsys):
    code, out, _ = invoke(
        capsys,
        "measure",
        str(CORPUS / "threebox_S.hprog"),
        "--measure",
        "gentropy",
        "--init",
        "v=bot; h~uniform",
    )
    assert code == 0 and out == json.dumps({"measure": "gentropy", "value": "4/3"}, indent=2) + "\n"


@pytest.mark.parametrize(
    "order, value", [("elementary:gentropy", "7/6"), ("elementary:guesswork:1/2", "1")]
)
def test_compare_guessing_orders(capsys, order, value):
    code, out, _ = invoke(
        capsys,
        "compare",
        str(CORPUS / "P4.hprog"),
        str(CORPUS / "P2.hprog"),
        "--order",
        order,
        "--init",
        "v=0; h~uniform",
    )
    (point,) = json.loads(out)["points"]
    assert code == 0 and point == {"verdict": "Holds", "spec_value": value, "impl_value": value}


_EVAL_P4 = ("eval", str(CORPUS / "P4.hprog"), "--init")
_MEASURE_S = ("measure", str(CORPUS / "threebox_S.hprog"), "--init", "v=bot; h~uniform", "--measure")
_COMPARE = ("compare", str(CORPUS / "P4.hprog"), str(CORPUS / "P2.hprog"), "--init", "v=0; h~uniform", "--order")


@pytest.mark.parametrize(
    "argv, precision_env",
    [
        (_EVAL_P4 + ("v=0; h~sample:0",), None),
        (_EVAL_P4 + ("v=0; h~sample:-1",), None),
        (_EVAL_P4 + ("v=0; h~sample:abc",), None),
        (_EVAL_P4 + ("v=0; h~{1@1/0}",), None),
        (_EVAL_P4 + ("v=0; h~{1@x}",), None),
        (("--precision-bits", "10") + _MEASURE_S + ("shannon",), None),
        (_MEASURE_S + ("shannon",), "abc"),
        (_MEASURE_S + ("guesswork:0",), None),
        (_MEASURE_S + ("guesswork:abc",), None),
        (_MEASURE_S + ("guesswork:1/0",), None),
        (_COMPARE + ("bogus",), None),
        (_COMPARE + ("elementary",), None),
        (_COMPARE + ("elementary:guesswork:2",), None),
        (_EVAL_P4 + ("v=0; v=1; h~uniform",), None),
        (_EVAL_P4 + ("v=0; h~uniform; h~1",), None),
    ],
    ids=[
        "sample:0",
        "sample:-1",
        "sample:abc",
        "prior-1/0",
        "prior-x",
        "precision-bits-10",
        "precision-env-abc",
        "guesswork:0",
        "guesswork:abc",
        "guesswork:1/0",
        "order-bogus",
        "order-elementary",
        "order-guesswork:2",
        "init-v-twice",
        "init-h-twice",
    ],
)
def test_malformed_argument_text_is_a_usage_error(capsys, monkeypatch, argv, precision_env):
    if precision_env is not None:
        monkeypatch.setenv("HYPERFLOW_PRECISION_BITS", precision_env)
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_unreadable_files_are_usage_errors(tmp_path, capsys):
    """A directory, or bytes that are not text, where a program file or the
    context file belongs: exit 2 with one `error:` line."""
    undecodable = tmp_path / "bytes.hprog"
    undecodable.write_bytes(b"\xff\xfe")
    p4, p2 = str(CORPUS / "P4.hprog"), str(CORPUS / "P2.hprog")
    for argv in (
        ("eval", str(tmp_path), "--init", "v=0; h~uniform"),
        ("parse", str(tmp_path)),
        ("parse", str(undecodable)),
        ("attack", p4, p2, "--init", "v=0; h~uniform", "-o", str(tmp_path)),
    ):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_an_undecodable_program_file_is_named(tmp_path, capsys):
    bad = tmp_path / "bad.hprog"
    bad.write_bytes(b"\xff\xfe")
    p4 = str(CORPUS / "P4.hprog")
    for argv in (
        ("attack", p4, str(bad), "--init", "v=0; h~uniform"),
        ("parse", str(bad)),
        ("view", str(bad)),
        ("eval", str(bad), "--init", "v=0"),
    ):
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xff"), err
        assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("compare", str(CORPUS / "P4.hprog"), str(CORPUS / "threebox_S.hprog"), "--order", "refine", "--init", "v=0"),
        ("attack", str(CORPUS / "P4.hprog"), str(CORPUS / "P2.hprog"), "--init", "v=0; h~sample:2"),
        ("selftest", "--corpus", "/nonexistent-corpus"),
    ],
    ids=["state-spaces-differ", "attack-several-inits", "corpus-missing"],
)
def test_refusals_print_one_error_line(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


_S, _ENC = str(CORPUS / "threebox_S.hprog"), str(CORPUS / "encryption_lemma.hprog")
_P4, _P2 = str(CORPUS / "P4.hprog"), str(CORPUS / "P2.hprog")
_JUDGES = str(CORPUS / "three_judges_fig2.hprog")
# pairs of commands that differ in one option
_ALTERNATING = [
    ("view", _JUDGES, "--agent", "A"),
    ("view", _JUDGES),
    ("eval", _ENC, "--init", "e~sample:2", "--seed", "5", "--json"),
    ("eval", _ENC, "--init", "e~sample:2", "--json"),
    ("--precision-bits", "96", "measure", _S, "--init", "v=bot; h~uniform", "--measure", "shannon"),
    ("measure", _S, "--init", "v=bot; h~uniform", "--measure", "shannon"),
    ("compare", _P4, _P2, "--order", "elementary:bayes", "--init", "v=0; h~uniform"),
    ("compare", _P4, _P2, "--order", "refine", "--init", "v=0; h~uniform"),
]


def test_parser_built_once_answers_like_a_fresh_parser(capsys, monkeypatch):
    monkeypatch.delenv("HYPERFLOW_PRECISION_BITS", raising=False)
    argvs = _ALTERNATING * 2
    once = [invoke(capsys, *argv)[:2] for argv in argvs]
    assert cli.build_parser() is cli.build_parser()
    assert all(once[i] != once[i + 1] for i in range(0, len(_ALTERNATING), 2))
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = [invoke(capsys, *argv)[:2] for argv in argvs]
    assert once == fresh


def test_eval_text_prints_name_value_pairs(capsys):
    code, out, _ = invoke(capsys, "eval", _S, "--init", "v=bot; h~uniform")
    assert (code, out) == (
        0,
        "p=1/2  v=bot  delta=[h=0@2/3, h=1@1/3]\np=1/2  v=bot  delta=[h=1@1/3, h=2@2/3]\n",
    )
    judges_a = ("eval", _JUDGES, "--agent", "A", "--init", "a=true; b~true; c~false")
    code, out, _ = invoke(capsys, *judges_a)
    assert (code, out) == (0, "p=1/1  a=true  delta=[(b=true, c=false)@1/1]\n")
    # each sampled prior's result is headed; the block hides nothing of e's prior
    sampled = ("eval", _ENC, "--init", "e~sample:2", "--seed", "3")
    code, out, _ = invoke(capsys, *sampled)
    priors = json.loads(invoke(capsys, *sampled, "--json")[1])
    lines = [
        f"p=1/1  delta=[e={d[0]['h']['e']}@{d[0]['p']}, e={d[1]['h']['e']}@{d[1]['p']}]"
        for d in (r["hyper"][0]["delta"] for r in priors["results"])
    ]
    assert (code, out.splitlines()) == (0, ["result 1 of 2:", lines[0], "result 2 of 2:", lines[1]])


def test_selftest_fails_on_a_broken_corpus(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    shutil.copytree(CORPUS, corpus)
    s = corpus / "threebox_S.hprog"
    s.write_text(s.read_text().replace("h <- uniform{0, 1, 2}", "h <- uniform{0, 1}"))
    assert "uniform{0, 1};" in s.read_text()
    code, out, _ = invoke(capsys, "selftest", "--corpus", str(corpus))
    assert code == 1 and "FAIL" in out
