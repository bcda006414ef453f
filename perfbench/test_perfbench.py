"""Tests of the benchmark's own code.

Run from the repository root:  python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.SRC))


@pytest.fixture(scope="module")
def hf():
    return run.import_program()


# ---------------------------------------------------------------------------
# percentile rule


def test_nearest_rank_percentile():
    samples = list(range(100, 0, -1))  # 1..100, unsorted
    assert run.percentile(samples, 50) == 50
    assert run.percentile(samples, 90) == 90
    assert sum(1 for x in samples if x > run.percentile(samples, 90)) == 10
    assert run.percentile([3.0], 90) == 3.0
    assert run.percentile([1, 2, 3, 4], 50) == 2
    assert run.percentile([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11], 90) == 10
    with pytest.raises(ValueError):
        run.percentile([], 50)


# ---------------------------------------------------------------------------
# self time


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _span(rec, clock, name, work_before, children=(), work_after=0.0):
    idx = rec.open(name)
    clock.now += work_before
    for child in children:
        child()
    clock.now += work_after
    rec.close(idx)


def test_self_time_of_nested_spans():
    # cli -> attack -> refine -> lp, and attack -> attack.verify -> semantics
    clock = Clock()
    rec = spans.Recorder(clock)
    lp = lambda: _span(rec, clock, "lp", 4.0)  # noqa: E731
    refine = lambda: _span(rec, clock, "refine", 1.0, [lp], 0.5)  # noqa: E731
    semantics = lambda: _span(rec, clock, "semantics", 3.0)  # noqa: E731
    verify = lambda: _span(rec, clock, "attack.verify", 0.25, [semantics])  # noqa: E731
    attack = lambda: _span(rec, clock, "attack", 2.0, [refine, verify], 1.0)  # noqa: E731
    _span(rec, clock, "cli", 0.125, [attack], 0.125)
    got = spans.self_times(rec.spans)
    assert got == {
        "cli": 0.25,
        "attack": 3.0,
        "refine": 1.5,
        "lp": 4.0,
        "attack.verify": 0.25,
        "semantics": 3.0,
    }
    total = rec.spans[0].end - rec.spans[0].start
    assert sum(got.values()) == total


def test_self_time_of_reentrant_spans():
    # semantics -> normalform -> semantics: the inner span is its own
    clock = Clock()
    rec = spans.Recorder(clock)
    inner = lambda: _span(rec, clock, "semantics", 2.0)  # noqa: E731
    middle = lambda: _span(rec, clock, "normalform", 1.0, [inner], 1.0)  # noqa: E731
    _span(rec, clock, "semantics", 3.0, [middle])
    assert spans.self_times(rec.spans) == {"semantics": 5.0, "normalform": 2.0}


def test_wrapper_joins_a_call_made_inside_the_same_layer():
    clock = Clock()
    rec = spans.Recorder(clock)

    def extract():
        clock.now += 1.0

    w_extract = spans.traced(rec, "refine", extract, lambda r, a, k, res: r.count("refine.partitions"))

    def check():
        clock.now += 2.0
        w_extract()
        w_extract()

    spans.traced(rec, "refine", check)()
    names = [s.name for s in rec.spans]
    assert names == ["refine", spans.HOOKS, spans.HOOKS]
    assert spans.self_times(rec.spans)["refine"] == 4.0
    assert rec.counts["refine.partitions"] == 2


def test_installed_wrappers_trace_an_attack(hf):
    p4, p2 = (str(run.CORPUS / f"{n}.hprog") for n in ("P4", "P2"))
    rec = spans.Recorder()
    patched = spans.install(rec)
    try:
        root = rec.open(spans.ROOT)
        code, out = workloads.ask_cli(hf.cli.run, ["attack", p4, p2, "--init", "v=0; h~uniform"])
        rec.close(root)
    finally:
        spans.uninstall(patched)
    assert code == 0 and json.loads(out)["verdict"] is True
    assert hf.cli.parse_init_spec is hf.initspec.parse_init_spec  # originals restored
    by_name = {}
    for s in rec.spans:
        by_name.setdefault(s.name, []).append(s)

    def parent(s):
        return rec.spans[s.parent].name

    assert {parent(s) for s in by_name["lp"]} == {"refine"}
    assert "attack" in {parent(s) for s in by_name["refine"]}
    assert "attack.verify" in {parent(s) for s in by_name["semantics"]}
    assert {parent(s) for s in by_name["attack"]} == {spans.ROOT}
    metrics = spans.layer_metrics(rec)
    assert metrics["attack.verified_ratio"][0] == 1
    assert metrics["lp.calls"][0] >= 1 and metrics["refine.lp_per_partition"][0] > 0
    selfs = spans.self_times(rec.spans)
    assert abs(sum(selfs.values()) - (rec.spans[0].end - rec.spans[0].start)) < 1e-9


# ---------------------------------------------------------------------------
# wrong answers count


def test_a_wrong_answer_is_a_failure(hf):
    p4, p2 = (str(run.CORPUS / f"{n}.hprog") for n in ("P4", "P2"))
    init = ["--init", "v=0; h~uniform"]
    right = workloads.cli_question(hf, "right", ["compare", p2, p4, "--order", "refine"] + init, 0)
    wrong_code = workloads.cli_question(hf, "wrong-code", ["compare", p4, p2, "--order", "refine"] + init, 0)
    wrong_value = workloads.cli_question(
        hf, "wrong-value", ["measure", str(run.CORPUS / "threebox_S.hprog"), "--init", "v=bot; h~uniform",
                            "--measure", "bayes"], 0, workloads._measure_judge("1/3", 1))

    def boom():
        raise RuntimeError("crash")

    raises = workloads.Question("raises", "", boom, lambda answer: None)
    done = run.answer([[right, wrong_code, wrong_value, raises]], 0)
    assert [qid for qid, _ in done.failures] == ["wrong-code", "wrong-value", "raises"]
    assert len(done.times) == 4
    assert len(done.failures) / len(done.times) == 0.75


def test_the_known_answers_accept_the_right_answer(hf):
    threebox = str(run.CORPUS / "threebox_S.hprog")
    q = workloads.cli_question(hf, "bv", ["measure", threebox, "--init", "v=bot; h~uniform", "--measure", "bayes"],
                               0, workloads._measure_judge(workloads.CORPUS_MEASURES["threebox_S", "bayes"], 1))
    assert run.answer([[q]], 0).failures == []


def test_traced_pass_alternates_over_the_same_questions(hf, tmp_path):
    # a question that notes whether the wrappers are installed when it runs
    seen = []
    original = hf.cli.parse_init_spec
    probe = workloads.Question("probe", "", lambda: seen.append(hf.cli.parse_init_spec is not original),
                               lambda a: None)
    warm, plain, traced, _ = run.traced_pass([[probe]], 0, tmp_path / "spans.jsonl")
    assert seen == [False, False, True, True, False]  # warm-up, then untraced/traced, traced/untraced
    assert len(warm.times) == 1 and len(plain.times) == len(traced.times) == 2
    assert hf.cli.parse_init_spec is original


# ---------------------------------------------------------------------------
# generated inputs


def _generate(hf, workload, seed, tmp_path, label):
    workdir = tmp_path / label
    workdir.mkdir()
    rounds = workloads.make_rounds(hf, workload, seed, 3, workdir, run.CORPUS)
    questions = [(q.qid, q.inputs.replace(str(workdir), "<dir>")) for rnd in rounds for q in rnd]
    files = {p.name: p.read_text() for p in sorted(workdir.iterdir())}
    return questions, files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_identical_for_a_seed(hf, workload, tmp_path):
    first = _generate(hf, workload, 7, tmp_path, "a")
    assert first == _generate(hf, workload, 7, tmp_path, "b")
    assert first != _generate(hf, workload, 8, tmp_path, "c")


def test_every_sweep_question_has_a_recorded_answer():
    answers = workloads.load_sweep_answers()
    for n, k, kind, prior in workloads.sweep_space():
        assert workloads.sweep_key(n, k, kind, prior) in answers


def test_benchmark_json_names_every_metric(hf, tmp_path):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    rounds = [[workloads.Question("q", "", lambda: sum(range(1000)), lambda a: None)]]
    end_to_end = run.end_to_end(run.answer(rounds, 0), 0.1)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in end_to_end.items()}
    _, _, _, per_layer = run.traced_pass(rounds, 0, tmp_path / "spans.jsonl")
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: u for k, (_, u) in per_layer.items()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
