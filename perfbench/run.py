"""hyperflow benchmark: time to a verified answer, one question at a time.

Usage (from the repository root):

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

One client asks hyperflow questions in a closed loop: each question is one
call of a public entry point (a CLI command run in-process through
`hyperflow.cli.run`, or `check_refinement` on generated
hyper-distributions), timed from the call until the answer is returned,
then checked against its known answer.  Questions come in rounds
(workloads.py); after a warm-up round, whole cycles of rounds are answered
for about `--seconds`.
Question and set-up times are the process's CPU time (everything is
single-threaded), so time the host gives to other processes is not
charged to the program.

--trace 0 prints the end-to-end metrics; --trace 1 answers each cycle of
rounds twice, once untraced and once traced, in alternating order, and
prints the per-layer metrics (spans.py) with the tracing overhead.  The
last line of stdout is one JSON object: {"correct", "attempted",
"failed", "metrics"}.  The exit code is 0 only when every answer was
right.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CORPUS = ROOT / "corpus"
STATE = ROOT / ".perfbench"  # scratch inputs, traces and result records

sys.path.insert(0, str(HERE))

import spans  # noqa: E402
import workloads  # noqa: E402

SETUPS = 3  # set-up repeats per run; setup_s is their median
CLOCK = time.process_time  # question and set-up times: CPU seconds of this process
# Seconds per round on a 2-core x86_64 machine, used only to decide how
# many rounds to generate: half again as many as a run answers there, so
# that a run repeats no round unless the program gets 1.5 times faster.
ROUND_SECONDS = {"corpus": 3.5, "sweep": 1.0, "refine": 1.0, "crosscheck": 0.85}

PROGRAM_MODULES = (
    "cli",
    "attack",
    "selftest",
    "normalform",
    "refine",
    "lp",
    "measures",
    "semantics",
    "initspec",
    "jsonio",
    "probcore",
)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of the
    samples at or below it.  With n samples, n - ceil(p/100 * n) lie above."""
    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1]


def import_program() -> SimpleNamespace:
    """Import hyperflow afresh from this checkout's src/."""
    for name in [n for n in sys.modules if n.split(".")[0] == "hyperflow"]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"hyperflow.{name}") for name in PROGRAM_MODULES}
    origin = Path(mods["cli"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"hyperflow imported from {origin}, not from {SRC}")
    return SimpleNamespace(**mods)


def set_up(workload: str, seed: int, seconds: float, workdir: Path):
    """Import the program and generate every input of the run."""
    hf = import_program()
    n_rounds = max(4, math.ceil(1.5 * seconds / ROUND_SECONDS[workload]))
    return workloads.make_rounds(hf, workload, seed, n_rounds, workdir, CORPUS)


class Pass:
    """Answers, times and failures of one pass over whole cycles of rounds."""

    def __init__(self):
        self.times: list[float] = []  # CPU seconds per question
        self.wall: list[float] = []  # wall-clock seconds per question, for the record
        self.failures: list[tuple[str, str]] = []
        self.rounds = 0

    @property
    def busy(self) -> float:
        return sum(self.times)

    def answers_per_s(self) -> float:
        return len(self.times) / self.busy


def ask_cycle(rounds, c: int, cycle: int, done: Pass, rec=None) -> None:
    """Answer the c-th cycle of rounds into `done`.

    Each question is timed from call to returned answer; its check runs
    after the clock stops.  A question that raises is a failure.
    """
    for r in range(c * cycle, (c + 1) * cycle):
        for q in rounds[r % len(rounds)]:
            if rec is not None:
                rec.question += 1
                root = rec.open(spans.ROOT)
            w0, t0 = time.perf_counter(), CLOCK()
            try:
                result, error = q.ask(), None
            except Exception as exc:  # a crash is a wrong answer, not the end of the run
                result, error = None, f"raised {type(exc).__name__}: {exc}"
            done.times.append(CLOCK() - t0)
            done.wall.append(time.perf_counter() - w0)
            if rec is not None:
                rec.close(root)
            if error is None:
                error = q.check(result)
            if error is not None:
                done.failures.append((q.qid, error))
        done.rounds += 1


def answer(rounds, seconds: float, cycle: int = 1) -> Pass:
    """Ask whole cycles of rounds for about `seconds` of wall-clock time:
    the whole number of cycles that ends nearest to it, at least one.  A
    cycle is the rounds that together ask the workload's whole mix."""
    done = Pass()
    start = time.perf_counter()
    c = 0
    while True:
        ask_cycle(rounds, c, cycle, done)
        c += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / c / 2 >= seconds:  # another cycle would end further from it
            return done


def commit() -> str:
    """The checkout's commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit(),
        "platform": platform.platform(),
    }


def end_to_end(done: Pass, setup_s: float) -> dict:
    return {
        "answers_per_s": (done.answers_per_s(), "1/s"),
        "answer_s.p50": (percentile(done.times, 50), "s"),
        "answer_s.p90": (percentile(done.times, 90), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mib": (peak_rss_mib(), "MiB"),
    }


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def traced_pass(rounds, seconds: float, trace_path: Path, cycle: int = 1):
    """Answer one cycle to warm up, then each cycle twice, untraced and
    traced, alternating which goes first, until `seconds` have passed
    (an even number of cycles, at least two).  Returns the warm-up, the
    untraced and the traced passes, and the per-layer metrics."""
    warm, plain, traced = Pass(), Pass(), Pass()
    ask_cycle(rounds, 0, cycle, warm)
    rec = spans.Recorder()
    start = time.perf_counter()
    c = 0
    while True:
        for tracing in ((False, True) if c % 2 == 0 else (True, False)):
            if not tracing:
                ask_cycle(rounds, c, cycle, plain)
                continue
            patched = spans.install(rec)
            try:
                ask_cycle(rounds, c, cycle, traced, rec)
            finally:
                spans.uninstall(patched)
        c += 1
        if c % 2 == 0 and time.perf_counter() - start >= seconds:
            break
    rec.write(trace_path)
    metrics = spans.layer_metrics(rec)
    metrics["trace.questions"] = (len(traced.times), "count")
    metrics["trace.untraced_answers_per_s"] = (plain.answers_per_s(), "1/s")
    metrics["trace.answers_per_s"] = (traced.answers_per_s(), "1/s")
    metrics["trace.overhead_ratio"] = (traced.busy / plain.busy - 1, "ratio")
    return warm, plain, traced, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "hyperflow").is_dir() or not CORPUS.is_dir():
        print(f"error: {SRC / 'hyperflow'} and {CORPUS} are needed; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import mpmath  # noqa: F401  the program's one dependency, loaded before set-up is timed

    for sub in ("work", "traces", "results"):
        (STATE / sub).mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=STATE / "work"))
    try:
        setup_times, rss_setup = [], []
        inputs = workdir / "inputs"
        for _ in range(SETUPS):
            # the previous set-up's inputs are not kept alive, in memory or on disk
            rounds = None
            shutil.rmtree(inputs, ignore_errors=True)
            gc.collect()
            t0 = CLOCK()
            inputs.mkdir()
            rounds = set_up(args.workload, args.seed, args.seconds, inputs)
            setup_times.append(CLOCK() - t0)
            rss_setup.append(peak_rss_mib())
        setup_s = statistics.median(setup_times)
        # the harness's own inputs are not the program's heap: keep them
        # out of later collections, so they do not slow the program's
        # garbage collection
        gc.collect()
        gc.freeze()

        name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        cycle = workloads.CYCLE.get(args.workload, 1)
        if args.trace:
            trace_path = STATE / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
            warm, plain, traced, metrics = traced_pass(rounds, args.seconds, trace_path, cycle)
            passes = [warm, plain, traced]
            summary = {"dominant_layer": spans.dominant_layer(metrics), "spans": str(trace_path)}
        else:
            # first-use costs (mpmath computes and caches the constants
            # its logarithms need) are paid on a round the timed pass
            # rarely reaches; the warm-up's time comes out of the budget
            warm = Pass()
            w0 = time.perf_counter()
            ask_cycle([rounds[-1]], 0, 1, warm)
            done = answer(rounds, args.seconds - (time.perf_counter() - w0), cycle=cycle)
            metrics = end_to_end(done, setup_s)
            passes = [warm, done]
            summary = {"samples": len(done.times),
                       "wall_answers_per_s": len(done.wall) / sum(done.wall)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(p.times) for p in passes)
    failures = [f for p in passes for f in p.failures]
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": [p.rounds for p in passes],
        "setup_cpu_s": setup_times,
        "peak_rss_mib_after_setup": rss_setup,
        "fail_ratio": len(failures) / attempted,
        "failures": failures[:20],
        "machine": machine(),
        **summary,
        **result,
    }
    (STATE / "results" / f"{name}.json").write_text(json.dumps(record, indent=1))
    for qid, why in failures[:20]:
        print(f"WRONG {qid}: {why}", file=sys.stderr)
    print(json.dumps({k: record[k] for k in ("rounds", "fail_ratio", "setup_cpu_s", "peak_rss_mib_after_setup",
                                             "machine", *summary)}), file=sys.stderr)
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
