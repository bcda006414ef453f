"""Record the known answers of every question the sweep workload can ask.

Usage (from the repository root):

    python3 perfbench/record_sweep.py

Each entry keeps the exit code, a digest of stdout and, for measures, the
value itself.  Entries for questions the sweep can still ask are kept, so
changing the sweep only asks the new questions.

It first runs the sweep family through the `normalform` cross-check at
V = 2, the largest visible domain at which the normal-form
backend finishes in seconds (at V = 8 it would build 4 * 8^5 dense matrix
products); it fails if the two backends disagree.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run
import workloads


def confirm_family(hf, workdir: Path) -> None:
    for n in range(4, 9):
        source = workloads.sweep_source(n, 1, v_dom=2)
        path = workloads.write_program(workdir, f"confirm_{n}", source)
        code, out = workloads.ask_cli(hf.cli.run, ["normalform", path, "--init", "v=0; h~uniform"])
        if code != 0 or not json.loads(out)["backends_agree"]:
            raise SystemExit(f"backends disagree on the sweep family at n={n}, V=2")
        print(f"confirmed n={n} V=2", file=sys.stderr)


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    hf = run.import_program()
    path = workloads.SWEEP_ANSWERS
    recorded = json.loads(path.read_text()) if path.exists() else {}
    space = workloads.sweep_space()
    keys = [workloads.sweep_key(*question) for question in space]
    answers = {key: recorded[key] for key in keys if key in recorded}
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        confirm_family(hf, workdir)
        for n, k, kind, prior in space:
            key = workloads.sweep_key(n, k, kind, prior)
            if key in answers:
                continue
            program = workloads.write_program(workdir, f"sweep_{n}_{k}", workloads.sweep_source(n, k))
            code, out = workloads.ask_cli(hf.cli.run, workloads.sweep_argv(program, kind, prior))
            entry = {"code": code, "sha256": workloads.digest(out)}
            if kind != "eval":
                entry["value"] = json.loads(out)["value"]
            answers[key] = entry
            print(key, entry, file=sys.stderr)
    path.write_text(json.dumps(answers, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
