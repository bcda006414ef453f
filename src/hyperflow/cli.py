"""Command-line surface.

Exit codes: 0 verdict holds / success, 1 verdict fails, 2 usage or parse
error (malformed argument text and unreadable files included), 3
internal error (any crash, with a one-line message).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from .errors import HprogSyntaxError, HyperflowError, InternalError, UsageError
from .initspec import InitSpecError, expand_init_spec, parse_init_spec
from .jsonio import hyper_json, module_json, vtuple_str, witness_json
from .lang import desugar, parse, pretty_print, project_view, validate
from .measures import (
    DEFAULT_PRECISION_BITS,
    MIN_PRECISION_BITS,
    MeasureKind,
    ShannonValue,
    elementary_compare,
    measure_value,
)
from .normalform import eval_via_normal_form
from .probcore import rat_str
from .refine import NotRefined, check_refinement
from .semantics import Scope, eval as eval_hyper

OK, FAIL, USAGE, INTERNAL = 0, 1, 2, 3


def _precision(args) -> int:
    bits = args.precision_bits
    if bits is None:
        text = os.environ.get("HYPERFLOW_PRECISION_BITS", str(DEFAULT_PRECISION_BITS))
        try:
            bits = int(text)
        except ValueError:
            raise UsageError(f"HYPERFLOW_PRECISION_BITS is not an integer: {text!r}") from None
    if bits < MIN_PRECISION_BITS:
        raise UsageError(f"precision must be at least {MIN_PRECISION_BITS} bits, got {bits}")
    return bits


def _read(path: str) -> str:
    """A program file's text; bytes that are not UTF-8 are a usage error naming the file."""
    try:
        return Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise UsageError(f"{path}: {exc}") from None


def _load(path: str, args) -> "tuple":
    module = parse(_read(path))
    if getattr(args, "agent", None):
        module = project_view(module, args.agent)
    elif getattr(args, "external", False):
        module = project_view(module, None)
    diags = validate(module, allow_uniform_init=getattr(args, "allow_uniform_init", False))
    errors = [d for d in diags if d.severity == "error"]
    if errors:
        raise HprogSyntaxError("; ".join(str(d) for d in errors), 0, 0)
    for d in diags:
        print(str(d), file=sys.stderr)
    desugared = desugar(module)
    return module, desugared, Scope.of_module(desugared)


def _inits(args, scope):
    spec = parse_init_spec(args.init, scope)
    states = expand_init_spec(spec, scope, seed=args.seed)
    return states


def _emit(obj):
    print(json.dumps(obj, indent=2))


def _elementary_kind(order: str):
    """None for `refine`, else the measure of `elementary:MEASURE`."""
    if order == "refine":
        return None
    prefix, sep, text = order.partition(":")
    if prefix != "elementary" or not sep:
        raise UsageError(f"unknown order {order!r}")
    return MeasureKind.parse(text)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_parse(args) -> int:
    module = parse(_read(args.file))
    diags = validate(module, allow_uniform_init=args.allow_uniform_init)
    if args.json:
        _emit(
            {
                "module": module_json(module),
                "diagnostics": [str(d) for d in diags],
            }
        )
    else:
        print(pretty_print(module), end="")
        for d in diags:
            print(str(d), file=sys.stderr)
    return OK if not any(d.severity == "error" for d in diags) else USAGE


def cmd_eval(args) -> int:
    _, desugared, scope = _load(args.file, args)
    out = []
    for s in _inits(args, scope):
        hyper = eval_hyper(desugared.body, scope, s)
        out.append(hyper_json(hyper, scope))
    payload = {"seed": args.seed, "results": out} if len(out) > 1 else out[0]
    if args.json:
        _emit(payload)
        return OK
    for i, entry in enumerate(out, 1):
        if len(out) > 1:
            print(f"result {i} of {len(out)}:")
        for row in entry["hyper"]:
            delta = ", ".join(_state_text(d["h"], d["p"]) for d in row["delta"])
            parts = [f"p={row['p']}", _pairs(row["v"]), f"delta=[{delta}]"]
            print("  ".join(part for part in parts if part))
    return OK


def _pairs(named: dict) -> str:
    return ", ".join(f"{name}={value}" for name, value in named.items())


def _state_text(named: dict, p: str) -> str:
    """`h=0@2/3`; a tuple of other than one variable is parenthesised."""
    text = _pairs(named)
    return f"{text}@{p}" if len(named) == 1 else f"({text})@{p}"


def cmd_measure(args) -> int:
    kind = MeasureKind.parse(args.measure)
    precision = _precision(args)
    _, desugared, scope = _load(args.file, args)
    results = []
    for s in _inits(args, scope):
        value = measure_value(eval_hyper(desugared.body, scope, s), kind, precision)
        entry = {"measure": kind.kind}
        if kind.alpha is not None:
            entry["alpha"] = rat_str(kind.alpha)
        if isinstance(value, ShannonValue):
            entry.update(value=value.str_value(), precision_bits=value.precision_bits)
        else:
            entry["value"] = value if isinstance(value, int) else rat_str(value)
        results.append(entry)
    _emit({"seed": args.seed, "results": results} if len(results) > 1 else results[0])
    return OK


def cmd_compare(args) -> int:
    kind = _elementary_kind(args.order)
    precision = _precision(args)
    _, spec_d, spec_scope = _load(args.spec, args)
    _, impl_d, impl_scope = _load(args.impl, args)
    if [d.domain for d in spec_scope.visible] != [d.domain for d in impl_scope.visible] or [
        d.domain for d in spec_scope.hidden
    ] != [d.domain for d in impl_scope.hidden]:
        raise UsageError("declared state spaces differ")
    states = _inits(args, spec_scope)
    verdicts = []
    all_hold = True
    for s in states:
        hyper_s = eval_hyper(spec_d.body, spec_scope, s)
        hyper_i = eval_hyper(impl_d.body, impl_scope, s)
        if kind is None:
            result = check_refinement(hyper_s, hyper_i)
            if isinstance(result, NotRefined):
                all_hold = False
                verdicts.append(
                    {
                        "verdict": "NotRefined",
                        "functional_mismatch": result.functional_mismatch,
                        "v": None if result.v is None else vtuple_str(result.v),
                    }
                )
            else:
                verdicts.append({"verdict": "Refined", "witness": witness_json(result.per_v)})
        else:
            cv = elementary_compare(hyper_s, hyper_i, kind, precision)
            all_hold = all_hold and cv.holds
            entry = {"verdict": cv.kind}
            if cv.spec_value is not None and kind.kind != "shannon":
                entry["spec_value"] = str(cv.spec_value)
                entry["impl_value"] = str(cv.impl_value)
            verdicts.append(entry)
    _emit(
        {
            "order": args.order,
            "quantification": "pointwise over the supplied initial split-states",
            "seed": args.seed,
            "points": verdicts,
            "holds": all_hold,
        }
    )
    return OK if all_hold else FAIL


def cmd_attack(args) -> int:
    from .attack import synthesize_and_verify

    spec_m, _, spec_scope = _load(args.spec, args)
    impl_m, _, _ = _load(args.impl, args)
    states = _inits(args, spec_scope)
    if len(states) != 1:
        raise UsageError("attack needs a single initial split-state")
    report = synthesize_and_verify(spec_m, impl_m, states[0], method=args.method)
    ctx_text = pretty_print(report.context)
    if args.output:
        Path(args.output).write_text(ctx_text)
    _emit(
        {
            "trigger_v": vtuple_str(report.trigger_v),
            "bv_spec_with_context": rat_str(report.bv_spec),
            "bv_impl_with_context": rat_str(report.bv_impl),
            "verdict": report.verdict,
            "context_file": args.output,
        }
    )
    return OK if report.verdict else FAIL


def cmd_view(args) -> int:
    module = parse(_read(args.file))
    projected = project_view(module, args.agent if args.agent else None)
    print(pretty_print(projected), end="")
    return OK


def cmd_normalform(args) -> int:
    _, desugared, scope = _load(args.file, args)
    agree = True
    for s in _inits(args, scope):
        direct = eval_hyper(desugared.body, scope, s)
        via_nf = eval_via_normal_form(desugared.body, scope, s)
        agree = agree and direct == via_nf
    _emit({"backends_agree": agree, "seed": args.seed})
    return OK if agree else FAIL


def cmd_selftest(args) -> int:
    from .selftest import run_selftest

    corpus = Path(args.corpus or os.environ.get("HYPERFLOW_CORPUS", "corpus"))
    if not corpus.is_dir():
        raise UsageError(f"corpus directory {corpus} not found")
    return OK if run_selftest(corpus) else FAIL


# ---------------------------------------------------------------------------


def _add_common(sp, init=True):
    sp.add_argument("--agent", help="project this agent's view before analysing")
    sp.add_argument(
        "--external", action="store_true", help="project the external observer's view"
    )
    sp.add_argument(
        "--allow-uniform-init",
        action="store_true",
        help="permit local declarations without an explicit initialisation (uniform default)",
    )
    if init:
        sp.add_argument("--init", required=True, help='e.g. "v=bot; h~uniform" or "h~sample:10"')
        sp.add_argument("--seed", type=int, default=0, help="seed for sampled priors")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing returns a
    fresh namespace and leaves the parser unchanged."""
    ap = argparse.ArgumentParser(
        prog="hyperflow",
        description="Exact analysis of probabilistic noninterference programs",
    )
    ap.add_argument("--precision-bits", type=int, help="Shannon precision (default 128)")
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("parse", help="parse and validate a program")
    sp.add_argument("file")
    sp.add_argument("--json", action="store_true")
    sp.add_argument("--allow-uniform-init", action="store_true")
    sp.set_defaults(fn=cmd_parse)

    sp = sub.add_parser("eval", help="hyper-distribution of a program")
    sp.add_argument("file")
    sp.add_argument("--json", action="store_true")
    _add_common(sp)
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("measure", help="leakage measure of a program")
    sp.add_argument("file")
    sp.add_argument(
        "--measure", required=True, help="bayes | shannon | gentropy | guesswork:ALPHA"
    )
    _add_common(sp)
    sp.set_defaults(fn=cmd_measure)

    sp = sub.add_parser("compare", help="order two programs")
    sp.add_argument("spec")
    sp.add_argument("impl")
    sp.add_argument(
        "--order",
        required=True,
        help="refine | elementary:bayes | elementary:shannon | elementary:gentropy | elementary:guesswork:ALPHA",
    )
    _add_common(sp)
    sp.set_defaults(fn=cmd_compare)

    sp = sub.add_parser("attack", help="synthesise a distinguishing context")
    sp.add_argument("spec")
    sp.add_argument("impl")
    sp.add_argument("-o", "--output", help="write the context program here")
    sp.add_argument("--method", choices=["farkas", "vertices"], default="farkas")
    _add_common(sp)
    sp.set_defaults(fn=cmd_attack)

    sp = sub.add_parser("view", help="project a per-agent view")
    sp.add_argument("file")
    sp.add_argument("--agent", help="agent name; omit for the external observer")
    sp.set_defaults(fn=cmd_view)

    sp = sub.add_parser("normalform", help="cross-check both evaluation backends")
    sp.add_argument("file")
    _add_common(sp)
    sp.set_defaults(fn=cmd_normalform)

    sp = sub.add_parser("selftest", help="re-derive the bundled golden results")
    sp.add_argument("--corpus", help="corpus directory (default ./corpus)")
    sp.set_defaults(fn=cmd_selftest)

    return ap


def run(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return USAGE if e.code else OK
    try:
        return args.fn(args)
    except (HprogSyntaxError, InitSpecError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except (InternalError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return INTERNAL
    except HyperflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE
    except Exception as exc:  # a crash must not read as a failed verdict (exit 1)
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return INTERNAL


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
