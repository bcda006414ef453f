"""Outside-in tracing: spans around calls into hyperflow's public functions.

The benchmark never edits the program.  `install` replaces each public
function listed in `TARGETS` by a wrapper, in every loaded `hyperflow`
module that binds it, so that calls made through `from .x import f`
aliases are timed too.  A wrapper opens a span named after the layer,
calls the original, closes the span, and then runs the layer's counting
hook inside a `trace.hooks` span, so bookkeeping is charged to the tracer
and not to the layer that called.

Span times are the process's CPU seconds, the clock the questions are
timed with.  Spans live in memory and are written out once, at the end of
a run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

HOOKS = "trace.hooks"
ROOT = "cli"  # a question's root span; its self time is the uncovered rest


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index of the enclosing span, -1 for a question's root
    question: int = -1


class Recorder:
    """Spans and counters of one traced pass."""

    def __init__(self, clock=time.process_time):
        self.clock = clock
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.question = -1
        self.last_direct = None  # (program, split-state, hyper) of the last direct eval

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, self.clock(), parent=parent, question=self.question))
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        if not self.stack or self.stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx].name} closed out of order")
        self.spans[idx].end = self.clock()

    def innermost(self) -> str | None:
        return self.spans[self.stack[-1]].name if self.stack else None

    def inside(self, name: str) -> bool:
        return any(self.spans[i].name == name for i in self.stack)

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def high(self, name: str, value: float) -> None:
        self.counts[name] = max(self.counts[name], value)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


def self_times(spans: list[Span]) -> dict[str, float]:
    """Per span name: summed duration minus the time its direct children cover.

    Every instant of a question is charged to exactly one span, the
    innermost one open at that instant, so nested and re-entrant spans
    (attack -> refine -> lp -> ..., or a layer re-entered below another
    layer) are neither lost nor counted twice.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    out: dict[str, float] = defaultdict(float)
    for i, s in enumerate(spans):
        out[s.name] += (s.end - s.start) - covered[i]
    return out


def traced(rec: Recorder, layer: str, fn, hook=None):
    """Wrap fn in a span named `layer`; a call made directly inside a span of
    the same layer joins that span instead of opening a new one."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if rec.innermost() == layer:
            result = fn(*args, **kwargs)
        else:
            idx = rec.open(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.close(idx)
        if hook is not None:
            idx = rec.open(HOOKS)
            try:
                hook(rec, args, kwargs, result)
            finally:
                rec.close(idx)
        return result

    return wrapper


# ---------------------------------------------------------------------------
# layer hooks: counts read off arguments and results
# ---------------------------------------------------------------------------


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _parse_hook(rec, args, kwargs, module):
    from hyperflow.lang.ast import node_count

    rec.count("lang.parser.calls")
    rec.count("lang.parser.nodes", node_count(module.body))


def _expand_hook(rec, args, kwargs, states):
    rec.count("initspec.states", len(states))


def _eval_hook(rec, args, kwargs, hyper):
    rec.count("semantics.calls")
    rec.count("semantics.split_states", len(hyper))
    bits = 0
    for s, w in hyper.items():
        rec.count("semantics.inner_support", len(s.delta))
        bits = max(bits, w.denominator.bit_length())
        for _, q in s.delta.items():
            bits = max(bits, q.denominator.bit_length())
    rec.high("semantics.den_bits_max", bits)
    rec.last_direct = (_arg(args, kwargs, 0, "p"), _arg(args, kwargs, 2, "s"), hyper)


def _state_space(scope) -> int:
    n = 1
    for d in list(scope.visible) + list(scope.hidden):
        n *= len(d.domain.values)
    return n


def _nf_eval_hook(rec, args, kwargs, hyper):
    rec.count("normalform.calls")
    rec.count("normalform.state_space", _state_space(_arg(args, kwargs, 1, "scope")))
    p, s = _arg(args, kwargs, 0, "p"), _arg(args, kwargs, 2, "s")
    if rec.last_direct is not None and rec.last_direct[0] is p and rec.last_direct[1] == s:
        rec.count("normalform.compared")
        rec.count("normalform.agreed", int(rec.last_direct[2] == hyper))


def _atomic_hook(rec, args, kwargs, report):
    rec.count("normalform.calls")
    rec.count("normalform.state_space", _state_space(_arg(args, kwargs, 2, "scope")))


def _refine_hook(rec, args, kwargs, result):
    rec.count("refine.calls")


def _partition_hook(rec, args, kwargs, partition):
    rec.count("refine.partitions")
    rec.count("refine.fractions", len(partition))


def _lp_hook(rec, args, kwargs, result):
    lp = _arg(args, kwargs, 0, "lp")
    rec.count("lp.calls")
    rec.count("lp.rows", len(lp.constraints))
    rec.count("lp.vars", lp.num_vars)
    if rec.inside("refine"):
        rec.count("refine.lp_solves")


def _attack_hook(rec, args, kwargs, report):
    rec.count("attack.calls")
    rec.count("attack.verified", int(bool(report.verdict)))


# (module, function, layer, hook)
TARGETS = [
    ("hyperflow.lang.parser", "parse", "lang.parser", _parse_hook),
    ("hyperflow.lang.transform", "project_view", "lang.transform", None),
    ("hyperflow.lang.transform", "desugar", "lang.transform", None),
    ("hyperflow.lang.validate", "validate", "lang.validate", None),
    ("hyperflow.lang.printer", "pretty_print", "lang.printer", None),
    ("hyperflow.initspec", "parse_init_spec", "initspec", None),
    ("hyperflow.initspec", "expand_init_spec", "initspec", _expand_hook),
    ("hyperflow.semantics", "eval", "semantics", _eval_hook),
    ("hyperflow.normalform", "eval_via_normal_form", "normalform", _nf_eval_hook),
    ("hyperflow.normalform", "check_atomic_distribution", "normalform", _atomic_hook),
    ("hyperflow.measures", "bayes_vuln", "measures.bayes", None),
    ("hyperflow.measures", "shannon_entropy", "measures.shannon", None),
    ("hyperflow.measures", "guessing_entropy", "measures.gentropy", None),
    ("hyperflow.measures", "marginal_guesswork", "measures.guesswork", None),
    ("hyperflow.measures", "elementary_compare", "measures.compare", None),
    ("hyperflow.refine", "check_refinement", "refine", _refine_hook),
    ("hyperflow.refine", "extract_partition", "refine", _partition_hook),
    ("hyperflow.lp", "solve_feasibility", "lp", _lp_hook),
    ("hyperflow.lp", "solve_max", "lp", _lp_hook),
    ("hyperflow.attack", "synthesize_and_verify", "attack", _attack_hook),
    ("hyperflow.attack", "separating_direction_from_certificate", "attack.direction", None),
    ("hyperflow.attack", "separating_direction_by_vertices", "attack.direction", None),
    ("hyperflow.attack", "build_attack_channel", "attack.channel", None),
    ("hyperflow.attack", "verify_attack", "attack.verify", None),
    ("hyperflow.jsonio", "hyper_json", "jsonio", None),
    ("hyperflow.jsonio", "module_json", "jsonio", None),
    ("hyperflow.jsonio", "witness_json", "jsonio", None),
]


def install(rec: Recorder) -> list:
    """Wrap every target in every loaded hyperflow module; returns what
    `uninstall` needs to put the originals back."""
    loaded = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "hyperflow"]
    patched = []
    for mod_name, fn_name, layer, hook in TARGETS:
        original = getattr(sys.modules[mod_name], fn_name)
        wrapper = traced(rec, layer, original, hook)
        for m in loaded:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, wrapper)
                    patched.append((m, attr, original))
    return patched


def uninstall(patched: list) -> None:
    for m, attr, original in patched:
        setattr(m, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

SELF_TIME_LAYERS = [
    "lang.parser",
    "lang.transform",
    "lang.validate",
    "lang.printer",
    "initspec",
    "semantics",
    "normalform",
    "measures.bayes",
    "measures.shannon",
    "measures.gentropy",
    "measures.guesswork",
    "measures.compare",
    "refine",
    "lp",
    "attack",
    "attack.direction",
    "attack.channel",
    "attack.verify",
    "jsonio",
    ROOT,
    HOOKS,
]

COUNTS = [
    ("lang.parser.calls", "count"),
    ("lang.parser.nodes", "count"),
    ("initspec.states", "count"),
    ("semantics.calls", "count"),
    ("semantics.split_states", "count"),
    ("semantics.inner_support", "count"),
    ("semantics.den_bits_max", "bits"),
    ("normalform.calls", "count"),
    ("normalform.state_space", "count"),
    ("refine.calls", "count"),
    ("refine.partitions", "count"),
    ("refine.fractions", "count"),
    ("lp.calls", "count"),
    ("lp.rows", "count"),
    ("lp.vars", "count"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec: Recorder) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, named as in BENCHMARK.json, as (value, unit).

    A ratio whose base is zero (the layer was not reached) reads 0.
    """
    selfs = self_times(rec.spans)
    out: dict[str, tuple[float, str]] = {}
    for layer in SELF_TIME_LAYERS:
        out[f"{layer}.self_s"] = (selfs.get(layer, 0.0), "s")
    for name, unit in COUNTS:
        out[name] = (rec.counts.get(name, 0), unit)
    c = rec.counts
    out["normalform.agree_ratio"] = (_ratio(c["normalform.agreed"], c["normalform.compared"]), "ratio")
    # each comparison of two partitions extracts both of them
    out["refine.lp_per_partition"] = (_ratio(c["refine.lp_solves"], c["refine.partitions"] / 2), "ratio")
    out["attack.verified_ratio"] = (_ratio(c["attack.verified"], c["attack.calls"]), "ratio")
    return out


def dominant_layer(metrics: dict[str, tuple[float, str]]) -> str:
    """The layer with the largest self time, tracer bookkeeping excluded."""
    best = max(
        (name for name in metrics if name.endswith(".self_s") and not name.startswith(HOOKS)),
        key=lambda name: metrics[name][0],
    )
    return best[: -len(".self_s")]
