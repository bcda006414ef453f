"""hyperflow: exact analysis of probabilistic noninterference programs.

Interprets a small probabilistic imperative language with visible and
hidden state into hyper-distributions, computes leakage measures, decides
secure refinement by exact linear programming, and synthesises verified
distinguishing attack contexts when refinement fails.
"""

from .lang import desugar, parse, pretty_print, project_view, validate
from .measures import (
    BAYES,
    GENTROPY,
    SHANNON,
    bayes_vuln,
    elementary_compare,
    ft,
    guessing_entropy,
    guesswork,
    marginal_guesswork,
    shannon_entropy,
)
from .probcore import FiniteDist, Value, expected_value, normalize, posterior
from .refine import (
    NotRefined,
    Partition,
    RefinementWitness,
    bv_partition,
    check_refinement,
    decompose_refinement,
    extract_partition,
    reduce_partition,
    similar,
)
from .semantics import (
    HyperDist,
    Scope,
    SplitState,
    classical_eval,
    eval_atomic_block,
    eval_module,
    hide_embed,
)
from .semantics import eval as eval_program

__all__ = [
    "parse",
    "pretty_print",
    "validate",
    "desugar",
    "project_view",
    "FiniteDist",
    "Value",
    "normalize",
    "expected_value",
    "posterior",
    "Scope",
    "SplitState",
    "HyperDist",
    "eval_program",
    "eval_module",
    "classical_eval",
    "eval_atomic_block",
    "hide_embed",
    "ft",
    "bayes_vuln",
    "shannon_entropy",
    "guessing_entropy",
    "marginal_guesswork",
    "elementary_compare",
    "BAYES",
    "SHANNON",
    "GENTROPY",
    "guesswork",
    "Partition",
    "extract_partition",
    "reduce_partition",
    "similar",
    "bv_partition",
    "check_refinement",
    "RefinementWitness",
    "NotRefined",
    "decompose_refinement",
]
