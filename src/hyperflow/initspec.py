"""Initial split-state specifications.

Text form: semicolon-separated clauses, e.g.
    "v=bot; h~uniform"           visible assignment, uniform hidden prior
    "h~2"                        point prior
    "h~{0@1/2, 1@1/2}"           explicit full prior
    "h~sample:20"                20 seeded random full priors

Every declared variable must be covered.  `sample:N` clauses expand to N
joint draws (one fresh prior per sampled variable per draw), so the spec
yields a list of initial split-states.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import HyperflowError, UsageError
from .probcore import FiniteDist, Value, parse_rat, vbool, vnum, vsym
from .semantics import Scope, SplitState


class InitSpecError(HyperflowError):
    pass


@dataclass
class Prior:
    kind: str  # 'point' | 'uniform' | 'explicit' | 'sample'
    value: Optional[Value] = None
    dist: Optional[FiniteDist] = None  # over single Values
    count: int = 0


@dataclass
class InitSpec:
    assignments: dict  # visible name -> Value
    priors: dict  # hidden name -> Prior

    @property
    def n_samples(self) -> int:
        counts = {p.count for p in self.priors.values() if p.kind == "sample"}
        if not counts:
            return 1
        if len(counts) > 1:
            raise InitSpecError("sample:N counts must agree across variables")
        return counts.pop()


def _parse_value(text: str, domain) -> Value:
    text = text.strip()
    for v in domain.values:
        if str(v) == text:
            return v
    # accept syntactic forms not normalised by str()
    if text in ("true", "false"):
        cand = vbool(text == "true")
    else:
        try:
            cand = vnum(parse_rat(text))
        except UsageError:
            cand = vsym(text)
    if cand in domain.values:
        return cand
    raise InitSpecError(f"value {text!r} not in the domain of {domain.name}")


def _parse_explicit(text: str, domain) -> FiniteDist:
    body = text.strip()
    if not (body.startswith("{") and body.endswith("}")):
        raise InitSpecError(f"bad explicit prior {text!r}")
    pairs = []
    for chunk in body[1:-1].split(","):
        if "@" not in chunk:
            raise InitSpecError(f"bad prior entry {chunk!r}")
        val, prob = chunk.split("@", 1)
        pairs.append((_parse_value(val, domain), parse_rat(prob)))
    dist = FiniteDist(pairs)
    if not dist.is_full:
        raise InitSpecError(f"explicit prior for {domain.name} must sum to 1")
    return dist


def _sample_count(text: str) -> int:
    try:
        count = int(text)
    except ValueError:
        count = 0
    if count < 1:
        raise InitSpecError(f"sample:N needs a positive integer N, got {text.strip()!r}")
    return count


def parse_init_spec(text: str, scope: Scope) -> InitSpec:
    vis = {d.name: d for d in scope.visible}
    hid = {d.name: d for d in scope.hidden}
    assignments: dict = {}
    priors: dict = {}
    for clause in text.split(";"):
        clause = clause.strip()
        if not clause:
            continue
        sep = "~" if "~" in clause else "=" if "=" in clause else None
        if sep is None:
            raise InitSpecError(f"cannot parse clause {clause!r}")
        name, rhs = (part.strip() for part in clause.split(sep, 1))
        if name in assignments or name in priors:
            raise InitSpecError(f"{name} is given more than once")
        if sep == "~":
            if name not in hid:
                raise InitSpecError(f"{name} is not a hidden variable")
            domain = hid[name].domain
            if rhs == "uniform":
                priors[name] = Prior("uniform")
            elif rhs.startswith("sample:"):
                priors[name] = Prior("sample", count=_sample_count(rhs[len("sample:"):]))
            elif rhs.startswith("{"):
                priors[name] = Prior("explicit", dist=_parse_explicit(rhs, domain))
            else:
                priors[name] = Prior("point", value=_parse_value(rhs, domain))
        else:
            if name not in vis:
                raise InitSpecError(f"{name} is not a visible variable")
            assignments[name] = _parse_value(rhs, vis[name].domain)
    missing = [n for n in vis if n not in assignments]
    if missing:
        raise InitSpecError(f"visible variables without a value: {', '.join(missing)}")
    missing = [n for n in hid if n not in priors]
    if missing:
        raise InitSpecError(f"hidden variables without a prior: {', '.join(missing)}")
    return InitSpec(assignments, priors)


def random_full_prior(values, rng: random.Random) -> FiniteDist:
    """A random full-support rational distribution over the given values."""
    weights = [Fraction(rng.randint(1, 24)) for _ in values]
    total = sum(weights)
    return FiniteDist([(v, w / total) for v, w in zip(values, weights)])


def expand_init_spec(spec: InitSpec, scope: Scope, seed: int = 0) -> list[SplitState]:
    """The split-states this spec denotes; deterministic for a fixed seed."""
    rng = random.Random(seed)
    v = tuple(spec.assignments[d.name] for d in scope.visible)
    out = []
    for _ in range(spec.n_samples):
        per_var: list[FiniteDist] = []
        for d in scope.hidden:
            prior = spec.priors[d.name]
            if prior.kind == "point":
                per_var.append(FiniteDist.point(prior.value))
            elif prior.kind == "uniform":
                per_var.append(FiniteDist.uniform(d.domain.values))
            elif prior.kind == "explicit":
                per_var.append(prior.dist)
            else:
                per_var.append(random_full_prior(d.domain.values, rng))
        out.append(SplitState(v, product_delta(per_var)))
    return out


def product_delta(per_var: list[FiniteDist]) -> FiniteDist:
    """Independent product over per-variable priors, as a tuple distribution."""
    acc = FiniteDist.point(())
    for dist in per_var:
        acc = FiniteDist(
            [(t + (v,), w * q) for t, w in acc for v, q in dist]
        )
    return acc
