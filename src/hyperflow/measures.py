"""Functional projection and the four uncertainty measures with their
elementary testing orders.

Everything except Shannon entropy is exact rational arithmetic.  Shannon
entropy is computed with arbitrary-precision floats and reported together
with a rigorous enclosure, so order comparisons can say "inconclusive"
instead of guessing a sign inside the tolerance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import mpmath

from .errors import DomainMismatch
from .probcore import ONE, ZERO, FiniteDist, rat
from .semantics import HyperDist

DEFAULT_PRECISION_BITS = 128


@dataclass(frozen=True)
class MeasureKind:
    kind: str  # 'bayes' | 'shannon' | 'gentropy' | 'guesswork'
    alpha: Optional[Fraction] = None

    def __post_init__(self):
        if self.kind not in ("bayes", "shannon", "gentropy", "guesswork"):
            raise ValueError(self.kind)
        if self.kind == "guesswork":
            if self.alpha is None or not (0 < self.alpha <= 1):
                raise ValueError("guesswork needs alpha in (0,1]")
        elif self.alpha is not None:
            raise ValueError("alpha only applies to guesswork")


BAYES = MeasureKind("bayes")
SHANNON = MeasureKind("shannon")
GENTROPY = MeasureKind("gentropy")


def guesswork(alpha) -> MeasureKind:
    return MeasureKind("guesswork", rat(alpha))


# ---------------------------------------------------------------------------
# Functional projection and Bayes vulnerability
# ---------------------------------------------------------------------------


def ft(hyper: HyperDist) -> FiniteDist:
    """Overall joint output distribution over (visible, hidden) pairs."""
    acc = []
    for s, w in hyper:
        acc.extend(((s.v, h), w * q) for h, q in s.delta)
    return FiniteDist(acc)


def bayes_vuln(hyper: HyperDist) -> Fraction:
    """One-guess success chance: expected maximum posterior probability."""
    return sum((w * s.delta.max_weight() for s, w in hyper), ZERO)


# ---------------------------------------------------------------------------
# Shannon entropy (the one inexact measure)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ShannonValue:
    """Arbitrary-precision entropy with a rigorous rational enclosure.

    The true value lies in [lo, hi]; the enclosure width is at most
    2**(8 - precision_bits).
    """

    value: mpmath.mpf
    precision_bits: int
    lo: Fraction
    hi: Fraction

    def __float__(self):
        return float(self.value)

    def str_value(self, digits: int = 30) -> str:
        return mpmath.nstr(self.value, digits, strip_zeros=False)


def _mpf_to_fraction(x: mpmath.mpf) -> Fraction:
    sign, man, exp, _ = mpmath.mpf(x)._mpf_
    if man == 0:
        return Fraction(0)
    q = Fraction(-man if sign else man)
    return q * Fraction(2) ** exp


def _enclose(value: mpmath.mpf, precision: int) -> tuple[Fraction, Fraction]:
    pad = Fraction(1, 2 ** (precision - 7))
    exact = _mpf_to_fraction(value)
    return exact - pad, exact + pad


def _shannon(pairs, precision: int) -> ShannonValue:
    """Sum of w * H(ps) over (w, ps) pairs, in bits, with its enclosure.

    Floating-point sums depend on their order, so callers pass the pairs
    and the probabilities in a canonical order.
    """
    if precision < 64:
        raise ValueError(f"entropy precision must be at least 64 bits, got {precision}")
    with mpmath.workprec(precision + 32):
        total = mpmath.mpf(0)
        for outer_w, dist_pairs in pairs:
            wq = mpmath.mpf(outer_w.numerator) / outer_w.denominator
            h = mpmath.mpf(0)
            for p in dist_pairs:
                if p == 0 or p == 1:
                    continue
                pq = mpmath.mpf(p.numerator) / p.denominator
                h -= pq * mpmath.log(pq, 2)
            total += wq * h
        lo, hi = _enclose(total, precision)
        return ShannonValue(+total, precision, lo, hi)


def shannon_entropy(hyper: HyperDist, precision: int = DEFAULT_PRECISION_BITS) -> ShannonValue:
    """Expected Shannon entropy of the inner distributions, in bits."""
    return _shannon(((w, [q for _, q in s.delta.items()]) for s, w in hyper.items()), precision)


def shannon_entropy_partition(fractions, precision: int = DEFAULT_PRECISION_BITS) -> ShannonValue:
    """Shannon entropy of a partition: each fraction normalised, weighted by its weight."""
    return _shannon(
        ((f.weight, [q / f.weight for _, q in f.items()]) for f in fractions if f.weight != 0),
        precision,
    )


# ---------------------------------------------------------------------------
# Guessing entropy and marginal guesswork
# ---------------------------------------------------------------------------


def _descending(delta: FiniteDist) -> list[Fraction]:
    """Support probabilities, largest first: the best guessing order."""
    return sorted((w for _, w in delta), reverse=True)


def _hidden_count(hyper: HyperDist, n: Optional[int]) -> int:
    biggest = max((len(s.delta) for s, _ in hyper), default=1)
    return max(biggest, n or 0)


def guessing_entropy(hyper: HyperDist, n_hidden: Optional[int] = None) -> Fraction:
    """Least average number of equality guesses to find the hidden value.

    Guessing in order of decreasing probability, the k-th guess finds the
    value with the k-th largest probability.  `n_hidden` is the declared
    hidden-domain size; values outside the support have probability zero
    and never change the total.
    """
    total = ZERO
    for s, w in hyper:
        total += w * sum((k * p for k, p in enumerate(_descending(s.delta), 1)), ZERO)
    return total


def marginal_guesswork(hyper: HyperDist, alpha, n_hidden: Optional[int] = None) -> int:
    """Least i such that i guesses succeed with probability at least alpha,
    with the guessing set chosen per split-state."""
    alpha = rat(alpha)
    if not (0 < alpha <= 1):
        raise ValueError("alpha must lie in (0,1]")
    n = _hidden_count(hyper, n_hidden)
    # the i-th guess adds, per split-state, its i-th largest probability
    columns = [(w, _descending(s.delta)) for s, w in hyper]
    got = ZERO
    for i in range(n):
        got += sum((w * probs[i] for w, probs in columns if i < len(probs)), ZERO)
        if got >= alpha:
            return i + 1
    raise AssertionError("unreachable: i = n always reaches probability 1")


# ---------------------------------------------------------------------------
# Elementary testing orders
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompareVerdict:
    kind: str  # 'Holds' | 'FailsFunctional' | 'FailsMeasure' | 'ToleranceInconclusive'
    spec_value: object = None
    impl_value: object = None

    @property
    def holds(self):
        return self.kind == "Holds"


def _domains_match(a: HyperDist, b: HyperDist) -> bool:
    def shape(h):
        vlens = {len(s.v) for s, _ in h}
        hlens = {len(t) for s, _ in h for t, _ in s.delta}
        return vlens, hlens

    return shape(a) == shape(b)


def elementary_compare(
    spec: HyperDist,
    impl: HyperDist,
    measure: MeasureKind,
    precision: int = DEFAULT_PRECISION_BITS,
    n_hidden: Optional[int] = None,
) -> CompareVerdict:
    """Elementary testing order: functional equality plus no loss of
    uncertainty from spec to impl (for Bayes: no gain of vulnerability)."""
    if not _domains_match(spec, impl):
        raise DomainMismatch("hyper-distributions have different state shapes")
    if ft(spec) != ft(impl):
        return CompareVerdict("FailsFunctional")
    if measure.kind == "bayes":
        sv, iv = bayes_vuln(spec), bayes_vuln(impl)
        return CompareVerdict("Holds" if iv <= sv else "FailsMeasure", sv, iv)
    if measure.kind == "gentropy":
        sv, iv = guessing_entropy(spec, n_hidden), guessing_entropy(impl, n_hidden)
        return CompareVerdict("Holds" if iv >= sv else "FailsMeasure", sv, iv)
    if measure.kind == "guesswork":
        sv = marginal_guesswork(spec, measure.alpha, n_hidden)
        iv = marginal_guesswork(impl, measure.alpha, n_hidden)
        return CompareVerdict("Holds" if iv >= sv else "FailsMeasure", sv, iv)
    # Shannon: identical hypers hold by reflexivity; otherwise compare the
    # rigorous enclosures and refuse to guess when they overlap
    if spec == impl:
        return CompareVerdict("Holds")
    sv = shannon_entropy(spec, precision)
    iv = shannon_entropy(impl, precision)
    if iv.lo >= sv.hi:
        return CompareVerdict("Holds", sv, iv)
    if iv.hi < sv.lo:
        return CompareVerdict("FailsMeasure", sv, iv)
    return CompareVerdict("ToleranceInconclusive", sv, iv)


def brute_force_guess_count(delta_probs: list[Fraction]) -> Fraction:
    """Independent oracle for guessing entropy of one distribution: try all
    guess orders and take the least expected number of guesses."""
    best = None
    for order in itertools.permutations(range(len(delta_probs))):
        exp = sum(
            ((k + 1) * delta_probs[j] for k, j in enumerate(order)),
            ZERO,
        )
        if best is None or exp < best:
            best = exp
    return best if best is not None else ONE
