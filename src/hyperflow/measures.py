"""Functional projection and the four uncertainty measures with their
elementary testing orders.

Everything except Shannon entropy is exact rational arithmetic.  Shannon
entropy is computed with arbitrary-precision floats and reported together
with a rigorous enclosure, so order comparisons can say "inconclusive"
instead of guessing a sign inside the tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from .errors import DomainMismatch, UsageError
from .probcore import ZERO, FiniteDist, parse_rat, rat
from .semantics import HyperDist

if TYPE_CHECKING:  # imported where it is used, so other questions skip its import
    import mpmath

DEFAULT_PRECISION_BITS = 128
MIN_PRECISION_BITS = 64


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

    @classmethod
    def parse(cls, text: str) -> "MeasureKind":
        """The measure named by `bayes`, `shannon`, `gentropy` or
        `guesswork:ALPHA`, with ALPHA a rational "n" or "n/d" in (0,1].

        This reads the CLI's `--measure` and the part of `--order` after
        `elementary:`; malformed text raises `UsageError`.
        """
        name, sep, alpha = text.partition(":")
        if name == "guesswork" and sep:
            q = parse_rat(alpha)
            if not 0 < q <= 1:
                raise UsageError(f"guesswork needs alpha in (0,1], got {alpha!r}")
            return cls(name, q)
        if name in ("bayes", "shannon", "gentropy") and not sep:
            return cls(name)
        raise UsageError(f"unknown measure {text!r}")


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


def gain_vulnerability(gain, rows) -> Fraction:
    """V_g: the sum over rows f of the best guess's expected gain, max over
    guess rows w of sum_j w[j] * f[j] (Alvim et al., CSF 2012).

    Rows are fractions over a shared hidden-value column order, and a gain
    is one row per guess over the same columns.  The identity gain gives
    Bayes vulnerability.  The only max over guesses of a dot product.
    """
    guesses = [[(j, g) for j, g in enumerate(w) if g] for w in gain]
    return sum((max(sum((g * f[j] for j, g in w), ZERO) for w in guesses) for f in rows), ZERO)


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
        import mpmath

        return mpmath.nstr(self.value, digits, strip_zeros=False)


def _mpf_to_fraction(x: mpmath.mpf) -> Fraction:
    sign, man, exp, _ = x._mpf_
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
    if precision < MIN_PRECISION_BITS:
        raise ValueError(
            f"entropy precision must be at least {MIN_PRECISION_BITS} bits, got {precision}"
        )
    import mpmath

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


def guessing_entropy(hyper: HyperDist) -> Fraction:
    """Least average number of equality guesses to find the hidden value.

    Guessing in order of decreasing probability, the k-th guess finds the
    value with the k-th largest probability; values outside the support
    have probability zero and never change the total.
    """
    total = ZERO
    for s, w in hyper:
        total += w * sum((k * p for k, p in enumerate(_descending(s.delta), 1)), ZERO)
    return total


def marginal_guesswork(hyper: HyperDist, alpha) -> int:
    """Least i such that i guesses succeed with probability at least alpha,
    with the guessing set chosen per split-state."""
    alpha = rat(alpha)
    if not (0 < alpha <= 1):
        raise ValueError("alpha must lie in (0,1]")
    # the i-th guess adds, per split-state, its i-th largest probability
    columns = [(w, _descending(s.delta)) for s, w in hyper]
    got = ZERO
    for i in range(max(len(probs) for _, probs in columns)):
        got += sum((w * probs[i] for w, probs in columns if i < len(probs)), ZERO)
        if got >= alpha:
            return i + 1
    raise AssertionError("unreachable: the largest support always reaches probability 1")


def measure_value(
    hyper: HyperDist,
    measure: MeasureKind,
    precision: int = DEFAULT_PRECISION_BITS,
):
    """The measure of one hyper-distribution, the only place a
    `MeasureKind` becomes a value: Bayes vulnerability and guessing
    entropy as a Fraction, Shannon entropy as a `ShannonValue` at
    `precision` bits, marginal guesswork at `measure.alpha` as an int.
    """
    if measure.kind == "bayes":
        return bayes_vuln(hyper)
    if measure.kind == "shannon":
        return shannon_entropy(hyper, precision)
    if measure.kind == "gentropy":
        return guessing_entropy(hyper)
    return marginal_guesswork(hyper, measure.alpha)


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
) -> CompareVerdict:
    """Elementary testing order: functional equality plus no loss of
    uncertainty from spec to impl (for Bayes: no gain of vulnerability)."""
    if not _domains_match(spec, impl):
        raise DomainMismatch("hyper-distributions have different state shapes")
    if ft(spec) != ft(impl):
        return CompareVerdict("FailsFunctional")
    shannon = measure.kind == "shannon"
    if shannon and spec == impl:
        return CompareVerdict("Holds")  # reflexivity, without the inexact values
    sv = measure_value(spec, measure, precision)
    iv = measure_value(impl, measure, precision)
    if shannon:
        # compare the rigorous enclosures and refuse to guess when they overlap
        if iv.lo >= sv.hi:
            return CompareVerdict("Holds", sv, iv)
        if iv.hi < sv.lo:
            return CompareVerdict("FailsMeasure", sv, iv)
        return CompareVerdict("ToleranceInconclusive", sv, iv)
    # Bayes vulnerability must not rise; the uncertainty measures must not fall
    holds = iv <= sv if measure.kind == "bayes" else iv >= sv
    return CompareVerdict("Holds" if holds else "FailsMeasure", sv, iv)
