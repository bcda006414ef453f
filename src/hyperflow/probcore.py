"""Exact rational arithmetic, finite values, and discrete (sub-)distributions.

Everything here is exact, never floats.  A distribution holds integer
numerators over one reduced denominator; iteration yields `Fraction`s.
Distributions are immutable, canonical (zero weights dropped, duplicate
points merged, numerators and denominator reduced together) and
dict-backed, so equality ignores construction order.
Nothing is sorted while they are built: `value_key` orders points only
where order shows (`items()`, `repr`, `key()`), so output is deterministic.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, Sequence, Union

from .errors import NegativeWeight, UsageError, WeightOverflow, ZeroCondition, ZeroWeight

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(x) -> Fraction:
    """Coerce ints/bools/Fractions to an exact Fraction (bool becomes 0/1)."""
    if isinstance(x, bool):
        return ONE if x else ZERO
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def rat_str(q: Fraction) -> str:
    """Serialise a probability as "num/den" (denominator always present)."""
    return f"{q.numerator}/{q.denominator}"


def parse_rat(text: str) -> Fraction:
    """Read "n" or "n/d"; malformed text or d = 0 raises `UsageError`."""
    num, sep, den = text.strip().partition("/")
    try:
        return Fraction(int(num), int(den) if sep else 1)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"not a rational number: {text!r}") from None


# ---------------------------------------------------------------------------
# Values
# ---------------------------------------------------------------------------

# kind ranks fix a total order across kinds so that mixed domains
# (e.g. numeric values added to a boolean domain by attack synthesis)
# still sort deterministically.
_KIND_RANK = {"bool": 0, "num": 1, "sym": 2}


class Value:
    """A scalar from a finite domain: boolean, exact rational, or enum symbol.

    Immutable, with its sort key and hash computed once; the key carries
    the kind, so `vnum(1) != vbool(True)`.  `vnum` gives an integral number
    an `int` payload; one given as a `Fraction` still compares, hashes and
    prints the same.
    """

    __slots__ = ("kind", "payload", "_key", "_hash")

    def __init__(self, kind: str, payload: Union[bool, int, Fraction, str]):
        self.kind, self.payload = kind, payload  # kind: 'bool' | 'num' | 'sym'
        self._key = (_KIND_RANK[kind], payload)
        self._hash = hash(self._key)

    def key(self):
        return self._key

    def __eq__(self, other):
        return self is other or (
            other.__class__ is Value and self._hash == other._hash and self._key == other._key
        )

    def __hash__(self):
        return self._hash

    def __str__(self):
        if self.kind == "bool":
            return "true" if self.payload else "false"
        return str(self.payload)  # an int or Fraction prints as "n" or "n/d"

    def __repr__(self):
        return f"Value({self})"


_TRUE, _FALSE = Value("bool", True), Value("bool", False)


def vnum(x) -> Value:
    if x.__class__ is not int:
        x = rat(x)
        if x.denominator == 1:
            x = x.numerator
    return Value("num", x)


def vbool(b: bool) -> Value:
    return _TRUE if b else _FALSE


def vsym(name: str) -> Value:
    return Value("sym", name)


def value_key(x):
    """Total order key for values, tuples of values, and distributions."""
    if isinstance(x, Value):
        return x._key
    if isinstance(x, tuple):
        return tuple([value_key(e) for e in x])
    if isinstance(x, bool):
        return (_KIND_RANK["bool"], x)
    if isinstance(x, (int, Fraction)):
        return (_KIND_RANK["num"], x)
    if isinstance(x, str):
        return (_KIND_RANK["sym"], x)
    # distributions and split-states expose their own .key()
    return x.key()


@dataclass(frozen=True)
class Domain:
    """A named finite ordered list of values (no duplicates)."""

    name: str
    values: tuple[Value, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError(f"domain {self.name} is empty")
        object.__setattr__(self, "_members", frozenset(self.values))
        if len(self._members) != len(self.values):
            raise ValueError(f"domain {self.name} has duplicate values")

    def __contains__(self, v: Value) -> bool:
        return v in self._members

    def __len__(self):
        return len(self.values)


# ---------------------------------------------------------------------------
# Finite discrete (sub-)distributions
# ---------------------------------------------------------------------------

class FiniteDist:
    """An immutable sub-distribution over hashable points (weight <= 1).

    Integer numerators over one reduced denominator; iteration yields
    (point, `Fraction`) pairs, unordered.  Construction canonicalises
    (duplicate points merge, zero weights drop, one gcd reduces), so
    equality and hashing compare `(den, nums)`.  `items()`, `support`,
    `repr` and `key()` sort by `value_key`.
    """

    __slots__ = ("_nums", "_den", "_total", "_hash")

    def __init__(self, pairs: Iterable[tuple[object, Fraction]]):
        pairs = [
            (v, w if w.__class__ is Fraction or w.__class__ is int else rat(w)) for v, w in pairs
        ]
        den = lcm(*[w.denominator for _, w in pairs])
        nums: dict = {}
        for v, w in pairs:
            if w < 0:
                raise NegativeWeight(f"negative weight {w} at {v!r}")
            if w:
                nums[v] = nums.get(v, 0) + w.numerator * (den // w.denominator)
        self._store(nums, den)

    def _store(self, nums: dict, den: int) -> None:
        """Keep positive numerators `nums` over `den`, reduced by their gcd."""
        total = sum(nums.values())
        if total > den:
            raise WeightOverflow(f"weights sum to {Fraction(total, den)} > 1")
        g = gcd(den, *nums.values())
        if g != 1:
            nums = {v: n // g for v, n in nums.items()}
            den, total = den // g, total // g
        self._nums, self._den, self._total, self._hash = nums, den, total, None

    # -- constructors ----------------------------------------------------

    @classmethod
    def of_numerators(cls, nums: dict, den: int) -> "FiniteDist":
        """Weight nums[v]/den at each v, from positive ints; takes over the dict."""
        d = cls.__new__(cls)
        d._store(nums, den)
        return d

    @classmethod
    def point(cls, v) -> "FiniteDist":
        return cls.of_numerators({v: 1}, 1)

    @classmethod
    def uniform(cls, values: Sequence) -> "FiniteDist":
        values = list(values)
        if not values:
            raise ZeroWeight("uniform distribution over empty set")
        return cls.of_numerators(dict(Counter(values)), len(values))

    # -- queries ----------------------------------------------------------

    def numerators(self) -> tuple[dict, int]:
        """(point -> positive int numerator, denominator), reduced; the dict
        is the distribution's own and must not be changed."""
        return self._nums, self._den

    @property
    def weight(self) -> Fraction:
        return Fraction(self._total, self._den)

    @property
    def is_full(self) -> bool:
        return self._total == self._den

    @property
    def support(self) -> tuple:
        return tuple(v for v, _ in self.items())

    def items(self) -> tuple[tuple[object, Fraction], ...]:
        return tuple(sorted(self, key=lambda kv: value_key(kv[0])))

    def __getitem__(self, v) -> Fraction:
        return Fraction(self._nums.get(v, 0), self._den)

    def __len__(self):
        return len(self._nums)

    def __iter__(self):
        den = self._den
        return ((v, Fraction(n, den)) for v, n in self._nums.items())

    def __eq__(self, other):
        return (
            isinstance(other, FiniteDist) and self._den == other._den and self._nums == other._nums
        )

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self._den, frozenset(self._nums.items())))
        return self._hash

    def __repr__(self):
        body = ", ".join(f"{v}@{rat_str(w)}" for v, w in self.items())
        return "{" + body + "}"

    def key(self):
        return tuple(sorted([(value_key(v), w) for v, w in self]))

    def max_weight(self) -> Fraction:
        """Largest single weight (0 for the empty sub-distribution)."""
        return Fraction(max(self._nums.values(), default=0), self._den)

    # -- arithmetic --------------------------------------------------------

    def scale(self, c: Fraction) -> "FiniteDist":
        c = rat(c)
        if c < 0:
            raise NegativeWeight(f"negative scale {c}")
        a = c.numerator
        nums = {v: n * a for v, n in self._nums.items()} if a else {}
        return FiniteDist.of_numerators(nums, self._den * c.denominator)

    def add(self, other: "FiniteDist") -> "FiniteDist":
        return FiniteDist([*self, *other])

    def map(self, f: Callable) -> "FiniteDist":
        """Push forward through f (weights of equal images add)."""
        nums: dict = {}
        for v, n in self._nums.items():
            u = f(v)
            nums[u] = nums.get(u, 0) + n
        return FiniteDist.of_numerators(nums, self._den)


def normalize(d: FiniteDist) -> FiniteDist:
    """Scale d by 1/weight(d); the result is a full distribution."""
    if not d._total:
        raise ZeroWeight("cannot normalise a zero-weight distribution")
    return FiniteDist.of_numerators(d._nums, d._total)


def expected_value(d: FiniteDist, f: Callable):
    """Sum of d.x * f.x over the support of d.

    If f yields distributions, the result is their weighted mixture (a
    FiniteDist); otherwise f's values are coerced to exact rationals
    (booleans as 0/1) and a Fraction is returned.
    """
    pairs = [(w, f(v)) for v, w in d]
    if pairs and isinstance(pairs[0][1], FiniteDist):
        acc = []
        for w, dist in pairs:
            if not isinstance(dist, FiniteDist):
                raise TypeError("f must consistently return distributions")
            acc.extend((u, w * q) for u, q in dist)
        return FiniteDist(acc)
    return sum((w * rat(x) for w, x in pairs), ZERO)


def posterior(d: FiniteDist, weight_fn: Callable) -> FiniteDist:
    """A-posteriori distribution of d given per-point likelihoods.

    Implements the weighted comprehension: scale each point of d by
    weight_fn, then renormalise by the scalar expectation.  Boolean
    weight functions make this plain conditioning.
    """
    scaled = []
    for v, w in d:
        q = rat(weight_fn(v))
        if q < 0:
            raise NegativeWeight(f"negative conditioning weight {q} at {v!r}")
        if q > 0:
            scaled.append((v, w * q))
    total = sum((w for _, w in scaled), ZERO)
    if total == 0:
        raise ZeroCondition("conditioning on a probability-zero observation")
    inv = 1 / total
    return FiniteDist([(v, w * inv) for v, w in scaled])
