"""Independent oracles: brute-force or textbook forms of quantities that the
library computes another way."""

from __future__ import annotations

import itertools
from fractions import Fraction

from hyperflow.errors import NegativeWeight, WeightOverflow, ZeroWeight
from hyperflow.lp import LinearProgram, solve_max
from hyperflow.matrix import RatMatrix
from hyperflow.measures import gain_vulnerability
from hyperflow.probcore import ONE, ZERO, value_key


class FractionDist:
    """A sub-distribution as a plain dict from point to `Fraction` weight,
    combined by textbook rational arithmetic: the reference for the
    fraction-free `FiniteDist`, with the same public reads and errors."""

    def __init__(self, pairs):
        self.weights = {}
        for v, w in pairs:
            w = Fraction(w)
            if w < 0:
                raise NegativeWeight(f"negative weight {w} at {v!r}")
            if w:
                self.weights[v] = self.weights.get(v, ZERO) + w
        if self.weight > 1:
            raise WeightOverflow(f"weights sum to {self.weight} > 1")

    @property
    def weight(self) -> Fraction:
        return sum(self.weights.values(), ZERO)

    def items(self) -> tuple:
        return tuple(sorted(self.weights.items(), key=lambda kv: value_key(kv[0])))

    def __getitem__(self, v) -> Fraction:
        return self.weights.get(v, ZERO)

    def max_weight(self) -> Fraction:
        return max(self.weights.values(), default=ZERO)

    def scale(self, c) -> "FractionDist":
        return FractionDist((v, w * c) for v, w in self.weights.items())

    def add(self, other: "FractionDist") -> "FractionDist":
        return FractionDist([*self.weights.items(), *other.weights.items()])

    def map(self, f) -> "FractionDist":
        return FractionDist((f(v), w) for v, w in self.weights.items())

    def normalize(self) -> "FractionDist":
        if self.weight == 0:
            raise ZeroWeight("cannot normalise a zero-weight distribution")
        return self.scale(1 / self.weight)


def brute_force_guess_count(delta_probs: list[Fraction]) -> Fraction:
    """Guessing entropy of one distribution: try all guess orders and take
    the least expected number of guesses."""
    best = None
    for order in itertools.permutations(range(len(delta_probs))):
        exp = sum(((k + 1) * delta_probs[j] for k, j in enumerate(order)), ZERO)
        if best is None or exp < best:
            best = exp
    return best if best is not None else ONE


def is_simple(m: RatMatrix) -> bool:
    """0/1 with exactly one 1 per column (a transposed strategy matrix)."""
    for c in range(m.ncols):
        col = [m[r, c] for r in range(m.nrows)]
        if sorted(col, reverse=True)[:1] != [ONE] or sum(col, ZERO) != ONE:
            return False
        if any(x not in (ZERO, ONE) for x in col):
            return False
    return True


def refinement_score_range(x: RatMatrix, mat_s: RatMatrix) -> tuple[Fraction, Fraction]:
    """Exact min and max of dot(M x mat_s, X) over all simple M: each source
    fraction is assigned independently to its worst (or best) X row."""
    hi = gain_vulnerability(x.rows, mat_s.rows)
    return -gain_vulnerability(x.scale(-1).rows, mat_s.rows), hi


def vertex_margin(mat_s: RatMatrix, mat_i: RatMatrix) -> Fraction:
    """Largest margin dot(Pi_I, X) - dot(M Pi_S, X), least over the simple
    M, with X entries in [-1, 1]: one LP row per assignment of source
    fractions to target rows (f_i ** f_s rows), solved for Y = X + 1 >= 0."""
    f_s, f_i, nh = mat_s.nrows, mat_i.nrows, mat_s.ncols
    nx = f_i * nh
    lp = LinearProgram(nx + 1, objective=[ZERO] * nx + [ONE])
    for assignment in itertools.product(range(f_i), repeat=f_s):
        # dot(M Pi_S, X) - dot(Pi_I, X) + eps <= 0
        coeffs = [ZERO] * (nx + 1)
        for c, r in enumerate(assignment):
            for h in range(nh):
                coeffs[r * nh + h] += mat_s[c, h]
        for r in range(f_i):
            for h in range(nh):
                coeffs[r * nh + h] -= mat_i[r, h]
        coeffs[nx] = ONE
        lp.add(coeffs, "<=", sum(coeffs[:nx], ZERO))
    for j in range(nx):
        lp.add([ONE if k == j else ZERO for k in range(nx + 1)], "<=", 2)
    return solve_max(lp)[0]
