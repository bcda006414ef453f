"""Independent oracles: brute-force or textbook forms of quantities that the
library computes another way."""

from __future__ import annotations

import itertools
from fractions import Fraction

from hyperflow.matrix import RatMatrix
from hyperflow.measures import gain_vulnerability
from hyperflow.probcore import ONE, ZERO


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
