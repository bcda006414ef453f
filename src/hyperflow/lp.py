"""Exact-rational linear programming over x >= 0.

A dense two-phase simplex with Bland's rule, used for refinement
feasibility (with Farkas infeasibility certificates that feed attack
synthesis) and for maximisation over x >= 0 (separation margins).  Every
variable is nonnegative; a caller that needs other bounds substitutes
and writes them as rows, so every infeasible LP gets a certificate.  The
tableau is held fraction-free, as Python ints over one common positive
denominator, and pivots divide exactly (Edmonds 1967, Bareiss 1968);
Fractions appear only where a point, an optimum or a certificate is read
off it.  A certificate is the phase-1 dual, read off the final tableau's
artificial columns.  Refinement LPs arrive presolved: refine.py solves
them on a column basis of the hidden values and pads certificates back to
the full layout.  Every answer is re-verified by exact substitution before
it is returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .errors import Infeasible, InternalError, LpError, Unbounded
from .probcore import ZERO, rat


@dataclass
class Constraint:
    coeffs: list[Fraction]
    rel: str  # '<=' | '=' | '>='
    rhs: Fraction

    def __post_init__(self):
        if self.rel not in ("<=", "=", ">="):
            raise LpError(f"bad relation {self.rel}")
        self.coeffs = [rat(c) for c in self.coeffs]
        self.rhs = rat(self.rhs)


@dataclass
class LinearProgram:
    num_vars: int
    constraints: list[Constraint] = field(default_factory=list)
    objective: Optional[list[Fraction]] = None  # maximised by solve_max

    def add(self, coeffs: Sequence, rel: str, rhs) -> None:
        if len(coeffs) != self.num_vars:
            raise LpError("constraint length mismatch")
        self.constraints.append(Constraint(list(coeffs), rel, rhs))


@dataclass
class Feasible:
    point: list[Fraction]


@dataclass
class InfeasibleCert:
    """Farkas certificate y over the original constraints.

    Verified to satisfy: sum_i y_i * a_i <= 0 componentwise, y_i <= 0 on
    '<=' rows, y_i >= 0 on '>=' rows, and y . b > 0 -- which refutes every
    x >= 0 satisfying the constraints.
    """

    certificate: list[Fraction]


# ---------------------------------------------------------------------------
# Core simplex on the standard form  min c.x  s.t.  Ax = b, x >= 0, b >= 0
# ---------------------------------------------------------------------------


class _Tableau:
    """Simplex tableau held fraction-free: the tableau is `a / d`, with
    every entry of `a` a Python int and the common denominator `d > 0`.
    Entry n of each row is its right-hand side.

    `d` is the absolute determinant of the current basis in the integer
    starting tableau, so every pivot's division by the old `d` is exact
    (Edmonds 1967, Bareiss 1968) and no entry ever needs a gcd.
    """

    def __init__(self, a_rows: list[list[int]], n: int):
        self.a = a_rows
        self.m = len(a_rows)
        self.n = n
        self.d = 1
        self.basis: list[int] = []

    def pivot(self, row: int, col: int):
        p = self.a[row][col]
        if p == 0:
            raise InternalError("pivot on zero element")
        if p < 0:
            # the pivoted tableau does not depend on the pivot row's sign;
            # flipping it keeps d > 0
            self.a[row] = [-x for x in self.a[row]]
            p = -p
        prow, d = self.a[row], self.d
        for r, ar in enumerate(self.a):
            if r == row:
                continue
            q = ar[col]
            if q:
                self.a[r] = [(p * x - q * y) // d for x, y in zip(ar, prow)]
            elif p != d:
                self.a[r] = [p * x // d for x in ar]
        self.d = p
        self.basis[row] = col

    def solution(self) -> list[Fraction]:
        x = [ZERO] * self.n
        for ar, j in zip(self.a, self.basis):
            x[j] = Fraction(ar[self.n], self.d)
        return x

    def minimise(self, cost: list[int], banned: frozenset[int] = frozenset()) -> int:
        """Bland's-rule simplex on integer costs; `banned` columns may never
        enter.  Returns d times the optimum."""
        cap = math.comb(self.n + self.m, self.m) + self.m + 1
        n, basis = self.n, self.basis
        for _ in range(cap):
            priced = [(cost[j], ar) for j, ar in zip(basis, self.a) if cost[j]]
            skip = banned.union(basis)
            eligible = (j for j in range(n) if j not in skip)
            # Bland: the smallest index with reduced cost d*c_j - cb . A_j < 0
            entering = next((j for j in eligible if cost[j] * self.d < sum(c * ar[j] for c, ar in priced)), -1)
            if entering < 0:
                return sum(c * ar[n] for c, ar in priced)
            leaving, lead = -1, []
            for r, ar in enumerate(self.a):
                arj = ar[entering]
                # the smallest ratio b_r / a_rj, cross-multiplied, then the smallest basic index
                if arj > 0 and (not lead or (ar[n] * lead[entering], basis[r]) < (lead[n] * arj, basis[leaving])):
                    leaving, lead = r, ar
            if leaving < 0:
                raise Unbounded("objective unbounded below")
            self.pivot(leaving, entering)
        raise InternalError("simplex exceeded its anti-cycling iteration cap")


def to_integers(values: Sequence[Fraction], lcm: Optional[int] = None) -> list[int]:
    """lcm times each value; lcm defaults to the lcm of their denominators."""
    lcm = lcm or math.lcm(*(x.denominator for x in values))
    return [x.numerator * (lcm // x.denominator) for x in values]


@dataclass
class _Standardised:
    tableau: _Tableau
    art_start: int
    row_sign: list[int]  # +1 / -1 applied to make b >= 0
    cost: Optional[list[int]]  # phase-2 cost over the variables, scaled to ints


def _standardise(lp: LinearProgram) -> _Standardised:
    """Integer starting tableau [L*A | L*S | I | L*b], with one lcm L of the
    denominators.  One L for every row scales the artificials alike, so
    Bland's rule pivots as it would on the unscaled rows."""
    cons = lp.constraints
    m = len(cons)
    slack_of = {i: k for k, i in enumerate(i for i, con in enumerate(cons) if con.rel != "=")}
    full_n = lp.num_vars + len(slack_of)
    lcm = math.lcm(*(x.denominator for con in cons for x in (*con.coeffs, con.rhs)))
    a_rows = []
    row_sign = []
    for i, con in enumerate(cons):
        sign = -1 if con.rhs < 0 else 1
        *struct, b = to_integers([*con.coeffs, con.rhs], lcm)
        slack = [0] * len(slack_of)
        if i in slack_of:
            slack[slack_of[i]] = lcm if con.rel == "<=" else -lcm
        a_rows.append([sign * x for x in struct + slack] + [0] * m + [sign * b])
        a_rows[-1][full_n + i] = 1  # artificial columns seed the basis
        row_sign.append(sign)
    tab = _Tableau(a_rows, n=full_n + m)
    tab.basis = list(range(full_n, full_n + m))
    cost = None if lp.objective is None else to_integers(lp.objective)
    return _Standardised(tab, full_n, row_sign, cost)


def _phase1(std: _Standardised) -> int:
    """d times the phase-1 optimum on the scaled rows: positive exactly when
    the LP is infeasible."""
    tab = std.tableau
    return tab.minimise([0] * std.art_start + [1] * tab.m)


def _verify_point(lp: LinearProgram, x: list[Fraction]):
    for j, v in enumerate(x):
        if v < 0:
            raise InternalError(f"x >= 0 violated: x[{j}]={v}")
    for con in lp.constraints:
        lhs = sum((c * v for c, v in zip(con.coeffs, x)), ZERO)
        ok = lhs <= con.rhs if con.rel == "<=" else lhs >= con.rhs if con.rel == ">=" else lhs == con.rhs
        if not ok:
            raise InternalError(f"constraint violated: {lhs} {con.rel} {con.rhs}")


def _verify_certificate(lp: LinearProgram, y: list[Fraction]):
    if len(y) != len(lp.constraints):
        raise InternalError("certificate length mismatch")
    for i, con in enumerate(lp.constraints):
        if con.rel == "<=" and y[i] > 0:
            raise InternalError("certificate sign violated on a <= row")
        if con.rel == ">=" and y[i] < 0:
            raise InternalError("certificate sign violated on a >= row")
    for j in range(lp.num_vars):
        combo = sum((y[i] * con.coeffs[j] for i, con in enumerate(lp.constraints)), ZERO)
        if combo > 0:
            raise InternalError("certificate violates y.A <= 0")
    if sum((y[i] * con.rhs for i, con in enumerate(lp.constraints)), ZERO) <= 0:
        raise InternalError("certificate violates y.b > 0")


def _extract_certificate(std: _Standardised) -> list[Fraction]:
    """Duals of the phase-1 optimum: y = c_B B^-1, one per constraint, with
    each row's negation undone.

    The artificial columns started as the identity, so they now hold d
    times B^-1, and c_B is one exactly on the rows whose basic column is
    artificial.  Scaling every row by the one L leaves them equal to the
    unscaled LP's duals.
    """
    tab = std.tableau
    art_rows = [ar for ar, j in zip(tab.a, tab.basis) if j >= std.art_start]
    return [
        Fraction(sign * sum(row[std.art_start + i] for row in art_rows), tab.d)
        for i, sign in enumerate(std.row_sign)
    ]


def solve_feasibility(lp: LinearProgram):
    """Find an exact feasible point, or a verified Farkas certificate."""
    std = _standardise(lp)
    opt = _phase1(std)
    if opt > 0:
        y = _extract_certificate(std)
        _verify_certificate(lp, y)
        return InfeasibleCert(y)
    x = std.tableau.solution()[: lp.num_vars]
    _verify_point(lp, x)
    return Feasible(x)


def solve_max(lp: LinearProgram) -> tuple[Fraction, list[Fraction]]:
    """Maximise the objective over a bounded feasible region, exactly."""
    if lp.objective is None:
        raise LpError("solve_max needs an objective")
    std = _standardise(lp)
    opt1 = _phase1(std)
    if opt1 > 0:
        raise Infeasible("no feasible point")
    tab = std.tableau
    # drive artificials out of the basis where possible; redundant rows
    # keep their artificial at level zero and simply never pivot again
    for r in range(tab.m):
        if tab.basis[r] >= std.art_start and tab.a[r][tab.n] == 0:
            for j in range(std.art_start):
                if tab.a[r][j] != 0:
                    tab.pivot(r, j)
                    break
    banned = frozenset(range(std.art_start, tab.n))
    cost = [-c for c in std.cost] + [0] * (tab.n - lp.num_vars)
    tab.minimise(cost, banned)
    x = tab.solution()[: lp.num_vars]
    _verify_point(lp, x)
    value = sum((c * v for c, v in zip(lp.objective, x)), ZERO)
    return value, x
