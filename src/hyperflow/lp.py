"""Exact-rational linear programming.

A dense two-phase simplex over Fractions with Bland's rule, used for
refinement feasibility (with Farkas infeasibility certificates that feed
attack synthesis) and for bounded maximisation (separation margins).
A certificate is the phase-1 dual, read off the final tableau's artificial
columns.  Refinement LPs arrive presolved: refine.py solves them on a
column basis of the hidden values and pads certificates back to the full
layout.  Every answer is re-verified by exact substitution before it is
returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .errors import Infeasible, InternalError, LpError, Unbounded
from .probcore import ONE, ZERO, rat

Bound = tuple[Optional[Fraction], Optional[Fraction]]


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
    bounds: Optional[list[Bound]] = None  # default per-var (0, None)

    def add(self, coeffs: Sequence, rel: str, rhs) -> None:
        if len(coeffs) != self.num_vars:
            raise LpError("constraint length mismatch")
        self.constraints.append(Constraint(list(coeffs), rel, rhs))

    def bound(self, j: int) -> Bound:
        if self.bounds is None:
            return (ZERO, None)
        lo, hi = self.bounds[j]
        return (None if lo is None else rat(lo), None if hi is None else rat(hi))

    def all_default_bounds(self) -> bool:
        return self.bounds is None or all(
            lo == 0 and hi is None for lo, hi in (self.bound(j) for j in range(self.num_vars))
        )


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
    def __init__(self, a_rows: list[list[Fraction]], b: list[Fraction], n: Optional[int] = None):
        self.a = [row[:] for row in a_rows]
        self.b = b[:]
        self.m = len(b)
        self.n = len(a_rows[0]) if a_rows else (n or 0)
        self.basis: list[int] = []

    def pivot(self, row: int, col: int):
        piv = self.a[row][col]
        if piv == 0:
            raise InternalError("pivot on zero element")
        inv = 1 / piv
        self.a[row] = [x * inv for x in self.a[row]]
        self.b[row] *= inv
        for r in range(self.m):
            if r != row and self.a[r][col] != 0:
                f = self.a[r][col]
                self.a[r] = [x - f * y for x, y in zip(self.a[r], self.a[row])]
                self.b[r] -= f * self.b[row]
        self.basis[row] = col

    def solution(self) -> list[Fraction]:
        x = [ZERO] * self.n
        for r, j in enumerate(self.basis):
            x[j] = self.b[r]
        return x

    def minimise(self, cost: list[Fraction], banned: frozenset[int] = frozenset()) -> Fraction:
        """Bland's-rule simplex; `banned` columns may never enter."""
        cap = math.comb(self.n + self.m, self.m) + self.m + 1
        for _ in range(cap):
            cb = [cost[j] for j in self.basis]
            # reduced costs z_j = c_j - cb . A_j
            entering = -1
            for j in range(self.n):
                if j in banned or j in self.basis:
                    continue
                z = cost[j] - sum(
                    (cb[r] * self.a[r][j] for r in range(self.m) if self.a[r][j] != 0),
                    ZERO,
                )
                if z < 0:
                    entering = j
                    break  # Bland: smallest eligible index
            if entering < 0:
                return sum((cb[r] * self.b[r] for r in range(self.m)), ZERO)
            leaving = -1
            best: Optional[Fraction] = None
            for r in range(self.m):
                arj = self.a[r][entering]
                if arj > 0:
                    ratio = self.b[r] / arj
                    if (
                        best is None
                        or ratio < best
                        or (ratio == best and self.basis[r] < self.basis[leaving])
                    ):
                        best = ratio
                        leaving = r
            if leaving < 0:
                raise Unbounded("objective unbounded below")
            self.pivot(leaving, entering)
        raise InternalError("simplex exceeded its anti-cycling iteration cap")


@dataclass
class _Standardised:
    tableau: _Tableau
    n_struct: int  # structural columns (after bound substitution)
    n_slack: int
    art_start: int
    row_sign: list[Fraction]  # +1 / -1 applied to make b >= 0
    row_of: list[int]  # original constraint index per standard row
    decode: "callable"
    cost: Optional[list[Fraction]]  # phase-2 cost over structural columns


def _standardise(lp: LinearProgram) -> _Standardised:
    # bound substitution: x = lo + x' (x' >= 0); free x = x+ - x-;
    # finite upper bounds become extra <= rows
    col_plus: list[int] = []
    col_minus: list[Optional[int]] = []
    shift: list[Fraction] = []
    n_struct = 0
    extra_rows: list[tuple[list[Fraction], str, Fraction]] = []
    for j in range(lp.num_vars):
        lo, hi = lp.bound(j)
        if lo is None:
            col_plus.append(n_struct)
            col_minus.append(n_struct + 1)
            shift.append(ZERO)
            n_struct += 2
        else:
            col_plus.append(n_struct)
            col_minus.append(None)
            shift.append(lo)
            n_struct += 1
        if hi is not None:
            row = [ZERO] * lp.num_vars
            row[j] = ONE
            extra_rows.append((row, "<=", hi))

    def expand(coeffs: Sequence[Fraction]) -> tuple[list[Fraction], Fraction]:
        out = [ZERO] * n_struct
        base = ZERO
        for j, c in enumerate(coeffs):
            if c == 0:
                continue
            out[col_plus[j]] += c
            if col_minus[j] is not None:
                out[col_minus[j]] -= c
            base += c * shift[j]
        return out, base

    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    rels: list[str] = []
    row_of: list[int] = []
    for i, con in enumerate(lp.constraints):
        out, base = expand(con.coeffs)
        rows.append(out)
        rhs.append(con.rhs - base)
        rels.append(con.rel)
        row_of.append(i)
    for row, rel, b in extra_rows:
        out, base = expand(row)
        rows.append(out)
        rhs.append(rat(b) - base)
        rels.append(rel)
        row_of.append(-1)  # bound row, not an original constraint

    m = len(rows)
    n_slack = sum(1 for rel in rels if rel != "=")
    full_n = n_struct + n_slack
    slack_col = {}
    k = n_struct
    for i, rel in enumerate(rels):
        if rel != "=":
            slack_col[i] = k
            k += 1
    a_rows = []
    row_sign = []
    for i in range(m):
        row = rows[i] + [ZERO] * n_slack
        if rels[i] == "<=":
            row[slack_col[i]] = ONE
        elif rels[i] == ">=":
            row[slack_col[i]] = -ONE
        sign = ONE
        if rhs[i] < 0:
            sign = -ONE
            row = [-x for x in row]
        a_rows.append(row)
        row_sign.append(sign)
    b = [abs(x) for x in rhs]

    # artificial columns seed the basis
    for i in range(m):
        for r in range(m):
            a_rows[r].append(ONE if r == i else ZERO)
    tab = _Tableau(a_rows, b, n=full_n)
    tab.basis = list(range(full_n, full_n + m))

    def decode(x_std: list[Fraction]) -> list[Fraction]:
        out = []
        for j in range(lp.num_vars):
            v = shift[j] + x_std[col_plus[j]]
            if col_minus[j] is not None:
                v -= x_std[col_minus[j]]
            out.append(v)
        return out

    cost = None
    if lp.objective is not None:
        cost, _ = expand(lp.objective)
    return _Standardised(
        tab, n_struct, n_slack, full_n, row_sign, row_of, decode, cost
    )


def _phase1(std: _Standardised) -> Fraction:
    tab = std.tableau
    cost = [ZERO] * std.art_start + [ONE] * tab.m
    return tab.minimise(cost)


def _verify_point(lp: LinearProgram, x: list[Fraction]):
    for j in range(lp.num_vars):
        lo, hi = lp.bound(j)
        if lo is not None and x[j] < lo:
            raise InternalError(f"bound violated: x[{j}]={x[j]} < {lo}")
        if hi is not None and x[j] > hi:
            raise InternalError(f"bound violated: x[{j}]={x[j]} > {hi}")
    for con in lp.constraints:
        lhs = sum((c * v for c, v in zip(con.coeffs, x)), ZERO)
        ok = lhs <= con.rhs if con.rel == "<=" else lhs >= con.rhs if con.rel == ">=" else lhs == con.rhs
        if not ok:
            raise InternalError(f"constraint violated: {lhs} {con.rel} {con.rhs}")


def _verify_certificate(lp: LinearProgram, y: list[Fraction]):
    if not lp.all_default_bounds():
        raise InternalError("certificates only supported for x >= 0 problems")
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


def _extract_certificate(lp: LinearProgram, std: _Standardised) -> list[Fraction]:
    """Duals of the phase-1 optimum: y = c_B B^-1 over standard rows, then
    mapped back through row negation to the original constraints.

    The artificial columns started as the identity, so they now hold B^-1,
    and c_B is one exactly on the rows whose basic column is artificial.
    """
    tab = std.tableau
    art_rows = [tab.a[r] for r, j in enumerate(tab.basis) if j >= std.art_start]
    y = [ZERO] * len(lp.constraints)
    for k in range(tab.m):
        i = std.row_of[k]
        if i >= 0:
            col = std.art_start + k
            y[i] += std.row_sign[k] * sum((row[col] for row in art_rows), ZERO)
    return y


def solve_feasibility(lp: LinearProgram):
    """Find an exact feasible point, or a verified Farkas certificate.

    Certificates require the default bounds (all variables >= 0).
    """
    std = _standardise(lp)
    opt = _phase1(std)
    if opt > 0:
        y = _extract_certificate(lp, std)
        _verify_certificate(lp, y)
        return InfeasibleCert(y)
    x = std.decode(std.tableau.solution())
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
        if tab.basis[r] >= std.art_start and tab.b[r] == 0:
            for j in range(std.art_start):
                if tab.a[r][j] != 0:
                    tab.pivot(r, j)
                    break
    banned = frozenset(range(std.art_start, tab.n))
    cost = [-c for c in std.cost] + [ZERO] * (tab.n - std.n_struct)
    tab.minimise(cost, banned)
    x = std.decode(tab.solution())
    _verify_point(lp, x)
    value = sum((c * v for c, v in zip(lp.objective, x)), ZERO)
    return value, x
