"""Exact simplex: feasibility, optimisation, certificates, termination."""

import random
from fractions import Fraction as F

import pytest

from hyperflow.errors import Infeasible, Unbounded
from hyperflow.lp import Feasible, InfeasibleCert, LinearProgram, _Tableau, solve_feasibility, solve_max


def test_single_equality():
    lp = LinearProgram(1)
    lp.add([1], "=", 1)
    result = solve_feasibility(lp)
    assert isinstance(result, Feasible) and result.point == [F(1)]


def test_contradictory_bounds_certified():
    lp = LinearProgram(1)
    lp.add([1], ">=", 1)
    lp.add([1], "<=", 0)
    result = solve_feasibility(lp)
    assert isinstance(result, InfeasibleCert)
    # verification already ran inside; spot-check the Farkas conditions
    y = result.certificate
    assert y[0] >= 0 and y[1] <= 0
    assert y[0] * 1 + y[1] * 1 <= 0
    assert y[0] * 1 + y[1] * 0 > 0


def test_max_simple():
    lp = LinearProgram(1, objective=[F(1)])
    lp.add([1], "<=", 3)
    assert solve_max(lp) == (F(3), [F(3)])


def test_max_degenerate_zero_objective():
    lp = LinearProgram(2, objective=[F(0), F(0)])
    lp.add([1, 1], "=", 1)
    value, point = solve_max(lp)
    assert value == 0
    assert sum(point) == 1 and all(x >= 0 for x in point)


def test_max_with_boxes():
    # 2 x0 - x1 over the box [-1, 1]^2, solved for y = x + 1 in [0, 2]^2
    lp = LinearProgram(2, objective=[F(2), F(-1)])
    lp.add([1, 0], "<=", 2)
    lp.add([0, 1], "<=", 2)
    value, point = solve_max(lp)
    assert value - 1 == 3 and [y - 1 for y in point] == [F(1), F(-1)]


def test_unbounded_detected():
    lp = LinearProgram(1, objective=[F(1)])
    with pytest.raises(Unbounded):
        solve_max(lp)


def test_infeasible_max():
    lp = LinearProgram(1, objective=[F(1)])
    lp.add([1], "<=", -1)
    with pytest.raises(Infeasible):
        solve_max(lp)


def _random_lp(rng, n, m):
    lp = LinearProgram(n, objective=[F(rng.randint(-3, 3)) for _ in range(n)])
    for _ in range(m):
        coeffs = [F(rng.randint(-3, 3)) for _ in range(n)]
        rel = rng.choice(["<=", ">=", "="])
        lp.add(coeffs, rel, F(rng.randint(-4, 4)))
    return lp


def test_random_lps_verified_answers():
    # every returned point or certificate re-verifies (the solvers check
    # internally and raise otherwise); count both outcomes so the test
    # exercises feasible and infeasible instances
    rng = random.Random(99)
    feas = infeas = 0
    for _ in range(200):
        lp = _random_lp(rng, rng.randint(1, 4), rng.randint(1, 4))
        result = solve_feasibility(lp)
        if isinstance(result, Feasible):
            feas += 1
        else:
            infeas += 1
    assert feas > 20 and infeas > 20


def test_random_max_agrees_with_vertex_enumeration():
    # brute-force check on box-bounded 2-variable problems: the optimum of
    # a linear objective over a polygon is attained on a fine grid scan
    rng = random.Random(7)
    for _ in range(40):
        lp = LinearProgram(2, objective=[F(rng.randint(-3, 3)), F(rng.randint(-3, 3))])
        lp.add([1, 0], "<=", 2)
        lp.add([0, 1], "<=", 2)
        rows = []
        for _ in range(2):
            coeffs = [F(rng.randint(-2, 2)), F(rng.randint(-2, 2))]
            rhs = F(rng.randint(0, 4))
            rows.append((coeffs, rhs))
            lp.add(coeffs, "<=", rhs)
        try:
            value, point = solve_max(lp)
        except Infeasible:
            continue
        step = F(1, 8)
        best = None
        x = F(0)
        while x <= 2:
            y = F(0)
            while y <= 2:
                if all(c[0] * x + c[1] * y <= r for c, r in rows):
                    cand = lp.objective[0] * x + lp.objective[1] * y
                    best = cand if best is None or cand > best else best
                y += step
            x += step
        assert best is not None and value >= best


def test_degenerate_cycling_prone_instance_terminates():
    # classic Beale-style degeneracy; Bland's rule must terminate
    lp = LinearProgram(4, objective=[F(3, 4), F(-150), F(1, 50), F(-6)])
    lp.add([F(1, 4), F(-60), F(-1, 25), F(9)], "<=", 0)
    lp.add([F(1, 2), F(-90), F(-1, 50), F(3)], "<=", 0)
    lp.add([F(0), F(0), F(1), F(0)], "<=", 1)
    value, _ = solve_max(lp)
    assert value == F(1, 20)


# ---------------------------------------------------------------------------
# The integer tableau against a Fraction reference on the same pivot path
# ---------------------------------------------------------------------------


def _reference(lp):
    """Two-phase Fraction Gauss-Jordan simplex with Bland's rule on the
    standard form the solver builds: one slack per inequality, rows negated
    to b >= 0, one artificial per row.  Returns (feasibility answer, max
    answer)."""
    rows = [(c.coeffs, c.rel, c.rhs) for c in lp.constraints]
    slacks = [i for i, row in enumerate(rows) if row[1] != "="]
    k = lp.num_vars
    m, n = len(rows), k + len(slacks)
    tab, sign = [], []
    for i, (coeffs, rel, b) in enumerate(rows):
        a = list(coeffs) + [F({"<=": 1, ">=": -1}[rel]) if i == s else F(0) for s in slacks]
        sign.append(-1 if b < 0 else 1)
        tab.append([sign[i] * x for x in a] + [F(int(i == r)) for r in range(m)] + [sign[i] * b])
    basis = list(range(n, n + m))

    def minimise(cost, banned=()):
        while True:
            reduced = [cost[j] - sum(cost[basis[r]] * tab[r][j] for r in range(m)) for j in range(n + m)]
            enter = next((j for j in range(n + m) if j not in banned and j not in basis and reduced[j] < 0), None)
            if enter is None:
                return True
            ratios = [(tab[r][-1] / tab[r][enter], basis[r], r) for r in range(m) if tab[r][enter] > 0]
            if not ratios:
                return False
            pivot(min(ratios)[2], enter)

    def pivot(r, j):
        tab[r] = [x / tab[r][j] for x in tab[r]]
        for i in range(m):
            if i != r:
                tab[i] = [x - tab[i][j] * y for x, y in zip(tab[i], tab[r])]
        basis[r] = j

    def point():
        x = [F(0)] * k
        for r, j in enumerate(basis):
            if j < k:
                x[j] = tab[r][-1]
        return x

    minimise([F(0)] * n + [F(1)] * m)
    art = [r for r in range(m) if basis[r] >= n]
    if sum(tab[r][-1] for r in art) > 0:
        cert = [sign[i] * sum(tab[r][n + i] for r in art) for i in range(m)]
        return ("cert", cert), "infeasible"
    feasible = ("point", point())
    for r in art:
        if tab[r][-1] == 0:
            j = next((j for j in range(n) if tab[r][j] != 0), None)
            if j is not None:
                pivot(r, j)
    cost = [-c for c in lp.objective] + [F(0)] * (n + m - k)
    if not minimise(cost, banned=range(n, n + m)):
        return feasible, "unbounded"
    x = point()
    return feasible, (sum(c * v for c, v in zip(lp.objective, x)), x)


def _solver_answers(lp):
    result = solve_feasibility(lp)
    feasible = ("point", result.point) if isinstance(result, Feasible) else ("cert", result.certificate)
    try:
        return feasible, solve_max(lp)
    except Infeasible:
        return feasible, "infeasible"
    except Unbounded:
        return feasible, "unbounded"


def _mixed_lp(rng):
    """Up to 4 variables and 4 rows: '<=', '=' and '>=' rows, fractional
    coefficients, negative right-hand sides, and in every other LP some
    variables boxed by a `<=` row of their own."""

    def q():
        return F(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 4, 6]))

    n = rng.randint(1, 4)
    lp = LinearProgram(n, objective=[q() for _ in range(n)])
    for _ in range(rng.randint(1, 4)):
        lp.add([q() if rng.random() < 0.8 else F(0) for _ in range(n)], rng.choice(["<=", "=", ">="]), q())
    if rng.random() < 0.5:
        for j in range(n):
            if rng.random() < 0.5:
                lp.add([F(int(i == j)) for i in range(n)], "<=", abs(q()) + 1)
    return lp


def test_integer_tableau_follows_the_fraction_pivot_path():
    rng = random.Random(802)
    seen = {"point": 0, "cert": 0, "max": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(400):
        lp = _mixed_lp(rng)
        feasible, best = _reference(lp)
        assert _solver_answers(lp) == (feasible, best)
        seen[feasible[0]] += 1
        seen[best if isinstance(best, str) else "max"] += 1
    assert min(seen.values()) >= 20, seen


def _watch_pivots(monkeypatch):
    """Record each pivot element's sign and check the tableau after it."""
    signs = []
    real = _Tableau.pivot

    def pivot(tab, row, col):
        signs.append(tab.a[row][col] > 0)
        real(tab, row, col)
        assert tab.d > 0 and all(type(x) is int for ar in tab.a for x in ar)

    monkeypatch.setattr(_Tableau, "pivot", pivot)
    return signs


def test_beale_cycling_lp_terminates_on_the_integer_tableau(monkeypatch):
    # Beale (1955): Dantzig's rule cycles on it from the slack basis
    signs = _watch_pivots(monkeypatch)
    lp = LinearProgram(4, objective=[F(3, 4), F(-150), F(1, 50), F(-6)])
    lp.add([F(1, 4), F(-60), F(-1, 25), F(9)], "<=", 0)
    lp.add([F(1, 2), F(-90), F(-1, 50), F(3)], "<=", 0)
    lp.add([F(0), F(0), F(1), F(0)], "<=", 1)
    assert solve_max(lp) == (F(1, 20), [F(1, 25), F(0), F(1), F(0)]) == _reference(lp)[1]
    assert signs and all(signs)


def test_negative_drive_out_pivot_keeps_the_denominator_positive(monkeypatch):
    # phase 1 ends with the artificial of -x2/3 = 0 basic at level zero;
    # driving it out pivots on the negative entry -1/3 (-3 on the integer row)
    signs = _watch_pivots(monkeypatch)
    lp = LinearProgram(2, objective=[F(1), F(-1)])
    lp.add([0, F(-1, 3)], "=", 0)
    lp.add([1, 0], "<=", 2)
    assert solve_max(lp) == (F(2), [F(2), F(0)]) == _reference(lp)[1]
    assert False in signs
