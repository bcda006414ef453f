"""Attack-context synthesis: from a refinement failure to a verified
vulnerability gap.

When spec and impl are functionally equal but the impl's partition at some
visible value v' is not reachable by merging spec fractions, that partition
lies strictly outside a convex set (all refinements of the spec partition),
so a hyperplane separates them.  The hyperplane's normal, transposed and
normalised, becomes a stochastic channel from the hidden tuple to the first
hidden variable; `if v = v' then h <- row(h, k) else h := c fi; k := c'`
is then a context under which the impl is strictly more vulnerable to a
single guess than the spec.

Two routes produce the normal: the Farkas certificate of the failed
refinement LP (free, the default) and a maximum-margin LP in epigraph
form, which finds the direction of largest separation (used to
cross-check).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import InternalError, NotSeparable, PreconditionViolated
from .lang import ast as A
from .lp import LinearProgram, solve_max
from .matrix import RatMatrix
from .measures import bayes_vuln, gain_vulnerability
from .probcore import ONE, ZERO, Domain, Value, value_key, vnum
from .refine import (
    NotRefined,
    Partition,
    certificate_gain,
    check_partition_refinement,
    check_refinement,
    gain_margin,
    hidden_columns,
)
from .semantics import Scope, SplitState, eval_module

@dataclass
class SeparatingDirection:
    """Normal X (target fractions x hidden values) with a positive margin:
    every refinement of the source partition scores at least `margin`
    below the target partition under the dot product with X.

    Read as a gain function with one guess per target fraction, X scores
    the target partition `margin` above V_X of the source."""

    x: RatMatrix
    margin: Fraction
    h_columns: list  # hidden tuples indexing X's columns

    @classmethod
    def of(cls, x: RatMatrix, pi_s: Partition, pi_i: Partition) -> "SeparatingDirection":
        """X over hidden_columns(pi_s, pi_i), with its exact margin
        X . Pi_I - V_X(Pi_S); NotSeparable unless that margin is positive."""
        h_columns = hidden_columns(pi_s, pi_i)
        margin = gain_margin(x, pi_s.matrix(h_columns), pi_i.matrix(h_columns))
        if margin <= 0:
            raise NotSeparable("no positive-margin direction: the partitions refine")
        return cls(x, margin, h_columns)


def separating_direction_from_certificate(
    pi_s: Partition, pi_i: Partition, certificate: Optional[list] = None
) -> SeparatingDirection:
    """Read the separating normal off the refinement LP's Farkas certificate.

    The certificate multipliers on the product equations form exactly a
    matrix X with dot(R x Pi_S, X) < dot(Pi_I, X) for every refinement R.
    """
    if certificate is None:
        _, certificate = check_partition_refinement(pi_s, pi_i)
        if certificate is None:
            raise NotSeparable("partitions are in refinement; nothing to separate")
    x = certificate_gain(certificate, len(pi_s), len(pi_i))
    return SeparatingDirection.of(x, pi_s, pi_i)


def separating_direction_by_vertices(pi_s: Partition, pi_i: Partition) -> SeparatingDirection:
    """Maximise the separation margin X . Pi_I - V_X(Pi_S) with X entries
    boxed to [-1, 1], as one maximum-margin LP in epigraph form.

    V_X(Pi_S) = sum_s max_r X_r . pi_s is a maximum of linear functions, so
    each spec fraction s gets a variable t_s >= X_r . pi_s for every row r,
    and one row sum_s t_s - X . Pi_I + eps <= 0 bounds the margin (Boyd and
    Vandenberghe, Convex Optimization, 2004, sec. 4.3.1).  The LP runs over
    x >= 0, so it solves for Y = X + 1 and T_s = t_s + |pi_s|, with one
    `y <= 2` row per X entry, and reads X = Y - 1."""
    h_columns = hidden_columns(pi_s, pi_i)
    mat_s, mat_i = pi_s.matrix(h_columns), pi_i.matrix(h_columns)
    f_s, f_i, nh = mat_s.nrows, mat_i.nrows, len(h_columns)
    nx = f_i * nh
    n = nx + f_s + 1
    lp = LinearProgram(n, objective=[ZERO] * (n - 1) + [ONE])
    for s in range(f_s):
        for r in range(f_i):
            # T_s - Y_r . pi_s >= 0
            coeffs = [ZERO] * n
            coeffs[r * nh : (r + 1) * nh] = [-q for q in mat_s.rows[s]]
            coeffs[nx + s] = ONE
            lp.add(coeffs, ">=", 0)
    # sum_s T_s - Y . Pi_I + eps <= |Pi_S| - |Pi_I|
    coeffs = [-q for row in mat_i.rows for q in row] + [ONE] * (f_s + 1)
    lp.add(coeffs, "<=", sum(map(sum, mat_s.rows), ZERO) - sum(map(sum, mat_i.rows), ZERO))
    for j in range(nx):
        lp.add([ONE if k == j else ZERO for k in range(n)], "<=", 2)
    # at the optimum eps is X's exact margin
    _, point = solve_max(lp)
    x = RatMatrix([[y - 1 for y in point[r * nh : (r + 1) * nh]] for r in range(f_i)])
    return SeparatingDirection.of(x, pi_s, pi_i)


# ---------------------------------------------------------------------------
# Channel construction
# ---------------------------------------------------------------------------


@dataclass
class AttackChannel:
    """Stochastic redistribution of the hidden tuple, applied at v'.

    Rows are indexed by the declared hidden tuples; columns by the target
    values of the first hidden variable: a prefix drawn from (or extending)
    its declared domain, plus `n_split` fresh values that absorb the slack
    left after scaling.
    No fresh column ever attracts a maximising one-guess strategy on
    either side; that is checked numerically during construction.
    """

    rows: dict  # hidden tuple -> list[Fraction] over columns
    columns: list[Value]  # values of the first hidden variable
    n_split: int
    trigger_v: tuple


def _fresh_values(domain_values, count: int) -> list[Value]:
    """Fresh numeric values 0, -1, -2, ... avoiding the domain."""
    out: list[Value] = []
    k = 0
    while len(out) < count:
        cand = vnum(-k)
        if cand not in domain_values and cand not in out:
            out.append(cand)
        k += 1
    return out


def build_attack_channel(
    direction: SeparatingDirection,
    pi_s: Partition,
    pi_i: Partition,
    h_tuples: list[tuple],
    trigger_v: tuple = (),
) -> AttackChannel:
    """Turn a separating normal into a one-summing channel matrix.

    Refinements of the source score strictly less than the target under
    the direction, as its constructor checked.  A constant shift makes
    every entry strictly positive, a scale bounds the row sums by one, and
    the slack goes to fresh values -- split into enough pieces that none
    can ever be the best guess.
    """
    x, h_columns = direction.x, direction.h_columns

    # rows: declared hidden tuples; columns: target fraction slots.
    # X columns cover only the partitions' support; other hidden tuples get
    # constant rows, which is harmless since they never occur at v'.
    f_i = x.nrows
    col_of = {h: j for j, h in enumerate(h_columns)}
    d0: dict = {}
    for h in h_tuples:
        if h in col_of:
            d0[h] = [x[r, col_of[h]] for r in range(f_i)]
        else:
            d0[h] = [ZERO] * f_i

    entries = [q for row in d0.values() for q in row]
    shift = max(ZERO, 1 - min(entries))
    shifted = {h: [q + shift for q in row] for h, row in d0.items()}
    max_row_sum = max(sum(row, ZERO) for row in shifted.values())
    scaled = {h: [q / max_row_sum for q in row] for h, row in shifted.items()}
    slack = {h: 1 - sum(row, ZERO) for h, row in scaled.items()}

    # target values: the first hidden variable's declared values in order,
    # extended if the partition has more fractions than that domain has values
    base_values = list(dict.fromkeys(h[0] for h in h_tuples))
    target_values = base_values[:f_i]
    if f_i > len(base_values):
        target_values += _fresh_values(base_values, f_i - len(base_values))

    # how many ways to split the slack so no fresh value can win a guess:
    # fraction r's mass on a fresh column is slack_r / k, its best real
    # guess is m_r > 0 (all scaled entries are positive), so pick k with
    # slack_r / k < m_r for every fraction of either partition
    n_split = 1 if any(s > 0 for s in slack.values()) else 0
    if n_split:
        guesses = [[scaled[h][t] for h in h_columns] for t in range(f_i)]
        for pi in (pi_s, pi_i):
            for f in pi.fractions:
                m_r = gain_vulnerability(guesses, [[f[h] for h in h_columns]])
                z_r = sum((f[h] * slack[h] for h in f.support), ZERO)
                if z_r == 0:
                    continue
                while z_r / n_split >= m_r:
                    n_split += 1

    split_values = _fresh_values(base_values + target_values, n_split)
    columns = target_values + split_values
    rows = {}
    for h, row in scaled.items():
        extra = [slack[h] / n_split] * n_split if n_split else []
        rows[h] = list(row) + extra
        if sum(rows[h], ZERO) != 1:
            raise InternalError("channel row does not sum to one")
    return AttackChannel(rows, columns, n_split, trigger_v=trigger_v)


# ---------------------------------------------------------------------------
# Context emission and end-to-end verification
# ---------------------------------------------------------------------------


def _prob_expr(q: Fraction) -> A.Expr:
    if q.denominator == 1:
        return A.Lit(vnum(q))
    return A.Binop("/", A.Lit(vnum(q.numerator)), A.Lit(vnum(q.denominator)))


def _row_dist(columns, row) -> A.DistExpr:
    entries = tuple(
        (A.Lit(val), _prob_expr(q)) for val, q in zip(columns, row) if q != 0
    )
    return A.DistExplicit(entries)


def _equal_to(names, values) -> A.Expr:
    """`n1 = x1 and n2 = x2 and ..`, or `true` for no names."""
    guard: Optional[A.Expr] = None
    for name, val in zip(names, values):
        term = A.Binop("=", A.Name(name), A.Lit(val))
        guard = term if guard is None else A.Binop("and", guard, term)
    return A.Lit(Value("bool", True)) if guard is None else guard


def channel_choose_dist(channel: AttackChannel, h_names) -> A.DistExpr:
    """Conditional distribution selecting the row for the current joint
    value of the hidden variables `h_names`, one arm per value but the last."""
    *hs, last = sorted(channel.rows, key=value_key)
    arms = [
        x for h in hs for x in (_row_dist(channel.columns, channel.rows[h]), _equal_to(h_names, h))
    ]
    otherwise = _row_dist(channel.columns, channel.rows[last])
    return A.DistCond(*arms, otherwise) if arms else otherwise


def _pin(decl: A.VarDecl) -> A.Assign:
    """`x := c` for a constant c of x's domain (0 where it has one)."""
    values = decl.domain.values
    return A.Assign(decl.name, A.Lit(vnum(0) if vnum(0) in values else values[0]))


def emit_context(
    channel: AttackChannel,
    trigger_v: tuple,
    module: A.Module,
) -> A.Module:
    """A standalone context module: same variables, the first hidden
    variable's domain extended with the channel's fresh values; body
    writes the channel's output into that variable at v' and a constant
    elsewhere, then pins every other hidden variable to a constant."""
    scope = Scope.of_module(module)
    hdecl, *others = scope.hidden
    extended = tuple(dict.fromkeys(hdecl.domain.values + tuple(channel.columns)))
    decls = tuple(
        A.VarDecl(d.name, Domain(d.name, extended), d.visibility) if d.name == hdecl.name else d
        for d in module.decls
    )
    body = A.Cond(
        _equal_to(scope.visible_names(), trigger_v),
        A.Choose(hdecl.name, channel_choose_dist(channel, scope.hidden_names())),
        _pin(hdecl),
    )
    return A.Module(decls, A.Seq(body, *map(_pin, others)) if others else body)


def compose(module: A.Module, context: A.Module) -> A.Module:
    """module ; context under the context's (widened) declarations."""
    return A.Module(context.decls, A.Seq(module.body, context.body))


@dataclass
class AttackReport:
    context: A.Module
    trigger_v: tuple
    bv_spec: Fraction  # of spec ; context
    bv_impl: Fraction  # of impl ; context
    verdict: bool  # bv_impl > bv_spec
    channel: AttackChannel


def synthesize_and_verify(
    spec_module: A.Module,
    impl_module: A.Module,
    init: SplitState,
    method: str = "farkas",
) -> AttackReport:
    """Build a distinguishing context for a refinement failure and verify
    the Bayes-vulnerability gap end-to-end on the composed programs."""
    scope = Scope.of_module(spec_module)
    failure = check_refinement(eval_module(spec_module, init), eval_module(impl_module, init))
    if not isinstance(failure, NotRefined) or failure.functional_mismatch:
        raise PreconditionViolated(
            "attack synthesis needs a NotRefined verdict with functional equality"
        )
    pi_s, pi_i = failure.pi_s, failure.pi_i
    if method == "farkas":
        direction = separating_direction_from_certificate(pi_s, pi_i, failure.certificate)
    elif method == "vertices":
        direction = separating_direction_by_vertices(pi_s, pi_i)
    else:
        raise ValueError(method)
    h_tuples = list(itertools.product(*(d.domain.values for d in scope.hidden)))
    channel = build_attack_channel(direction, pi_s, pi_i, h_tuples, trigger_v=failure.v)
    context = emit_context(channel, failure.v, spec_module)
    return verify_attack(spec_module, impl_module, context, failure.v, channel, init)


def verify_attack(
    spec_module: A.Module,
    impl_module: A.Module,
    context: A.Module,
    trigger_v: tuple,
    channel: Optional[AttackChannel],
    init: SplitState,
) -> AttackReport:
    """Evaluate spec;C and impl;C and report the exact vulnerabilities."""
    bv_s = bayes_vuln(eval_module(compose(spec_module, context), init))
    bv_i = bayes_vuln(eval_module(compose(impl_module, context), init))
    return AttackReport(
        context=context,
        trigger_v=trigger_v,
        bv_spec=bv_s,
        bv_impl=bv_i,
        verdict=bv_i > bv_s,
        channel=channel,
    )
