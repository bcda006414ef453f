"""Partitions of fractions and the LP-based secure-refinement decision.

A fraction is a sub-distribution over hidden values; the partition for a
visible value v collects the inner distributions of all split-states at v,
scaled by their outer probabilities.  One hyper-distribution refines
another exactly when, for every v, some column-stochastic matrix maps the
coarser partition's fractions onto the finer one's -- an exact LP
feasibility question.  Failures come with a Farkas certificate that attack
synthesis turns into a separating hyperplane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .errors import InternalError, NotRefinementMatrix
from .lp import Feasible, LinearProgram, solve_feasibility, to_integers
from .matrix import RatMatrix
from .measures import gain_vulnerability
from .probcore import ONE, ZERO, FiniteDist, normalize, value_key
from .semantics import HyperDist


@dataclass(frozen=True)
class Partition:
    """Canonically sorted multiset of fractions for one visible value."""

    fractions: tuple[FiniteDist, ...]

    @classmethod
    def of(cls, fractions) -> "Partition":
        return cls(tuple(sorted(fractions, key=value_key)))

    def __len__(self):
        return len(self.fractions)

    def __iter__(self):
        return iter(self.fractions)

    def total(self) -> FiniteDist:
        """The sum of the fractions: how likely each hidden value is jointly with v."""
        return FiniteDist(p for f in self.fractions for p in f)

    def h_support(self) -> list:
        return sorted({h for f in self.fractions for h, _ in f}, key=value_key)

    def matrix(self, h_columns) -> RatMatrix:
        """Fractions as rows over the given hidden-value column order."""
        if not self.fractions:
            raise ValueError("empty partition has no matrix")
        return RatMatrix([[f[h] for h in h_columns] for f in self.fractions])


def extract_partition(hyper: HyperDist, v) -> Partition:
    """Fractions p*delta for the split-states at visible value v.

    Reduced by construction: canonical hypers never hold two split-states
    with the same v and similar inner distributions.
    """
    fractions = [s.delta.scale(w) for s, w in hyper if s.v == v]
    return Partition.of(fractions)


def reduce_partition(pi: Partition) -> Partition:
    """Add up similar fractions and drop zero ones; idempotent."""
    groups: dict = {}
    for f in pi.fractions:
        if f.weight == 0:
            continue
        groups.setdefault(normalize(f), []).append(f)
    out = []
    for fs in groups.values():
        total = fs[0]
        for f in fs[1:]:
            total = total.add(f)
        out.append(total)
    return Partition.of(out)


def similar(pi1: Partition, pi2: Partition) -> bool:
    """Same reduction (fractions equal after merging similar ones)."""
    return reduce_partition(pi1) == reduce_partition(pi2)


def bv_partition(pi: Partition) -> Fraction:
    """Bayes vulnerability of a partition: sum of per-fraction maxima."""
    return sum((f.max_weight() for f in pi.fractions), ZERO)


# ---------------------------------------------------------------------------
# Refinement decision
# ---------------------------------------------------------------------------


@dataclass
class RefinementWitness:
    """Per visible value, a column-stochastic R with R x Pi_S = Pi_I."""

    per_v: dict  # v tuple -> RatMatrix (or None where both partitions are empty)


@dataclass
class NotRefined:
    v: Optional[tuple]  # failing visible value; None for functional mismatch
    functional_mismatch: bool = False
    certificate: Optional[list] = None  # Farkas certificate of the failing LP
    pi_s: Optional[Partition] = None
    pi_i: Optional[Partition] = None


def refinement_lp(mat_s: RatMatrix, mat_i: RatMatrix) -> LinearProgram:
    """Feasibility LP for R >= 0 (rows(I) x rows(S)): columns one-summing
    and R x mat_s = mat_i.

    Variable order: R[r][c] at index r*rows(S) + c.  Constraint order:
    rows(S) column-sum equations first, then the product equations in
    (target row, hidden column) order -- certificate_gain reads a Farkas
    certificate's gain off this layout.

    check_partition_refinement solves it on a column basis of the hidden
    values (independent_columns), since the other columns' product
    equations are implied; the certificates it returns are still in this
    layout over every hidden column, with zeros on the implied equations.
    """
    f_s, f_i = mat_s.nrows, mat_i.nrows
    if mat_s.ncols != mat_i.ncols:
        raise ValueError("partitions must share their hidden-column space")
    lp = LinearProgram(f_i * f_s)
    for c in range(f_s):
        coeffs = [ZERO] * lp.num_vars
        for r in range(f_i):
            coeffs[r * f_s + c] = ONE
        lp.add(coeffs, "=", ONE)
    for r in range(f_i):
        for h in range(mat_s.ncols):
            coeffs = [ZERO] * lp.num_vars
            for c in range(f_s):
                coeffs[r * f_s + c] = mat_s[c, h]
            lp.add(coeffs, "=", mat_i[r, h])
    return lp


def hidden_columns(pi_s: Partition, pi_i: Partition) -> list:
    """The hidden values of either partition, in the canonical column order
    that refinement matrices, certificates and attack directions share."""
    hs = {h for pi in (pi_s, pi_i) for f in pi.fractions for h, _ in f}
    return sorted(hs, key=value_key)


def independent_columns(mat_s: RatMatrix, mat_i: RatMatrix) -> list[int]:
    """Indices of a maximal linearly independent set of hidden columns of
    the stacked [mat_s; mat_i], picked left to right by one Gaussian sweep.

    The product equation of every other column is a linear combination of
    the kept columns' equations, so the refinement LP needs only these.
    The sweep runs fraction-free on the rows scaled to integers, which
    leaves the columns' dependences as they are.
    """
    stacked = [to_integers(row) for row in mat_s.rows + mat_i.rows]
    basis: list[tuple[int, list[int]]] = []  # (pivot row, reduced column)
    kept: list[int] = []
    for h in range(mat_s.ncols):
        if len(kept) == len(stacked):
            break  # full row rank: every further column is dependent
        col = [row[h] for row in stacked]
        for p, b in basis:
            if col[p]:
                f, g = b[p], col[p]
                col = [f * x - g * y for x, y in zip(col, b)]
        p = next((r for r, x in enumerate(col) if x), None)
        if p is not None:
            g = math.gcd(*col)
            basis.append((p, [x // g for x in col]))
            kept.append(h)
    return kept


def certificate_gain(certificate: list, f_s: int, f_i: int) -> RatMatrix:
    """The gain X a refinement_lp certificate carries: its multipliers on
    the product equations, one guess row per target fraction and one column
    per hidden value.  The one reader of the certificate layout."""
    z = certificate[f_s:]
    nh = len(z) // f_i
    return RatMatrix([z[r * nh : (r + 1) * nh] for r in range(f_i)])


def gain_margin(x: RatMatrix, mat_s: RatMatrix, mat_i: RatMatrix) -> Fraction:
    """X . Pi_I - V_X(Pi_S).  A positive margin proves that no
    column-stochastic R has R x Pi_S = Pi_I: every such product scores at
    most V_X(Pi_S) under X, as each source fraction goes to its best guess.

    A Farkas certificate (u, X) of refinement_lp has a positive margin,
    since u[c] <= -max_r X[r] . Pi_S[c] and sum(u) + X . Pi_I > 0."""
    return x.dot(mat_i) - gain_vulnerability(x.rows, mat_s.rows)


def _full_certificate(cert: list, mat_s: RatMatrix, mat_i: RatMatrix, kept: list[int]) -> list:
    """Spread the certificate of the LP on the kept columns over
    refinement_lp's full layout, with zero multipliers on the dropped
    product equations.  The zeros change neither y.A nor y.b, so the full
    certificate is as valid as the verified reduced one; its gain must
    still separate the full partitions."""
    f_s, f_i, nh = mat_s.nrows, mat_i.nrows, mat_s.ncols
    if len(kept) == nh:
        return cert
    padded = [[ZERO] * nh for _ in range(f_i)]
    for row, reduced_row in zip(padded, certificate_gain(cert, f_s, f_i).rows):
        for h, q in zip(kept, reduced_row):
            row[h] = q
    if gain_margin(RatMatrix(padded), mat_s, mat_i) <= 0:
        raise InternalError("padded certificate does not separate the partitions")
    return cert[:f_s] + [q for row in padded for q in row]


def check_partition_refinement(
    pi_s: Partition, pi_i: Partition
) -> tuple[Optional[RatMatrix], Optional[list]]:
    """(witness matrix, None) if pi_s is refined by pi_i, else
    (None, Farkas certificate of refinement_lp over hidden_columns).

    Equal partitions take the identity witness without an LP; otherwise
    the LP is solved on independent_columns only.
    """
    h_columns = hidden_columns(pi_s, pi_i)
    mat_s, mat_i = pi_s.matrix(h_columns), pi_i.matrix(h_columns)
    if pi_s.fractions == pi_i.fractions:
        # canonical partitions are sorted, so equal ones match row for row
        r = RatMatrix.identity(mat_s.nrows)
    else:
        kept = independent_columns(mat_s, mat_i)
        result = solve_feasibility(
            refinement_lp(
                RatMatrix([[row[h] for h in kept] for row in mat_s.rows]),
                RatMatrix([[row[h] for h in kept] for row in mat_i.rows]),
            )
        )
        if not isinstance(result, Feasible):
            return None, _full_certificate(result.certificate, mat_s, mat_i, kept)
        f_s, f_i = mat_s.nrows, mat_i.nrows
        r = RatMatrix(
            [[result.point[row * f_s + c] for c in range(f_s)] for row in range(f_i)]
        )
    # witness soundness: re-verify by exact multiplication
    r.check_refinement_matrix()
    if r @ mat_s != mat_i:
        raise NotRefinementMatrix("LP returned a non-reproducing witness")
    return r, None


def check_refinement(
    spec: HyperDist, impl: HyperDist
) -> Union[RefinementWitness, NotRefined]:
    """Decide secure refinement between two canonical hyper-distributions.

    Functional equality is checked first (refinement implies it): at every
    visible value, before any LP, both partitions' fractions add up to the
    same sub-distribution.  Then for each visible value an exact LP finds a
    refinement matrix, or the first failing value is reported with its
    infeasibility certificate.
    """
    vs = sorted({s.v for s, _ in spec} | {s.v for s, _ in impl}, key=value_key)
    pairs = [(v, extract_partition(spec, v), extract_partition(impl, v)) for v in vs]
    if any(pi_s.total() != pi_i.total() for _, pi_s, pi_i in pairs):
        return NotRefined(v=None, functional_mismatch=True)
    per_v: dict = {}
    for v, pi_s, pi_i in pairs:
        witness, cert = check_partition_refinement(pi_s, pi_i)
        if witness is None:
            return NotRefined(v=v, certificate=cert, pi_s=pi_s, pi_i=pi_i)
        per_v[v] = witness
    return RefinementWitness(per_v)


def refines(spec: HyperDist, impl: HyperDist) -> bool:
    return isinstance(check_refinement(spec, impl), RefinementWitness)


# ---------------------------------------------------------------------------
# Convex decomposition of refinement matrices
# ---------------------------------------------------------------------------


def decompose_refinement(r: RatMatrix) -> list[tuple[Fraction, RatMatrix]]:
    """Write a refinement matrix as a convex combination of simple ones.

    Greedy: pick the smallest nonzero column-minimum c, subtract c times
    the simple matrix marking each column's minimum position, repeat.  The
    zero count grows every round, so this terminates; the coefficients sum
    to one and reconstruct r exactly.
    """
    r.check_refinement_matrix()
    work = RatMatrix([row[:] for row in r.rows])
    out: list[tuple[Fraction, RatMatrix]] = []
    while not work.is_zero():
        positions = []
        c_min: Optional[Fraction] = None
        for c in range(work.ncols):
            entries = [(work[row, c], row) for row in range(work.nrows) if work[row, c] > 0]
            if not entries:
                raise NotRefinementMatrix("column sums diverged during decomposition")
            val, row = min(entries)
            positions.append(row)
            if c_min is None or val < c_min:
                c_min = val
        simple = RatMatrix.zero(work.nrows, work.ncols)
        for c, row in enumerate(positions):
            simple.rows[row][c] = ONE
        out.append((c_min, simple))
        work = RatMatrix(
            [
                [work[row, c] - (c_min if positions[c] == row else ZERO) for c in range(work.ncols)]
                for row in range(work.nrows)
            ]
        )
    total = sum((c for c, _ in out), ZERO)
    if total != 1:
        raise NotRefinementMatrix(f"coefficients sum to {total}, not 1")
    return out
