"""Matrix normal-form semantics: an independent evaluation backend.

Programs without local blocks denote an indexed set of square matrices
over the joint (visible, hidden) state space.  Evaluation pushes the
split-state row vector through the program: each atomic command and each
branch weight multiplies the rows built so far, and sequencing is a left
fold, so no product of two square matrices is formed.  Regrouping the
resulting rows reproduces the direct evaluator's hyper-distribution.
The same matrix algebra yields the precondition check for distributing
atomicity brackets over a sequential composition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

from .errors import InternalError, UnsupportedConstruct
from .lang import ast as A
from .matrix import RatMatrix
from .probcore import ONE, ZERO, FiniteDist
from .semantics import (
    HyperDist,
    Scope,
    SplitState,
    _branch,
    _consts,
    _env_of,
    classical_eval,
    reduce_hyper,
)


@dataclass(frozen=True)
class StateIndex:
    """Fixed enumeration of the joint state space V x H."""

    scope: Scope
    v_tuples: tuple
    h_tuples: tuple
    pairs: tuple  # ((v,h), ...) in (v-major, h-minor) order
    positions: dict = field(compare=False, repr=False)  # (v,h) -> its place in pairs

    @classmethod
    def of_scope(cls, scope: Scope) -> "StateIndex":
        v_tuples = tuple(itertools.product(*(d.domain.values for d in scope.visible)))
        h_tuples = tuple(itertools.product(*(d.domain.values for d in scope.hidden)))
        pairs = tuple((v, h) for v in v_tuples for h in h_tuples)
        return cls(scope, v_tuples, h_tuples, pairs, {vh: i for i, vh in enumerate(pairs)})

    @property
    def size(self):
        return len(self.pairs)

    def index(self, v, h) -> int:
        return self.positions[(v, h)]

    def row_of_split_state(self, s: SplitState) -> RatMatrix:
        row = [ZERO] * self.size
        for h, w in s.delta:
            row[self.index(s.v, h)] = w
        return RatMatrix([row])

    def id_v(self, v) -> RatMatrix:
        return RatMatrix.diagonal(
            [ONE if pv == v else ZERO for pv, _ in self.pairs]
        )


def classical_matrix(p: A.Program, index: StateIndex) -> RatMatrix:
    """Row-stochastic matrix of the classical relational meaning."""
    rows = []
    for v, h in index.pairs:
        out = classical_eval(p, index.scope, (v, h))
        row = [ZERO] * index.size
        for (v2, h2), w in out:
            row[index.index(v2, h2)] += w
        rows.append(row)
    return RatMatrix(rows)


@dataclass
class NormalForm:
    index: StateIndex
    matrices: list[RatMatrix]


_ATOMIC_KINDS = (A.Skip, A.Assign, A.Choose, A.Atomic)


def normal_form(p: A.Program, scope_or_index) -> NormalForm:
    """Structural normal form: atomic commands embed their classical matrix
    against every visible projection; general choice scales by the branch
    probabilities; sequencing multiplies pairwise."""
    index = (
        scope_or_index
        if isinstance(scope_or_index, StateIndex)
        else StateIndex.of_scope(scope_or_index)
    )
    return NormalForm(index, _nf(p, index, [RatMatrix.identity(index.size)]))


def _nf(p: A.Program, index: StateIndex, xs: list[RatMatrix]) -> list[RatMatrix]:
    """x @ m for each x of xs and each normal-form matrix m of p."""
    if isinstance(p, _ATOMIC_KINDS):
        body = p.body if isinstance(p, A.Atomic) else p
        base = classical_matrix(body, index)
        projections = [index.id_v(v) for v in index.v_tuples]
        return [xb @ d for xb in (x @ base for x in xs) for d in projections]
    if isinstance(p, A.Seq):
        for q in A.statements(p):
            xs = _nf(q, index, xs)
        return xs
    if isinstance(p, (A.GeneralChoice, A.Cond)):
        weight_at, left, right = _branch(p)
        consts = _consts(index.scope)
        weights = [weight_at(_env_of(index.scope, v, h, consts)) for v, h in index.pairs]
        d = RatMatrix.diagonal(weights)
        dn = RatMatrix.diagonal([1 - q for q in weights])
        return _nf(left, index, [x @ d for x in xs]) + _nf(right, index, [x @ dn for x in xs])
    if isinstance(p, (A.LocalBlock, A.Reveal, A.XorAssign)):
        raise UnsupportedConstruct(
            f"normal form does not cover {type(p).__name__}; use the direct evaluator"
        )
    raise TypeError(p)


def _row_to_split_state(row: RatMatrix, index: StateIndex):
    """A V-unique row back into (weight, split-state); None if zero."""
    weight = sum(row.rows[0], ZERO)
    if weight == 0:
        return None
    chars = {index.pairs[j][0] for j, x in enumerate(row.rows[0]) if x != 0}
    if len(chars) != 1:
        raise InternalError("normal-form row is not V-unique")
    v = chars.pop()
    inv = 1 / weight
    delta = FiniteDist(
        [
            (index.pairs[j][1], x * inv)
            for j, x in enumerate(row.rows[0])
            if x != 0
        ]
    )
    return weight, SplitState(v, delta)


def eval_via_normal_form(p: A.Program, scope: Scope, s: SplitState) -> HyperDist:
    """Push the split-state row through the program, one row per
    normal-form matrix, and regroup; agrees with the direct evaluator
    after reduction."""
    index = StateIndex.of_scope(scope)
    pairs = []
    for row in _nf(p, index, [index.row_of_split_state(s)]):
        out = _row_to_split_state(row, index)
        if out is not None:
            w, st = out
            pairs.append((st, w))
    return reduce_hyper(pairs)


# ---------------------------------------------------------------------------
# Atomicity distribution precondition
# ---------------------------------------------------------------------------


@dataclass
class AtomicityReport:
    ok: bool
    witness: Optional[tuple] = None  # (v, v', vhat1, vhat2)


def check_atomic_distribution(
    p1: A.Program, p2: A.Program, scope: Scope
) -> AtomicityReport:
    """Whether atomic{p1; p2} = atomic{p1}; atomic{p2} is guaranteed.

    Holds when, for every initial and final visible value, at most one
    intermediate visible value links them through the classical semantics:
    the intermediate observation is then deducible anyway, so hiding it
    jointly or in two steps makes no difference.
    """
    index = StateIndex.of_scope(scope)
    c1 = classical_matrix(p1, index)
    c2 = classical_matrix(p2, index)
    h_count = len(index.h_tuples)

    for v in index.v_tuples:
        for v_final in index.v_tuples:
            linking = [
                vhat
                for vhat in index.v_tuples
                if _links(c1, c2, index, h_count, v, vhat, v_final)
            ]
            if len(linking) > 1:
                return AtomicityReport(False, (v, v_final, linking[0], linking[1]))
    return AtomicityReport(True)


def _links(c1, c2, index, h_count, v, vhat, v_final) -> bool:
    """Nonzero mass flows v -> vhat -> v_final through c1 then c2."""
    base_v = index.v_tuples.index(v) * h_count
    base_m = index.v_tuples.index(vhat) * h_count
    base_f = index.v_tuples.index(v_final) * h_count
    for jm in range(base_m, base_m + h_count):
        into = any(c1[i, jm] != 0 for i in range(base_v, base_v + h_count))
        if not into:
            continue
        if any(c2[jm, jf] != 0 for jf in range(base_f, base_f + h_count)):
            return True
    return False
