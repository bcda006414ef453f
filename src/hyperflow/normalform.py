"""Matrix normal-form semantics: an independent evaluation backend.

Programs without local blocks denote an indexed set of square matrices
over the joint (visible, hidden) state space, held as sparse rows: dicts
from a state's position to its nonzero weight.  Evaluation pushes the
split-state row through the program (atomic commands multiply by their
classical matrix and split by visible value, branches scale by their
weights, sequencing is a left fold) and drops the rows that become zero.
Rows are never merged, so regrouping them reproduces the direct
evaluator's hyper-distribution independently.  The same classical rows
yield the precondition check for distributing atomicity brackets over a
sequential composition.
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
    _classical,
    _split_state,
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

    def id_v(self, v) -> RatMatrix:
        return _dense([{i: ONE} if pv == v else {} for i, (pv, _) in enumerate(self.pairs)], self.size)


def _dense(rows: list[dict], n: int) -> RatMatrix:
    """The n-column matrix of sparse rows."""
    return RatMatrix([[row.get(j, ZERO) for j in range(n)] for row in rows])


def classical_rows(p: A.Program, index: StateIndex) -> list[dict]:
    """The classical relational meaning as sparse rows: row i maps each
    position reachable from pairs[i] to its nonzero weight."""
    rows = []
    for v, h in index.pairs:
        row = {}
        for vh, w in _classical(p, index.scope, v, h):
            j = index.positions[vh]
            row[j] = row.get(j, ZERO) + w
        rows.append({j: w for j, w in row.items() if w})
    return rows


def classical_matrix(p: A.Program, index: StateIndex) -> RatMatrix:
    """Row-stochastic matrix of the classical relational meaning."""
    return _dense(classical_rows(p, index), index.size)


@dataclass
class NormalForm:
    index: StateIndex
    matrices: list[RatMatrix]


_ATOMIC_KINDS = (A.Skip, A.Assign, A.Choose, A.Atomic)


def normal_form(p: A.Program, scope: Scope) -> NormalForm:
    """Structural normal form: atomic commands embed their classical matrix
    against every visible projection; general choice scales by the branch
    probabilities; sequencing multiplies pairwise."""
    index = StateIndex.of_scope(scope)
    identity = [{i: ONE} for i in range(index.size)]
    blocks = _nf(p, index, [identity], keep_zero=True)
    return NormalForm(index, [_dense(block, index.size) for block in blocks])


def _nf(p: A.Program, index: StateIndex, blocks: list, *, keep_zero: bool) -> list:
    """x @ m for each block of rows x and each normal-form matrix m of p.

    Unless keep_zero, an atomic command drops the all-zero products, so
    a branch's zero rows go no further than its first atomic command."""
    if isinstance(p, _ATOMIC_KINDS):
        crows = classical_rows(p.body if isinstance(p, A.Atomic) else p, index)
        nh, nv = len(index.h_tuples), len(index.v_tuples)
        out = []
        for block in blocks:
            # the product's rows, split by visible value: pairs is v-major, so
            # column j belongs to the visible value at place j // nh
            split = [[{} for _ in block] for _ in range(nv)]
            for i, row in enumerate(block):
                for k, a in row.items():
                    for j, b in crows[k].items():
                        part = split[j // nh][i]
                        part[j] = part.get(j, ZERO) + a * b
            out += [x for x in split if keep_zero or any(x)]
        return out
    if isinstance(p, A.Seq):
        for q in p.stmts:
            blocks = _nf(q, index, blocks, keep_zero=keep_zero)
        return blocks
    if isinstance(p, (A.GeneralChoice, A.Cond)):
        weight_at, left, right = _branch(p)
        weights = [weight_at(index.scope.env(v, h)) for v, h in index.pairs]

        def scaled(ws):
            return [[{j: a * ws[j] for j, a in row.items() if ws[j]} for row in block] for block in blocks]

        return (
            _nf(left, index, scaled(weights), keep_zero=keep_zero)
            + _nf(right, index, scaled([1 - q for q in weights]), keep_zero=keep_zero)
        )
    if isinstance(p, (A.LocalBlock, A.Reveal, A.XorAssign)):
        raise UnsupportedConstruct(
            f"normal form does not cover {type(p).__name__}; use the direct evaluator"
        )
    raise TypeError(p)


def eval_via_normal_form(p: A.Program, scope: Scope, s: SplitState) -> HyperDist:
    """Push the split-state row through the program, one row per nonzero
    normal-form product, and regroup; agrees with the direct evaluator
    after reduction."""
    index = StateIndex.of_scope(scope)
    nh = len(index.h_tuples)
    start = {index.index(s.v, h): w for h, w in s.delta}
    pairs = []
    for [row] in _nf(p, index, [[start]], keep_zero=False):
        places = {j // nh for j in row}
        if len(places) != 1:
            raise InternalError("normal-form row is not V-unique")
        part = FiniteDist([(index.pairs[j][1], x) for j, x in row.items()])
        st, w = _split_state(index.v_tuples[places.pop()], part)
        pairs.append((st, w))
    return HyperDist(pairs)


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
    nh = len(index.h_tuples)
    into = {}  # intermediate position -> visible places of the states p1 takes to it
    for i, row in enumerate(classical_rows(p1, index)):
        for j in row:
            into.setdefault(j, set()).add(i // nh)
    c2 = classical_rows(p2, index)
    linking = {}  # (initial place, final place) -> intermediate places
    for j, sources in into.items():
        for jf in c2[j]:
            for t in sources:
                linking.setdefault((t, jf // nh), set()).add(j // nh)
    v = index.v_tuples
    for (t, f), between in sorted(linking.items()):
        if len(between) > 1:
            first, second = sorted(between)[:2]
            return AtomicityReport(False, (v[t], v[f], v[first], v[second]))
    return AtomicityReport(True)
