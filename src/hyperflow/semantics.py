"""Split-state semantics.

A program maps a split-state (v, delta) -- visible values known exactly,
hidden values known only as a full distribution delta -- to a
hyper-distribution: an outer distribution over final split-states.  The
outer layer is what an observer can tell apart (including implicit flow
and perfect recall of overwritten visibles); the inner deltas are the
residual uncertainty about the hidden variables.

One kernel gives every syntactically atomic command its meaning: the
classical (relational) semantics run from each hidden point, then Hide
(`eval_atomic_block`), on integer numerators over one common denominator.
Assignments, choices, `atomic{..}` bodies and local-block initialisers all
go through it.  Compound commands compose
hyper-distributions: conditionals and probabilistic choices share one
branch helper (a guard is a 0/1 weight), and a sequence is a left fold over
its statements that merges equal split-states after each one.  The
classical semantics is built the same way.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import DistNotOneSumming, EvalError, UnsupportedConstruct
from .lang import ast as A
from .lang.transform import desugar
from .probcore import (
    FiniteDist,
    Value,
    normalize,
    rat_str,
    value_key,
    vbool,
    vnum,
)

# ---------------------------------------------------------------------------
# Scopes and states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scope:
    """Ordered visible and hidden variables with their domains."""

    visible: tuple[A.VarDecl, ...]
    hidden: tuple[A.VarDecl, ...]

    def __post_init__(self):
        # every atomic step looks names up, so they are computed once
        object.__setattr__(self, "_vis_names", tuple(d.name for d in self.visible))
        object.__setattr__(self, "_hid_names", tuple(d.name for d in self.hidden))
        slots = {d.name: (False, i, d) for i, d in enumerate(self.hidden)}
        slots.update({d.name: (True, i, d) for i, d in enumerate(self.visible)})
        object.__setattr__(self, "_slots", slots)
        object.__setattr__(self, "_consts", base_env(self.visible + self.hidden))

    @classmethod
    def of_module(cls, module: A.Module) -> "Scope":
        vis, hid = [], []
        for d in module.decls:
            if d.visibility.agents is not None:
                raise UnsupportedConstruct(
                    f"{d.name} has an agent-set annotation; project a view first"
                )
            (vis if d.visibility.kind == "vis" else hid).append(d)
        return cls(tuple(vis), tuple(hid))

    def extend(self, decl: A.VarDecl) -> "Scope":
        if decl.visibility.kind == "vis":
            return Scope(self.visible + (decl,), self.hidden)
        return Scope(self.visible, self.hidden + (decl,))

    def visible_names(self):
        return self._vis_names

    def hidden_names(self):
        return self._hid_names

    def env(self, v: tuple, h: tuple) -> dict:
        """The environment at (v, h): the enum constants, then the variables."""
        env = dict(self._consts)
        env.update(zip(self._vis_names, v))
        env.update(zip(self._hid_names, h))
        return env

    def _slot(self, name: str) -> tuple[bool, int, A.VarDecl]:
        """(is visible, index in its tuple, declaration) of a variable."""
        try:
            return self._slots[name]
        except KeyError:
            raise EvalError(f"assignment to unknown variable {name}") from None


@dataclass(frozen=True)
class SplitState:
    v: tuple[Value, ...]
    delta: FiniteDist  # full distribution over hidden-value tuples

    def __post_init__(self):
        if not self.delta.is_full:
            raise EvalError(f"split-state delta has weight {self.delta.weight} != 1")

    def key(self):
        return (value_key(self.v), value_key(self.delta))

    def __repr__(self):
        return f"({','.join(map(str, self.v)) or '()'}, {self.delta!r})"


class HyperDist(FiniteDist):
    """A hyper-distribution: a full `FiniteDist` over split-states.

    Only the weight-1 check, the `Hyper{..}` repr and `visible_values` are
    its own; iteration, equality, hashing and `items()` (in the canonical
    order of `SplitState.key`) are the distribution's.  Construction
    merges equal split-states and drops zero weights.  Only *equal*
    (v, delta) pairs merge; similar-but-unequal inner distributions stay
    separate, since telling them apart is exactly the attacker power the
    model grants.
    """

    __slots__ = ()

    def _store(self, nums: dict, den: int) -> None:
        super()._store(nums, den)
        if not self.is_full:
            raise EvalError(f"hyper-distribution has outer weight {self.weight} != 1")

    def __repr__(self):
        return "Hyper{" + ", ".join(f"{s!r}@{rat_str(w)}" for s, w in self.items()) + "}"

    def visible_values(self) -> list[tuple[Value, ...]]:
        return sorted({s.v for s, _ in self}, key=value_key)


# ---------------------------------------------------------------------------
# Expression evaluation
# ---------------------------------------------------------------------------


def base_env(decls) -> dict[str, Value]:
    """Environment holding every enum constant mentioned in the domains."""
    env: dict[str, Value] = {}
    for d in decls:
        for v in d.domain.values:
            if v.kind == "sym":
                env[v.payload] = v
    return env


def _num(v: Value, what: str):
    """The int or Fraction of a number; a boolean counts as 0 or 1."""
    if v.kind == "num":
        return v.payload
    if v.kind == "bool":
        return int(v.payload)
    raise EvalError(f"{what}: expected a number, got {v}")


def _boolean(v: Value, what: str) -> bool:
    if v.kind != "bool":
        raise EvalError(f"{what}: expected a boolean, got {v}")
    return v.payload


def _int(q, what: str) -> int:
    if q.denominator != 1:
        raise EvalError(f"{what}: expected an integer, got {q}")
    return q.numerator


def eval_expr(e: A.Expr, env: dict[str, Value]) -> Value:
    if isinstance(e, A.Lit):
        return e.value
    if isinstance(e, A.Name):
        try:
            return env[e.ident]
        except KeyError:
            raise EvalError(f"unbound name {e.ident}") from None
    if isinstance(e, A.Unop):
        v = eval_expr(e.operand, env)
        if e.op == "-":
            return vnum(-_num(v, "'-'"))
        return vbool(not _boolean(v, "'not'"))
    if isinstance(e, A.Binop):
        op = A.BINOPS[e.op]
        lv = eval_expr(e.left, env)
        if op.decides is not None:  # and, or: the right operand runs only if needed
            if _boolean(lv, e.op) == op.decides:
                return lv
            return vbool(_boolean(eval_expr(e.right, env), e.op))
        rv = eval_expr(e.right, env)
        if op.operand == "any":
            return vbool(op.fn(lv, rv))
        if op.operand == "bool":
            return vbool(op.fn(_boolean(lv, e.op), _boolean(rv, e.op)))
        ln, rn = _num(lv, e.op), _num(rv, e.op)
        if op.operand == "int":
            rn = _int(rn, e.op)
        if op.by_zero and rn == 0:
            raise EvalError(op.by_zero)
        if op.operand == "int":
            ln = _int(ln, e.op)
        x = op.fn(ln, rn)
        return vbool(x) if op.result == "bool" else vnum(x)
    if isinstance(e, A.IfExpr):
        if _boolean(eval_expr(e.guard, env), "if"):
            return eval_expr(e.then_branch, env)
        return eval_expr(e.else_branch, env)
    raise TypeError(e)


def eval_prob(e: A.Expr, env):
    q = _num(eval_expr(e, env), "probability")
    if not (0 <= q <= 1):
        raise EvalError(f"probability {q} outside [0,1]")
    return q


def eval_dist(d: A.DistExpr, env) -> FiniteDist:
    """Evaluate a distribution expression; weights must sum to exactly 1."""
    if isinstance(d, A.DistCond):
        for then, guard in d.arms:
            if _boolean(eval_expr(guard, env), "dist guard"):
                return eval_dist(then, env)
        return eval_dist(d.otherwise, env)
    if isinstance(d, A.DistUniform):
        return FiniteDist.uniform([eval_expr(x, env) for x in d.exprs])
    pairs = []
    for value_expr, prob_expr in d.entries:
        q = _num(eval_expr(prob_expr, env), "weight")
        if q < 0:
            raise DistNotOneSumming(f"negative weight {q}")
        pairs.append((eval_expr(value_expr, env), q))
    total = sum(q for _, q in pairs)
    if total != 1:
        raise DistNotOneSumming(f"weights sum to {total}, not 1")
    return FiniteDist(pairs)


def _check_domain(decl: A.VarDecl, value: Value):
    if value not in decl.domain:
        raise EvalError(f"value {value} outside the domain of {decl.name}")


def _branch(p):
    """(left branch's weight at an environment, left, right) of a
    conditional or a probabilistic choice; a guard is a 0/1 weight."""
    if isinstance(p, A.Cond):
        def guard_at(env):
            return int(_boolean(eval_expr(p.guard, env), "guard"))

        return guard_at, p.then_branch, p.else_branch
    return (lambda env: eval_prob(p.prob, env)), p.left, p.right


def _block(p: A.LocalBlock, scope: Scope):
    """A local block as (statement, scope) steps.

    Each local is entered by a choice of its initial value, run in the
    scope that declares it from a state that does not hold it yet:
    `Scope.env` leaves it unbound, so the initialiser reads only the locals
    declared before it, and the write appends it to v or h.
    """
    steps = []
    for ld in p.decls:
        scope = scope.extend(ld.decl)
        init = ld.init if ld.init is not None else A.DistUniform(
            tuple(A.Lit(v) for v in ld.decl.domain.values)
        )
        steps.append((A.Choose(ld.decl.name, init), scope))
    return steps + [(p.body, scope)]


# ---------------------------------------------------------------------------
# Classical (relational) semantics
# ---------------------------------------------------------------------------


def classical_eval(p: A.Program, scope: Scope, state: tuple[tuple, tuple]) -> FiniteDist:
    """Probabilistic relational meaning, ignoring visibility.

    Returns a full distribution over (visible tuple, hidden tuple) pairs.
    The program must be desugared (no reveal, no xor-assign).
    """
    return FiniteDist(_classical(p, scope, state[0], state[1]))


def _classical_then(states, p, scope: Scope) -> FiniteDist:
    """Run p from each weighted (v, h) of states, merging equal outcomes."""
    return FiniteDist(
        [(st, w * w2) for (v, h), w in states for st, w2 in _classical(p, scope, v, h)]
    )


def _classical(p, scope: Scope, v, h):
    """((v', h'), weight) pairs of p's classical meaning from (v, h).

    The weights sum to 1; a point may occur more than once.
    """
    if isinstance(p, A.Skip):
        return [((v, h), 1)]
    if isinstance(p, (A.Assign, A.Choose)):
        env = scope.env(v, h)
        if isinstance(p, A.Assign):
            dist = ((eval_expr(p.expr, env), 1),)
        else:
            dist = eval_dist(p.dist, env)
        vis, i, decl = scope._slot(p.target)
        out = []
        for value, w in dist:
            _check_domain(decl, value)
            if vis:
                out.append(((v[:i] + (value,) + v[i + 1:], h), w))
            else:
                out.append(((v, h[:i] + (value,) + h[i + 1:]), w))
        return out
    if isinstance(p, A.Seq):
        states = [((v, h), 1)]
        for q in p.stmts:
            states = _classical_then(states, q, scope)
        return states
    if isinstance(p, (A.Cond, A.GeneralChoice)):
        weight_at, left, right = _branch(p)
        q = weight_at(scope.env(v, h))
        if q == 1:
            return _classical(left, scope, v, h)
        if q == 0:
            return _classical(right, scope, v, h)
        return [(st, q * w) for st, w in _classical(left, scope, v, h)] + [
            (st, (1 - q) * w) for st, w in _classical(right, scope, v, h)
        ]
    if isinstance(p, A.Atomic):
        return _classical(p.body, scope, v, h)
    if isinstance(p, A.LocalBlock):
        states = [((v, h), 1)]
        for q, q_scope in _block(p, scope):
            states = _classical_then(states, q, q_scope)
        nv, nh = len(scope.visible), len(scope.hidden)
        return [((v1[:nv], h1[:nh]), w) for (v1, h1), w in states]
    if isinstance(p, (A.Reveal, A.XorAssign)):
        raise UnsupportedConstruct(f"{type(p).__name__} must be desugared before evaluation")
    raise TypeError(p)


# ---------------------------------------------------------------------------
# The Hide embedding
# ---------------------------------------------------------------------------


def _times_weights(triples: list) -> tuple[list, int]:
    """Fraction-free products: for (key, n, w) triples, int n and rational
    w = a/b, the pairs (key, n * a * (L // b)) over L, the lcm of the b's."""
    lcd = lcm(*[w.denominator for _, _, w in triples])
    return [(k, n * w.numerator * (lcd // w.denominator)) for k, n, w in triples], lcd


def _split_state(v: tuple, part: FiniteDist) -> tuple[SplitState, Fraction]:
    """v with the sub-distribution part normalised into its delta, and
    part's weight."""
    return SplitState(v, normalize(part)), part.weight


def _hide(joint, den: int) -> HyperDist:
    """Hide: group ((v, h), numerator) pairs over den by their visible part.

    For each visible value, one split-state pairing it with the
    conditional hidden distribution, weighted by the projection.
    """
    groups: dict[tuple, dict] = {}
    for (v, h), n in joint:
        nums = groups.setdefault(v, {})
        nums[h] = nums.get(h, 0) + n
    return HyperDist(
        [_split_state(v, FiniteDist.of_numerators(nums, den)) for v, nums in groups.items()]
    )


def hide_embed(joint) -> HyperDist:
    """Group a full joint (v,h) distribution by its visible part.

    `joint` is a FiniteDist or any iterable of ((v, h), weight) pairs
    summing to 1.
    """
    nums, den = (joint if isinstance(joint, FiniteDist) else FiniteDist(joint)).numerators()
    return _hide(nums.items(), den)


# ---------------------------------------------------------------------------
# Hyper-distribution semantics
# ---------------------------------------------------------------------------


def eval_atomic_block(p: A.Program, scope: Scope, s: SplitState) -> HyperDist:
    """The kernel: p's classical meaning from each hidden point of s, then Hide.

    This imposes the largest ignorance of the final hidden values that is
    consistent with the visible output: perfect recall and implicit flow
    inside p are both suppressed.
    """
    nums, den = s.delta.numerators()
    joint, lcd = _times_weights(
        [(st, n, w) for h, n in nums.items() for st, w in _classical(p, scope, s.v, h)]
    )
    return _hide(joint, den * lcd)


def eval(p: A.Program, scope: Scope, s: SplitState) -> HyperDist:
    """Hyper-distribution semantics of a validated, desugared program."""
    return _eval(p, scope, s)


def eval_module(module: A.Module, s: SplitState) -> HyperDist:
    """The hyper-distribution of a parsed module from s: desugar, take the
    scope of its declarations, evaluate.  The one entry for evaluating a
    whole module; agent views are projected before it."""
    desugared = desugar(module)
    return eval(desugared.body, Scope.of_module(desugared), s)


def _then(hyper: HyperDist, p, scope: Scope) -> HyperDist:
    """Run p from each split-state of hyper, merging equal outcomes."""
    return HyperDist(
        [(st2, w * w2) for st, w in hyper for st2, w2 in _eval(p, scope, st)]
    )


def _eval(p, scope: Scope, s: SplitState) -> HyperDist:
    if isinstance(p, A.Skip):
        return HyperDist.point(s)
    if isinstance(p, (A.Assign, A.Choose, A.Atomic)):
        return eval_atomic_block(p, scope, s)
    if isinstance(p, A.Seq):
        hyper = HyperDist.point(s)
        for q in p.stmts:
            hyper = _then(hyper, q, scope)
        return hyper
    if isinstance(p, (A.Cond, A.GeneralChoice)):
        # an observer sees which branch ran, and each branch's entry
        # conditions the hidden distribution on having taken it: of h's n,
        # n * q goes left and n * (1 - q) right
        weight_at, left, right = _branch(p)
        nums, den = s.delta.numerators()
        taken, lcd = _times_weights(
            [(h, n, weight_at(scope.env(s.v, h))) for h, n in nums.items()]
        )
        parts = (
            {h: t for h, t in taken if t},
            {h: nums[h] * lcd - t for h, t in taken if t != nums[h] * lcd},
        )
        acc = []
        for branch, part in zip((left, right), parts):
            if part:
                st, prob = _split_state(s.v, FiniteDist.of_numerators(part, den * lcd))
                acc += [(st2, prob * w2) for st2, w2 in _eval(branch, scope, st)]
        return HyperDist(acc)
    if isinstance(p, A.LocalBlock):
        hyper = HyperDist.point(s)
        for q, q_scope in _block(p, scope):
            hyper = _then(hyper, q, q_scope)
        # exit: erase local visibles from v (their observations persist as
        # outer splitting), then marginalise local hiddens out of delta
        nv, nh = len(scope.visible), len(scope.hidden)
        return HyperDist(
            [(SplitState(st.v[:nv], st.delta.map(lambda h: h[:nh])), w) for st, w in hyper]
        )
    if isinstance(p, (A.Reveal, A.XorAssign)):
        raise UnsupportedConstruct(f"{type(p).__name__} must be desugared before evaluation")
    raise TypeError(p)
