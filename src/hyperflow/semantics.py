"""Split-state semantics.

A program maps a split-state (v, delta) -- visible values known exactly,
hidden values known only as a full distribution delta -- to a
hyper-distribution: an outer distribution over final split-states.  The
outer layer is what an observer can tell apart (including implicit flow
and perfect recall of overwritten visibles); the inner deltas are the
residual uncertainty about the hidden variables.

Syntactically atomic commands are interpreted by running the classical
(relational) semantics pointwise and re-hiding the result; compound
commands compose hyper-distributions as defined here.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import DistNotOneSumming, EvalError, UnsupportedConstruct
from .lang import ast as A
from .probcore import (
    ONE,
    ZERO,
    FiniteDist,
    Value,
    posterior,
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
        return tuple(d.name for d in self.visible)

    def hidden_names(self):
        return tuple(d.name for d in self.hidden)


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


class HyperDist:
    """Canonical outer distribution over split-states (weight exactly 1).

    Iterating yields (split-state, weight) pairs unordered; `items()` and
    `repr` give them in the canonical order of `SplitState.key`.
    """

    __slots__ = ("outer",)

    def __init__(self, pairs: Iterable[tuple[SplitState, Fraction]]):
        outer = FiniteDist(pairs)
        if not outer.is_full:
            raise EvalError(f"hyper-distribution has outer weight {outer.weight} != 1")
        self.outer = outer

    @classmethod
    def point(cls, s: SplitState) -> "HyperDist":
        return cls([(s, ONE)])

    def items(self):
        return self.outer.items()

    def __iter__(self):
        return iter(self.outer)

    def __len__(self):
        return len(self.outer)

    def __eq__(self, other):
        return isinstance(other, HyperDist) and self.outer == other.outer

    def __hash__(self):
        return hash(self.outer)

    def __repr__(self):
        return "Hyper{" + ", ".join(f"{s!r}@{rat_str(w)}" for s, w in self.items()) + "}"

    def visible_values(self) -> list[tuple[Value, ...]]:
        return sorted({s.v for s, _ in self}, key=value_key)


def reduce_hyper(pairs) -> HyperDist:
    """Merge equal split-states and drop zero weights.

    Only *equal* (v, delta) pairs merge; similar-but-unequal inner
    distributions stay separate, since telling them apart is exactly the
    attacker power the model grants.
    """
    return HyperDist(pairs)


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


def _num(v: Value, what: str) -> Fraction:
    if v.kind == "num":
        return v.payload
    if v.kind == "bool":
        return ONE if v.payload else ZERO
    raise EvalError(f"{what}: expected a number, got {v}")


def _boolean(v: Value, what: str) -> bool:
    if v.kind != "bool":
        raise EvalError(f"{what}: expected a boolean, got {v}")
    return v.payload


def _int(q: Fraction, what: str) -> int:
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
        op = e.op
        if op in ("and", "or"):
            left = _boolean(eval_expr(e.left, env), op)
            if op == "and" and not left:
                return vbool(False)
            if op == "or" and left:
                return vbool(True)
            return vbool(_boolean(eval_expr(e.right, env), op))
        lv = eval_expr(e.left, env)
        rv = eval_expr(e.right, env)
        if op == "xor":
            return vbool(_boolean(lv, op) != _boolean(rv, op))
        if op in ("=", "!="):
            eq = lv == rv
            return vbool(eq if op == "=" else not eq)
        ln, rn = _num(lv, op), _num(rv, op)
        if op == "+":
            return vnum(ln + rn)
        if op == "-":
            return vnum(ln - rn)
        if op == "*":
            return vnum(ln * rn)
        if op == "/":
            if rn == 0:
                raise EvalError("division by zero")
            return vnum(ln / rn)
        if op == "div":
            rz = _int(rn, "div")
            if rz == 0:
                raise EvalError("div by zero")
            return vnum(_int(ln, "div") // rz)
        if op == "mod":
            rz = _int(rn, "mod")
            if rz == 0:
                raise EvalError("mod by zero")
            return vnum(_int(ln, "mod") % rz)
        if op == "<":
            return vbool(ln < rn)
        if op == "<=":
            return vbool(ln <= rn)
        if op == ">":
            return vbool(ln > rn)
        if op == ">=":
            return vbool(ln >= rn)
        raise TypeError(op)
    if isinstance(e, A.IfExpr):
        if _boolean(eval_expr(e.guard, env), "if"):
            return eval_expr(e.then_branch, env)
        return eval_expr(e.else_branch, env)
    raise TypeError(e)


def eval_prob(e: A.Expr, env) -> Fraction:
    q = _num(eval_expr(e, env), "probability")
    if not (0 <= q <= 1):
        raise EvalError(f"probability {q} outside [0,1]")
    return q


def eval_dist(d: A.DistExpr, env) -> FiniteDist:
    """Evaluate a distribution expression; weights must sum to exactly 1."""
    if isinstance(d, A.DistCond):
        branch = d.then_branch if _boolean(eval_expr(d.guard, env), "dist guard") else d.else_branch
        return eval_dist(branch, env)
    if isinstance(d, A.DistUniform):
        share = Fraction(1, len(d.exprs))
        pairs = [(eval_expr(x, env), share) for x in d.exprs]
    else:
        pairs = []
        for value_expr, prob_expr in d.entries:
            q = _num(eval_expr(prob_expr, env), "weight")
            if q < 0:
                raise DistNotOneSumming(f"negative weight {q}")
            pairs.append((eval_expr(value_expr, env), q))
    total = sum((q for _, q in pairs), ZERO)
    if total != 1:
        raise DistNotOneSumming(f"weights sum to {total}, not 1")
    return FiniteDist(pairs)


def _env_of(scope: Scope, v: tuple, h: tuple, consts: dict) -> dict:
    env = dict(consts)
    env.update(zip(scope.visible_names(), v))
    env.update(zip(scope.hidden_names(), h))
    return env


def _consts(scope: Scope) -> dict:
    return base_env(scope.visible + scope.hidden)


def _check_domain(decl: A.VarDecl, value: Value):
    if value not in decl.domain:
        raise EvalError(f"value {value} outside the domain of {decl.name}")


# ---------------------------------------------------------------------------
# Classical (relational) semantics
# ---------------------------------------------------------------------------


def classical_eval(p: A.Program, scope: Scope, state: tuple[tuple, tuple]) -> FiniteDist:
    """Probabilistic relational meaning, ignoring visibility.

    Returns a full distribution over (visible tuple, hidden tuple) pairs.
    The program must be desugared (no reveal, no xor-assign).
    """
    return _classical(p, scope, state[0], state[1], _consts(scope))


def _classical(p, scope: Scope, v, h, consts) -> FiniteDist:
    if isinstance(p, A.Skip):
        return FiniteDist.point((v, h))
    if isinstance(p, (A.Assign, A.Choose)):
        env = _env_of(scope, v, h, consts)
        if isinstance(p, A.Assign):
            dist = FiniteDist.point(eval_expr(p.expr, env))
        else:
            dist = eval_dist(p.dist, env)
        vis_names = scope.visible_names()
        if p.target in vis_names:
            i = vis_names.index(p.target)
            decl = scope.visible[i]
            out = []
            for value, w in dist:
                _check_domain(decl, value)
                out.append(((v[:i] + (value,) + v[i + 1:], h), w))
            return FiniteDist(out)
        hid_names = scope.hidden_names()
        if p.target in hid_names:
            i = hid_names.index(p.target)
            decl = scope.hidden[i]
            out = []
            for value, w in dist:
                _check_domain(decl, value)
                out.append(((v, h[:i] + (value,) + h[i + 1:]), w))
            return FiniteDist(out)
        raise EvalError(f"assignment to unknown variable {p.target}")
    if isinstance(p, A.Seq):
        first = _classical(p.first, scope, v, h, consts)
        acc: list = []
        for (v1, h1), w in first:
            for st, w2 in _classical(p.second, scope, v1, h1, consts):
                acc.append((st, w * w2))
        return FiniteDist(acc)
    if isinstance(p, A.GeneralChoice):
        q = eval_prob(p.prob, _env_of(scope, v, h, consts))
        acc = []
        if q > 0:
            acc.extend((st, q * w) for st, w in _classical(p.left, scope, v, h, consts))
        if q < 1:
            acc.extend(
                (st, (1 - q) * w) for st, w in _classical(p.right, scope, v, h, consts)
            )
        return FiniteDist(acc)
    if isinstance(p, A.Cond):
        taken = p.then_branch if _boolean(
            eval_expr(p.guard, _env_of(scope, v, h, consts)), "guard"
        ) else p.else_branch
        return _classical(taken, scope, v, h, consts)
    if isinstance(p, A.Atomic):
        return _classical(p.body, scope, v, h, consts)
    if isinstance(p, A.LocalBlock):
        inner_scope = scope
        for ld in p.decls:
            inner_scope = inner_scope.extend(ld.decl)
        inner_consts = _consts(inner_scope)

        # locals are appended in declaration order; an init may read the
        # locals declared before it, never the variable it declares
        def enter(vv, hh, k) -> FiniteDist:
            if k == len(p.decls):
                return _classical(p.body, inner_scope, vv, hh, inner_consts)
            decl, init = p.decls[k].decl, p.decls[k].init
            env = dict(inner_consts)
            env.update(zip([d.name for d in inner_scope.visible], vv))
            env.update(zip([d.name for d in inner_scope.hidden], hh))
            dist = (
                eval_dist(init, env)
                if init is not None
                else FiniteDist.uniform(decl.domain.values)
            )
            acc = []
            for value, w in dist:
                _check_domain(decl, value)
                nv, nh = (vv + (value,), hh) if decl.visibility.kind == "vis" else (vv, hh + (value,))
                for st, w2 in enter(nv, nh, k + 1):
                    acc.append((st, w * w2))
            return FiniteDist(acc)

        out = enter(v, h, 0)
        nv_glob = len(scope.visible)
        nh_glob = len(scope.hidden)
        return out.map(lambda st: (st[0][:nv_glob], st[1][:nh_glob]))
    if isinstance(p, (A.Reveal, A.XorAssign)):
        raise UnsupportedConstruct(f"{type(p).__name__} must be desugared before evaluation")
    raise TypeError(p)


# ---------------------------------------------------------------------------
# The Hide embedding
# ---------------------------------------------------------------------------


def hide_embed(joint: FiniteDist) -> HyperDist:
    """Group a full joint (v,h) distribution by its visible part.

    For each visible value in the projection: one split-state pairing it
    with the conditional hidden distribution, weighted by the projection.
    """
    groups: dict[tuple, list] = {}
    for (v, h), w in joint:
        groups.setdefault(v, []).append((h, w))
    pairs = []
    for v, entries in groups.items():
        p = sum((w for _, w in entries), ZERO)
        inv = 1 / p
        delta = FiniteDist([(h, w * inv) for h, w in entries])
        pairs.append((SplitState(v, delta), p))
    return HyperDist(pairs)


# ---------------------------------------------------------------------------
# Hyper-distribution semantics
# ---------------------------------------------------------------------------


def eval_atomic_block(p: A.Program, scope: Scope, s: SplitState) -> HyperDist:
    """Classical meaning applied under the incoming ignorance, then re-hidden.

    This imposes the largest ignorance of the final hidden values that is
    consistent with the visible output: perfect recall and implicit flow
    inside p are both suppressed.
    """
    consts = _consts(scope)
    acc: list = []
    for h, w in s.delta:
        for st, w2 in _classical(p, scope, s.v, h, consts):
            acc.append((st, w * w2))
    return hide_embed(FiniteDist(acc))


def eval(p: A.Program, scope: Scope, s: SplitState) -> HyperDist:
    """Hyper-distribution semantics of a validated, desugared program."""
    return _eval(p, scope, s, _consts(scope))


def eval_module(module: A.Module, s: SplitState) -> HyperDist:
    from .lang.transform import desugar

    desugared = desugar(module)
    scope = Scope.of_module(desugared)
    return eval(desugared.body, scope, s)


def _scale_hyper(pairs, c: Fraction):
    return [(st, w * c) for st, w in pairs]


def _eval(p, scope: Scope, s: SplitState, consts) -> HyperDist:
    if isinstance(p, A.Skip):
        return HyperDist.point(s)

    if isinstance(p, (A.Assign, A.Choose)):
        target = p.target
        vis_names = scope.visible_names()
        hid_names = scope.hidden_names()

        def dist_at(h) -> FiniteDist:
            env = _env_of(scope, s.v, h, consts)
            if isinstance(p, A.Assign):
                return FiniteDist.point(eval_expr(p.expr, env))
            return eval_dist(p.dist, env)

        if target in vis_names:
            i = vis_names.index(target)
            decl = scope.visible[i]
            # outer: push the chosen value through delta; inner: condition
            # delta on having produced that value
            joint: dict[Value, list] = {}
            for h, w in s.delta:
                for value, q in dist_at(h):
                    _check_domain(decl, value)
                    joint.setdefault(value, []).append((h, w * q))
            pairs = []
            for value, entries in joint.items():
                pv = sum((w for _, w in entries), ZERO)
                inv = 1 / pv
                delta = FiniteDist([(h, w * inv) for h, w in entries])
                pairs.append((SplitState(s.v[:i] + (value,) + s.v[i + 1:], delta), pv))
            return HyperDist(pairs)

        if target in hid_names:
            i = hid_names.index(target)
            decl = scope.hidden[i]
            acc = []
            for h, w in s.delta:
                for value, q in dist_at(h):
                    _check_domain(decl, value)
                    acc.append((h[:i] + (value,) + h[i + 1:], w * q))
            return HyperDist.point(SplitState(s.v, FiniteDist(acc)))

        raise EvalError(f"assignment to unknown variable {target}")

    if isinstance(p, A.Seq):
        first = _eval(p.first, scope, s, consts)
        acc: list = []
        for st, w in first:
            acc.extend(_scale_hyper(_eval(p.second, scope, st, consts), w))
        return reduce_hyper(acc)

    if isinstance(p, A.GeneralChoice):
        # an observer sees which branch ran, and each branch's entry
        # conditions the hidden distribution on having taken it
        def q_at(h):
            return eval_prob(p.prob, _env_of(scope, s.v, h, consts))

        prob = sum((w * q_at(h) for h, w in s.delta), ZERO)
        acc = []
        if prob > 0:
            left_delta = posterior(s.delta, q_at)
            left = _eval(p.left, scope, SplitState(s.v, left_delta), consts)
            acc.extend(_scale_hyper(left, prob))
        if prob < 1:
            right_delta = posterior(s.delta, lambda h: 1 - q_at(h))
            right = _eval(p.right, scope, SplitState(s.v, right_delta), consts)
            acc.extend(_scale_hyper(right, 1 - prob))
        return reduce_hyper(acc)

    if isinstance(p, A.Cond):
        def g_at(h):
            return _boolean(eval_expr(p.guard, _env_of(scope, s.v, h, consts)), "guard")

        prob = sum((w for h, w in s.delta if g_at(h)), ZERO)
        acc = []
        if prob > 0:
            then_delta = posterior(s.delta, g_at)
            acc.extend(
                _scale_hyper(
                    _eval(p.then_branch, scope, SplitState(s.v, then_delta), consts),
                    prob,
                )
            )
        if prob < 1:
            else_delta = posterior(s.delta, lambda h: not g_at(h))
            acc.extend(
                _scale_hyper(
                    _eval(p.else_branch, scope, SplitState(s.v, else_delta), consts),
                    1 - prob,
                )
            )
        return reduce_hyper(acc)

    if isinstance(p, A.Atomic):
        return eval_atomic_block(p.body, scope, s)

    if isinstance(p, A.LocalBlock):
        inner_scope = scope
        hyper = HyperDist.point(s)
        for ld in p.decls:
            decl, init = ld.decl, ld.init
            dist = init if init is not None else A.DistUniform(
                tuple(A.Lit(v) for v in decl.domain.values)
            )
            placeholder = decl.domain.values[0]
            extended = []
            for st, w in hyper:
                if decl.visibility.kind == "vis":
                    st2 = SplitState(st.v + (placeholder,), st.delta)
                else:
                    st2 = SplitState(st.v, st.delta.map(lambda h: h + (placeholder,)))
                extended.append((st2, w))
            inner_scope = inner_scope.extend(decl)
            inner_consts = _consts(inner_scope)
            choose = A.Choose(decl.name, dist)
            acc = []
            for st, w in HyperDist(extended):
                acc.extend(_scale_hyper(_eval(choose, inner_scope, st, inner_consts), w))
            hyper = reduce_hyper(acc)
        inner_consts = _consts(inner_scope)
        acc = []
        for st, w in hyper:
            acc.extend(_scale_hyper(_eval(p.body, inner_scope, st, inner_consts), w))
        result = reduce_hyper(acc)
        # exit: erase local visibles from v (their observations persist as
        # outer splitting), then marginalise local hiddens out of delta
        nv, nh = len(scope.visible), len(scope.hidden)
        trimmed = []
        for st, w in result:
            delta = st.delta.map(lambda h: h[:nh])
            trimmed.append((SplitState(st.v[:nv], delta), w))
        return reduce_hyper(trimmed)

    if isinstance(p, (A.Reveal, A.XorAssign)):
        raise UnsupportedConstruct(f"{type(p).__name__} must be desugared before evaluation")
    raise TypeError(p)
