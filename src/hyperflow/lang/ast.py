"""AST for the analysis language.

Nodes are frozen dataclasses; source positions are carried on the side
(compare=False) so that structural equality ignores layout, which is what
the parse/pretty-print round-trip law needs.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..probcore import Domain, Value


@dataclass(frozen=True)
class Pos:
    line: int
    col: int


def _pos_field():
    return field(default=None, compare=False, repr=False)


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Visibility:
    """Global-visible, global-hidden, or visible to a set of agents."""

    kind: str  # 'vis' | 'hid'
    agents: Optional[tuple[str, ...]] = None  # only with kind == 'vis'

    def __post_init__(self):
        if self.kind not in ("vis", "hid"):
            raise ValueError(self.kind)
        if self.agents is not None and self.kind != "vis":
            raise ValueError("agent sets only apply to vis")

    def __str__(self):
        if self.kind == "hid":
            return "hid"
        if self.agents is None:
            return "vis"
        return "vis{" + ",".join(self.agents) + "}"


VIS = Visibility("vis")
HID = Visibility("hid")


@dataclass(frozen=True)
class VarDecl:
    name: str
    domain: Domain
    visibility: Visibility
    pos: Optional[Pos] = _pos_field()


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

class Expr:
    pass


@dataclass(frozen=True)
class Lit(Expr):
    value: Value
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class Name(Expr):
    ident: str
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class Unop(Expr):
    op: str  # '-' | 'not'
    operand: Expr
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class Binop(Expr):
    op: str  # a key of BINOPS
    left: Expr
    right: Expr
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class Op:
    """A binary operator.  Operand kinds: 'bool'; 'num' (booleans count as
    0/1); 'int' (a 'num' that must be an integer at run time); 'any' (any value)."""

    level: int  # binding strength; a greater level binds tighter
    operand: str  # 'bool' | 'num' | 'int' | 'any'
    result: str  # 'bool' | 'num'
    fn: Callable
    by_zero: Optional[str] = None  # run-time error text for a zero right operand
    decides: Optional[bool] = None  # a left operand equal to this is the result


# Binding levels, loosest first: 0 is the conditional expression, then the
# levels of BINOPS with prefix `not` among them, then unary minus.
NOT_LEVEL = 4
CMP_LEVEL = 5
UNARY_LEVEL = 8

BINOPS: dict[str, Op] = {
    "or": Op(1, "bool", "bool", operator.or_, decides=True),
    "xor": Op(2, "bool", "bool", operator.ne),
    "and": Op(3, "bool", "bool", operator.and_, decides=False),
    "=": Op(CMP_LEVEL, "any", "bool", operator.eq),
    "!=": Op(CMP_LEVEL, "any", "bool", operator.ne),
    "<": Op(CMP_LEVEL, "num", "bool", operator.lt),
    "<=": Op(CMP_LEVEL, "num", "bool", operator.le),
    ">": Op(CMP_LEVEL, "num", "bool", operator.gt),
    ">=": Op(CMP_LEVEL, "num", "bool", operator.ge),
    "+": Op(6, "num", "num", operator.add),
    "-": Op(6, "num", "num", operator.sub),
    "*": Op(7, "num", "num", operator.mul),
    "div": Op(7, "int", "num", operator.floordiv, "div by zero"),
    "mod": Op(7, "int", "num", operator.mod, "mod by zero"),
    "/": Op(7, "num", "num", operator.truediv, "division by zero"),
}


@dataclass(frozen=True)
class IfExpr(Expr):
    """`then_branch if guard else else_branch` (guard in the middle)."""

    then_branch: Expr
    guard: Expr
    else_branch: Expr
    pos: Optional[Pos] = _pos_field()


# ---------------------------------------------------------------------------
# Distribution expressions
# ---------------------------------------------------------------------------

class DistExpr:
    pass


@dataclass(frozen=True)
class DistExplicit(DistExpr):
    entries: tuple[tuple[Expr, Expr], ...]  # (value expr, probability expr)
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class DistUniform(DistExpr):
    exprs: tuple[Expr, ...]
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True, init=False)
class DistCond(DistExpr):
    """`(d1 if g1 else (d2 if g2 else d3))`: the then-branch of the first
    arm whose guard holds, else `otherwise`.  The constructor takes the arms
    flat, DistCond(d1, g1, d2, g2, d3), and absorbs a DistCond otherwise as
    Seq absorbs a Seq; a then-branch conditional stays nested."""

    arms: tuple[tuple[DistExpr, Expr], ...]  # (then, guard)
    otherwise: DistExpr
    pos: tuple[Optional[Pos], ...] = _pos_field()  # one per arm

    def __init__(self, *parts, pos: Optional[tuple] = None):
        *flat, otherwise = parts
        if not flat or len(flat) % 2:
            raise ValueError("a conditional distribution needs then, guard pairs and an otherwise")
        arms = tuple(zip(flat[::2], flat[1::2]))
        pos = pos or (None,) * len(arms)
        if isinstance(otherwise, DistCond):
            arms, pos, otherwise = arms + otherwise.arms, pos + otherwise.pos, otherwise.otherwise
        object.__setattr__(self, "arms", arms)
        object.__setattr__(self, "otherwise", otherwise)
        object.__setattr__(self, "pos", pos)


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------

class Program:
    pass


@dataclass(frozen=True)
class Skip(Program):
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class Assign(Program):
    target: str
    expr: Expr
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class Choose(Program):
    target: str
    dist: DistExpr
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class XorAssign(Program):
    """`(x xor y) := e`: set x,y jointly so that x xor y = e, uniformly."""

    first: str
    second: str
    expr: Expr
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True, init=False)
class Seq(Program):
    """Two or more statements run in order; none of them is a Seq.

    Sequential composition is associative, so the constructor flattens
    Seq arguments: Seq(Seq(a, b), c) == Seq(a, Seq(b, c)) == Seq(a, b, c).
    """

    stmts: tuple[Program, ...]
    pos: Optional[Pos] = _pos_field()

    def __init__(self, *stmts: Program, pos: Optional[Pos] = None):
        flat = tuple(q for p in stmts for q in (p.stmts if isinstance(p, Seq) else (p,)))
        if len(flat) < 2:
            raise ValueError("a sequence needs at least two statements")
        object.__setattr__(self, "stmts", flat)
        object.__setattr__(self, "pos", pos)


@dataclass(frozen=True)
class GeneralChoice(Program):
    """Run left with probability prob (an expression in v,h), else right."""

    left: Program
    prob: Expr
    right: Program
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class Cond(Program):
    guard: Expr
    then_branch: Program
    else_branch: Program
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class Atomic(Program):
    body: Program
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class Reveal(Program):
    expr: Expr
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class LocalDecl:
    decl: VarDecl
    init: Optional[DistExpr]  # None only under the uniform-default flag


@dataclass(frozen=True)
class LocalBlock(Program):
    decls: tuple[LocalDecl, ...]
    body: Program
    pos: Optional[Pos] = _pos_field()


@dataclass(frozen=True)
class Module:
    """A parsed source file: global declarations plus one program."""

    decls: tuple[VarDecl, ...]
    body: Program

    def decl_map(self) -> dict[str, VarDecl]:
        return {d.name: d for d in self.decls}


def statements(p: Program) -> tuple[Program, ...]:
    """The statements of a sequence, left to right; (p,) for any other p."""
    return p.stmts if isinstance(p, Seq) else (p,)


def _children(p: Program) -> tuple[Program, ...]:
    if isinstance(p, Seq):
        return p.stmts
    if isinstance(p, GeneralChoice):
        return p.left, p.right
    if isinstance(p, Cond):
        return p.then_branch, p.else_branch
    if isinstance(p, (Atomic, LocalBlock)):
        return (p.body,)
    return ()


def walk(p: Program):
    """Every program node of p in source order, without recursion."""
    stack = [p]
    while stack:
        q = stack.pop()
        yield q
        stack += reversed(_children(q))


def map_children(p: Program, f) -> Program:
    """p rebuilt with f applied to each child program, in source order.

    The node keeps its own fields and position; a node with no child
    program is returned as it is.
    """
    if isinstance(p, Seq):
        return Seq(*map(f, p.stmts), pos=p.pos)
    if isinstance(p, GeneralChoice):
        return GeneralChoice(f(p.left), p.prob, f(p.right), p.pos)
    if isinstance(p, Cond):
        return Cond(p.guard, f(p.then_branch), f(p.else_branch), p.pos)
    if isinstance(p, Atomic):
        return Atomic(f(p.body), p.pos)
    if isinstance(p, LocalBlock):
        return LocalBlock(p.decls, f(p.body), p.pos)
    return p


def declarations(module: Module):
    """Every variable declaration of the module, global or local."""
    yield from module.decls
    for p in walk(module.body):
        if isinstance(p, LocalBlock):
            for ld in p.decls:
                yield ld.decl


def node_count(p: Program) -> int:
    return sum(1 for _ in walk(p))
