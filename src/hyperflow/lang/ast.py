"""AST for the analysis language.

Nodes share one slotted `Node` base; source positions are carried on the
side, outside equality, so that structural equality ignores layout, which
is what the parse/pretty-print round-trip law needs.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Callable, Optional


class Node:
    """An immutable record of the fields named in `_fields`.

    As in CPython's `ast.AST`, the constructor, equality, hashing and repr
    are written once here and read `_fields`, which each class also
    declares as its `__slots__`.  The constructor takes the fields in
    order, then the optional source position `pos`, positionally or by
    keyword.  `pos` is left out of equality, hashing and repr.
    """

    __slots__ = ("pos",)
    _fields: tuple[str, ...] = ()

    def __init__(self, *args, pos=None):
        fields = self._fields
        if len(args) == len(fields) + 1:
            *args, pos = args
        elif len(args) != len(fields):
            raise TypeError(f"{type(self).__name__} takes {len(fields)} fields, got {len(args)}")
        for name, value in zip(fields, args):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "pos", pos)

    def field_values(self) -> tuple:
        """The values of the fields, in `_fields` order."""
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        return self is other or (
            other.__class__ is self.__class__ and self.field_values() == other.field_values()
        )

    def __hash__(self):
        return hash(self.field_values())

    def __repr__(self):
        body = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable node")

    __delattr__ = __setattr__


class Pos(Node):
    __slots__ = _fields = ("line", "col")


# ---------------------------------------------------------------------------
# Declarations
# ---------------------------------------------------------------------------

class Visibility(Node):
    """Global-visible, global-hidden, or visible to a set of agents."""

    __slots__ = _fields = ("kind", "agents")  # 'vis' | 'hid'; agents only with 'vis'

    def __init__(self, kind: str, agents: Optional[tuple[str, ...]] = None):
        if kind not in ("vis", "hid"):
            raise ValueError(kind)
        if agents is not None and kind != "vis":
            raise ValueError("agent sets only apply to vis")
        super().__init__(kind, agents)

    def __str__(self):
        if self.kind == "hid":
            return "hid"
        if self.agents is None:
            return "vis"
        return "vis{" + ",".join(self.agents) + "}"


VIS = Visibility("vis")
HID = Visibility("hid")


class VarDecl(Node):
    __slots__ = _fields = ("name", "domain", "visibility")


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

class Expr(Node):
    __slots__ = ()


class Lit(Expr):
    __slots__ = _fields = ("value",)


class Name(Expr):
    __slots__ = _fields = ("ident",)


class Unop(Expr):
    __slots__ = _fields = ("op", "operand")  # op: '-' | 'not'


class Binop(Expr):
    __slots__ = _fields = ("op", "left", "right")  # op: a key of BINOPS


class Op(Node):
    """A binary operator.  Operand kinds: 'bool'; 'num' (booleans count as
    0/1); 'int' (a 'num' that must be an integer at run time); 'any' (any value)."""

    # level: binding strength, a greater level binds tighter; operand:
    # 'bool' | 'num' | 'int' | 'any'; result: 'bool' | 'num'; by_zero: run-time
    # error text for a zero right operand; decides: a left operand equal to
    # this is the result
    __slots__ = _fields = ("level", "operand", "result", "fn", "by_zero", "decides")

    def __init__(
        self, level: int, operand: str, result: str, fn: Callable, by_zero=None, decides=None
    ):
        super().__init__(level, operand, result, fn, by_zero, decides)


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
    "/": Op(7, "num", "num", Fraction, "division by zero"),  # exact: Fraction(a, b)
}


class IfExpr(Expr):
    """`then_branch if guard else else_branch` (guard in the middle)."""

    __slots__ = _fields = ("then_branch", "guard", "else_branch")


# ---------------------------------------------------------------------------
# Distribution expressions
# ---------------------------------------------------------------------------

class DistExpr(Node):
    __slots__ = ()


class DistExplicit(DistExpr):
    __slots__ = _fields = ("entries",)  # ((value expr, probability expr), ...)


class DistUniform(DistExpr):
    __slots__ = _fields = ("exprs",)


class DistCond(DistExpr):
    """`(d1 if g1 else (d2 if g2 else d3))`: the then-branch of the first
    arm whose guard holds, else `otherwise`.  The constructor takes the arms
    flat, DistCond(d1, g1, d2, g2, d3), and absorbs a DistCond otherwise as
    Seq absorbs a Seq; a then-branch conditional stays nested."""

    # arms: ((then, guard), ...); pos: a tuple with one position per arm
    __slots__ = _fields = ("arms", "otherwise")

    def __init__(self, *parts, pos: Optional[tuple] = None):
        *flat, otherwise = parts
        if not flat or len(flat) % 2:
            raise ValueError("a conditional distribution needs then, guard pairs and an otherwise")
        arms = tuple(zip(flat[::2], flat[1::2]))
        pos = pos or (None,) * len(arms)
        if isinstance(otherwise, DistCond):
            arms, pos, otherwise = arms + otherwise.arms, pos + otherwise.pos, otherwise.otherwise
        super().__init__(arms, otherwise, pos=pos)


# ---------------------------------------------------------------------------
# Programs
# ---------------------------------------------------------------------------

class Program(Node):
    __slots__ = ()


class Skip(Program):
    __slots__ = ()


class Assign(Program):
    __slots__ = _fields = ("target", "expr")


class Choose(Program):
    __slots__ = _fields = ("target", "dist")


class XorAssign(Program):
    """`(x xor y) := e`: set x,y jointly so that x xor y = e, uniformly."""

    __slots__ = _fields = ("first", "second", "expr")


class Seq(Program):
    """Two or more statements run in order; none of them is a Seq.

    Sequential composition is associative, so the constructor flattens
    Seq arguments: Seq(Seq(a, b), c) == Seq(a, Seq(b, c)) == Seq(a, b, c).
    """

    __slots__ = _fields = ("stmts",)

    def __init__(self, *stmts: Program, pos: Optional[Pos] = None):
        flat = tuple(q for p in stmts for q in (p.stmts if isinstance(p, Seq) else (p,)))
        if len(flat) < 2:
            raise ValueError("a sequence needs at least two statements")
        super().__init__(flat, pos=pos)


class GeneralChoice(Program):
    """Run left with probability prob (an expression in v,h), else right."""

    __slots__ = _fields = ("left", "prob", "right")


class Cond(Program):
    __slots__ = _fields = ("guard", "then_branch", "else_branch")


class Atomic(Program):
    __slots__ = _fields = ("body",)


class Reveal(Program):
    __slots__ = _fields = ("expr",)


class LocalDecl(Node):
    __slots__ = _fields = ("decl", "init")  # init is None only under the uniform-default flag


class LocalBlock(Program):
    __slots__ = _fields = ("decls", "body")


class Module(Node):
    """A parsed source file: global declarations plus one program."""

    __slots__ = _fields = ("decls", "body")

    def decl_map(self) -> dict[str, VarDecl]:
        return {d.name: d for d in self.decls}


def statements(p: Program) -> tuple[Program, ...]:
    """The statements of a sequence, left to right; (p,) for any other p."""
    return p.stmts if isinstance(p, Seq) else (p,)


def _children(p: Program) -> tuple[Program, ...]:
    """The child programs: a sequence's statements, else the fields that are programs."""
    if isinstance(p, Seq):
        return p.stmts
    return tuple([x for x in p.field_values() if isinstance(x, Program)])


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
    if not _children(p):
        return p
    return type(p)(*[f(x) if isinstance(x, Program) else x for x in p.field_values()], pos=p.pos)


def declarations(module: Module):
    """Every variable declaration of the module, global or local."""
    yield from module.decls
    for p in walk(module.body):
        if isinstance(p, LocalBlock):
            for ld in p.decls:
                yield ld.decl


def node_count(p: Program) -> int:
    return sum(1 for _ in walk(p))
