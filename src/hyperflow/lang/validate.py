"""Static checks: scoping, kind-level typing, and statically decidable
distribution well-formedness.  Diagnostics are returned, never thrown."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from ..probcore import rat
from . import ast as A


@dataclass(frozen=True)
class Diagnostic:
    code: str
    message: str
    pos: Optional[A.Pos] = None
    severity: str = "error"  # 'error' | 'warning'

    def __str__(self):
        where = f"{self.pos.line}:{self.pos.col}: " if self.pos else ""
        return f"{where}{self.severity}: {self.code}: {self.message}"


def domain_kind(domain) -> str:
    kinds = {v.kind for v in domain.values}
    return kinds.pop() if len(kinds) == 1 else "mixed"


class _Checker:
    def __init__(self, module: A.Module, allow_uniform_init: bool):
        self.module = module
        self.allow_uniform_init = allow_uniform_init
        self.diags: list[Diagnostic] = []
        # enum constants from every domain in the file, globals and locals:
        # no variable may share a name with one
        self.enum_consts = {
            v.payload
            for d in A.declarations(module)
            for v in d.domain.values
            if v.kind == "sym"
        }

    def error(self, code, message, pos=None):
        self.diags.append(Diagnostic(code, message, pos))

    def warn(self, code, message, pos=None):
        self.diags.append(Diagnostic(code, message, pos, "warning"))

    # -- driver -------------------------------------------------------------

    def run(self) -> list[Diagnostic]:
        # a scope maps each name in scope to its declaration, or to the enum
        # constant it names: as in `Scope.env`, the constants of the domains
        # declared so far, under the variables
        scope: dict[str, object] = {}
        for d in self.module.decls:
            self._declare(scope, d)
        self.check_stmt(self.module.body, scope, in_atomic=False)
        return self.diags

    @staticmethod
    def _enter_constants(scope, decl: A.VarDecl):
        for v in decl.domain.values:
            if v.kind == "sym":
                scope.setdefault(v.payload, v)

    def _declare(self, scope, decl: A.VarDecl):
        if isinstance(scope.get(decl.name), A.VarDecl):
            self.error("DuplicateDeclaration", f"{decl.name} is already declared", decl.pos)
        if decl.name in self.enum_consts:
            self.error(
                "NameClash", f"{decl.name} is both a variable and a domain value", decl.pos
            )
        self._enter_constants(scope, decl)
        scope[decl.name] = decl

    # -- statements -----------------------------------------------------------

    def check_stmt(self, p: A.Program, scope, in_atomic: bool):
        if isinstance(p, A.Skip):
            return
        if isinstance(p, A.Assign):
            decl = self._lookup_var(scope, p.target, p.pos)
            kind = self.check_expr(p.expr, scope)
            if decl is not None:
                self._check_assignable(decl, kind, p.expr, p.pos)
            return
        if isinstance(p, A.Choose):
            decl = self._lookup_var(scope, p.target, p.pos)
            self.check_dist(p.dist, scope, decl)
            return
        if isinstance(p, A.XorAssign):
            for name in (p.first, p.second):
                decl = self._lookup_var(scope, name, p.pos)
                if decl is not None and domain_kind(decl.domain) != "bool":
                    self.error("TypeMismatch", f"{name} must be boolean in (x xor y) := e", p.pos)
            kind = self.check_expr(p.expr, scope)
            if kind not in ("bool", None):
                self.error("TypeMismatch", "(x xor y) := e needs a boolean e", p.pos)
            return
        if isinstance(p, A.Seq):
            for q in p.stmts:
                self.check_stmt(q, scope, in_atomic)
            return
        if isinstance(p, A.GeneralChoice):
            kind = self.check_expr(p.prob, scope)
            if kind not in ("num", "bool", None):
                self.error("TypeMismatch", "choice probability must be numeric", p.pos)
            q = _const_value(p.prob)
            if q is not None and not (0 <= q <= 1):
                self.error("ProbOutOfRange", f"constant probability {q} outside [0,1]", p.pos)
            self.check_stmt(p.left, scope, in_atomic)
            self.check_stmt(p.right, scope, in_atomic)
            return
        if isinstance(p, A.Cond):
            kind = self.check_expr(p.guard, scope)
            if kind not in ("bool", None):
                self.error("TypeMismatch", "guard must be boolean", p.pos)
            self.check_stmt(p.then_branch, scope, in_atomic)
            self.check_stmt(p.else_branch, scope, in_atomic)
            return
        if isinstance(p, A.Atomic):
            self.check_stmt(p.body, scope, in_atomic=True)
            return
        if isinstance(p, A.Reveal):
            if in_atomic:
                # reveal abbreviates a local block, which atomic rejects
                self.error("RevealInAtomic", "reveal is not allowed inside atomic{..}", p.pos)
            self.check_expr(p.expr, scope)
            return
        if isinstance(p, A.LocalBlock):
            if in_atomic:
                self.error("LocalInAtomic", "local blocks are not allowed inside atomic{..}", p.pos)
            inner = dict(scope)
            for ld in p.decls:
                if ld.init is None:
                    if self.allow_uniform_init:
                        self.warn(
                            "UniformInitDefault",
                            f"local {ld.decl.name} defaults to a uniform initialisation",
                            ld.decl.pos,
                        )
                    else:
                        self.error(
                            "MissingLocalInit",
                            f"local {ld.decl.name} requires an explicit initialisation",
                            ld.decl.pos,
                        )
                else:
                    # the init may read earlier locals and the new one's
                    # constants, but not the new one
                    self._enter_constants(inner, ld.decl)
                    self.check_dist(ld.init, inner, ld.decl)
                self._declare(inner, ld.decl)
            self.check_stmt(p.body, inner, in_atomic)
            return
        raise TypeError(p)

    def _lookup_var(self, scope, name, pos) -> Optional[A.VarDecl]:
        decl = scope.get(name)
        if not isinstance(decl, A.VarDecl):
            self.error("UndeclaredVariable", f"assignment to undeclared variable {name}", pos)
            return None
        return decl

    def _check_assignable(self, decl: A.VarDecl, kind, expr, pos):
        dkind = domain_kind(decl.domain)
        if kind is None or dkind == "mixed":
            return
        ok = {
            "num": kind in ("num", "bool"),
            "bool": kind == "bool",
            "sym": kind == "sym",
        }[dkind]
        if not ok:
            self.error(
                "TypeMismatch",
                f"cannot store a {kind} value in {decl.name} : {dkind}",
                pos,
            )
        if isinstance(expr, A.Lit) and expr.value not in decl.domain:
            self.error(
                "DomainMismatch",
                f"literal {expr.value} outside the domain of {decl.name}",
                pos,
            )

    # -- distributions ----------------------------------------------------------

    def check_dist(self, d: A.DistExpr, scope, target: Optional[A.VarDecl]):
        if isinstance(d, A.DistUniform):
            for e in d.exprs:
                kind = self.check_expr(e, scope)
                if target is not None:
                    self._check_assignable(target, kind, e, d.pos)
            return
        if isinstance(d, A.DistExplicit):
            total = Fraction(0)
            all_const = True
            for value_expr, prob_expr in d.entries:
                kind = self.check_expr(value_expr, scope)
                if target is not None:
                    self._check_assignable(target, kind, value_expr, d.pos)
                pkind = self.check_expr(prob_expr, scope)
                if pkind not in ("num", "bool", None):
                    self.error("TypeMismatch", "probability must be numeric", d.pos)
                q = _const_value(prob_expr)
                if q is None:
                    all_const = False
                else:
                    if q < 0:
                        self.error("NegativeWeight", f"constant probability {q} < 0", d.pos)
                    total += q
            if all_const and total != 1:
                self.error(
                    "WeightsNotOneSumming",
                    f"constant weights sum to {total}, not 1",
                    d.pos,
                )
            return
        if isinstance(d, A.DistCond):
            for (then, guard), pos in zip(d.arms, d.pos):
                if self.check_expr(guard, scope) not in ("bool", None):
                    self.error("TypeMismatch", "distribution guard must be boolean", pos)
                self.check_dist(then, scope, target)
            self.check_dist(d.otherwise, scope, target)
            return
        raise TypeError(d)

    # -- expressions ---------------------------------------------------------------

    def check_expr(self, e: A.Expr, scope) -> Optional[str]:
        """Kind of e ('num' | 'bool' | 'sym'), or None after an error."""
        if isinstance(e, A.Lit):
            return e.value.kind
        if isinstance(e, A.Name):
            decl = scope.get(e.ident)
            if isinstance(decl, A.VarDecl):
                return domain_kind(decl.domain)
            if decl is not None:
                return "sym"
            self.error("UndeclaredVariable", f"{e.ident} is not declared", e.pos)
            return None
        if isinstance(e, A.Unop):
            kind = self.check_expr(e.operand, scope)
            if e.op == "-":
                if kind not in ("num", "bool", None):
                    self.error("TypeMismatch", "unary '-' needs a number", e.pos)
                return "num"
            if kind not in ("bool", None):
                self.error("TypeMismatch", "'not' needs a boolean", e.pos)
            return "bool"
        if isinstance(e, A.Binop):
            lk = self.check_expr(e.left, scope)
            rk = self.check_expr(e.right, scope)
            op = A.BINOPS[e.op]
            if op.operand == "any":
                if not {lk, rk} & {None, "mixed"} and (lk == "sym") != (rk == "sym"):
                    self.error("TypeMismatch", f"cannot compare {lk} with {rk}", e.pos)
            else:
                accepted, needs = (("bool",), "boolean") if op.operand == "bool" else (("num", "bool"), "numeric")
                for k in (lk, rk):
                    if k not in accepted + ("mixed", None):
                        self.error("TypeMismatch", f"'{e.op}' needs {needs} operands", e.pos)
            if op.by_zero and _const_value(e.right) == 0:
                self.error("DivisionByZero", f"'{e.op}' by the constant 0", e.pos)
            return op.result
        if isinstance(e, A.IfExpr):
            gk = self.check_expr(e.guard, scope)
            if gk not in ("bool", None):
                self.error("TypeMismatch", "conditional guard must be boolean", e.pos)
            tk = self.check_expr(e.then_branch, scope)
            ek = self.check_expr(e.else_branch, scope)
            if tk == ek:
                return tk
            if {tk, ek} <= {"num", "bool"}:
                return "num"
            return "mixed" if None not in (tk, ek) else None
        raise TypeError(e)


def _const_value(e: A.Expr) -> Optional[Fraction]:
    """Value of a constant numeric expression, or None if not constant."""
    if isinstance(e, A.Lit):
        if e.value.kind == "num":
            return e.value.payload
        if e.value.kind == "bool":
            return Fraction(1 if e.value.payload else 0)
        return None
    if isinstance(e, A.Unop) and e.op == "-":
        q = _const_value(e.operand)
        return None if q is None else -q
    op = A.BINOPS[e.op] if isinstance(e, A.Binop) else None
    if op is None or op.result != "num":
        return None
    left, right = _const_value(e.left), _const_value(e.right)
    if left is None or right is None or (op.by_zero and right == 0):
        return None
    if op.operand == "int" and (left.denominator != 1 or right.denominator != 1):
        return None  # refused at run time, as a non-integer operand
    return rat(op.fn(left, right))  # refuses an inexact result


def validate(module: A.Module, allow_uniform_init: bool = False) -> list[Diagnostic]:
    """All diagnostics for the module; empty means well-formed."""
    return _Checker(module, allow_uniform_init).run()

