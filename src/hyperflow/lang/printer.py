"""Pretty-printer; parse(pretty_print(m)) is structurally equal to m.

Expressions get the fewest parentheses that the binding levels of
lang/ast.py's BINOPS, NOT_LEVEL and UNARY_LEVEL allow.
"""

from __future__ import annotations

from . import ast as A


def _expr_level(e: A.Expr) -> int:
    """Binding level of e's outermost operator; atoms bind tightest."""
    if isinstance(e, A.IfExpr):
        return 0
    if isinstance(e, A.Binop):
        return A.BINOPS[e.op].level
    if isinstance(e, A.Unop):
        return A.NOT_LEVEL if e.op == "not" else A.UNARY_LEVEL
    return A.UNARY_LEVEL + 1


def print_expr(e: A.Expr, parent_level: int = -1) -> str:
    level = _expr_level(e)
    if isinstance(e, A.Lit):
        text = str(e.value)
    elif isinstance(e, A.Name):
        text = e.ident
    elif isinstance(e, A.Unop):
        text = ("not " if e.op == "not" else "-") + print_expr(e.operand, level)
    elif isinstance(e, A.Binop):
        # chains are left-associative; force parens on right operands of
        # the same level (both sides for non-associative comparisons) so
        # the reparse rebuilds the identical tree
        left_level = level + 1 if level == A.CMP_LEVEL else level
        left = print_expr(e.left, left_level)
        right = print_expr(e.right, level + 1)
        text = f"{left} {e.op} {right}"
    elif isinstance(e, A.IfExpr):
        then = print_expr(e.then_branch, level + 1)
        guard = print_expr(e.guard, level + 1)
        els = print_expr(e.else_branch, level)  # right-associative
        text = f"{then} if {guard} else {els}"
    else:
        raise TypeError(e)
    if level < parent_level:
        return f"({text})"
    return text


def print_dist(d: A.DistExpr) -> str:
    if isinstance(d, A.DistUniform):
        return "uniform{" + ", ".join(print_expr(x) for x in d.exprs) + "}"
    if isinstance(d, A.DistExplicit):
        return "{" + ", ".join(
            f"{print_expr(v)} @ {print_expr(p)}" for v, p in d.entries
        ) + "}"
    if isinstance(d, A.DistCond):
        arms = "".join(f"({print_dist(then)} if {print_expr(guard)} else " for then, guard in d.arms)
        return arms + print_dist(d.otherwise) + ")" * len(d.arms)
    raise TypeError(d)


def _print_domain(domain) -> str:
    values = list(domain.values)
    # compress consecutive integer domains back to range form
    if (
        len(values) > 1
        and all(v.kind == "num" and v.payload.denominator == 1 for v in values)
        and all(
            int(values[k + 1].payload) == int(values[k].payload) + 1
            for k in range(len(values) - 1)
        )
    ):
        return "{" + f"{values[0]}..{values[-1]}" + "}"
    return "{" + ", ".join(str(v) for v in values) + "}"


def _print_decl(d: A.VarDecl) -> str:
    return f"{d.visibility} {d.name} : {_print_domain(d.domain)}"


def _stmt_lines(p: A.Program, indent: str) -> list[str]:
    nxt = indent + "  "
    if isinstance(p, A.Seq):
        parts = [_stmt_lines(q, indent) for q in p.stmts]
        for part in parts[:-1]:
            part[-1] += ";"
        return [line for part in parts for line in part]
    if isinstance(p, A.Skip):
        return [indent + "skip"]
    if isinstance(p, A.Assign):
        return [indent + f"{p.target} := {print_expr(p.expr)}"]
    if isinstance(p, A.Choose):
        return [indent + f"{p.target} <- {print_dist(p.dist)}"]
    if isinstance(p, A.XorAssign):
        return [indent + f"({p.first} xor {p.second}) := {print_expr(p.expr)}"]
    if isinstance(p, A.Reveal):
        return [indent + f"reveal {print_expr(p.expr)}"]
    if isinstance(p, A.Atomic):
        return (
            [indent + "atomic {"]
            + _stmt_lines(p.body, nxt)
            + [indent + "}"]
        )
    if isinstance(p, A.Cond):
        return (
            [indent + f"if {print_expr(p.guard)} then"]
            + _stmt_lines(p.then_branch, nxt)
            + [indent + "else"]
            + _stmt_lines(p.else_branch, nxt)
            + [indent + "fi"]
        )
    if isinstance(p, A.GeneralChoice):
        left = _braced(p.left, indent)
        right = _braced(p.right, indent)
        return left[:-1] + [f"{left[-1]} [{print_expr(p.prob)}]"] + right
    if isinstance(p, A.LocalBlock):
        heads = []
        for k, ld in enumerate(p.decls):
            head = f"{_print_decl(ld.decl)}"
            if ld.init is not None:
                head += f" := {print_dist(ld.init)}"
            if k + 1 < len(p.decls):
                head += ","
            heads.append(head)
        lines = [indent + "local " + heads[0]]
        lines += [indent + "      " + h for h in heads[1:]]
        lines[-1] += " in {"
        return lines + _stmt_lines(p.body, nxt) + [indent + "}"]
    raise TypeError(p)


def _braced(p: A.Program, indent: str) -> list[str]:
    """Wrap compound operands of a general choice in grouping braces."""
    if isinstance(p, (A.Seq, A.GeneralChoice)):
        inner = _stmt_lines(p, indent + "  ")
        return [indent + "{"] + inner + [indent + "}"]
    return _stmt_lines(p, indent)


def print_program(p: A.Program) -> str:
    return "\n".join(_stmt_lines(p, ""))


def pretty_print(m: A.Module) -> str:
    lines = [_print_decl(d) + ";" for d in m.decls]
    if lines:
        lines.append("")
    lines.append(print_program(m.body))
    return "\n".join(lines) + "\n"
