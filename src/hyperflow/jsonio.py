"""Machine-readable output: stable JSON forms for hypers, witnesses, ASTs.

Probabilities always serialise as "num/den" (e.g. "2/3", "1/1").  Values
serialise as bare strings ("2", "1/4", "true", "bot").
"""

from __future__ import annotations

from .lang import ast as A
from .matrix import RatMatrix
from .probcore import rat_str
from .semantics import HyperDist, Scope


def vtuple_str(vt: tuple) -> str:
    return ",".join(str(x) for x in vt)


def _named(names, values) -> dict:
    return {n: str(v) for n, v in zip(names, values)}


def hyper_json(hyper: HyperDist, scope: Scope) -> dict:
    vis = scope.visible_names()
    hid = scope.hidden_names()
    out = []
    for s, w in hyper.items():
        out.append(
            {
                "p": rat_str(w),
                "v": _named(vis, s.v),
                "delta": [
                    {"h": _named(hid, h), "p": rat_str(q)} for h, q in s.delta.items()
                ],
            }
        )
    return {"hyper": out}


def matrix_json(m: RatMatrix) -> list[list[str]]:
    return [[rat_str(x) for x in row] for row in m.rows]


def witness_json(per_v: dict) -> list[dict]:
    return [
        {"v": vtuple_str(v), "R": matrix_json(mat)}
        for v, mat in per_v.items()
    ]


def expr_json(e: A.Expr):
    if isinstance(e, A.Lit):
        return {"lit": str(e.value)}
    if isinstance(e, A.Name):
        return {"name": e.ident}
    if isinstance(e, A.Unop):
        return {"op": e.op, "args": [expr_json(e.operand)]}
    if isinstance(e, A.Binop):
        return {"op": e.op, "args": [expr_json(e.left), expr_json(e.right)]}
    if isinstance(e, A.IfExpr):
        return {
            "op": "ifexpr",
            "args": [expr_json(e.then_branch), expr_json(e.guard), expr_json(e.else_branch)],
        }
    raise TypeError(e)


def dist_json(d: A.DistExpr):
    if isinstance(d, A.DistUniform):
        return {"uniform": [expr_json(x) for x in d.exprs]}
    if isinstance(d, A.DistExplicit):
        return {
            "explicit": [
                {"value": expr_json(v), "prob": expr_json(p)} for v, p in d.entries
            ]
        }
    if isinstance(d, A.DistCond):
        return {
            "arms": [{"cond": expr_json(g), "then": dist_json(t)} for t, g in d.arms],
            "else": dist_json(d.otherwise),
        }
    raise TypeError(d)


def program_json(p: A.Program):
    if isinstance(p, A.Skip):
        return {"kind": "skip"}
    if isinstance(p, A.Assign):
        return {"kind": "assign", "target": p.target, "expr": expr_json(p.expr)}
    if isinstance(p, A.Choose):
        return {"kind": "choose", "target": p.target, "dist": dist_json(p.dist)}
    if isinstance(p, A.XorAssign):
        return {
            "kind": "xor_assign",
            "targets": [p.first, p.second],
            "expr": expr_json(p.expr),
        }
    if isinstance(p, A.Seq):
        return {"kind": "seq", "statements": [program_json(q) for q in p.stmts]}
    if isinstance(p, A.GeneralChoice):
        return {
            "kind": "general_choice",
            "prob": expr_json(p.prob),
            "left": program_json(p.left),
            "right": program_json(p.right),
        }
    if isinstance(p, A.Cond):
        return {
            "kind": "cond",
            "guard": expr_json(p.guard),
            "then": program_json(p.then_branch),
            "else": program_json(p.else_branch),
        }
    if isinstance(p, A.Atomic):
        return {"kind": "atomic", "body": program_json(p.body)}
    if isinstance(p, A.Reveal):
        return {"kind": "reveal", "expr": expr_json(p.expr)}
    if isinstance(p, A.LocalBlock):
        return {
            "kind": "local",
            "decls": [
                {
                    "decl": decl_json(ld.decl),
                    "init": dist_json(ld.init) if ld.init is not None else None,
                }
                for ld in p.decls
            ],
            "body": program_json(p.body),
        }
    raise TypeError(p)


def decl_json(d: A.VarDecl) -> dict:
    return {
        "name": d.name,
        "visibility": str(d.visibility),
        "domain": [str(v) for v in d.domain.values],
    }


def module_json(m: A.Module) -> dict:
    return {
        "decls": [decl_json(d) for d in m.decls],
        "body": program_json(m.body),
    }
