"""Program transformations: per-agent view projection and desugaring."""

from __future__ import annotations

import itertools
from typing import Optional

from ..errors import UnknownAgent
from ..probcore import Domain, vbool, vnum
from . import ast as A


# ---------------------------------------------------------------------------
# Per-agent views
# ---------------------------------------------------------------------------

def agents_of(module: A.Module) -> set[str]:
    """All agent names mentioned in any visibility annotation."""
    return {a for d in A.declarations(module) for a in d.visibility.agents or ()}


def _project_decl(d: A.VarDecl, agent: Optional[str]) -> A.VarDecl:
    if d.visibility.agents is None:
        return d  # global markers are observer-independent
    seen = agent is not None and agent in d.visibility.agents
    return A.VarDecl(d.name, d.domain, A.VIS if seen else A.HID, d.pos)


def project_view(module: A.Module, agent: Optional[str]) -> A.Module:
    """The module as observed by one agent.

    Variables whose agent set contains `agent` become globally visible, all
    other agent-annotated variables become hidden.  `agent=None` is the
    external observer, who sees only globally visible variables (and every
    reveal, which stays a reveal).  A module with no agent annotations is
    returned unchanged (so projection is idempotent); naming an agent that
    an annotated module never mentions is an error.
    """
    known = agents_of(module)
    if agent is not None and known and agent not in known:
        raise UnknownAgent(f"agent {agent!r} appears in no visibility annotation")

    def walk(p: A.Program) -> A.Program:
        if isinstance(p, A.LocalBlock):
            decls = tuple(
                A.LocalDecl(_project_decl(ld.decl, agent), ld.init) for ld in p.decls
            )
            return A.LocalBlock(decls, walk(p.body), p.pos)
        return A.map_children(p, walk)

    decls = tuple(_project_decl(d, agent) for d in module.decls)
    return A.Module(decls, walk(module.body))


# ---------------------------------------------------------------------------
# Desugaring
# ---------------------------------------------------------------------------

def _expr_value_range(expr: A.Expr, decls: dict[str, A.VarDecl]):
    """All values expr can take over the declared domains of its variables."""
    from ..semantics import eval_expr, base_env  # late import, avoids a cycle

    free = sorted(_free_names(expr) & decls.keys())
    env0 = base_env(decls.values())
    out = []
    for combo in itertools.product(*(decls[n].domain.values for n in free)):
        env = dict(env0)
        env.update(zip(free, combo))
        v = eval_expr(expr, env)
        if v not in out:
            out.append(v)
    return sorted(out, key=lambda v: v.key())


def _free_names(e: A.Expr) -> set[str]:
    if isinstance(e, A.Name):
        return {e.ident}
    return set().union(*[_free_names(x) for x in e.field_values() if isinstance(x, A.Expr)])


class _Desugarer:
    def __init__(self, module: A.Module):
        self.taken = {d.name for d in A.declarations(module)}
        self.counter = itertools.count(1)
        self.module = module

    def fresh(self, stem: str) -> str:
        while True:
            name = f"{stem}_{next(self.counter)}"
            if name not in self.taken:
                self.taken.add(name)
                return name

    def walk(self, p: A.Program, decls: dict[str, A.VarDecl]) -> A.Program:
        if isinstance(p, A.Reveal):
            # publish E to everyone: a fresh globally visible local set to E
            name = self.fresh("reveal")
            values = tuple(_expr_value_range(p.expr, decls))
            decl = A.VarDecl(name, Domain(name, values), A.VIS, p.pos)
            init = A.DistExplicit(((A.Lit(values[0]), A.Lit(vnum(1))),))
            return A.LocalBlock(
                (A.LocalDecl(decl, init),), A.Assign(name, p.expr), p.pos
            )
        if isinstance(p, A.XorAssign):
            # set the pair uniformly subject to first xor second = e
            flip = A.Choose(
                p.first,
                A.DistUniform((A.Lit(vbool(False)), A.Lit(vbool(True)))),
                p.pos,
            )
            fix = A.Assign(p.second, A.Binop("xor", A.Name(p.first), p.expr), p.pos)
            return A.Seq(flip, fix, pos=p.pos)
        if isinstance(p, A.LocalBlock):
            inner = dict(decls)
            for ld in p.decls:
                inner[ld.decl.name] = ld.decl
            return A.LocalBlock(p.decls, self.walk(p.body, inner), p.pos)
        return A.map_children(p, lambda q: self.walk(q, decls))


def desugar(module: A.Module) -> A.Module:
    """Rewrite every reveal to its local-block form and expand xor-assignments."""
    d = _Desugarer(module)
    return A.Module(module.decls, d.walk(module.body, module.decl_map()))


def has_construct(p: A.Program, kinds: tuple[type, ...]) -> bool:
    return any(isinstance(q, kinds) for q in A.walk(p))
