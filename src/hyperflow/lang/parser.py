"""Tokenizer and recursive-descent parser for `.hprog` sources.

The grammar is documented in docs/grammar.md.  Statements are parsed by
recursive descent; binary operators by precedence climbing over the one
operator table, `BINOPS` in lang/ast.py, whose word operators are keywords.
The parser folds a unary minus applied to a numeric literal into the
literal itself, so negative values round-trip through the pretty-printer.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from ..errors import HprogSyntaxError
from ..probcore import Domain, Value, vbool, vnum, vsym
from . import ast as A

KEYWORDS = {
    "vis", "hid", "skip", "if", "then", "else", "fi", "atomic", "local",
    "in", "reveal", "uniform", "true", "false", "not",
    *(op for op in A.BINOPS if op.isalpha()),
}

# one alternative per token class; `//` comments come before the `/` symbol,
# and `bad` takes any character no other alternative starts with
_TOKEN = re.compile(
    r"(?P<nl>\n)|[ \t\r]+|//[^\n]*|(?P<int>\d+)|(?P<word>[^\W\d]\w*)"
    r"|(?P<sym>:=|<-|\.\.|[!<>]=|[{}()\[\],;:@=<>+\-*/])|(?P<bad>.)",
    re.DOTALL,
)


@dataclass
class Token:
    kind: str  # 'ident' | 'int' | 'kw' | symbol text | 'eof'
    text: str
    line: int
    col: int


def tokenize(src: str) -> list[Token]:
    toks: list[Token] = []
    line, line_start = 1, 0
    for m in _TOKEN.finditer(src):
        kind, text, col = m.lastgroup, m.group(), m.start() - line_start + 1
        if kind == "nl":
            line, line_start = line + 1, m.end()
        elif kind == "word" and (text[0].isalpha() or text[0] == "_"):
            toks.append(Token("kw" if text in KEYWORDS else "ident", text, line, col))
        elif kind == "int":
            toks.append(Token("int", text, line, col))
        elif kind == "sym":
            toks.append(Token(text, text, line, col))
        elif kind is not None:  # bad, or a word that starts with a non-letter such as "²"
            raise HprogSyntaxError(f"unexpected character {text[0]!r}", line, col)
    toks.append(Token("eof", "", line, len(src) - line_start + 1))
    return toks


class Parser:
    def __init__(self, src: str):
        self.toks = tokenize(src)
        self.i = 0

    # -- token helpers ----------------------------------------------------

    def peek(self) -> Token:
        return self.toks[self.i]  # no path consumes 'eof' before expect("eof")

    def next(self) -> Token:
        t = self.toks[self.i]
        self.i += 1
        return t

    def at(self, kind: str, text: str | None = None) -> bool:
        t = self.peek()
        return t.kind == kind and (text is None or t.text == text)

    def expect(self, kind: str, text: str | None = None) -> Token:
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            want = text or kind
            raise HprogSyntaxError(f"expected {want!r}, found {t.text or t.kind!r}", t.line, t.col)
        return self.next()

    def parse_list(self, parse_item) -> list:
        """One or more items separated by commas."""
        items = [parse_item()]
        while self.at(","):
            self.next()
            items.append(parse_item())
        return items

    def pos(self) -> A.Pos:
        t = self.peek()
        return A.Pos(t.line, t.col)

    def fail(self, msg: str):
        t = self.peek()
        raise HprogSyntaxError(msg, t.line, t.col)

    # -- module -----------------------------------------------------------

    def parse_module(self) -> A.Module:
        decls: list[A.VarDecl] = []
        while self.at("kw", "vis") or self.at("kw", "hid"):
            decls.extend(self.parse_decl_line())
        body = self.parse_stmt()
        self.expect("eof")
        return A.Module(tuple(decls), body)

    def parse_decl_line(self) -> list[A.VarDecl]:
        pos = self.pos()
        visibility = self.parse_visibility()
        names = self.parse_list(lambda: self.expect("ident").text)
        self.expect(":")
        domain_values = self.parse_domain_values()
        self.expect(";")
        return [
            A.VarDecl(name, Domain(name, domain_values), visibility, pos)
            for name in names
        ]

    def parse_visibility(self) -> A.Visibility:
        if self.at("kw", "hid"):
            self.next()
            return A.HID
        self.expect("kw", "vis")
        if self.at("{"):
            self.next()
            agents = self.parse_list(lambda: self.expect("ident").text)
            self.expect("}")
            return A.Visibility("vis", tuple(agents))
        return A.VIS

    def parse_domain_values(self) -> tuple[Value, ...]:
        self.expect("{")
        first = self.parse_domain_value()
        if self.at(".."):
            self.next()
            last = self.parse_domain_value()
            self.expect("}")
            if first.kind != "num" or last.kind != "num" or first.payload.denominator != 1 or last.payload.denominator != 1:
                self.fail("range domains need integer endpoints")
            lo, hi = int(first.payload), int(last.payload)
            if lo > hi:
                self.fail("empty range domain")
            return tuple(vnum(k) for k in range(lo, hi + 1))
        values = {first: None}  # ordered, with O(1) membership
        while self.at(","):
            self.next()
            t = self.peek()
            value = self.parse_domain_value()
            if value in values:
                raise HprogSyntaxError(f"duplicate domain value {value}", t.line, t.col)
            values[value] = None
        self.expect("}")
        return tuple(values)

    def parse_domain_value(self) -> Value:
        neg = False
        if self.at("-"):
            self.next()
            neg = True
        t = self.peek()
        if t.kind == "int":
            self.next()
            num = int(t.text)
            if self.at("/"):
                self.next()
                d = self.expect("int")
                if not int(d.text):
                    raise HprogSyntaxError("zero denominator in a domain value", d.line, d.col)
                q = Fraction(num, int(d.text))
            else:
                q = Fraction(num)
            return vnum(-q if neg else q)
        if neg:
            self.fail("expected a number after '-'")
        if t.kind == "kw" and t.text in ("true", "false"):
            self.next()
            return vbool(t.text == "true")
        if t.kind == "ident":
            self.next()
            return vsym(t.text)
        self.fail("expected a domain value")

    # -- statements ---------------------------------------------------------

    def parse_stmt(self) -> A.Program:
        parts = [self.parse_choice_stmt()]
        while self.at(";"):
            self.next()
            parts.append(self.parse_choice_stmt())
        return A.Seq(*parts) if len(parts) > 1 else parts[0]

    def parse_choice_stmt(self) -> A.Program:
        pos = self.pos()
        left = self.parse_atom_stmt()
        if self.at("["):
            self.next()
            prob = self.parse_expr()
            self.expect("]")
            right = self.parse_atom_stmt()
            return A.GeneralChoice(left, prob, right, pos)
        return left

    def parse_atom_stmt(self) -> A.Program:
        pos = self.pos()
        if self.at("kw", "skip"):
            self.next()
            return A.Skip(pos)
        if self.at("kw", "reveal"):
            self.next()
            return A.Reveal(self.parse_expr(), pos)
        if self.at("kw", "atomic"):
            self.next()
            self.expect("{")
            body = self.parse_stmt()
            self.expect("}")
            return A.Atomic(body, pos)
        if self.at("kw", "if"):
            self.next()
            guard = self.parse_expr()
            self.expect("kw", "then")
            then_branch = self.parse_stmt()
            self.expect("kw", "else")
            else_branch = self.parse_stmt()
            self.expect("kw", "fi")
            return A.Cond(guard, then_branch, else_branch, pos)
        if self.at("kw", "local"):
            self.next()
            decls = self.parse_list(self.parse_local_decl)
            self.expect("kw", "in")
            self.expect("{")
            body = self.parse_stmt()
            self.expect("}")
            return A.LocalBlock(tuple(decls), body, pos)
        if self.at("{"):
            self.next()
            body = self.parse_stmt()
            self.expect("}")
            return body
        if self.at("("):
            self.next()
            first = self.expect("ident").text
            self.expect("kw", "xor")
            second = self.expect("ident").text
            self.expect(")")
            self.expect(":=")
            return A.XorAssign(first, second, self.parse_expr(), pos)
        if self.at("ident"):
            name = self.next().text
            if self.at(":="):
                self.next()
                return A.Assign(name, self.parse_expr(), pos)
            if self.at("<-"):
                self.next()
                return A.Choose(name, self.parse_dist(), pos)
            self.fail("expected ':=' or '<-' after variable name")
        self.fail("expected a statement")

    def parse_local_decl(self) -> A.LocalDecl:
        pos = self.pos()
        visibility = self.parse_visibility()
        name = self.expect("ident").text
        self.expect(":")
        values = self.parse_domain_values()
        init = None
        if self.at(":="):
            self.next()
            init = self.parse_dist()
        return A.LocalDecl(A.VarDecl(name, Domain(name, values), visibility, pos), init)

    # -- distribution expressions -------------------------------------------

    def parse_dist(self) -> A.DistExpr:
        """A chain `(d1 if g1 else (d2 if g2 else d3))` is read in a loop; a
        `(` that does not open an arm starts a parenthesised expression."""
        flat, arm_pos = [], []  # then, guard of each arm; the position of its `(`
        while self.at("("):
            start, pos = self.i, self.pos()
            try:
                self.next()
                then_branch = self.parse_dist()
                self.expect("kw", "if")
                guard = self.parse_expr()
                self.expect("kw", "else")
            except HprogSyntaxError:
                self.i = start
                break
            flat += (then_branch, guard)
            arm_pos.append(pos)
        otherwise = self.parse_dist_leaf()
        for _ in arm_pos:
            self.expect(")")
        return A.DistCond(*flat, otherwise, pos=tuple(arm_pos)) if flat else otherwise

    def parse_dist_leaf(self) -> A.DistExpr:
        """A distribution expression other than a conditional."""
        pos = self.pos()
        if self.at("kw", "uniform"):
            self.next()
            self.expect("{")
            exprs = self.parse_list(self.parse_expr)
            self.expect("}")
            return A.DistUniform(tuple(exprs), pos)
        if self.at("{"):
            self.next()
            entries = self.parse_list(self.parse_dist_entry)
            self.expect("}")
            return A.DistExplicit(tuple(entries), pos)
        # point / infix-choice sugar over expressions
        first = self.parse_expr()
        if self.at("["):
            self.next()
            if self.at("]"):  # n-ary uniform chain: e [] e [] e
                self.next()
                exprs = [first, self.parse_expr()]
                while self.at("["):
                    self.next()
                    self.expect("]")
                    exprs.append(self.parse_expr())
                return A.DistUniform(tuple(exprs), pos)
            prob = self.parse_expr()
            self.expect("]")
            second = self.parse_expr()
            one = A.Lit(vnum(1))
            return A.DistExplicit(
                ((first, prob), (second, A.Binop("-", one, prob))), pos
            )
        return A.DistExplicit(((first, A.Lit(vnum(1))),), pos)

    def parse_dist_entry(self) -> tuple[A.Expr, A.Expr]:
        value = self.parse_expr()
        self.expect("@")
        prob = self.parse_expr()
        return (value, prob)

    # -- expressions ----------------------------------------------------------

    def parse_expr(self) -> A.Expr:
        pos = self.pos()
        e = self.parse_binary(0)
        if self.at("kw", "if"):
            self.next()
            guard = self.parse_binary(0)
            self.expect("kw", "else")
            return A.IfExpr(e, guard, self.parse_expr(), pos)  # nests to the right
        return e

    def parse_binary(self, min_level: int) -> A.Expr:
        """An expression whose operators bind at min_level or tighter, by
        precedence climbing over A.BINOPS; chains associate to the left."""
        t = self.peek()
        if t.kind == "kw" and t.text == "not" and min_level <= A.NOT_LEVEL:
            self.next()
            e = A.Unop("not", self.parse_binary(A.NOT_LEVEL), A.Pos(t.line, t.col))
            max_level = A.NOT_LEVEL - 1
        else:
            e, max_level = self.parse_unary(), A.UNARY_LEVEL
        while True:
            t = self.peek()
            op = A.BINOPS.get(t.text)
            # a tighter operator here is one the right operand refused
            if op is None or not min_level <= op.level <= max_level:
                return e
            self.next()
            e = A.Binop(t.text, e, self.parse_binary(op.level + 1), A.Pos(t.line, t.col))
            # a comparison does not chain: only looser operators may follow it
            max_level = op.level - (op.level == A.CMP_LEVEL)

    def parse_unary(self) -> A.Expr:
        if self.at("-"):
            t = self.next()
            operand = self.parse_unary()
            # fold a negated numeric literal so "-1" round-trips
            if isinstance(operand, A.Lit) and operand.value.kind == "num":
                return A.Lit(vnum(-operand.value.payload), A.Pos(t.line, t.col))
            return A.Unop("-", operand, A.Pos(t.line, t.col))
        return self.parse_primary()

    def parse_primary(self) -> A.Expr:
        t = self.peek()
        pos = A.Pos(t.line, t.col)
        if t.kind == "int":
            self.next()
            return A.Lit(vnum(int(t.text)), pos)
        if t.kind == "kw" and t.text in ("true", "false"):
            self.next()
            return A.Lit(vbool(t.text == "true"), pos)
        if t.kind == "ident":
            self.next()
            return A.Name(t.text, pos)
        if t.kind == "(":
            self.next()
            e = self.parse_expr()
            self.expect(")")
            return e
        self.fail("expected an expression")


def parse(src: str) -> A.Module:
    """Parse a complete `.hprog` source into declarations plus program."""
    return Parser(src).parse_module()


def parse_program(src: str) -> A.Program:
    """Parse a bare statement (no declarations); useful in tests."""
    p = Parser(src)
    body = p.parse_stmt()
    p.expect("eof")
    return body
