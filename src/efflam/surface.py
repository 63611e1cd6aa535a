"""Concrete syntax: lexer, parser, pretty-printer, declaration files.

Terms parse against an environment of declared names, so unknown
identifiers fail at parse time with a position.  The printer emits
minimal parentheses and round-trips: reparsing printed output yields an
alpha-equivalent term whenever the names it mentions are declared.

Binary sequencing and lifting sugar (`>>=`, `.>>`, `<<.`, `<<.>>`) and
the lifted connectives (`/\\~`, `->~`, `=~`) expand at parse time into
their handler definitions; the bare connectives (`/\\`, `->`, `=`)
are infix spellings of the declared constants `and`, `imp`, `eq`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import NamedTuple

from .prelude import apply_both, apply_left, apply_right, bind, eta_identity, lift_binary
from .syntax import (
    Abs,
    Ann,
    App,
    Atom,
    Cherry,
    Comp,
    Const,
    Eta,
    Exchange,
    Fun,
    Handler,
    Op,
    Signature,
    Term,
    Type,
    UNIT,
    Var,
    alpha_eq,
)

KEYWORDS = {
    "do",
    "handle",
    "eta",
    "extract",
    "commute",
    "atom",
    "const",
    "operation",
    "def",
    "check",
    "normalize",
    "trace",
}

RESERVED = KEYWORDS | {"F"}

_SYMBOLS = [
    "<<.>>",
    "/\\~",
    "->~",
    "<<.",
    ".>>",
    ">>=",
    "=~",
    "/\\",
    "->",
    "~>",
    "(",
    ")",
    "{",
    "}",
    ",",
    ".",
    ":=",
    ":",
    "=",
    "\\",
    "*",
]

# what the lexer reads at each step: a line break, a run of blanks, a
# comment, a word (letters, digits, `_` and `'`, and `-` when a letter
# or digit follows it; `\w` is exactly `str.isalnum` plus `_`, and the
# lexer checks that the first character passes `str.isalpha`), the unit
# type, a symbol (the first in the order above that matches), or any
# other character, which is an error
_TOKEN = re.compile(
    r"(?P<newline>\n)|(?P<blank>[ \t\r]+)|(?P<comment>#[^\n]*)"
    r"|(?P<word>[^\W\d_](?:[\w']|-[^\W_])*)|(?P<one>1)"
    r"|(?P<sym>" + "|".join(map(re.escape, _SYMBOLS)) + r")|(?P<bad>.)"
)


class ParseError(Exception):
    def __init__(self, line: int, col: int, message: str):
        self.line = line
        self.col = col
        super().__init__(message)

    def __str__(self) -> str:
        return f"parse error at line {self.line}, column {self.col}: {self.args[0]}"


class Token(NamedTuple):
    kind: str  # ident | kw | sym | one | eof
    text: str
    line: int
    col: int


def _lex(src: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    for m in _TOKEN.finditer(src):
        kind, text = m.lastgroup, m.group()
        if kind == "newline":
            line, col = line + 1, 1
            continue
        if kind == "comment":  # leaves the column as it was
            continue
        if kind == "bad" or kind == "word" and not text[0].isalpha():
            raise ParseError(line, col, f"unexpected character {text[0]!r}")
        if kind == "word":
            kind = "kw" if text in KEYWORDS else "ident"
        if kind != "blank":
            tokens.append(Token(kind, text, line, col))
        col += len(text)
    tokens.append(Token("eof", "", line, col))
    return tokens


# ---------------------------------------------------------------------------
# Environments and declaration files


@dataclass
class Env:
    """Names a term is parsed against."""

    atoms: frozenset[str] = frozenset({UNIT.name})
    constants: frozenset[str] = frozenset({"*"})
    operations: Signature = Signature()
    defs: dict[str, Term] = field(default_factory=dict)


@dataclass
class DeclFile:
    """An ordered declaration file: signature, definitions, directives."""

    atoms: list[str] = field(default_factory=list)
    constants: dict[str, Type] = field(default_factory=dict)
    operations: Signature = Signature()
    defs: list[tuple[str, Type | None, Term]] = field(default_factory=list)
    directives: list[tuple[str, Term]] = field(default_factory=list)

    def env(self) -> Env:
        return Env(
            atoms=frozenset(self.atoms) | {UNIT.name},
            constants=frozenset(self.constants) | {"*"},
            operations=self.operations,
            defs={name: term for name, _, term in self.defs},
        )

    def context(self):
        from .typecheck import Context

        return Context.initial(set(self.atoms), dict(self.constants), self.operations)


class _Parser:
    def __init__(self, tokens: list[Token], env: Env):
        self.toks = tokens
        self.pos = 0
        self.env = env
        self.bound: list[str] = []

    # -- token plumbing

    def peek(self) -> Token:
        return self.toks[self.pos]

    def next(self) -> Token:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def at_sym(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "sym" and tok.text == text

    def at_kw(self, text: str) -> bool:
        tok = self.peek()
        return tok.kind == "kw" and tok.text == text

    def expect_sym(self, text: str) -> Token:
        tok = self.next()
        if tok.kind != "sym" or tok.text != text:
            raise ParseError(tok.line, tok.col, f"expected {text!r}, found {tok.text!r}")
        return tok

    def expect_ident(self, what: str) -> Token:
        tok = self.next()
        if tok.kind != "ident":
            raise ParseError(tok.line, tok.col, f"expected {what}, found {tok.text!r}")
        return tok

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(tok.line, tok.col, message)

    # -- types

    def type_(self) -> Type:
        left = self.type_atom()
        if self.at_sym("->"):
            self.next()
            return Fun(left, self.type_())
        return left

    def type_atom(self) -> Type:
        tok = self.peek()
        if tok.kind == "one":
            self.next()
            return UNIT
        if tok.kind == "sym" and tok.text == "(":
            self.next()
            ty = self.type_()
            self.expect_sym(")")
            return ty
        if tok.kind == "ident" and tok.text == "F":
            self.next()
            self.expect_sym("{")
            table: dict[str, tuple[Type, Type]] = {}
            while not self.at_sym("}"):
                name_tok = self.expect_ident("an operation name")
                entry = self.env.operations.get(name_tok.text)
                if entry is None:
                    raise ParseError(
                        name_tok.line, name_tok.col, f"unknown operation {name_tok.text}"
                    )
                if name_tok.text in table:
                    raise ParseError(
                        name_tok.line, name_tok.col, f"duplicate operation {name_tok.text} in row"
                    )
                table[name_tok.text] = entry
                if self.at_sym(","):
                    self.next()
                elif not self.at_sym("}"):
                    self.fail("expected ',' or '}' in effect row")
            self.next()
            self.expect_sym("(")
            value = self.type_()
            self.expect_sym(")")
            return Comp(Signature.of(table), value)
        if tok.kind == "ident":
            self.next()
            if tok.text not in self.env.atoms:
                raise ParseError(tok.line, tok.col, f"unknown atomic type {tok.text}")
            return Atom(tok.text)
        self.fail("expected a type")

    # -- terms, loosest binding first

    def term(self) -> Term:
        left = self.imp_term()
        while self.at_sym(">>="):
            self.next()
            left = bind(left, self.imp_term())
        return left

    def imp_term(self) -> Term:
        left = self.conj_term()
        if self.at_sym("->"):
            self.require_constant("imp", self.next())
            return App(App(Const("imp"), left), self.imp_term())
        if self.at_sym("->~"):
            self.require_constant("imp", self.next())
            return lift_binary("imp", left, self.imp_term())
        return left

    def conj_term(self) -> Term:
        left = self.eq_term()
        while True:
            if self.at_sym("/\\"):
                self.require_constant("and", self.next())
                left = App(App(Const("and"), left), self.eq_term())
            elif self.at_sym("/\\~"):
                self.require_constant("and", self.next())
                left = lift_binary("and", left, self.eq_term())
            else:
                return left

    def eq_term(self) -> Term:
        left = self.lift_term()
        if self.at_sym("="):
            self.require_constant("eq", self.next())
            return App(App(Const("eq"), left), self.lift_term())
        if self.at_sym("=~"):
            self.require_constant("eq", self.next())
            return lift_binary("eq", left, self.lift_term())
        return left

    def require_constant(self, name: str, tok: Token) -> None:
        if name not in self.env.constants:
            raise ParseError(
                tok.line, tok.col, f"this sugar needs a declared constant {name}"
            )

    def lift_term(self) -> Term:
        left = self.app_term()
        while True:
            if self.at_sym("<<."):
                self.next()
                left = apply_right(left, self.app_term())
            elif self.at_sym(".>>"):
                self.next()
                left = apply_left(left, self.app_term())
            elif self.at_sym("<<.>>"):
                self.next()
                left = apply_both(left, self.app_term())
            else:
                return left

    def app_term(self) -> Term:
        if self.at_sym("\\"):
            return self.lambda_()
        term = self.unit()
        while True:
            if self.at_sym("\\"):
                # a trailing lambda is the final argument
                return App(term, self.lambda_())
            if self.starts_unit():
                term = App(term, self.unit())
            else:
                return term

    def starts_unit(self) -> bool:
        tok = self.peek()
        if tok.kind == "ident":
            return True
        if tok.kind == "sym" and tok.text in ("(", "*"):
            return True
        if tok.kind == "kw" and tok.text in ("eta", "extract", "commute", "do", "handle"):
            return True
        return False

    def lambda_(self) -> Term:
        self.expect_sym("\\")
        binder = self.expect_ident("a binder name")
        self.expect_sym(".")
        self.bound.append(binder.text)
        body = self.term()
        self.bound.pop()
        return Abs(binder.text, body)

    def unit(self) -> Term:
        tok = self.peek()
        if tok.kind == "sym" and tok.text == "(":
            self.next()
            inner = self.term()
            if self.at_sym(":"):
                self.next()
                ty = self.type_()
                self.expect_sym(")")
                return Ann(inner, ty)
            self.expect_sym(")")
            return inner
        if tok.kind == "sym" and tok.text == "*":
            self.next()
            return Const("*")
        if tok.kind == "sym" and tok.text == "\\":
            return self.lambda_()
        if tok.kind == "kw":
            if tok.text == "eta":
                self.next()
                return Eta(self.unit())
            if tok.text == "extract":
                self.next()
                return Cherry(self.unit())
            if tok.text == "commute":
                self.next()
                return Exchange(self.unit())
            if tok.text == "do":
                return self.op_call()
            if tok.text == "handle":
                return self.handler()
            self.fail(f"unexpected keyword {tok.text!r}")
        if tok.kind == "ident":
            self.next()
            name = tok.text
            if name in self.bound:
                return Var(name)
            if name in self.env.defs:
                return self.env.defs[name]
            if name in self.env.constants:
                return Const(name)
            raise ParseError(tok.line, tok.col, f"unknown identifier {name}")
        self.fail(f"expected a term, found {tok.text!r}")

    def op_call(self) -> Term:
        self.next()  # do
        op = self.expect_ident("an operation name")
        self.expect_sym("(")
        param = self.term()
        self.expect_sym(",")
        if not self.at_sym("\\"):
            self.fail("the operation continuation must be a lambda")
        cont = self.lambda_()
        self.expect_sym(")")
        assert isinstance(cont, Abs)
        return Op(op.text, param, cont.binder, cont.body)

    def handler(self) -> Term:
        self.next()  # handle
        self.expect_sym("{")
        clauses: dict[str, Term] = {}
        eta_clause: Term | None = None
        while not self.at_sym("}"):
            head = self.next()
            if head.kind == "kw" and head.text == "eta":
                self.expect_sym("->")
                if eta_clause is not None:
                    raise ParseError(head.line, head.col, "duplicate eta clause")
                eta_clause = self.term()
            elif head.kind == "ident":
                self.expect_sym("->")
                if head.text in clauses:
                    raise ParseError(
                        head.line, head.col, f"duplicate clause for operation {head.text}"
                    )
                clauses[head.text] = self.term()
            else:
                raise ParseError(head.line, head.col, "expected an operation name or 'eta'")
            if self.at_sym(","):
                self.next()
            elif not self.at_sym("}"):
                self.fail("expected ',' or '}' after a handler clause")
        self.next()  # }
        if eta_clause is None:
            eta_clause = eta_identity()
        if not self.starts_unit():
            self.fail("a handler must be applied to a computation")
        scrutinee = self.unit()
        return Handler(tuple(sorted(clauses.items())), eta_clause, scrutinee)


def parse_term(src: str, env: Env) -> Term:
    p = _Parser(_lex(src), env)
    term = p.term()
    tok = p.peek()
    if tok.kind != "eof":
        raise ParseError(tok.line, tok.col, f"unexpected {tok.text!r} after the term")
    return term


def parse_type(src: str, env: Env) -> Type:
    p = _Parser(_lex(src), env)
    ty = p.type_()
    tok = p.peek()
    if tok.kind != "eof":
        raise ParseError(tok.line, tok.col, f"unexpected {tok.text!r} after the type")
    return ty


def parse_file(src: str) -> DeclFile:
    decl = DeclFile()
    tokens = _lex(src)
    p = _Parser(tokens, decl.env())

    def taken(name: str) -> bool:
        return (
            name in decl.atoms
            or name in decl.constants
            or name in decl.operations
            or any(name == d for d, _, _ in decl.defs)
        )

    def fresh_decl_name(tok: Token) -> str:
        if tok.text in RESERVED:
            raise ParseError(tok.line, tok.col, f"{tok.text} is reserved")
        if taken(tok.text):
            raise ParseError(tok.line, tok.col, f"{tok.text} is already declared")
        return tok.text

    while p.peek().kind != "eof":
        head = p.next()
        if head.kind != "kw":
            raise ParseError(head.line, head.col, f"expected a declaration, found {head.text!r}")
        if head.text == "atom":
            name = fresh_decl_name(p.expect_ident("an atom name"))
            decl.atoms.append(name)
        elif head.text == "const":
            name = fresh_decl_name(p.expect_ident("a constant name"))
            p.expect_sym(":")
            decl.constants[name] = p.type_()
        elif head.text == "operation":
            name = fresh_decl_name(p.expect_ident("an operation name"))
            p.expect_sym(":")
            inp = p.type_()
            p.expect_sym("~>")
            out = p.type_()
            decl.operations = decl.operations.disjoint_union(
                Signature.of({name: (inp, out)})
            )
        elif head.text == "def":
            name = fresh_decl_name(p.expect_ident("a definition name"))
            ty: Type | None = None
            if p.at_sym(":"):
                p.next()
                ty = p.type_()
            p.expect_sym(":=")
            term = p.term()
            decl.defs.append((name, ty, Ann(term, ty) if ty is not None else term))
        elif head.text in ("check", "normalize", "trace"):
            decl.directives.append((head.text, p.term()))
        else:
            raise ParseError(head.line, head.col, f"unexpected keyword {head.text!r}")
        p.expect_sym(".")
        p.env = decl.env()
    return decl


# ---------------------------------------------------------------------------
# Printing


def print_type(ty: Type) -> str:
    match ty:
        case Atom(name):
            return name
        case Fun(dom, cod):
            left = print_type(dom)
            if isinstance(dom, Fun):
                left = f"({left})"
            return f"{left} -> {print_type(cod)}"
        case Comp(effects, value):
            row = ", ".join(effects.names())
            return f"F{{{row}}}({print_type(value)})"
    raise TypeError(f"not a type: {ty!r}")


_BIND, _IMP, _CONJ, _EQ, _LIFT, _APP, _UNIT = range(7)

_INFIX = {"imp": (_IMP, _CONJ, _IMP, "->"), "and": (_CONJ, _CONJ, _EQ, "/\\"), "eq": (_EQ, _LIFT, _LIFT, "=")}


def print_term(t: Term) -> str:
    def go(t: Term, level: int) -> str:
        natural, text = render(t)
        if natural < level:
            return f"({text})"
        return text

    def render(t: Term) -> tuple[int, str]:
        match t:
            case Var(name):
                return _UNIT, name
            case Const(name):
                return _UNIT, name
            case Abs(binder, body):
                return _BIND, f"\\{binder}. {go(body, _BIND)}"
            case App(App(Const(c), a), b) if c in _INFIX:
                lvl, llvl, rlvl, sym = _INFIX[c]
                return lvl, f"{go(a, llvl)} {sym} {go(b, rlvl)}"
            case App(fn, arg):
                return _APP, f"{go(fn, _APP)} {go(arg, _UNIT)}"
            case Eta(value):
                return _APP, f"eta {go(value, _UNIT)}"
            case Cherry(comp):
                return _APP, f"extract {go(comp, _UNIT)}"
            case Exchange(fn):
                return _APP, f"commute {go(fn, _UNIT)}"
            case Op(op, param, binder, cont):
                return _UNIT, f"do {op}({go(param, _BIND)}, \\{binder}. {go(cont, _BIND)})"
            case Handler(clauses, eta_clause, scrutinee):
                parts = [f"{name} -> {go(clause, _BIND)}" for name, clause in clauses]
                if not alpha_eq(eta_clause, eta_identity()):
                    parts.append(f"eta -> {go(eta_clause, _BIND)}")
                inner = ", ".join(parts)
                braces = f"{{ {inner} }}" if inner else "{ }"
                return _APP, f"handle {braces} {go(scrutinee, _UNIT)}"
            case Ann(term, ty):
                return _UNIT, f"({go(term, _BIND)} : {print_type(ty)})"
        raise TypeError(f"not a term: {t!r}")

    return go(t, _BIND)


def print_path(path: tuple[int, ...]) -> str:
    return ".".join(str(i) for i in path) if path else "root"
