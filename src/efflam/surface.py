"""Concrete syntax: lexer, parser, pretty-printer, declaration files.

Terms parse against a `Context` of declared names, so unknown
identifiers fail at parse time with a position.  It is the record the
checker types against: the parser reads its atoms, constants,
operations and the definitions (`defs`) that it inlines, never the
variable types.  `parse_file` reads a declaration file into a
`DeclFile`, whose `context()` holds the file's names.  The printer emits
minimal parentheses and round-trips: reparsing printed output yields an
alpha-equivalent term whenever the names it mentions are declared.

Binary sequencing and lifting sugar (`>>=`, `.>>`, `<<.`, `<<.>>`) and
the lifted connectives (`/\\~`, `->~`, `=~`) expand at parse time into
their handler definitions; the bare connectives (`/\\`, `->`, `=`)
are infix spellings of the declared constants `and`, `imp`, `eq`.  One
table, `_INFIX`, gives each operator's binding level and associativity
to the lexer, the parser and the printer.

A token is its text alone: one regular-expression call splits the
source into the texts of its words, symbols and unit types, skipping
blanks, line breaks and comments, and ends the list with "" for the end
of the input.  The expression tries the frequent tokens first: words,
then one character class of the one-character symbols that begin no
longer symbol (derived from the symbol table), then the rest of the
symbols longest first.  Taking the longest symbol matters only among
symbols that share a first character, so this order lexes exactly as
longest-first over every symbol does.  The parser reads a token's kind
off its text.  Line and column are computed only when a `ParseError` is
raised, by lexing the source again up to the index of the token the
error blames.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from itertools import islice
from typing import NamedTuple, NoReturn

from .prelude import apply_both, apply_left, apply_right, bind, eta_identity, lift_binary
from .syntax import (
    Abs,
    Ann,
    App,
    Atom,
    Cherry,
    Comp,
    Const,
    Context,
    Eta,
    Exchange,
    Fun,
    Handler,
    Op,
    Path,
    Signature,
    Term,
    Type,
    UNIT,
    Var,
    fold,
    handler,
    strip,
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


class _Infix(NamedTuple):
    level: int  # binding level: 0 is the loosest
    assoc: str  # left | right | none
    constant: str | None  # the declared constant the sugar needs
    build: Callable[[Term, Term], Term] | None  # None: `constant` applied to both


# every infix operator, loosest first; the bare connectives (no builder)
# are the ones the printer writes back as infix
_INFIX = {
    ">>=": _Infix(0, "left", None, bind),
    "->": _Infix(1, "right", "imp", None),
    "->~": _Infix(1, "right", "imp", partial(lift_binary, "imp")),
    "/\\": _Infix(2, "left", "and", None),
    "/\\~": _Infix(2, "left", "and", partial(lift_binary, "and")),
    "=": _Infix(3, "none", "eq", None),
    "=~": _Infix(3, "none", "eq", partial(lift_binary, "eq")),
    "<<.": _Infix(4, "left", None, apply_right),
    ".>>": _Infix(4, "left", None, apply_left),
    "<<.>>": _Infix(4, "left", None, apply_both),
}

_TIGHTEST = max(op.level for op in _INFIX.values())

# longest first, so that the lexer takes the longest symbol that matches
_SYMBOLS = sorted(
    [*_INFIX, "~>", "(", ")", "{", "}", ",", ".", ":=", ":", "\\", "*"], key=len, reverse=True
)

# the one-character symbols that begin no longer symbol, derived from
# `_SYMBOLS`: for these, the first character alone decides the token
_SINGLES = [
    s for s in _SYMBOLS if len(s) == 1 and not any(o != s and o.startswith(s) for o in _SYMBOLS)
]

# one match per token: the blanks, line breaks and comments before it,
# then the token itself, captured.  A token is a word (letters, digits,
# `_` and `'`, and `-` when a letter or digit follows it; `\w` is exactly
# `str.isalnum` plus `_`, and `_lex` checks that the first character
# passes `str.isalpha`), a symbol, the unit type, the end of the input
# (captured as ""), or any other character, which is an error.  The
# alternatives are tried in order of frequency: words, the one
# character class of `_SINGLES`, the unit type, then the other symbols
# longest first.  No two alternatives can match at one position except
# symbols that share a first character, so longest-first order matters
# only among those, and the order of the rest changes no token.  The
# gap is blanks, then comments each followed by blanks, so it splits one
# way only and the capture after it always matches at once.
_TOKEN = re.compile(
    r"[ \t\r\n]*(?:#[^\n]*[ \t\r\n]*)*"
    r"([^\W\d_][\w']*(?:-[^\W_][\w']*)*"
    r"|[" + "".join(map(re.escape, _SINGLES)) + "]|1|"
    + "|".join(re.escape(s) for s in _SYMBOLS if s not in _SINGLES)
    + r"|\Z|.)"
)

# the lexed texts that are not words; any other must start with a letter
_FIXED = frozenset(_SYMBOLS) | {"1", ""}

# the lexed texts that are not identifiers: any other is a word that is
# not a keyword
_NON_IDENTS = KEYWORDS | _FIXED

# the lexed texts that start no unit: any other is an identifier, or
# one of the symbols and keywords that begin a unit
_NO_UNIT = _NON_IDENTS - {"(", "*", "eta", "extract", "commute", "do", "handle"}


class ParseError(Exception):
    def __init__(self, line: int, col: int, message: str):
        self.line = line
        self.col = col
        super().__init__(message)

    def __str__(self) -> str:
        return f"parse error at line {self.line}, column {self.col}: {self.args[0]}"


def _lex(src: str) -> list[str]:
    """The token texts of `src`, ending with "" for the end of input."""
    tokens = _TOKEN.findall(src)
    # a gap at the very end is matched with the end, and then the end
    # matches once more on its own
    if len(tokens) > 1 and tokens[-2] == "":
        tokens.pop()
    bad = [text for text in set(tokens).difference(_FIXED) if not text[0].isalpha()]
    if bad:
        index = min(map(tokens.index, bad))
        line, col = _position(src, index)
        raise ParseError(line, col, f"unexpected character {tokens[index][0]!r}")
    return tokens


def _position(src: str, index: int) -> tuple[int, int]:
    """Line and column of the token at `index` in `_lex(src)`: only an
    error reads them, so they are found by lexing `src` again."""
    start = next(islice(_TOKEN.finditer(src), index, None)).start(1)
    return src.count("\n", 0, start) + 1, start - src.rfind("\n", 0, start)


# ---------------------------------------------------------------------------
# Declaration files


@dataclass
class DeclFile:
    """An ordered declaration file: signature, definitions, directives."""

    atoms: list[str] = field(default_factory=list)
    constants: dict[str, Type] = field(default_factory=dict)
    operations: Signature = Signature()
    defs: list[tuple[str, Type | None, Term]] = field(default_factory=list)
    directives: list[tuple[str, Term]] = field(default_factory=list)

    def context(self) -> Context:
        """The file's atoms, constants, operations and definitions."""
        defs = {name: term for name, _, term in self.defs}
        return Context.initial(self.atoms, self.constants, self.operations, defs)


class _Parser:
    """Recursive descent over the token texts of `src`.  A token's kind
    follows from its text, and an error finds its position from the index
    of the token it blames.

    The productions of terms and types (`term`, `app_term`, `unit`,
    `lambda_`, `op_call`, `handler`, `type_` and `type_atom`) read
    `toks[pos]` into a local and advance `pos` themselves, testing the
    most frequent case first.  The helper methods (`peek`, `next`,
    `at_sym`, `expect_sym`, `expect_ident`) serve the declarations, the
    error paths, which call them to raise the error a helper would, and
    the reference parser of `tests/chain_parser.py`."""

    def __init__(self, src: str, ctx: Context):
        self.src = src
        self.toks = _lex(src)
        self.pos = 0
        self.ctx = ctx
        self.bound: list[str] = []

    # -- token plumbing

    def peek(self) -> str:
        return self.toks[self.pos]

    def next(self) -> str:
        tok = self.toks[self.pos]
        self.pos += 1
        return tok

    def at_sym(self, text: str) -> bool:
        return self.toks[self.pos] == text

    def expect_sym(self, text: str) -> None:
        tok = self.toks[self.pos]
        if tok != text:
            self.fail(f"expected {text!r}, found {tok!r}")
        self.pos += 1

    def expect_ident(self, what: str) -> str:
        tok = self.toks[self.pos]
        if tok in _NON_IDENTS:
            self.fail(f"expected {what}, found {tok!r}")
        self.pos += 1
        return tok

    def fail_at(self, index: int, message: str) -> NoReturn:
        line, col = _position(self.src, index)
        raise ParseError(line, col, message)

    def fail(self, message: str) -> NoReturn:
        self.fail_at(self.pos, message)

    def end(self, what: str) -> None:
        tok = self.peek()
        if tok != "":
            self.fail(f"unexpected {tok!r} after the {what}")

    # -- types

    def type_(self) -> Type:
        left = self.type_atom()
        if self.toks[self.pos] == "->":
            self.pos += 1
            return Fun(left, self.type_())
        return left

    def type_atom(self) -> Type:
        toks = self.toks
        pos = self.pos
        tok = toks[pos]
        if tok == "F":
            pos += 1
            if toks[pos] != "{":
                self.pos = pos
                self.expect_sym("{")
            pos += 1
            operations = self.ctx.operations
            table: dict[str, tuple[Type, Type]] = {}
            while (name := toks[pos]) != "}":
                if name in _NON_IDENTS:
                    self.pos = pos
                    self.expect_ident("an operation name")
                entry = operations.get(name)
                if entry is None:
                    self.fail_at(pos, f"unknown operation {name}")
                if name in table:
                    self.fail_at(pos, f"duplicate operation {name} in row")
                table[name] = entry
                pos += 1
                if toks[pos] == ",":
                    pos += 1
                elif toks[pos] != "}":
                    self.pos = pos
                    self.fail("expected ',' or '}' in effect row")
            pos += 1
            if toks[pos] != "(":
                self.pos = pos
                self.expect_sym("(")
            self.pos = pos + 1
            value = self.type_()
            self.expect_sym(")")
            return Comp(Signature.of(table), value)
        if tok not in _NON_IDENTS:
            if tok not in self.ctx.atoms:
                self.fail(f"unknown atomic type {tok}")
            self.pos = pos + 1
            return Atom(tok)
        if tok == "1":
            self.pos = pos + 1
            return UNIT
        if tok == "(":
            self.pos = pos + 1
            ty = self.type_()
            self.expect_sym(")")
            return ty
        self.fail("expected a type")

    # -- terms

    def term(self, level: int = 0) -> Term:
        """An operand, then every infix operator that binds at `level` or
        tighter, by precedence climbing over `_INFIX` (Pratt, "Top Down
        Operator Precedence", POPL 1973)."""
        left = self.app_term()
        # the tightest operator that may follow: after an operator, only
        # looser ones, or the same level again if it is left-associative
        limit = _TIGHTEST
        while True:
            op = _INFIX.get(self.toks[self.pos])
            if op is None or not level <= op.level <= limit:
                return left
            if op.constant is not None and op.constant not in self.ctx.constants:
                self.fail(f"this sugar needs a declared constant {op.constant}")
            self.pos += 1
            right = self.term(op.level if op.assoc == "right" else op.level + 1)
            if op.build is None:
                left = App(App(Const(op.constant), left), right)
            else:
                left = op.build(left, right)
            limit = op.level if op.assoc == "left" else op.level - 1

    def app_term(self) -> Term:
        toks = self.toks
        if toks[self.pos] == "\\":
            return self.lambda_()
        term = self.unit()
        while True:
            tok = toks[self.pos]
            if tok not in _NO_UNIT:
                term = App(term, self.unit())
            elif tok == "\\":
                # a trailing lambda is the final argument
                return App(term, self.lambda_())
            else:
                return term

    def lambda_(self) -> Term:
        """`\\x. body`, at the backslash, which the caller has seen."""
        toks = self.toks
        pos = self.pos + 1
        binder = toks[pos]
        if binder in _NON_IDENTS or toks[pos + 1] != ".":
            self.pos = pos
            self.expect_ident("a binder name")
            self.expect_sym(".")
        self.pos = pos + 2
        bound = self.bound
        bound.append(binder)
        body = self.term()
        bound.pop()
        return Abs(binder, body)

    def unit(self) -> Term:
        pos = self.pos
        tok = self.toks[pos]
        if tok not in _NON_IDENTS:
            ctx = self.ctx
            if tok in self.bound:
                term = Var(tok)
            elif tok in ctx.defs:
                term = ctx.defs[tok]
            elif tok in ctx.constants:
                term = Const(tok)
            else:
                self.fail(f"unknown identifier {tok}")
            self.pos = pos + 1
            return term
        if tok == "(":
            self.pos = pos + 1
            inner = self.term()
            if self.toks[self.pos] == ":":
                self.pos += 1
                ty = self.type_()
                self.expect_sym(")")
                return Ann(inner, ty)
            self.expect_sym(")")
            return inner
        if tok == "*":
            self.pos = pos + 1
            return Const("*")
        if tok == "\\":
            return self.lambda_()
        if tok in KEYWORDS:
            if tok == "eta":
                self.pos = pos + 1
                return Eta(self.unit())
            if tok == "extract":
                self.pos = pos + 1
                return Cherry(self.unit())
            if tok == "commute":
                self.pos = pos + 1
                return Exchange(self.unit())
            if tok == "do":
                return self.op_call()
            if tok == "handle":
                return self.handler()
            self.fail(f"unexpected keyword {tok!r}")
        self.fail(f"expected a term, found {tok!r}")

    def op_call(self) -> Term:
        """`do op(param, \\x. cont)`, at the `do`, which the caller has seen."""
        toks = self.toks
        pos = self.pos + 1
        op = toks[pos]
        if op in _NON_IDENTS or toks[pos + 1] != "(":
            self.pos = pos
            self.expect_ident("an operation name")
            self.expect_sym("(")
        if self.ctx.operations.get(op) is None:
            self.fail_at(pos, f"unknown operation {op}")
        self.pos = pos + 2
        param = self.term()
        pos = self.pos
        if toks[pos] != "," or toks[pos + 1] != "\\":
            self.expect_sym(",")
            self.fail("the operation continuation must be a lambda")
        self.pos = pos + 1
        cont = self.lambda_()
        if toks[self.pos] != ")":
            self.expect_sym(")")
        self.pos += 1
        return Op(op, param, cont.binder, cont.body)

    def handler(self) -> Term:
        """`handle {clauses} unit`, at the `handle`, which the caller has
        seen."""
        toks = self.toks
        pos = self.pos + 1
        if toks[pos] != "{":
            self.pos = pos
            self.expect_sym("{")
        pos += 1
        clauses: dict[str, Term] = {}
        eta_clause: Term | None = None
        while (head := toks[pos]) != "}":
            if head in _NON_IDENTS and head != "eta":
                self.fail_at(pos, "expected an operation name or 'eta'")
            if toks[pos + 1] != "->":
                self.pos = pos + 1
                self.expect_sym("->")
            self.pos = pos + 2
            if head == "eta":
                if eta_clause is not None:
                    self.fail_at(pos, "duplicate eta clause")
                eta_clause = self.term()
            else:
                if self.ctx.operations.get(head) is None:
                    self.fail_at(pos, f"unknown operation {head}")
                if head in clauses:
                    self.fail_at(pos, f"duplicate clause for operation {head}")
                clauses[head] = self.term()
            pos = self.pos
            if toks[pos] == ",":
                pos += 1
            elif toks[pos] != "}":
                self.fail("expected ',' or '}' after a handler clause")
        self.pos = pos + 1
        if eta_clause is None:
            eta_clause = eta_identity()
        if toks[pos + 1] in _NO_UNIT:
            self.fail("a handler must be applied to a computation")
        scrutinee = self.unit()
        return handler(clauses, eta_clause, scrutinee)


def parse_term(src: str, ctx: Context) -> Term:
    p = _Parser(src, ctx)
    term = p.term()
    p.end("term")
    return term


def parse_type(src: str, ctx: Context) -> Type:
    p = _Parser(src, ctx)
    ty = p.type_()
    p.end("type")
    return ty


_DECLARATIONS = {"atom", "const", "operation", "def", "check", "normalize", "trace"}


def parse_file(src: str) -> DeclFile:
    """Read a declaration file.  Each distinct type it spells stays in
    `syntax`'s type table as long as the module does, so reading files
    with ever new atom or operation names grows that table."""
    decl = DeclFile()
    # the names a term is parsed against: each declaration adds its own
    # once it is read, so a declaration cannot mention itself
    operations: dict[str, tuple[Type, Type]] = {}
    ctx = Context.initial((), {}, operations)
    declared: set[str] = set()
    p = _Parser(src, ctx)

    def fresh_decl_name(what: str) -> str:
        name = p.expect_ident(what)
        if name in RESERVED:
            p.fail_at(p.pos - 1, f"{name} is reserved")
        if name in declared:
            p.fail_at(p.pos - 1, f"{name} is already declared")
        declared.add(name)
        return name

    while (head := p.peek()) != "":
        if head not in KEYWORDS:
            p.fail(f"expected a declaration, found {head!r}")
        if head not in _DECLARATIONS:
            p.fail(f"unexpected keyword {head!r}")
        p.next()
        if head == "atom":
            name = fresh_decl_name("an atom name")
            decl.atoms.append(name)
            ctx.atoms.add(name)
        elif head == "const":
            name = fresh_decl_name("a constant name")
            p.expect_sym(":")
            decl.constants[name] = ctx.constants[name] = p.type_()
        elif head == "operation":
            name = fresh_decl_name("an operation name")
            p.expect_sym(":")
            inp = p.type_()
            p.expect_sym("~>")
            out = p.type_()
            operations[name] = (inp, out)
        elif head == "def":
            name = fresh_decl_name("a definition name")
            ty: Type | None = None
            if p.at_sym(":"):
                p.next()
                ty = p.type_()
            p.expect_sym(":=")
            term = p.term()
            ctx.defs[name] = Ann(term, ty) if ty is not None else term
            decl.defs.append((name, ty, ctx.defs[name]))
        else:
            decl.directives.append((head, p.term()))
        p.expect_sym(".")
    decl.operations = Signature.of(operations)
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


# printing levels: the operators', then application, then atoms
_BIND, _APP, _UNIT = 0, _TIGHTEST + 1, _TIGHTEST + 2

# each bare connective's constant: (level, left operand's level, right
# operand's level, symbol); the operand on the associative side sits at
# the operator's own level, the other one level tighter
_PRINTED_INFIX = {
    op.constant: (op.level, op.level + (op.assoc != "left"), op.level + (op.assoc != "right"), sym)
    for sym, op in _INFIX.items()
    if op.build is None
}


def print_term(t: Term) -> str:
    return fold(t, _enter_print, _leave_print)[1]


# A node's printed result is its binding level and its unparenthesized
# text; its parent parenthesizes it as an operand (`_operand`).  No
# operand sits at a looser level than `_BIND`, so an operand at `_BIND`
# is never parenthesized.


def _enter_print(t: Term):
    """The printer's `enter` hook for `fold`: a leaf's result, a bare
    connective's operands, or a handler's children without an identity
    eta clause, which the parser fills in when none is written."""
    cls = type(t)
    if cls is Var or cls is Const:
        return _UNIT, t.name
    if cls is App:
        fn = t.fn
        if type(fn) is App and type(fn.fn) is Const and fn.fn.name in _PRINTED_INFIX:
            return [_PRINTED_INFIX[fn.fn.name], fn.arg, t.arg]
    elif cls is Handler and _is_eta_identity(t.eta_clause):
        return [t, *[c for _, c in t.clauses], t.scrutinee]
    return None


def _leave_print(t, kids: list[tuple[int, str]]) -> tuple[int, str]:
    """The printer's `leave` hook: `t`'s result from its kids'.  `t` is
    a node, or the `_PRINTED_INFIX` entry of a bare connective applied
    to two operands."""
    cls = type(t)
    if cls is App:
        fn, arg = kids
        return _APP, f"{_operand(fn, _APP)} {_operand(arg, _UNIT)}"
    if cls is Abs:
        return _BIND, f"\\{t.binder}. {kids[0][1]}"
    if cls is tuple:
        lvl, llvl, rlvl, sym = t
        a, b = kids
        return lvl, f"{_operand(a, llvl)} {sym} {_operand(b, rlvl)}"
    if cls is Eta:
        return _APP, f"eta {_operand(kids[0], _UNIT)}"
    if cls is Op:
        param, cont = kids
        return _UNIT, f"do {t.op}({param[1]}, \\{t.binder}. {cont[1]})"
    if cls is Handler:
        parts = [f"{name} -> {text}" for (name, _), (_, text) in zip(t.clauses, kids)]
        if len(kids) > len(t.clauses) + 1:
            parts.append(f"eta -> {kids[-2][1]}")
        inner = ", ".join(parts)
        braces = f"{{ {inner} }}" if inner else "{ }"
        return _APP, f"handle {braces} {_operand(kids[-1], _UNIT)}"
    if cls is Ann:
        return _UNIT, f"({kids[0][1]} : {print_type(t.ty)})"
    if cls is Cherry:
        return _APP, f"extract {_operand(kids[0], _UNIT)}"
    # an Exchange: `fold` has raised `children`'s TypeError for a non-term
    return _APP, f"commute {_operand(kids[0], _UNIT)}"


def _operand(printed: tuple[int, str], level: int) -> str:
    """A printed kid as an operand at binding `level`: parenthesized when
    its own level is looser."""
    natural, text = printed
    return f"({text})" if natural < level else text


def _is_eta_identity(t: Term) -> bool:
    """Whether `t` is `\\b. eta b`, the eta clause a handler gets when
    none is written, skipping ascriptions at each level as
    `canonical_key` does.  A test of shape, so printing a handler does
    not cost the size of its eta clause."""
    t = strip(t)
    if type(t) is not Abs:
        return False
    body = strip(t.body)
    if type(body) is not Eta:
        return False
    value = strip(body.value)
    return type(value) is Var and value.name == t.binder


def print_path(path: Path) -> str:
    return ".".join(str(i) for i in path) if path else "root"
