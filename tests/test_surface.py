"""Lexing, parsing, printing, and their round-trip."""

from __future__ import annotations

import functools
import sys
import timeit
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from efflam import surface, syntax
from efflam.fragment import shipped_source
from efflam.prelude import apply_both, apply_left, apply_right, bind, eta_identity, lift_binary
from efflam.surface import (
    KEYWORDS,
    ParseError,
    _SYMBOLS,
    _is_eta_identity,
    _lex,
    _position,
    parse_file,
    parse_term,
    parse_type,
    print_term,
    print_type,
)
from efflam.syntax import (
    Abs,
    Ann,
    App,
    Atom,
    Comp,
    Const,
    Context,
    EMPTY_ROW,
    Eta,
    Fun,
    Handler,
    Op,
    Signature,
    UNIT,
    Var,
    alpha_eq,
    free_vars,
)
from .chain_parser import parse_term_by_chain
from .conftest import NAMES, leaf_terms, terms, types
from .test_typecheck import chained_defs

ROOT = Path(__file__).resolve().parents[1]

DECLS = """
atom iota. atom o.
const j : iota. const m : iota.
const love : iota -> iota -> o.
const and : o -> o -> o.
const imp : o -> o -> o.
const eq : iota -> iota -> o.
operation speaker : 1 ~> iota.
def me := do speaker(*, \\x. eta x).
"""

FILE = parse_file(DECLS)
ENV = FILE.context()

GEN_ENV = Context.initial(
    atoms={"A", "B"},
    constants={"c0": Atom("A"), "c1": Atom("A")},
    operations=Signature.of({"opa": (Atom("A"), Atom("A")), "opb": (Atom("A"), Atom("B"))}),
)


def t(src: str):
    return parse_term(src, ENV)


# ---------------------------------------------------------------------------
# Parsing shapes


def test_application_is_left_associative():
    assert t("love j m") == App(App(Const("love"), Const("j")), Const("m"))


def test_lambda_body_extends_right():
    assert t("\\x. love x x") == Abs("x", App(App(Const("love"), Var("x")), Var("x")))


def test_trailing_lambda_is_the_last_argument():
    assert alpha_eq(t("love j \\x. x"), App(App(Const("love"), Const("j")), Abs("x", Var("x"))))


def test_operation_call():
    assert t("do speaker(*, \\x. eta x)") == Op("speaker", Const("*"), "x", Eta(Var("x")))


def test_handler_with_default_eta_clause():
    parsed = t("handle { speaker -> \\x. \\k. k j } me")
    assert isinstance(parsed, Handler)
    assert [name for name, _ in parsed.clauses] == ["speaker"]
    assert alpha_eq(parsed.eta_clause, Abs("v", Eta(Var("v"))))


def test_definitions_are_inlined_at_parse_time():
    assert t("me") == Op("speaker", Const("*"), "x", Eta(Var("x")))


def test_ascription():
    assert t("(j : iota)") == Ann(Const("j"), Atom("iota"))


def test_type_syntax():
    assert parse_type("iota -> iota -> o", ENV) == Fun(
        Atom("iota"), Fun(Atom("iota"), Atom("o"))
    )
    assert parse_type("F{}(o)", ENV) == Comp(EMPTY_ROW, Atom("o"))
    assert parse_type("F{speaker}(1)", ENV) == Comp(
        Signature.of({"speaker": (UNIT, Atom("iota"))}), UNIT
    )


def test_unit_type_and_value():
    assert parse_type("1", ENV) == UNIT
    assert t("*") == Const("*")


# ---------------------------------------------------------------------------
# Sugar


def test_bind_sugar():
    k = Abs("x", Eta(Var("x")))
    assert alpha_eq(t("me >>= \\x. eta x"), bind(t("me"), k))


def test_lift_sugar_matches_the_combinators():
    f, x = t("eta love"), t("eta j")
    assert alpha_eq(t("eta love <<. j"), apply_right(f, Const("j")))
    assert alpha_eq(t("love .>> eta j"), apply_left(Const("love"), x))
    assert alpha_eq(t("eta love <<.>> eta j"), apply_both(f, x))


def test_infix_connectives_desugar_to_declared_constants():
    assert t("love j m /\\ love m j") == App(
        App(Const("and"), t("love j m")), t("love m j")
    )
    assert t("j = m") == App(App(Const("eq"), Const("j")), Const("m"))


def test_lifted_connective_sugar():
    got = t("eta (love j m) /\\~ eta (love m j)")
    expected = lift_binary("and", t("eta (love j m)"), t("eta (love m j)"))
    assert alpha_eq(got, expected)


def test_connective_precedence():
    src = "j = m /\\ love j m -> love m j"
    expected = App(
        App(Const("imp"), App(App(Const("and"), t("j = m")), t("love j m"))),
        t("love m j"),
    )
    assert t(src) == expected
    assert print_term(expected) == src


def test_implication_is_right_associative():
    expected = App(App(Const("imp"), Const("j")), t("m -> j"))
    assert t("j -> m -> j") == expected
    assert print_term(expected) == "j -> m -> j"


def test_equality_is_not_associative():
    e = err("j = m = j")
    assert str(e) == "parse error at line 1, column 7: unexpected '=' after the term"
    e = err("j /\\ j = m = j")
    assert (e.line, e.col, e.args[0]) == (1, 12, "unexpected '=' after the term")


# ---------------------------------------------------------------------------
# Errors carry positions


def err(src: str) -> ParseError:
    with pytest.raises(ParseError) as exc:
        t(src)
    return exc.value


def test_unknown_identifier_position():
    e = err("love ghost")
    assert (e.line, e.col) == (1, 6)


def test_unexpected_character_position():
    e = err("love ?")
    assert (e.line, e.col) == (1, 6)


def test_duplicate_handler_clause():
    e = err("handle { speaker -> \\x. \\k. k j, speaker -> \\x. \\k. k m } me")
    assert "duplicate clause" in str(e)


def test_operation_continuation_must_be_a_lambda():
    e = err("do speaker(*, me)")
    assert "must be a lambda" in str(e)


def test_error_position_after_a_comment():
    # the comment's characters count towards the column of what follows
    e = err("(eta j # unclosed")
    assert (e.line, e.col) == (1, 18)


def test_multiline_error_positions():
    e = err("love j\n  ghost")
    assert (e.line, e.col) == (2, 3)


def test_infix_needs_its_constant_declared():
    env = Context.initial((), {"p": UNIT}, Signature())
    with pytest.raises(ParseError) as exc:
        parse_term("p /\\ p", env)
    assert "needs a declared constant and" in str(exc.value)
    # reported at the operator, before its right operand is read
    with pytest.raises(ParseError) as exc:
        parse_term("p\n  ->~ ghost", env)
    assert str(exc.value) == (
        "parse error at line 2, column 3: this sugar needs a declared constant imp"
    )


def test_type_row_rejects_undeclared_operations():
    with pytest.raises(ParseError) as exc:
        parse_type("F{ghost}(o)", ENV)
    assert "ghost" in str(exc.value)


def test_redeclaration_is_rejected():
    with pytest.raises(ParseError) as exc:
        parse_file("atom iota. atom iota.")
    assert "already declared" in str(exc.value)


# each kind of declaration, of the name in braces
_DECLARING = {
    "atom": "atom {}.",
    "const": "const {} : a.",
    "operation": "operation {} : a ~> a.",
    "def": "def {} := c.",
}


@pytest.mark.parametrize("first", _DECLARING)
@pytest.mark.parametrize("second", _DECLARING)
def test_a_name_taken_by_any_declaration_cannot_be_declared_again(first, second):
    src = "atom a. const c : a.\n" + _DECLARING[first].format("x")
    src += "\n  " + _DECLARING[second].format("x")
    with pytest.raises(ParseError) as exc:
        parse_file(src)
    # blamed at the second declaration's name
    column = 3 + len(second) + 1
    assert str(exc.value) == f"parse error at line 3, column {column}: x is already declared"


@pytest.mark.parametrize(
    "line", ["atom a{}.", "const c{} : 1.", "operation o{} : 1 ~> 1.", "def d{} := *."]
)
def test_parsing_declarations_takes_time_linear_in_their_number(line):
    def seconds(n):
        src = "\n".join(line.format(i) for i in range(n))
        return min(timeit.repeat(lambda: parse_file(src), number=1, repeat=5))

    # linear is 4x; rebuilding the environment after each declaration
    # gave 13-16x for defs and 20x for operations
    assert seconds(4000) < 8 * seconds(1000)


def test_reserved_names_cannot_be_declared():
    with pytest.raises(ParseError):
        parse_file("atom handle.")
    with pytest.raises(ParseError):
        parse_file("atom F.")


def test_a_file_context_holds_its_names_and_the_unit_type_and_value():
    ctx = parse_file("atom a. const c : a. operation o : a ~> a. def d := c.").context()
    assert ctx.atoms == {"1", "a"}
    assert ctx.constants == {"*": UNIT, "c": Atom("a")}
    assert ctx.operations == Signature.of({"o": (Atom("a"), Atom("a"))})
    assert ctx.defs == {"d": Const("c")}
    assert ctx.vars == {}


def test_directives_are_collected_in_order():
    f = parse_file("atom a. const c : a. check c. normalize eta c. trace eta c.")
    assert [kind for kind, _ in f.directives] == ["check", "normalize", "trace"]


# ---------------------------------------------------------------------------
# Round-trip


def _close(term):
    for name in sorted(free_vars(term), reverse=True):
        term = Abs(name, term)
    return term


@given(terms)
def test_printing_then_parsing_is_identity_up_to_alpha(tm):
    closed = _close(tm)
    printed = print_term(closed)
    assert alpha_eq(parse_term(printed, GEN_ENV), closed)


@given(terms)
def test_printing_is_idempotent(tm):
    printed = print_term(_close(tm))
    assert print_term(parse_term(printed, GEN_ENV)) == printed


@pytest.mark.parametrize(
    "src",
    [
        "eta (love j m)",
        "do speaker(*, \\x. eta (love m x))",
        "handle { speaker -> \\x. \\k. k j } me",
        "handle { speaker -> \\x. \\k. k j, eta -> \\x. eta (love x x) } me",
        "extract (eta j)",
        "commute (\\x. eta (love x))",
        "(\\x. eta x) j",
        "(eta j : F{speaker}(iota))",
        "j = m /\\ love j m -> love m j",
        "eta \\x. love x x",
    ],
)
def test_printed_form_reparses_to_the_same_term(src):
    parsed = t(src)
    assert alpha_eq(parse_term(print_term(parsed), ENV), parsed)


def test_type_printing_round_trips():
    for src in ["iota", "1", "iota -> o", "(iota -> o) -> o", "F{speaker}(iota -> o)"]:
        ty = parse_type(src, ENV)
        assert print_type(ty) == src
        assert parse_type(print_type(ty), ENV) == ty


# ---------------------------------------------------------------------------
# The printer omits the default eta clause, found by its shape


def _ascribed(term):
    """`term` under up to two ascriptions."""
    return st.lists(types, max_size=2).map(lambda tys: functools.reduce(Ann, tys, term))


# `\b. eta v` with ascriptions at each level; v is b one time in eight
_near_identities = st.builds(
    Abs, st.sampled_from(NAMES), leaf_terms.flatmap(_ascribed).map(Eta).flatmap(_ascribed)
).flatmap(_ascribed)


@settings(max_examples=500)
@given(st.one_of(_near_identities, terms))
def test_the_eta_identity_shape_test_agrees_with_alpha_equivalence(tm):
    assert _is_eta_identity(tm) == alpha_eq(tm, eta_identity())


@pytest.mark.parametrize(
    "term, identity",
    [
        (Abs("b", Eta(Var("b"))), True),
        (Ann(Abs("b", Eta(Var("b"))), Fun(UNIT, Comp(EMPTY_ROW, UNIT))), True),
        (Abs("b", Ann(Eta(Var("b")), Comp(EMPTY_ROW, UNIT))), True),
        (Abs("b", Eta(Ann(Var("b"), UNIT))), True),
        (Abs("x", Eta(Var("y"))), False),
        (Abs("x", Abs("y", Eta(Var("x")))), False),
        (Abs("x", Eta(Const("x"))), False),
        (Eta(Var("x")), False),
    ],
)
def test_the_eta_identity_shape_test_by_hand(term, identity):
    assert _is_eta_identity(term) is identity
    assert alpha_eq(term, eta_identity()) is identity


def test_printing_a_long_chain_of_binds_never_builds_a_canonical_key():
    chain = Eta(Const("c"))
    for i in range(200):
        chain = bind(Eta(Const(f"a{i}")), Abs("x", chain))
    with mock.patch.object(syntax, "canonical_key", wraps=syntax.canonical_key) as key:
        printed = print_term(chain)
        assert key.call_count == 0
        # the patch sees the keys that alpha-equivalence builds
        alpha_eq(chain, chain)
        assert key.call_count == 2
    assert printed.count("eta ->") == 200


# ---------------------------------------------------------------------------
# Fuzzing: the parser either succeeds or raises ParseError


@settings(max_examples=300)
@given(st.text(alphabet="\\xyzc01()*.:{},->=~F eta#\n" + "dohanle", max_size=60))
def test_parser_never_crashes(src):
    try:
        parse_term(src, GEN_ENV)
    except ParseError:
        pass


# operands, all ten infix symbols, lambdas and parentheses, for the
# differential test against the parser that the operator table replaced
_OPERANDS = ["j", "m", "x", "me", "eta j", "love j", "(eta x : F{speaker}(iota))"]
_INFIX_SYMBOLS = [">>=", "->", "->~", "/\\", "/\\~", "=", "=~", "<<.", ".>>", "<<.>>"]


def _infix_sources(children):
    return st.one_of(
        st.tuples(children, st.sampled_from(_INFIX_SYMBOLS), children).map(" ".join),
        children.map(lambda s: f"({s})"),
        children.map(lambda s: f"\\x. {s}"),
        st.tuples(children, children).map(" ".join),
    )


_infix_terms = st.recursive(st.sampled_from(_OPERANDS), _infix_sources, max_leaves=10)
# token soup: mostly malformed, for the error messages and positions
_infix_soup = st.lists(
    st.sampled_from(_OPERANDS + _INFIX_SYMBOLS + ["\\x.", "(", ")"]), max_size=12
).map(" ".join)
# the connectives' constants, each one possibly undeclared
_infix_envs = st.sampled_from(
    [ENV]
    + [
        replace(ENV, constants={k: v for k, v in ENV.constants.items() if k != c})
        for c in ("and", "imp", "eq")
    ]
)


def _parsed(parse, src, env):
    try:
        return parse(src, env)
    except ParseError as err:
        return str(err)


@settings(max_examples=1000)
@given(st.one_of(_infix_terms, _infix_soup), _infix_envs)
def test_operator_table_parses_as_the_reference_chain(src, env):
    assert _parsed(parse_term, src, env) == _parsed(parse_term_by_chain, src, env)


def _lex_by_characters(src):
    """Reference lexer: one character at a time, as (kind, text, line,
    column) tuples, or the error message."""
    tokens = []
    i, line, col = 0, 1, 1
    n = len(src)
    while i < n:
        c = src[i]
        if c == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if c in " \t\r":
            i, col = i + 1, col + 1
            continue
        if c == "#":
            while i < n and src[i] != "\n":
                i, col = i + 1, col + 1
            continue
        if c.isalpha():
            start = i
            i += 1
            while i < n:
                if src[i].isalnum() or src[i] in "_'":
                    i += 1
                elif src[i] == "-" and i + 1 < n and src[i + 1].isalnum():
                    i += 2
                else:
                    break
            text = src[start:i]
            tokens.append(("kw" if text in KEYWORDS else "ident", text, line, col))
            col += i - start
            continue
        if c == "1":
            tokens.append(("one", "1", line, col))
            i, col = i + 1, col + 1
            continue
        for sym in _SYMBOLS:
            if src.startswith(sym, i):
                tokens.append(("sym", sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            return str(ParseError(line, col, f"unexpected character {c!r}"))
    tokens.append(("eof", "", line, col))
    return tokens


def _kind(text):
    if text == "":
        return "eof"
    if text == "1":
        return "one"
    if text in _SYMBOLS:
        return "sym"
    return "kw" if text in KEYWORDS else "ident"


def _lexed(src):
    """`_lex` as the reference reports it: each token's kind follows
    from its text, and its position is the one an error would carry."""
    try:
        texts = _lex(src)
    except ParseError as err:
        return str(err)
    return [(_kind(text), text, *_position(src, i)) for i, text in enumerate(texts)]


# single characters of every class the lexer tells apart, and the
# pieces where identifiers end or continue
_LEXER_PIECES = list("ab1_'- \t\r\n#<>.=~/\\(){},:*F$") + [
    "é", "²", "½", "٣", "Ⅻ", "a-", "-_", "-1", "-é", "-²", "x'", "--",
]


@settings(max_examples=500)
@given(st.lists(st.sampled_from(_LEXER_PIECES), max_size=25).map("".join))
def test_lexer_agrees_with_the_character_by_character_reference(src):
    assert _lexed(src) == _lex_by_characters(src)


def test_lexer_agrees_with_the_reference_on_every_pair_of_symbols():
    # adjacent symbols are where a shorter one could win over a longer
    for first in _SYMBOLS:
        for second in _SYMBOLS:
            for src in (first + second, f"{first} {second}"):
                assert _lexed(src) == _lex_by_characters(src), src


def test_lexer_agrees_with_the_reference_on_the_shipped_file():
    # and on the benchmark's 12-deep handler nest and a chain of defs
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    nest = f"{workloads.VERIFY_SIGNATURE}check {workloads.nested_handler(12)}.\n"
    for src in (shipped_source(), nest, chained_defs(20)):
        assert _lexed(src) == _lex_by_characters(src)


# pieces of terms, types and declaration files, for the error positions
_PARSER_PIECES = _LEXER_PIECES + sorted(KEYWORDS) + [
    "atom x.", "const c : x.", "operation o : x ~> x.", "def d := c.", "def d : o := ",
    "check ", "j", "love", "speaker", "iota", "F{speaker}(iota)", "\\x.", " -> ", " : ",
]
# the pieces that lex on their own, so that most sources get to the parser
_LEXABLE_PIECES = [p for p in _PARSER_PIECES if not isinstance(_lex_by_characters(p), str)]


@settings(max_examples=1000)
@given(
    st.one_of(
        st.lists(st.sampled_from(pieces), max_size=25).map("".join)
        for pieces in (_PARSER_PIECES, _LEXABLE_PIECES)
    ),
    st.sampled_from([parse_term, parse_type, parse_file]),
)
def test_a_parse_error_carries_the_reference_position_of_the_token_it_blames(src, parse):
    args = (src,) if parse is parse_file else (src, ENV)
    with mock.patch.object(surface, "_position", wraps=surface._position) as position:
        try:
            parse(*args)
        except ParseError as err:
            error = err
        else:
            return
    reference = _lex_by_characters(src)
    if isinstance(reference, str):
        assert str(error) == reference
        return
    position.assert_called_once()
    blamed_src, index = position.call_args.args
    assert blamed_src == src
    _, _, line, col = reference[index]
    assert (error.line, error.col) == (line, col)
