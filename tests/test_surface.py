"""Lexing, parsing, printing, and their round-trip."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from efflam.prelude import apply_both, apply_left, apply_right, bind, lift_binary
from efflam.surface import (
    KEYWORDS,
    Env,
    ParseError,
    _SYMBOLS,
    _lex,
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
from .conftest import terms

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
ENV = FILE.env()

GEN_ENV = Env(
    atoms=frozenset({"1", "A", "B"}),
    constants=frozenset({"*", "c0", "c1"}),
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


def test_multiline_error_positions():
    e = err("love j\n  ghost")
    assert (e.line, e.col) == (2, 3)


def test_infix_needs_its_constant_declared():
    env = Env(constants=frozenset({"*", "p"}))
    with pytest.raises(ParseError) as exc:
        parse_term("p /\\ p", env)
    assert "needs a declared constant and" in str(exc.value)


def test_type_row_rejects_undeclared_operations():
    with pytest.raises(ParseError) as exc:
        parse_type("F{ghost}(o)", ENV)
    assert "ghost" in str(exc.value)


def test_redeclaration_is_rejected():
    with pytest.raises(ParseError) as exc:
        parse_file("atom iota. atom iota.")
    assert "already declared" in str(exc.value)


def test_reserved_names_cannot_be_declared():
    with pytest.raises(ParseError):
        parse_file("atom handle.")
    with pytest.raises(ParseError):
        parse_file("atom F.")


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
# Fuzzing: the parser either succeeds or raises ParseError


@settings(max_examples=300)
@given(st.text(alphabet="\\xyzc01()*.:{},->=~F eta#\n" + "dohanle", max_size=60))
def test_parser_never_crashes(src):
    try:
        parse_term(src, GEN_ENV)
    except ParseError:
        pass


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
                i += 1
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


def _lexed(src):
    try:
        return [tuple(tok) for tok in _lex(src)]
    except ParseError as err:
        return str(err)


# single characters of every class the lexer tells apart, and the
# pieces where identifiers end or continue
_LEXER_PIECES = list("ab1_'- \t\r\n#<>.=~/\\(){},:*F$") + [
    "é", "²", "½", "٣", "Ⅻ", "a-", "-_", "-1", "-é", "-²", "x'", "--",
]


@settings(max_examples=500)
@given(st.lists(st.sampled_from(_LEXER_PIECES), max_size=25).map("".join))
def test_lexer_agrees_with_the_character_by_character_reference(src):
    assert _lexed(src) == _lex_by_characters(src)


def test_lexer_agrees_with_the_reference_on_the_shipped_file():
    from efflam.fragment import shipped_source

    assert _lexed(shipped_source()) == _lex_by_characters(shipped_source())
