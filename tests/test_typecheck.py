"""Type inference, checking, subtyping, and error reporting."""

from __future__ import annotations

import gc
import hashlib
import random
import weakref
from dataclasses import replace
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given

from efflam import cli, fragment, typecheck, verify
from efflam.fragment import Branch, Word, shipped_source
from efflam.syntax import (
    Abs,
    Ann,
    App,
    Atom,
    Cherry,
    Comp,
    Const,
    EMPTY_ROW,
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
    children,
    nodes,
    rebuild,
    size,
)
from efflam.surface import parse_file, parse_term, print_term, print_type
from efflam.typecheck import (
    Context,
    TypeCheckError,
    check_against,
    subtype,
    synthesize,
    well_formed,
)
from .conftest import OP_TABLE, types
from .oracle import UNIVERSE, subsumes
from .shapes import closed_shapes

DECLS = """
atom iota. atom o.
const j : iota. const m : iota.
const love : iota -> iota -> o.
const man : iota -> o.
operation speaker : 1 ~> iota.
operation implicate : o ~> 1.
def me := do speaker(*, \\x. eta x).
"""

FILE = parse_file(DECLS)
ENV = FILE.context()
CTX = FILE.context()

IOTA = Atom("iota")
O = Atom("o")


def term(src: str):
    return parse_term(src, ENV)


def ty(src: str):
    from efflam.surface import parse_type

    return parse_type(src, ENV)


def err(src: str) -> TypeCheckError:
    with pytest.raises(TypeCheckError) as exc:
        synthesize(CTX, term(src))
    return exc.value


# ---------------------------------------------------------------------------
# Synthesis


def test_constant_lookup():
    assert synthesize(CTX, term("j")) == IOTA


def test_injection_gets_the_empty_row():
    assert synthesize(CTX, term("eta j")) == Comp(EMPTY_ROW, IOTA)


def test_operation_call_row_is_continuation_row_plus_the_operation():
    assert synthesize(CTX, term("me")) == ty("F{speaker}(iota)")
    both = term("do speaker(*, \\x. do implicate(love x x, \\u. eta x))")
    assert synthesize(CTX, both) == ty("F{implicate, speaker}(iota)")


def test_handler_discharges_its_clauses_from_the_row():
    t = term("handle { speaker -> \\x. \\k. k j } me")
    assert synthesize(CTX, t) == ty("F{}(iota)")


def test_handler_forwards_unhandled_operations():
    t = term("handle { implicate -> \\x. \\k. k * } me")
    assert synthesize(CTX, t) == ty("F{speaker}(iota)")


def test_handler_row_grows_with_operations_its_clauses_perform():
    t = term("handle { speaker -> \\x. \\k. do implicate(love j j, \\z. k j) } me")
    assert synthesize(CTX, t) == ty("F{implicate}(iota)")


def test_clauseless_handler_is_sequencing():
    t = term("me >>= (\\x. eta (love x x))")
    assert synthesize(CTX, t) == ty("F{speaker}(o)")


def test_beta_redex_synthesizes_through_the_application():
    assert synthesize(CTX, term("(\\x. eta x) j")) == ty("F{}(iota)")


def test_commute_swaps_function_and_computation():
    t = term("commute ((\\x. eta (love x)) : iota -> F{}(iota -> o))")
    assert synthesize(CTX, t) == ty("F{}(iota -> iota -> o)")


def test_ascription_is_checked_then_trusted():
    assert synthesize(CTX, term("(eta j : F{speaker}(iota))")) == ty("F{speaker}(iota)")


# ---------------------------------------------------------------------------
# Checking


def test_check_widens_the_row():
    check_against(CTX, term("eta j"), ty("F{speaker}(iota)"))
    check_against(CTX, term("me"), ty("F{implicate, speaker}(iota)"))


def test_check_pushes_into_lambdas():
    check_against(CTX, term("\\x. eta x"), ty("iota -> F{speaker}(iota)"))


def test_check_accepts_beta_redexes():
    check_against(CTX, term("(\\x. \\u. eta x) j"), ty("iota -> F{}(iota)"))


def test_check_rejects_row_escape():
    with pytest.raises(TypeCheckError) as exc:
        check_against(CTX, term("me"), ty("F{implicate}(iota)"))
    assert exc.value.kind == "mismatch"


def test_check_handler_residual_must_fit():
    t = term("handle { implicate -> \\x. \\k. k * } me")
    check_against(CTX, t, ty("F{speaker}(iota)"))
    with pytest.raises(TypeCheckError):
        check_against(CTX, t, ty("F{}(iota)"))


# ---------------------------------------------------------------------------
# Errors: every kind, with the path to the offender


def test_bare_lambda_requires_an_annotation():
    e = err("\\x. x")
    assert e.kind == "annotationRequired" and e.path == ()


def test_applying_a_non_function():
    e = err("j j")
    assert e.kind == "notAFunction" and e.path == (0,)


def test_unknown_constant_name():
    with pytest.raises(TypeCheckError) as exc:
        synthesize(CTX, App(term("man"), Var("ghost")))
    assert exc.value.kind == "unknownName" and exc.value.path == (1,)


def test_extract_demands_an_empty_row():
    e = err("extract me")
    assert e.kind == "rowNotEmpty" and e.path == (0,)


def test_operation_parameter_type_is_enforced():
    e = err("do speaker(j, \\x. eta x)")
    assert e.kind == "mismatch" and e.path == (0,)


def test_handled_term_must_be_a_computation():
    e = err("handle { speaker -> \\x. \\k. k j } j")
    assert e.kind == "notAComputation"


def test_clause_with_a_non_function_body_is_a_mismatch():
    e = err("handle { speaker -> \\x. x } me")
    assert e.kind == "mismatch"


def test_eta_clause_must_be_function_shaped():
    e = err("handle { speaker -> \\x. \\k. k j, eta -> j } me")
    assert e.kind == "clauseShape"


def test_error_rendering_names_kind_and_path():
    assert str(err("j j")) == "notAFunction at 0: applied term has type iota"


def test_ill_formed_type_is_rejected_before_use():
    with pytest.raises(TypeCheckError) as exc:
        well_formed(CTX, Atom("ghost"))
    assert exc.value.kind == "unknownName"
    bad_row = Comp(Signature.of({"speaker": (UNIT, O)}), IOTA)
    with pytest.raises(TypeCheckError) as exc:
        well_formed(CTX, bad_row)
    assert exc.value.kind == "mismatch"


# ---------------------------------------------------------------------------
# Subtyping order


@given(types)
def test_subtype_is_reflexive(t):
    assert subtype(t, t)


@given(types, types)
def test_subtype_is_antisymmetric(s, t):
    if subtype(s, t) and subtype(t, s):
        assert s == t


def _widen(t, rng: random.Random):
    """A strict-or-equal supertype: add operations at covariant rows."""
    match t:
        case Comp(effects, value):
            missing = [n for n in OP_TABLE.names() if effects.get(n) is None]
            grown = effects
            if missing and rng.random() < 0.7:
                name = rng.choice(missing)
                grown = effects.union(Signature.of({name: OP_TABLE.get(name)}))
            return Comp(grown, _widen(value, rng))
        case Fun(dom, cod):
            return Fun(dom, _widen(cod, rng))
        case _:
            return t


@given(types)
def test_subtype_is_transitive_along_widening_chains(t):
    rng = random.Random(0xC0FFEE)
    mid = _widen(t, rng)
    top = _widen(mid, rng)
    assert subtype(t, mid) and subtype(mid, top) and subtype(t, top)


def _retyped(t: Type) -> Type:
    """`t` with each row entry's output type swapped (A for B, B for A),
    so the rows keep their names and differ in their entries."""
    if isinstance(t, Fun):
        return Fun(_retyped(t.dom), _retyped(t.cod))
    if isinstance(t, Comp):
        entries = tuple((name, inp, Atom({"A": "B", "B": "A"}[out.name])) for name, inp, out in t.effects)
        return Comp(Signature(entries), _retyped(t.value))
    return t


# rows that may declare an operation at either of two types, so that
# comparing rows by their names alone would be seen
_any_rows = st.dictionaries(
    st.sampled_from(["opa", "opb"]), st.sampled_from([(Atom("A"), Atom("A")), (Atom("A"), Atom("B"))])
).map(Signature.of)
_any_types = st.recursive(
    st.sampled_from([Atom("A"), Atom("B")]),
    lambda kids: st.one_of(st.builds(Fun, kids, kids), st.builds(Comp, _any_rows, kids)),
    max_leaves=6,
)


@given(
    st.one_of(types, _any_types),
    st.one_of(types, _any_types),
    st.sampled_from(["drawn", "itself", "widened", "retyped"]),
    st.integers(),
)
def test_subtype_agrees_with_the_oracle(s, drawn, pick, seed):
    """On independent pairs, on a type and itself, and on a type and a
    wider or retyped one, both ways."""
    if pick == "drawn":
        t = drawn
    elif pick == "itself":
        t = s
    elif pick == "widened":
        t = _widen(s, random.Random(seed))
    else:
        t = _retyped(s)
    assert subtype(s, t) == subsumes(s, t)
    assert subtype(t, s) == subsumes(t, s)
    # and one level down, under an arrow
    arrow, back = Fun(t, s), Fun(s, t)
    assert subtype(arrow, back) == subsumes(arrow, back)


def test_function_domains_are_contravariant():
    takes_effectful = Fun(Comp(OP_TABLE, Atom("A")), Atom("B"))
    takes_pure = Fun(Comp(EMPTY_ROW, Atom("A")), Atom("B"))
    assert subtype(takes_effectful, takes_pure) is True
    assert subtype(takes_pure, takes_effectful) is False


# ---------------------------------------------------------------------------
# One object per type: equal types are compared, and kept, as one object


def _check_file(src: str) -> None:
    """Parse `src` and synthesize each def and directive, as `check` does."""
    decl = parse_file(src)
    ctx = decl.context()
    for term in [t for _, _, t in decl.defs] + [t for _, t in decl.directives]:
        synthesize(ctx, term)


def test_the_checker_compares_equal_types_as_one_object(monkeypatch):
    """Over the shipped file and the deep declarations, all 309 top-level
    `subtype` calls that compare equal types are handed one object (4
    were when each use of a type built its own)."""
    from .test_recorded_output import deep_declarations

    inner, depth, same = typecheck.subtype, [], []

    def counted(s, t):
        if not depth and repr(s) == repr(t):
            same.append(s is t)
        depth.append(None)
        try:
            return inner(s, t)
        finally:
            depth.pop()

    monkeypatch.setattr(typecheck, "subtype", counted)
    for src in (shipped_source(), deep_declarations()):
        _check_file(src)
    assert len(same) == 309 and all(same)


def test_the_type_table_is_bounded_by_the_inputs():
    from efflam.reduce import normalize
    from efflam.syntax import _TYPES, erase
    from .test_reduce import _ladder

    sentences = [g.term for g in fragment.GOLDENS] + [lambda _, d=d: _ladder(d) for d in (1, 4, 8)]

    def sentence_requests(n):
        for i in range(n):
            term = sentences[i % len(sentences)](Const("s"))
            synthesize(fragment.CONTEXT, term)
            final = normalize(term, record_steps=False).final
            parse_term(print_term(erase(final)), fragment.ENV)

    _check_file(shipped_source())
    sentence_requests(len(sentences))
    first = len(_TYPES)
    for _ in range(100):
        _check_file(shipped_source())
    sentence_requests(2000)
    assert len(_TYPES) == first


# ---------------------------------------------------------------------------
# Error messages are formatted only when read


def test_error_message_is_formatted_when_read(monkeypatch):
    import efflam.surface

    def refuse(ty):
        raise AssertionError("a type was printed")

    monkeypatch.setattr(efflam.surface, "print_type", refuse)
    e = err("love (love j)")
    assert (e.kind, e.path, e.template) == ("mismatch", (1,), "expected %s, found %s")
    monkeypatch.undo()
    assert e.message == "expected iota, found iota -> o"
    assert str(e) == "mismatch at 1: expected iota, found iota -> o"


def test_error_message_quotes_names_and_rows_verbatim():
    assert err("extract me").message == "extraction requires an empty effect row, found {speaker}"
    e = TypeCheckError("unknownName", (), "unbound variable %s", "x%sy")
    assert e.message == "unbound variable x%sy"


# ---------------------------------------------------------------------------
# The handler rule types each clause once per guess of the row


def test_ascribed_clause_row_is_read_off_and_its_body_checked():
    ok = "handle { speaker -> (\\x. \\k. do implicate(love j j, \\z. k j) : " \
        "1 -> (iota -> F{implicate}(iota)) -> F{implicate}(iota)) } me"
    assert synthesize(CTX, term(ok)) == ty("F{implicate}(iota)")
    bad = "handle { speaker -> (\\x. \\k. k x : " \
        "1 -> (iota -> F{}(iota)) -> F{}(iota)) } me"
    assert str(err(bad)) == "mismatch at 0.0.0.1: expected iota, found 1"


def test_ascribed_eta_clause_is_checked_against_the_result():
    assert synthesize(CTX, term("handle { eta -> (\\x. eta x : iota -> F{}(iota)) } me")) == ty(
        "F{speaker}(iota)"
    )
    e = err("handle { eta -> (\\x. eta j : iota -> F{}(o)) } me")
    assert str(e) == "mismatch at 0.0.0: expected o, found iota"


def test_the_first_ill_typed_clause_reports_the_error():
    both = "handle { implicate -> \\x. \\k. k j, speaker -> \\x. \\k. k x } me"
    assert str(err(both)) == "mismatch at 0.0.0.1: expected 1, found iota"
    second = "handle { implicate -> \\x. \\k. k *, speaker -> \\x. \\k. k x } me"
    assert str(err(second)) == "mismatch at 1.0.0.1: expected iota, found 1"


def _nested_handler(depth: int, innermost: Term = Eta(Const("a0"))) -> Term:
    """Handlers nested `depth` deep inside handler clauses, as built for
    the checker's benchmark: each level handles `op1` around one call of
    it, and its clause body is the next level."""
    body = innermost
    for _ in range(depth):
        body = Handler(
            (("op1", Abs("p", Abs("k", body))),),
            Abs("x", Eta(Var("x"))),
            Op("op1", Const("a0"), "y", Eta(Var("y"))),
        )
    return body


def _handler_rule_calls(monkeypatch, t: Term, want: Type | None = None) -> tuple[object, int]:
    """The type `t` synthesizes, or with `want` the outcome of checking
    it against `want`, and how often the handler rule ran."""
    calls = []
    rule = typecheck._handler_rule

    def counted(*args):
        calls.append(args)
        return rule(*args)

    monkeypatch.setattr(typecheck, "_handler_rule", counted)
    if want is None:
        return synthesize(verify.CONTEXT, t), len(calls)
    try:
        check_against(verify.CONTEXT, t, want)
    except TypeCheckError as e:
        return str(e), len(calls)
    return None, len(calls)


def test_nested_handlers_are_typed_once_per_level(monkeypatch):
    # once per level; checking every clause again made it 4,095
    assert _handler_rule_calls(monkeypatch, _nested_handler(12)) == (Comp(EMPTY_ROW, verify.A), 12)


def two_round_nest(depth: int) -> Term:
    """`_nested_handler` over `do op2(a0, \\y. eta a0)`: every level's row
    takes two rounds to settle, because the clause body performs `op2`."""
    return _nested_handler(depth, Op("op2", Const("a0"), "y", Eta(Const("a0"))))


def test_two_round_nests_are_typed_once_per_level(monkeypatch):
    # re-typing the nested handler in every round made it 4,095
    row = Signature.of({"op2": (verify.A, verify.B)})
    assert _handler_rule_calls(monkeypatch, two_round_nest(12)) == (Comp(row, verify.A), 12)


@pytest.mark.parametrize("depth", [10, 16, 24, 48])
def test_a_failing_nest_is_checked_in_polynomial_time(monkeypatch, depth):
    # `commute (\\z. eta z)` at the bottom cannot be an `A -> A`, so no
    # level synthesizes and each is checked against the wanted type too;
    # synthesizing every failed level again took 10,945 calls at depth 10;
    # remembering the synthesis failures took (d^2 + 3d)/2, 65 at depth 10;
    # remembering the check failures too takes 3d - 1, 29 at depth 10
    nest = _nested_handler(depth, Exchange(Abs("z", Eta(Var("z")))))
    want = Comp(EMPTY_ROW, Fun(verify.A, verify.A))
    error, calls = _handler_rule_calls(monkeypatch, nest, want)
    path = ".".join(["0"] * (3 * depth - 3) + ["1", "0", "0"])
    assert error == f"mismatch at {path}: expected A -> A, found A"
    assert calls <= 3 * depth


def test_check_agrees_with_subtyping_on_synthesized_types():
    """If a term synthesizes T, checking it against W succeeds exactly
    when T <: W; the handler rule relies on this to skip clause checks."""
    for t, got in verify.enumerate_typed(6):
        for want in UNIVERSE:
            try:
                check_against(verify.CONTEXT, t, want)
                checks = True
            except TypeCheckError:
                checks = False
            assert checks == subtype(got, want), (print_term(t), print_type(want))


# ---------------------------------------------------------------------------
# Recorded synthesis results


def synthesis_digests(max_size: int) -> str:
    """One line per size up to `max_size`: the number of closed shapes,
    how many synthesize a type, and a SHA-256 over the sorted lines
    `shape<TAB>type` or `shape<TAB>error` (kind, path and message)."""
    by_size: dict[int, list[str]] = {}
    for t in closed_shapes(max_size):
        try:
            shown = "type " + print_type(synthesize(verify.CONTEXT, t))
        except TypeCheckError as e:
            shown = "error " + str(e)
        by_size.setdefault(size(t), []).append(f"{print_term(t)}\t{shown}\n")
    out = []
    for n, lines in sorted(by_size.items()):
        typed = sum(line.split("\t")[1].startswith("type ") for line in lines)
        digest = hashlib.sha256("".join(sorted(lines)).encode()).hexdigest()
        out.append(f"{n} {len(lines)} {typed} {digest}\n")
    return "".join(out)


def test_synthesis_matches_the_recorded_results():
    """Every closed shape up to size 6 synthesizes the same type, or fails
    with the same error, as when recorded.  After an intended change,
    re-record from the repository root:

        python -c "from tests.test_typecheck import synthesis_digests; \\
            print(synthesis_digests(6), end='')" > tests/expected/synthesis-size6.txt
    """
    recorded = (Path(__file__).parent / "expected" / "synthesis-size6.txt").read_text()
    assert synthesis_digests(6) == recorded


# wanted types for the check-mode record: atoms, a function, and
# computations with empty and non-empty rows, one of them over a
# function (so `commute` checks structurally)
_ROW1 = Signature.of({"op1": (verify.A, verify.A)})
_RECORDED_WANTS: tuple[Type, ...] = (
    verify.A,
    verify.B,
    UNIT,
    Fun(verify.A, verify.A),
    Comp(EMPTY_ROW, verify.A),
    Comp(_ROW1, verify.A),
    Comp(verify.OPERATIONS, verify.B),
    Comp(_ROW1, Fun(verify.A, Comp(EMPTY_ROW, verify.A))),
)


def checking_digests(max_size: int) -> str:
    """One line per size up to `max_size`: the number of (closed shape,
    wanted type) pairs from `_RECORDED_WANTS`, how many check, and a
    SHA-256 over the sorted lines `shape<TAB>type<TAB>outcome`, the
    outcome `ok` or the error (kind, path and message)."""
    by_size: dict[int, list[str]] = {}
    for t in closed_shapes(max_size):
        shape = print_term(t)
        for want in _RECORDED_WANTS:
            try:
                check_against(verify.CONTEXT, t, want)
                shown = "ok"
            except TypeCheckError as e:
                shown = "error " + str(e)
            line = f"{shape}\t{print_type(want)}\t{shown}\n"
            by_size.setdefault(size(t), []).append(line)
    out = []
    for n, lines in sorted(by_size.items()):
        held = sum(line.endswith("\tok\n") for line in lines)
        digest = hashlib.sha256("".join(sorted(lines)).encode()).hexdigest()
        out.append(f"{n} {len(lines)} {held} {digest}\n")
    return "".join(out)


def test_checking_matches_the_recorded_results():
    """Every closed shape up to size 5 checks, or fails with the same
    error, against each type of `_RECORDED_WANTS` as when recorded.
    After an intended change, re-record from the repository root:

        python -c "from tests.test_typecheck import checking_digests; \\
            print(checking_digests(5), end='')" > tests/expected/checking-size5.txt
    """
    recorded = (Path(__file__).parent / "expected" / "checking-size5.txt").read_text()
    assert checking_digests(5) == recorded


# ---------------------------------------------------------------------------
# Each ascription and nested handler is typed once per context in a call,
# which must give what typing every occurrence afresh gives

FRAGMENT = parse_file(shipped_source())
FRAGMENT_ENV = FRAGMENT.context()
FRAGMENT_CTX = FRAGMENT.context()


def ladder_source(depth: int) -> str:
    """"every woman loves me" under `depth` indirect reports, reporters
    alternating john and mary, in surface syntax over `fragment.lam`."""
    sentence = "loves me (every woman')"
    for level in range(depth):
        sentence = f"said-is ({sentence}) {('john', 'mary')[level % 2]}"
    return sentence


def unshare(t: Term) -> Term:
    """A copy of `t` in which every node is new, so that no two
    occurrences share an id."""
    if isinstance(t, (Var, Const)):
        return type(t)(t.name)
    return rebuild(t, [unshare(child) for child in children(t)])


def _outcome(ctx: Context, t: Term):
    try:
        return synthesize(ctx, t)
    except TypeCheckError as e:
        return (e.kind, e.path, e.message)


def _assert_blind_to_sharing(ctx: Context, t: Term):
    copy = unshare(t)
    assert copy == t
    assert _outcome(ctx, copy) == _outcome(ctx, t), print_term(t)


def test_unshare_leaves_no_node_shared():
    t = parse_term(ladder_source(2), FRAGMENT_ENV)

    def ids(term):
        return [id(term)] + [i for child in children(term) for i in ids(child)]

    assert len(set(ids(t))) < len(ids(t))  # inlined defs are shared
    assert len(set(ids(unshare(t)))) == len(ids(t))


def test_the_fragment_types_as_if_unshared():
    for _, _, t in FRAGMENT.defs:
        _assert_blind_to_sharing(FRAGMENT_CTX, t)
    for _, t in FRAGMENT.directives:
        _assert_blind_to_sharing(FRAGMENT_CTX, t)


def test_deep_reports_type_as_if_unshared():
    for depth in range(65):
        _assert_blind_to_sharing(FRAGMENT_CTX, parse_term(ladder_source(depth), FRAGMENT_ENV))


# `eta x : F{}(A)`: it holds where x : A and fails where x : B
_SHARED = Ann(Eta(Var("x")), Comp(EMPTY_ROW, verify.A))
_PROBE_ARGS = (Const("a0"), App(Const("f0"), Const("a0")))
_SCRUTINEES = (
    Op("op1", Const("a0"), "y", Eta(Var("y"))),
    Op("op2", Const("a0"), "y", Eta(Const("a0"))),
    Eta(Const("a0")),
)


@st.composite
def handler_nests(draw) -> Term:
    """Handlers nested 1-6 deep in handler clauses over the verify
    signature.  Level i binds `p<i>` and `k<i>`.  Its clause body may
    pass the level below to up to two enclosing resumptions `k<j>`
    (j <= i), so that the nested handler's type depends on their row
    guesses, and may first apply `\\x. _SHARED` to an `A` or a `B`."""
    depth = draw(st.integers(1, 6))
    body = draw(st.sampled_from(_SCRUTINEES))
    for level in reversed(range(depth)):
        for outer in draw(st.lists(st.integers(0, level), max_size=2)):
            body = Handler((), Abs("r", App(Var(f"k{outer}"), Var("r"))), body)
        if draw(st.booleans()):
            probe = App(Abs("x", _SHARED), draw(st.sampled_from(_PROBE_ARGS)))
            body = App(Abs("u", body), probe)
        op = draw(st.sampled_from(("op1", "op2")))
        body = Handler(
            ((op, Abs(f"p{level}", Abs(f"k{level}", body))),),
            Abs("x", Eta(Var("x"))),
            draw(st.sampled_from(_SCRUTINEES)),
        )
    return body


@given(handler_nests())
def test_handler_nests_type_as_if_unshared(t):
    _assert_blind_to_sharing(verify.CONTEXT, t)


def test_a_shared_ascription_is_typed_again_under_a_new_binder_type():
    holds = App(Abs("x", _SHARED), _PROBE_ARGS[0])
    fails = App(Abs("x", _SHARED), _PROBE_ARGS[1])
    assert synthesize(verify.CONTEXT, holds) == Comp(EMPTY_ROW, verify.A)
    t = App(Abs("u", fails), holds)  # the argument is typed first
    assert _outcome(verify.CONTEXT, t) == ("mismatch", (0, 0, 0, 0, 0), "expected A, found B")
    _assert_blind_to_sharing(verify.CONTEXT, t)


# op3 is not declared, so some handlers fail on the lookup
_DRAWN_OPS = ("op1", "op2") * 3 + ("op3",)


def _drawn_row(rng: random.Random) -> Comp:
    return Comp(rng.choice(verify._ROWS), rng.choice((verify.A, verify.A, verify.B)))


def random_handler_term(
    rng: random.Random,
    depth: int,
    values: tuple[str, ...] = (),
    resumptions: tuple[str, ...] = (),
    pool: list[Term] | None = None,
    comp: bool = True,
) -> Term:
    """A random term over the verify signature, `depth` levels deep at
    most and mostly a computation when `comp`: handlers with 0-2 clauses,
    bare or ascribed, and bare or ascribed eta clauses, operation calls,
    resumptions, extractions, commutes and ascriptions.  `values` and
    `resumptions` name the variables in scope; some subterms are reused
    from `pool`, the terms drawn so far, so that nodes are shared."""
    if pool is None:
        pool = []
    if pool and rng.random() < 0.08:
        return rng.choice(pool)
    fresh = f"v{len(values) + len(resumptions)}"

    def sub(comp=True, values=values, resumptions=resumptions):
        return random_handler_term(rng, depth - 1, values, resumptions, pool, comp)

    roll = rng.random() if depth > 0 else 1.0
    if not comp:
        if roll < 0.2:
            t = App(Const("f0"), sub(False))
        elif roll < 0.35:
            t = Cherry(sub())
        elif roll < 0.45:
            t = Ann(sub(False), rng.choice((verify.A, verify.B)))
        else:
            t = rng.choice([Var(v) for v in values[-2:]] + [Const("a0")] * 2 + [Const("*")])
    elif roll < 0.4:
        clauses = []
        for op in sorted({rng.choice(_DRAWN_OPS) for _ in range(rng.randrange(3))}):
            p, k = fresh + "p", fresh + "k"
            body = sub(values=(*values, p), resumptions=(*resumptions, k))
            if rng.random() < 0.3:
                body = App(Var(k), sub(False, values=(*values, p)))
            clause = Abs(p, Abs(k, body))
            if rng.random() < 0.25:
                entry = verify.OPERATIONS.get(op) or (verify.A, verify.A)
                clause = Ann(clause, typecheck.clause_type(entry, _drawn_row(rng)))
            elif rng.random() < 0.04:
                clause = sub(False)
            clauses.append((op, clause))
        x = fresh + "x"
        eta = Abs(x, sub(values=(*values, x)) if rng.random() < 0.4 else Eta(Var(x)))
        if rng.random() < 0.2:
            eta = Ann(eta, Fun(rng.choice((verify.A, verify.A, verify.B)), _drawn_row(rng)))
        t = Handler(tuple(clauses), eta, sub())
    elif roll < 0.6:
        y = fresh + "y"
        t = Op(rng.choice(_DRAWN_OPS), sub(False), y, sub(values=(*values, y)))
    elif roll < 0.65 and resumptions:
        t = App(Var(rng.choice(resumptions)), sub(False))
    elif roll < 0.7:
        z = fresh + "z"
        f = Abs(z, sub(values=(*values, z)))
        if rng.random() < 0.7:
            f = Ann(f, Fun(verify.A, _drawn_row(rng)))
        t = Exchange(f)
    elif roll < 0.75:
        t = Cherry(Eta(sub()))
    elif roll < 0.82:
        t = Ann(sub(), _drawn_row(rng))
    elif roll < 0.88:
        x = fresh + "a"
        t = App(Abs(x, sub(values=(*values, x))), sub(False))
    else:
        t = Eta(sub(False))
    pool.append(t)
    return t


_CHECKED_AGAINST = (
    Comp(EMPTY_ROW, verify.A),
    Comp(Signature.of({"op1": (verify.A, verify.A)}), verify.A),
    Comp(verify.OPERATIONS, verify.B),
    Comp(EMPTY_ROW, Fun(verify.A, verify.A)),
)


def _outcomes(t: Term, ctx: Context = verify.CONTEXT) -> list:
    """What `synthesize` gives `t` under `ctx`, then what `check_against`
    gives it at each of `_CHECKED_AGAINST`: a type, None, or (kind,
    path, message)."""
    runs = [lambda: synthesize(ctx, t)]
    runs += [lambda want=want: check_against(ctx, t, want) for want in _CHECKED_AGAINST]
    outcomes = []
    for run in runs:
        try:
            outcomes.append(run())
        except TypeCheckError as e:
            outcomes.append((e.kind, e.path, e.message))
    return outcomes


def _typed_nodes(roots, ctx: Context) -> list[Term]:
    """The nodes reachable from `roots` that keep typings of `ctx`'s
    context."""
    return [node for node in nodes(list(roots)) if _entries(node, ctx) is not None]


def _entries(node: Term, ctx: Context) -> dict | None:
    """{wanted type or None: entry} that `node` keeps for `ctx`'s
    context, or None."""
    typed = node._typed
    return typed[1] if typed is not None and typed[0] is ctx.typings else None


def _typings(roots, ctx: Context) -> int:
    """How many typings the nodes reachable from `roots` keep for
    `ctx`'s context: one per entry, or one per scope once an entry was
    reached in more than one."""
    return sum(
        1 if later is None else len(later)
        for node in _typed_nodes(roots, ctx)
        for _, _, later in _entries(node, ctx).values()
    )


def test_remembered_typings_and_failures_agree_with_a_checker_without_memo(monkeypatch):
    """Every type and every error, with its path, is what a checker that
    types each node afresh gives.  Unlike the unshared copies above, the
    reference shares no memo code, so it also sees a remembered failure
    raised at the wrong path.  The terms go through one shared context,
    shuffled and then in reverse, so each call also reuses what earlier
    calls recorded, failures included."""
    rng = random.Random(15)
    terms = [random_handler_term(rng, rng.randrange(1, 6)) for _ in range(2000)]
    with monkeypatch.context() as patch:
        patch.setattr(typecheck, "_recall", lambda ctx, t, want=None: (None, None))
        patch.setattr(typecheck, "_record", lambda entry, ctx, t, ty: None)
        afresh = [_outcomes(t) for t in terms]
    assert not _typed_nodes(terms, verify.CONTEXT)
    shared = replace(verify.CONTEXT)
    order = list(range(len(terms)))
    rng.shuffle(order)
    for indices in (order, order[::-1]):
        remembered = {i: _outcomes(terms[i], shared) for i in indices}
        for i in indices:
            assert remembered[i] == afresh[i], print_term(terms[i])
    assert len(_typed_nodes(terms, shared)) > len(terms)
    # the terms reach both sides of the rules
    flat = [o for outcomes in afresh for o in outcomes]
    assert sum(isinstance(o, tuple) for o in flat) > len(flat) // 2
    assert sum(not isinstance(o, tuple) for o in flat) > len(flat) // 10


# ---------------------------------------------------------------------------
# Typings live on their nodes, under their context's token: they keep no
# term and no context alive, and a node keeps those of its last context only


def test_an_entry_goes_with_its_term():
    # typings live on their nodes, so they keep no term alive
    ctx = replace(verify.CONTEXT)
    t = _nested_handler(3, Ann(Eta(Const("a0")), Comp(EMPTY_ROW, verify.A)))
    gc.disable()
    try:
        assert synthesize(ctx, t) == Comp(EMPTY_ROW, verify.A)
        typed = _typed_nodes([t], ctx)
        # three handlers and the ascription
        assert sorted(type(node).__name__ for node in typed) == ["Ann", *["Handler"] * 3]
        alive = weakref.ref(t)
        del t, typed
        assert alive() is None
    finally:
        gc.enable()


def test_typings_keep_no_context_alive():
    decl = parse_file(shipped_source())
    defs = [t for _, _, t in decl.defs]
    ctx = decl.context()
    for t in defs:
        synthesize(ctx, t)
    first = _typed_nodes(defs, ctx)
    assert first
    gone = weakref.ref(ctx)
    gc.disable()
    try:
        del ctx  # the defs' terms live on in `decl`
        assert gone() is None
    finally:
        gc.enable()
    # checked again in a second context, each node keeps only its typings
    second = decl.context()
    for t in defs:
        synthesize(second, t)
    assert {id(node) for node in _typed_nodes(defs, second)} == {id(node) for node in first}
    assert all(node._typed[0] is second.typings for node in first)


def test_a_term_checked_in_many_contexts_keeps_one_set_of_typings():
    t = two_round_nest(4)
    ctx = replace(verify.CONTEXT)
    want = synthesize(ctx, t)
    check_against(ctx, t, want)
    counts = {id(node): len(_entries(node, ctx)) for node in _typed_nodes([t], ctx)}
    for _ in range(1000):
        ctx = replace(verify.CONTEXT)
        assert synthesize(ctx, t) == want
        check_against(ctx, t, want)
    assert {id(node): len(_entries(node, ctx)) for node in _typed_nodes([t], ctx)} == counts
    assert all(node._typed[0] is ctx.typings for node in nodes([t]) if node._typed is not None)


def test_a_replaced_context_starts_an_empty_record(monkeypatch):
    # a context's record is the typings its nodes keep under its token:
    # `replace` makes a new token, and `bind` passes it on
    ctx = FRAGMENT.context()
    t = parse_term(ladder_source(2), FRAGMENT_ENV)
    synthesize(ctx, t)
    assert _typed_nodes([t], ctx)
    assert ctx.bind("x", UNIT).typings is ctx.typings
    copy = replace(ctx)
    assert copy.typings is not ctx.typings and not _typed_nodes([t], copy)
    assert copy == ctx and repr(copy) == repr(ctx)
    # the record is the token's: `copy` types the handlers again, once
    calls = []
    rule = typecheck._handler_rule

    def counted(*args):
        calls.append(args)
        return rule(*args)

    monkeypatch.setattr(typecheck, "_handler_rule", counted)
    synthesize(ctx, t)
    assert not calls
    synthesize(copy, t)
    assert calls
    ran = len(calls)
    synthesize(copy, t)
    assert len(calls) == ran


def _report_tree(depth: int, kind: str):
    """"every woman loves me" under `depth` reports of one kind."""
    tree = Branch(Branch(Word("loves"), Word("me")), Branch(Word("every"), Word("woman")))
    for level in range(depth):
        tree = Branch(Branch(Word(kind), tree), Word(("john", "mary")[level % 2]))
    return tree


def test_sentence_requests_leave_the_lexicon_typings_bounded():
    # each request as the sentences benchmark makes it: the speaker's
    # handler is checked with the denotation, then the whole term
    trees = [_report_tree(depth, kind) for depth in range(5) for kind in ("said-is", "said-ds")]
    lexicon = [entry.term for entry in fragment.LEXICON.values()]
    for i in range(2000):
        term = fragment.with_speaker(Const("s"), fragment.denote(trees[i % len(trees)]))
        assert print_type(synthesize(fragment.CONTEXT, term)) == "F{implicate, scope}(o)"
        if i == 9:
            after_ten = _typings(lexicon, fragment.CONTEXT)
            assert after_ten > 0
    assert _typings(lexicon, fragment.CONTEXT) == after_ten


def chained_defs(n: int) -> str:
    """A file of `n` defs, each after the first using the one before it
    twice, and a directive that uses the last."""
    lines = ["atom A.", "const a : A.", "def d0 : A -> A := \\x. x."]
    lines += [f"def d{k} : A -> A := \\x. d{k - 1} (d{k - 1} x)." for k in range(1, n)]
    lines.append(f"check d{n - 1} a.")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", [50, 200, 800])
def test_a_file_of_chained_defs_checks_each_def_once(monkeypatch, tmp_path, capsys, free_var_fills, n):
    # typing every earlier def again in each later one made it n(n + 3)/2,
    # and ran out of stack at n = 800; listing the free variables of
    # every earlier def made it quadratic too
    bodies = set()

    def parsed(src):
        decl = parse_file(src)
        bodies.update(id(term.term) for _, _, term in decl.defs)  # under `def`'s ascription
        return decl

    calls = 0
    check = typecheck._check

    def counted(ctx, t, want, path):
        nonlocal calls
        calls += id(t) in bodies
        return check(ctx, t, want, path)

    monkeypatch.setattr(cli, "parse_file", parsed)
    monkeypatch.setattr(typecheck, "_check", counted)
    path = tmp_path / "chain.lam"
    path.write_text(chained_defs(n))
    assert cli.main(["check", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "check directive 1 : A"
    assert len(bodies) == n
    assert calls == n
    # each def's free variables are computed once, down to the def before it
    assert free_var_fills() <= 4 * n


def test_a_lexical_entry_is_checked_once_per_context(monkeypatch):
    body = FRAGMENT_ENV.defs["said-is"].term  # under the ascription `def` adds
    calls = []
    check = typecheck._check

    def counted(ctx, t, want, path):
        if t is body:
            calls.append(path)
        return check(ctx, t, want, path)

    monkeypatch.setattr(typecheck, "_check", counted)
    counts = []
    # once across both ladders, and once more in a second new context
    for ctx in (FRAGMENT.context(), FRAGMENT.context()):
        calls.clear()
        for depth in (8, 64):
            t = parse_term(ladder_source(depth), FRAGMENT_ENV)
            assert print_type(synthesize(ctx, t)) == "F{implicate, scope, speaker}(o)"
        counts.append(len(calls))
    assert counts == [1, 1]


def test_a_shared_ascription_is_checked_well_formed_once_per_context(monkeypatch):
    # every level of a report reuses the lexical entries' ascriptions,
    # and a later report in the same context reuses the earlier ones
    calls = 0
    plain = typecheck.well_formed

    def counted(ctx, ty, path=()):
        nonlocal calls
        calls += 1
        return plain(ctx, ty, path)

    monkeypatch.setattr(typecheck, "well_formed", counted)
    counts = {}
    for depths in ((8,), (64,), (8, 64)):
        ctx = FRAGMENT.context()
        calls = 0
        for depth in depths:
            t = parse_term(ladder_source(depth), FRAGMENT_ENV)
            assert print_type(synthesize(ctx, t)) == "F{implicate, scope, speaker}(o)"
        counts[depths] = calls
    assert counts[(8,)] == counts[(64,)] == counts[(8, 64)] > 0, counts
