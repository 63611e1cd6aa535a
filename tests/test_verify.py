"""Enumeration, oracle agreement, reduction graphs, and the suite drivers."""

import contextlib
import random
from dataclasses import replace
from pathlib import Path

import pytest

from efflam.reduce import Rule
from efflam.surface import print_term
from efflam.syntax import (
    Abs,
    App,
    Atom,
    Comp,
    Const,
    EMPTY_ROW,
    Eta,
    Fun,
    Handler,
    Signature,
    Var,
    alpha_eq,
    canonical_key,
    free_vars,
    size,
)
from efflam.typecheck import TypeCheckError, check_against, synthesize
from efflam.verify import (
    A,
    B,
    CONTEXT,
    OPERATIONS,
    SuiteReport,
    _Enumeration,
    confluence,
    enumerate_typed,
    handler_identity,
    monad_laws,
    reduction_graph,
    run_suite,
    sample_typed,
    subject_reduction,
    termination,
)

from .oracle import UNIVERSE, derivable
from .shapes import _shapes, closed_shapes, reference_typed, typed_digests

# ---------------------------------------------------------------------------
# enumeration


def test_shapes_are_closed_and_distinct():
    shapes = closed_shapes(5)
    assert all(not free_vars(t) for t in shapes)
    assert len({canonical_key(t) for t in shapes}) == len(shapes)


def test_shape_counts_grow_with_size():
    counts = [len(closed_shapes(n)) for n in range(1, 6)]
    assert counts[0] == 3
    assert all(a < b for a, b in zip(counts, counts[1:]))


def test_enumeration_contains_the_expected_small_terms():
    shapes = closed_shapes(3)
    assert any(alpha_eq(t, Const("a0")) for t in shapes)
    assert any(alpha_eq(t, Abs("x", Var("x"))) for t in shapes)
    assert any(alpha_eq(t, App(Const("f0"), Const("a0"))) for t in shapes)
    assert any(alpha_eq(t, Eta(Eta(Const("*")))) for t in shapes)


def test_typed_enumeration_agrees_with_the_checker():
    typed = dict()
    for t, ty in enumerate_typed(4):
        typed[canonical_key(t)] = ty
    assert typed[canonical_key(Const("a0"))] == A
    assert typed[canonical_key(App(Const("f0"), Const("a0")))] == B
    assert typed[canonical_key(Eta(Const("a0")))] == Comp(EMPTY_ROW, A)
    assert canonical_key(App(Const("a0"), Const("a0"))) not in typed


@pytest.mark.parametrize("max_size", range(1, 7))
def test_typed_enumeration_equals_generate_and_filter(max_size):
    typed = enumerate_typed(max_size)
    got = {canonical_key(t): ty for t, ty in typed}
    assert len(got) == len(typed)
    assert all(not free_vars(t) for t, _ in typed)
    assert got == {canonical_key(t): ty for t, ty in reference_typed(max_size)}


def _clause_type(op, row, value):
    inp, out = OPERATIONS.get(op)
    result = Comp(row, value)
    return Fun(inp, Fun(Fun(out, result), result))


_OP1_ROW = Signature.of({"op1": OPERATIONS.get("op1")})

# Types for the binders b0 (a clause), b1 (a scrutinee) and b2 (an eta
# clause) that let a handler with an operation clause appear at size 4;
# closed ones need size 11.  In the fourth, b0 fits every candidate row;
# in the fifth, `handle {op1 -> b0, eta -> b2} b1` synthesizes no type
# (b2 fixes a result value type below the one b0 resumes at) but checks
# against b0's result type, and with b3 in place of b1 it does not, as
# op2 is left unhandled.
_HANDLER_SCOPES = [
    (_clause_type("op1", EMPTY_ROW, A), Comp(_OP1_ROW, A), Fun(A, Comp(EMPTY_ROW, A))),
    (_clause_type("op1", OPERATIONS, A), Comp(OPERATIONS, A), Fun(A, Comp(_OP1_ROW, A))),
    (_clause_type("op2", OPERATIONS, B), Comp(OPERATIONS, A), Fun(A, Comp(EMPTY_ROW, B))),
    (
        Fun(A, Fun(Fun(A, Comp(OPERATIONS, A)), Comp(EMPTY_ROW, A))),
        Comp(_OP1_ROW, A),
        Fun(A, Comp(EMPTY_ROW, A)),
    ),
    (
        _clause_type("op1", EMPTY_ROW, Comp(_OP1_ROW, A)),
        Comp(EMPTY_ROW, A),
        Fun(A, Comp(EMPTY_ROW, Comp(EMPTY_ROW, A))),
        Comp(OPERATIONS.without({"op1"}), A),
    ),
]


@pytest.mark.parametrize("scope", _HANDLER_SCOPES)
def test_enumeration_under_binders_equals_generate_and_filter(scope):
    """Under open binders, in synthesis and in checking mode, including
    the handlers whose clauses are confirmed by `synthesize`."""
    ctx = replace(CONTEXT, vars={f"b{i}": ty for i, ty in enumerate(scope)})
    clause_result = scope[0].cod.cod
    wants = [Comp(EMPTY_ROW, A), Comp(_OP1_ROW, A), Comp(OPERATIONS, B), A, clause_result]
    enumeration = _Enumeration(CONTEXT)
    clause_handlers = 0
    unsynthesized = Handler((("op1", Var("b0")),), Var("b2"), Var("b1"))
    for n in range(1, 5):
        shapes = _shapes(n, len(scope))
        typed = enumeration.synth(n, scope)
        expected = {}
        for t in shapes:
            with contextlib.suppress(TypeCheckError):
                expected[canonical_key(t)] = synthesize(ctx, t)
        assert {canonical_key(t): ty for t, ty in typed} == expected
        assert len(typed) == len(expected)
        clause_handlers += sum(isinstance(t, Handler) and bool(t.clauses) for t, _ in typed)
        for want in wants:
            terms = enumeration.check(n, scope, want)
            clause_handlers += sum(isinstance(t, Handler) and bool(t.clauses) for t in terms)
            checked = [canonical_key(t) for t in terms]
            expected = set()
            for t in shapes:
                with contextlib.suppress(TypeCheckError):
                    check_against(ctx, t, want)
                    expected.add(canonical_key(t))
            assert set(checked) == expected and len(checked) == len(expected)
    assert clause_handlers > 0
    if scope is _HANDLER_SCOPES[-1]:
        assert unsynthesized in enumeration.check(4, scope, clause_result)
        assert all(t != unsynthesized for t, _ in enumeration.synth(4, scope))
        leaky = Handler((("op1", Var("b0")),), Var("b2"), Var("b3"))
        assert leaky not in enumeration.check(4, scope, clause_result)


def test_typed_enumeration_is_smallest_first():
    sizes = [size(t) for t, _ in enumerate_typed(6)]
    assert sizes == sorted(sizes)


def test_typed_enumeration_matches_the_recorded_size_8_digests():
    """Per size up to 8: the number of typed closed terms and a digest of
    their sorted `term<TAB>type` lines, recorded with the reference
    generate-and-filter.  Re-record from the repository root (about 3
    minutes and 2.3 GB):

        PYTHONPATH=src python -c "from tests.shapes import reference_typed, \\
            typed_digests; print(typed_digests(reference_typed(8)), end='')" \\
            > tests/expected/typed-size8.txt
    """
    recorded = (Path(__file__).parent / "expected" / "typed-size8.txt").read_text()
    assert [int(line.split()[1]) for line in recorded.splitlines()] == [
        3, 3, 7, 30, 74, 282, 1000, 3604
    ]
    assert typed_digests(enumerate_typed(8)) == recorded


def test_typed_enumeration_is_deterministic():
    first = [(canonical_key(t), ty) for t, ty in enumerate_typed(5)]
    second = [(canonical_key(t), ty) for t, ty in enumerate_typed(5)]
    assert first == second


# ---------------------------------------------------------------------------
# the declarative search agrees with the algorithmic checker


def test_oracle_derives_everything_the_checker_synthesizes():
    for t, ty in enumerate_typed(6):
        assert derivable(CONTEXT, t, ty, depth=8), print_term(t)


def test_everything_the_oracle_derives_passes_check_mode():
    derivations = 0
    for t in closed_shapes(3):
        for ty in UNIVERSE:
            if derivable(CONTEXT, t, ty, depth=4):
                derivations += 1
                check_against(CONTEXT, t, ty)
    assert derivations > 30


def test_oracle_rejects_a_misapplied_constant():
    bogus = App(Const("a0"), Const("a0"))
    assert not any(derivable(CONTEXT, bogus, ty) for ty in UNIVERSE)


def test_oracle_applies_subsumption_to_rows():
    row = Signature.of({"op1": (A, A)})
    assert derivable(CONTEXT, Eta(Const("a0")), Comp(row, A))


# ---------------------------------------------------------------------------
# seeded sampling


def test_samples_are_well_typed_by_construction():
    rng = random.Random(7)
    row = Signature.of({"op1": (A, A), "op2": (A, B)})
    for _ in range(200):
        ty = rng.choice((Comp(row, A), Comp(EMPTY_ROW, B), Fun(A, Comp(row, B))))
        term = sample_typed(rng, ty, depth=6)
        check_against(CONTEXT, term, ty)


def test_sampling_is_reproducible():
    ty = Comp(Signature.of({"op1": (A, A)}), A)
    one = sample_typed(random.Random(42), ty, depth=6)
    two = sample_typed(random.Random(42), ty, depth=6)
    assert one == two


# ---------------------------------------------------------------------------
# reduction graphs


def test_single_step_graph():
    graph = reduction_graph(App(Abs("x", Var("x")), Const("a0")))
    assert len(graph.nodes) == 2
    assert len(graph.edges) == 1
    src, rule, path, dst = graph.edges[0]
    assert rule is Rule.beta and path == ()
    assert graph.complete
    assert len(graph.normal_forms) == 1
    assert alpha_eq(graph.normal_forms[0], Const("a0"))


def test_diamond_joins_up():
    # two independent redexes; the middle nodes are alpha-equivalent,
    # so deduplication folds them and both orders reach the same point
    term = App(Abs("x", Var("x")), App(Abs("y", Var("y")), Const("a0")))
    graph = reduction_graph(term)
    assert graph.complete
    assert len(graph.nodes) == 3
    outer = [dst for _, _, path, dst in graph.edges if path == ()]
    inner = [dst for _, _, path, dst in graph.edges if path == (1,)]
    assert outer and inner and set(outer[:1]) == set(inner[:1])
    assert len(graph.normal_forms) == 1
    assert alpha_eq(graph.normal_forms[0], Const("a0"))


def test_looping_term_closes_into_a_cycle():
    omega_half = Abs("x", App(Var("x"), Var("x")))
    omega = App(omega_half, omega_half)
    graph = reduction_graph(omega)
    assert graph.complete
    assert len(graph.nodes) == 1
    assert graph.normal_forms == []
    src, rule, path, dst = graph.edges[0]
    assert src == dst and rule is Rule.beta


def test_graph_budget_marks_incomplete():
    term = App(Abs("x", Var("x")), App(Abs("y", Var("y")), Const("a0")))
    graph = reduction_graph(term, budget=1)
    assert not graph.complete


# ---------------------------------------------------------------------------
# suites


def test_subject_reduction_suite_passes_at_small_size():
    report = subject_reduction(max_size=5)
    assert report.ok
    assert report.checked > 50


def test_subject_reduction_reports_a_reduct_that_no_longer_checks(monkeypatch):
    # at size 1 the typed terms are a0 : A, f0 : A -> B and * : 1
    monkeypatch.setattr(
        "efflam.verify.reducts",
        lambda term: [(Rule.beta, (0,), Const("*"))] if term == Const("a0") else [],
    )
    assert subject_reduction(max_size=1).lines() == [
        "subjectReduction: 1 checked, 1 failures: FAIL",
        "  a0 --beta@0--> * no longer checks at A: mismatch at root: expected A, found 1",
    ]


def test_subject_reduction_reports_a_reduct_whose_type_is_not_below(monkeypatch):
    monkeypatch.setattr(
        "efflam.verify.reducts",
        lambda term: [(Rule.cherry, (), Const("a0"))] if term == Const("a0") else [],
    )
    monkeypatch.setattr("efflam.verify.synthesize", lambda ctx, term: B)
    assert subject_reduction(max_size=1).lines() == [
        "subjectReduction: 1 checked, 1 failures: FAIL",
        "  a0 --cherry@root--> a0 synthesized B, not below A",
    ]


def test_confluence_suite_passes_at_small_size():
    report = confluence(max_size=5)
    assert report.ok
    assert report.checked > 50


def test_termination_suite_passes_on_a_small_draw():
    report = termination(samples=300, depth=6, seed=1)
    assert report.ok
    assert report.checked == 300


def test_handler_identity_suite_passes_on_a_small_draw():
    report = handler_identity(samples=200, depth=5, seed=1)
    assert report.ok


def test_monad_laws_suite_passes():
    report = monad_laws(max_size=5)
    assert report.ok
    assert report.checked > 50


def test_monad_laws_fail_where_both_sides_run_out_of_fuel(monkeypatch):
    # two sides without a normal form show nothing, so the law fails
    monkeypatch.setattr("efflam.verify._nf", lambda term: None)
    report = monad_laws(max_size=5)
    assert not report.ok
    assert report.failures and all("runs out of fuel on" in f for f in report.failures)


def test_suites_are_deterministic():
    first = termination(samples=100, depth=5, seed=9)
    second = termination(samples=100, depth=5, seed=9)
    assert first == second


def test_report_lines_name_the_suite_and_verdict():
    report = SuiteReport("confluence", 10, ())
    assert report.lines() == ["confluence: 10 checked, 0 failures: PASS"]
    report = SuiteReport("confluence", 10, ("boom",))
    assert report.lines()[0].endswith("FAIL")
    assert report.lines()[1] == "  boom"


def test_run_suite_dispatches_by_name():
    report = run_suite("monadLaws", size=4)
    assert report.suite == "monadLaws" and report.ok
    with pytest.raises(KeyError):
        run_suite("nonsense")
