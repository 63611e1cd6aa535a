"""Reduction rules, strategies, traces, and stuck states."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings

from efflam.fragment import GOLDENS, Branch, Word, denote, with_speaker
from efflam.prelude import eta_identity
from efflam.reduce import (
    ConfluenceError,
    FuelExhausted,
    NormalForm,
    Rule,
    Stuck,
    blocked_at,
    candidates,
    contract_at,
    normalize,
    reducts,
    subterm_at,
)
from efflam.surface import parse_file, parse_term, print_term
from efflam.syntax import (
    Abs,
    Ann,
    App,
    Cherry,
    Comp,
    Const,
    Eta,
    Handler,
    Op,
    Var,
    alpha_eq,
    erase,
)
from efflam.typecheck import check_against, synthesize
from efflam.verify import _ROWS, _sample_type, sample_typed
from .conftest import terms

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
ENV = FILE.env()
CTX = FILE.context()


def t(src: str):
    return parse_term(src, ENV)


def nf(src: str):
    trace = normalize(t(src))
    assert isinstance(trace.outcome, NormalForm), trace.outcome
    return erase(trace.final)


# ---------------------------------------------------------------------------
# One example per rule


def test_beta():
    assert alpha_eq(nf("(\\x. eta x) j"), t("eta j"))


def test_eta_contraction():
    assert nf("\\x. love x") == Const("love")


def test_handler_meets_injection():
    assert alpha_eq(nf("handle { } (eta j)"), t("eta j"))


def test_handler_meets_its_operation():
    assert alpha_eq(nf("handle { speaker -> \\x. \\k. k j } me"), t("eta j"))


def test_handler_forwards_other_operations():
    trace = normalize(t("handle { implicate -> \\x. \\k. k * } me"))
    assert [s.rule for s in trace.steps][:1] == [Rule.bananaOpForward]
    assert alpha_eq(erase(trace.final), t("me"))


def test_extraction():
    assert nf("extract (eta j)") == Const("j")


def test_commute_past_injection():
    assert nf("commute (\\x. eta (love x))") == Eta(Const("love"))


def test_commute_past_an_operation():
    got = nf("commute (\\x. do speaker(*, \\y. eta (love x y)))")
    want = t("do speaker(*, \\y. eta \\x. love x y)")
    assert alpha_eq(got, want)


# ---------------------------------------------------------------------------
# Binder hygiene in the handler push


def test_handler_push_renames_the_continuation_binder():
    # the clause resumes twice and mentions a free y; the operation binder
    # is also y, so pushing the handler inward must rename it
    clause = Abs("x", Abs("k", App(App(Const("love"), Var("y")), App(Var("k"), Const("j")))))
    scrutinee = Op("speaker", Const("*"), "y", Op("speaker", Const("*"), "z", Eta(Var("z"))))
    h = Handler((("speaker", clause),), eta_identity(), scrutinee)
    final = normalize(h).final
    want = App(
        App(Const("love"), Var("y")),
        App(App(Const("love"), Var("y")), Eta(Const("j"))),
    )
    assert alpha_eq(final, want)


def test_forwarding_renames_the_continuation_binder():
    clause = Abs("x", Abs("k", App(Var("k"), Var("y"))))
    scrutinee = Op("implicate", t("love j j"), "y", Eta(Var("y")))
    h = Handler((("speaker", clause),), eta_identity(), scrutinee)
    step = reducts(h)
    assert len(step) == 1
    rule, _, reduced = step[0]
    assert rule is Rule.bananaOpForward
    assert isinstance(reduced, Op) and reduced.binder != "y"
    inner = reduced.cont
    assert isinstance(inner, Handler)
    assert alpha_eq(inner.clauses[0][1], clause)


# ---------------------------------------------------------------------------
# Stuck states


def test_commute_blocks_when_the_parameter_uses_the_binder():
    trace = normalize(t("commute (\\x. do implicate(man x, \\y. eta x))"))
    assert isinstance(trace.outcome, Stuck)
    assert trace.outcome.path == ()
    assert "implicate" in trace.outcome.reason and "x" in trace.outcome.reason


def test_extraction_blocks_on_a_suspended_operation():
    trace = normalize(t("extract me"))
    assert isinstance(trace.outcome, Stuck)
    assert "speaker" in trace.outcome.reason


def test_stuck_position_is_reported_inside_the_term():
    trace = normalize(t("eta (extract me)"))
    assert isinstance(trace.outcome, Stuck)
    assert trace.outcome.path == (0,)


# ---------------------------------------------------------------------------
# Traces, positions, fuel


def test_trace_records_rules_and_paths():
    trace = normalize(t("handle { speaker -> \\x. \\k. k j } me"))
    assert [s.rule for s in trace.steps] == [
        Rule.bananaOp,
        Rule.beta,
        Rule.beta,
        Rule.beta,
        Rule.bananaEta,
        Rule.beta,
    ]
    assert trace.steps[0].path == ()
    assert alpha_eq(trace.final, t("eta j"))


def test_candidates_are_leftmost_outermost_first():
    both = App(t("(\\x. eta x) j"), t("(\\x. x) m"))
    found = candidates(both)
    assert [(rule, path) for rule, path in found] == [
        (Rule.beta, (0,)),
        (Rule.beta, (1,)),
    ]


def test_contract_at_a_chosen_position():
    both = App(t("(\\x. eta x) j"), t("(\\x. x) m"))
    right_first = contract_at(both, (1,), Rule.beta)
    assert alpha_eq(right_first, App(t("(\\x. eta x) j"), Const("m")))


def test_subterm_navigation_skips_ascriptions():
    term = t("(eta (love j m) : F{}(o))")
    assert subterm_at(term, (0,)) == t("love j m")


def test_fuel_exhaustion_reports():
    omega = App(Abs("x", App(Var("x"), Var("x"))), Abs("x", App(Var("x"), Var("x"))))
    trace = normalize(omega, fuel=25)
    assert isinstance(trace.outcome, FuelExhausted)
    assert len(trace.steps) == 25


@pytest.mark.parametrize("strategy", ["leftmostOutermost", "randomSeeded"])
def test_fuel_counts_steps_not_searches(strategy):
    # the normal form is one step away: one unit of fuel reaches it
    trace = normalize(t("(\\x. eta x) j"), strategy, fuel=1)
    assert isinstance(trace.outcome, NormalForm) and len(trace.steps) == 1
    trace = normalize(t("eta j"), strategy, fuel=0)
    assert isinstance(trace.outcome, NormalForm)
    trace = normalize(t("(\\x. eta x) j"), strategy, fuel=0)
    assert isinstance(trace.outcome, FuelExhausted)


def _nest(depth, inner):
    for _ in range(depth):
        inner = Eta(inner)
    return inner


def test_deep_terms_normalize_without_recursion():
    # the redex search, the stuck check and the full candidate list walk
    # with explicit stacks, so depth is not bounded by the interpreter's
    # recursion limit
    trace = normalize(_nest(3000, Const("j")))
    assert isinstance(trace.outcome, NormalForm) and trace.steps == []
    deep = _nest(3000, App(Abs("x", Var("x")), Const("j")))
    assert candidates(deep) == [(Rule.beta, (0,) * 3000)]
    assert isinstance(normalize(deep).outcome, NormalForm)
    assert blocked_at(_nest(3000, Cherry(Op("speaker", Const("*"), "x", Eta(Var("x")))))) == (
        (0,) * 3000,
        "extract is stuck: the computation performs operation speaker",
    )


# ---------------------------------------------------------------------------
# Ascriptions survive reduction and keep traces checkable


def test_ascriptions_are_kept_not_erased():
    trace = normalize(t("((\\x. eta x) j : F{}(iota))"))
    assert isinstance(trace.final, Ann)
    assert alpha_eq(erase(trace.final), t("eta j"))


def test_annotated_handler_trace_rechecks_at_every_step():
    src = "handle { speaker -> ((\\x. \\k. k j) : 1 -> (iota -> F{}(iota)) -> F{}(iota)) } me"
    term = t(src)
    ty = synthesize(CTX, term)
    trace = normalize(term)
    for step in trace.steps:
        check_against(CTX, step.term, ty)
    assert alpha_eq(erase(trace.final), t("eta j"))


def test_commute_trace_rechecks_at_every_step():
    term = t("commute ((\\x. do speaker(*, \\y. eta (love x y))) : iota -> F{speaker}(o))")
    ty = synthesize(CTX, term)
    trace = normalize(term)
    for step in trace.steps:
        check_against(CTX, step.term, ty)
    assert isinstance(trace.outcome, NormalForm)


# ---------------------------------------------------------------------------
# Strategies


def test_strategies_reach_the_same_normal_form():
    src = "handle { speaker -> ((\\x. \\k. k j) : 1 -> (iota -> F{}(iota)) -> F{}(iota)) } (me >>= \\y. eta (love y y))"
    term = t(src)
    want = erase(normalize(term).final)
    for seed in range(10):
        got = normalize(term, "randomSeeded", seed=seed)
        assert isinstance(got.outcome, NormalForm)
        assert alpha_eq(erase(got.final), want)
    exhaustive = normalize(term, "exhaustiveCheck")
    assert alpha_eq(erase(exhaustive.final), want)


def test_exhaustive_check_out_of_fuel_stops_at_the_initial_term():
    growing = Abs("x", App(App(Var("x"), Var("x")), Var("x")))
    term = App(growing, growing)
    trace = normalize(term, "exhaustiveCheck", fuel=5)
    assert isinstance(trace.outcome, FuelExhausted)
    assert trace.final is term and trace.steps == []


def test_exhaustive_check_rejects_two_normal_forms(monkeypatch):
    import efflam.reduce as reduce_module

    term = t("(\\x. eta x) j")
    graph = reduce_module.reduction_graph(term)
    graph.normal_forms.append(t("eta m"))
    monkeypatch.setattr(reduce_module, "reduction_graph", lambda _t, _budget: graph)
    with pytest.raises(ConfluenceError):
        normalize(term, "exhaustiveCheck")


def test_random_strategy_is_reproducible():
    term = t("handle { speaker -> \\x. \\k. k j } (me >>= \\y. eta (love y y))")
    a = normalize(term, "randomSeeded", seed=7)
    b = normalize(term, "randomSeeded", seed=7)
    assert [(s.rule, s.path) for s in a.steps] == [(s.rule, s.path) for s in b.steps]


def test_unknown_strategy_is_rejected():
    with pytest.raises(ValueError):
        normalize(Const("j"), "innermost")


# ---------------------------------------------------------------------------
# Generated terms: reduction is total and deterministic


@settings(max_examples=150, deadline=None)
@given(terms)
def test_normalize_never_crashes_and_is_deterministic(tm):
    first = normalize(tm, fuel=60)
    second = normalize(tm, fuel=60)
    assert first.outcome == second.outcome
    assert alpha_eq(first.final, second.final)
    assert isinstance(first.outcome, (NormalForm, Stuck, FuelExhausted))


@settings(max_examples=150, deadline=None)
@given(terms)
def test_reducts_match_candidates(tm):
    cands = candidates(tm)
    everything = reducts(tm)
    assert len(cands) == len(everything)
    for (rule, path), (rule2, path2, reduced) in zip(cands, everything):
        assert rule is rule2 and path == path2
        assert alpha_eq(reduced, contract_at(tm, path, rule))


# ---------------------------------------------------------------------------
# The resumed redex search agrees with a full rescan from the root


def _normalize_by_rescan(term, fuel):
    """Reference LO normalizer: finds each redex by searching the whole term."""
    steps, current = [], term
    for _ in range(fuel):
        found = candidates(current)
        if not found:
            break
        rule, path = found[0]
        current = contract_at(current, path, rule)
        steps.append((rule, path, current))
    return steps, current


def _assert_agrees_with_rescan(term, fuel=100_000):
    trace = normalize(term, fuel=fuel)
    steps, final = _normalize_by_rescan(term, fuel)
    assert [(s.rule, s.path, s.term) for s in trace.steps] == steps
    assert trace.final == final
    return trace


def _ladder(depth: int):
    """The sentence "every woman loves me" under `depth` indirect reports."""
    tree = Branch(Branch(Word("loves"), Word("me")), Branch(Word("every"), Word("woman")))
    for i in range(depth):
        tree = Branch(Branch(Word("said-is"), tree), Word(("john", "mary")[i % 2]))
    return with_speaker(Const("s"), denote(tree))


def test_resumed_search_on_the_golden_corpus():
    for entry in GOLDENS:
        trace = _assert_agrees_with_rescan(entry.term(Const("s")))
        assert isinstance(trace.outcome, NormalForm)


@pytest.mark.parametrize("depth", [8, 16])
def test_resumed_search_on_the_deep_ladder(depth):
    trace = _assert_agrees_with_rescan(_ladder(depth))
    assert isinstance(trace.outcome, NormalForm)


def test_resumed_search_on_sampled_typed_terms():
    rng = random.Random(11)
    for _ in range(300):
        ty = Comp(rng.choice(_ROWS), _sample_type(rng, 2))
        _assert_agrees_with_rescan(sample_typed(rng, ty, 7), fuel=2_000)


@settings(max_examples=150, deadline=None)
@given(terms)
def test_resumed_search_on_untyped_terms(tm):
    _assert_agrees_with_rescan(tm, fuel=60)


def test_a_step_can_make_an_ancestor_a_redex():
    # \x. ((\y. love) x) x: the root is no eta redex while x is free in
    # the function; the beta step two levels down erases that occurrence
    term = Abs("x", App(App(Abs("y", Const("love")), Var("x")), Var("x")))
    trace = _assert_agrees_with_rescan(term)
    assert [(s.rule, s.path) for s in trace.steps] == [(Rule.beta, (0, 0)), (Rule.eta, ())]
    assert trace.final == Const("love")
