"""Reduction rules, strategies, traces, and stuck states."""

from __future__ import annotations

import importlib
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from efflam import reduce as reduce_module
from efflam.fragment import GOLDENS, Branch, Word, denote, with_speaker
from efflam.prelude import eta_identity
from efflam.reduce import (
    _READS,
    _READS_GRANDCHILDREN,
    ConfluenceError,
    FuelExhausted,
    NormalForm,
    Rule,
    Stuck,
    _blocked,
    _peel,
    _redexes,
    _rewrap,
    _rule_at,
    blocked_at,
    candidates,
    contract_at,
    normalize,
    reducts,
    subterm_at,
)
from efflam.surface import parse_file, parse_term, print_term
from efflam.syntax import (
    EMPTY_ROW,
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
    Var,
    alpha_eq,
    canonical_key,
    children,
    erase,
    nodes,
    rebuild,
    size,
    strip,
)
from efflam.typecheck import check_against, clause_type, synthesize
from efflam.verify import _ROWS, OPERATIONS, _sample_type, sample_typed
from .conftest import fresh_copy, redex_terms, terms

ROOT = Path(__file__).resolve().parents[1]

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
A = Atom("A")
ENV = FILE.context()
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


def test_commuting_renames_an_operation_binder_that_shadows_the_commuted_one():
    # unrenamed, the commuted x would capture the continuation's x:
    # do speaker(*, \x. eta (\x. x))
    got = nf("commute (\\x. do speaker(*, \\x. eta x))")
    assert alpha_eq(got, t("do speaker(*, \\x'. eta (\\x. x'))"))


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


def test_a_beta_step_substitutes_at_any_depth():
    # the substitution enters 3,000 levels to reach the variable
    trace = normalize(App(Abs("x", _nest(3000, Var("x"))), Const("j")))
    assert isinstance(trace.outcome, NormalForm) and trace.step_count == 1
    final = trace.final
    for _ in range(3000):
        assert type(final) is Eta
        final = final.value
    assert final == Const("j")


def test_deep_terms_normalize_without_recursion():
    # the redex search, the stuck check and the full candidate list walk
    # with explicit stacks, so depth is not bounded by the interpreter's
    # recursion limit
    trace = normalize(_nest(3000, Const("j")))
    assert isinstance(trace.outcome, NormalForm) and trace.steps == []
    deep = _nest(3000, App(Abs("x", Var("x")), Const("j")))
    assert candidates(deep) == [(Rule.beta, (0,) * 3000)]
    assert isinstance(normalize(deep).outcome, NormalForm)
    assert isinstance(normalize(deep, "randomSeeded").outcome, NormalForm)
    assert size(_nest(3000, Const("j"))) == 3001
    # so does `erase`, which keeps a term without ascriptions itself
    plain = _nest(3000, Const("j"))
    assert erase(plain) is plain
    ascribed = Const("j")
    for _ in range(3000):
        ascribed = Eta(Ann(ascribed, A))
    erased = erase(ascribed)
    for _ in range(3000):
        assert type(erased) is Eta
        erased = erased.value
    assert erased == Const("j")
    # and so do `canonical_key` and `alpha_eq`, through binders too
    assert canonical_key(ascribed) == canonical_key(plain) == "(Eta " * 3000 + "!j" + ")" * 3000
    assert alpha_eq(ascribed, plain) and not alpha_eq(plain, _nest(2999, Const("j")))
    outermost, renamed, innermost = Var("x0"), Var("y0"), Var("x")
    for i in reversed(range(3000)):
        outermost = Op("op1", Const("a0"), f"x{i}", outermost)
        renamed = Op("op1", Const("a0"), f"y{i}", renamed)
        innermost = Abs("x", innermost)
    assert canonical_key(outermost).endswith(" .#2999" + ")" * 3000)
    assert canonical_key(innermost) == "(\\" * 3000 + "#0" + ")" * 3000
    assert alpha_eq(outermost, renamed) and not alpha_eq(outermost, Abs("z", outermost))
    assert blocked_at(_nest(3000, Cherry(Op("speaker", Const("*"), "x", Eta(Var("x")))))) == (
        (0,) * 3000,
        "extract is stuck: the computation performs operation speaker",
    )


def _handled_chain(n, ascribed=False):
    # handle { op1 -> \p. \k. k p, eta -> \x. eta x }
    #   (do op1(a0, \y0. do op1(y0, \y1. ... eta y_{n-1})))
    # with the clause ascribed, each handled call's betas leave one more
    # ascription around the rest of the chain
    body = Eta(Var(f"y{n - 1}"))
    for i in reversed(range(n)):
        body = Op("op1", Const("a0") if i == 0 else Var(f"y{i - 1}"), f"y{i}", body)
    clause = Abs("p", Abs("k", App(Var("k"), Var("p"))))
    if ascribed:
        clause = Ann(clause, clause_type(OPERATIONS.get("op1"), Comp(EMPTY_ROW, A)))
    return Handler((("op1", clause),), Abs("x", Eta(Var("x"))), body)


@pytest.mark.parametrize("strategy", ["leftmostOutermost", "randomSeeded"])
def test_a_long_handled_chain_normalizes(strategy, monkeypatch):
    # each call takes bananaOp and three betas, and the last beta of each
    # substitutes into the whole rest of the chain: substitution must
    # enter only the paths to the variable, not recurse down the chain.
    # With the clause ascribed, the run of ascriptions around the rest of
    # the chain grows by one per call: a step must not wrap it again,
    # whether the chain is the whole term or one level below its root,
    # so the ascriptions built are counted, not timed
    built = 0
    init = Ann.__init__

    def counted(self, *args):
        nonlocal built
        built += 1
        init(self, *args)

    chain, ascribed = _handled_chain(2000), _handled_chain(2000, ascribed=True)
    for term in (chain, ascribed, App(Const("f"), ascribed)):
        built = 0
        monkeypatch.setattr(Ann, "__init__", counted)
        trace = normalize(term, strategy, record_steps=False)
        monkeypatch.undo()
        assert isinstance(trace.outcome, NormalForm)
        final = trace.final
        if type(term) is App:
            assert final.fn == Const("f")
            final = final.arg
        assert strip(final) == Eta(Const("a0"))
        assert trace.step_count == 4 * 2000 + 2
        if term is chain:
            assert built == 0
        elif strategy == "leftmostOutermost":
            # three per call, and one per call in the final term's run
            assert built <= trace.step_count + 1
        else:
            # a redex drawn outside the focus pops the frames in between,
            # and the runs below them are wrapped again; they stay short
            # on this chain
            assert built <= 2 * trace.step_count


@pytest.mark.parametrize("record_steps, most", [(False, 282), (True, 918)])
def test_the_zipper_wraps_a_frame_once_per_step_on_the_goldens(record_steps, most, monkeypatch):
    # a frame brought up to date to be re-tested after a step, or to
    # record it, is not wrapped and rebuilt again when the search leaves
    # it: wrapping it twice built 283 and 1,081 ascriptions here
    built = 0
    init = Ann.__init__

    def counted(self, *args):
        nonlocal built
        built += 1
        init(self, *args)

    terms = [entry.term(Const("s")) for entry in GOLDENS]
    monkeypatch.setattr(Ann, "__init__", counted)
    for term in terms:
        normalize(term, record_steps=record_steps)
    monkeypatch.undo()
    assert built <= most


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


@pytest.mark.parametrize("strategy", ["leftmostOutermost", "randomSeeded", "exhaustiveCheck"])
def test_negative_fuel_is_rejected(strategy):
    # a term that terminates, so a strategy that accepts the fuel returns
    with pytest.raises(ValueError, match="fuel"):
        normalize(t("(\\x. eta x) j"), strategy, fuel=-1)


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
@given(terms | redex_terms)
def test_reducts_match_candidates(tm):
    cands = candidates(tm)
    everything = reducts(tm)
    assert len(cands) == len(everything)
    for (rule, path), (rule2, path2, reduced) in zip(cands, everything):
        assert rule is rule2 and path == path2
        assert alpha_eq(reduced, contract_at(tm, path, rule))


# ---------------------------------------------------------------------------
# The redex and stuck-node scan agrees with a recursive reference


def _preorder(t, path=()):
    """Every ascription-free node of `t` with its position, parents
    before children and children left to right: a recursive walk,
    written apart from `reduce`'s explicit-stack scan."""
    while isinstance(t, Ann):
        t = t.term
    yield t, path
    for i, kid in enumerate(children(t)):
        yield from _preorder(kid, path + (i,))


def _assert_scan_agrees_with_reference(term):
    redexes, stuck = [], []
    for s, path in _preorder(term):
        rule, reason = _rule_at(s), _blocked(s)
        if rule is not None:
            redexes.append((rule, path))
        if reason is not None:
            stuck.append((path, reason))
    assert candidates(term) == redexes
    assert blocked_at(term) == (stuck[0] if stuck else None)


@settings(max_examples=300, deadline=None)
@given(terms | redex_terms)
def test_the_scan_agrees_with_a_recursive_reference(tm):
    _assert_scan_agrees_with_reference(tm)


def test_the_scan_agrees_with_a_recursive_reference_along_golden_and_ladder_traces():
    # every term of each trace: ascriptions, handlers and commutes in many shapes
    for term in [entry.term(Const("s")) for entry in GOLDENS] + [_ladder(8)]:
        _assert_scan_agrees_with_reference(term)
        for step in normalize(term).steps:
            _assert_scan_agrees_with_reference(step.term)


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
    assert trace.step_count == len(steps)
    return trace


def _normalize_random_by_rescan(term, seed, fuel):
    """Reference random strategy: lists every redex of the whole term
    before each step and lets the RNG choose among them."""
    rng = random.Random(seed)
    steps, current = [], term
    for spent in range(fuel + 1):
        found = candidates(current)
        if not found:
            stuck = blocked_at(current)
            return steps, Stuck(*stuck) if stuck else NormalForm(), current, spent
        if spent == fuel:
            break
        rule, path = rng.choice(found)
        current = contract_at(current, path, rule)
        steps.append((rule, path, current))
    return steps, FuelExhausted(), current, fuel


def _assert_random_agrees_with_rescan(term, seed, fuel=100_000):
    trace = normalize(term, "randomSeeded", fuel=fuel, seed=seed)
    steps, outcome, final, count = _normalize_random_by_rescan(term, seed, fuel)
    assert [(s.rule, s.path, s.term) for s in trace.steps] == steps
    assert trace.outcome == outcome
    assert trace.final == final
    assert trace.step_count == count
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


@pytest.mark.parametrize("depth", [8, 16, 32, 64])
def test_resumed_search_on_the_deep_ladder(depth):
    trace = _assert_agrees_with_rescan(_ladder(depth))
    assert isinstance(trace.outcome, NormalForm)


def test_resumed_search_on_sampled_typed_terms():
    rng = random.Random(11)
    for _ in range(300):
        ty = Comp(rng.choice(_ROWS), _sample_type(rng, 2))
        _assert_agrees_with_rescan(sample_typed(rng, ty, 7), fuel=2_000)


@settings(max_examples=150, deadline=None)
@given(terms | redex_terms)
def test_resumed_search_on_untyped_terms(tm):
    _assert_agrees_with_rescan(tm, fuel=60)


def test_a_step_can_make_an_ancestor_a_redex():
    # \x. ((\y. love) x) x: the root is no eta redex while x is free in
    # the function; the beta step two levels down erases that occurrence
    term = Abs("x", App(App(Abs("y", Const("love")), Var("x")), Var("x")))
    trace = _assert_agrees_with_rescan(term)
    assert [(s.rule, s.path) for s in trace.steps] == [(Rule.beta, (0, 0)), (Rule.eta, ())]
    assert trace.final == Const("love")
    for seed in range(4):
        _assert_random_agrees_with_rescan(term, seed)


def test_a_discarding_beta_can_make_a_binder_three_frames_up_an_eta_redex():
    # \x. f ((\y. c) x) x: the beta at (0, 0, 1) drops the argument x,
    # so x is no longer free in the function `f ...` under the root
    term = Abs("x", App(App(Const("f"), App(Abs("y", Const("c")), Var("x"))), Var("x")))
    trace = _assert_agrees_with_rescan(term)
    assert [(s.rule, s.path) for s in trace.steps] == [(Rule.beta, (0, 0, 1)), (Rule.eta, ())]
    for seed in range(4):
        _assert_random_agrees_with_rescan(term, seed)


def test_a_discarding_beta_can_make_a_commute_an_op_redex():
    # commute (\x. do op((\y. c) x, \z. eta z)): blocked while the
    # operation's parameter mentions x, a cOp redex once it does not
    term = Exchange(
        Abs("x", Op("op", App(Abs("y", Const("c")), Var("x")), "z", Eta(Var("z"))))
    )
    trace = _assert_agrees_with_rescan(term)
    assert [(s.rule, s.path) for s in trace.steps][:2] == [(Rule.beta, (0, 0, 0)), (Rule.cOp, ())]
    for seed in range(4):
        _assert_random_agrees_with_rescan(term, seed)


def test_a_handler_dropping_its_clauses_can_make_a_binder_an_eta_redex():
    # \x. f (handle { op -> x } (eta c)) x: bananaEta discards the
    # clause, the only place x occurs in the function under the root
    dropped = Handler((("op", Var("x")),), Abs("v", Var("v")), Eta(Const("c")))
    term = Abs("x", App(App(Const("f"), dropped), Var("x")))
    trace = _assert_agrees_with_rescan(term)
    assert [(s.rule, s.path) for s in trace.steps][:2] == [
        (Rule.bananaEta, (0, 0, 1)),
        (Rule.eta, ()),
    ]
    for seed in range(4):
        _assert_random_agrees_with_rescan(term, seed)


_READ_TEST_TERMS = [
    Var("x"),
    Const("c"),
    Abs("x", Var("x")),
    Abs("x", Eta(Var("x"))),
    App(Const("f"), Var("x")),
    Eta(Const("c")),
    Op("op1", Var("x"), "y", Eta(Var("y"))),
    Ann(Abs("x", Var("x")), Fun(A, A)),
]


@settings(max_examples=300, deadline=None)
@given(terms | redex_terms, st.lists(terms | redex_terms, max_size=3))
def test_the_rule_reads_only_the_children_the_zipper_re_tests(tm, drawn):
    # the zipper re-tests a node after a step below it only where the
    # tables say that `_rule_at` reads the changed position
    others = _READ_TEST_TERMS + drawn
    for s, _ in _preorder(tm):
        rule = _rule_at(s)
        kids = list(children(s))
        if isinstance(s, Abs):
            others = others + [Var(s.binder)]
        for i, kid in enumerate(kids):
            if i - len(kids) != _READS.get(type(s)):
                for other in others:
                    assert _rule_at(rebuild(s, kids[:i] + [other] + kids[i + 1 :])) == rule
            tys, child = _peel(kid)
            if (type(s), type(child)) in _READS_GRANDCHILDREN:
                continue
            grandkids = list(children(child))
            for j in range(len(grandkids)):
                for other in others:
                    changed = rebuild(child, grandkids[:j] + [other] + grandkids[j + 1 :])
                    new = kids[:i] + [_rewrap(tys, changed)] + kids[i + 1 :]
                    assert _rule_at(rebuild(s, new)) == rule


_RUN_TYPES = [A, Fun(A, Comp(EMPTY_ROW, A)), Comp(EMPTY_ROW, A)]


def _under_runs(rng, t):
    """`t` with a run of one to three ascriptions around some subterms."""
    t = rebuild(t, [_under_runs(rng, kid) for kid in children(t)])
    if rng.random() < 0.3:
        for _ in range(rng.randint(1, 3)):
            t = Ann(t, rng.choice(_RUN_TYPES))
    return t


def test_resumed_search_on_the_ascribed_chain():
    # the focus's run grows at every handled call, and ancestor hits,
    # right-sibling moves and pops each meet it
    chain = _handled_chain(30, ascribed=True)
    _assert_agrees_with_rescan(chain)
    for seed in range(4):
        _assert_random_agrees_with_rescan(chain, seed)


@settings(max_examples=150, deadline=None)
@given(terms | redex_terms, st.randoms(use_true_random=False))
def test_resumed_search_on_terms_under_ascription_runs(tm, rng):
    tm = _under_runs(rng, tm)
    _assert_agrees_with_rescan(tm, fuel=60)
    for seed in range(3):
        _assert_random_agrees_with_rescan(tm, seed, fuel=60)


def test_resumed_search_under_binders_and_ascription_runs():
    rng = random.Random(7)
    for term in _far_binder_terms(rng, 1000):
        term = _under_runs(rng, term)
        _assert_agrees_with_rescan(term, rng.choice([0, 1, 2, 5, 40]))
        _assert_random_agrees_with_rescan(term, rng.randrange(4), fuel=40)


def _far_binder_terms(rng, count):
    r"""Random untyped terms, half of them under a binder that a step deep
    inside may free: `\x. M x` (eta) or `commute (\x. do op(M, K))` (cOp)."""
    names = ["x", "y", "z"]

    def gen(depth):
        if depth <= 0 or rng.random() < 0.15:
            if rng.random() < 0.6:
                return Var(rng.choice(names))
            return Const(rng.choice(["c", "f"]))
        sub = lambda: gen(depth - 1)  # noqa: E731
        k = rng.randrange(11)
        if k <= 2:
            return Abs(rng.choice(names), sub())
        if k <= 5:
            return App(sub(), sub())
        if k == 6:
            return Eta(sub())
        if k == 7:
            return Op(rng.choice(["a", "b"]), sub(), rng.choice(names), sub())
        if k == 8:
            return Cherry(sub()) if rng.random() < 0.5 else Exchange(sub())
        if k == 9:
            clauses = {rng.choice(["a", "b"]): sub() for _ in range(rng.randrange(3))}
            scrutinee = Eta(sub()) if rng.random() < 0.5 else sub()
            return Handler(tuple(sorted(clauses.items())), sub(), scrutinee)
        return Ann(sub(), Fun(A, Comp(EMPTY_ROW, A)))

    for _ in range(count):
        term = gen(rng.randrange(2, 9))
        if rng.random() < 0.5:
            x = rng.choice(names)
            for _ in range(rng.randrange(4)):
                term = App(Const("f"), term) if rng.random() < 0.5 else App(term, Const("c"))
            if rng.random() < 0.5:
                term = Abs(x, App(term, Var(x)))
            else:
                term = Exchange(Abs(x, Op("a", term, rng.choice(names), gen(2))))
            for _ in range(rng.randrange(3)):
                term = Eta(term) if rng.random() < 0.5 else App(Const("f"), term)
        yield term


def test_resumed_search_under_binders_that_steps_deep_inside_free():
    rng = random.Random(5)
    for term in _far_binder_terms(rng, 3000):
        fuel = rng.choice([0, 1, 2, 5, 40])
        trace = _assert_agrees_with_rescan(term, fuel)
        quiet = normalize(term, fuel=fuel, record_steps=False)
        assert quiet.final == trace.final and quiet.outcome == trace.outcome
        assert quiet.step_count == trace.step_count == len(trace.steps)


# (\x. \y. x x y) (\x. \y. x x y): a beta step rebuilds the term under
# `\y`, and the eta step after it asks for the free variables of a node
# that the beta step made, so new nodes are cached every other step
_W = Abs("x", Abs("y", App(App(Var("x"), Var("x")), Var("y"))))
_SELF_ETA = App(_W, _W)


def test_long_runs_agree_with_a_rescan():
    trace = _assert_agrees_with_rescan(_SELF_ETA, fuel=5_000)
    assert isinstance(trace.outcome, FuelExhausted)
    trace = _assert_random_agrees_with_rescan(_SELF_ETA, 0, fuel=5_000)
    assert isinstance(trace.outcome, FuelExhausted)


def _binder_chain(depth):
    r"""t_i = \x_i. x_i t_{i+1} x_i: every binder asks eta's side condition
    about a function that holds the whole rest of the term."""
    term = Const("c")
    for i in reversed(range(depth)):
        x = Var(f"x{i}")
        term = Abs(x.name, App(App(x, term), x))
    return term


def test_one_free_variable_memo_per_redex_search(free_var_fills):
    depth = 400
    # three compound nodes per level, each computed once
    assert candidates(_binder_chain(depth)) == []
    assert free_var_fills() <= 3 * depth
    before = free_var_fills()
    assert isinstance(normalize(_binder_chain(depth)).outcome, NormalForm)
    assert free_var_fills() - before <= 3 * depth


# ---------------------------------------------------------------------------
# The random strategy's counted draw agrees with a full rescan per step


@pytest.mark.parametrize("entry", GOLDENS, ids=lambda entry: str(entry.number))
def test_random_strategy_on_the_golden_corpus(entry):
    term = entry.term(Const("s"))
    for seed in range(50):
        for fuel in (0, 1, 3):
            _assert_random_agrees_with_rescan(term, seed, fuel)
        trace = _assert_random_agrees_with_rescan(term, seed)
        assert isinstance(trace.outcome, NormalForm)


def _benchmark_golden_requests(workload_seed):
    """The golden requests of the benchmark's random_terms workload,
    which compares only their final forms: (term, seed) pairs."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    modules = ("syntax", "verify", "fragment", "prelude", "reduce")
    ef = SimpleNamespace(**{name: importlib.import_module(f"efflam.{name}") for name in modules})
    (items,) = workloads._generate_random_terms(ef, workload_seed)
    return [data[:2] for kind, data in items if kind == "agrees"]


@pytest.mark.parametrize("workload_seed", range(5))
def test_random_strategy_on_the_benchmark_golden_requests(workload_seed):
    for term, seed in _benchmark_golden_requests(workload_seed):
        for fuel in (0, 1, 5):
            _assert_random_agrees_with_rescan(term, seed, fuel)
        trace = _assert_random_agrees_with_rescan(term, seed)
        assert isinstance(trace.outcome, NormalForm)


@pytest.mark.parametrize("depth", [8, 16])
def test_random_strategy_on_the_deep_ladder(depth):
    for seed in range(5):
        for fuel in (0, 1, 5):
            _assert_random_agrees_with_rescan(_ladder(depth), seed, fuel)
        trace = _assert_random_agrees_with_rescan(_ladder(depth), seed)
        assert isinstance(trace.outcome, NormalForm)


def test_random_strategy_on_sampled_typed_terms():
    rng = random.Random(13)
    for seed in range(3000):
        ty = Comp(rng.choice(_ROWS), _sample_type(rng, 2))
        _assert_random_agrees_with_rescan(sample_typed(rng, ty, 7), seed, fuel=2_000)


@settings(max_examples=150, deadline=None)
@given(terms | redex_terms)
def test_random_strategy_on_untyped_terms(tm):
    for seed in range(3):
        _assert_random_agrees_with_rescan(tm, seed, fuel=60)


def test_random_strategy_under_binders_that_steps_deep_inside_free():
    # the side conditions of eta and cOp read below the node they decide
    rng = random.Random(5)
    for term in _far_binder_terms(rng, 500):
        for seed in range(4):
            _assert_random_agrees_with_rescan(term, seed, fuel=40)


def _assert_counts_match_candidates(term):
    # once with the recursion cut off at once, so every node below the
    # root is filled from the explicit stack, once recursing
    for room in (0, 100):
        t = fresh_copy(term)
        assert all(node._nredex is None for node in nodes([t]))
        assert _redexes(t, room) == len(candidates(t))
        for node in nodes([t]):
            if type(node) is Ann:
                assert node._nredex is None
            else:
                assert node._nredex == len(candidates(node))


@settings(max_examples=300, deadline=None)
@given(terms | redex_terms)
def test_redex_counts_agree_with_the_candidates(tm):
    _assert_counts_match_candidates(tm)


def test_redex_counts_agree_with_the_candidates_on_goldens_and_far_binders():
    for entry in GOLDENS:
        _assert_counts_match_candidates(entry.term(Const("s")))
    for term in _far_binder_terms(random.Random(7), 300):
        _assert_counts_match_candidates(term)


def _checked_counts(trace):
    """How many nodes reachable from the trace's final term and recorded
    steps carry a redex count, each checked against the candidates."""
    checked = 0
    for node in nodes([trace.final, *(step.term for step in trace.steps)]):
        if node._nredex is not None:
            assert node._nredex == len(candidates(node)), node
            checked += 1
    return checked


def test_the_counts_the_random_strategy_leaves_agree_with_the_candidates():
    # a node the zipper pops out of gets its count by adding up its
    # frame's and the focus's: a wrong one would skew every later draw
    # that passes the node, without any error
    checked = 0
    for entry in GOLDENS:
        term = entry.term(Const("s"))
        for seed in range(5):
            for record in (True, False):
                trace = normalize(fresh_copy(term), "randomSeeded", seed=seed, record_steps=record)
                checked += _checked_counts(trace)
    assert checked > 10_000
    checked = 0
    rng = random.Random(11)
    for term in _far_binder_terms(rng, 300):
        term = _under_runs(rng, term)
        trace = normalize(term, "randomSeeded", fuel=rng.choice([1, 5, 40]), seed=rng.randrange(4))
        checked += _checked_counts(trace)
    assert checked > 2_000


def test_a_second_normalization_counts_no_node_of_the_initial_term(monkeypatch):
    filled = []
    cache = reduce_module._cache

    def counted(t, key, value):
        filled.append(t)
        cache(t, key, value)

    monkeypatch.setattr(reduce_module, "_cache", counted)
    for entry in GOLDENS:
        term = fresh_copy(entry.term(Const("s")))
        normalize(term, "randomSeeded", seed=0, record_steps=False)
        filled.clear()
        trace = normalize(term, "randomSeeded", seed=1, record_steps=False)
        # the steps' new nodes are counted, and only they
        assert trace.step_count and filled
        initial = {id(node) for node in nodes([term])}
        assert not any(id(node) in initial for node in filled)


_OMEGA = App(Abs("x", App(Var("x"), Var("x"))), Abs("x", App(Var("x"), Var("x"))))


@pytest.mark.parametrize(
    "strategy, term, fuels",
    [
        # each step of omega builds a new term
        pytest.param("randomSeeded", _OMEGA, (2_000, 20_000), id="randomSeeded"),
        # each step rebuilds the term under `\y`, and every other step
        # caches free variables on the new nodes
        pytest.param("leftmostOutermost", _SELF_ETA, (5_000, 20_000), id="leftmostOutermost"),
    ],
)
def test_normalization_memory_does_not_grow_with_the_steps(strategy, term, fuels):
    # the memos must not keep the terms of earlier steps alive
    import gc
    import tracemalloc

    peaks = []
    for fuel in fuels:
        # without it, the peaks depend on when the collector last ran
        gc.collect()
        tracemalloc.start()
        try:
            trace = normalize(term, strategy, fuel=fuel, record_steps=False)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert isinstance(trace.outcome, FuelExhausted) and trace.step_count == fuel
    assert peaks[1] <= 1.5 * peaks[0], peaks
