"""Term syntax: free variables, substitution, alpha-equivalence."""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import gc
import pickle
import sys
import tracemalloc
import weakref

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from efflam.syntax import (
    Abs,
    Ann,
    App,
    Atom,
    Cherry,
    Comp,
    Const,
    Context,
    EMPTY_ROW,
    Eta,
    Exchange,
    Fun,
    Handler,
    Op,
    RowError,
    Signature,
    Var,
    alpha_eq,
    canonical_key,
    children,
    erase,
    fold,
    free_vars,
    fresh_name,
    handler,
    nodes,
    rebuild,
    size,
    subst,
)
from efflam import syntax
from efflam import verify
from efflam.fragment import GOLDENS, shipped_source
from efflam.reduce import Rule, Step, _redexes, normalize
from efflam.syntax import _substituting, _unascribed
from efflam.surface import (
    _enter_print,
    _leave_print,
    parse_file,
    parse_type,
    print_term,
    print_type,
)
from efflam.typecheck import TypeCheckError, synthesize
from . import oracle
from .conftest import NAMES, OP_TABLE, fresh_copy, redex_terms, terms, types

A = Atom("A")
B = Atom("B")


# --- free variables ---------------------------------------------------------


def test_free_vars_abs_shadows():
    assert free_vars(Abs("x", App(Var("x"), Var("y")))) == {"y"}


def test_free_vars_op_binder_scopes_cont_only():
    # the continuation binder must not bind inside the parameter
    t = Op("opa", Var("x"), "x", Var("x"))
    assert free_vars(t) == {"x"}
    t2 = Op("opa", Const("c0"), "x", Var("x"))
    assert free_vars(t2) == set()


def test_free_vars_handler_covers_all_children():
    t = handler({"opa": Var("h")}, Var("e"), Var("n"))
    assert free_vars(t) == {"h", "e", "n"}


# --- substitution -----------------------------------------------------------


def test_subst_simple():
    assert subst(Var("x"), "x", Const("c0")) == Const("c0")
    assert subst(Var("y"), "x", Const("c0")) == Var("y")


def test_subst_avoids_capture_by_priming():
    # [x := y](\y. x) must rename the binder, deterministically
    t = Abs("y", Var("x"))
    got = subst(t, "x", Var("y"))
    assert got == Abs("y'", Var("y"))
    # both binders capture; the inner one sees the outer one's renaming
    t = Abs("y", Abs("z", App(Var("x"), Var("y"))))
    got = subst(t, "x", App(Var("y"), Var("z")))
    assert got == Abs("y'", Abs("z'", App(App(Var("y"), Var("z")), Var("y'"))))


def test_subst_shadowed_binder_untouched():
    t = Abs("x", Var("x"))
    assert subst(t, "x", Const("c0")) is t


def test_subst_op_param_vs_cont():
    t = Op("opa", Var("x"), "x", Var("x"))
    got = subst(t, "x", Const("c0"))
    # the param occurrence is free, the cont occurrence is bound
    assert got == Op("opa", Const("c0"), "x", Var("x"))


def test_subst_op_cont_capture():
    t = Op("opa", Const("c0"), "y", App(Var("x"), Var("y")))
    got = subst(t, "x", Var("y"))
    assert got == Op("opa", Const("c0"), "y'", App(Var("y"), Var("y'")))


def test_subst_deterministic():
    t = Abs("y", App(Var("x"), Abs("y'", Var("y"))))
    once = subst(t, "x", Var("y"))
    twice = subst(t, "x", Var("y"))
    assert once == twice


def test_subst_returns_the_term_itself_when_the_name_is_not_free():
    t = handler(
        {"opa": Abs("x", Var("x"))},
        Op("opb", Var("y"), "x", Ann(Var("x"), A)),
        App(Abs("y", Var("y")), Var("z")),
    )
    assert subst(t, "x", Const("c0")) is t
    assert subst(t, "u", Var("x")) is t


def test_subst_keeps_untouched_siblings():
    left = Abs("y", App(Var("y"), Const("c0")))
    right = Eta(Var("z"))
    clause = Abs("k", Var("k"))
    got = subst(App(App(left, Var("x")), right), "x", Const("c1"))
    assert got == App(App(left, Const("c1")), right)
    assert got.fn.fn is left and got.arg is right
    h = handler({"opa": clause}, Var("x"), right)
    got = subst(h, "x", Const("c1"))
    assert got.clauses[0][1] is clause and got.scrutinee is right


# --- alpha-equivalence ------------------------------------------------------


def test_alpha_eq_renamed_binders():
    assert alpha_eq(Abs("x", Var("x")), Abs("y", Var("y")))
    assert alpha_eq(
        Op("opa", Const("c0"), "x", Eta(Var("x"))),
        Op("opa", Const("c0"), "z", Eta(Var("z"))),
    )


def test_alpha_eq_distinguishes_free_names():
    assert not alpha_eq(Var("x"), Var("y"))
    assert not alpha_eq(Abs("x", Var("y")), Abs("x", Var("z")))


def test_alpha_eq_free_vs_bound():
    assert not alpha_eq(Abs("x", Var("x")), Abs("x", Var("y")))


def test_alpha_eq_ignores_ascriptions():
    assert alpha_eq(Ann(Var("x"), A), Var("x"))
    assert alpha_eq(Abs("x", Ann(Var("x"), A)), Abs("y", Var("y")))


def test_alpha_eq_handler_clause_names_matter():
    h1 = handler({"opa": Var("h")}, Var("e"), Var("n"))
    h2 = handler({"opb": Var("h")}, Var("e"), Var("n"))
    assert not alpha_eq(h1, h2)


def test_handler_rejects_duplicate_clauses():
    with pytest.raises(ValueError):
        Handler((("opa", Var("h")), ("opa", Var("g"))), Var("e"), Var("n"))


def test_handler_rejects_unsorted_clauses():
    with pytest.raises(ValueError):
        Handler((("opb", Var("h")), ("opa", Var("g"))), Var("e"), Var("n"))


# --- properties over random terms -------------------------------------------


@given(terms)
def test_subst_identity(t):
    for x in sorted(free_vars(t)):
        assert alpha_eq(subst(t, x, Var(x)), t)


@given(terms, st.sampled_from(NAMES), terms)
def test_subst_free_vars(t, x, r):
    got = free_vars(subst(t, x, r))
    if x in free_vars(t):
        assert got == (free_vars(t) - {x}) | free_vars(r)
    else:
        assert got == free_vars(t)


@given(terms, st.sampled_from(NAMES), terms)
def test_subst_gone_after(t, x, r):
    if x not in free_vars(r):
        assert x not in free_vars(subst(t, x, r))


def _subst_by_rescan(t, name, repl):
    """Reference substitution: recomputes free variables at every binder."""
    if name not in free_vars(t):
        return t
    repl_fv = free_vars(repl)

    def go(t):
        match t:
            case Var(n):
                return repl if n == name else t
            case Const(_):
                return t
            case Abs(binder, body):
                if binder == name or name not in free_vars(body):
                    return t
                if binder in repl_fv:
                    binder2 = fresh_name(binder, repl_fv | free_vars(body) | {name})
                    body = _subst_by_rescan(body, binder, Var(binder2))
                    binder = binder2
                return Abs(binder, go(body))
            case App(fn, arg):
                return App(go(fn), go(arg))
            case Eta(value):
                return Eta(go(value))
            case Op(op, param, binder, cont):
                new_param = go(param)
                if binder == name or name not in free_vars(cont):
                    return Op(op, new_param, binder, cont)
                if binder in repl_fv:
                    binder2 = fresh_name(binder, repl_fv | free_vars(cont) | {name})
                    cont = _subst_by_rescan(cont, binder, Var(binder2))
                    binder = binder2
                return Op(op, new_param, binder, go(cont))
            case Handler(clauses, eta_clause, scrutinee):
                return Handler(
                    tuple((n, go(c)) for n, c in clauses), go(eta_clause), go(scrutinee)
                )
            case Cherry(comp):
                return Cherry(go(comp))
            case Exchange(fn):
                return Exchange(go(fn))
            case Ann(term, ty):
                return Ann(go(term), ty)
        raise TypeError(t)

    return go(t)


@settings(max_examples=400)
@given(terms, st.sampled_from(NAMES), terms)
def test_subst_agrees_with_the_rescanning_reference(t, x, r):
    # `terms` draws binders and free variables from the same four names,
    # so capture, shadowing and renaming under renaming all come up
    got = subst(t, x, r)
    want = _subst_by_rescan(t, x, r)
    assert alpha_eq(got, want)
    assert got == want  # the same fresh names, too
    assert (got is t) == (x not in free_vars(t))


@settings(max_examples=400)
@given(terms, st.sampled_from(NAMES), terms, st.booleans())
def test_subst_with_a_memo_agrees_with_the_plain_walk(t, x, r, filled):
    # the cache only tells the walk which subterms to skip: the result,
    # fresh names included, is the same whether it knows much or nothing
    fresh = fresh_copy(t)
    if filled:
        free_vars(fresh)
    got = subst(fresh, x, r)
    assert got == subst(fresh_copy(t), x, r) == subst(t, x, r)
    assert (got is fresh) == (x not in free_vars(t))


@settings(max_examples=400)
@given(terms, st.sampled_from(NAMES), terms, st.integers(0, 4))
def test_subst_from_the_explicit_stack_agrees_with_the_recursion(t, x, r, room):
    # below `room` levels the walk goes on from an explicit stack; where
    # it switches must change nothing, fresh names and sharing included
    got = fold(t, _substituting(x, r), rebuild, room)
    assert got == subst(t, x, r)
    assert (got is t) == (x not in free_vars(t))


def _eta_nest(depth, inner):
    for _ in range(depth):
        inner = Eta(inner)
    return inner


def _eta_unnest(t, depth):
    for _ in range(depth):
        assert type(t) is Eta
        t = t.value
    return t


def test_subst_is_not_bounded_by_the_recursion_limit():
    deep = _eta_nest(3000, App(Var("x"), Var("y")))
    assert _eta_unnest(subst(deep, "x", Const("c")), 3000) == App(Const("c"), Var("y"))
    # a binder far down that the replacement would capture is renamed
    renamed = subst(Abs("y", deep), "x", Var("y"))
    assert renamed.binder == "y'"
    assert _eta_unnest(renamed.body, 3000) == App(Var("y"), Var("y'"))
    # a continuation far down that binds the name keeps it
    bound = _eta_nest(3000, Op("op1", Var("x"), "x", Var("x")))
    assert _eta_unnest(subst(bound, "x", Const("c")), 3000) == Op("op1", Const("c"), "x", Var("x"))


def test_subst_leaves_nothing_for_the_cyclic_collector():
    # garbage in a reference cycle, such as closures that call each other,
    # lives on, with the memo dict it holds, until the collector runs; the
    # other walkers built on recursive closures are held to the same rule
    import gc
    import random

    from efflam.fragment import example
    from efflam.verify import A, _ROWS, sample_typed

    t = Abs("y", App(Var("x"), App(Abs("z", Var("x")), Var("y"))))
    golden = example(8).term(Const("s"))
    rng = random.Random(0)
    gc.collect()
    gc.disable()
    try:
        for _ in range(100):
            renamed = subst(t, "x", Var("y"))
            assert renamed == Abs("y'", App(Var("y"), App(Abs("z", Var("y")), Var("y'"))))
            free_vars(t)
            subst(t, "x", Const("c"))
            canonical_key(t)
            print_term(golden)
            sample_typed(rng, Comp(_ROWS[0], A), 5)
        assert gc.collect() == 0
    finally:
        gc.enable()


def _free_vars_by_recursion(t):
    """Reference: free variables by structural recursion."""
    match t:
        case Var(name):
            return frozenset((name,))
        case Abs(binder, body):
            return _free_vars_by_recursion(body) - {binder}
        case Op(_, param, binder, cont):
            return _free_vars_by_recursion(param) | (_free_vars_by_recursion(cont) - {binder})
    return frozenset().union(*map(_free_vars_by_recursion, children(t)))


def _slot_values(t):
    """Each slot of `t` but its weak-reference slot, by name, with the
    value it holds: a term keeps everything in slots, having no
    `__dict__`."""
    assert not hasattr(t, "__dict__")
    names = [name for cls in type(t).__mro__ for name in cls.__dict__.get("__slots__", ())]
    return {name: getattr(t, name) for name in names if name != "__weakref__"}


def _cached_nodes(t):
    """The compound nodes of `t` whose free variables are cached."""
    return [node for node in nodes([t]) if node._fv is not None]


@given(terms)
def test_free_var_memo_agrees_with_the_recursive_reference(t):
    assert free_vars(t) == _free_vars_by_recursion(t)
    # every compound node below was filled on the way, with its own set
    for node in nodes([t]):
        assert node._fv == _free_vars_by_recursion(node)
    if children(t):
        assert free_vars(t) is t._fv  # the second answer is the cached one


# the names of the random terms, so that some of them type-check
_CHECKED_IN = dataclasses.replace(
    Context.initial({"A", "B"}, {"c0": A, "c1": B}, OP_TABLE), vars=dict.fromkeys(NAMES, A)
)


@settings(max_examples=300)
@given(terms | redex_terms)
def test_the_free_var_cache_is_invisible(t):
    # and so are the checker's typings, kept on a typed node as `_typed`
    twin = fresh_copy(t)
    got = free_vars(t)
    assert got == _free_vars_by_recursion(t)
    with contextlib.suppress(TypeCheckError):
        synthesize(_CHECKED_IN, t)
    if type(t) is Ann or type(t) is Handler:
        assert t._typed is not None  # reached first, typed or not
    assert all(node._fv is None and node._typed is None for node in nodes([twin]))
    assert t == twin and twin == t
    assert hash(t) == hash(twin)
    assert repr(t) == repr(twin)
    assert canonical_key(t) == canonical_key(twin)
    assert print_term(t) == print_term(twin)
    # `replace` makes a new node, which starts uncached
    if children(t):
        filled = {name for name, value in _slot_values(t).items() if value is not None}
        empty = {name for name, value in _slot_values(twin).items() if value is not None}
        assert filled - {"_fv", "_typed"} == empty == {f.name for f in dataclasses.fields(t)}
        copy = dataclasses.replace(t)
        assert copy == dataclasses.replace(twin) == t
        assert copy is not t and copy._fv is None and copy._typed is None
        assert repr(copy) == repr(twin)


def test_free_var_memo_skips_leaves_and_shares_subterms(free_var_fills):
    shared = App(Var("x"), Const("c"))
    t = App(Abs("x", shared), shared)
    assert free_vars(t) == {"x"}
    # one fill per compound node; the shared subterm is filled once
    assert {id(node) for node in _cached_nodes(t)} == {id(t), id(t.fn), id(shared)}
    assert free_var_fills() == 3
    assert _slot_values(shared.fn) == {"name": "x"} and _slot_values(shared.arg) == {"name": "c"}
    # a node keeps a child's set when it is equal, and every closed node
    # the one empty set: a new set per node raised the benchmark's peak
    # memory by 10%
    assert t._fv is shared._fv
    assert t.fn._fv is free_vars(Const("c")) is free_vars(Abs("z", Eta(Var("z"))))


def test_free_var_memo_is_not_bounded_by_the_recursion_limit(free_var_fills):
    deep = Var("y")
    for i in range(20_000):
        deep = App(Abs(f"x{i % 3}", deep), Const("c"))
    assert free_vars(deep) == {"y"}
    assert free_vars(Abs("y", deep)) == frozenset()
    # two compound nodes per level, one more for the outer binder
    assert free_var_fills() == 2 * 20_000 + 1


def test_free_var_memo_walks_a_shared_dag_once_per_node(free_var_fills):
    # x_{k+1} = x_k x_k: 2^k paths, k + 1 distinct nodes, deeper than the
    # cache's recursion cut-off
    k = 200
    dag = App(Var("x"), Var("y"))
    for _ in range(k):
        dag = App(dag, dag)
    assert free_vars(dag) == {"x", "y"}
    assert free_var_fills() == k + 1
    assert len(_cached_nodes(dag)) == k + 1


# one term of each class, the compound ones over shared leaves and
# subterms, and the caches that each class is given: every compound
# node its free variables, an ascription-free one its redex count, an
# ascription and a handler their typings
_X, _C = Var("x"), Const("c0")
_CLAUSES = (("opa", _X),)
_ONE_OF_EACH = {
    Var: lambda: Var("x"),
    Const: lambda: Const("c0"),
    Abs: lambda: Abs("x", _X),
    App: lambda: App(_X, _C),
    Eta: lambda: Eta(_C),
    Op: lambda: Op("opa", _C, "y", _X),
    Handler: lambda: Handler(_CLAUSES, _X, _C),
    Cherry: lambda: Cherry(_C),
    Exchange: lambda: Exchange(_X),
    Ann: lambda: Ann(_C, A),
}
_CACHES_USED = {cls: ("_fv", "_nredex") for cls in (Abs, App, Eta, Op, Cherry, Exchange)}
_CACHES_USED[Handler] = ("_fv", "_nredex", "_typed")
_CACHES_USED[Ann] = ("_fv", "_typed")


@pytest.mark.parametrize("cls", list(_CACHES_USED), ids=lambda cls: cls.__name__)
def test_a_node_keeps_its_size_when_its_caches_are_written(cls):
    # a cache written into a node that had no room for it gave the node
    # a `__dict__`: 327 B a node here; in slots, 72 to 96 B by the number
    # of fields
    build, n = _ONE_OF_EACH[cls], 10_000
    kept: list = [None] * n
    value = {"_fv": frozenset(), "_nredex": 1, "_typed": (object(), {})}
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(n):
            kept[i] = build()
        for node in kept:
            for name in _CACHES_USED[cls]:
                syntax._cache(node, name, value[name])
        # less a few bytes that do not grow with `n`
        per_node = (tracemalloc.get_traced_memory()[0] - before) // n
    finally:
        tracemalloc.stop()
    assert per_node <= 96


# a record that is not a term, and one of each type class
_RECORDS = {
    Step: lambda: Step(Rule.beta, (0,), _C),
    Atom: lambda: A,
    Fun: lambda: Fun(A, A),
    Signature: lambda: Signature((("opa", A, A),)),
    Comp: lambda: Comp(EMPTY_ROW, A),
}


@pytest.mark.parametrize("cls", list(_RECORDS), ids=lambda cls: cls.__name__)
def test_a_record_takes_a_header_and_a_word_per_field(cls):
    # fields in slots and no `__dict__`: on 64-bit CPython, 32 B of
    # headers and 8 B a field
    x = _RECORDS[cls]()
    assert type(x) is cls and not hasattr(x, "__dict__")
    assert sys.getsizeof(x) <= 32 + 8 * len(dataclasses.fields(cls))


def test_no_term_has_a_dict_after_normalizing_checking_and_verifying():
    s = Const("s")
    kept: list = [
        normalize(entry.term(s), strategy, seed=seed)
        for entry in GOLDENS
        for strategy, seed in (("leftmostOutermost", 0), ("randomSeeded", 7))
    ]
    decl = parse_file(shipped_source())
    ctx = decl.context()
    kept += [synthesize(ctx, t) for _, _, t in decl.defs]
    assert verify.subject_reduction(6).ok
    # every term alive now, the lexicon, the goldens and the traces held
    # above among them
    alive = [o for o in gc.get_objects() if type(o) in _ONE_OF_EACH]
    assert len(alive) > 5_000
    assert all(not hasattr(t, "__dict__") for t in alive)


def _one_of_each_cached():
    """One term of each class, and a handler made by `rebuild`, with
    every cache its class uses filled."""
    made = [build() for build in _ONE_OF_EACH.values()]
    made.append(rebuild(_ONE_OF_EACH[Handler](), (Var("h"), Var("e"), Var("n"))))
    for t in made:
        free_vars(t)
        _redexes(t)
        with contextlib.suppress(TypeCheckError):
            synthesize(_CHECKED_IN, t)
    return made


@pytest.mark.parametrize(
    "how",
    [copy.copy, copy.deepcopy, lambda t: pickle.loads(pickle.dumps(t))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_a_copied_term_is_equal_and_starts_uncached(how):
    for t in _one_of_each_cached():
        if children(t):
            assert t._fv is not None
            assert (t._typed is not None) == (type(t) in (Ann, Handler))
        got = how(t)
        assert got == t and got is not t and type(got) is type(t)
        if children(t):
            assert got._fv is None and got._nredex is None and got._typed is None
        else:
            assert not hasattr(got, "_fv")


def test_a_term_stays_frozen():
    for t in _one_of_each_cached():
        field = dataclasses.fields(t)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(t, field, Var("y"))
        with pytest.raises(dataclasses.FrozenInstanceError):
            t._fv = frozenset()
        weakref.ref(t)


@given(terms, st.sampled_from(NAMES))
def test_alpha_eq_after_binder_rename(t, x):
    fresh = fresh_name(x, free_vars(t) | {x})
    renamed = Abs(fresh, subst(t, x, Var(fresh)))
    assert alpha_eq(Abs(x, t), renamed)


@settings(max_examples=300)
@given(terms | redex_terms)
def test_canonical_key_is_the_reference_key(t):
    assert canonical_key(t) == oracle.canonical_key(t)
    # and under a nest of binders that shadow each other
    for x in ("x", "y", "x", "z", "y"):
        t = Op("opa", Var(x), x, Abs(x, t))
    assert canonical_key(t) == oracle.canonical_key(t)


@given(terms)
def test_alpha_eq_reflexive(t):
    assert alpha_eq(t, t)


def _alpha_eq_by_environments(s, t):
    """Reference alpha-equivalence: walks both terms in lockstep, mapping
    each bound name to the depth of its binder; ascriptions ignored."""

    def go(s, t, senv, tenv, depth):
        while isinstance(s, Ann):
            s = s.term
        while isinstance(t, Ann):
            t = t.term
        match s, t:
            case (Var(a), Var(b)):
                if a in senv or b in tenv:
                    return senv.get(a) == tenv.get(b)
                return a == b
            case (Const(a), Const(b)):
                return a == b
            case (Abs(xa, ba), Abs(xb, bb)):
                return go(ba, bb, {**senv, xa: depth}, {**tenv, xb: depth}, depth + 1)
            case (App(fa, aa), App(fb, ab)):
                return go(fa, fb, senv, tenv, depth) and go(aa, ab, senv, tenv, depth)
            case (Eta(a), Eta(b)):
                return go(a, b, senv, tenv, depth)
            case (Op(opa, pa, xa, ca), Op(opb, pb, xb, cb)):
                return (
                    opa == opb
                    and go(pa, pb, senv, tenv, depth)
                    and go(ca, cb, {**senv, xa: depth}, {**tenv, xb: depth}, depth + 1)
                )
            case (Handler(ca, ea, na), Handler(cb, eb, nb)):
                if tuple(n for n, _ in ca) != tuple(n for n, _ in cb):
                    return False
                return (
                    all(go(x, y, senv, tenv, depth) for (_, x), (_, y) in zip(ca, cb))
                    and go(ea, eb, senv, tenv, depth)
                    and go(na, nb, senv, tenv, depth)
                )
            case (Cherry(a), Cherry(b)):
                return go(a, b, senv, tenv, depth)
            case (Exchange(a), Exchange(b)):
                return go(a, b, senv, tenv, depth)
        return False

    return go(s, t, {}, {}, 0)


@given(terms, terms)
def test_canonical_key_matches_alpha_eq(s, t):
    # alpha_eq is defined by canonical keys, so compare the keys with an
    # independent reading of alpha-equivalence
    assert (canonical_key(s) == canonical_key(t)) == _alpha_eq_by_environments(s, t)
    assert alpha_eq(s, t) == _alpha_eq_by_environments(s, t)


@given(terms, st.sampled_from(NAMES))
def test_canonical_key_matches_alpha_eq_on_renamed_terms(t, x):
    fresh = fresh_name(x, free_vars(t) | {x})
    renamed = Abs(fresh, subst(t, x, Var(fresh)))
    assert canonical_key(Abs(x, t)) == canonical_key(renamed)
    assert _alpha_eq_by_environments(Abs(x, t), renamed)


@given(terms)
def test_erase_removes_annotations(t):
    assert erase(Ann(t, A)) == erase(t)
    assert alpha_eq(erase(t), t)


@settings(max_examples=300)
@given(terms | redex_terms, st.integers(0, 4))
def test_erase_from_the_explicit_stack_agrees_with_the_recursion(t, room):
    # below `room` levels the walk goes on from an explicit stack; where
    # it switches must change nothing, and a term without ascriptions
    # comes back itself
    got = fold(t, _unascribed, rebuild, room)
    assert got == erase(t)
    assert all(type(node) is not Ann for node in nodes([got]))
    assert (got is t) == all(type(node) is not Ann for node in nodes([t]))


def _print_from(t, room):
    return fold(t, _enter_print, _leave_print, room)[1]


@settings(max_examples=300)
@given(terms | redex_terms, st.integers(0, 4))
def test_print_term_from_the_explicit_stack_agrees_with_the_recursion(t, room):
    assert _print_from(t, room) == print_term(t)


def test_print_term_from_the_explicit_stack_agrees_on_the_goldens():
    from efflam.fragment import GOLDENS

    for entry in GOLDENS:
        for t in (entry.term(Const("s")), entry.expected):
            assert _print_from(t, 0) == print_term(t)


# --- any depth: the walkers built on the fold ----------------------------------

_DEEP = 10_000


def _nest(wrap, inner, depth=_DEEP):
    for _ in range(depth):
        inner = wrap(inner)
    return inner


_NESTS = {
    "Eta": Eta,
    "Abs": lambda t: Abs("y", t),
    "App": lambda t: App(t, Const("j")),
    "Op": lambda t: Op("op1", Const("j"), "y", t),
    "Handler": lambda t: handler({}, Abs("b", Eta(Var("b"))), t),
    "Ann": lambda t: Ann(t, A),
}


@pytest.mark.parametrize("kind", sorted(_NESTS))
def test_print_erase_and_subst_reach_any_depth(kind):
    x, j = Var("x"), Const("j")
    deep, want = _nest(_NESTS[kind], x), _nest(_NESTS[kind], j)
    got = subst(deep, "x", j)
    assert canonical_key(got) == canonical_key(want)
    assert print_term(got) == print_term(want)
    assert erase(deep) is (x if kind == "Ann" else deep)
    assert erase(want) is (j if kind == "Ann" else want)


def test_the_eta_nest_prints_at_any_depth():
    # an `eta` under an `eta` is parenthesized, at every level
    want = "eta (" * (_DEEP - 1) + "eta j" + ")" * (_DEEP - 1)
    assert print_term(_nest(Eta, Const("j"))) == want


def test_the_d256_ladder_prints():
    from .test_reduce import _ladder

    text = print_term(_ladder(256))
    assert text.count("eta (say x p)") == 256
    assert text == _print_from(_ladder(256), 0)


# --- term shape: children and rebuild ----------------------------------------


def test_children_in_position_order():
    clauses = {"opa": Var("h"), "opb": Var("g")}
    assert children(handler(clauses, Var("e"), Var("n"))) == (
        Var("h"),
        Var("g"),
        Var("e"),
        Var("n"),
    )
    assert children(Op("opa", Var("p"), "x", Var("k"))) == (Var("p"), Var("k"))
    assert children(App(Var("f"), Var("a"))) == (Var("f"), Var("a"))
    assert children(Ann(Var("x"), A)) == (Var("x"),)
    assert children(Var("x")) == () and children(Const("c0")) == ()
    with pytest.raises(TypeError):
        children(A)


def test_rebuild_replaces_children_and_keeps_the_rest():
    h = handler({"opa": Var("h")}, Var("e"), Var("n"))
    got = rebuild(h, (Var("h2"), h.eta_clause, Var("n2")))
    assert got == handler({"opa": Var("h2")}, Var("e"), Var("n2"))
    assert got.eta_clause is h.eta_clause
    assert rebuild(Op("opa", Var("p"), "x", Var("k")), (Const("c0"), Var("x"))) == Op(
        "opa", Const("c0"), "x", Var("x")
    )
    assert rebuild(Ann(Var("x"), A), (Var("y"),)) == Ann(Var("y"), A)


def test_rebuild_does_not_recheck_handler_clause_order(monkeypatch):
    h = handler({"opa": Var("h"), "opb": Var("g")}, Var("e"), Var("n"))
    checks = []
    monkeypatch.setattr(Handler, "__post_init__", lambda self: checks.append(self))
    got = rebuild(h, (Var("h2"), Var("g2"), Var("e2"), Var("n2")))
    assert checks == []
    monkeypatch.undo()
    assert got == Handler(
        (("opa", Var("h2")), ("opb", Var("g2"))), Var("e2"), Var("n2")
    )
    assert hash(got) == hash(handler({"opb": Var("g2"), "opa": Var("h2")}, Var("e2"), Var("n2")))


@given(terms)
def test_rebuild_with_the_same_children_is_the_term_itself(t):
    assert rebuild(t, children(t)) is t
    assert rebuild(t, tuple(children(t))) is t


@given(terms)
def test_rebuild_takes_new_children_in_position_order(t):
    fresh = tuple(Var(f"k{i}") for i in range(len(children(t))))
    got = rebuild(t, fresh)
    assert children(got) == fresh
    assert type(got) is type(t)


# --- signatures -------------------------------------------------------------


def test_signature_union_and_subset():
    s1 = Signature.of({"opa": (A, A)})
    s2 = Signature.of({"opb": (A, B)})
    u = s1.union(s2)
    assert s1.subset_of(u) and s2.subset_of(u)
    assert not u.subset_of(s1)
    assert u.names() == ("opa", "opb")


def test_signature_union_requires_agreement():
    s1 = Signature.of({"opa": (A, A)})
    s2 = Signature.of({"opa": (A, B)})
    with pytest.raises(RowError):
        s1.union(s2)
    assert s1.union(s1) == s1


def test_signature_subset_checks_types():
    s1 = Signature.of({"opa": (A, A)})
    s2 = Signature.of({"opa": (A, B)})
    assert not s1.subset_of(s2)


def test_empty_row():
    assert EMPTY_ROW.is_empty()
    assert EMPTY_ROW.subset_of(Signature.of({"opa": (A, A)}))


def test_a_union_with_an_empty_or_the_same_row_is_an_operand_itself():
    r = Signature.of({"opa": (A, A), "opb": (A, B)})
    assert r.union(EMPTY_ROW) is r
    assert EMPTY_ROW.union(r) is r
    assert r.union(r) is r
    assert EMPTY_ROW.union(Signature()) is EMPTY_ROW
    # rows are interned, so an equal row is the same object
    twin = Signature.of({"opb": (A, B), "opa": (A, A)})
    assert twin is r and r.union(twin) is r


# --- types are interned ------------------------------------------------------


def _spelt_again(t):
    """`t` built again through the constructors from the leaves up, each
    row from a table in reversed order."""
    if type(t) is Fun:
        return Fun(_spelt_again(t.dom), _spelt_again(t.cod))
    if type(t) is Comp:
        table = {name: (_spelt_again(i), _spelt_again(o)) for name, i, o in reversed(t.effects.entries)}
        return Comp(Signature.of(table), _spelt_again(t.value))
    return Atom(t.name)


@given(types)
def test_an_equal_type_is_the_same_object_by_every_route(t):
    ctx = Context.initial({"A", "B"}, {}, OP_TABLE)
    assert _spelt_again(t) is t
    assert parse_type(print_type(t), ctx) is parse_type(print_type(t), ctx) is t
    assert dataclasses.replace(t) is t
    assert copy.copy(t) is t and copy.deepcopy(t) is t
    assert pickle.loads(pickle.dumps(t)) is t


def test_each_type_class_interns_by_every_route():
    row = Signature.of({"opa": (A, A), "opb": (A, B)})
    for t in (A, Fun(A, B), row, Comp(row, A)):
        fields = [getattr(t, f.name) for f in dataclasses.fields(t)]
        assert type(t)(*fields) is t
        assert type(t)(**{f.name: v for f, v in zip(dataclasses.fields(t), fields)}) is t
        assert dataclasses.replace(t) is t
        assert copy.copy(t) is t and copy.deepcopy(t) is t
        assert pickle.loads(pickle.dumps(t)) is t
    assert Signature.of({"opb": (A, B), "opa": (A, A)}) is row
    assert dataclasses.replace(Fun(A, B), cod=A) is Fun(A, A)
    assert dataclasses.replace(Comp(row, A), effects=EMPTY_ROW) is Comp(Signature(), A)
    ctx = Context.initial({"A", "B"}, {}, OP_TABLE)
    assert parse_type("F{opb, opa}(A)", ctx) is parse_type("F{opa, opb}(A)", ctx) is Comp(row, A)
    # and their printed forms are those of the dataclasses they were
    assert repr(Comp(row, A)) == (
        "Comp(effects=Signature(entries=(('opa', Atom(name='A'), Atom(name='A')), "
        "('opb', Atom(name='A'), Atom(name='B')))), value=Atom(name='A'))"
    )


def test_type_equality_is_identity():
    for cls in (Atom, Fun, Comp, Signature):
        assert not {"__eq__", "__hash__", "__post_init__"} & set(vars(cls))
    t = Fun(A, Comp(EMPTY_ROW, B))
    assert t == Fun(A, Comp(Signature(), B)) and hash(t) == object.__hash__(t)
    assert t != Fun(A, Comp(EMPTY_ROW, A))


def test_unsorted_or_repeated_row_entries_are_refused_after_a_valid_row():
    valid = Signature((("opa", A, A), ("opb", A, B)))
    for bad in ((("opb", A, B), ("opa", A, A)), (("opa", A, A), ("opa", A, A))):
        for _ in range(2):
            with pytest.raises(ValueError, match="sorted and distinct"):
                Signature(bad)
        assert (Signature, bad) not in syntax._TYPES
    assert Signature((("opa", A, A), ("opb", A, B))) is valid


def test_size_counts_nodes():
    assert size(Var("x")) == 1
    assert size(Eta(Const("c0"))) == 2
    assert size(Ann(Eta(Const("c0")), Comp(EMPTY_ROW, A))) == 2
    assert size(handler({}, Abs("x", Eta(Var("x"))), Eta(Const("c0")))) == 6
