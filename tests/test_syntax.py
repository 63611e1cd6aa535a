"""Term syntax: free variables, substitution, alpha-equivalence."""

from __future__ import annotations

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
    EMPTY_ROW,
    Eta,
    Exchange,
    Handler,
    Op,
    RowError,
    Signature,
    Var,
    alpha_eq,
    canonical_key,
    children,
    erase,
    free_vars,
    fresh_name,
    handler,
    rebuild,
    size,
    subst,
)
from .conftest import NAMES, terms

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


@given(terms, st.sampled_from(NAMES))
def test_alpha_eq_after_binder_rename(t, x):
    fresh = fresh_name(x, free_vars(t) | {x})
    renamed = Abs(fresh, subst(t, x, Var(fresh)))
    assert alpha_eq(Abs(x, t), renamed)


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
    u = s1.disjoint_union(s2)
    assert s1.subset_of(u) and s2.subset_of(u)
    assert not u.subset_of(s1)
    assert u.names() == ("opa", "opb")


def test_signature_disjoint_union_collision():
    s1 = Signature.of({"opa": (A, A)})
    with pytest.raises(RowError):
        s1.disjoint_union(s1)


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


def test_size_counts_nodes():
    assert size(Var("x")) == 1
    assert size(Eta(Const("c0"))) == 2
    assert size(Ann(Eta(Const("c0")), Comp(EMPTY_ROW, A))) == 2
    assert size(handler({}, Abs("x", Eta(Var("x"))), Eta(Const("c0")))) == 6
