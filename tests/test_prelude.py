"""Sequencing and lifting combinators."""

from __future__ import annotations

from efflam.prelude import (
    apply_both,
    apply_left,
    apply_right,
    bind,
    eta_identity,
    lift_binary,
)
from efflam.reduce import NormalForm, normalize
from efflam.surface import parse_file, parse_term
from efflam.syntax import (
    Abs,
    App,
    Const,
    Eta,
    Handler,
    Op,
    Var,
    alpha_eq,
    free_vars,
)

DECLS = """
atom iota. atom o.
const j : iota. const m : iota.
const love : iota -> iota -> o.
operation speaker : 1 ~> iota.
operation implicate : o ~> 1.
def me := do speaker(*, \\x. eta x).
"""

ENV = parse_file(DECLS).context()


def t(src: str):
    return parse_term(src, ENV)


def nf(term):
    trace = normalize(term)
    assert isinstance(trace.outcome, NormalForm)
    return trace.final


def test_bind_is_a_clauseless_handler():
    k = Abs("x", Eta(Var("x")))
    assert bind(Const("j"), k) == Handler((), k, Const("j"))


def test_eta_identity_shape():
    assert alpha_eq(eta_identity(), Abs("v", Eta(Var("v"))))


def test_apply_right_shape():
    got = apply_right(t("eta love"), Const("j"))
    assert alpha_eq(got, t("eta love >>= \\f. eta (f j)"))


def test_apply_left_shape():
    got = apply_left(Const("love"), t("eta j"))
    assert alpha_eq(got, t("eta j >>= \\x. eta (love x)"))


def test_lifting_avoids_capturing_free_variables():
    # the lifted argument mentions the name the combinator would bind
    got = apply_right(t("eta love"), Var("f"))
    binder = got.eta_clause.binder
    assert binder != "f" and "f" in free_vars(got)


def test_apply_both_sequences_left_then_right():
    mf = Op("speaker", Const("*"), "u", Eta(Const("love")))
    mx = Op("implicate", t("love j j"), "u", Eta(Const("j")))
    final = nf(apply_both(mf, mx))
    # the left computation's operation ends up outermost
    assert isinstance(final, Op) and final.op == "speaker"
    inner = final.cont
    assert isinstance(inner, Op) and inner.op == "implicate"
    assert alpha_eq(inner.cont, Eta(App(Const("love"), Const("j"))))


def test_lift_binary_on_pure_arguments():
    got = nf(lift_binary("love", t("eta j"), t("eta m")))
    assert alpha_eq(got, t("eta (love j m)"))


def test_left_identity_law():
    k = t("\\x. eta (love x x)")
    assert alpha_eq(nf(bind(t("eta j"), k)), nf(App(k, Const("j"))))


def test_right_identity_law():
    m = t("me")
    assert alpha_eq(nf(bind(m, eta_identity())), nf(m))


def test_associativity_law():
    m = t("me")
    k = t("\\x. eta (love x)")
    h = t("\\g. eta (g j)")
    lhs = bind(bind(m, k), h)
    rhs = bind(m, Abs("x", bind(App(k, Var("x")), h)))
    assert alpha_eq(nf(lhs), nf(rhs))
