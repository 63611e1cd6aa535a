"""Shared hypothesis strategies for randomly shaped (untyped) terms and
types, a fixture that counts free-variable cache fills, and a copier of
terms that starts their per-node caches afresh."""

from __future__ import annotations

import hypothesis.strategies as st
import pytest

from efflam import syntax
from efflam.syntax import (
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
    Signature,
    Var,
    children,
    rebuild,
)

NAMES = ["x", "y", "z", "u"]
OPS = ["opa", "opb"]
CONSTS = ["c0", "c1"]

A = Atom("A")
B = Atom("B")

OP_TABLE = Signature.of({"opa": (A, A), "opb": (A, B)})

_rows = st.sets(st.sampled_from(OPS)).map(
    lambda names: Signature.of({name: OP_TABLE.get(name) for name in names})
)

_leaf_types = st.sampled_from([A, B])


def _compound_types(children: st.SearchStrategy) -> st.SearchStrategy:
    return st.one_of(
        st.builds(Fun, children, children),
        st.builds(Comp, _rows, children),
    )


types = st.recursive(_leaf_types, _compound_types, max_leaves=6)

leaf_terms = st.one_of(
    st.sampled_from(NAMES).map(Var),
    st.sampled_from(CONSTS).map(Const),
)


def _compound(children: st.SearchStrategy) -> st.SearchStrategy:
    return st.one_of(
        st.builds(Abs, st.sampled_from(NAMES), children),
        st.builds(App, children, children),
        st.builds(Eta, children),
        st.builds(Op, st.sampled_from(OPS), children, st.sampled_from(NAMES), children),
        st.builds(Cherry, children),
        st.builds(Exchange, children),
        st.builds(
            lambda pairs, eta_clause, scrutinee: Handler(
                tuple(sorted(dict(pairs).items())), eta_clause, scrutinee
            ),
            st.lists(st.tuples(st.sampled_from(OPS), children), max_size=2),
            children,
            children,
        ),
    )


terms = st.recursive(leaf_terms, _compound, max_leaves=12)


def _rule_shapes(kids):
    """The left-hand side of each rule, a stuck extraction and commute,
    and an ascription, over arbitrary subterms: random terms rarely hold
    a redex inside another."""
    name, op = st.sampled_from(NAMES), st.sampled_from(OPS)
    clauses = st.lists(st.tuples(op, kids), max_size=2).map(
        lambda pairs: tuple(sorted(dict(pairs).items()))
    )
    call = st.builds(Op, op, kids, name, kids)
    return st.one_of(
        st.builds(lambda x, body, arg: App(Abs(x, body), arg), name, kids, kids),
        st.builds(lambda x, fn: Abs(x, App(fn, Var(x))), name, kids),
        st.builds(Handler, clauses, kids, kids.map(Eta) | call),
        st.builds(Cherry, kids.map(Eta) | call),
        st.builds(lambda x, body: Exchange(Abs(x, body)), name, kids.map(Eta) | call),
        st.builds(Ann, kids, types),
    )


redex_terms = st.recursive(
    leaf_terms, lambda kids: _compound(kids) | _rule_shapes(kids), max_leaves=12
)


@pytest.fixture
def free_var_fills(monkeypatch):
    """A function giving the number of nodes whose free variables
    `free_vars` has computed and cached since the fixture was made.

    Terms shared between tests (goldens, the lexicon, hypothesis
    examples) may be cached already: count on freshly built terms."""
    filled = 0
    cache = syntax._cache

    def counted(t, key, value):
        nonlocal filled
        # other per-node caches are written through `_cache` too
        if key == "_fv":
            filled += 1
        cache(t, key, value)

    monkeypatch.setattr(syntax, "_cache", counted)
    return lambda: filled


def fresh_copy(t):
    """A structural copy of `t` that shares no node with it, so none of
    its per-node caches is filled yet."""
    kids = children(t)
    if not kids:
        return type(t)(t.name)
    return rebuild(t, [fresh_copy(kid) for kid in kids])
