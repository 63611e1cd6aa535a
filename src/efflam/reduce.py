"""Small-step reduction: the eight rules, strategies, traces.

Reduction is untyped and total as a relation: `reducts` enumerates every
redex of any term, well-typed or not.  Normalization is fuel-bounded and
reports one of three outcomes: a normal form, a stuck term (a commute
whose operation parameter captures the commuted binder, or an extraction
whose computation is suspended on an operation), or fuel exhaustion.

Type ascriptions never block a rule: matching looks through them, and a
contraction keeps the ascription of the position it rewrites, so traces
of annotated terms stay checkable step by step.  Positions are child
index paths that skip ascription nodes.

A leftmost-outermost step costs work near the redex, not work in the
size of the whole term: contraction rebuilds only the nodes on the
redex's path (substitution shares every subterm it leaves unchanged),
and the search for the next redex resumes where the last one was
contracted.  It relies on one invariant: everything to the left of the
contracted path is unchanged by the step and was already found free of
redexes.  So only the ancestors on the path, the new subterm at it, and
the subterms to its right are visited; the next step costs the path
length plus the part of the term searched before its redex is found.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum

from .syntax import (
    Abs,
    Ann,
    App,
    Cherry,
    Comp,
    Eta,
    Exchange,
    Fun,
    Handler,
    Op,
    Term,
    Var,
    alpha_eq,
    canonical_key,
    free_vars,
    fresh_name,
    subst,
)

Path = tuple[int, ...]


class Rule(str, Enum):
    beta = "beta"
    eta = "eta"
    bananaEta = "bananaEta"
    bananaOp = "bananaOp"
    bananaOpForward = "bananaOpForward"
    cherry = "cherry"
    cEta = "cEta"
    cOp = "cOp"


@dataclass(frozen=True)
class Step:
    rule: Rule
    path: Path
    term: Term


@dataclass(frozen=True)
class NormalForm:
    pass


@dataclass(frozen=True)
class Stuck:
    path: Path
    reason: str


@dataclass(frozen=True)
class FuelExhausted:
    pass


Outcome = NormalForm | Stuck | FuelExhausted


@dataclass
class ReductionTrace:
    initial: Term
    steps: list[Step]
    outcome: Outcome
    final: Term


class ConfluenceError(Exception):
    """Exhaustive checking found two distinct normal forms."""


def _strip(t: Term) -> Term:
    while isinstance(t, Ann):
        t = t.term
    return t


def _peel(t: Term) -> tuple[list, Term]:
    """Ascription types outermost-first, and the term under them."""
    tys = []
    while isinstance(t, Ann):
        tys.append(t.ty)
        t = t.term
    return tys, t


def _rewrap(tys: list, t: Term) -> Term:
    for ty in reversed(tys):
        t = Ann(t, ty)
    return t


def _children(s: Term) -> list[Term]:
    """Children of an ascription-free node, in position order."""
    match s:
        case Abs(_, body):
            return [body]
        case App(fn, arg):
            return [fn, arg]
        case Eta(value):
            return [value]
        case Op(_, param, _, cont):
            return [param, cont]
        case Handler(clauses, eta_clause, scrutinee):
            return [c for _, c in clauses] + [eta_clause, scrutinee]
        case Cherry(comp):
            return [comp]
        case Exchange(fn):
            return [fn]
        case _:
            return []


def _with_child(s: Term, i: int, new: Term) -> Term:
    match s:
        case Abs(binder, _) if i == 0:
            return Abs(binder, new)
        case App(fn, arg):
            return App(new, arg) if i == 0 else App(fn, new)
        case Eta(_) if i == 0:
            return Eta(new)
        case Op(op, param, binder, cont):
            if i == 0:
                return Op(op, new, binder, cont)
            return Op(op, param, binder, new)
        case Handler(clauses, eta_clause, scrutinee):
            n = len(clauses)
            if i < n:
                updated = tuple(
                    (name, new if j == i else c) for j, (name, c) in enumerate(clauses)
                )
                return Handler(updated, eta_clause, scrutinee)
            if i == n:
                return Handler(clauses, new, scrutinee)
            return Handler(clauses, eta_clause, new)
        case Cherry(_) if i == 0:
            return Cherry(new)
        case Exchange(_) if i == 0:
            return Exchange(new)
    raise IndexError(f"no child {i} at {s!r}")


def subterm_at(t: Term, path: Path) -> Term:
    for i in path:
        t = _children(_strip(t))[i]
    return t


# ---------------------------------------------------------------------------
# Redex recognition and contraction


def _rule_at(s: Term) -> Rule | None:
    """The rule contracting the ascription-free node `s`, if any."""
    match s:
        case App(fn, _) if isinstance(_strip(fn), Abs):
            return Rule.beta
        case Abs(binder, body):
            match _strip(body):
                case App(fn, arg) if isinstance(_strip(arg), Var) and _strip(
                    arg
                ).name == binder and binder not in free_vars(fn):
                    return Rule.eta
            return None
        case Handler(clauses, _, scrutinee):
            match _strip(scrutinee):
                case Eta(_):
                    return Rule.bananaEta
                case Op(op, _, _, _):
                    handled = any(op == name for name, _ in clauses)
                    return Rule.bananaOp if handled else Rule.bananaOpForward
            return None
        case Cherry(comp):
            return Rule.cherry if isinstance(_strip(comp), Eta) else None
        case Exchange(fn):
            match _strip(fn):
                case Abs(binder, body):
                    match _strip(body):
                        case Eta(_):
                            return Rule.cEta
                        case Op(_, param, _, _) if binder not in free_vars(param):
                            return Rule.cOp
            return None
    return None


def _commute_ann(fn_anns: list) -> tuple[list, object | None]:
    """Split a commuted function's ascriptions into (discarded, innermost usable)."""
    for ty in reversed(fn_anns):
        if isinstance(ty, Fun) and isinstance(ty.cod, Comp):
            return fn_anns, ty
    return fn_anns, None


def _contract(s: Term, rule: Rule) -> Term:
    """Contract the ascription-free redex `s` by `rule`."""
    match rule:
        case Rule.beta:
            assert isinstance(s, App)
            fn_anns, lam = _peel(s.fn)
            assert isinstance(lam, Abs)
            contractum = subst(lam.body, lam.binder, s.arg)
            for ty in reversed(fn_anns):
                if isinstance(ty, Fun):
                    return Ann(contractum, ty.cod)
            return contractum
        case Rule.eta:
            assert isinstance(s, Abs)
            body = _strip(s.body)
            assert isinstance(body, App)
            return body.fn
        case Rule.bananaEta:
            assert isinstance(s, Handler)
            injected = _strip(s.scrutinee)
            assert isinstance(injected, Eta)
            return App(s.eta_clause, injected.value)
        case Rule.bananaOp | Rule.bananaOpForward:
            assert isinstance(s, Handler)
            call = _strip(s.scrutinee)
            assert isinstance(call, Op)
            binder, cont = call.binder, call.cont
            clause_fv = free_vars(s.eta_clause)
            for _, clause in s.clauses:
                clause_fv |= free_vars(clause)
            if binder in clause_fv:
                renamed = fresh_name(binder, clause_fv | free_vars(cont) | {binder})
                cont = subst(cont, binder, Var(renamed))
                binder = renamed
            pushed = Handler(s.clauses, s.eta_clause, cont)
            if rule is Rule.bananaOp:
                clause = s.clause_for(call.op)
                assert clause is not None
                return App(App(clause, call.param), Abs(binder, pushed))
            return Op(call.op, call.param, binder, pushed)
        case Rule.cherry:
            assert isinstance(s, Cherry)
            injected = _strip(s.comp)
            assert isinstance(injected, Eta)
            return injected.value
        case Rule.cEta:
            assert isinstance(s, Exchange)
            fn_anns, lam = _peel(s.fn)
            assert isinstance(lam, Abs)
            injected = _strip(lam.body)
            assert isinstance(injected, Eta)
            _, usable = _commute_ann(fn_anns)
            result_fn = Abs(lam.binder, injected.value)
            if usable is not None:
                result_fn = Ann(result_fn, Fun(usable.dom, usable.cod.value))
            return Eta(result_fn)
        case Rule.cOp:
            assert isinstance(s, Exchange)
            fn_anns, lam = _peel(s.fn)
            assert isinstance(lam, Abs)
            call = _strip(lam.body)
            assert isinstance(call, Op)
            binder, cont = call.binder, call.cont
            if binder == lam.binder:
                renamed = fresh_name(binder, free_vars(cont) | {binder, lam.binder})
                cont = subst(cont, binder, Var(renamed))
                binder = renamed
            _, usable = _commute_ann(fn_anns)
            inner_fn: Term = Abs(lam.binder, cont)
            if usable is not None:
                inner_fn = Ann(inner_fn, usable)
            return Op(call.op, call.param, binder, Exchange(inner_fn))
    raise AssertionError(f"unhandled rule {rule}")


def candidates(t: Term) -> list[tuple[Rule, Path]]:
    """Every redex of `t` as (rule, position), leftmost-outermost first."""
    found: list[tuple[Rule, Path]] = []

    def walk(t: Term, path: Path) -> None:
        s = _strip(t)
        rule = _rule_at(s)
        if rule is not None:
            found.append((rule, path))
        for i, child in enumerate(_children(s)):
            walk(child, path + (i,))

    walk(t, ())
    return found


def _next_redex(t: Term, path: Path) -> tuple[Rule, Path] | None:
    """The leftmost-outermost redex of `t`, resuming after a step at `path`.

    Assumes every node before `path` in leftmost-outermost order (its
    ancestors and everything to its left) was no redex before that step.
    The nodes to the left are unchanged by it, so they are not visited
    again.  The ancestors are re-checked, root first, since the new
    subterm can make one of them a redex; then the subterm at `path` is
    searched, then the right siblings of each ancestor, deepest first.
    With `path == ()` this is a search of the whole term.
    """
    # subterms still to search, the next one on top; the right siblings
    # of each ancestor go below those of its descendants
    stack: list[tuple[Term, Path]] = []
    s = _strip(t)
    for depth, i in enumerate(path):
        rule = _rule_at(s)
        if rule is not None:
            return rule, path[:depth]
        kids = _children(s)
        for j in range(len(kids) - 1, i, -1):
            stack.append((kids[j], path[:depth] + (j,)))
        s = _strip(kids[i])
    stack.append((s, path))
    # the hot loop of normalization, hence the bound methods and the
    # inlined `_strip`
    pop, push = stack.pop, stack.append
    while stack:
        s, at = pop()
        while isinstance(s, Ann):
            s = s.term
        rule = _rule_at(s)
        if rule is not None:
            return rule, at
        kids = _children(s)
        i = len(kids)
        while i:
            i -= 1
            push((kids[i], at + (i,)))
    return None


def contract_at(t: Term, path: Path, rule: Rule) -> Term:
    """One step: contract the redex at `path`, keeping its ascriptions.

    Only the nodes on `path` are rebuilt; every other subterm is shared
    with `t`.
    """
    spine = []
    for i in path:
        tys, s = _peel(t)
        spine.append((tys, s, i))
        t = _children(s)[i]
    tys, s = _peel(t)
    t = _rewrap(tys, _contract(s, rule))
    for tys, s, i in reversed(spine):
        t = _rewrap(tys, _with_child(s, i, t))
    return t


def reducts(t: Term) -> list[tuple[Rule, Path, Term]]:
    """All one-step reducts of `t`."""
    return [(rule, path, contract_at(t, path, rule)) for rule, path in candidates(t)]


def blocked_at(t: Term) -> tuple[Path, str] | None:
    """First blocked extraction or commute in `t`, if any."""

    def walk(t: Term, path: Path) -> tuple[Path, str] | None:
        s = _strip(t)
        match s:
            case Exchange(fn):
                match _strip(fn):
                    case Abs(binder, body):
                        match _strip(body):
                            case Op(op, param, _, _) if binder in free_vars(param):
                                return (
                                    path,
                                    f"commute is stuck: the parameter of operation "
                                    f"{op} mentions the commuted variable {binder}",
                                )
            case Cherry(comp):
                match _strip(comp):
                    case Op(op, _, _, _):
                        return (
                            path,
                            f"extract is stuck: the computation performs operation {op}",
                        )
        for i, child in enumerate(_children(s)):
            hit = walk(child, path + (i,))
            if hit is not None:
                return hit
        return None

    return walk(t, ())


# ---------------------------------------------------------------------------
# Strategies


def normalize(
    t: Term,
    strategy: str = "leftmostOutermost",
    fuel: int = 100_000,
    seed: int = 0,
    record_steps: bool = True,
) -> ReductionTrace:
    """Reduce to an outcome under a strategy.

    Strategies: leftmostOutermost (deterministic default), randomSeeded
    (uniform redex choice from `seed`), exhaustiveCheck (explores every
    reduction order within the fuel budget and insists on one normal
    form, raising ConfluenceError otherwise).
    """
    if strategy == "exhaustiveCheck":
        return _exhaustive_check(t, fuel)
    if strategy not in ("leftmostOutermost", "randomSeeded"):
        raise ValueError(f"unknown strategy {strategy!r}")
    rng = random.Random(seed) if strategy == "randomSeeded" else None

    steps: list[Step] = []
    current = t
    path: Path = ()
    for _ in range(fuel):
        if rng is None:
            hit = _next_redex(current, path)
        else:
            cands = candidates(current)
            hit = rng.choice(cands) if cands else None
        if hit is None:
            stuck = blocked_at(current)
            outcome = Stuck(*stuck) if stuck else NormalForm()
            return ReductionTrace(t, steps, outcome, current)
        rule, path = hit
        current = contract_at(current, path, rule)
        if record_steps:
            steps.append(Step(rule, path, current))
    return ReductionTrace(t, steps, FuelExhausted(), current)


def _exhaustive_check(t: Term, fuel: int) -> ReductionTrace:
    seen = {canonical_key(t): t}
    frontier = [t]
    normals: list[Term] = []
    while frontier:
        current = frontier.pop()
        nexts = reducts(current)
        if not nexts:
            if not any(alpha_eq(current, n) for n in normals):
                normals.append(current)
            continue
        for _, _, reduced in nexts:
            key = canonical_key(reduced)
            if key not in seen:
                if len(seen) >= fuel:
                    return ReductionTrace(t, [], FuelExhausted(), current)
                seen[key] = reduced
                frontier.append(reduced)
    if len(normals) > 1:
        raise ConfluenceError(f"{len(normals)} distinct normal forms reached")
    return normalize(t, "leftmostOutermost", fuel)
