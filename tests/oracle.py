"""Declarative typing as a bounded search: the oracle for the checker.

An independent reading of the typing rules: subsumption is a rule of
its own, with its own subtyping (`subsumes`, rows read as sets of
entries), and the rules for eliminations guess the cut type from a
finite universe.  The tests check the algorithmic checker against it.

`canonical_key` is the alpha-equivalence key as first written, by
class patterns and a binder map copied at every binder: the reference
for `syntax.canonical_key`.
"""

from __future__ import annotations

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
    Term,
    Type,
    UNIT,
    Var,
    children,
)
from efflam.typecheck import Context
from efflam.verify import _ROWS as ROWS
from efflam.verify import A, B

VALUE_TYPES = (A, B, UNIT, Fun(A, A), Fun(A, B))
UNIVERSE: tuple[Type, ...] = (
    VALUE_TYPES
    + tuple(Comp(row, v) for row in ROWS for v in VALUE_TYPES)
    + tuple(
        Comp(row, Comp(inner, v))
        for row in ROWS
        for inner in (ROWS[0],)
        for v in VALUE_TYPES
    )
    + tuple(Fun(a, Comp(row, b)) for a in (A, B) for row in ROWS for b in (A, B))
)


def subsumes(s: Type, t: Type) -> bool:
    """`s <: t`, declaratively: an atom only below itself, a function
    type below another when its domain is above and its codomain below
    the other's, and a computation type below another when its row's
    entries are among the other's and its value type is below."""
    match s, t:
        case (Atom(a), Atom(b)):
            return a == b
        case (Fun(d1, c1), Fun(d2, c2)):
            return subsumes(d2, d1) and subsumes(c1, c2)
        case (Comp(r1, v1), Comp(r2, v2)):
            return set(r1.entries) <= set(r2.entries) and subsumes(v1, v2)
    return False


def derivable(ctx: Context, t: Term, ty: Type, depth: int = 4) -> bool:
    """Bounded search for a declarative typing derivation of t : ty."""
    if depth < 0:
        return False
    match t:
        case Var(name):
            have = ctx.vars.get(name)
            return have is not None and subsumes(have, ty)
        case Const(name):
            have = ctx.constants.get(name)
            return have is not None and subsumes(have, ty)
        case Ann(inner, stated):
            return subsumes(stated, ty) and derivable(ctx, inner, stated, depth - 1)
        case Abs(binder, body):
            if not isinstance(ty, Fun):
                return False
            return derivable(ctx.bind(binder, ty.dom), body, ty.cod, depth - 1)
        case App(fn, arg):
            return any(
                derivable(ctx, fn, Fun(cut, ty), depth - 1)
                and derivable(ctx, arg, cut, depth - 1)
                for cut in UNIVERSE
            )
        case Eta(value):
            return isinstance(ty, Comp) and derivable(ctx, value, ty.value, depth - 1)
        case Op(op, param, binder, cont):
            if not isinstance(ty, Comp):
                return False
            entry = ty.effects.get(op)
            if entry is None or entry != ctx.operations.get(op):
                return False
            return derivable(ctx, param, entry[0], depth - 1) and derivable(
                ctx.bind(binder, entry[1]), cont, ty, depth - 1
            )
        case Cherry(comp):
            return derivable(ctx, comp, Comp(EMPTY_ROW, ty), depth - 1)
        case Exchange(fn):
            if not (isinstance(ty, Comp) and isinstance(ty.value, Fun)):
                return False
            inner = Fun(ty.value.dom, Comp(ty.effects, ty.value.cod))
            return derivable(ctx, fn, inner, depth - 1)
        case Handler(clauses, eta_clause, scrutinee):
            if not isinstance(ty, Comp):
                return False
            handled = {name for name, _ in clauses}
            for cut in UNIVERSE:
                if not isinstance(cut, Comp):
                    continue
                if not cut.effects.without(handled).subset_of(ty.effects):
                    continue
                if not derivable(ctx, scrutinee, cut, depth - 1):
                    continue
                if not derivable(ctx, eta_clause, Fun(cut.value, ty), depth - 1):
                    continue
                if all(
                    derivable(
                        ctx,
                        clause,
                        Fun(
                            ctx.operations.get(name)[0],
                            Fun(Fun(ctx.operations.get(name)[1], ty), ty),
                        ),
                        depth - 1,
                    )
                    for name, clause in clauses
                    if ctx.operations.get(name) is not None
                ) and all(ctx.operations.get(name) is not None for name, _ in clauses):
                    return True
            return False
    return False


def canonical_key(t: Term) -> str:
    """`syntax.canonical_key`'s serialization: bound variables as
    binder-depth indices, ascriptions ignored."""
    parts: list[str] = []
    _key(t, {}, 0, parts)
    return "".join(parts)


def _key(t: Term, env: dict[str, int], depth: int, parts: list[str]) -> None:
    while isinstance(t, Ann):
        t = t.term
    match t:
        case Var(name):
            if name in env:
                parts.append(f"#{depth - 1 - env[name]}")
            else:
                parts.append(f"${name}")
        case Const(name):
            parts.append(f"!{name}")
        case Abs(binder, body):
            parts.append("(\\")
            _key(body, {**env, binder: depth}, depth + 1, parts)
            parts.append(")")
        case Op(op, param, binder, cont):
            parts.append(f"(do {op} ")
            _key(param, env, depth, parts)
            parts.append(" .")
            _key(cont, {**env, binder: depth}, depth + 1, parts)
            parts.append(")")
        case _:
            # a handler's clause names are part of its shape
            parts.append(f"({type(t).__name__}")
            if isinstance(t, Handler):
                parts.append("".join(f" {name}=" for name, _ in t.clauses))
            for child in children(t):
                parts.append(" ")
                _key(child, env, depth, parts)
            parts.append(")")
