"""Terms and types of a lambda calculus with algebraic effects and handlers.

Terms are immutable trees.  Binders are named; capture is avoided by
renaming with primes, so fresh names depend only on the terms involved
and never on global state.  Alpha-equivalence is the semantic notion of
term identity everywhere; structural equality (`==`) is only incidental.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union


# ---------------------------------------------------------------------------
# Types


@dataclass(frozen=True)
class Atom:
    """Atomic type, named by a declared atom (the unit type is Atom("1"))."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Fun:
    """Function type dom -> cod."""

    dom: "Type"
    cod: "Type"

    def __str__(self) -> str:
        from .surface import print_type

        return print_type(self)


class RowError(Exception):
    """A signature union was asked to merge colliding operation names."""


@dataclass(frozen=True)
class Signature:
    """Finite map from operation names to (input, output) type pairs.

    Entries are kept sorted by name, so two signatures are equal exactly
    when they declare the same operations at the same types.
    """

    entries: tuple[tuple[str, "Type", "Type"], ...] = ()

    def __post_init__(self) -> None:
        names = [name for name, _, _ in self.entries]
        if names != sorted(names) or len(set(names)) != len(names):
            raise ValueError("signature entries must be sorted and distinct")

    @staticmethod
    def of(table: dict[str, tuple["Type", "Type"]]) -> "Signature":
        return Signature(tuple((n, i, o) for n, (i, o) in sorted(table.items())))

    def names(self) -> tuple[str, ...]:
        return tuple(name for name, _, _ in self.entries)

    def get(self, op: str) -> tuple["Type", "Type"] | None:
        for name, inp, out in self.entries:
            if name == op:
                return (inp, out)
        return None

    def __contains__(self, op: str) -> bool:
        return self.get(op) is not None

    def __iter__(self) -> Iterator[tuple[str, "Type", "Type"]]:
        return iter(self.entries)

    def is_empty(self) -> bool:
        return not self.entries

    def subset_of(self, other: "Signature") -> bool:
        """True when every entry here appears in `other` at the same types."""
        return all(other.get(name) == (inp, out) for name, inp, out in self.entries)

    def union(self, other: "Signature") -> "Signature":
        """Union of two signatures that agree on shared names."""
        table = {name: (inp, out) for name, inp, out in self.entries}
        for name, inp, out in other.entries:
            if name in table and table[name] != (inp, out):
                raise RowError(f"operation {name} declared at two different types")
            table[name] = (inp, out)
        return Signature.of(table)

    def disjoint_union(self, other: "Signature") -> "Signature":
        """Union that rejects any shared operation name."""
        shared = set(self.names()) & set(other.names())
        if shared:
            raise RowError(f"operation rows overlap on {', '.join(sorted(shared))}")
        return self.union(other)

    def without(self, ops: set[str]) -> "Signature":
        return Signature(tuple(e for e in self.entries if e[0] not in ops))


EMPTY_ROW = Signature()


@dataclass(frozen=True)
class Comp:
    """Computation type: a value type under an effect row."""

    effects: Signature
    value: "Type"

    def __str__(self) -> str:
        from .surface import print_type

        return print_type(self)


Type = Union[Atom, Fun, Comp]

UNIT = Atom("1")


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    name: str


@dataclass(frozen=True)
class Abs:
    binder: str
    body: "Term"


@dataclass(frozen=True)
class App:
    fn: "Term"
    arg: "Term"


@dataclass(frozen=True)
class Eta:
    """Injection of a value as a trivial computation."""

    value: "Term"


@dataclass(frozen=True)
class Op:
    """Operation call: parameter, then a continuation with one binder.

    The binder scopes over the continuation only, never the parameter.
    """

    op: str
    param: "Term"
    binder: str
    cont: "Term"


@dataclass(frozen=True)
class Handler:
    """Handler applied to a scrutinee computation.

    `clauses` maps handled operation names to clause terms and is kept
    sorted by name; the eta clause interprets injected values.
    """

    clauses: tuple[tuple[str, "Term"], ...]
    eta_clause: "Term"
    scrutinee: "Term"

    def __post_init__(self) -> None:
        names = [name for name, _ in self.clauses]
        if names != sorted(names):
            raise ValueError("handler clauses must be sorted by operation name")
        if len(set(names)) != len(names):
            raise ValueError("duplicate handler clause for one operation")

    def clause_for(self, op: str) -> "Term | None":
        for name, term in self.clauses:
            if name == op:
                return term
        return None


def handler(clauses: dict[str, "Term"], eta_clause: "Term", scrutinee: "Term") -> Handler:
    """Build a Handler from an unsorted clause table."""
    return Handler(tuple(sorted(clauses.items())), eta_clause, scrutinee)


@dataclass(frozen=True)
class Cherry:
    """Extraction of the value of an effect-free computation."""

    comp: "Term"


@dataclass(frozen=True)
class Exchange:
    """Commutes a function with the computation it returns."""

    fn: "Term"


@dataclass(frozen=True)
class Ann:
    """Type ascription.  Guides the checker; erased before reduction."""

    term: "Term"
    ty: Type


Term = Union[Var, Const, Abs, App, Eta, Op, Handler, Cherry, Exchange, Ann]


# ---------------------------------------------------------------------------
# Free variables, substitution, alpha-equivalence


def free_vars(t: Term) -> frozenset[str]:
    match t:
        case Var(name):
            return frozenset((name,))
        case Const(_):
            return frozenset()
        case Abs(binder, body):
            return free_vars(body) - {binder}
        case App(fn, arg):
            return free_vars(fn) | free_vars(arg)
        case Eta(value):
            return free_vars(value)
        case Op(_, param, binder, cont):
            return free_vars(param) | (free_vars(cont) - {binder})
        case Handler(clauses, eta_clause, scrutinee):
            acc = free_vars(eta_clause) | free_vars(scrutinee)
            for _, clause in clauses:
                acc |= free_vars(clause)
            return acc
        case Cherry(comp):
            return free_vars(comp)
        case Exchange(fn):
            return free_vars(fn)
        case Ann(term, _):
            return free_vars(term)
    raise TypeError(f"not a term: {t!r}")


def fresh_name(base: str, avoid: frozenset[str] | set[str]) -> str:
    """First primed variant of `base` not in `avoid`.

    Depends only on its arguments, so renaming is reproducible.
    """
    name = base
    while name in avoid:
        name += "'"
    return name


def subst(t: Term, name: str, repl: Term) -> Term:
    """Capture-avoiding substitution of `repl` for free `name` in `t`.

    Identity is preserved: a subterm in which `name` does not occur free
    comes back as the very same object, and a node is rebuilt only when
    one of its children changed.  So `subst(t, name, repl) is t` when
    `name` is not free in `t`, and a result shares every untouched
    subterm with `t`.  The walk itself finds the occurrences; free
    variables are computed only for `repl` (once, when an occurrence is
    found under a binder) and for the body of a binder that `repl`
    mentions, to decide whether that binder must be renamed.
    """
    repl_fv: frozenset[str] | None = None

    def under(binder: str, body: Term) -> tuple[str, Term]:
        # the binder and body after substituting in the body; the same
        # objects when `name` is not free there
        nonlocal repl_fv
        if binder == name:
            return binder, body
        if repl_fv is None:
            # `repl`'s free variables are needed only once an occurrence
            # is found under a binder: substitute first, and redo the body
            # renamed if `binder` would capture; a binder is redone at
            # most once, since later ones know `repl_fv` up front
            body2 = go(body)
            if body2 is body:
                return binder, body
            if repl_fv is None:
                repl_fv = free_vars(repl)
            if binder not in repl_fv:
                return binder, body2
        elif binder not in repl_fv:
            return binder, go(body)
        body_fv = free_vars(body)
        if name not in body_fv:
            return binder, body
        renamed = fresh_name(binder, repl_fv | body_fv | {name})
        return renamed, go(subst(body, binder, Var(renamed)))

    def go(t: Term) -> Term:
        match t:
            case Var(n):
                return repl if n == name else t
            case Const(_):
                return t
            case Abs(binder, body):
                binder2, body2 = under(binder, body)
                return t if body2 is body else Abs(binder2, body2)
            case App(fn, arg):
                fn2, arg2 = go(fn), go(arg)
                return t if fn2 is fn and arg2 is arg else App(fn2, arg2)
            case Eta(value):
                value2 = go(value)
                return t if value2 is value else Eta(value2)
            case Op(op, param, binder, cont):
                param2 = go(param)
                binder2, cont2 = under(binder, cont)
                if param2 is param and cont2 is cont:
                    return t
                return Op(op, param2, binder2, cont2)
            case Handler(clauses, eta_clause, scrutinee):
                clauses2 = tuple((n, go(c)) for n, c in clauses)
                eta2, scrutinee2 = go(eta_clause), go(scrutinee)
                if (
                    eta2 is eta_clause
                    and scrutinee2 is scrutinee
                    and all(c2 is c for (_, c), (_, c2) in zip(clauses, clauses2))
                ):
                    return t
                return Handler(clauses2, eta2, scrutinee2)
            case Cherry(comp):
                comp2 = go(comp)
                return t if comp2 is comp else Cherry(comp2)
            case Exchange(fn):
                fn2 = go(fn)
                return t if fn2 is fn else Exchange(fn2)
            case Ann(term, ty):
                term2 = go(term)
                return t if term2 is term else Ann(term2, ty)
        raise TypeError(f"not a term: {t!r}")

    return go(t)


def erase(t: Term) -> Term:
    """Strip every type ascription."""
    match t:
        case Var(_) | Const(_):
            return t
        case Abs(binder, body):
            return Abs(binder, erase(body))
        case App(fn, arg):
            return App(erase(fn), erase(arg))
        case Eta(value):
            return Eta(erase(value))
        case Op(op, param, binder, cont):
            return Op(op, erase(param), binder, erase(cont))
        case Handler(clauses, eta_clause, scrutinee):
            return Handler(
                tuple((n, erase(c)) for n, c in clauses),
                erase(eta_clause),
                erase(scrutinee),
            )
        case Cherry(comp):
            return Cherry(erase(comp))
        case Exchange(fn):
            return Exchange(erase(fn))
        case Ann(term, _):
            return erase(term)
    raise TypeError(f"not a term: {t!r}")


def alpha_eq(s: Term, t: Term) -> bool:
    """Alpha-equivalence; type ascriptions are ignored on both sides."""

    def go(s: Term, t: Term, senv: dict[str, int], tenv: dict[str, int], depth: int) -> bool:
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


def canonical_key(t: Term) -> str:
    """Serialization invariant under alpha-renaming; ascriptions ignored.

    Bound variables appear as binder-depth indices, so two terms have
    the same key exactly when alpha_eq holds.  Used to deduplicate.
    """

    parts: list[str] = []

    def go(t: Term, env: dict[str, int], depth: int) -> None:
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
                go(body, {**env, binder: depth}, depth + 1)
                parts.append(")")
            case App(fn, arg):
                parts.append("(@")
                go(fn, env, depth)
                parts.append(" ")
                go(arg, env, depth)
                parts.append(")")
            case Eta(value):
                parts.append("(eta ")
                go(value, env, depth)
                parts.append(")")
            case Op(op, param, binder, cont):
                parts.append(f"(do {op} ")
                go(param, env, depth)
                parts.append(" .")
                go(cont, {**env, binder: depth}, depth + 1)
                parts.append(")")
            case Handler(clauses, eta_clause, scrutinee):
                parts.append("(handle")
                for name, clause in clauses:
                    parts.append(f" {name}=")
                    go(clause, env, depth)
                parts.append(" eta=")
                go(eta_clause, env, depth)
                parts.append(" in ")
                go(scrutinee, env, depth)
                parts.append(")")
            case Cherry(comp):
                parts.append("(extract ")
                go(comp, env, depth)
                parts.append(")")
            case Exchange(fn):
                parts.append("(commute ")
                go(fn, env, depth)
                parts.append(")")
            case Ann(term, _):
                go(term, env, depth)
            case _:
                raise TypeError(f"not a term: {t!r}")

    go(t, {}, 0)
    return "".join(parts)


def size(t: Term) -> int:
    """Node count; ascriptions are transparent."""
    match t:
        case Var(_) | Const(_):
            return 1
        case Abs(_, body):
            return 1 + size(body)
        case App(fn, arg):
            return 1 + size(fn) + size(arg)
        case Eta(value):
            return 1 + size(value)
        case Op(_, param, _, cont):
            return 1 + size(param) + size(cont)
        case Handler(clauses, eta_clause, scrutinee):
            return 1 + sum(size(c) for _, c in clauses) + size(eta_clause) + size(scrutinee)
        case Cherry(comp):
            return 1 + size(comp)
        case Exchange(fn):
            return 1 + size(fn)
        case Ann(term, _):
            return size(term)
    raise TypeError(f"not a term: {t!r}")
