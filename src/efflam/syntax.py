"""Terms and types of a lambda calculus with algebraic effects and handlers.

Terms are immutable trees.  Binders are named; capture is avoided by
renaming with primes, so fresh names depend only on the terms involved
and never on global state.  Alpha-equivalence is the semantic notion of
term identity everywhere; structural equality (`==`) is only incidental.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, Union


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
# Term shape: the one place that lists each constructor's subterms


def children(t: Term) -> tuple[Term, ...]:
    """The direct subterms of `t`, in position order.

    A handler's clauses come first (in clause order), then its eta
    clause, then its scrutinee; an ascription's only child is the term
    it ascribes; variables and constants have none.  Binders are not
    reported: walkers that need them match `Abs` and `Op` themselves.
    """
    # the normalizer's hot path: dispatch on the exact class, most
    # frequent first, rather than through class patterns
    cls = type(t)
    if cls is App:
        return (t.fn, t.arg)
    if cls is Abs:
        return (t.body,)
    if cls is Handler:
        return (*[c for _, c in t.clauses], t.eta_clause, t.scrutinee)
    if cls is Eta:
        return (t.value,)
    if cls is Op:
        return (t.param, t.cont)
    if cls is Var or cls is Const:
        return ()
    if cls is Ann:
        return (t.term,)
    if cls is Cherry:
        return (t.comp,)
    if cls is Exchange:
        return (t.fn,)
    raise TypeError(f"not a term: {t!r}")


def rebuild(t: Term, kids: Sequence[Term]) -> Term:
    """`t` with its children, in `children` order, replaced by `kids`.

    Returns `t` itself when every new child is the old one, so walkers
    built on the pair preserve identity wherever nothing changed.
    """
    cls = type(t)
    if cls is App:
        fn, arg = kids
        return t if fn is t.fn and arg is t.arg else App(fn, arg)
    if cls is Abs:
        (body,) = kids
        return t if body is t.body else Abs(t.binder, body)
    if cls is Handler:
        *clauses, eta_clause, scrutinee = kids
        if (
            eta_clause is t.eta_clause
            and scrutinee is t.scrutinee
            and all(new is old for new, (_, old) in zip(clauses, t.clauses))
        ):
            return t
        named = tuple((name, new) for (name, _), new in zip(t.clauses, clauses))
        return Handler(named, eta_clause, scrutinee)
    if cls is Eta:
        (value,) = kids
        return t if value is t.value else Eta(value)
    if cls is Op:
        param, cont = kids
        if param is t.param and cont is t.cont:
            return t
        return Op(t.op, param, t.binder, cont)
    if cls is Var or cls is Const:
        return t
    if cls is Ann:
        (term,) = kids
        return t if term is t.term else Ann(term, t.ty)
    if cls is Cherry:
        (comp,) = kids
        return t if comp is t.comp else Cherry(comp)
    if cls is Exchange:
        (fn,) = kids
        return t if fn is t.fn else Exchange(fn)
    raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# Free variables, substitution, alpha-equivalence


def free_vars(t: Term) -> frozenset[str]:
    match t:
        case Var(name):
            return frozenset((name,))
        case Abs(binder, body):
            return free_vars(body) - {binder}
        case Op(_, param, binder, cont):
            return free_vars(param) | (free_vars(cont) - {binder})
    return frozenset().union(*map(free_vars, children(t)))


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
            case Abs(binder, body):
                binder2, body2 = under(binder, body)
                return t if body2 is body else Abs(binder2, body2)
            case Op(op, param, binder, cont):
                param2 = go(param)
                binder2, cont2 = under(binder, cont)
                if param2 is param and cont2 is cont:
                    return t
                return Op(op, param2, binder2, cont2)
        return rebuild(t, tuple(map(go, children(t))))

    return go(t)


def erase(t: Term) -> Term:
    """Strip every type ascription."""
    while isinstance(t, Ann):
        t = t.term
    return rebuild(t, tuple(map(erase, children(t))))


def alpha_eq(s: Term, t: Term) -> bool:
    """Alpha-equivalence; type ascriptions are ignored on both sides."""
    return canonical_key(s) == canonical_key(t)


def canonical_key(t: Term) -> str:
    """Serialization invariant under alpha-renaming; ascriptions ignored.

    Bound variables appear as binder-depth indices, so two terms have
    the same key exactly when they are alpha-equivalent.  Used to
    deduplicate, and to decide alpha-equivalence.
    """

    parts: list[str] = []

    def go(t: Term, env: dict[str, int], depth: int) -> None:
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
                go(body, {**env, binder: depth}, depth + 1)
                parts.append(")")
            case Op(op, param, binder, cont):
                parts.append(f"(do {op} ")
                go(param, env, depth)
                parts.append(" .")
                go(cont, {**env, binder: depth}, depth + 1)
                parts.append(")")
            case _:
                # a handler's clause names are part of its shape
                parts.append(f"({type(t).__name__}")
                if isinstance(t, Handler):
                    parts.append("".join(f" {name}=" for name, _ in t.clauses))
                for child in children(t):
                    parts.append(" ")
                    go(child, env, depth)
                parts.append(")")

    go(t, {}, 0)
    return "".join(parts)


def size(t: Term) -> int:
    """Node count; ascriptions are transparent."""
    while isinstance(t, Ann):
        t = t.term
    return 1 + sum(map(size, children(t)))
