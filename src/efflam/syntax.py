"""Terms and types of a lambda calculus with algebraic effects and handlers.

Terms are immutable trees.  Binders are named; capture is avoided by
renaming with primes, so fresh names depend only on the terms involved
and never on global state.  Alpha-equivalence is the semantic notion of
term identity everywhere; structural equality (`==`) is only incidental.
Since a term never changes, neither do its free variables: `free_vars`
computes them once per node and keeps them on the node (after
Filliâtre & Conchon, "Type-Safe Modular Hash-Consing", ML 2006, which
keeps per-node data on hash-consed terms), for substitution, the
normalizer's side conditions and the checker's record alike.  A
compound term holds its three caches, as every record holds its fields,
in `__slots__` (see below), so a term has no `__dict__`: on 64-bit
CPython 3.11 a compound node takes 72 to 96 bytes, a leaf 48, whether or
not its caches are written.

Types, unlike terms, are hash-consed as in that paper: the
constructors of `Atom`, `Fun`, `Signature` and `Comp` return the one
object built for their fields, kept in a table that lives as long as the
module.  So equal types are identical, `==` and `hash` on types are
identity, and a key made of types hashes in O(1) per type.  The table
holds one entry per distinct type built, bounded by the inputs, and
drops none: a process that reads input after input with ever new atom
or operation names grows it with each.

`fold` is the one walk that rebuilds a term bottom-up: substitution,
`erase` and the printer are each a hook or two for it, and the
fragment's `category` and `denote` fold its syntax trees the same way.  It recurses
while 100 levels are left, the fast way for the usual shallow term, and
goes on from an explicit stack below that, so a term of any depth is
folded without raising the interpreter's recursion limit.

Every frozen class of the package, the terms and types here and the
records of `reduce` and `fragment`, is built by `record`, from one block
of generated source per class, where `dataclass(frozen=True)` runs one
`exec` per method: importing the package runs about 35 such blocks, not
about 150, which is most of what its classes cost a process to start.
The methods have the bodies `dataclass` would give them, so a record is
made, compared, hashed and printed as fast, and `dataclasses.fields`,
`replace` and class patterns read it as before.  A record declares its
fields once, as annotations, and `record` makes them its `__slots__`:
no record has a `__dict__`, each is built by storing its fields through
the slot descriptors, and each is copied and pickled through its
constructor.  A `Step` takes 56 bytes, an `Atom` 40.

The walkers on the hot paths of checking, reduction, sampling and
printing dispatch on the exact class, `cls = type(t); if cls is App:
...`, not on class patterns (`match t: case App(fn, arg): ...`), which
cost several times as much per node.  No term or type class has
subclasses, so `type(t) is C` is `isinstance(t, C)`.  Cold code, such as
the command line and the parser, matches patterns.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from dataclasses import FrozenInstanceError, dataclass, field
from typing import Iterator, Sequence


# ---------------------------------------------------------------------------
# Records: the frozen classes of the package, and the one builder for them


class Record:
    """Base of every frozen class that `record` builds: the terms, the
    types, and the records of `reduce` and `fragment`.  Each holds its
    fields in slots, so an instance has no `__dict__`.  Any write to an
    instance raises `FrozenInstanceError`, as on a frozen dataclass; the
    builders of an instance, and `_cache`, write past it with the slot
    descriptors or `object.__setattr__`."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # `copy`, `deepcopy` and `pickle` rebuild through the constructor,
        # so a type's copy is the type itself and a term's starts with empty
        # caches; storing the slots one by one would meet the frozen
        # `__setattr__`
        return type(self), tuple(getattr(self, name) for name in self.__match_args__)


class _Interned(Record):
    """Base of the four type classes, whose constructors return the one
    object in `_TYPES` for their fields."""

    __slots__ = ()


class _Term(Record):
    """Base of the term classes, the only records a weak reference can
    point to."""

    __slots__ = ("__weakref__",)


class _Node(_Term):
    """Base of the compound term classes, which hold the per-node caches.

    Each is written through `_cache` on the node itself: `free_vars`
    keeps a node's free variables as `_fv`, the random strategy
    (`reduce._redexes`) an ascription-free one's redex count as
    `_nredex`, and the checker (`typecheck._recall`) an ascription's or a
    handler's typings in its last context as `_typed`.  The constructor
    sets them to None.  They are slots, not fields: equality, hashing,
    `repr` and `dataclasses.replace` never see them, and a copy starts
    with none."""

    __slots__ = ("_fv", "_nredex", "_typed")


def record(cls: type) -> type:
    """`cls`, a `Record` whose own annotations name its fields, as a
    frozen dataclass that holds each field in a slot.

    `dataclass(init=False, repr=False, eq=False)` only keeps the books
    that `fields`, `replace` and `__match_args__` read.  The class is then
    made again with its fields as its `__slots__`, as
    `dataclass(slots=True)` makes it, and without the first class's
    `__dict__` and `__weakref__` descriptors, on every Python version.
    One block of generated source writes the methods that
    `dataclass(frozen=True)` would write, with the same bodies, where
    `dataclass` runs one `exec` per method:

    - `__init__`, which stores each field in order, then `None` in each
      cache of a compound term, through the slot descriptors' `__set__`,
      bound once, which costs half of `object.__setattr__`; then, if the
      class has one, it calls `__post_init__`.  A type has none: its
      `__new__` returns the one object for its fields;
    - `__repr__`, `ClassName(field=value, ...)`.  It has no guard against
      an object that holds itself, since a record cannot;
    - `__eq__` and `__hash__`, on the tuple of the fields, where the
      class is not a type, whose equality is identity.

    `Record` makes the instances frozen.  Each class has a docstring of
    its own, or `dataclass` would write one from `inspect.signature`.
    """
    fields = tuple(cls.__dict__.get("__annotations__", ()))
    cls = dataclass(init=False, repr=False, eq=False)(cls)
    space = {k: v for k, v in vars(cls).items() if k not in {*fields, "__dict__", "__weakref__"}}
    space |= {"__slots__": fields, "__qualname__": cls.__qualname__}
    cls = type(cls)(cls.__name__, cls.__bases__, space)
    if issubclass(cls, _Interned):
        lines: list[str] = []
        env: dict = {}
    else:
        lines, env = _init_source(cls, fields, hasattr(cls, "__post_init__"))
        own = "".join(f"self.{name}," for name in fields)
        other = "".join(f"other.{name}," for name in fields)
        lines += [
            "def __eq__(self, other):",
            "    if other.__class__ is self.__class__:",
            f"        return ({own}) == ({other})",
            "    return NotImplemented",
            "def __hash__(self):",
            f"    return hash(({own}))",
        ]
    shown = ", ".join(f"{name}={{self.{name}!r}}" for name in fields)
    lines += ["def __repr__(self):", f'    return f"{cls.__qualname__}({shown})"']
    exec("\n".join(lines), env)
    for name in ("__init__", "__repr__", "__eq__", "__hash__"):
        if name in env:
            method = env[name]
            method.__module__, method.__qualname__ = cls.__module__, f"{cls.__qualname__}.{name}"
            setattr(cls, name, method)
    if "__init__" in env:
        # as `dataclass` annotates an `__init__`, which gives the class its
        # signature
        cls.__init__.__annotations__ = {name: cls.__annotations__[name] for name in fields} | {
            "return": None
        }
    return cls


def _init_source(cls: type, fields: tuple[str, ...], check: bool) -> tuple[list[str], dict]:
    """The source lines of `cls`'s `__init__`, storing `fields`, and
    None in each cache of a compound term, through the slot setters, and,
    if `check`, calling `__post_init__` last, with the names it reads."""
    slots = fields + _Node.__slots__ if issubclass(cls, _Node) else fields
    env = {f"set_{slot}": getattr(cls, slot).__set__ for slot in slots}
    stores = [f"    set_{slot}(self, {slot if slot in fields else None})" for slot in slots]
    if check:
        stores.append("    self.__post_init__()")
    return [f"def __init__(self, {', '.join(fields)}):", *(stores or ["    pass"])], env


def _storing(cls: type):
    """A function of a new term of `cls` and its field values that
    stores them and empties the caches, without `__post_init__`."""
    fields = tuple(cls.__annotations__)
    lines, env = _init_source(cls, fields, False)
    exec("\n".join(lines), env)
    return env["__init__"]


# ---------------------------------------------------------------------------
# Types


# The one object of each distinct type built, under its class and field
# values: one entry per type any input has spelt or the checker has built,
# however often it was built
_TYPES: dict[tuple, "Type | Signature"] = {}


def _intern(cls: type, *values: object) -> "Type | Signature":
    """The object of `cls` with field values `values`, in field order,
    made and kept in `_TYPES` unless another thread has just done so."""
    t = object.__new__(cls)
    for name, value in zip(cls.__match_args__, values):
        object.__setattr__(t, name, value)
    return _TYPES.setdefault((cls, *values), t)


@record
class Atom(_Interned):
    """Atomic type, named by a declared atom (the unit type is Atom("1"))."""

    name: str

    def __new__(cls, name: str) -> "Atom":
        return _TYPES.get((cls, name)) or _intern(cls, name)

    def __str__(self) -> str:
        return self.name


@record
class Fun(_Interned):
    """Function type dom -> cod."""

    dom: "Type"
    cod: "Type"

    def __new__(cls, dom: "Type", cod: "Type") -> "Fun":
        return _TYPES.get((cls, dom, cod)) or _intern(cls, dom, cod)

    def __str__(self) -> str:
        from .surface import print_type

        return print_type(self)


class RowError(Exception):
    """A signature union was asked to merge colliding operation names."""


@record
class Signature(_Interned):
    """Finite map from operation names to (input, output) type pairs.

    Entries are kept sorted by name, and like every type a signature is
    the one object for its entries, so two signatures are equal, and
    identical, exactly when they declare the same operations at the same
    types.
    """

    entries: tuple[tuple[str, "Type", "Type"], ...] = ()

    def __new__(cls, entries: tuple[tuple[str, "Type", "Type"], ...] = ()) -> "Signature":
        found = _TYPES.get((cls, entries))
        if found is not None:
            return found
        names = [name for name, _, _ in entries]
        if names != sorted(names) or len(set(names)) != len(names):
            raise ValueError("signature entries must be sorted and distinct")
        return _intern(cls, entries)

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
        if self is other or not self.entries:
            return True
        return all(other.get(name) == (inp, out) for name, inp, out in self.entries)

    def union(self, other: "Signature") -> "Signature":
        """Union of two signatures that agree on shared names; an operand
        itself when the other is empty or equal."""
        if self is other or not other.entries:
            return self
        if not self.entries:
            return other
        table = {name: (inp, out) for name, inp, out in self.entries}
        for name, inp, out in other.entries:
            if name in table and table[name] != (inp, out):
                raise RowError(f"operation {name} declared at two different types")
            table[name] = (inp, out)
        return Signature.of(table)

    def without(self, ops: set[str]) -> "Signature":
        return Signature(tuple(e for e in self.entries if e[0] not in ops))


EMPTY_ROW = Signature()


@record
class Comp(_Interned):
    """Computation type: a value type under an effect row."""

    effects: Signature
    value: "Type"

    def __new__(cls, effects: Signature, value: "Type") -> "Comp":
        return _TYPES.get((cls, effects, value)) or _intern(cls, effects, value)

    def __str__(self) -> str:
        from .surface import print_type

        return print_type(self)


Type = Atom | Fun | Comp

UNIT = Atom("1")


@dataclass
class Context:
    """The names a term is read and typed against: declared atoms,
    constants and operations, the definitions the parser inlines, and
    the types of the bound variables in scope.

    `defs` is read at parse time only, by the parser; `vars` at check
    time only, by the checker.

    `typings` is the context's token for the checker (see `typecheck`):
    an ascription or a handler checked against the context keeps on
    itself what the checker found, under the token, and later checks
    against the context reuse it.  So a context's atoms, constants,
    operations and `vars` must not change once a term has been checked
    against it (`parse_file` grows a context that is never checked).
    `bind` passes the token on, so the nested scopes of a context share
    it; `dataclasses.replace` makes a new one, so nothing found against
    the old context is reused.  Equality and `repr` ignore it.

    The types a context holds, like all types, stay in the module's type
    table after the context is gone (see the module docstring).
    """

    atoms: set[str]
    constants: dict[str, Type]
    # read only through `get`, so `parse_file` can pass its growing table
    operations: Signature | Mapping[str, tuple[Type, Type]]
    defs: dict[str, "Term"] = field(default_factory=dict)
    vars: dict[str, Type] = field(default_factory=dict)
    typings: object = field(default_factory=object, init=False, repr=False, compare=False)

    @staticmethod
    def initial(
        atoms: Iterable[str],
        constants: Mapping[str, Type],
        operations: Signature | Mapping[str, tuple[Type, Type]],
        defs: dict[str, "Term"] | None = None,
    ) -> "Context":
        """Context with the ambient unit type and unit value included."""
        return Context({UNIT.name, *atoms}, {"*": UNIT, **constants}, operations, defs or {})

    def bind(self, name: str, ty: Type) -> "Context":
        inner = Context(
            self.atoms, self.constants, self.operations, self.defs, {**self.vars, name: ty}
        )
        inner.typings = self.typings
        return inner


# ---------------------------------------------------------------------------
# Terms


@record
class Var(_Term):
    """A variable, bound by an enclosing `Abs` or `Op` or free."""

    name: str


@record
class Const(_Term):
    """A declared constant, such as `*`, the unit value."""

    name: str


@record
class Abs(_Node):
    """Abstraction: a binder scoping over a body."""

    binder: str
    body: "Term"


@record
class App(_Node):
    """Application of a function to an argument."""

    fn: "Term"
    arg: "Term"


@record
class Eta(_Node):
    """Injection of a value as a trivial computation."""

    value: "Term"


@record
class Op(_Node):
    """Operation call: parameter, then a continuation with one binder.

    The binder scopes over the continuation only, never the parameter.
    """

    op: str
    param: "Term"
    binder: str
    cont: "Term"


@record
class Handler(_Node):
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


_store_handler = _storing(Handler)


def _handler_unchecked(clauses, eta_clause, scrutinee) -> Handler:
    """A Handler built without `__post_init__`'s clause-order check, for
    clause names copied from a handler that has passed it."""
    h = object.__new__(Handler)
    _store_handler(h, clauses, eta_clause, scrutinee)
    return h


@record
class Cherry(_Node):
    """Extraction of the value of an effect-free computation."""

    comp: "Term"


@record
class Exchange(_Node):
    """Commutes a function with the computation it returns."""

    fn: "Term"


@record
class Ann(_Node):
    """Type ascription.  Guides the checker; erased before reduction."""

    term: "Term"
    ty: Type


Term = Var | Const | Abs | App | Eta | Op | Handler | Cherry | Exchange | Ann

# a position in a term: child indices, in `children` order, from the root
Path = tuple[int, ...]


def strip(t: Term) -> Term:
    """`t` without its outer ascriptions."""
    while isinstance(t, Ann):
        t = t.term
    return t


# ---------------------------------------------------------------------------
# Term shape: the one place that lists each constructor's subterms


def children(t: Term) -> tuple[Term, ...]:
    """The direct subterms of `t`, in position order.

    A handler's clauses come first (in clause order), then its eta
    clause, then its scrutinee; an ascription's only child is the term
    it ascribes; variables and constants have none.  Binders are not
    reported: walkers that need them match `Abs` and `Op` themselves.
    """
    # the normalizer's hot path: the most frequent class first
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
        return _handler_unchecked(named, eta_clause, scrutinee)
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
# The fold: the one depth-safe walk that rebuilds a term


def fold(t: Term, enter, leave, room: int = 100):
    """`t` folded bottom-up: each node's result from its children's.

    `enter(node)` returns the node's result outright, anything but None
    or a list; or None, to fold its `children` and return
    `leave(node, results)`; or a list `[node2, *kids]`, to fold `kids`
    instead and return `leave(node2, results)`, where a kid written
    `(x,)` is not folded and its result is `x`.  A node shared by
    several parents is folded once per position.

    It recurses while `room` levels are left, and goes on from an
    explicit stack below that (see the module docstring).
    """
    if room <= 0:
        return _fold_from_stack(t, enter, leave)
    r = enter(t)
    if r is None:
        node, kids = t, children(t)
    elif type(r) is list:
        node, kids = r[0], r[1:]
    else:
        return r
    room -= 1
    results = []
    for k in kids:
        results.append(k[0] if type(k) is tuple else fold(k, enter, leave, room))
    return leave(node, results)


def _fold_from_stack(t: Term, enter, leave):
    """`fold` from an explicit stack: each node is left once its kids'
    results are done."""
    done: list = []
    # a term to fold, (result,) for a kid not folded, or [node, n] for a
    # node to leave with the last n results in `done`
    todo: list = [t]
    while todo:
        item = todo.pop()
        kind = type(item)
        if kind is list:
            node, n = item
            k = len(done) - n
            results = done[k:]
            del done[k:]
            done.append(leave(node, results))
        elif kind is tuple:
            done.append(item[0])
        else:
            r = enter(item)
            if r is None:
                kids = children(item)
                todo.append([item, len(kids)])
                todo.extend(reversed(kids))
            elif type(r) is list:
                todo.append([r[0], len(r) - 1])
                todo.extend(reversed(r[1:]))
            else:
                done.append(r)
    return done[0]


# ---------------------------------------------------------------------------
# Free variables, substitution, alpha-equivalence


def free_vars(t: Term) -> frozenset[str]:
    """The free variables of `t`, computed once per node.

    Terms are immutable, so each compound node keeps its set on itself,
    as `_fv`, once asked; variables and constants are never cached.
    `_fv` is a slot, not a field (see `_Node`): equality, hashing,
    `repr` and `dataclasses.replace` never see it.
    """
    return _free_vars(t)


def _free_vars(t: Term, room: int = 100) -> frozenset[str]:
    """`free_vars`, filling the cache of every uncached node of `t`.

    It recurses, the fast way for the usual shallow term, while `room`
    levels are left; then it first fills the nodes below bottom-up from
    an explicit stack, so the recursion goes no deeper whatever the
    term's depth."""
    cls = type(t)
    if cls is Var:
        return frozenset((t.name,))
    if cls is Const:
        return _NO_VARS
    fv = t._fv
    if fv is not None:
        return fv
    if room <= 0:
        # deepest first, so that none of them recurses further
        for node in reversed(list(nodes(list(children(t)), lambda s: s._fv is not None))):
            _free_vars(node, 1)
    room -= 1
    if cls is App:
        fv = _union(_free_vars(t.fn, room), _free_vars(t.arg, room))
    elif cls is Abs:
        fv = _without(_free_vars(t.body, room), t.binder)
    elif cls is Op:
        fv = _union(_free_vars(t.param, room), _without(_free_vars(t.cont, room), t.binder))
    else:
        fv = _NO_VARS
        for child in children(t):
            fv = _union(fv, _free_vars(child, room))
    _cache(t, "_fv", fv)
    return fv


# A node's free variables are most often those of one of its children,
# or none.  The two set operations below then return the child's set, or
# the one empty set, rather than an equal new one: after normalizing the
# 11,000 sampled terms of the benchmark's `random_terms` inputs (200,844
# nodes), the cache holds 5,549 sets, not 106,865, and 1.2 MB, not 23 MB.


def _union(a: frozenset[str], b: frozenset[str]) -> frozenset[str]:
    """`a | b`, as `a` or `b` itself where one holds the other."""
    if b <= a:
        return a
    return b if a <= b else a | b


def _without(fv: frozenset[str], name: str) -> frozenset[str]:
    """`fv - {name}`, as `fv` itself without `name`, or `_NO_VARS` if empty."""
    if name not in fv:
        return fv
    return fv - {name} or _NO_VARS


# writes a cache entry on a frozen node
_cache = object.__setattr__


def nodes(stack: list[Term], skip=None) -> Iterator[Term]:
    """Each distinct node reachable from `stack`, once, parents first.

    Variables and constants are not entered, nor any node for which
    `skip` is true; a node shared by several parents is entered once, so
    the walk costs the number of distinct nodes.  Consumes `stack`.
    """
    seen = set()
    while stack:
        t = stack.pop()
        if type(t) is Var or type(t) is Const:
            continue
        key = id(t)
        if key in seen or (skip is not None and skip(t)):
            continue
        seen.add(key)
        yield t
        stack.extend(children(t))


_NO_VARS: frozenset[str] = frozenset()


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
    subterm with `t`.  The walk asks each node's cached free variables
    (`free_vars`) and enters only the nodes that hold `name`: it costs
    the paths to the occurrences, however large `t` is.  A binder on
    such a path that `repl` mentions is renamed.
    """
    if name not in _free_vars(t):
        return t
    return fold(t, _substituting(name, repl), rebuild)


def _substituting(name: str, repl: Term):
    """`subst`'s `enter` hook for `fold`, with `rebuild` as `leave`."""
    repl_fv = _free_vars(repl)

    def enter(t):
        cls = type(t)
        if cls is Var:
            return repl if t.name == name else t
        if cls is Const:
            return t
        # `subst` has filled the cache of every node of its term; only a
        # node that a rename built may lack it
        fv = t._fv
        if name not in (fv if fv is not None else _free_vars(t)):
            return t
        if cls is Abs:
            if t.binder in repl_fv:
                binder, body = rename(t.binder, t.body, repl_fv | {name})
                return [Abs(binder, body), body]
        elif cls is Op:
            if t.binder == name:
                return [t, t.param, (t.cont,)]
            if t.binder in repl_fv and name in _free_vars(t.cont):
                binder, cont = rename(t.binder, t.cont, repl_fv | {name})
                return [Op(t.op, t.param, binder, cont), t.param, cont]
        return None

    return enter


def rename(binder: str, body: Term, avoid: frozenset[str]) -> tuple[str, Term]:
    """`binder` renamed away from `avoid` and from the free variables of
    its `body`, with the body to match."""
    renamed = fresh_name(binder, avoid | _free_vars(body) | {binder})
    return renamed, subst(body, binder, Var(renamed))


def erase(t: Term) -> Term:
    """Strip every type ascription.

    A subterm without ascriptions comes back as the very same object,
    and a node is rebuilt only when one of its children changed."""
    return fold(t, _unascribed, rebuild)


def _unascribed(t: Term):
    """`erase`'s `enter` hook for `fold`, with `rebuild` as `leave`: a
    node is folded without its ascriptions."""
    cls = type(t)
    if cls is Var or cls is Const:
        return t
    if cls is Ann:
        t = strip(t)
        return [t, *children(t)]
    return None


def alpha_eq(s: Term, t: Term) -> bool:
    """Alpha-equivalence; type ascriptions are ignored on both sides."""
    return canonical_key(s) == canonical_key(t)


def canonical_key(t: Term) -> str:
    """Serialization invariant under alpha-renaming; ascriptions ignored.

    Bound variables appear as binder-depth indices, so two terms have
    the same key exactly when they are alpha-equivalent.  Used to
    deduplicate, and to decide alpha-equivalence.  Walks from an
    explicit stack, so a term of any depth has a key.
    """

    parts: list[str] = []
    # each binder in scope, mapped to the depth it was bound at
    env: dict[str, int] = {}
    # a string to append; (term, depth) for a term to key, `depth` being
    # the number of binders in scope; or [binder, depth], pushed once on
    # each side of the binder's body, to swap with the binder's entry:
    # the first swap binds it and keeps the outer entry, the second puts
    # that back
    todo: list = [(t, 0)]
    while todo:
        item = todo.pop()
        kind = type(item)
        if kind is str:
            parts.append(item)
            continue
        if kind is list:
            binder, entry = item
            item[1] = env.pop(binder, None)
            if entry is not None:
                env[binder] = entry
            continue
        t, depth = item
        cls = type(t)
        while cls is Ann:
            t = t.term
            cls = type(t)
        if cls is Var:
            bound = env.get(t.name)
            parts.append(f"${t.name}" if bound is None else f"#{depth - 1 - bound}")
        elif cls is Const:
            parts.append(f"!{t.name}")
        elif cls is Abs or cls is Op:
            swap = [t.binder, depth]
            if cls is Abs:
                parts.append("(\\")
                todo += (")", swap, (t.body, depth + 1), swap)
            else:
                parts.append(f"(do {t.op} ")
                todo += (")", swap, (t.cont, depth + 1), swap, " .", (t.param, depth))
        else:
            # a handler's clause names are part of its shape
            parts.append(f"({cls.__name__}")
            if cls is Handler:
                parts.append("".join(f" {name}=" for name, _ in t.clauses))
            todo.append(")")
            for child in reversed(children(t)):
                todo += ((child, depth), " ")
    return "".join(parts)


def size(t: Term) -> int:
    """Node count; ascriptions are transparent, and a shared subterm
    counts once per position.  Walks from an explicit stack, so any
    depth is counted."""
    n = 0
    stack = [t]
    while stack:
        t = stack.pop()
        while type(t) is Ann:
            t = t.term
        n += 1
        stack.extend(children(t))
    return n
