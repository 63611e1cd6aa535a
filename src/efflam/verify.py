"""Property suites over enumerated and randomly sampled terms.

The checks run against a tiny fixed signature: two value atoms, one
constant of each, two operations.  Closed term shapes are enumerated
exhaustively by size (binders get canonical names, so enumeration never
produces alpha-duplicates) and filtered through type synthesis; a
seeded sampler builds well-typed terms directly for the statistical
suites.

Suites:
  subjectReduction  every one-step reduct of a typed term keeps its type
  confluence        the full reduction graph has at most one normal form
  termination       random typed terms normalize within the fuel budget
  handlerIdentity   the clauseless handler with the identity clause is inert
  monadLaws         sequencing satisfies the three unit/associativity laws

Each suite returns a deterministic report; re-running with the same
parameters checks the same terms in the same order.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import lru_cache

from .prelude import bind, eta_identity
from .reduce import (
    FuelExhausted,
    NormalForm,
    ReductionGraph,  # re-exported with reduction_graph, which live in reduce
    normalize,
    reduction_graph,
    reducts,
)
from .surface import print_term, print_type
from .syntax import (
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
    Signature,
    Term,
    Type,
    UNIT,
    Var,
    alpha_eq,
    erase,
)
from .typecheck import Context, TypeCheckError, check_against, subtype, synthesize

A = Atom("A")
B = Atom("B")

OPERATIONS = Signature.of({"op1": (A, A), "op2": (A, B)})

CONTEXT = Context.initial(
    atoms={"A", "B"},
    constants={"a0": A, "f0": Fun(A, B)},
    operations=OPERATIONS,
)

_CONSTS = (Const("a0"), Const("f0"), Const("*"))
_OPS = ("op1", "op2")


def _binder(depth: int) -> str:
    return f"b{depth}"


# ---------------------------------------------------------------------------
# Exhaustive enumeration of closed shapes


@lru_cache(maxsize=None)
def _shapes(size: int, depth: int) -> tuple[Term, ...]:
    """All closed-under-`depth`-binders term shapes of exactly `size`."""
    if size <= 0:
        return ()
    out: list[Term] = []
    if size == 1:
        out.extend(Var(_binder(i)) for i in range(depth))
        out.extend(_CONSTS)
        return tuple(out)
    for body in _shapes(size - 1, depth + 1):
        out.append(Abs(_binder(depth), body))
    for child in _shapes(size - 1, depth):
        out.append(Eta(child))
        out.append(Cherry(child))
        out.append(Exchange(child))
    for left_size in range(1, size - 1):
        right_size = size - 1 - left_size
        for fn in _shapes(left_size, depth):
            for arg in _shapes(right_size, depth):
                out.append(App(fn, arg))
        for param in _shapes(left_size, depth):
            for cont in _shapes(right_size, depth + 1):
                for op in _OPS:
                    out.append(Op(op, param, _binder(depth), cont))
    # handlers: optional clauses, an eta clause, and a scrutinee
    for names in ((), ("op1",), ("op2",), ("op1", "op2")):
        remaining = size - 1
        for clause_sizes in itertools.product(
            range(1, remaining), repeat=len(names)
        ):
            rest = remaining - sum(clause_sizes)
            if rest < 2:
                continue
            clause_pools = [_shapes(s, depth) for s in clause_sizes]
            for eta_size in range(1, rest):
                scrut_size = rest - eta_size
                for chosen in itertools.product(*clause_pools):
                    for eta_clause in _shapes(eta_size, depth):
                        for scrutinee in _shapes(scrut_size, depth):
                            out.append(
                                Handler(
                                    tuple(zip(names, chosen)), eta_clause, scrutinee
                                )
                            )
    return tuple(out)


def closed_shapes(max_size: int) -> list[Term]:
    """Every closed shape of size at most `max_size`, smallest first."""
    out: list[Term] = []
    for size in range(1, max_size + 1):
        out.extend(_shapes(size, 0))
    return out


def enumerate_typed(max_size: int, ctx: Context = CONTEXT) -> list[tuple[Term, Type]]:
    """The well-typed closed terms of size at most `max_size`."""
    out = []
    for t in closed_shapes(max_size):
        try:
            out.append((t, synthesize(ctx, t)))
        except TypeCheckError:
            continue
    return out


# ---------------------------------------------------------------------------
# Declarative typing as a bounded search
#
# An independent reading of the typing rules: subsumption is a rule of
# its own, and the rules for eliminations guess the cut type from a
# finite universe.  Used as an oracle against the algorithmic checker.

_ROWS = tuple(
    Signature.of({name: OPERATIONS.get(name) for name in names})
    for names in ((), ("op1",), ("op2",), ("op1", "op2"))
)
_VALUE_TYPES = (A, B, UNIT, Fun(A, A), Fun(A, B))
_UNIVERSE: tuple[Type, ...] = (
    _VALUE_TYPES
    + tuple(Comp(row, v) for row in _ROWS for v in _VALUE_TYPES)
    + tuple(
        Comp(row, Comp(inner, v))
        for row in _ROWS
        for inner in (_ROWS[0],)
        for v in _VALUE_TYPES
    )
    + tuple(Fun(a, Comp(row, b)) for a in (A, B) for row in _ROWS for b in (A, B))
)


def derivable(ctx: Context, t: Term, ty: Type, depth: int = 4) -> bool:
    """Bounded search for a declarative typing derivation of t : ty."""
    if depth < 0:
        return False
    match t:
        case Var(name):
            have = ctx.vars.get(name)
            return have is not None and subtype(have, ty)
        case Const(name):
            have = ctx.constants.get(name)
            return have is not None and subtype(have, ty)
        case Ann(inner, stated):
            return subtype(stated, ty) and derivable(ctx, inner, stated, depth - 1)
        case Abs(binder, body):
            if not isinstance(ty, Fun):
                return False
            return derivable(ctx.bind(binder, ty.dom), body, ty.cod, depth - 1)
        case App(fn, arg):
            return any(
                derivable(ctx, fn, Fun(cut, ty), depth - 1)
                and derivable(ctx, arg, cut, depth - 1)
                for cut in _UNIVERSE
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
            for cut in _UNIVERSE:
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


# ---------------------------------------------------------------------------
# Seeded construction of well-typed terms


def _sample_type(rng: random.Random, depth: int) -> Type:
    roll = rng.random()
    if depth <= 0 or roll < 0.4:
        return rng.choice((A, B, UNIT))
    if roll < 0.7:
        return Comp(rng.choice(_ROWS), _sample_type(rng, depth - 1))
    return Fun(_sample_type(rng, depth - 1), _sample_type(rng, depth - 1))


def _inhabit(ty: Type) -> Term:
    """A canonical closed inhabitant of any verify-signature type."""
    match ty:
        case Atom("A"):
            return Const("a0")
        case Atom("B"):
            return App(Const("f0"), Const("a0"))
        case Atom("1"):
            return Const("*")
        case Fun(dom, cod):
            return Abs("w", _inhabit(cod))
        case Comp(_, value):
            return Eta(_inhabit(value))
    raise ValueError(f"uninhabited {ty!r}")


def sample_typed(rng: random.Random, ty: Type, depth: int, ctx: Context = CONTEXT) -> Term:
    """A well-typed term of type `ty`, built by rule-directed descent."""

    def go(ty: Type, scope: dict[str, Type], depth: int) -> Term:
        if depth <= 0:
            return _inhabit(ty)
        usable = [n for n, t in scope.items() if subtype(t, ty)]
        if usable and rng.random() < 0.3:
            return Var(rng.choice(usable))
        match ty:
            case Fun(dom, cod):
                name = f"v{len(scope)}"
                return Abs(name, go(cod, {**scope, name: dom}, depth - 1))
            case Comp(effects, value):
                roll = rng.random()
                available = list(effects.names())
                if available and roll < 0.35:
                    op = rng.choice(available)
                    inp, out = effects.get(op)
                    name = f"v{len(scope)}"
                    return Op(
                        op,
                        go(inp, scope, depth - 1),
                        name,
                        go(ty, {**scope, name: out}, depth - 1),
                    )
                if roll < 0.55:
                    inner_value = rng.choice((A, B, UNIT))
                    name = f"v{len(scope)}"
                    scrutinee = go(Comp(effects, inner_value), scope, depth - 1)
                    eta_clause = Abs(
                        name, go(ty, {**scope, name: inner_value}, depth - 1)
                    )
                    return Handler((), eta_clause, scrutinee)
                if roll < 0.65 and isinstance(value, Fun):
                    inner = Fun(value.dom, Comp(effects, value.cod))
                    return Exchange(Ann(go(inner, scope, depth - 1), inner))
                return Eta(go(value, scope, depth - 1))
            case _:
                if rng.random() < 0.35:
                    cut = rng.choice((A, B, UNIT))
                    fn = go(Fun(cut, ty), scope, depth - 1)
                    if isinstance(fn, Var):
                        return App(fn, go(cut, scope, depth - 1))
                    return App(Ann(fn, Fun(cut, ty)), go(cut, scope, depth - 1))
                if ty == B and rng.random() < 0.5:
                    return App(Const("f0"), go(A, scope, depth - 1))
                return _inhabit(ty)

    return go(ty, {}, depth)


# ---------------------------------------------------------------------------
# Suites


@dataclass
class SuiteReport:
    suite: str
    checked: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures

    def lines(self) -> list[str]:
        verdict = "PASS" if self.ok else "FAIL"
        head = f"{self.suite}: {self.checked} checked, {len(self.failures)} failures: {verdict}"
        return [head, *(f"  {f}" for f in self.failures)]


def subject_reduction(max_size: int = 6, ctx: Context = CONTEXT) -> SuiteReport:
    """Each one-step reduct still checks at the redex's synthesized type,
    and when it synthesizes, the new type refines the old one."""
    failures = []
    checked = 0
    for term, ty in enumerate_typed(max_size, ctx):
        for rule, path, reduced in reducts(term):
            checked += 1
            label = f"{print_term(term)} --{rule.value}@{'.'.join(map(str, path)) or 'root'}--> {print_term(reduced)}"
            try:
                check_against(ctx, reduced, ty)
            except TypeCheckError as err:
                failures.append(f"{label} no longer checks at {print_type(ty)}: {err}")
                continue
            try:
                new_ty = synthesize(ctx, reduced)
            except TypeCheckError:
                continue
            if not subtype(new_ty, ty):
                failures.append(
                    f"{label} synthesized {print_type(new_ty)}, not below {print_type(ty)}"
                )
    return SuiteReport("subjectReduction", checked, tuple(failures[:20]))


def confluence(max_size: int = 5, budget: int = 2000, ctx: Context = CONTEXT) -> SuiteReport:
    """All reduction orders of a typed term end in the same normal form."""
    failures = []
    checked = 0
    for term, _ in enumerate_typed(max_size, ctx):
        graph = reduction_graph(term, budget)
        checked += 1
        if not graph.complete:
            failures.append(f"{print_term(term)}: graph budget exceeded")
            continue
        distinct = graph.normal_forms
        if len(distinct) > 1:
            shown = ", ".join(print_term(d) for d in distinct)
            failures.append(f"{print_term(term)}: {len(distinct)} normal forms: {shown}")
    return SuiteReport("confluence", checked, tuple(failures[:20]))


def termination(
    samples: int = 10_000,
    depth: int = 7,
    fuel: int = 100_000,
    seed: int = 0,
    ctx: Context = CONTEXT,
) -> SuiteReport:
    """Random well-typed terms always run out of redexes before fuel."""
    rng = random.Random(seed)
    failures = []
    for i in range(samples):
        ty = Comp(rng.choice(_ROWS), _sample_type(rng, 2))
        term = sample_typed(rng, ty, depth, ctx)
        trace = normalize(term, fuel=fuel, record_steps=False)
        if isinstance(trace.outcome, FuelExhausted):
            failures.append(f"sample {i}: fuel exhausted on {print_term(term)[:120]}")
    return SuiteReport("termination", samples, tuple(failures[:20]))


def _resuming_handler(op: str, body: Term, result: Comp) -> Term:
    """A handler for `op` whose clause just resumes with the parameter."""
    inp, out = OPERATIONS.get(op)
    clause = Ann(
        Abs("p", Abs("k", App(Var("k"), Var("p")))),
        Fun(inp, Fun(Fun(out, result), result)),
    )
    return Handler(((op, clause),), eta_identity(), body)


def handler_identity(
    samples: int = 1000, depth: int = 5, seed: int = 0, ctx: Context = CONTEXT
) -> SuiteReport:
    """A handler for an operation outside the computation's row is inert:
    the wrapped term and the bare term share one normal form."""
    rng = random.Random(seed)
    rows_without_op1 = tuple(r for r in _ROWS if r.get("op1") is None)
    failures = []
    for i in range(samples):
        row = rng.choice(rows_without_op1)
        ty = Comp(row, rng.choice((A, B, UNIT)))
        term = sample_typed(rng, ty, depth, ctx)
        plain = normalize(term, record_steps=False)
        wrapped = normalize(_resuming_handler("op1", term, ty), record_steps=False)
        identity = normalize(Handler((), eta_identity(), term), record_steps=False)
        if isinstance(plain.outcome, NormalForm):
            agree = (
                isinstance(wrapped.outcome, NormalForm)
                and alpha_eq(erase(plain.final), erase(wrapped.final))
                and isinstance(identity.outcome, NormalForm)
                and alpha_eq(erase(plain.final), erase(identity.final))
            )
        else:
            # a handler cannot dissolve around a term with no normal form
            agree = not isinstance(wrapped.outcome, NormalForm) and not isinstance(
                identity.outcome, NormalForm
            )
        if not agree:
            failures.append(
                f"sample {i}: {print_term(term)[:120]} changed under an unrelated handler"
            )
    return SuiteReport("handlerIdentity", samples, tuple(failures[:20]))


def _nf(term: Term, fuel: int = 100_000) -> Term | None:
    trace = normalize(term, fuel=fuel, record_steps=False)
    if not isinstance(trace.outcome, NormalForm):
        return None
    return erase(trace.final)


def monad_laws(max_size: int = 5, max_pairs: int = 400, ctx: Context = CONTEXT) -> SuiteReport:
    """Unit and associativity of sequencing, up to normalization."""
    typed = enumerate_typed(max_size, ctx)
    computations = [(t, ty) for t, ty in typed if isinstance(ty, Comp)]
    values = [(t, ty) for t, ty in typed if ty in (A, B, UNIT)]
    arrows = [
        (t, ty)
        for t, ty in typed
        if isinstance(ty, Fun) and isinstance(ty.cod, Comp)
    ]
    failures = []
    checked = 0

    # right identity: m >>= eta is m
    for m, _ in computations:
        checked += 1
        if _nf(bind(m, eta_identity())) != _nf(m) and not _both_none_or_eq(
            _nf(bind(m, eta_identity())), _nf(m)
        ):
            failures.append(f"right identity fails on {print_term(m)}")

    # left identity: eta v >>= k is k v
    pairs = 0
    for (v, vty), (k, kty) in itertools.product(values, arrows):
        if not subtype(vty, kty.dom):
            continue
        pairs += 1
        if pairs > max_pairs:
            break
        checked += 1
        if not _both_none_or_eq(_nf(bind(Eta(v), k)), _nf(App(k, v))):
            failures.append(
                f"left identity fails on value {print_term(v)}, arrow {print_term(k)}"
            )

    # associativity: (m >>= k) >>= h is m >>= (x. k x >>= h)
    triples = 0
    for (m, mty), (k, kty) in itertools.product(computations, arrows):
        if not subtype(mty.value, kty.dom):
            continue
        for h, hty in arrows:
            if not subtype(kty.cod.value, hty.dom):
                continue
            triples += 1
            if triples > max_pairs:
                break
            checked += 1
            lhs = bind(bind(m, k), h)
            rhs = bind(m, Abs("x", bind(App(k, Var("x")), h)))
            if not _both_none_or_eq(_nf(lhs), _nf(rhs)):
                failures.append(
                    f"associativity fails on {print_term(m)}, {print_term(k)}, {print_term(h)}"
                )
        if triples > max_pairs:
            break
    return SuiteReport("monadLaws", checked, tuple(failures[:20]))


def _both_none_or_eq(left: Term | None, right: Term | None) -> bool:
    if left is None or right is None:
        return left is None and right is None
    return alpha_eq(left, right)


SUITES = {
    "subjectReduction": subject_reduction,
    "confluence": confluence,
    "termination": termination,
    "handlerIdentity": handler_identity,
    "monadLaws": monad_laws,
}


def run_suite(name: str, size: int | None = None, seed: int | None = None) -> SuiteReport:
    """Dispatch a suite by name with the tuning knobs it understands."""
    if name == "subjectReduction":
        return subject_reduction(max_size=size if size is not None else 6)
    if name == "confluence":
        return confluence(max_size=size if size is not None else 5)
    if name == "termination":
        return termination(
            samples=1000 if size is None else size * 200,
            seed=seed if seed is not None else 0,
        )
    if name == "handlerIdentity":
        return handler_identity(
            samples=500 if size is None else size * 100,
            seed=seed if seed is not None else 0,
        )
    if name == "monadLaws":
        return monad_laws(max_size=size if size is not None else 5)
    raise KeyError(f"unknown suite {name!r}")
