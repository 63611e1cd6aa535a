"""Property suites over enumerated and randomly sampled terms.

The checks run against a tiny fixed signature: two value atoms, one
constant of each, two operations.  The well-typed closed terms are
enumerated exhaustively by size, directed by the typing rules: only
terms the checker accepts are built, with no untyped shapes filtered
out (binders get canonical names, so enumeration never produces
alpha-duplicates).  A seeded sampler builds well-typed terms directly
for the statistical suites.

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
from dataclasses import dataclass, field, replace

from .prelude import bind, eta_identity
from .reduce import (
    FuelExhausted,
    NormalForm,
    normalize,
    reduction_graph,
    reducts,
)
from .surface import print_path, print_term, print_type
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
)
from .typecheck import Context, TypeCheckError, check_against, clause_type, subtype, synthesize

A = Atom("A")
B = Atom("B")

OPERATIONS = Signature.of({"op1": (A, A), "op2": (A, B)})

CONTEXT = Context.initial(
    atoms={"A", "B"},
    constants={"a0": A, "f0": Fun(A, B)},
    operations=OPERATIONS,
)

_CONSTS = ("a0", "f0", "*")
_OPS = ("op1", "op2")


def _binder(depth: int) -> str:
    return f"b{depth}"


# ---------------------------------------------------------------------------
# Exhaustive enumeration of well-typed closed terms
#
# Two mutually recursive enumerators follow the checker rule by rule:
# `synth` lists the terms of one size that synthesize, with their types,
# and `check` the terms that check against a wanted type.  A scope is the
# tuple of binder types, the variable bound at depth i being `b{i}`, so
# no two terms listed are alpha-equivalent.  A bare lambda is built only
# where `_check` accepts one, or as an applied lambda's head or a
# handler's clause; subsumption is tried only for variables, constants
# and applications of a non-lambda.
#
# A handler with operation clauses is the one term not typed here: its
# row is a fixpoint over the clauses.  Each clause is drawn from the
# terms that check against its clause type at one candidate row, which
# holds for every clause of a handler that synthesizes that row (when a
# term synthesizes T, it checks against W iff T <: W), and `synthesize`
# then confirms the candidate and its row.


def _splits(total: int, parts: int) -> list[tuple[int, ...]]:
    """Every way to write `total` as a sum of `parts` positive sizes."""
    return [
        sizes
        for sizes in itertools.product(range(1, total + 1), repeat=parts)
        if sum(sizes) == total
    ]


def _neutral(t: Term) -> bool:
    """True for the terms `_check` types by synthesis and subsumption."""
    cls = type(t)
    return cls is Var or cls is Const or (cls is App and type(t.fn) is not Abs)


class _Enumeration:
    """The typed terms over one context, memoized for one enumeration."""

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.consts = [(Const(c), ctx.constants[c]) for c in _CONSTS if c in ctx.constants]
        self.ops = [(op, ctx.operations.get(op)) for op in _OPS if op in ctx.operations]
        self.clause_sets = [
            combo for k in range(len(self.ops) + 1) for combo in itertools.combinations(self.ops, k)
        ]
        entries = ctx.operations.entries
        self.rows = [
            Signature(combo)
            for k in range(len(entries) + 1)
            for combo in itertools.combinations(entries, k)
        ]
        self.memo: dict[tuple, list] = {}

    def _memo(self, key: tuple, build) -> list:
        found = self.memo.get(key)
        if found is None:
            found = self.memo[key] = list(build(*key[1:]))
        return found

    def synth(self, n: int, scope: tuple[Type, ...]) -> list[tuple[Term, Type]]:
        """The terms of size `n` that synthesize under `scope`, with their types."""
        return self._memo(("synth", n, scope), self._synth) if n > 0 else []

    def check(self, n: int, scope: tuple[Type, ...], want: Type) -> list[Term]:
        """The terms of size `n` that check against `want` under `scope`."""
        return self._memo(("check", n, scope, want), self._check) if n > 0 else []

    def _synth(self, n, scope):
        if n == 1:
            yield from ((Var(_binder(i)), ty) for i, ty in enumerate(scope))
            yield from self.consts
            return
        binder = _binder(len(scope))
        for v, ty in self.synth(n - 1, scope):
            yield Eta(v), Comp(EMPTY_ROW, ty)
            if isinstance(ty, Comp) and ty.effects.is_empty():
                yield Cherry(v), ty.value
            if isinstance(ty, Fun) and isinstance(ty.cod, Comp):
                yield Exchange(v), Comp(ty.cod.effects, Fun(ty.dom, ty.cod.value))
        for left in range(1, n - 1):
            right = n - 1 - left
            # an applied lambda: the argument's type binds the body's variable
            for arg, arg_ty in self.synth(right, scope):
                for body, ty in self.synth(left - 1, scope + (arg_ty,)):
                    yield App(Abs(binder, body), arg), ty
            for fn, fn_ty in self.synth(left, scope):
                if isinstance(fn_ty, Fun):
                    for arg in self.check(right, scope, fn_ty.dom):
                        yield App(fn, arg), fn_ty.cod
            for op, (inp, out) in self.ops:
                performed = Signature.of({op: (inp, out)})
                for param in self.check(left, scope, inp):
                    for cont, ty in self.synth(right, scope + (out,)):
                        if isinstance(ty, Comp):
                            row = ty.effects.union(performed)
                            yield Op(op, param, binder, cont), Comp(row, ty.value)
        yield from self._synth_handlers(n, scope)

    def _eta_clauses(self, n, scope, gamma):
        """(clause, delta, row) for each eta clause typed at `gamma`."""
        for body, ty in self.synth(n - 1, scope + (gamma,)):
            if isinstance(ty, Comp):
                yield Abs(_binder(len(scope)), body), ty.value, ty.effects
        for f, ty in self.synth(n, scope):
            if isinstance(ty, Fun) and isinstance(ty.cod, Comp) and subtype(gamma, ty.dom):
                yield f, ty.cod.value, ty.cod.effects

    def _handler_parts(self, n, scope):
        """(clause set, clause sizes, eta clause size, scrutinee, its type,
        the row it leaves unhandled) for the handlers of size `n` whose
        scrutinee synthesizes a computation type."""
        for clause_set in self.clause_sets:
            handled = {op for op, _ in clause_set}
            for *sizes, eta_size, scrut_size in _splits(n - 1, len(clause_set) + 2):
                for scrutinee, scrut_ty in self.synth(scrut_size, scope):
                    if isinstance(scrut_ty, Comp):
                        residual = scrut_ty.effects.without(handled)
                        yield clause_set, sizes, eta_size, scrutinee, scrut_ty, residual

    def _synth_handlers(self, n, scope):
        ctx = replace(self.ctx, vars={_binder(i): ty for i, ty in enumerate(scope)})
        for clause_set, sizes, eta_size, scrutinee, scrut_ty, residual in self._handler_parts(
            n, scope
        ):
            names = tuple(op for op, _ in clause_set)
            eta_key = ("eta", eta_size, scope, scrut_ty.value)
            for eta_clause, delta, eta_row in self._memo(eta_key, self._eta_clauses):
                base = residual.union(eta_row)
                if not names:
                    yield Handler((), eta_clause, scrutinee), Comp(base, delta)
                    continue
                for row in self.rows:
                    if not base.subset_of(row):
                        continue
                    result = Comp(row, delta)
                    pools = [
                        self.check(size, scope, clause_type(entry, result))
                        for size, (_, entry) in zip(sizes, clause_set)
                    ]
                    for chosen in itertools.product(*pools):
                        t = Handler(tuple(zip(names, chosen)), eta_clause, scrutinee)
                        try:
                            ty = synthesize(ctx, t)
                        except TypeCheckError:
                            continue
                        if ty.effects == row:
                            yield t, ty

    def _check(self, n, scope, want):
        binder = _binder(len(scope))
        if isinstance(want, Fun):
            for body in self.check(n - 1, scope + (want.dom,), want.cod):
                yield Abs(binder, body)
        for comp in self.check(n - 1, scope, Comp(EMPTY_ROW, want)):
            yield Cherry(comp)
        if isinstance(want, Comp):
            for v in self.check(n - 1, scope, want.value):
                yield Eta(v)
            if isinstance(want.value, Fun):
                inner = Fun(want.value.dom, Comp(want.effects, want.value.cod))
                for f in self.check(n - 1, scope, inner):
                    yield Exchange(f)
            for left in range(1, n - 1):
                for op, (inp, out) in self.ops:
                    if want.effects.get(op) != (inp, out):
                        continue
                    for param in self.check(left, scope, inp):
                        for cont in self.check(n - 1 - left, scope + (out,), want):
                            yield Op(op, param, binder, cont)
            yield from self._check_handlers(n, scope, want)
        for left in range(2, n - 1):
            for arg, arg_ty in self.synth(n - 1 - left, scope):
                for body in self.check(left - 1, scope + (arg_ty,), want):
                    yield App(Abs(binder, body), arg)
        for t, ty in self.synth(n, scope):
            if _neutral(t) and subtype(ty, want):
                yield t

    def _check_handlers(self, n, scope, want):
        synthesized = set()
        for t, ty in self.synth(n, scope):
            if type(t) is Handler:
                synthesized.add(t)
                if subtype(ty, want):
                    yield t
        # a handler that synthesizes no type is checked clause by clause
        for clause_set, sizes, eta_size, scrutinee, scrut_ty, residual in self._handler_parts(
            n, scope
        ):
            if not residual.subset_of(want.effects):
                continue
            names = tuple(op for op, _ in clause_set)
            pools = [
                self.check(size, scope, clause_type(entry, want))
                for size, (_, entry) in zip(sizes, clause_set)
            ]
            eta_clauses = self.check(eta_size, scope, Fun(scrut_ty.value, want))
            for chosen in itertools.product(*pools):
                for eta_clause in eta_clauses:
                    t = Handler(tuple(zip(names, chosen)), eta_clause, scrutinee)
                    if t not in synthesized:
                        yield t


def enumerate_typed(max_size: int) -> list[tuple[Term, Type]]:
    """The closed terms of size at most `max_size` that `synthesize`
    accepts under `CONTEXT`, with their types, smallest first."""
    enumeration = _Enumeration(CONTEXT)
    return [pair for n in range(1, max_size + 1) for pair in enumeration.synth(n, ())]


# ---------------------------------------------------------------------------
# Seeded construction of well-typed terms

_ROWS = tuple(
    Signature.of({name: OPERATIONS.get(name) for name in names})
    for names in ((), ("op1",), ("op2",), ("op1", "op2"))
)


def _sample_type(rng: random.Random, depth: int) -> Type:
    roll = rng.random()
    if depth <= 0 or roll < 0.4:
        return rng.choice((A, B, UNIT))
    if roll < 0.7:
        return Comp(rng.choice(_ROWS), _sample_type(rng, depth - 1))
    return Fun(_sample_type(rng, depth - 1), _sample_type(rng, depth - 1))


# The sampler's leaves, shared by every term it builds: terms are
# immutable and leaves keep no per-node cache, so sharing changes no
# value, and it spares the collector one object per leaf sampled.
_A0, _F0, _STAR = Const("a0"), Const("f0"), Const("*")


def _inhabit(ty: Type) -> Term:
    """A canonical closed inhabitant of any verify-signature type."""
    cls = type(ty)
    if cls is Atom:
        if ty.name == "A":
            return _A0
        if ty.name == "B":
            return App(_F0, _A0)
        if ty.name == "1":
            return _STAR
    elif cls is Fun:
        return Abs("w", _inhabit(ty.cod))
    elif cls is Comp:
        return Eta(_inhabit(ty.value))
    raise ValueError(f"uninhabited {ty!r}")


def sample_typed(rng: random.Random, ty: Type, depth: int) -> Term:
    """A well-typed term of type `ty`, built by rule-directed descent."""
    return _sample(rng, ty, {}, depth)


def _sample(rng: random.Random, ty: Type, scope: dict[str, Type], depth: int) -> Term:
    """`sample_typed` under the variable types `scope`."""
    if depth <= 0:
        return _inhabit(ty)
    usable = [n for n, t in scope.items() if subtype(t, ty)]
    if usable and rng.random() < 0.3:
        return Var(rng.choice(usable))
    cls = type(ty)
    if cls is Fun:
        name = f"v{len(scope)}"
        return Abs(name, _sample(rng, ty.cod, {**scope, name: ty.dom}, depth - 1))
    if cls is Comp:
        effects, value = ty.effects, ty.value
        roll = rng.random()
        available = list(effects.names())
        if available and roll < 0.35:
            op = rng.choice(available)
            inp, out = effects.get(op)
            name = f"v{len(scope)}"
            return Op(
                op,
                _sample(rng, inp, scope, depth - 1),
                name,
                _sample(rng, ty, {**scope, name: out}, depth - 1),
            )
        if roll < 0.55:
            inner_value = rng.choice((A, B, UNIT))
            name = f"v{len(scope)}"
            scrutinee = _sample(rng, Comp(effects, inner_value), scope, depth - 1)
            eta_clause = Abs(name, _sample(rng, ty, {**scope, name: inner_value}, depth - 1))
            return Handler((), eta_clause, scrutinee)
        if roll < 0.65 and isinstance(value, Fun):
            inner = Fun(value.dom, Comp(effects, value.cod))
            return Exchange(Ann(_sample(rng, inner, scope, depth - 1), inner))
        return Eta(_sample(rng, value, scope, depth - 1))
    if rng.random() < 0.35:
        cut = rng.choice((A, B, UNIT))
        fn = _sample(rng, Fun(cut, ty), scope, depth - 1)
        if isinstance(fn, Var):
            return App(fn, _sample(rng, cut, scope, depth - 1))
        return App(Ann(fn, Fun(cut, ty)), _sample(rng, cut, scope, depth - 1))
    if ty == B and rng.random() < 0.5:
        return App(_F0, _sample(rng, A, scope, depth - 1))
    return _inhabit(ty)


# ---------------------------------------------------------------------------
# Suites


@dataclass
class SuiteReport:
    """A suite's verdict.  `coverage` counts what the checks ranged over
    (typed terms enumerated, graph nodes, cases per law); the text
    report leaves it out, records carry it."""

    suite: str
    checked: int
    failures: tuple[str, ...]
    coverage: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures

    def lines(self) -> list[str]:
        verdict = "PASS" if self.ok else "FAIL"
        head = f"{self.suite}: {self.checked} checked, {len(self.failures)} failures: {verdict}"
        return [head, *(f"  {f}" for f in self.failures)]


def subject_reduction(max_size: int = 6) -> SuiteReport:
    """Each one-step reduct still checks at the redex's synthesized type,
    and when it synthesizes, the new type refines the old one."""
    failures = []
    checked = 0
    typed = enumerate_typed(max_size)
    for term, ty in typed:
        for rule, path, reduced in reducts(term):
            checked += 1
            try:
                check_against(CONTEXT, reduced, ty)
            except TypeCheckError as err:
                why = f"no longer checks at {print_type(ty)}: {err}"
            else:
                try:
                    new_ty = synthesize(CONTEXT, reduced)
                except TypeCheckError:
                    continue
                if subtype(new_ty, ty):
                    continue
                why = f"synthesized {print_type(new_ty)}, not below {print_type(ty)}"
            # printed only here: most reducts keep their type
            label = f"{print_term(term)} --{rule.value}@{print_path(path)}--> {print_term(reduced)}"
            failures.append(f"{label} {why}")
    return SuiteReport(
        "subjectReduction", checked, tuple(failures[:20]), {"typedTerms": len(typed)}
    )


def confluence(max_size: int = 5) -> SuiteReport:
    """All reduction orders of a typed term end in the same normal form;
    each graph holds at most `reduction_graph`'s default 2,000 nodes."""
    failures = []
    checked = nodes = 0
    for term, _ in enumerate_typed(max_size):
        graph = reduction_graph(term)
        checked += 1
        nodes += len(graph.nodes)
        if not graph.complete:
            failures.append(f"{print_term(term)}: graph budget exceeded")
            continue
        distinct = graph.normal_forms
        if len(distinct) > 1:
            shown = ", ".join(print_term(d) for d in distinct)
            failures.append(f"{print_term(term)}: {len(distinct)} normal forms: {shown}")
    coverage = {"typedTerms": checked, "graphNodes": nodes}
    return SuiteReport("confluence", checked, tuple(failures[:20]), coverage)


def termination(
    samples: int = 10_000,
    depth: int = 7,
    fuel: int = 100_000,
    seed: int = 0,
) -> SuiteReport:
    """Random well-typed terms always run out of redexes before fuel."""
    rng = random.Random(seed)
    failures = []
    for i in range(samples):
        ty = Comp(rng.choice(_ROWS), _sample_type(rng, 2))
        term = sample_typed(rng, ty, depth)
        trace = normalize(term, fuel=fuel, record_steps=False)
        if isinstance(trace.outcome, FuelExhausted):
            failures.append(f"sample {i}: fuel exhausted on {print_term(term)[:120]}")
    return SuiteReport("termination", samples, tuple(failures[:20]))


def _resuming_handler(op: str, body: Term, result: Comp) -> Term:
    """A handler for `op` whose clause just resumes with the parameter."""
    resume = Abs("p", Abs("k", App(Var("k"), Var("p"))))
    clause = Ann(resume, clause_type(OPERATIONS.get(op), result))
    return Handler(((op, clause),), eta_identity(), body)


def handler_identity(samples: int = 1000, depth: int = 5, seed: int = 0) -> SuiteReport:
    """A handler for an operation outside the computation's row is inert:
    the wrapped term and the bare term share one normal form."""
    rng = random.Random(seed)
    rows_without_op1 = tuple(r for r in _ROWS if r.get("op1") is None)
    failures = []
    for i in range(samples):
        row = rng.choice(rows_without_op1)
        ty = Comp(row, rng.choice((A, B, UNIT)))
        term = sample_typed(rng, ty, depth)
        plain = normalize(term, record_steps=False)
        wrapped = normalize(_resuming_handler("op1", term, ty), record_steps=False)
        identity = normalize(Handler((), eta_identity(), term), record_steps=False)
        if isinstance(plain.outcome, NormalForm):
            agree = (
                isinstance(wrapped.outcome, NormalForm)
                and alpha_eq(plain.final, wrapped.final)
                and isinstance(identity.outcome, NormalForm)
                and alpha_eq(plain.final, identity.final)
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
    return trace.final


# the most cases checked of each law over pairs or triples
_MAX_CASES = 400


def monad_laws(max_size: int = 5) -> SuiteReport:
    """Unit and associativity of sequencing, up to normalization."""
    typed = enumerate_typed(max_size)
    computations = [(t, ty) for t, ty in typed if isinstance(ty, Comp)]
    values = [(t, ty) for t, ty in typed if ty in (A, B, UNIT)]
    arrows = [
        (t, ty)
        for t, ty in typed
        if isinstance(ty, Fun) and isinstance(ty.cod, Comp)
    ]
    failures = []
    laws = {"rightIdentity": 0, "leftIdentity": 0, "associativity": 0}

    # right identity: m >>= eta is m
    for m, _ in computations:
        laws["rightIdentity"] += 1
        why = _disagreement(_nf(bind(m, eta_identity())), _nf(m))
        if why:
            failures.append(f"right identity {why} on {print_term(m)}")

    # left identity: eta v >>= k is k v
    pairs = 0
    for (v, vty), (k, kty) in itertools.product(values, arrows):
        if not subtype(vty, kty.dom):
            continue
        pairs += 1
        if pairs > _MAX_CASES:
            break
        laws["leftIdentity"] += 1
        why = _disagreement(_nf(bind(Eta(v), k)), _nf(App(k, v)))
        if why:
            failures.append(
                f"left identity {why} on value {print_term(v)}, arrow {print_term(k)}"
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
            if triples > _MAX_CASES:
                break
            laws["associativity"] += 1
            lhs = bind(bind(m, k), h)
            rhs = bind(m, Abs("x", bind(App(k, Var("x")), h)))
            why = _disagreement(_nf(lhs), _nf(rhs))
            if why:
                failures.append(
                    f"associativity {why} on {print_term(m)}, {print_term(k)}, {print_term(h)}"
                )
        if triples > _MAX_CASES:
            break
    coverage = {"typedTerms": len(typed), **laws}
    return SuiteReport("monadLaws", sum(laws.values()), tuple(failures[:20]), coverage)


def _disagreement(left: Term | None, right: Term | None) -> str | None:
    """How a law fails on its two sides' normal forms, or None when they
    are alpha-equivalent.  A side that ran out of fuel (None) fails the
    law, even when the other did too: two divergent sides show nothing."""
    if left is None or right is None:
        return "runs out of fuel"
    return None if alpha_eq(left, right) else "fails"


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
