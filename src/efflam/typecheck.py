"""Bidirectional type checking with effect-row subsumption.

Synthesis computes the least type of a term: injections get the empty
effect row and handlers get exactly the operations their scrutinee and
clauses can still perform.  Subsumption widens rows wherever a term is
checked against an expected type, so a pure computation can be used
anywhere a more effectful one is allowed.

Bare lambdas synthesize no type of their own (`annotationRequired`),
but they are accepted in every checking position: under an ascription,
as an argument, as a handler clause, as an operation parameter, and in
the function slot of an immediately applied redex.

One rule types a handler, in both directions.  Checked against a
wanted type, a handler that synthesizes no type has its clauses checked
at the wanted type.  Synthesized, its row is found by guessing and
growing: the eta clause and the forwarded operations give the first
guess; each round then types every operation clause once, resuming at
the guess, and adds the rows they perform (an ascribed clause adds its
ascription's row untyped).
The last round's typings are kept, and a clause is checked against the
result only when it was not typed or its type does not fit; so nested
handlers whose rows settle in one round are typed once per level.

Within one `synthesize` or `check_against` call, each ascription and
each handler is typed once per context.  The checker records, by node
identity, every ascription that held and every handler type it
synthesized, with the types the context gave the node's free
variables, and reuses the result where the same node is reached again
and those types are the same.  The parser inlines every use of a `def`
as one shared ascription, so a lexical entry used at every level of a
deep sentence is checked once; and a handler nested in a clause body
is typed once, not once per round of the enclosing row guess, unless
it mentions a variable whose type the guess changes.  Reuse is exact:
the atoms, constants and operations are fixed for the call, so a
term's typing depends on the context only through the types of its
free variables (Bauer & Pretnar, "An Effect System for Algebraic
Effects and Handlers", LMCS 2014).  A handler's failure is recorded
too, as its kind, message and path below the handler, and raised again
at the path where the handler is reached next in a context that gives
its free variables the same types.  So a handler nested in a failing
one is not synthesized again before it is checked against the wanted
type: checking d failing one-clause handlers, each in the clause of the
next, enters the handler rule (d^2 + 3d)/2 times, not exponentially
often.  An ascription is recorded only where it held.
"""

from __future__ import annotations

from contextlib import suppress

from .syntax import (
    Abs,
    Ann,
    App,
    Atom,
    Cherry,
    Comp,
    Context,
    EMPTY_ROW,
    Eta,
    Exchange,
    FreeVars,
    Fun,
    Handler,
    Op,
    Path,
    Signature,
    Term,
    Type,
    Var,
)
from .surface import print_path
from .syntax import Const as ConstTerm


class TypeCheckError(Exception):
    """A typing failure, tagged with a kind and the path to the offender.

    The message is kept as a %-template and its arguments (types or
    names) and formatted only when read: most rejections, during term
    enumeration, are never shown.

    Kinds: mismatch, unknownName, rowNotEmpty, notAFunction,
    notAComputation, clauseShape, annotationRequired.
    """

    def __init__(self, kind: str, path: Path, template: str, *args: object):
        self.kind = kind
        self.path = path
        self.template = template
        super().__init__(kind, path, template, *args)

    @property
    def message(self) -> str:
        return self.template % self.args[3:]

    def __str__(self) -> str:
        return f"{self.kind} at {print_path(self.path)}: {self.message}"


def _fail(kind: str, path: Path, template: str, *args: object) -> "TypeCheckError":
    raise TypeCheckError(kind, path, template, *args)


# ---------------------------------------------------------------------------
# Subtyping: rows may widen, functions are contravariant in their domain.


def subtype(s: Type, t: Type) -> bool:
    match s, t:
        case (Atom(a), Atom(b)):
            return a == b
        case (Fun(d1, c1), Fun(d2, c2)):
            return subtype(d2, d1) and subtype(c1, c2)
        case (Comp(e1, v1), Comp(e2, v2)):
            return e1.subset_of(e2) and subtype(v1, v2)
    return False


def well_formed(ctx: Context, ty: Type, path: Path = ()) -> None:
    """Reject types naming undeclared atoms or misdeclared operations."""
    match ty:
        case Atom(name):
            if name not in ctx.atoms:
                _fail("unknownName", path, "atom %s is not declared", name)
        case Fun(dom, cod):
            well_formed(ctx, dom, path)
            well_formed(ctx, cod, path)
        case Comp(effects, value):
            for name, inp, out in effects:
                if _operation(ctx, name, path) != (inp, out):
                    _fail(
                        "mismatch",
                        path,
                        "operation %s used at a type other than its declaration",
                        name,
                    )
            well_formed(ctx, value, path)


def _operation(ctx: Context, op: str, path: Path) -> tuple[Type, Type]:
    """The declared input and output types of `op`."""
    entry = ctx.operations.get(op)
    if entry is None:
        _fail("unknownName", path, "operation %s is not declared", op)
    return entry


def clause_type(entry: tuple[Type, Type], result: Type) -> Fun:
    """`inp -> (out -> result) -> result`: the type of a clause handling
    an operation declared `(inp, out)` in a handler of type `result`."""
    inp, out = entry
    return Fun(inp, Fun(Fun(out, result), result))


# ---------------------------------------------------------------------------
# Synthesis and checking


def synthesize(ctx: Context, t: Term) -> Type:
    return _Checker()._synth(ctx, t, ())


def check_against(ctx: Context, t: Term, ty: Type) -> None:
    _Checker()._check(ctx, t, ty, ())


class _Checker:
    """The typing rules, for one `synthesize` or `check_against` call.

    `_memo` holds, by node identity, each ascription that held and each
    handler type that was synthesized, under the types that the context
    gave the node's free variables.  A node's free variables are asked
    for only when it is reached again in another context, so a node
    typed once costs one entry.  The memo is made on the first `Ann` or
    `Handler` reached, so a call that meets neither pays nothing for it,
    and it goes with the checker when the call returns.  A handler whose
    synthesis failed is recorded as `(kind, path below it, template,
    args)`, and the failure is raised again at the current path; an
    ascription that failed is not recorded, and is checked afresh.
    """

    # id -> [node, variables of the first context it was reached in, its
    # type or failure there, its free variables, {types of those: type or
    # failure}]
    _memo: dict[int, list] | None = None
    _free_vars: FreeVars | None = None

    def _recall(self, ctx: Context, t: Term) -> tuple[Type | None, list]:
        """The type recorded for `t` under the types that `ctx` gives its
        free variables, or None; and `t`'s entry, to record in."""
        memo = self._memo
        if memo is None:
            memo = self._memo = {}
        entry = memo.get(id(t))
        if entry is None:
            # the entry holds its node, so the id is not reused while it lives
            entry = memo[id(t)] = [t, ctx.vars, None, None, None]
            return None, entry
        _, first, first_ty, names, later = entry
        bound = ctx.vars
        if bound is first:
            return first_ty, entry
        if names is None:
            if self._free_vars is None:
                self._free_vars = FreeVars()
            names = entry[3] = tuple(self._free_vars(t))
            later = entry[4] = {}
            if first_ty is not None:
                later[tuple([first.get(name) for name in names])] = first_ty
        return later.get(tuple([bound.get(name) for name in names])), entry

    @staticmethod
    def _record(entry: list, ctx: Context, ty: Type) -> None:
        bound = ctx.vars
        if bound is entry[1]:
            entry[2] = ty
        else:  # _recall has listed the free variables
            entry[4][tuple([bound.get(name) for name in entry[3]])] = ty

    def _synth(self, ctx: Context, t: Term, path: Path) -> Type:
        match t:
            case Var(name):
                if name in ctx.vars:
                    return ctx.vars[name]
                _fail("unknownName", path, "unbound variable %s", name)
            case ConstTerm(name):
                if name in ctx.constants:
                    return ctx.constants[name]
                _fail("unknownName", path, "unknown constant %s", name)
            case Ann(inner, ty):
                # a recorded ascription is well formed: that depends only
                # on the call's atoms and operations
                held, entry = self._recall(ctx, t)
                if held is None:
                    well_formed(ctx, ty, path)
                    self._check(ctx, inner, ty, path)
                    self._record(entry, ctx, ty)
                return ty
            case Abs(_, _):
                _fail("annotationRequired", path, "cannot synthesize a type for a bare lambda")
            case App(fn, arg):
                if isinstance(fn, Abs):
                    # immediately applied lambda: type the argument, then the body
                    arg_ty = self._synth(ctx, arg, path + (1,))
                    return self._synth(ctx.bind(fn.binder, arg_ty), fn.body, path + (0, 0))
                fn_ty = self._synth(ctx, fn, path + (0,))
                if not isinstance(fn_ty, Fun):
                    _fail("notAFunction", path + (0,), "applied term has type %s", fn_ty)
                self._check(ctx, arg, fn_ty.dom, path + (1,))
                return fn_ty.cod
            case Eta(value):
                return Comp(EMPTY_ROW, self._synth(ctx, value, path + (0,)))
            case Op(op, param, binder, cont):
                inp, out = entry = _operation(ctx, op, path)
                self._check(ctx, param, inp, path + (0,))
                cont_ty = self._synth(ctx.bind(binder, out), cont, path + (1,))
                if not isinstance(cont_ty, Comp):
                    _fail(
                        "notAComputation",
                        path + (1,),
                        "operation continuation has type %s",
                        cont_ty,
                    )
                row = cont_ty.effects.union(Signature.of({op: entry}))
                return Comp(row, cont_ty.value)
            case Handler(_, _, _):
                got, entry = self._recall(ctx, t)
                if got is None:
                    try:
                        got = _handler_rule(self, ctx, t, path)
                    except TypeCheckError as e:
                        # kept relative: the same error passes every enclosing handler
                        got = (e.kind, e.path[len(path) :], e.template, e.args[3:])
                        self._record(entry, ctx, got)
                        raise
                    self._record(entry, ctx, got)
                if isinstance(got, tuple):  # failed before in this context
                    kind, below, template, args = got
                    _fail(kind, path + below, template, *args)
                return got
            case Cherry(comp):
                comp_ty = self._synth(ctx, comp, path + (0,))
                if not isinstance(comp_ty, Comp):
                    _fail("notAComputation", path + (0,), "extraction from type %s", comp_ty)
                if not comp_ty.effects.is_empty():
                    _fail(
                        "rowNotEmpty",
                        path + (0,),
                        "extraction requires an empty effect row, found {%s}",
                        ", ".join(comp_ty.effects.names()),
                    )
                return comp_ty.value
            case Exchange(fn):
                fn_ty = self._synth(ctx, fn, path + (0,))
                if not isinstance(fn_ty, Fun):
                    _fail("notAFunction", path + (0,), "commuted term has type %s", fn_ty)
                if not isinstance(fn_ty.cod, Comp):
                    _fail(
                        "notAComputation",
                        path + (0,),
                        "commuted function returns %s",
                        fn_ty.cod,
                    )
                return Comp(fn_ty.cod.effects, Fun(fn_ty.dom, fn_ty.cod.value))
        raise TypeError(f"not a term: {t!r}")

    def _fun_to_comp(self, ctx: Context, f: Term, dom: Type, path: Path) -> tuple[Type, Signature]:
        """Value type and row of `f dom` for a clause-position function term."""
        match f:
            case Ann(_, Fun(d, Comp(effects, value))) if subtype(dom, d):
                return value, effects
            case Abs(binder, body):
                body_ty = self._synth(ctx.bind(binder, dom), body, path + (0,))
                if not isinstance(body_ty, Comp):
                    _fail("clauseShape", path, "clause returns %s, not a computation", body_ty)
                return body_ty.value, body_ty.effects
            case _:
                f_ty = self._synth(ctx, f, path)
                if not (isinstance(f_ty, Fun) and isinstance(f_ty.cod, Comp) and subtype(dom, f_ty.dom)):
                    _fail("clauseShape", path, "clause has type %s", f_ty)
                return f_ty.cod.value, f_ty.cod.effects

    def _check(self, ctx: Context, t: Term, want: Type, path: Path) -> None:
        match t:
            case Ann(inner, ty):
                held, entry = self._recall(ctx, t)
                if held is None:
                    well_formed(ctx, ty, path)
                if not subtype(ty, want):
                    _fail("mismatch", path, "ascription %s does not fit %s", ty, want)
                if held is None:
                    self._check(ctx, inner, ty, path)
                    self._record(entry, ctx, ty)
                return
            case Abs(binder, body):
                if not isinstance(want, Fun):
                    _fail("mismatch", path, "lambda checked against %s", want)
                self._check(ctx.bind(binder, want.dom), body, want.cod, path + (0,))
                return
            case Eta(value) if isinstance(want, Comp):
                self._check(ctx, value, want.value, path + (0,))
                return
            case Op(op, param, binder, cont) if isinstance(want, Comp):
                entry = _operation(ctx, op, path)
                if want.effects.get(op) != entry:
                    _fail(
                        "mismatch",
                        path,
                        "operation %s is not available in row {%s}",
                        op,
                        ", ".join(want.effects.names()),
                    )
                self._check(ctx, param, entry[0], path + (0,))
                self._check(ctx.bind(binder, entry[1]), cont, want, path + (1,))
                return
            case Handler(_, _, _) if isinstance(want, Comp):
                # A synthesized result is exact, and recorded for the
                # subsumption check below; pushing the wanted row into the
                # resumption types, where it sits contravariantly, may
                # reject a handler whose synthesized type fits.
                try:
                    self._synth(ctx, t, path)
                except TypeCheckError:
                    _handler_rule(self, ctx, t, path, want)
                    return
            case Cherry(comp):
                self._check(ctx, comp, Comp(EMPTY_ROW, want), path + (0,))
                return
            case Exchange(fn) if isinstance(want, Comp) and isinstance(want.value, Fun):
                self._check(
                    ctx, fn, Fun(want.value.dom, Comp(want.effects, want.value.cod)), path + (0,)
                )
                return
            case App(fn, arg) if isinstance(fn, Abs):
                arg_ty = self._synth(ctx, arg, path + (1,))
                self._check(ctx.bind(fn.binder, arg_ty), fn.body, want, path + (0, 0))
                return
        got = self._synth(ctx, t, path)
        if not subtype(got, want):
            _fail("mismatch", path, "expected %s, found %s", want, got)


def _handler_rule(
    checker: _Checker, ctx: Context, t: Handler, path: Path, want: Comp | None = None
) -> Comp:
    """The handler's type: `want` if given and the handler checks against
    it, else the least type found by guessing and growing its row."""
    n = len(t.clauses)
    scrut_path = path + (n + 1,)
    scrut_ty = checker._synth(ctx, t.scrutinee, scrut_path)
    if not isinstance(scrut_ty, Comp):
        _fail("notAComputation", scrut_path, "handled term has type %s", scrut_ty)
    residual = scrut_ty.effects.without({op for op, _ in t.clauses})
    gamma = scrut_ty.value
    typed: list[Type | None] = [None] * n
    if want is not None:
        if not residual.subset_of(want.effects):
            missing = set(residual.names()) - set(want.effects.names())
            _fail(
                "mismatch",
                scrut_path,
                "unhandled operations {%s} do not appear in row {%s}",
                ", ".join(sorted(missing)),
                ", ".join(want.effects.names()),
            )
        result = want
    else:
        entries = [_operation(ctx, op, path + (i,)) for i, (op, _) in enumerate(t.clauses)]

        # the eta clause fixes the result value type and seeds the row
        delta, row = checker._fun_to_comp(ctx, t.eta_clause, gamma, path + (n,))
        row = residual.union(row)

        # operation clauses may perform further operations: each round types
        # every clause once at the current guess and grows it, to a fixpoint
        while True:
            grown, typed = row, []
            for (_, clause), (inp, out) in zip(t.clauses, entries):
                ty = None
                with suppress(TypeCheckError):
                    match clause:
                        case Ann(_, Fun(_, Fun(_, Comp(effects, _)))):
                            grown = grown.union(effects)  # read off; checked below
                        case Abs(x, Abs(k, body)):
                            resume = Fun(out, Comp(row, delta))
                            body_ty = checker._synth(ctx.bind(x, inp).bind(k, resume), body, ())
                            ty = Fun(inp, Fun(resume, body_ty))
                        case _:
                            ty = checker._synth(ctx, clause, ())
                match ty:
                    case Fun(_, Fun(_, Comp(effects, _))):
                        grown = grown.union(effects)
                typed.append(ty)
            if grown == row:
                break
            row = grown
        result = Comp(row, delta)

    # If _synth(t) gives T, _check(t, W) succeeds iff subtype(T, W) (by
    # induction over _check's cases).  The last round resumed at the final
    # row, so a clause it typed is checked only to raise its error.
    for i, ((op, clause), ty) in enumerate(zip(t.clauses, typed)):
        clause_want = clause_type(_operation(ctx, op, path + (i,)), result)
        if ty is None or not subtype(ty, clause_want):
            checker._check(ctx, clause, clause_want, path + (i,))
    # without `want`, _fun_to_comp typed any other eta clause, and its type fits
    if want is not None or isinstance(t.eta_clause, Ann):
        checker._check(ctx, t.eta_clause, Fun(gamma, result), path + (n,))
    return result
