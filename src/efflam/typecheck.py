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

Each ascription and each handler is typed once per context, across
every `synthesize` and `check_against` call against it.  The checker
keeps on the node itself (`_typed`, a per-node cache like `free_vars`'
`_fv`, in a slot that ascriptions and handlers have and no other node:
`syntax._TypedNode`) every ascription that held and every handler type it
synthesized, with the context's token (`Context.typings`) and the types
the context gave the node's free variables, and reuses the result where
the same node is reached again in the same context and those types are
the same.  A node keeps the typings of the last context it was checked
in only, so nothing keeps a term or a context alive, and checking one
term in many contexts holds one set of typings per node.  The parser
inlines every use of a `def` as one shared ascription, so a lexical
entry is checked once per context, however many deep sentences and
later defs use it, and a file of defs that build on each other checks
in time linear in its size (a node's free variables are asked for only
when it is reached again in another scope, and `free_vars` keeps them
on the node, so listing a def's stops at the defs it uses); and a
handler nested in a clause body is typed once, not once per round of
the enclosing row guess, unless it mentions a variable whose type the
guess changes.  Reuse is exact: a context's atoms, constants and
operations do not change once a term is checked against it, so a
term's typing depends on the context only through the types of its
free variables (Bauer & Pretnar, "An Effect System for Algebraic
Effects and Handlers", LMCS 2014).  A handler's failure is recorded
too, as its kind, message and path below the handler, and raised again
at the path where the handler is reached next in a context that gives
its free variables the same types.  A handler checked against a wanted
type, after its synthesis failed, is recorded the same way under that
type.  So a handler nested in a failing one is neither synthesized nor
checked again: checking d failing one-clause handlers, each in the
clause of the next, enters the handler rule 3d - 1 times, not
exponentially often.  An ascription is recorded only where it held.
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
    Fun,
    Handler,
    Op,
    Path,
    Signature,
    Term,
    Type,
    Var,
    _cache,
    free_vars,
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
    if s is t:
        return True
    cls = type(s)
    # types are interned, so two distinct atoms have distinct names
    if cls is not type(t) or cls is Atom:
        return False
    if cls is Fun:
        return subtype(t.dom, s.dom) and subtype(s.cod, t.cod)
    return cls is Comp and s.effects.subset_of(t.effects) and subtype(s.value, t.value)


def well_formed(ctx: Context, ty: Type, path: Path = ()) -> None:
    """Reject types naming undeclared atoms or misdeclared operations."""
    cls = type(ty)
    if cls is Atom:
        if ty.name not in ctx.atoms:
            _fail("unknownName", path, "atom %s is not declared", ty.name)
    elif cls is Fun:
        well_formed(ctx, ty.dom, path)
        well_formed(ctx, ty.cod, path)
    elif cls is Comp:
        for name, inp, out in ty.effects:
            if _operation(ctx, name, path) != (inp, out):
                _fail(
                    "mismatch",
                    path,
                    "operation %s used at a type other than its declaration",
                    name,
                )
        well_formed(ctx, ty.value, path)


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
    return _synth(ctx, t, ())


def check_against(ctx: Context, t: Term, ty: Type) -> None:
    _check(ctx, t, ty, ())


def _recall(ctx: Context, t: Term, want: Type | None = None) -> tuple[Type | None, list]:
    """The type recorded on `t` in `ctx`'s context, checked against
    `want` if given, under the types that `ctx` gives its free
    variables, or None; and `t`'s entry, to record in.

    `t._typed` is `(token, {want: entry})` for the last context `t` was
    reached in.  An entry is `[first, found, later]`: `first` the
    variables of the first scope `t` was reached in, and `found` its type
    or failure there; `later` {the types of `t`'s free variables (in
    `free_vars` order): type or failure}, made once `t` is reached in
    another scope (None until then).  A handler that failed is recorded
    as `(kind, path below it, template, args)`; an ascription that
    failed is not recorded, and is checked afresh.
    """
    typed = t._typed
    if typed is None or typed[0] is not ctx.typings:
        typed = (ctx.typings, {})
        _cache(t, "_typed", typed)
    entry = typed[1].get(want)
    if entry is None:
        entry = typed[1][want] = [ctx.vars, None, None]
        return None, entry
    first, found, later = entry
    bound = ctx.vars
    if bound is first:
        return found, entry
    if later is None:
        later = entry[2] = {}
        if found is not None:
            later[_types_of_free_vars(first, t)] = found
    return later.get(_types_of_free_vars(bound, t)), entry


def _record(entry: list, ctx: Context, t: Term, ty: Type) -> None:
    bound = ctx.vars
    if bound is entry[0]:
        entry[1] = ty
    else:  # _recall has made `later`
        entry[2][_types_of_free_vars(bound, t)] = ty


def _handler(ctx: Context, t: Handler, path: Path, want: Comp | None = None) -> Comp:
    """`_handler_rule`, run once per context and wanted type."""
    got, entry = _recall(ctx, t, want)
    if got is None:
        try:
            got = _handler_rule(ctx, t, path, want)
        except TypeCheckError as e:
            # kept relative: the same error passes every enclosing handler
            got = (e.kind, e.path[len(path) :], e.template, e.args[3:])
            _record(entry, ctx, t, got)
            raise
        _record(entry, ctx, t, got)
    if isinstance(got, tuple):  # failed before in this context
        kind, below, template, args = got
        _fail(kind, path + below, template, *args)
    return got


def _synth(ctx: Context, t: Term, path: Path) -> Type:
    cls = type(t)
    if cls is Var:
        if t.name in ctx.vars:
            return ctx.vars[t.name]
        _fail("unknownName", path, "unbound variable %s", t.name)
    if cls is App:
        fn = t.fn
        if type(fn) is Abs:
            # immediately applied lambda: type the argument, then the body
            arg_ty = _synth(ctx, t.arg, path + (1,))
            return _synth(ctx.bind(fn.binder, arg_ty), fn.body, path + (0, 0))
        fn_ty = _synth(ctx, fn, path + (0,))
        if type(fn_ty) is not Fun:
            _fail("notAFunction", path + (0,), "applied term has type %s", fn_ty)
        _check(ctx, t.arg, fn_ty.dom, path + (1,))
        return fn_ty.cod
    if cls is ConstTerm:
        if t.name in ctx.constants:
            return ctx.constants[t.name]
        _fail("unknownName", path, "unknown constant %s", t.name)
    if cls is Ann:
        # a recorded ascription is well formed: that depends only
        # on the call's atoms and operations
        held, entry = _recall(ctx, t)
        if held is None:
            well_formed(ctx, t.ty, path)
            _check(ctx, t.term, t.ty, path)
            _record(entry, ctx, t, t.ty)
        return t.ty
    if cls is Eta:
        return Comp(EMPTY_ROW, _synth(ctx, t.value, path + (0,)))
    if cls is Op:
        inp, out = entry = _operation(ctx, t.op, path)
        _check(ctx, t.param, inp, path + (0,))
        cont_ty = _synth(ctx.bind(t.binder, out), t.cont, path + (1,))
        if type(cont_ty) is not Comp:
            _fail(
                "notAComputation",
                path + (1,),
                "operation continuation has type %s",
                cont_ty,
            )
        row = cont_ty.effects.union(Signature.of({t.op: entry}))
        return Comp(row, cont_ty.value)
    if cls is Handler:
        return _handler(ctx, t, path)
    if cls is Abs:
        _fail("annotationRequired", path, "cannot synthesize a type for a bare lambda")
    if cls is Cherry:
        comp_ty = _synth(ctx, t.comp, path + (0,))
        if type(comp_ty) is not Comp:
            _fail("notAComputation", path + (0,), "extraction from type %s", comp_ty)
        if not comp_ty.effects.is_empty():
            _fail(
                "rowNotEmpty",
                path + (0,),
                "extraction requires an empty effect row, found {%s}",
                ", ".join(comp_ty.effects.names()),
            )
        return comp_ty.value
    if cls is Exchange:
        fn_ty = _synth(ctx, t.fn, path + (0,))
        if type(fn_ty) is not Fun:
            _fail("notAFunction", path + (0,), "commuted term has type %s", fn_ty)
        if type(fn_ty.cod) is not Comp:
            _fail(
                "notAComputation",
                path + (0,),
                "commuted function returns %s",
                fn_ty.cod,
            )
        return Comp(fn_ty.cod.effects, Fun(fn_ty.dom, fn_ty.cod.value))
    raise TypeError(f"not a term: {t!r}")

def _fun_to_comp(ctx: Context, f: Term, dom: Type, path: Path) -> tuple[Type, Signature]:
    """Value type and row of `f dom` for a clause-position function term."""
    cls = type(f)
    if cls is Ann:
        ty = f.ty
        if type(ty) is Fun and type(ty.cod) is Comp and subtype(dom, ty.dom):
            return ty.cod.value, ty.cod.effects
    elif cls is Abs:
        body_ty = _synth(ctx.bind(f.binder, dom), f.body, path + (0,))
        if type(body_ty) is not Comp:
            _fail("clauseShape", path, "clause returns %s, not a computation", body_ty)
        return body_ty.value, body_ty.effects
    f_ty = _synth(ctx, f, path)
    if not (type(f_ty) is Fun and type(f_ty.cod) is Comp and subtype(dom, f_ty.dom)):
        _fail("clauseShape", path, "clause has type %s", f_ty)
    return f_ty.cod.value, f_ty.cod.effects

def _check(ctx: Context, t: Term, want: Type, path: Path) -> None:
    # a guarded rule whose guard fails falls through to subsumption
    cls = type(t)
    if cls is Ann:
        held, entry = _recall(ctx, t)
        if held is None:
            well_formed(ctx, t.ty, path)
        if not subtype(t.ty, want):
            _fail("mismatch", path, "ascription %s does not fit %s", t.ty, want)
        if held is None:
            _check(ctx, t.term, t.ty, path)
            _record(entry, ctx, t, t.ty)
        return
    if cls is Abs:
        if type(want) is not Fun:
            _fail("mismatch", path, "lambda checked against %s", want)
        _check(ctx.bind(t.binder, want.dom), t.body, want.cod, path + (0,))
        return
    if cls is App:
        fn = t.fn
        if type(fn) is Abs:
            arg_ty = _synth(ctx, t.arg, path + (1,))
            _check(ctx.bind(fn.binder, arg_ty), fn.body, want, path + (0, 0))
            return
    elif cls is Eta:
        if type(want) is Comp:
            _check(ctx, t.value, want.value, path + (0,))
            return
    elif cls is Op:
        if type(want) is Comp:
            entry = _operation(ctx, t.op, path)
            if want.effects.get(t.op) != entry:
                _fail(
                    "mismatch",
                    path,
                    "operation %s is not available in row {%s}",
                    t.op,
                    ", ".join(want.effects.names()),
                )
            _check(ctx, t.param, entry[0], path + (0,))
            _check(ctx.bind(t.binder, entry[1]), t.cont, want, path + (1,))
            return
    elif cls is Handler:
        if type(want) is Comp:
            # A synthesized result is exact, and recorded for the
            # subsumption check below; pushing the wanted row into the
            # resumption types, where it sits contravariantly, may
            # reject a handler whose synthesized type fits.
            try:
                _synth(ctx, t, path)
            except TypeCheckError:
                _handler(ctx, t, path, want)
                return
    elif cls is Cherry:
        _check(ctx, t.comp, Comp(EMPTY_ROW, want), path + (0,))
        return
    elif cls is Exchange:
        if type(want) is Comp and type(want.value) is Fun:
            inner = Fun(want.value.dom, Comp(want.effects, want.value.cod))
            _check(ctx, t.fn, inner, path + (0,))
            return
    got = _synth(ctx, t, path)
    if not subtype(got, want):
        _fail("mismatch", path, "expected %s, found %s", want, got)


def _types_of_free_vars(bound: dict[str, Type], t: Term) -> tuple:
    """The types `bound` gives the free variables of `t`, in the order of
    its cached `free_vars`: one set object per node, so one order."""
    return tuple([bound.get(name) for name in free_vars(t)])


def _performs(ty: Type | None) -> Signature | None:
    """The row of a clause-shaped type `_ -> _ -> F{row}(_)`, else None."""
    if type(ty) is Fun and type(ty.cod) is Fun and type(ty.cod.cod) is Comp:
        return ty.cod.cod.effects
    return None


def _handler_rule(ctx: Context, t: Handler, path: Path, want: Comp | None = None) -> Comp:
    """The handler's type: `want` if given and the handler checks against
    it, else the least type found by guessing and growing its row."""
    n = len(t.clauses)
    scrut_path = path + (n + 1,)
    scrut_ty = _synth(ctx, t.scrutinee, scrut_path)
    if type(scrut_ty) is not Comp:
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
        delta, row = _fun_to_comp(ctx, t.eta_clause, gamma, path + (n,))
        row = residual.union(row)

        # operation clauses may perform further operations: each round types
        # every clause once at the current guess and grows it, to a fixpoint
        while True:
            grown, typed = row, []
            for (_, clause), (inp, out) in zip(t.clauses, entries):
                ty = None
                stated = _performs(clause.ty) if type(clause) is Ann else None
                if stated is not None:
                    grown = grown.union(stated)  # read off; checked below
                else:
                    with suppress(TypeCheckError):
                        body = clause.body if type(clause) is Abs else None
                        if type(body) is Abs:
                            resume = Fun(out, Comp(row, delta))
                            inner = ctx.bind(clause.binder, inp).bind(body.binder, resume)
                            ty = Fun(inp, Fun(resume, _synth(inner, body.body, ())))
                        else:
                            ty = _synth(ctx, clause, ())
                    performed = _performs(ty)
                    if performed is not None:
                        grown = grown.union(performed)
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
            _check(ctx, clause, clause_want, path + (i,))
    # without `want`, _fun_to_comp typed any other eta clause, and its type fits
    if want is not None or type(t.eta_clause) is Ann:
        _check(ctx, t.eta_clause, Fun(gamma, result), path + (n,))
    return result
