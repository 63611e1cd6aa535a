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

One scan, `_search`, visits the nodes in leftmost-outermost order
(pre-order, children left to right) and stops at the first one that a
test accepts.  It finds the normalizer's next redex, every redex in the
order in which `candidates` lists them and the random strategy numbers
them, and the first stuck node.

A leftmost-outermost step costs work near the redex, not work in the
depth or size of the whole term.  The normalizer holds the term as a
zipper: a focus plus one frame per ancestor (Huet, "The Zipper", JFP
1997).  It contracts the focus, rebuilds only the ancestors whose redex
test the step can have changed, right before re-testing them, and plugs
any other frame back into its parent only when the zipper leaves it, so
it never rebuilds the path to the root per step, and it plugs each frame
at most once per step.  The focus is held without its ascriptions: they
form a run of its own, a contractum's new ascriptions join the run on
the inside, and the run is wrapped around the focus again only when the
focus goes back into its parent, or the term is recorded or returned.
So the ascriptions that a long chain of betas on ascribed functions
piles up are wrapped once, not once per step.  The leftmost-outermost
search resumes where the last step was made.  Everything to the left of
the contracted position is unchanged by the step and was already found
free of redexes, so only three places can hold the next redex:

- an ancestor that the step made a redex.  A rule reads at most a
  node's grandchildren, and mostly one child: an application its
  function, an abstraction its body, a handler its scrutinee, an
  extraction its computation, a commute its function (`_READS`).  So
  the parent is re-tested only when the focus is the child it reads,
  and the grandparent only where the rule reads the focus as a
  grandchild: eta, of the argument and the function of its body, and
  cEta and cOp, of the body of their function
  (`_READS_GRANDCHILDREN`).  Further up, only the side conditions of
  eta (the binder is not free in the function) and cOp (the commuted
  binder is not free in the operation's parameter) read deeper, and
  they can only turn true when the step removes a free variable.  Only
  two rules do: a beta whose binder is not free in its body drops its
  argument, and bananaEta drops the handler's operation clauses.  Every
  other rule keeps the redex's free variables.  So only after such a
  step are the ancestors up to the outermost `Abs` binding a dropped
  variable (or the `Exchange` right above it) re-tested, outermost
  first;
- the contractum;
- the right siblings of each ancestor, deepest first.

Free variables come from `free_vars`, which computes them once per
node and keeps them on the node, in a slot that the node is built with
(`syntax._Node`), so they live exactly as long as the term does and
cost no memory beyond the set.  They answer the side conditions
above, and tell whether a step drops a variable.  Substitution asks
them too, and enters only the subterms that mention the substituted
variable, so a step rebuilds only the paths to its occurrences, and a
subterm that later steps pass on unchanged, such as the rest of a long
chain of handled operations, is walked once, not once per step.

The random strategy draws one of the term's redexes uniformly, numbered
in `candidates` order, but it never lists them: like free variables, the
number of redexes in a node's subtree is counted once and kept on the
node, in its `_nredex` slot (`_redexes`), so the counts live exactly as
long as the term does.
It steps on the same zipper, whose frames then also hold three counts:
whether the frame's node is a redex, and the redexes in its children
left and right of the path.  In `candidates` order the frames' own
redexes and left children come first, root first, then the focus, then
the frames' right children, deepest first, so the frames place the
drawn redex without a walk from the root (`_draw`).  A redex outside the
focus is reached by popping up to the frame that holds it, and each node
rebuilt on the way gets its count from its frame's and the focus's; a
frame that holds it in a child other than the path's is not popped but
re-aimed at that child.
Then the zipper walks down by the counts: a node is itself a redex
exactly when it counts more redexes than its children.  After a step,
only the contractum's new nodes are counted, and only the frames that
leftmost-outermost would re-test have their own count re-tested (see
above).  The draw is `rng.choice(range(n))` for `n` redexes, which
consumes the generator exactly as `rng.choice` over the list of the `n`
candidates does, so a seed gives the same steps whether the candidates
are listed or counted.
"""

from __future__ import annotations

import random
from collections import deque
from enum import Enum
from typing import Sequence

from .syntax import (
    Abs,
    Ann,
    App,
    Cherry,
    Comp,
    Const,
    Eta,
    Exchange,
    Fun,
    Handler,
    Op,
    Path,
    Record,
    Term,
    Var,
    _cache,
    canonical_key,
    children,
    free_vars,
    nodes,
    rebuild,
    record,
    rename,
    strip,
    subst,
)


class Rule(str, Enum):
    beta = "beta"
    eta = "eta"
    bananaEta = "bananaEta"
    bananaOp = "bananaOp"
    bananaOpForward = "bananaOpForward"
    cherry = "cherry"
    cEta = "cEta"
    cOp = "cOp"


@record
class Step(Record):
    """One contraction: the rule, the position it rewrote, and the whole
    term after it."""

    rule: Rule
    path: Path
    term: Term


@record
class NormalForm(Record):
    """Outcome: no redex is left."""


@record
class Stuck(Record):
    """Outcome: no redex is left, but the extraction or commute at `path`
    is blocked, for `reason`."""

    path: Path
    reason: str


@record
class FuelExhausted(Record):
    """Outcome: the fuel ran out before a normal form was reached."""


Outcome = NormalForm | Stuck | FuelExhausted


@record
class ReductionTrace(Record):
    """The outcome of a normalization.  `steps` is empty unless steps
    were recorded; `step_count` counts them either way."""

    initial: Term
    steps: list[Step]
    outcome: Outcome
    final: Term
    step_count: int


class ConfluenceError(Exception):
    """Exhaustive checking found two distinct normal forms."""


def _peel(t: Term) -> tuple[Sequence, Term]:
    """Ascription types outermost-first, and the term under them."""
    if type(t) is not Ann:
        return (), t
    tys = []
    while isinstance(t, Ann):
        tys.append(t.ty)
        t = t.term
    return tys, t


def _rewrap(tys: Sequence, t: Term) -> Term:
    for ty in reversed(tys):
        t = Ann(t, ty)
    return t


def subterm_at(t: Term, path: Path) -> Term:
    for i in path:
        t = children(strip(t))[i]
    return t


# ---------------------------------------------------------------------------
# Redex recognition and contraction


def _rule_at(s: Term) -> Rule | None:
    """The rule contracting the ascription-free node `s`, if any."""
    cls = type(s)
    if cls is App:
        return Rule.beta if type(strip(s.fn)) is Abs else None
    if cls is Abs:
        body = strip(s.body)
        if type(body) is App:
            arg = strip(body.arg)
            if type(arg) is Var and arg.name == s.binder and s.binder not in free_vars(body.fn):
                return Rule.eta
        return None
    if cls is Handler:
        call = strip(s.scrutinee)
        if type(call) is Eta:
            return Rule.bananaEta
        if type(call) is Op:
            handled = any(call.op == name for name, _ in s.clauses)
            return Rule.bananaOp if handled else Rule.bananaOpForward
        return None
    if cls is Cherry:
        return Rule.cherry if type(strip(s.comp)) is Eta else None
    if cls is Exchange:
        lam = strip(s.fn)
        if type(lam) is Abs:
            body = strip(lam.body)
            if type(body) is Eta:
                return Rule.cEta
            if type(body) is Op and lam.binder not in free_vars(body.param):
                return Rule.cOp
    return None


def _commute_ann(fn_anns: Sequence) -> Fun | None:
    """The innermost of a commuted function's ascriptions that the
    commuted function can keep: a function type returning a computation."""
    for ty in reversed(fn_anns):
        if isinstance(ty, Fun) and isinstance(ty.cod, Comp):
            return ty
    return None


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
            body = strip(s.body)
            assert isinstance(body, App)
            return body.fn
        case Rule.bananaEta:
            assert isinstance(s, Handler)
            injected = strip(s.scrutinee)
            assert isinstance(injected, Eta)
            return App(s.eta_clause, injected.value)
        case Rule.bananaOp | Rule.bananaOpForward:
            assert isinstance(s, Handler)
            call = strip(s.scrutinee)
            assert isinstance(call, Op)
            binder, cont = call.binder, call.cont
            clause_fv = free_vars(s.eta_clause)
            for _, clause in s.clauses:
                clause_fv |= free_vars(clause)
            if binder in clause_fv:
                binder, cont = rename(binder, cont, clause_fv)
            pushed = Handler(s.clauses, s.eta_clause, cont)
            if rule is Rule.bananaOp:
                clause = s.clause_for(call.op)
                assert clause is not None
                return App(App(clause, call.param), Abs(binder, pushed))
            return Op(call.op, call.param, binder, pushed)
        case Rule.cherry:
            assert isinstance(s, Cherry)
            injected = strip(s.comp)
            assert isinstance(injected, Eta)
            return injected.value
        case Rule.cEta:
            assert isinstance(s, Exchange)
            fn_anns, lam = _peel(s.fn)
            assert isinstance(lam, Abs)
            injected = strip(lam.body)
            assert isinstance(injected, Eta)
            usable = _commute_ann(fn_anns)
            result_fn = Abs(lam.binder, injected.value)
            if usable is not None:
                result_fn = Ann(result_fn, Fun(usable.dom, usable.cod.value))
            return Eta(result_fn)
        case Rule.cOp:
            assert isinstance(s, Exchange)
            fn_anns, lam = _peel(s.fn)
            assert isinstance(lam, Abs)
            call = strip(lam.body)
            assert isinstance(call, Op)
            binder, cont = call.binder, call.cont
            if binder == lam.binder:
                binder, cont = rename(binder, cont, frozenset())
            usable = _commute_ann(fn_anns)
            inner_fn: Term = Abs(lam.binder, cont)
            if usable is not None:
                inner_fn = Ann(inner_fn, usable)
            return Op(call.op, call.param, binder, Exchange(inner_fn))
    raise AssertionError(f"unhandled rule {rule}")


def _search(stack: list[tuple[Term, Path]], test) -> tuple | None:
    """The first node in leftmost-outermost order (pre-order, children
    left to right) among the subterms on `stack`, the next one on top,
    where `test(node)` is not None: that value, and the node's
    position relative to them.  The node's children are pushed before
    it is tested, so `stack` is left where the scan resumes after it;
    a bare variable or constant child is not pushed, as no test accepts
    a leaf."""
    # the hot loop of normalization, hence the bound methods and the
    # inlined `strip`
    pop, push = stack.pop, stack.append
    while stack:
        s, at = pop()
        while isinstance(s, Ann):
            s = s.term
        kids = children(s)
        i = len(kids)
        while i:
            i -= 1
            kid = kids[i]
            cls = type(kid)
            if cls is not Var and cls is not Const:
                push((kid, at + (i,)))
        found = test(s)
        if found is not None:
            return found, at
    return None


def candidates(t: Term) -> list[tuple[Rule, Path]]:
    """Every redex of `t` as (rule, position), leftmost-outermost first."""
    found: list[tuple[Rule, Path]] = []
    stack: list[tuple[Term, Path]] = [(t, ())]
    while (hit := _search(stack, _rule_at)) is not None:
        found.append(hit)
    return found


def contract_at(t: Term, path: Path, rule: Rule) -> Term:
    """One step: contract the redex at `path`, keeping its ascriptions.

    Only the nodes on `path` are rebuilt; every other subterm is shared
    with `t`.
    """
    if not path and type(t) is not Ann:
        # the zipper's step, on its ascription-free focus
        return _contract(t, rule)
    frames: list[list] = []
    tys, s = _descend(frames, *_peel(t), path)
    return _rewrap(*_whole(frames, _contract(s, rule), tys))


def reducts(t: Term) -> list[tuple[Rule, Path, Term]]:
    """All one-step reducts of `t`."""
    return [(rule, path, contract_at(t, path, rule)) for rule, path in candidates(t)]


def _blocked(s: Term) -> str | None:
    """Why the ascription-free node `s` is a stuck extraction or commute."""
    cls = type(s)
    if cls is Exchange:
        lam = strip(s.fn)
        if type(lam) is Abs:
            call = strip(lam.body)
            if type(call) is Op and lam.binder in free_vars(call.param):
                return (
                    f"commute is stuck: the parameter of operation "
                    f"{call.op} mentions the commuted variable {lam.binder}"
                )
    elif cls is Cherry:
        call = strip(s.comp)
        if type(call) is Op:
            return f"extract is stuck: the computation performs operation {call.op}"
    return None


def blocked_at(t: Term) -> tuple[Path, str] | None:
    """First blocked extraction or commute in `t`, if any."""
    hit = _search([(t, ())], _blocked)
    return None if hit is None else (hit[1], hit[0])


# ---------------------------------------------------------------------------
# Reduction graphs


@record
class ReductionGraph(Record):
    """Every term reachable from `root`, one node per alpha-equivalence
    class (keyed by `canonical_key`), so `normal_forms` holds one term
    per distinct normal form."""

    root: Term
    nodes: dict[str, Term]
    edges: list[tuple[str, Rule, Path, str]]
    normal_forms: list[Term]
    complete: bool


def reduction_graph(term: Term, budget: int = 2000) -> ReductionGraph:
    """Breadth-first exploration of every reduction order from `term`.

    At most `budget` nodes are kept; a reduct that would be one more
    marks the graph incomplete and is not explored.
    """
    root_key = canonical_key(term)
    nodes = {root_key: term}
    edges: list[tuple[str, Rule, Path, str]] = []
    normal_forms: list[Term] = []
    # each term is queued with its key, so it is keyed once
    queue = deque([(term, root_key)])
    complete = True
    while queue:
        current, current_key = queue.popleft()
        nexts = reducts(current)
        if not nexts:
            normal_forms.append(current)
            continue
        for rule, path, reduced in nexts:
            key = canonical_key(reduced)
            edges.append((current_key, rule, path, key))
            if key not in nodes:
                if len(nodes) >= budget:
                    complete = False
                    continue
                nodes[key] = reduced
                queue.append((reduced, key))
    return ReductionGraph(term, nodes, edges, normal_forms, complete)


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
    reduction order, up to `fuel` distinct terms, and insists on one
    normal form, raising ConfluenceError otherwise; an exploration cut
    short by the fuel reports FuelExhausted at the initial term).

    `fuel` bounds the number of steps: a term whose normal form is
    `fuel` steps away reaches it.  A negative `fuel` is a ValueError.

    randomSeeded numbers the redexes of the term in `candidates` order
    before each step and takes number `rng.choice(range(n))` from a
    `random.Random(seed)`.  That is the draw `rng.choice` makes from a
    list of `n` candidates, so a seed fixes the same reduction sequence
    as a strategy that lists them.  Both strategies step on one zipper
    (see the module docstring); the random one counts the redexes per
    subterm and per frame instead of listing them, so a step costs work
    in the depth of the last redex and the next, not in the term's size.
    """
    if fuel < 0:
        raise ValueError(f"fuel must not be negative, got {fuel}")
    if strategy == "exhaustiveCheck":
        graph = reduction_graph(t, fuel)
        if not graph.complete:
            return ReductionTrace(t, [], FuelExhausted(), t, 0)
        if len(graph.normal_forms) > 1:
            raise ConfluenceError(f"{len(graph.normal_forms)} distinct normal forms reached")
        strategy = "leftmostOutermost"
    if strategy not in ("leftmostOutermost", "randomSeeded"):
        raise ValueError(f"unknown strategy {strategy!r}")
    if strategy == "leftmostOutermost":
        return _zipper(t, fuel, record_steps)
    return _zipper(t, fuel, record_steps, random.Random(seed))


def _discarded_vars(s: Term, rule: Rule) -> frozenset[str]:
    """The free variables of the redex `s` that its contractum lacks:
    those of a dropped beta argument or of dropped handler clauses."""
    if rule is Rule.beta:
        lam = strip(s.fn)
        body_fv = free_vars(lam.body)
        if lam.binder in body_fv:
            return _KEPT
        return free_vars(s.arg) - body_fv
    if rule is Rule.bananaEta and s.clauses:
        dropped = frozenset().union(*(free_vars(clause) for _, clause in s.clauses))
        return dropped - free_vars(s.eta_clause) - free_vars(strip(s.scrutinee).value)
    return _KEPT


_KEPT: frozenset[str] = frozenset()


def _ended(t: Term, steps: list[Step], final: Term, count: int) -> ReductionTrace:
    """The trace of a normalization that found no redex in `final`."""
    hit = blocked_at(final)
    outcome = NormalForm() if hit is None else Stuck(*hit)
    return ReductionTrace(t, steps, outcome, final, count)


# The children that `_rule_at` reads: after a step, the zipper re-tests
# only the ancestors that read the changed position (see the module
# docstring).  By class, the one child, counted from the end, whose shape
# decides the rule; a node of another class is never a redex.
_READS = {App: -2, Abs: -1, Handler: -1, Cherry: -1, Exchange: -1}
# the (node, child) classes where the rule reads the child's children too
_READS_GRANDCHILDREN = {(Abs, App), (Exchange, Abs)}


def _zipper(
    t: Term, fuel: int, record_steps: bool, rng: random.Random | None = None
) -> ReductionTrace:
    """Normalization on a zipper: leftmost-outermost, or with `rng` the
    random strategy (see the module docstring for why each step re-tests
    only a few ancestors).

    The term is held as a focus plus one frame per ascription-free
    ancestor, root first: [ascriptions, node, children, child index],
    and under the random strategy three redex counts: the node's own (1
    when it is a redex, else 0), its children's left of the index, and
    right of it.  The focus is held without its ascriptions, which form
    its own run (outermost first), and a contractum's ascriptions join
    the run on the inside.  The frames from `fresh` down are up to date:
    the child at each one's index is the node below under its run.  A
    step makes them all stale; a stale frame is rebuilt, with the node
    below wrapped in its run and plugged back in, only right before it
    is re-tested after a step, when the zipper leaves it, and when the
    whole term is recorded or returned, and then it is up to date until
    the next step.
    """
    frames: list[list] = []
    run, focus = _peel(t)
    steps: list[Step] = []
    count = fresh = 0
    if rng is None:
        hit = _search([(focus, ())], _rule_at)
    else:
        # the running number of redexes in the whole term
        total = _redexes(focus)
    while (hit is not None) if rng is None else total:
        if count == fuel:
            whole = _rewrap(*_whole(frames, focus, run, 0, fresh))
            return ReductionTrace(t, steps, FuelExhausted(), whole, count)
        if rng is None:
            rule, path = hit
            if path:
                run, focus = _descend(frames, run, focus, path)
        else:
            # draws from the RNG exactly as `rng.choice(candidates(term))`
            rule, run, focus, fresh = _draw(frames, run, focus, fresh, rng.choice(range(total)))
            total -= focus._nredex
        # the outermost frame whose redex test the step can change: a
        # binder further up whose variable the step drops, ...
        n = top = len(frames)
        if n > 2:
            discarded = _discarded_vars(focus, rule)
            if discarded:
                # frames[n - 2] too: it may be the Abs of an Exchange above it
                for j in range(n - 1):
                    s = frames[j][1]
                    if type(s) is Abs and s.binder in discarded:
                        top = j - 1 if j and type(frames[j - 1][1]) is Exchange else j
                        break
        # ... or an ancestor that reads the focus
        if n > 1 and (type(frames[-2][1]), type(frames[-1][1])) in _READS_GRANDCHILDREN:
            top = min(top, n - 2)
        elif n and frames[-1][3] - len(frames[-1][2]) == _READS.get(type(frames[-1][1])):
            top = min(top, n - 1)
        # the one call per step that contracts: the benchmark's tracer
        # counts steps and rules by wrapping `contract_at`
        focus = contract_at(focus, (), rule)
        if type(focus) is Ann:
            run, focus = _into_run(run, focus)
        count += 1
        fresh = n
        if record_steps:
            path = tuple(frame[3] for frame in frames)
            steps.append(Step(rule, path, _rewrap(*_whole(frames, focus, run))))
            fresh = 0
        # bring frames[top:] up to date, then re-test them outermost first
        if top < fresh:
            _whole(frames, focus, run, top, fresh)
            fresh = top
        if rng is not None:
            total += _redexes(focus)
            for k in range(top, n):
                frame = frames[k]
                own = 0 if _rule_at(frame[1]) is None else 1
                total += own - frame[4]
                frame[4] = own
            continue
        hit = None
        if top < n:
            for k in range(top, n):
                rule = _rule_at(frames[k][1])
                if rule is not None:
                    run, focus = frames[k][0], frames[k][1]
                    del frames[k:]
                    hit = (rule, ())
                    break
            if hit is not None:
                continue
        # then the contractum, then the right siblings of each ancestor,
        # deepest first
        hit = _search([(focus, ())], _rule_at)
        while hit is None and frames:
            frame = frames[-1]
            _, _, kids, i = frame
            if i + 1 < len(kids):
                hit = _search([(kids[j], (j,)) for j in range(len(kids) - 1, i, -1)], _rule_at)
                if hit is not None:
                    if len(frames) <= fresh:
                        kids[i] = _rewrap(run, focus)
                    rule, (j, *path) = hit
                    frame[3] = j
                    run, focus = _peel(kids[j])
                    hit = (rule, path)
                    break
            tys, s, kids, i = frames.pop()
            if len(frames) < fresh:
                kids[i] = _rewrap(run, focus)
                s = rebuild(s, kids)
                fresh = len(frames)
            run, focus = tys, s
    if frames:
        run, focus = _whole(frames, focus, run, 0, fresh)
    return _ended(t, steps, _rewrap(run, focus), count)


def _draw(frames: list[list], run: Sequence, focus: Term, fresh: int, k: int) -> tuple:
    """Move the random strategy's zipper to redex number `k` (from 0) in
    `candidates` order: its rule, the new focus's run and node, and the
    new `fresh`.

    In pre-order, the frames' own redexes and left children come first,
    root first, then the focus, then the frames' right children, deepest
    first.  A redex outside the focus is reached by popping up to the
    frame that holds it, whose node becomes the focus when it is the
    redex; each node passed on the way gets its count from its frame's
    and the focus's.  A frame that holds it in another child stays, its
    index and its left and right counts re-aimed at that child.  Then
    the zipper walks down by the counts: a node is itself a redex exactly
    when it counts more redexes than its children do together."""
    # the frame whose node's subtree holds the drawn redex, and `k`
    # counted in that subtree
    inner = below = _redexes(focus)
    top = len(frames)
    for j, frame in enumerate(frames):
        if k < frame[4] + frame[5]:
            top = j
            break
        k -= frame[4] + frame[5]
    else:
        if k >= inner:
            k -= inner
            for top in range(len(frames) - 1, -1, -1):
                frame = frames[top]
                if k < frame[6]:
                    k += frame[4] + frame[5] + below
                    break
                k -= frame[6]
                below += frame[4] + frame[5] + frame[6]
    # pop up to the frame that holds the drawn redex; one whose node's
    # children hold it stays, aimed at the child that does
    while len(frames) > top:
        frame = frames[-1]
        if len(frames) == top + 1 and k >= frame[4]:
            if top < fresh:
                frame[2][frame[3]] = _rewrap(run, focus)
            break
        frames.pop()
        node = frame[1]
        if len(frames) < fresh:
            kids = frame[2]
            kids[frame[3]] = _rewrap(run, focus)
            node = rebuild(node, kids)
            fresh = len(frames)
        inner += frame[4] + frame[5] + frame[6]
        if node._nredex is None:
            _cache(node, "_nredex", inner)
        run, focus = frame[0], node
    else:
        frame = None
    while True:
        if frame is None:
            kids = children(focus)
            counts = [_redexes(kid) for kid in kids]
            own = focus._nredex - sum(counts)
            if k < own:
                return _rule_at(focus), run, focus, fresh
            frame = [run, focus, list(kids), 0, own, 0, 0]
            frames.append(frame)
        else:
            counts = [_redexes(kid) for kid in frame[2]]
        k -= frame[4]
        left = 0
        for i, n in enumerate(counts):
            if k < n:
                break
            k -= n
            left += n
        frame[3], frame[5], frame[6] = i, left, sum(counts) - left - n
        run, focus = _peel(frame[2][i])
        frame = None


def _into_run(run: list, t: Term) -> tuple[list, Term]:
    """`t` without its outer ascriptions, which join the ascription run
    `run` on the inside: the run, extended in place, and the node."""
    tys, t = _peel(t)
    if tys:
        if run:
            run.extend(tys)
        else:
            run = tys
    return run, t


def _descend(frames: list[list], run: Sequence, focus: Term, path: Path) -> tuple:
    """The subterm of `focus`, an ascription-free node under the run
    `run`, at `path`, as its run and node, pushing a frame for each node
    passed on the way."""
    for i in path:
        kids = list(children(focus))
        frames.append([run, focus, kids, i])
        run, focus = _peel(kids[i])
    return run, focus


def _whole(
    frames: list[list], focus: Term, run: Sequence, top: int = 0, fresh: int | None = None
) -> tuple:
    """The subterm at frames[top], with `focus` under its run `run`
    plugged in, as its own run and node.  The frames from `fresh` down
    (all of them by default) are already up to date; the others from
    `top` down are brought up to date on the way."""
    k = len(frames) if fresh is None else top if top > fresh else fresh
    if k < len(frames):
        run, focus = frames[k][0], frames[k][1]
    for k in range(k - 1, top - 1, -1):
        frame = frames[k]
        kids = frame[2]
        kids[frame[3]] = _rewrap(run, focus)
        frame[1] = focus = rebuild(frame[1], kids)
        run = frame[0]
    return run, focus


def _redexes(t: Term, room: int = 100) -> int:
    """The number of redexes of `t`, a shared subterm counted once per
    position, as in `candidates`.

    Terms are immutable, so each ascription-free compound node keeps its
    count on itself, as `_nredex`, once asked, and the counts live
    exactly as long as the term does.  Counting fills every uncounted
    node of `t`: it recurses, the fast way for the usual shallow term,
    while `room` levels are left; then it first fills the nodes below
    bottom-up from an explicit stack, so the recursion goes no deeper
    whatever the term's depth."""
    while type(t) is Ann:
        t = t.term
    cls = type(t)
    if cls is Var or cls is Const:
        return 0
    n = t._nredex
    if n is not None:
        return n
    if room <= 0:
        # deepest first, so that none of them recurses further
        for node in reversed(list(nodes(list(children(t)), lambda s: s._nredex is not None))):
            _redexes(node, 1)
    # after a step, all but one child of each new node are counted
    room -= 1
    n = 0 if _rule_at(t) is None else 1
    for kid in children(t):
        n += _redexes(kid, room)
    _cache(t, "_nredex", n)
    return n
