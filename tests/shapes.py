"""The untyped shape generator: the reference for typed enumeration.

`closed_shapes` lists every closed term over the verify signature by
size, typed or not, and `reference_typed` keeps those that `synthesize`
accepts.  `efflam.verify.enumerate_typed` builds only the typed ones;
the tests check that both give the same terms with the same types.
"""

from __future__ import annotations

import hashlib
import itertools
from functools import lru_cache

from efflam.surface import print_term, print_type
from efflam.syntax import (
    Abs,
    App,
    Cherry,
    Const,
    Eta,
    Exchange,
    Handler,
    Op,
    Term,
    Type,
    Var,
    size,
)
from efflam.typecheck import TypeCheckError, synthesize
from efflam.verify import CONTEXT

_CONSTS = (Const("a0"), Const("f0"), Const("*"))
_OPS = ("op1", "op2")


def _binder(depth: int) -> str:
    return f"b{depth}"


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


def reference_typed(max_size: int) -> list[tuple[Term, Type]]:
    """The closed shapes that synthesize, with their types: generate and filter."""
    out = []
    for t in closed_shapes(max_size):
        try:
            out.append((t, synthesize(CONTEXT, t)))
        except TypeCheckError:
            continue
    return out


def typed_digests(typed: list[tuple[Term, Type]]) -> str:
    """One line per size: the size, the number of typed terms, and a
    SHA-256 over their sorted lines `term<TAB>type`."""
    by_size: dict[int, list[str]] = {}
    for t, ty in typed:
        by_size.setdefault(size(t), []).append(f"{print_term(t)}\t{print_type(ty)}\n")
    return "".join(
        f"{n} {len(lines)} {hashlib.sha256(''.join(sorted(lines)).encode()).hexdigest()}\n"
        for n, lines in sorted(by_size.items())
    )
