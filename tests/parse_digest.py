"""Seeded parser inputs, and one digest of how each of them parses.

`sources` builds terms in surface syntax over the atoms, constants and
operations that `fragment.lam` declares, using every construct: lambdas,
application, the ten infix operators, `eta`, `extract`, `commute`,
operation calls, handlers with and without an eta clause, and
ascriptions whose types have arrows and effect rows.  Each term comes
with three token-level mutants: one token dropped, one duplicated, one
swapped with the next, so that most of them are malformed.
`parse_digest` parses each against `fragment.CONTEXT` and feeds the
source and `repr` of the term, or `str` of the `ParseError`, into one
SHA-256, and returns the number of sources and the digest.  After an
intended change of the parser, re-record from the repository root:

    PYTHONPATH=src python -c "from tests.parse_digest import parse_digest; \\
        print(parse_digest(), end='')" > tests/expected/parse-digest.txt
"""

from __future__ import annotations

import hashlib
import random

from efflam import fragment, surface
from efflam.surface import ParseError, parse_term

_CONTEXT = fragment.CONTEXT
_ATOMS = sorted(_CONTEXT.atoms)
_CONSTANTS = sorted(_CONTEXT.constants)
_OPERATIONS = list(_CONTEXT.operations.names())
_INFIX = list(surface._INFIX)
_BINDERS = ["x", "y", "k"]
_CONSTRUCTS = ["lambda", "app", "infix", "eta", "extract", "commute", "do", "handle", "ascribe"]


def _commas(items: list[list[str]]) -> list[str]:
    """The token lists of `items`, in order, separated by commas."""
    tokens: list[str] = []
    for i, item in enumerate(items):
        tokens += [","] * (i > 0) + item
    return tokens


def _type(rng: random.Random, depth: int) -> list[str]:
    """The tokens of a type: an atom, an arrow, or a computation type
    over a row of declared operations in any order."""
    if depth == 0 or rng.random() < 0.4:
        return [rng.choice(_ATOMS)]
    if rng.random() < 0.5:
        return ["(", *_type(rng, depth - 1), "->", *_type(rng, depth - 1), ")"]
    row = rng.sample(_OPERATIONS, rng.randint(0, len(_OPERATIONS)))
    return ["F", "{", *_commas([[op] for op in row]), "}", "(", *_type(rng, depth - 1), ")"]


def _term(rng: random.Random, depth: int, bound: list[str]) -> list[str]:
    """The tokens of a term whose variables are in `bound`, or a
    declared constant, at most `depth` constructs deep."""
    if depth == 0 or rng.random() < 0.25:
        return [rng.choice(bound + _CONSTANTS)]
    kind = rng.choice(_CONSTRUCTS)
    if kind == "lambda":
        x = rng.choice(_BINDERS)
        return ["\\", x, ".", *_term(rng, depth - 1, bound + [x])]
    if kind == "app":
        return [*_operand(rng, depth, bound), *_operand(rng, depth, bound)]
    if kind == "infix":
        return [*_operand(rng, depth, bound), rng.choice(_INFIX), *_operand(rng, depth, bound)]
    if kind in ("eta", "extract", "commute"):
        return [kind, *_operand(rng, depth, bound)]
    if kind == "do":
        x = rng.choice(_BINDERS)
        param, cont = _term(rng, depth - 1, bound), _term(rng, depth - 1, bound + [x])
        return ["do", rng.choice(_OPERATIONS), "(", *param, ",", "\\", x, ".", *cont, ")"]
    if kind == "handle":
        handled = rng.sample(_OPERATIONS, rng.randint(0, 2))
        if not handled or rng.random() < 0.5:
            handled.append("eta")
        clauses = [[name, "->", *_term(rng, depth - 1, bound)] for name in handled]
        return ["handle", "{", *_commas(clauses), "}", *_operand(rng, depth, bound)]
    return ["(", *_term(rng, depth - 1, bound), ":", *_type(rng, 2), ")"]


def _operand(rng: random.Random, depth: int, bound: list[str]) -> list[str]:
    """A term one construct shallower, in parentheses unless it is one
    token."""
    tokens = _term(rng, depth - 1, bound)
    return tokens if len(tokens) == 1 else ["(", *tokens, ")"]


def sources(seed: int = 0, count: int = 4000, depth: int = 4) -> list[str]:
    """`count` terms of at least two tokens, each followed by its three
    mutants, with the tokens separated by blanks."""
    rng = random.Random(seed)
    out = []
    while len(out) < 4 * count:
        tokens = _term(rng, depth, [])
        if len(tokens) < 2:
            continue
        i, j, k = (rng.randrange(len(tokens)) for _ in range(3))
        k = min(k, len(tokens) - 2)
        for mutant in (
            tokens,
            tokens[:i] + tokens[i + 1 :],
            tokens[: j + 1] + tokens[j:],
            tokens[:k] + [tokens[k + 1], tokens[k]] + tokens[k + 2 :],
        ):
            out.append(" ".join(mutant))
    return out


def parse_digest() -> str:
    """`<number of sources> <SHA-256>`: a line per source, the source, a
    tab, and `repr` of its term or `str` of its parse error, hashed."""
    digest = hashlib.sha256()
    srcs = sources()
    for src in srcs:
        try:
            shown = repr(parse_term(src, _CONTEXT))
        except ParseError as err:
            shown = str(err)
        digest.update(f"{src}\t{shown}\n".encode())
    return f"{len(srcs)} {digest.hexdigest()}\n"
