"""A small natural-language fragment compiled to effectful terms.

The fragment is the shipped declaration file `fragment.lam`: its
signature declares individuals and truth values, logical constants, and
three operations (consulting the utterance context for the speaker,
emitting a side commitment, and taking quantifier scope), and each of
its definitions is one lexical item, a closed, type-ascribed term.
`LEXICON` is loaded from that file: the word is the definition's name
without its trailing prime, and the category is read back from the
definition's type.  Phrases denote applications of the function word to
its arguments.  Sentence meanings are computations whose pending
operations record what the sentence still needs from, or contributes
to, its context.

Three handler builders close off those operations.  Each one inspects
the term it will handle and ascribes its clauses at the concrete result
type, so every intermediate term of a reduction sequence stays
checkable.

The golden corpus lists eleven phrases with their expected normal
forms; `examples` rebuilds a wrapped entry for any chosen speaker.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from .prelude import bind, eta_identity
from .surface import DeclFile, Env, parse_file, parse_term
from .syntax import (
    Abs,
    Ann,
    Atom,
    App,
    Comp,
    Const,
    Eta,
    Fun,
    Handler,
    Signature,
    Term,
    Type,
    UNIT,
    Var,
    free_vars,
    fresh_name,
)
from .typecheck import Context, TypeCheckError, check_against, synthesize


def shipped_source() -> str:
    """The whole fragment as a surface-syntax declaration file."""
    from importlib import resources

    return (
        resources.files(__package__)
        .joinpath("fragment.lam")
        .read_text(encoding="utf-8")
    )


FILE: DeclFile = parse_file(shipped_source())
# the signature only: inline terms and expected forms never see the defs
ENV: Env = replace(FILE.env(), defs={})
CONTEXT: Context = FILE.context()

IOTA = Atom("iota")
O = Atom("o")

# every operation of the fragment, and those a scope resumption may use
FULL_ROW: Signature = FILE.operations
CONTEXT_ROW: Signature = FULL_ROW.without({"scope"})

NOUN = Comp(CONTEXT_ROW, Fun(IOTA, O))
NOMINAL = Comp(FULL_ROW, IOTA)
SENTENCE = Comp(FULL_ROW, O)

SENTENCE_FINAL = Comp(CONTEXT_ROW, O)


# ---------------------------------------------------------------------------
# Handler builders
#
# Each builder typechecks the term it is about to handle and writes the
# resulting concrete types onto its clauses.


def _computation_of(m: Term, ctx: Context, what: str) -> Comp:
    ty = synthesize(ctx, m)
    if not isinstance(ty, Comp):
        raise TypeCheckError("notAComputation", (), f"{what} must be a computation")
    return ty


def scope_island(m: Term, ctx: Context = CONTEXT) -> Term:
    """Close off quantifier scope: every pending scope-taker lands here.

    The handled term must be a sentence-level computation; the result
    carries exactly the context row, which is what a scope resumption
    is allowed to produce.
    """
    ty = _computation_of(m, ctx, "a scope island")
    if ty.value != O or not ty.effects.without({"scope"}).subset_of(CONTEXT_ROW):
        raise TypeCheckError(
            "mismatch", (), f"a scope island needs a sentence computation, got {ty}"
        )
    result = Comp(CONTEXT_ROW, O)
    clause = Ann(
        Abs("c", Abs("k", App(Var("c"), Var("k")))),
        Fun(CONTEXT.operations.get("scope")[0], Fun(Fun(IOTA, result), result)),
    )
    return Handler((("scope", clause),), eta_identity(), m)


def with_speaker(speaker: Term, m: Term, ctx: Context = CONTEXT) -> Term:
    """Fix the utterance speaker: every speaker query resumes with it."""
    check_against(ctx, speaker, IOTA)
    ty = _computation_of(m, ctx, "a speaker-closed term")
    result = Comp(ty.effects.without({"speaker"}), ty.value)
    avoid = free_vars(speaker)
    u = fresh_name("u", avoid)
    k = fresh_name("k", avoid | {u})
    clause = Ann(
        Abs(u, Abs(k, App(Var(k), speaker))),
        Fun(UNIT, Fun(Fun(IOTA, result), result)),
    )
    return Handler((("speaker", clause),), eta_identity(), m)


def accommodate(m: Term, ctx: Context = CONTEXT) -> Term:
    """Fold side commitments into the asserted content as conjuncts."""
    ty = _computation_of(m, ctx, "an accommodated term")
    if ty.value != O:
        raise TypeCheckError(
            "mismatch", (), f"accommodation needs a truth-valued computation, got {ty}"
        )
    result = Comp(ty.effects.without({"implicate"}), O)
    resumed = bind(
        App(Var("k"), Const("*")),
        Abs("r", Eta(App(App(Const("and"), Var("p")), Var("r")))),
    )
    clause = Ann(
        Abs("p", Abs("k", resumed)),
        Fun(O, Fun(Fun(UNIT, result), result)),
    )
    return Handler((("implicate", clause),), eta_identity(), m)


# ---------------------------------------------------------------------------
# Categories and trees


@dataclass(frozen=True)
class Base:
    name: str  # "NP", "S", or "N"


@dataclass(frozen=True)
class Into:
    arg: "Cat"
    res: "Cat"


Cat = Base | Into

NP = Base("NP")
S = Base("S")
N = Base("N")


def category_type(cat: Cat) -> Type:
    match cat:
        case Base("NP"):
            return NOMINAL
        case Base("S"):
            return SENTENCE
        case Base("N"):
            return NOUN
        case Into(arg, res):
            return Fun(category_type(arg), category_type(res))
    raise ValueError(f"not a category: {cat!r}")


@dataclass(frozen=True)
class LexEntry:
    cat: Cat
    term: Term


def _category(ty: Type) -> Cat:
    """The category whose type is `ty`: `category_type` inverted."""
    if isinstance(ty, Fun):
        return Into(_category(ty.dom), _category(ty.cod))
    for cat in (NP, S, N):
        if category_type(cat) == ty:
            return cat
    raise ValueError(f"no category has type {ty}")


def _lexicon(decl: DeclFile) -> dict[str, LexEntry]:
    """One entry per definition of `decl`, all of which must be typed.

    A definition's term is stored without the outer ascription that
    `def name : type` adds, since the entry's category already carries
    that type; ascriptions written inside the term are kept.
    """
    lexicon = {}
    for name, ty, term in decl.defs:
        if ty is None:
            raise ValueError(f"lexical item {name} has no type")
        lexicon[name.removesuffix("'")] = LexEntry(_category(ty), term.term)
    return lexicon


LEXICON: dict[str, LexEntry] = _lexicon(FILE)


@dataclass(frozen=True)
class Word:
    name: str


@dataclass(frozen=True)
class Branch:
    fn: "SynTree"
    arg: "SynTree"


SynTree = Word | Branch


def category(tree: SynTree) -> Cat:
    match tree:
        case Word(name):
            if name not in LEXICON:
                raise ValueError(f"unknown word {name!r}")
            return LEXICON[name].cat
        case Branch(fn, arg):
            fn_cat = category(fn)
            arg_cat = category(arg)
            if not isinstance(fn_cat, Into) or fn_cat.arg != arg_cat:
                raise ValueError(f"cannot apply {fn_cat} to {arg_cat}")
            return fn_cat.res
    raise ValueError(f"not a tree: {tree!r}")


def denote(tree: SynTree) -> Term:
    match tree:
        case Word(name):
            return LEXICON[name].term
        case Branch(fn, arg):
            return App(denote(fn), denote(arg))
    raise ValueError(f"not a tree: {tree!r}")


# ---------------------------------------------------------------------------
# Golden corpus


@dataclass(frozen=True)
class GoldenEntry:
    number: int
    phrase: str
    wrapper: str  # "" for a bare sentence denotation
    builder: Callable[[Term], Term]
    expected_src: str

    def term(self, speaker: Term | None = None) -> Term:
        return self.builder(speaker if speaker is not None else Const("s"))

    @property
    def expected(self) -> Term:
        return parse_term(self.expected_src, ENV)


def _tv(verb: str, obj: SynTree, subj: SynTree) -> SynTree:
    return Branch(Branch(Word(verb), obj), subj)


_MY_BEST_FRIEND = Branch(Word("best-friend"), Word("me"))

_T1 = _tv("loves", Word("mary"), Word("john"))
_T2 = _tv("loves", Word("me"), Word("mary"))
_T3 = Branch(Branch(Word("said-is"), _T2), Word("john"))
_T4 = Branch(Branch(Word("said-ds"), _T2), Word("john"))
_T5 = _tv("loves", Branch(Word("a"), Word("woman")), Branch(Word("every"), Word("man")))
_EVERY_WOMAN_ME = _tv("loves", Word("me"), Branch(Word("every"), Word("woman")))
_T6 = Branch(Branch(Word("said-is"), _EVERY_WOMAN_ME), Word("john"))
_T7 = Branch(Branch(Word("said-ds"), _EVERY_WOMAN_ME), Word("john"))
_APPOS_JOHN = Branch(Branch(Word("appos"), Word("john")), _MY_BEST_FRIEND)
_T8 = _tv("loves", Branch(Word("every"), Word("woman")), _APPOS_JOHN)
_T9 = _tv(
    "loves",
    Word("john"),
    Branch(
        Branch(Word("appos"), Word("mary")),
        Branch(Word("best-friend"), Word("everyone")),
    ),
)
_QUOTE = _tv(
    "loves", Word("me"), Branch(Branch(Word("appos"), _MY_BEST_FRIEND), Word("mary"))
)
_T10 = Branch(Branch(Word("said-ds"), _QUOTE), Branch(Word("a"), Word("man")))


def _bare(tree: SynTree) -> Callable[[Term], Term]:
    return lambda _speaker: denote(tree)


def _spoken(tree: SynTree) -> Callable[[Term], Term]:
    return lambda speaker: with_speaker(speaker, denote(tree))


def _accommodated(tree: SynTree) -> Callable[[Term], Term]:
    return lambda _speaker: accommodate(denote(tree))


def _closed(tree: SynTree) -> Callable[[Term], Term]:
    return lambda speaker: with_speaker(speaker, accommodate(denote(tree)))


GOLDENS: tuple[GoldenEntry, ...] = (
    GoldenEntry(1, "John loves Mary", "", _bare(_T1), "eta (love j m)"),
    GoldenEntry(
        2, "Mary loves me", "", _bare(_T2), "do speaker(*, \\x. eta (love m x))"
    ),
    GoldenEntry(
        3,
        "John said Mary loves me",
        "",
        _bare(_T3),
        "do speaker(*, \\x. eta (say j (love m x)))",
    ),
    GoldenEntry(
        4,
        "John said, 'Mary loves me'",
        "",
        _bare(_T4),
        "eta (say j (love m j))",
    ),
    GoldenEntry(
        5,
        "every man loves a woman",
        "",
        _bare(_T5),
        "eta (forall (\\x. man x -> exists (\\y. woman y /\\ love x y)))",
    ),
    GoldenEntry(
        6,
        "John said every woman loves me",
        "with_speaker",
        _spoken(_T6),
        "eta (say j (forall (\\x. woman x -> love x s)))",
    ),
    GoldenEntry(
        7,
        "John said, 'Every woman loves me'",
        "",
        _bare(_T7),
        "eta (say j (forall (\\x. woman x -> love x j)))",
    ),
    GoldenEntry(
        8,
        "John, my best friend, loves every woman",
        "with_speaker . accommodate",
        _closed(_T8),
        "eta (j = best-friend s /\\ forall (\\x. woman x -> love j x))",
    ),
    GoldenEntry(
        9,
        "Mary, everyone's best friend, loves John",
        "accommodate",
        _accommodated(_T9),
        "eta (forall (\\x. m = best-friend x) /\\ love m j)",
    ),
    GoldenEntry(
        10,
        "a man said 'my best friend, Mary, loves me'",
        "",
        _bare(_T10),
        "eta (exists (\\x. man x /\\ say x (best-friend x = m /\\ love (best-friend x) x)))",
    ),
    GoldenEntry(
        11, "Mary loves me", "with_speaker", _spoken(_T2), "eta (love m s)"
    ),
)


def example(number: int) -> GoldenEntry:
    for entry in GOLDENS:
        if entry.number == number:
            return entry
    raise KeyError(f"no example {number}")
