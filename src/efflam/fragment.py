"""A small natural-language fragment compiled to effectful terms.

The fragment is the shipped declaration file `fragment.lam`: its
signature declares individuals and truth values, logical constants, and
three operations (consulting the utterance context for the speaker,
emitting a side commitment, and taking quantifier scope), and each of
its definitions is one lexical item, a closed, type-ascribed term.
`LEXICON` is loaded from that file: the word is the definition's name
without its trailing prime, and its entry is the definition's ascribed
term, so a word's category is its def's type, one type per category as
in Montague's category-to-type map.  Phrases denote applications of the
function word to its arguments; `category` and `denote` are each a
`syntax.fold` over the tree, so they walk a tree of any depth.  Sentence
meanings are computations whose pending operations record what the
sentence still needs from, or contributes to, its context.

Two handler builders close off the speaker and side-commitment
operations; the verbs close quantifier scope themselves.  Each builder
inspects the term it will handle and ascribes its clauses at the
concrete result type, so every intermediate term of a reduction sequence
stays checkable.

The golden corpus lists eleven phrases with their expected normal
forms; `examples` rebuilds a wrapped entry for any chosen speaker.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

from .prelude import bind, eta_identity
from .surface import DeclFile, parse_file, parse_term, print_type
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
    Record,
    Signature,
    Term,
    Type,
    Var,
    free_vars,
    fold,
    fresh_name,
    record,
)
from .typecheck import Context, TypeCheckError, check_against, clause_type, synthesize


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
CONTEXT: Context = replace(FILE.context(), defs={})
# the same object, for callers that parse against `ENV`
ENV: Context = CONTEXT

IOTA = Atom("iota")
O = Atom("o")

# every operation of the fragment, and those a scope resumption may use
FULL_ROW: Signature = FILE.operations
CONTEXT_ROW: Signature = FULL_ROW.without({"scope"})

SENTENCE = Comp(FULL_ROW, O)

SENTENCE_FINAL = Comp(CONTEXT_ROW, O)


# ---------------------------------------------------------------------------
# Handler builders
#
# Each builder typechecks the term it is about to handle under `CONTEXT`
# and writes the resulting concrete types onto its clause.


def _computation_of(m: Term, what: str) -> Comp:
    ty = synthesize(CONTEXT, m)
    if not isinstance(ty, Comp):
        raise TypeCheckError("notAComputation", (), "%s must be a computation", what)
    return ty


def _handle(m: Term, op: str, p: str, k: str, body: Term, result: Comp) -> Handler:
    """`m` under a handler for `op` alone whose clause is `\\p. \\k. body`,
    ascribed `inp -> (out -> result) -> result` for `op`'s declared
    input and output types."""
    clause = Ann(Abs(p, Abs(k, body)), clause_type(CONTEXT.operations.get(op), result))
    return Handler(((op, clause),), eta_identity(), m)


def with_speaker(speaker: Term, m: Term) -> Term:
    """Fix the utterance speaker: every speaker query resumes with it."""
    check_against(CONTEXT, speaker, IOTA)
    ty = _computation_of(m, "a speaker-closed term")
    result = Comp(ty.effects.without({"speaker"}), ty.value)
    avoid = free_vars(speaker)
    u = fresh_name("u", avoid)
    k = fresh_name("k", avoid | {u})
    return _handle(m, "speaker", u, k, App(Var(k), speaker), result)


def accommodate(m: Term) -> Term:
    """Fold side commitments into the asserted content as conjuncts."""
    ty = _computation_of(m, "an accommodated term")
    if ty.value != O:
        raise TypeCheckError(
            "mismatch", (), "accommodation needs a truth-valued computation, got %s", ty
        )
    result = Comp(ty.effects.without({"implicate"}), O)
    resumed = bind(
        App(Var("k"), Const("*")),
        Abs("r", Eta(App(App(Const("and"), Var("p")), Var("r")))),
    )
    return _handle(m, "implicate", "p", "k", resumed, result)


# ---------------------------------------------------------------------------
# The lexicon and trees


def _lexicon(decl: DeclFile) -> dict[str, Ann]:
    """One entry per definition of `decl`, all of which must be typed:
    the `Ann` node that `def name : type := term` parses to, whose type
    is the word's category and whose term is its denotation."""
    lexicon = {}
    for name, ty, term in decl.defs:
        if ty is None:
            raise ValueError(f"lexical item {name} has no type")
        lexicon[name.removesuffix("'")] = term
    return lexicon


LEXICON: dict[str, Ann] = _lexicon(FILE)


@record
class Word(Record):
    """A leaf of a syntax tree: a word of the lexicon."""

    name: str


@record
class Branch(Record):
    """A syntax tree whose function daughter applies to its argument."""

    fn: "SynTree"
    arg: "SynTree"


SynTree = Word | Branch


def _enter_tree(tree: SynTree) -> list:
    """`fold`'s pre-visit for both walks of a tree: a word is left as
    its lexicon entry, with no kids; a branch with its two daughters."""
    cls = type(tree)
    if cls is Branch:
        return [tree, tree.fn, tree.arg]
    if cls is Word:
        entry = LEXICON.get(tree.name)
        if entry is None:
            raise ValueError(f"unknown word {tree.name!r}")
        return [entry]
    raise ValueError(f"not a tree: {tree!r}")


def _leave_category(node, kids: list[Type]) -> Type:
    if not kids:
        return node.ty
    fn, arg = kids
    if type(fn) is not Fun or fn.dom != arg:
        raise ValueError(f"cannot apply {print_type(fn)} to {print_type(arg)}")
    return fn.cod


def _leave_denote(node, kids: list[Term]) -> Term:
    return App(kids[0], kids[1]) if kids else node.term


def category(tree: SynTree) -> Type:
    """`tree`'s category, a type: a word's is its def's type, and a
    branch's the codomain of its function daughter's, whose domain must
    be its argument daughter's."""
    return fold(tree, _enter_tree, _leave_category)


def denote(tree: SynTree) -> Term:
    """`tree`'s denotation: a word's is its def's term, and a branch's
    the application of its function daughter's to its argument
    daughter's."""
    return fold(tree, _enter_tree, _leave_denote)


# ---------------------------------------------------------------------------
# Golden corpus


# each golden's wrapper, by the name `fragment --format records` prints,
# applied to a speaker and the sentence's denotation
_WRAPPERS: dict[str, Callable[[Term, Term], Term]] = {
    "": lambda _speaker, m: m,
    "with_speaker": with_speaker,
    "accommodate": lambda _speaker, m: accommodate(m),
    "with_speaker . accommodate": lambda speaker, m: with_speaker(speaker, accommodate(m)),
}


@record
class GoldenEntry(Record):
    """A sentence of the golden corpus: its tree, the wrapper its
    denotation is put in, and the source of the expected normal form."""

    number: int
    phrase: str
    wrapper: str  # a key of `_WRAPPERS`: "" for a bare sentence denotation
    tree: SynTree
    expected_src: str

    def term(self, speaker: Term | None = None) -> Term:
        speaker = speaker if speaker is not None else Const("s")
        return _WRAPPERS[self.wrapper](speaker, denote(self.tree))

    @property
    def expected(self) -> Term:
        return parse_term(self.expected_src, CONTEXT)


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


GOLDENS: tuple[GoldenEntry, ...] = (
    GoldenEntry(1, "John loves Mary", "", _T1, "eta (love j m)"),
    GoldenEntry(2, "Mary loves me", "", _T2, "do speaker(*, \\x. eta (love m x))"),
    GoldenEntry(
        3,
        "John said Mary loves me",
        "",
        _T3,
        "do speaker(*, \\x. eta (say j (love m x)))",
    ),
    GoldenEntry(
        4,
        "John said, 'Mary loves me'",
        "",
        _T4,
        "eta (say j (love m j))",
    ),
    GoldenEntry(
        5,
        "every man loves a woman",
        "",
        _T5,
        "eta (forall (\\x. man x -> exists (\\y. woman y /\\ love x y)))",
    ),
    GoldenEntry(
        6,
        "John said every woman loves me",
        "with_speaker",
        _T6,
        "eta (say j (forall (\\x. woman x -> love x s)))",
    ),
    GoldenEntry(
        7,
        "John said, 'Every woman loves me'",
        "",
        _T7,
        "eta (say j (forall (\\x. woman x -> love x j)))",
    ),
    GoldenEntry(
        8,
        "John, my best friend, loves every woman",
        "with_speaker . accommodate",
        _T8,
        "eta (j = best-friend s /\\ forall (\\x. woman x -> love j x))",
    ),
    GoldenEntry(
        9,
        "Mary, everyone's best friend, loves John",
        "accommodate",
        _T9,
        "eta (forall (\\x. m = best-friend x) /\\ love m j)",
    ),
    GoldenEntry(
        10,
        "a man said 'my best friend, Mary, loves me'",
        "",
        _T10,
        "eta (exists (\\x. man x /\\ say x (best-friend x = m /\\ love (best-friend x) x)))",
    ),
    GoldenEntry(11, "Mary loves me", "with_speaker", _T2, "eta (love m s)"),
)


def example(number: int) -> GoldenEntry:
    for entry in GOLDENS:
        if entry.number == number:
            return entry
    raise KeyError(f"no example {number}")
