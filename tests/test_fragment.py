"""The linguistic fragment: lexicon, trees, handlers, golden corpus."""

from __future__ import annotations

from itertools import product

import pytest

from efflam.fragment import (
    Branch,
    CONTEXT,
    ENV,
    GOLDENS,
    FILE,
    LEXICON,
    SENTENCE,
    Word,
    _lexicon,
    accommodate,
    category,
    denote,
    example,
    with_speaker,
)
from efflam.reduce import NormalForm, normalize
from efflam.surface import parse_file, parse_term, parse_type, print_term
from efflam.syntax import Ann, App, Const, Fun, alpha_eq, erase
from efflam.typecheck import TypeCheckError, check_against, subtype, synthesize


def nf(term):
    trace = normalize(term)
    assert isinstance(trace.outcome, NormalForm), trace.outcome
    return erase(trace.final)


# ---------------------------------------------------------------------------
# Golden corpus


@pytest.mark.parametrize("entry", GOLDENS, ids=[f"example-{e.number}" for e in GOLDENS])
def test_golden_normal_form(entry):
    got = nf(entry.term())
    assert alpha_eq(got, entry.expected), print_term(got)


@pytest.mark.parametrize("entry", GOLDENS, ids=[f"example-{e.number}" for e in GOLDENS])
def test_golden_type_is_preserved_along_the_whole_trace(entry):
    term = entry.term()
    ty = synthesize(CONTEXT, term)
    trace = normalize(term)
    for step in trace.steps:
        check_against(CONTEXT, step.term, ty)


def test_example_lookup():
    assert example(5).phrase == "every man loves a woman"
    with pytest.raises(KeyError):
        example(12)


def test_choosing_another_speaker():
    got = nf(example(11).term(Const("m")))
    assert alpha_eq(got, parse_term("eta (love m m)", ENV))


# ---------------------------------------------------------------------------
# Handler builders


def _me():
    return LEXICON["me"].term


def test_inner_speaker_wins():
    term = with_speaker(Const("j"), with_speaker(Const("m"), _me()))
    assert alpha_eq(nf(term), parse_term("eta m", ENV))


def test_with_speaker_requires_an_individual():
    with pytest.raises(TypeCheckError):
        with_speaker(Const("love"), _me())


def test_accommodate_requires_a_truth_valued_computation():
    with pytest.raises(TypeCheckError):
        accommodate(_me())


@pytest.mark.parametrize(
    "wrap, what",
    [
        (lambda m: with_speaker(Const("s"), m), "a speaker-closed term"),
        (accommodate, "an accommodated term"),
    ],
)
def test_a_wrapper_requires_a_computation(wrap, what):
    with pytest.raises(TypeCheckError) as exc:
        wrap(Const("j"))
    assert (exc.value.kind, exc.value.path) == ("notAComputation", ())
    assert str(exc.value) == f"notAComputation at root: {what} must be a computation"


def test_builders_ascribe_their_clauses():
    handler = with_speaker(Const("s"), _me())
    ty = synthesize(CONTEXT, handler)
    assert ty == parse_term("(eta j : F{}(iota))", ENV).ty


# ---------------------------------------------------------------------------
# Insulation and projection through reports


def _tv(verb, obj, subj):
    return Branch(Branch(Word(verb), obj), subj)


def test_quantifiers_stay_inside_an_indirect_report():
    inner = _tv("loves", Word("mary"), Branch(Word("every"), Word("man")))
    tree = Branch(Branch(Word("said-is"), inner), Word("john"))
    got = nf(denote(tree))
    want = parse_term("eta (say j (forall (\\x. man x -> love x m)))", ENV)
    assert alpha_eq(got, want)


def test_implicatures_project_out_of_an_indirect_report():
    inner = _tv(
        "loves", Word("me"), Branch(Branch(Word("appos"), Word("mary")), Branch(Word("best-friend"), Word("me")))
    )
    tree = Branch(Branch(Word("said-is"), inner), Word("john"))
    got = nf(denote(tree))
    want = parse_term(
        "do speaker(*, \\x. do implicate(m = best-friend x,"
        " \\u. do speaker(*, \\y. eta (say j (love m y)))))",
        ENV,
    )
    assert alpha_eq(got, want)


def test_direct_report_keeps_its_commitments_inside_what_was_said():
    # contrast with projection: quotation re-binds both context effects,
    # so the quoted apposition leaves nothing pending at the top level
    from efflam.syntax import Eta, Op

    said_is_inner = _tv(
        "loves", Word("me"), Branch(Branch(Word("appos"), Word("mary")), Branch(Word("best-friend"), Word("me")))
    )
    projected = nf(denote(Branch(Branch(Word("said-is"), said_is_inner), Word("john"))))
    quoted = nf(example(10).term())
    assert isinstance(projected, Op)
    assert isinstance(quoted, Eta)


# ---------------------------------------------------------------------------
# A category is its type, and categories map to types homomorphically


def _small_trees():
    words = [Word(name) for name in LEXICON]
    yield from words
    pairs = []
    for f, a in product(words, words):
        tree = Branch(f, a)
        try:
            category(tree)
        except ValueError:
            continue
        pairs.append(tree)
        yield tree
    for f, a in product(pairs, words):
        tree = Branch(f, a)
        try:
            category(tree)
        except ValueError:
            continue
        yield tree
    for f, a in product(words, pairs):
        tree = Branch(f, a)
        try:
            category(tree)
        except ValueError:
            continue
        yield tree


def test_every_well_formed_tree_types_at_its_category():
    count = 0
    for tree in _small_trees():
        ty = synthesize(CONTEXT, denote(tree))
        want = category(tree)
        assert subtype(ty, want), f"{tree} synthesized {ty}, category says {want}"
        count += 1
    assert count > 60


def test_category_mismatch_is_rejected():
    with pytest.raises(ValueError):
        category(Branch(Word("john"), Word("mary")))
    with pytest.raises(ValueError):
        category(Branch(Word("every"), Word("john")))


def test_corpus_terms_are_sentence_typed():
    for entry in GOLDENS:
        ty = synthesize(CONTEXT, entry.term())
        assert subtype(ty, SENTENCE), ty


# ---------------------------------------------------------------------------
# the lexicon is loaded from the shipped declaration file

_NP = "F{implicate, scope, speaker}(iota)"
_S = "F{implicate, scope, speaker}(o)"
_N = "F{implicate, speaker}(iota -> o)"

# each word's category: the type of its def
WORD_CATEGORIES = {
    word: parse_type(src, ENV)
    for word, src in {
        "john": _NP,
        "mary": _NP,
        "me": _NP,
        "best-friend": f"{_NP} -> {_NP}",
        "everyone": _NP,
        "man": _N,
        "woman": _N,
        "loves": f"{_NP} -> {_NP} -> {_S}",
        "said-is": f"{_S} -> {_NP} -> {_S}",
        "said-ds": f"{_S} -> {_NP} -> {_S}",
        "every": f"{_N} -> {_NP}",
        "a": f"{_N} -> {_NP}",
        "appos": f"{_NP} -> {_NP} -> {_NP}",
    }.items()
}


def test_lexicon_has_every_word_at_its_category():
    assert {word: entry.ty for word, entry in LEXICON.items()} == WORD_CATEGORIES
    for word, entry in LEXICON.items():
        want = WORD_CATEGORIES[word]
        assert synthesize(CONTEXT, Ann(entry.term, want)) == want, word
        assert subtype(synthesize(CONTEXT, entry.term), want), word


def test_each_entry_is_the_ascribed_term_of_its_def():
    defs = {name.removesuffix("'"): term for name, _, term in FILE.defs}
    assert set(defs) == set(LEXICON)
    for word, entry in LEXICON.items():
        assert entry is defs[word], word
        assert type(entry) is Ann
        assert denote(Word(word)) is entry.term
        assert category(Word(word)) is entry.ty


def _reference_category(tree):
    """`category` recomputed from `WORD_CATEGORIES` alone."""
    if isinstance(tree, Word):
        return WORD_CATEGORIES[tree.name]
    fn, arg = _reference_category(tree.fn), _reference_category(tree.arg)
    assert isinstance(fn, Fun) and fn.dom == arg, tree
    return fn.cod


def test_category_of_every_small_tree_and_golden_follows_the_word_types():
    trees = [*_small_trees(), *(entry.tree for entry in GOLDENS)]
    assert len(trees) > 70
    for tree in trees:
        assert category(tree) == _reference_category(tree), tree
    for entry in GOLDENS:
        assert category(entry.tree) == SENTENCE


@pytest.mark.parametrize("walk", [category, denote])
def test_an_unknown_word_is_a_value_error(walk):
    for tree in (Word("nonsense"), Branch(Word("every"), Word("nonsense"))):
        with pytest.raises(ValueError, match="unknown word 'nonsense'"):
            walk(tree)


@pytest.mark.parametrize("walk", [category, denote])
def test_a_non_tree_is_a_value_error(walk):
    for tree in ("john", Const("j"), None, Branch(Word("every"), "man")):
        with pytest.raises(ValueError, match="not a tree"):
            walk(tree)


def test_an_untyped_def_is_not_a_lexical_item():
    decl = parse_file("atom e.\nconst c : e.\ndef word : e := c.\ndef bare := c.\n")
    with pytest.raises(ValueError, match="lexical item bare has no type"):
        _lexicon(decl)


def test_both_walks_reach_any_depth():
    # far past the interpreter's recursion limit, which stays as it is
    depth = 4000
    base = _tv("loves", Word("me"), Branch(Word("every"), Word("woman")))
    reporters = [Word(("john", "mary")[i % 2]) for i in range(depth)]
    tree = base
    for reporter in reporters:
        tree = Branch(Branch(Word("said-is"), tree), reporter)
    assert category(tree) == SENTENCE
    got = denote(tree)
    for reporter in reversed(reporters):
        assert type(got) is App and type(got.fn) is App
        assert got.fn.fn is LEXICON["said-is"].term
        assert got.arg is LEXICON[reporter.name].term
        got = got.fn.arg
    assert got == denote(base)


# the signature the fragment is written against, kept apart from the
# shipped file so that an edit to one without the other shows
REFERENCE_SIGNATURE = """
atom iota.
atom o.
const j : iota.
const m : iota.
const s : iota.
const love : iota -> iota -> o.
const say : iota -> o -> o.
const best-friend : iota -> iota.
const man : iota -> o.
const woman : iota -> o.
const and : o -> o -> o.
const imp : o -> o -> o.
const eq : iota -> iota -> o.
const forall : (iota -> o) -> o.
const exists : (iota -> o) -> o.
operation speaker : 1 ~> iota.
operation implicate : o ~> 1.
operation scope : (iota -> F{implicate, speaker}(o)) -> F{implicate, speaker}(o) ~> iota.
"""


def test_shipped_file_declares_the_same_signature():
    from efflam.fragment import shipped_source

    want = parse_file(REFERENCE_SIGNATURE).context()
    for got in (parse_file(shipped_source()).context(), ENV):
        assert got.atoms == want.atoms
        assert got.constants == want.constants
        assert got.operations == want.operations


def test_the_parser_and_the_checker_read_one_signature_without_the_defs():
    assert ENV is CONTEXT
    assert CONTEXT.defs == {} and CONTEXT.vars == {}


def test_shipped_file_defines_the_whole_lexicon():
    from efflam.fragment import shipped_source

    decl = parse_file(shipped_source())
    defs = {name: term for name, _, term in decl.defs}
    renamed = {"man": "man'", "woman": "woman'", "best-friend": "best-friend'"}
    assert set(defs) == {renamed.get(word, word) for word in WORD_CATEGORIES}
    for word, ty in WORD_CATEGORIES.items():
        parsed = defs[renamed.get(word, word)]
        assert alpha_eq(erase(parsed), erase(LEXICON[word].term)), word
        assert synthesize(CONTEXT, parsed) == ty, word


def test_shipped_file_directives_normalize_to_corpus_forms():
    from efflam.fragment import shipped_source

    decl = parse_file(shipped_source())
    to_run = [t for kind, t in decl.directives if kind == "normalize"]
    assert len(to_run) == 2
    first = normalize(to_run[0], record_steps=False)
    assert alpha_eq(erase(first.final), erase(example(1).expected))
    second = normalize(to_run[1], record_steps=False)
    assert alpha_eq(erase(second.final), erase(example(5).expected))
