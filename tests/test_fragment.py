"""The linguistic fragment: lexicon, trees, handlers, golden corpus."""

from __future__ import annotations

from itertools import product

import pytest

from efflam.fragment import (
    Branch,
    CONTEXT,
    ENV,
    GOLDENS,
    LEXICON,
    N,
    NP,
    S,
    SENTENCE,
    Into,
    Word,
    accommodate,
    category,
    category_type,
    denote,
    example,
    scope_island,
    with_speaker,
)
from efflam.reduce import NormalForm, normalize
from efflam.surface import parse_term, print_term
from efflam.syntax import Ann, Const, alpha_eq, erase
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


def test_scope_island_requires_a_sentence_computation():
    with pytest.raises(TypeCheckError):
        scope_island(_me())  # individual-valued, not truth-valued
    with pytest.raises(TypeCheckError):
        scope_island(Const("j"))


def test_with_speaker_requires_an_individual():
    with pytest.raises(TypeCheckError):
        with_speaker(Const("love"), _me())


def test_accommodate_requires_a_truth_valued_computation():
    with pytest.raises(TypeCheckError):
        accommodate(_me())


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
# Categories map to types homomorphically


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
        want = category_type(category(tree))
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

WORD_CATEGORIES = {
    "john": NP,
    "mary": NP,
    "me": NP,
    "best-friend": Into(NP, NP),
    "everyone": NP,
    "man": N,
    "woman": N,
    "loves": Into(NP, Into(NP, S)),
    "said-is": Into(S, Into(NP, S)),
    "said-ds": Into(S, Into(NP, S)),
    "every": Into(N, NP),
    "a": Into(N, NP),
    "appos": Into(NP, Into(NP, NP)),
}


def test_lexicon_has_every_word_at_its_category():
    assert {word: entry.cat for word, entry in LEXICON.items()} == WORD_CATEGORIES
    for word, entry in LEXICON.items():
        want = category_type(entry.cat)
        assert synthesize(CONTEXT, Ann(entry.term, want)) == want, word
        assert subtype(synthesize(CONTEXT, entry.term), want), word


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
    from efflam.surface import parse_file

    want = parse_file(REFERENCE_SIGNATURE).env()
    for got in (parse_file(shipped_source()).env(), ENV):
        assert got.atoms == want.atoms
        assert got.constants == want.constants
        assert got.operations == want.operations


def test_shipped_file_defines_the_whole_lexicon():
    from efflam.fragment import shipped_source
    from efflam.surface import parse_file

    decl = parse_file(shipped_source())
    defs = {name: term for name, _, term in decl.defs}
    renamed = {"man": "man'", "woman": "woman'", "best-friend": "best-friend'"}
    assert set(defs) == {renamed.get(word, word) for word in WORD_CATEGORIES}
    for word, cat in WORD_CATEGORIES.items():
        parsed = defs[renamed.get(word, word)]
        assert alpha_eq(erase(parsed), erase(LEXICON[word].term)), word
        assert synthesize(CONTEXT, parsed) == category_type(cat), word


def test_shipped_file_directives_normalize_to_corpus_forms():
    from efflam.fragment import shipped_source
    from efflam.surface import parse_file

    decl = parse_file(shipped_source())
    to_run = [t for kind, t in decl.directives if kind == "normalize"]
    assert len(to_run) == 2
    first = normalize(to_run[0], record_steps=False)
    assert alpha_eq(erase(first.final), erase(example(1).expected))
    second = normalize(to_run[1], record_steps=False)
    assert alpha_eq(erase(second.final), erase(example(5).expected))
