"""Seeded inputs, requests and known answers of the four workloads.

Every workload is a list of passes; a pass is a list of requests, and a
request is run by `request` and judged by `check`.  Inputs depend only
on the seed.  Known answers are written down by this module, never read
back from the program under test: logical forms come from the structure
of each sentence (`logical_form`), types and suite counts are constants.

The package is passed in as `ef`, a namespace holding one attribute per
efflam module, because the harness re-imports it for every set-up.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

# ---------------------------------------------------------------------------
# Sentences: a plain description, its tree, its source text, its logical form

REPORTERS = ("john", "mary", "a man", "every woman")
BASES = ("every woman loves me", "Mary loves me", "every man loves a woman")
REPORT_KINDS = ("said-is", "said-ds")

SENTENCE_TYPE = "F{implicate, scope}(o)"  # a sentence once the speaker is fixed
DIRECTIVE_TYPE = "F{implicate, scope, speaker}(o)"
NESTED_TYPE = "F{}(A)"


@dataclass(frozen=True)
class Sentence:
    """A base clause under nested reports, innermost report first."""

    base: str
    reports: tuple[tuple[str, str], ...]  # (said-is | said-ds, reporter)


def ladder(depth: int) -> Sentence:
    """The ROADMAP's deep-sentence ladder: indirect reports over
    "every woman loves me", reporters alternating john and mary."""
    return Sentence(
        BASES[0], tuple(("said-is", REPORTERS[i % 2]) for i in range(depth))
    )


def sentence_mix(rng: random.Random, depths: list[int]) -> list[Sentence]:
    """One sentence per depth.  Which base clause, and which reporters and
    report kinds in what numbers, follow from the position alone, balanced
    round-robin; the seed decides the order of the reports inside each
    sentence and the order of the sentences.  So every set built from the
    same depths costs about the same, whatever the seed, while its terms
    differ."""
    out = []
    for i, depth in enumerate(depths):
        reporters = [REPORTERS[(i + k) % len(REPORTERS)] for k in range(depth)]
        kinds = [REPORT_KINDS[(i + k) % len(REPORT_KINDS)] for k in range(depth)]
        rng.shuffle(reporters)
        rng.shuffle(kinds)
        out.append(Sentence(BASES[i % len(BASES)], tuple(zip(kinds, reporters))))
    rng.shuffle(out)
    return out


def tree(frag, sentence: Sentence):
    """The fragment's syntax tree for `sentence`."""
    W, B = frag.Word, frag.Branch
    nps = {
        "john": W("john"),
        "mary": W("mary"),
        "a man": B(W("a"), W("man")),
        "every woman": B(W("every"), W("woman")),
    }
    bases = {
        BASES[0]: (W("me"), nps["every woman"]),
        BASES[1]: (W("me"), nps["mary"]),
        BASES[2]: (B(W("a"), W("woman")), B(W("every"), W("man"))),
    }
    obj, subj = bases[sentence.base]
    t = B(B(W("loves"), obj), subj)
    for kind, reporter in sentence.reports:
        t = B(B(W(kind), t), nps[reporter])
    return t


def source(sentence: Sentence) -> str:
    """`sentence` in surface syntax over the defs of `fragment.lam`."""
    nps = {"john": "john", "mary": "mary", "a man": "(a man')", "every woman": "(every woman')"}
    bases = {
        BASES[0]: "loves me (every woman')",
        BASES[1]: "loves me mary",
        BASES[2]: "loves (a woman') (every man')",
    }
    text = bases[sentence.base]
    for kind, reporter in sentence.reports:
        text = f"{kind} ({text}) {nps[reporter]}"
    return text


def logical_form(syn, sentence: Sentence, speaker):
    """The expected normal form, `eta LF`, built from the sentence alone.

    `said-is` keeps the current speaker, `said-ds` rebinds it to the
    reporter, and a quantified reporter scopes over its own `say`:
    `forall` with `->`, `exists` with `/\\`.
    """
    Const, Var, App, Abs = syn.Const, syn.Var, syn.App, syn.Abs
    binders = (f"x{i}" for i in itertools.count())

    def ap(f, *args):
        t = Const(f)
        for a in args:
            t = App(t, a)
        return t

    def quantified(quant, conn, noun, body_of):
        x = next(binders)
        return ap(quant, Abs(x, ap(conn, ap(noun, Var(x)), body_of(Var(x)))))

    def clause(level: int, spk):
        if level == 0:
            if sentence.base == BASES[0]:
                return quantified("forall", "imp", "woman", lambda x: ap("love", x, spk))
            if sentence.base == BASES[1]:
                return ap("love", Const("m"), spk)
            return quantified(
                "forall",
                "imp",
                "man",
                lambda x: quantified("exists", "and", "woman", lambda y: ap("love", x, y)),
            )
        kind, reporter = sentence.reports[level - 1]

        def report(r):
            return ap("say", r, clause(level - 1, spk if kind == "said-is" else r))

        if reporter == "john":
            return report(Const("j"))
        if reporter == "mary":
            return report(Const("m"))
        if reporter == "a man":
            return quantified("exists", "and", "man", report)
        return quantified("forall", "imp", "woman", report)

    return syn.Eta(clause(len(sentence.reports), speaker))


# ---------------------------------------------------------------------------
# Nested handlers over the verify signature

VERIFY_SIGNATURE = """atom A.
atom B.
const a0 : A.
const f0 : A -> B.
operation op1 : A ~> A.
operation op2 : A ~> B.
"""


def nested_handler(depth: int) -> str:
    """Handlers nested `depth` deep inside handler clauses.

    Each level handles `op1` around one call of it whose continuation
    returns the operation's result; the clause body is the next level.
    The checker's cost depends on the binder names as well as the shape
    (shadowing), so the names are fixed.
    """
    body = "eta a0"
    for _ in range(depth):
        body = (
            f"handle {{ op1 -> \\p. \\k. {body}, eta -> \\x. eta x }} "
            f"(do op1(a0, \\y. eta y))"
        )
    return body


# ---------------------------------------------------------------------------
# Workloads

INPUT_SETS = 8  # distinct seeded request sets; passes cycle through them
SENTENCE_DEPTHS = [round(24 * (i / 39) ** 3) for i in range(40)]  # 0..24, mostly shallow
LADDER_DEPTHS = (8, 16, 32)
DIRECTIVE_DEPTHS = list(range(33))
# With three files per nesting depth, p90 falls inside the 10-level class,
# above the slowest fragment file, and p50 among the fragment files, above
# the 7-level ones: never on a boundary between two kinds of file.
NEST_DEPTHS = [n for n in range(1, 13) for _ in range(3)]
SUITES = (  # argv, known checked count, invocations per pass
    (("verify", "--suite", "subjectReduction", "--size", "7"), 1517, 1),
    # three of the 1.4 s confluence runs make p50 a median, not one sample
    (("verify", "--suite", "confluence", "--size", "6"), 399, 3),
    (("verify", "--suite", "monadLaws"), 80, 1),
)
SPEAKER = "s"


@dataclass
class Env:
    """What a request needs besides its item: the package and, for
    child processes, the checkout root and the tracing target."""

    ef: Any
    root: Path
    trace_dir: Path | None = None
    request_id: int = 0
    speed_samples: int = 0  # reference timings a child takes on each side of its command


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[Any, int], list[list]]  # (ef, seed) -> request sets
    request: Callable[[Env, Any], Any]  # one request; its result is the output
    check: Callable[[Env, Any, Any], bool]  # output against the known answer
    describe: Callable[[Any], bytes]  # inputs as bytes, for determinism tests


# sentences ------------------------------------------------------------------


@dataclass(frozen=True)
class SentenceItem:
    label: str
    build: Callable[[Any], Any]  # speaker -> the term to normalize
    expected: Any
    type: str | None  # the known type, where one is fixed


def _sentence_items(ef, sentences: list[Sentence]) -> list[SentenceItem]:
    frag = ef.fragment

    def spoken(syn_tree):
        return lambda speaker: frag.with_speaker(speaker, frag.denote(syn_tree))

    s = ef.syntax.Const(SPEAKER)
    return [
        SentenceItem(
            f"depth {len(x.reports)}: {source(x)}",
            spoken(tree(frag, x)),
            logical_form(ef.syntax, x, s),
            SENTENCE_TYPE,
        )
        for x in sentences
    ]


def _generate_sentences(ef, seed: int):
    rng = random.Random(seed)
    fixed = [
        SentenceItem(f"golden {g.number}", g.term, g.expected, None)
        for g in ef.fragment.GOLDENS
    ] + _sentence_items(ef, [ladder(d) for d in LADDER_DEPTHS])
    return [
        fixed + _sentence_items(ef, sentence_mix(rng, SENTENCE_DEPTHS))
        for _ in range(INPUT_SETS)
    ]


def _sentence_request(env: Env, item: SentenceItem):
    ef = env.ef
    term = item.build(ef.syntax.Const(SPEAKER))
    ty = ef.typecheck.synthesize(ef.fragment.CONTEXT, term)
    trace = ef.reduce.normalize(term, record_steps=False)
    return ty, trace.outcome, ef.surface.print_term(ef.syntax.erase(trace.final))


def _sentence_check(env: Env, item: SentenceItem, output) -> bool:
    ef = env.ef
    ty, outcome, text = output
    return (
        isinstance(outcome, ef.reduce.NormalForm)
        and ef.typecheck.subtype(ty, ef.fragment.SENTENCE)
        and item.type in (None, ef.surface.print_type(ty))
        and ef.syntax.alpha_eq(ef.surface.parse_term(text, ef.fragment.ENV), item.expected)
    )


def _describe_sentences(sets) -> bytes:
    return "\n".join(
        f"{item.label} => {item.expected!r}" for items in sets for item in items
    ).encode()


# random terms ---------------------------------------------------------------


def _rows(ef):
    ops = ef.verify.OPERATIONS
    return [
        ef.syntax.Signature.of({name: ops.get(name) for name in names})
        for names in ((), ("op1",), ("op2",), ("op1", "op2"))
    ]


def _sample_type(ef, rng: random.Random, rows, depth: int):
    """A random verify-signature type, as the termination suite draws them."""
    A, B, UNIT = ef.verify.A, ef.verify.B, ef.syntax.UNIT
    roll = rng.random()
    if depth <= 0 or roll < 0.4:
        return rng.choice((A, B, UNIT))
    if roll < 0.7:
        return ef.syntax.Comp(rng.choice(rows), _sample_type(ef, rng, rows, depth - 1))
    return ef.syntax.Fun(
        _sample_type(ef, rng, rows, depth - 1), _sample_type(ef, rng, rows, depth - 1)
    )


def _generate_random_terms(ef, seed: int):
    """The acceptance-size inputs: 10,000 termination samples at depth 7,
    1,000 handler-identity triples at depth 5, and 11 goldens x 50
    random-strategy seeds, shuffled into one list."""
    S, V = ef.syntax, ef.verify
    rng = random.Random(seed)
    rows = _rows(ef)
    items: list[tuple] = []
    for _ in range(10_000):
        ty = S.Comp(rng.choice(rows), _sample_type(ef, rng, rows, 2))
        items.append(("terminates", V.sample_typed(rng, ty, 7)))
    inp, out = V.OPERATIONS.get("op1")
    no_op1 = [r for r in rows if r.get("op1") is None]
    for _ in range(1000):
        ty = S.Comp(rng.choice(no_op1), rng.choice((V.A, V.B, S.UNIT)))
        term = V.sample_typed(rng, ty, 5)
        resume = S.Ann(
            S.Abs("p", S.Abs("k", S.App(S.Var("k"), S.Var("p")))),
            S.Fun(inp, S.Fun(S.Fun(out, ty), ty)),
        )
        identity = ef.prelude.eta_identity()
        wrapped = S.Handler((("op1", resume),), identity, term)
        items.append(("inert", (term, wrapped, S.Handler((), identity, term))))
    s = S.Const(SPEAKER)
    for g in ef.fragment.GOLDENS:
        term, expected = g.term(s), S.erase(g.expected)
        for _ in range(50):
            items.append(("agrees", (term, rng.randrange(2**32), expected)))
    rng.shuffle(items)
    return [items]


def _random_request(env: Env, item):
    normalize = env.ef.reduce.normalize
    kind, data = item
    if kind == "terminates":
        return normalize(data, record_steps=False)
    if kind == "inert":
        return [normalize(t, record_steps=False) for t in data]
    term, seed, _ = data
    return normalize(term, strategy="randomSeeded", seed=seed, record_steps=False)


def _random_check(env: Env, item, output) -> bool:
    R, S = env.ef.reduce, env.ef.syntax
    kind, data = item
    if kind == "terminates":
        return not isinstance(output.outcome, R.FuelExhausted)
    if kind == "agrees":
        return isinstance(output.outcome, R.NormalForm) and S.alpha_eq(
            S.erase(output.final), data[2]
        )
    plain, *others = output
    if not isinstance(plain.outcome, R.NormalForm):
        # a handler cannot dissolve around a term with no normal form
        return not any(isinstance(o.outcome, R.NormalForm) for o in others)
    return all(
        isinstance(o.outcome, R.NormalForm)
        and S.alpha_eq(S.erase(plain.final), S.erase(o.final))
        for o in others
    )


def _describe_random(sets) -> bytes:
    return "\n".join(repr(item) for items in sets for item in items).encode()


# declarations ---------------------------------------------------------------


@dataclass(frozen=True)
class DeclFile:
    label: str
    text: str
    directive_type: str


def _generate_declarations(ef, seed: int):
    rng = random.Random(seed)
    shipped = ef.fragment.shipped_source()
    sets = []
    for _ in range(INPUT_SETS):
        files = [
            DeclFile(
                f"fragment + depth {len(x.reports)}",
                f"{shipped}check {source(x)}.\n",
                DIRECTIVE_TYPE,
            )
            for x in sentence_mix(rng, DIRECTIVE_DEPTHS)
        ]
        files += [
            DeclFile(
                f"nested handlers, {n} levels",
                f"{VERIFY_SIGNATURE}check {nested_handler(n)}.\n",
                NESTED_TYPE,
            )
            for n in NEST_DEPTHS
        ]
        sets.append(files)
    return sets


def _declaration_request(env: Env, item: DeclFile):
    """What `efflam check FILE` does: parse, then synthesize every def
    and every directive in the file's own context."""
    ef = env.ef
    decl = ef.surface.parse_file(item.text)
    ctx = decl.context()
    defs = [ef.typecheck.synthesize(ctx, term) for _, _, term in decl.defs]
    directives = [ef.typecheck.synthesize(ctx, term) for _, term in decl.directives]
    return decl, defs, directives


def _declaration_check(env: Env, item: DeclFile, output) -> bool:
    show = env.ef.surface.print_type
    decl, defs, directives = output
    declared = [show(ty) for _, ty, _ in decl.defs]
    return (
        [show(ty) for ty in defs] == declared
        and bool(directives)
        and all(show(ty) == item.directive_type for ty in directives)
    )


def _describe_declarations(sets) -> bytes:
    return "\n".join(f.text for files in sets for f in files).encode()


# metatheory -----------------------------------------------------------------

_VERDICT = re.compile(r"^(\w+): (\d+) checked, (\d+) failures: (PASS|FAIL)$", re.M)
CHILD = Path(__file__).resolve().parent / "child.py"


@dataclass(frozen=True)
class Invocation:
    argv: tuple[str, ...]
    checked: int


@dataclass
class ChildResult:
    status: int
    stdout: str
    peak_rss_mb: float
    speed: list[float]  # the child's reference timings
    speed_s: float  # seconds the child spent on them, not part of the request


def _generate_metatheory(ef, seed: int):
    """The suites; the seed only orders them, since they are exhaustive."""
    order = [Invocation(argv, count) for argv, count, times in SUITES for _ in range(times)]
    random.Random(seed).shuffle(order)
    return [order]


def _metatheory_request(env: Env, item: Invocation) -> ChildResult:
    """Run `efflam ARGV` in a fresh interpreter and wait for it.

    A fresh process per invocation, as a user gets: every cache starts
    cold.  The peak resident set is read from the child's own rusage.
    """
    cmd = [sys.executable, str(CHILD), str(env.root)]
    if env.trace_dir is not None:
        trace = env.trace_dir / f"{item.argv[2]}-{env.request_id}.json"
        cmd += ["--trace", str(trace), "--request", str(env.request_id)]
    elif env.speed_samples:
        cmd += ["--speed", str(env.speed_samples)]
    proc = subprocess.Popen(
        [*cmd, "--", *item.argv], cwd=env.root, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL
    )
    try:
        stdout = proc.stdout.read().decode()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    speed = {"took": [], "spent": 0.0}
    if stdout.startswith("#speed ") or "\n#speed " in stdout:
        stdout, _, line = stdout.rpartition("#speed ")
        speed = json.loads(line)
    return ChildResult(
        proc.returncode, stdout, usage.ru_maxrss / 1024, speed["took"], speed["spent"]
    )


def _metatheory_check(env: Env, item: Invocation, output: ChildResult) -> bool:
    found = _VERDICT.findall(output.stdout)
    return (
        output.status == 0
        and len(found) == 1
        and found[0] == (item.argv[2], str(item.checked), "0", "PASS")
    )


def _describe_metatheory(sets) -> bytes:
    return repr(sets).encode()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sentences",
            _generate_sentences,
            _sentence_request,
            _sentence_check,
            _describe_sentences,
        ),
        Workload(
            "random_terms",
            _generate_random_terms,
            _random_request,
            _random_check,
            _describe_random,
        ),
        Workload(
            "metatheory",
            _generate_metatheory,
            _metatheory_request,
            _metatheory_check,
            _describe_metatheory,
        ),
        Workload(
            "declarations",
            _generate_declarations,
            _declaration_request,
            _declaration_check,
            _describe_declarations,
        ),
    )
}
