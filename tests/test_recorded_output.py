"""Printed output compared byte for byte with output recorded earlier.

The files under `expected/` pin what a refactoring must not change: the
corpus report, the trace of the shipped declaration file (under the
default strategy and under one seed of the random one), and every
reduction step of the golden corpus, and, ascriptions included, every
step of a few runs that carry them.  After an intended change of
output, re-record them from the repository root:

    python -m efflam fragment --format text > tests/expected/fragment.text
    python -m efflam fragment --format records > tests/expected/fragment.records
    python -m efflam trace src/efflam/fragment.lam --format text \\
        > tests/expected/trace-fragment-lam.text
    python -m efflam trace src/efflam/fragment.lam --format records \\
        > tests/expected/trace-fragment-lam.records
    python -m efflam trace --strategy randomSeeded --seed 7 src/efflam/fragment.lam \\
        --format text > tests/expected/trace-fragment-lam-random-seed7.text
    python -m efflam trace --strategy randomSeeded --seed 7 src/efflam/fragment.lam \\
        --format records > tests/expected/trace-fragment-lam-random-seed7.records
    python -c "from tests.test_recorded_output import golden_steps; \\
        print(golden_steps(), end='')" > tests/expected/golden-steps.txt
    python -c "from tests.test_recorded_output import ascribed_steps; \\
        print(ascribed_steps(), end='')" > tests/expected/ascribed-steps.txt

The `check` output of a file with deep directives (see `deep_declarations`)
is recorded the same way:

    python -c "from tests.test_recorded_output import deep_declarations; \\
        print(deep_declarations(), end='')" > deep.lam
    python -m efflam check deep.lam --format text > tests/expected/check-deep.text
    python -m efflam check deep.lam --format records > tests/expected/check-deep.records
"""

from __future__ import annotations

import hashlib
from importlib import resources
from pathlib import Path

import pytest

from efflam.cli import main
from efflam.fragment import GOLDENS, shipped_source
from efflam.reduce import normalize
from efflam.surface import print_path, print_term
from efflam.syntax import App, Const, erase

from .test_reduce import _handled_chain, _ladder
from .test_typecheck import ladder_source, two_round_nest

EXPECTED = Path(__file__).parent / "expected"


def _recorded(name: str) -> str:
    return (EXPECTED / name).read_text(encoding="utf-8")


def golden_steps() -> str:
    """One line per step of each golden entry with the default speaker:
    entry number, step number, rule, position, printed term."""
    lines = []
    for entry in GOLDENS:
        trace = normalize(entry.term(Const("s")))
        for i, step in enumerate(trace.steps, start=1):
            lines.append(
                f"{entry.number} {i} {step.rule.value} {print_path(step.path)} "
                f"{print_term(erase(step.term))}\n"
            )
    return "".join(lines)


# a printed step term longer than this is recorded by a digest of its print
_PRINT_AT_MOST = 400


def ascribed_steps() -> str:
    """One line per step, ascriptions not erased, of the handled chain
    with an ascribed clause at n = 3, alone and one level below the root,
    and the d8 ladder under both strategies (seed 7), and of each golden
    entry under the default one:
    run, strategy, step number, rule, position, and the printed term, or
    the first 16 hex digits of the print's SHA-256 where it is longer
    than 400 characters."""
    both = ("leftmostOutermost", "randomSeeded")
    chain = _handled_chain(3, ascribed=True)
    runs = [
        ("chain3", chain, both),
        ("fchain3", App(Const("f"), chain), both),
        ("ladder8", _ladder(8), both),
    ]
    runs += [
        (f"golden{entry.number}", entry.term(Const("s")), both[:1]) for entry in GOLDENS
    ]
    lines = []
    for name, term, strategies in runs:
        for strategy in strategies:
            trace = normalize(term, strategy, seed=7)
            for i, step in enumerate(trace.steps, start=1):
                printed = print_term(step.term)
                if len(printed) > _PRINT_AT_MOST:
                    printed = "sha256:" + hashlib.sha256(printed.encode()).hexdigest()[:16]
                lines.append(
                    f"{name} {strategy} {i} {step.rule.value} {print_path(step.path)} {printed}\n"
                )
    return "".join(lines)


def deep_declarations() -> str:
    """The shipped declarations, the verify signature, and two deep
    `check` directives: a 12-deep handler nest whose rows take two rounds
    to settle, and a sentence under 64 indirect reports."""
    return (
        shipped_source()
        + "\n# the verify signature\n"
        + "atom A.\natom B.\nconst a0 : A.\n"
        + "operation op1 : A ~> A.\noperation op2 : A ~> B.\n\n"
        + f"check {print_term(two_round_nest(12))}.\n"
        + f"check {ladder_source(64)}.\n"
    )


@pytest.mark.parametrize("fmt", ["text", "records"])
def test_fragment_report_is_unchanged(fmt, capsys):
    assert main(["fragment", "--format", fmt]) == 0
    assert capsys.readouterr().out == _recorded(f"fragment.{fmt}")


@pytest.mark.parametrize("fmt", ["text", "records"])
def test_trace_of_the_shipped_file_is_unchanged(fmt, capsys):
    with resources.as_file(resources.files("efflam") / "fragment.lam") as shipped:
        assert main(["trace", str(shipped), "--format", fmt]) == 0
    assert capsys.readouterr().out == _recorded(f"trace-fragment-lam.{fmt}")


@pytest.mark.parametrize("fmt", ["text", "records"])
def test_random_trace_of_the_shipped_file_is_unchanged(fmt, capsys):
    with resources.as_file(resources.files("efflam") / "fragment.lam") as shipped:
        argv = ["trace", "--strategy", "randomSeeded", "--seed", "7", str(shipped)]
        assert main([*argv, "--format", fmt]) == 0
    assert capsys.readouterr().out == _recorded(f"trace-fragment-lam-random-seed7.{fmt}")


def test_golden_steps_are_unchanged():
    got = golden_steps().splitlines(keepends=True)
    want = _recorded("golden-steps.txt").splitlines(keepends=True)
    assert len(got) == len(want)
    for line, (mine, recorded) in enumerate(zip(got, want), start=1):
        assert mine == recorded, f"golden-steps.txt line {line}"


def test_ascribed_steps_are_unchanged():
    got = ascribed_steps().splitlines(keepends=True)
    want = _recorded("ascribed-steps.txt").splitlines(keepends=True)
    assert len(got) == len(want)
    for line, (mine, recorded) in enumerate(zip(got, want), start=1):
        assert mine == recorded, f"ascribed-steps.txt line {line}"


@pytest.mark.parametrize("fmt", ["text", "records"])
def test_check_of_deep_directives_is_unchanged(fmt, capsys, tmp_path):
    deep = tmp_path / "deep.lam"
    deep.write_text(deep_declarations(), encoding="utf-8")
    assert main(["check", str(deep), "--format", fmt]) == 0
    assert capsys.readouterr().out == _recorded(f"check-deep.{fmt}")
