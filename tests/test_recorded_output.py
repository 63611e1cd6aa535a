"""Printed output compared byte for byte with output recorded earlier.

The files under `expected/` pin what a refactoring must not change: the
corpus report, the trace of the shipped declaration file, and every
reduction step of the golden corpus.  After an intended change of
output, re-record them from the repository root:

    python -m efflam fragment --format text > tests/expected/fragment.text
    python -m efflam fragment --format records > tests/expected/fragment.records
    python -m efflam trace src/efflam/fragment.lam --format text \\
        > tests/expected/trace-fragment-lam.text
    python -m efflam trace src/efflam/fragment.lam --format records \\
        > tests/expected/trace-fragment-lam.records
    python -c "from tests.test_recorded_output import golden_steps; \\
        print(golden_steps(), end='')" > tests/expected/golden-steps.txt
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

import pytest

from efflam.cli import main
from efflam.fragment import GOLDENS
from efflam.reduce import normalize
from efflam.surface import print_path, print_term
from efflam.syntax import Const, erase

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


@pytest.mark.parametrize("fmt", ["text", "records"])
def test_fragment_report_is_unchanged(fmt, capsys):
    assert main(["fragment", "--format", fmt]) == 0
    assert capsys.readouterr().out == _recorded(f"fragment.{fmt}")


@pytest.mark.parametrize("fmt", ["text", "records"])
def test_trace_of_the_shipped_file_is_unchanged(fmt, capsys):
    with resources.as_file(resources.files("efflam") / "fragment.lam") as shipped:
        assert main(["trace", str(shipped), "--format", fmt]) == 0
    assert capsys.readouterr().out == _recorded(f"trace-fragment-lam.{fmt}")


def test_golden_steps_are_unchanged():
    got = golden_steps().splitlines(keepends=True)
    want = _recorded("golden-steps.txt").splitlines(keepends=True)
    assert len(got) == len(want)
    for line, (mine, recorded) in enumerate(zip(got, want), start=1):
        assert mine == recorded, f"golden-steps.txt line {line}"
