"""Exit-code contract, output formats, and subcommand behavior."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import efflam
from efflam import cli
from efflam.cli import main
from efflam.fragment import GoldenEntry, example
from efflam.verify import SuiteReport

GOOD_FILE = """
atom a.
const c : a.
def ident : a -> a := \\x. x.
def applied := ident c.
normalize ident c.
"""

BAD_TYPE_FILE = """
atom a.
const c : a.
def broken := c c.
"""


# ---------------------------------------------------------------------------
# exit statuses, one test per class


def test_status_ok(capsys):
    assert main(["fragment", "--example", "1"]) == 0
    assert capsys.readouterr().out == "eta (love j m)\n"


def test_status_parse_error(capsys):
    assert main(["normalize", "-e", "(\\x. x"]) == 1
    err = capsys.readouterr().err
    assert "expected" in err


def test_status_type_error(tmp_path, capsys):
    path = tmp_path / "bad.lam"
    path.write_text(BAD_TYPE_FILE)
    assert main(["check", str(path)]) == 1
    assert "broken" in capsys.readouterr().err


def test_status_mismatch_from_a_failing_suite(monkeypatch, capsys):
    monkeypatch.setattr(
        "efflam.verify.run_suite",
        lambda name, size=None, seed=None: SuiteReport(name, 1, ("boom",)),
    )
    assert main(["verify", "--suite", "monadLaws"]) == 2
    assert "FAIL" in capsys.readouterr().out


def test_status_mismatch_from_a_golden_diff(monkeypatch, capsys):
    entry = example(1)
    doctored = GoldenEntry(
        entry.number, entry.phrase, entry.wrapper, entry.builder, "eta (love m j)"
    )
    monkeypatch.setattr(cli, "example", lambda n: doctored)
    assert main(["fragment", "--example", "1"]) == 2
    out = capsys.readouterr().out
    assert "MISMATCH" in out and "eta (love m j)" in out


def test_status_stuck(capsys):
    status = main(["normalize", "-e", "commute (\\x. do speaker(x, \\y. eta y))"])
    assert status == 3
    out = capsys.readouterr().out
    assert "stuck" in out and "variable x" in out


def test_status_fuel_exhausted(capsys):
    assert main(["normalize", "-e", "(\\x. x x) (\\x. x x)", "--fuel", "50"]) == 3
    assert "fuel" in capsys.readouterr().out


def test_status_usage(capsys):
    assert main(["normalize"]) == 64
    assert main(["normalize", "-e", "eta j", "somefile.lam"]) == 64
    assert main(["nonsense"]) == 64
    assert main(["fragment", "--example", "12"]) == 64
    assert main(["verify", "--suite", "nonsense"]) == 64
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["normalize", "-e", "eta j", "--fuel", "-1"],
        ["trace", "-e", "eta j", "--fuel", "many"],
        ["verify", "--suite", "termination", "--size", "-3"],
        ["verify", "--suite", "confluence", "--size", "0"],
    ],
)
def test_status_usage_for_out_of_range_numbers(argv, capsys):
    assert main(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert argv[-2] in captured.err


def test_zero_fuel_is_a_budget_not_a_usage_error(capsys):
    assert main(["normalize", "-e", "(\\x. x) j", "--fuel", "0"]) == 3
    assert "fuel" in capsys.readouterr().out


@pytest.mark.parametrize(
    "expr, fuel, shown",
    [("eta j", "0", "eta j\n"), ("(\\x. eta x) j", "1", "eta j\n")],
)
def test_a_normal_form_exactly_fuel_steps_away_is_reached(expr, fuel, shown, capsys):
    assert main(["normalize", "-e", expr, "--fuel", fuel]) == 0
    assert capsys.readouterr().out == shown


# ---------------------------------------------------------------------------
# check


def test_check_prints_def_and_directive_types(tmp_path, capsys):
    path = tmp_path / "good.lam"
    path.write_text(GOOD_FILE)
    assert main(["check", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "ident : a -> a" in out
    assert "applied : a" in out
    assert any(line.startswith("normalize directive 1 : a") for line in out)


def test_check_records_are_json_with_the_same_verdict(tmp_path, capsys):
    path = tmp_path / "good.lam"
    path.write_text(GOOD_FILE)
    assert main(["check", str(path), "--format", "records"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert {"kind": "def", "name": "ident", "type": "a -> a"} in records


def test_check_type_error_record_carries_kind_and_path(tmp_path, capsys):
    path = tmp_path / "bad.lam"
    path.write_text(BAD_TYPE_FILE)
    assert main(["check", str(path), "--format", "records"]) == 1
    record = json.loads(capsys.readouterr().out.strip())
    assert record["kind"] == "error"
    assert record["error"] == "notAFunction"
    assert record["path"] == "0"


def test_check_missing_file(capsys):
    assert main(["check", "/nonexistent/f.lam"]) == 1
    assert "cannot read" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# normalize and trace


def test_normalize_inline_expression(capsys):
    assert main(["normalize", "-e", "extract (eta j)"]) == 0
    assert capsys.readouterr().out == "j\n"


def test_normalize_runs_file_directives(tmp_path, capsys):
    path = tmp_path / "good.lam"
    path.write_text(GOOD_FILE)
    assert main(["normalize", str(path)]) == 0
    assert capsys.readouterr().out == "c\n"


def test_trace_prints_numbered_steps(capsys):
    assert main(["trace", "-e", "(\\x. eta x) j"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "0 init @ root ⊢ (\\x. eta x) j"
    assert lines[1] == "1 beta @ root ⊢ eta j"
    assert lines[2] == "eta j"


def test_trace_records_mode_agrees_with_text(capsys):
    assert main(["trace", "-e", "(\\x. eta x) j", "--format", "records"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["kind"] for r in records] == ["step", "step", "normalForm"]
    assert records[1]["rule"] == "beta"
    assert records[2]["term"] == "eta j"


def test_normalize_random_strategy_agrees(capsys):
    for seed in ("0", "7"):
        assert (
            main(
                [
                    "normalize",
                    "-e",
                    "(\\x. eta x) (love j m)",
                    "--strategy",
                    "randomSeeded",
                    "--seed",
                    seed,
                ]
            )
            == 0
        )
    outs = capsys.readouterr().out.splitlines()
    assert outs == ["eta (love j m)", "eta (love j m)"]


def test_normalize_exhaustive_strategy(capsys):
    assert (
        main(["normalize", "-e", "extract (eta j)", "--strategy", "exhaustiveCheck"])
        == 0
    )
    assert capsys.readouterr().out == "j\n"


# ---------------------------------------------------------------------------
# fragment


def test_fragment_runs_the_full_corpus(capsys):
    assert main(["fragment"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 11
    assert lines[0] == "(1) eta (love j m)"
    assert lines[3] == "(4) eta (say j (love m j))"
    assert lines[5].startswith("(6) eta (say j (forall")
    assert lines[6].startswith("(7) eta (say j (forall")
    assert lines[8].startswith("(9) eta (forall")
    assert lines[10] == "(11) eta (love m s)"


def test_fragment_speaker_override(capsys):
    assert main(["fragment", "--example", "11", "--speaker", "m"]) == 0
    assert capsys.readouterr().out == "eta (love m m)\n"


def test_fragment_rejects_an_unknown_speaker(capsys):
    assert main(["fragment", "--speaker", "zilch"]) == 1
    assert "zilch" in capsys.readouterr().err


def test_fragment_records_verdicts(capsys):
    assert main(["fragment", "--format", "records"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(records) == 11
    assert all(r["ok"] for r in records)
    assert records[0]["normalForm"] == "eta (love j m)"
    assert records[0]["expected"] == "eta (love j m)"


# ---------------------------------------------------------------------------
# verify


def test_verify_suite_reports_pass(capsys):
    assert main(["verify", "--suite", "monadLaws", "--size", "4"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("monadLaws:") and "PASS" in out


def test_verify_records_mode(capsys):
    assert main(["verify", "--suite", "confluence", "--size", "3", "--format", "records"]) == 0
    record = json.loads(capsys.readouterr().out.strip())
    assert record["suite"] == "confluence"
    assert record["ok"] is True and record["failures"] == []


# ---------------------------------------------------------------------------
# the shipped corpus file works through the real entry point


def test_shipped_fragment_file_checks_and_normalizes(capsys):
    from importlib import resources

    with resources.as_file(
        resources.files("efflam").joinpath("fragment.lam")
    ) as path:
        assert main(["check", str(path)]) == 0
        capsys.readouterr()
        assert main(["normalize", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "eta (love j m)"
    assert out[1] == "eta (forall (\\y. man y -> exists (\\y'. woman y' /\\ love y y')))"


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_runs_as_a_module():
    src = str(Path(efflam.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-m", "efflam", "fragment", "--example", "1"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "eta (love j m)\n", "")
