"""Exit-code contract, output formats, and subcommand behavior."""

import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import efflam
from efflam import cli
from efflam.cli import main
from efflam.fragment import example, shipped_source
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


@pytest.mark.parametrize(
    "src, column",
    [("do nosuch(*, \\x. eta x)", 4), ("handle { nosuch -> \\p. \\k. k p } (eta j)", 10)],
    ids=["call", "clause"],
)
def test_an_undeclared_operation_is_a_parse_error_at_its_name(src, column, capsys):
    assert main(["normalize", "-e", src]) == 1
    assert capsys.readouterr().err == (
        f"parse error at line 1, column {column}: unknown operation nosuch\n"
    )


def test_a_directive_calling_an_undeclared_operation_fails_to_parse(tmp_path, capsys):
    # at parse time, before the checker could call it an unknown name
    path = tmp_path / "undeclared.lam"
    path.write_text("atom a.\nconst c : a.\ncheck do nosuch(c, \\x. eta x).\n")
    assert main(["check", str(path), "--format", "records"]) == 1
    assert json.loads(capsys.readouterr().out) == {
        "error": "parse",
        "kind": "error",
        "message": "parse error at line 3, column 10: unknown operation nosuch",
    }


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
    doctored = dataclasses.replace(entry, expected_src="eta (love m j)")
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


def _ladder_source(depth: int) -> str:
    """A sentence of the fragment under `depth` indirect reports."""
    text = "loves me (every woman')"
    for i in range(depth):
        text = f"said-is ({text}) {('john', 'mary')[i % 2]}"
    return text


@pytest.mark.parametrize("fmt", ["text", "records"])
def test_status_for_input_nested_too_deeply(tmp_path, fmt, capsys):
    # the parser spends three frames per level of parentheses, so these
    # fit in the interpreter's stack
    for n in (150, 300):
        deep = "(" * n + "j" + ")" * n
        assert main(["normalize", "-e", deep, "--format", fmt]) == 0
    path = tmp_path / "ladder.lam"
    path.write_text(shipped_source() + f"check {_ladder_source(256)}.\n")
    assert main(["check", str(path), "--format", fmt]) == 0
    capsys.readouterr()
    # and these do not
    deep = "(" * 1000 + "j" + ")" * 1000
    assert main(["normalize", "-e", deep, "--format", fmt]) == 1
    path.write_text(shipped_source() + f"check {_ladder_source(512)}.\n")
    assert main(["check", str(path), "--format", fmt]) == 1
    captured = capsys.readouterr()
    if fmt == "text":
        assert captured.out == ""
        assert captured.err.count("too deeply nested") == 2
    else:
        records = [json.loads(line) for line in captured.out.splitlines()]
        assert [r["error"] for r in records] == ["tooDeep", "tooDeep"]
        assert all("too deeply nested" in r["message"] for r in records)


_DEEP = 10_000

# the shapes of deep input: each level is a parser frame or more
_DEEP_TERMS = {
    "parentheses": "(" * _DEEP + "j" + ")" * _DEEP,
    "etas": "eta " * _DEEP + "j",
    "lambdas": "".join(f"\\x{i}. " for i in range(_DEEP)) + "j",
    "operations": "do speaker(*, \\y. " * _DEEP + "eta y" + ")" * _DEEP,
}


@pytest.mark.parametrize("shape", _DEEP_TERMS)
@pytest.mark.parametrize("command", ["check", "normalize", "trace"])
def test_input_ten_thousand_levels_deep_is_too_deeply_nested(tmp_path, command, shape, capsys):
    path = tmp_path / "deep.lam"
    path.write_text(shipped_source() + f"normalize {_DEEP_TERMS[shape]}.\n")
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert "too deeply nested" in captured.err
    assert "Traceback" not in captured.out + captured.err
    if command != "check":
        assert main([command, "-e", _DEEP_TERMS[shape]]) == 1
        assert "too deeply nested" in capsys.readouterr().err


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


@pytest.mark.parametrize("command", ["check", "normalize"])
def test_a_file_that_is_not_utf8_is_an_error(command, tmp_path, capsys):
    path = tmp_path / "latin1.lam"
    path.write_bytes("atom a.\nconst caf\u00e9 : a.\n".encode("latin-1"))
    assert main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"cannot read {path}: 'utf-8' codec can't decode byte 0xe9")
    assert main([command, str(path), "--format", "records"]) == 1
    record = json.loads(capsys.readouterr().out)
    assert (record["kind"], record["error"]) == ("error", "io")
    assert "can't decode byte 0xe9" in record["message"]


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


@pytest.mark.parametrize(
    "expr", ["(\\x. x) j", "extract (eta j)", "j", "(\\x. \\y. eta (love x y)) j m"]
)
def test_normalize_records_count_the_steps_trace_shows(expr, capsys):
    assert main(["normalize", "-e", expr, "--format", "records"]) == 0
    (record,) = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert main(["trace", "-e", expr, "--format", "records"]) == 0
    traced = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert record == traced[-1]
    assert record["steps"] == len(traced) - 2  # less the init step and the verdict


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


def _module_env(**extra) -> dict[str, str]:
    """The environment for running `python -m efflam` from this checkout."""
    src = str(Path(efflam.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path, **extra}


def test_runs_as_a_module():
    done = subprocess.run(
        [sys.executable, "-m", "efflam", "fragment", "--example", "1"],
        env=_module_env(),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "eta (love j m)\n", "")


def test_a_reader_closing_after_one_line_ends_the_command_quietly():
    # unbuffered, so each record is written while the corpus still runs
    child = subprocess.Popen(
        [sys.executable, "-m", "efflam", "fragment", "--format", "records"],
        env=_module_env(PYTHONUNBUFFERED="1"),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert json.loads(child.stdout.readline())["example"] == 1
    child.stdout.close()
    assert child.wait(timeout=60) == 0
    assert child.stderr.read() == b""
    child.stderr.close()


def test_a_reader_gone_before_any_output_ends_the_command_quietly():
    # buffered, so the only write is the flush once the command is done
    env = _module_env()
    env.pop("PYTHONUNBUFFERED", None)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            [sys.executable, "-m", "efflam", "fragment", "--format", "records"],
            env=env,
            stdout=write_end,
            stderr=subprocess.PIPE,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (0, b"")


# ---------------------------------------------------------------------------
# fuzzing: any input ends in a documented status, with a message and no
# traceback

_STATUSES = {0, 1, 2, 3, 64}

# pieces of declaration files and of terms over the built-in fragment,
# so that some inputs get past the parser
_PIECES = [
    "atom a. ", "const c : a. ", "def d := ", "check ", "normalize ", "trace ", ". ",
    "j", "m", "love", "eta", "extract", "commute", "do speaker(*, ", "handle {",
    "speaker -> ", "eta -> ", "}", "\\x. ", "x", "k", "(", ")", ",", "*", " ", "\n",
    ":", " : ", "iota", "F{speaker}(iota)", " -> ", " /\\ ", " >>= ", "#", "$",
]
_sources = st.one_of(st.text(), st.lists(st.sampled_from(_PIECES), max_size=30).map("".join))


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return status, out.getvalue(), err.getvalue()


def _assert_documented(status, out, err, fmt):
    assert status in _STATUSES
    assert "Traceback" not in out + err
    if status == 1:
        assert (out if fmt == "records" else err).strip()


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(["check", "normalize", "trace"]),
    st.sampled_from(["text", "records"]),
    st.one_of(_sources.map(str.encode), st.binary()),
)
def test_main_ends_any_file_in_a_documented_status(tmp_path_factory, command, fmt, content):
    path = tmp_path_factory.getbasetemp() / "fuzzed.lam"
    path.write_bytes(content)
    argv = [command, str(path), "--format", fmt]
    if command != "check":
        argv += ["--fuel", "50"]
    _assert_documented(*_run(argv), fmt)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(["normalize", "trace"]), st.sampled_from(["text", "records"]), _sources)
def test_main_ends_any_expression_in_a_documented_status(command, fmt, expr):
    argv = [command, "-e", expr, "--format", fmt, "--fuel", "50"]
    _assert_documented(*_run(argv), fmt)
