"""The package gives the same answers under the benchmark's tracer.

`perfbench/spans.py` rebinds, in every loaded efflam module, each
attribute that holds a traced function to a wrapper: `contract_at` is
called as `(t, path, rule)`, `len()` is taken of what `enumerate_typed`
returns, and `.nodes` and `.complete` are read from each
`reduction_graph` result.  Each test runs a small version of what one
benchmark workload traces, traced first (so it meets the colder caches)
and then plain, and compares the two.  The last runs the metatheory
workload's traced child, `perfbench/child.py`, in a fresh interpreter,
where the tracer meets only the modules that `efflam.cli` imports.

    PYTHONPATH=src python -m pytest tests/test_traced.py -q
"""

from __future__ import annotations

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

from efflam import cli, reduce
from efflam.fragment import GOLDENS
from efflam.syntax import Const

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import spans  # noqa: E402

FRAGMENT_FILE = ROOT / "src" / "efflam" / "fragment.lam"


def _traced(run):
    """`run()` under an installed tracer, and the per-layer metrics."""
    importlib.import_module("efflam.verify")  # cli imports it lazily
    tracer = spans.Tracer()
    tracer.install()
    try:
        result = run()
    finally:
        tracer.uninstall()
    return result, spans.layer_metrics(spans.merge([tracer.totals()]))


def _steps(metrics) -> int:
    """The traced step count, checked against the per-rule counts."""
    steps = metrics["reduce.steps"][0]
    assert steps == sum(metrics[f"reduce.rule.{rule}"][0] for rule in spans.RULES)
    return steps


def _main(argv, capsys):
    status = cli.main(argv)
    return status, capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "subjectReduction", "--size", "5"],
        ["verify", "--suite", "confluence", "--size", "5"],
        ["verify", "--suite", "monadLaws", "--size", "5"],
        ["verify", "--suite", "termination", "--size", "1"],
        ["verify", "--suite", "handlerIdentity", "--size", "1"],
        ["check", str(FRAGMENT_FILE)],
        ["fragment"],
    ],
    ids=lambda argv: argv[2] if argv[0] == "verify" else argv[0],
)
def test_a_traced_command_prints_what_a_plain_one_does(argv, capsys):
    traced, metrics = _traced(lambda: _main(argv, capsys))
    plain = _main(argv, capsys)
    assert traced == plain
    assert plain[0] == 0 and plain[1]
    _steps(metrics)
    if argv[0] == "verify":
        assert metrics["reduce.normalize.calls"][0] or metrics["reduce.reducts.calls"][0]
    if argv[:3] == ["verify", "--suite", "confluence"]:
        assert metrics["verify.reduction_graph.nodes"][0] > 0
    if argv[:3] == ["verify", "--suite", "subjectReduction"]:
        assert metrics["verify.shapes_typed"][0] > 0


@pytest.mark.parametrize("strategy", ["leftmostOutermost", "randomSeeded"])
def test_traced_goldens_take_the_plain_steps(strategy):
    # through the module, whose attribute the tracer rebinds
    def run():
        return [
            reduce.normalize(entry.term(Const("s")), strategy, seed=seed)
            for seed in (range(3) if strategy == "randomSeeded" else (0,))
            for entry in GOLDENS
        ]

    traced, metrics = _traced(run)
    plain = run()
    for got, want in zip(traced, plain, strict=True):
        assert [(s.rule, s.path, s.term) for s in got.steps] == [
            (s.rule, s.path, s.term) for s in want.steps
        ]
        assert got.outcome == want.outcome and got.final == want.final
    assert _steps(metrics) == sum(trace.step_count for trace in plain) > 0
    assert metrics["reduce.normalize.calls"][0] == len(plain)


def test_a_traced_child_runs_a_suite_in_a_fresh_interpreter(tmp_path):
    trace = tmp_path / "monadLaws.json"
    child = ROOT / "perfbench" / "child.py"
    argv = [str(ROOT), "--trace", str(trace), "--", "verify", "--suite", "monadLaws"]
    proc = subprocess.run(
        [sys.executable, str(child), *argv], cwd=ROOT, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert "monadLaws: 80 checked, 0 failures: PASS" in proc.stdout.splitlines()
