"""Tests of the benchmark itself.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import random
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402


@pytest.fixture(scope="module")
def ef():
    return run.efflam_modules()


@pytest.fixture(scope="module")
def env(ef):
    return wl.Env(ef, run.ROOT)


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_same_seed_gives_identical_inputs(ef, name):
    workload = wl.WORKLOADS[name]
    first = workload.describe(workload.generate(ef, 7))
    assert first == workload.describe(workload.generate(ef, 7))
    if name != "metatheory":  # its seed only orders three fixed suites
        assert first != workload.describe(workload.generate(ef, 8))


@pytest.mark.parametrize(
    "number, sentence",
    [
        (4, wl.Sentence(wl.BASES[1], (("said-ds", "john"),))),
        (6, wl.Sentence(wl.BASES[0], (("said-is", "john"),))),
        (7, wl.Sentence(wl.BASES[0], (("said-ds", "john"),))),
    ],
)
def test_logical_form_rule_reproduces_goldens(ef, number, sentence):
    golden = ef.fragment.example(number)
    s = ef.syntax.Const("s")
    assert ef.syntax.alpha_eq(wl.logical_form(ef.syntax, sentence, s), golden.expected)
    built = ef.fragment.denote(wl.tree(ef.fragment, sentence))
    if golden.wrapper == "with_speaker":
        built = ef.fragment.with_speaker(s, built)
    assert ef.syntax.alpha_eq(built, golden.term(s))


def test_logical_form_rule_matches_shallow_mixes(env):
    sentences = wl.sentence_mix(random.Random(3), [0, 1, 2, 3, 4, 4, 5])
    items = wl._sentence_items(env.ef, sentences)
    result = run.run_pass(wl.WORKLOADS["sentences"], env, items)
    assert result.failures == []


def test_rule_counts_sum_to_steps(ef):
    tracer = spans.Tracer()
    tracer.install()
    try:
        traces = [
            ef.reduce.normalize(g.term(ef.syntax.Const("s"))) for g in ef.fragment.GOLDENS
        ]
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(spans.merge([tracer.totals()]))
    steps = metrics["reduce.steps"][0]
    assert steps == sum(len(t.steps) for t in traces) > 0
    assert sum(metrics[f"reduce.rule.{r}"][0] for r in spans.RULES) == steps
    seen = Counter(step.rule.value for t in traces for step in t.steps)
    assert all(metrics[f"reduce.rule.{r}"][0] == seen[r] for r in spans.RULES)
    assert metrics["reduce.normalize.calls"][0] == len(traces)


def _attributes():
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "efflam" or name.startswith("efflam.")
        for attr, value in vars(mod).items()
    }


def test_uninstall_restores_every_rebound_attribute(ef):
    before = _attributes()
    tracer = spans.Tracer()
    tracer.install()
    rebound = {key for key, value in _attributes().items() if value is not before[key]}
    tracer.uninstall()
    after = _attributes()
    assert ("efflam.reduce", "subst") in rebound and ("efflam.verify", "synthesize") in rebound
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_wrong_answers_count_as_failures(ef, env):
    sentences = wl.WORKLOADS["sentences"]
    good = wl._sentence_items(ef, [wl.ladder(1)])[0]
    wrong = replace(good, expected=wl.logical_form(ef.syntax, wl.ladder(2), ef.syntax.Const("s")))
    result = run.run_pass(sentences, env, [good, wrong, good])
    assert len(result.latencies) == 3 and len(result.failures) == 1

    declarations = wl.WORKLOADS["declarations"]
    nested = wl.DeclFile(
        "nested",
        f"{wl.VERIFY_SIGNATURE}check {wl.nested_handler(2)}.\n",
        wl.NESTED_TYPE,
    )
    result = run.run_pass(declarations, env, [nested, replace(nested, directive_type="F{}(B)")])
    assert len(result.failures) == 1

    random_terms = wl.WORKLOADS["random_terms"]
    golden = ef.fragment.example(1)
    term, expected = golden.term(ef.syntax.Const("s")), ef.syntax.erase(golden.expected)
    other = ef.syntax.erase(ef.fragment.example(2).expected)
    items = [("agrees", (term, 5, expected)), ("agrees", (term, 5, other))]
    assert len(run.run_pass(random_terms, env, items).failures) == 1

    metatheory = wl.WORKLOADS["metatheory"]
    items = [wl.Invocation(("verify", "--suite", "monadLaws"), n) for n in (80, 81)]
    result = run.run_pass(metatheory, env, items)
    assert len(result.failures) == 1 and result.child_rss_mb > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sentences", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_speed_scales_a_timing_by_the_samples_near_it():
    speed = run.Speed()
    ref = run.reference.REFERENCE_S
    speed.at = [0.0, 1.0, 2.0, 3.0, 4.0, 50.0]
    speed.took = [2 * ref] * 5 + [ref]
    assert speed.factor(1.5, 2.5) == pytest.approx(0.5)  # five samples within 2 s
    assert speed.factor(51.0, 51.5) == pytest.approx(0.5)  # one within 2 s: the five nearest
    speed.took = [ref] * 6
    assert speed.factor(0.0, 60.0) == pytest.approx(1.0)
