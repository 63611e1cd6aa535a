"""Acceptance gate: one test per criterion, one pass/fail line each.

Run with `python3 -m pytest tests/test_acceptance.py -s -q` to see the
per-criterion lines; each test also enforces its runtime budget.
"""

import time

from efflam.cli import main
from efflam.fragment import GOLDENS, example
from efflam.reduce import NormalForm, normalize
from efflam.syntax import Abs, App, Const, Eta, Op, Term, alpha_eq, children, erase
from efflam.verify import (
    confluence,
    handler_identity,
    monad_laws,
    subject_reduction,
    termination,
)


def _report(n: int, name: str, ok: bool, dt: float, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    extra = f" — {detail}" if detail else ""
    print(f"criterion {n} ({name}): {verdict}{extra} ({dt:.2f}s)")
    assert ok, f"criterion {n} ({name}) failed{extra}"


def _eta_normal(t: Term) -> Term:
    trace = normalize(t, record_steps=False)
    assert isinstance(trace.outcome, NormalForm)
    return erase(trace.final)


def test_criterion_1_golden_corpus():
    t0 = time.perf_counter()
    bad = []
    for entry in GOLDENS:
        trace = normalize(entry.term(Const("s")), record_steps=False)
        if not isinstance(trace.outcome, NormalForm):
            bad.append(f"({entry.number}) no normal form")
            continue
        if not alpha_eq(erase(trace.final), _eta_normal(entry.expected)):
            bad.append(f"({entry.number}) mismatch")
    dt = time.perf_counter() - t0
    ok = not bad and dt < 1.0
    _report(1, "golden corpus", ok, dt, "; ".join(bad) or f"{len(GOLDENS)} entries")


def test_criterion_2_subject_reduction():
    t0 = time.perf_counter()
    rep = subject_reduction(max_size=6)
    dt = time.perf_counter() - t0
    _report(2, "subject reduction", rep.ok and dt < 120.0, dt, f"{rep.checked} reducts")


def test_criterion_3_confluence():
    t0 = time.perf_counter()
    rep = confluence(max_size=6)
    dt = time.perf_counter() - t0
    _report(3, "confluence graphs", rep.ok and dt < 300.0, dt, f"{rep.checked} graphs")

    t1 = time.perf_counter()
    disagreements = []
    for entry in GOLDENS:
        reference = normalize(entry.term(Const("s")), record_steps=False)
        for seed in range(50):
            trace = normalize(
                entry.term(Const("s")),
                strategy="randomSeeded",
                seed=seed,
                record_steps=False,
            )
            agree = type(trace.outcome) is type(reference.outcome) and alpha_eq(
                erase(trace.final), erase(reference.final)
            )
            if not agree:
                disagreements.append(f"({entry.number}) seed {seed}")
    dt1 = time.perf_counter() - t1
    ok = not disagreements and dt1 < 30.0
    _report(
        3,
        "random-strategy corpus agreement",
        ok,
        dt1,
        "; ".join(disagreements[:5]) or f"{len(GOLDENS)} entries x 50 seeds",
    )


def test_criterion_4_termination():
    t0 = time.perf_counter()
    rep = termination(samples=10_000, depth=7, fuel=100_000, seed=0)
    dt = time.perf_counter() - t0
    _report(4, "termination", rep.ok and dt < 120.0, dt, f"{rep.checked} samples")


def test_criterion_5_handler_identity():
    t0 = time.perf_counter()
    rep = handler_identity(samples=1000)
    dt = time.perf_counter() - t0
    _report(5, "handler identity", rep.ok and dt < 60.0, dt, f"{rep.checked} samples")


def test_criterion_6_monad_laws():
    t0 = time.perf_counter()
    rep = monad_laws(max_size=5)
    dt = time.perf_counter() - t0
    _report(6, "monad laws", rep.ok and dt < 60.0, dt, f"{rep.checked} checks")


def test_criterion_7_commute_partiality(capsys):
    t0 = time.perf_counter()
    argv = ["normalize", "-e", r"commute (\x. do speaker(x, \y. eta y))"]
    first_status = main(argv)
    first_out = capsys.readouterr()
    second_status = main(argv)
    second_out = capsys.readouterr()
    dt = time.perf_counter() - t0
    combined = first_out.out + first_out.err
    ok = (
        first_status == 3
        and "stuck" in combined
        and "variable x" in combined
        and second_status == first_status
        and (second_out.out, second_out.err) == (first_out.out, first_out.err)
    )
    _report(7, "commute partiality", ok, dt, combined.strip().splitlines()[-1])


def _has_op(t: Term) -> bool:
    match t:
        case Op():
            return True
    return any(_has_op(c) for c in children(t))


def _mentions(t: Term, name: str) -> bool:
    match t:
        case Const(n) if n == name:
            return True
    return any(_mentions(c, name) for c in children(t))


def test_criterion_8_insulation_and_projection():
    t0 = time.perf_counter()
    problems = []

    for n in (4, 10):
        nf = _eta_normal(example(n).term(Const("s")))
        if _has_op(nf):
            problems.append(f"({n}) still carries an operation node")

    nf8 = _eta_normal(example(8).term(Const("s")))
    match nf8:
        case Eta(App(App(Const("and"), left), right)):
            if not _mentions(left, "eq"):
                problems.append("(8) left conjunct is not the implicated equality")
            if _mentions(left, "forall"):
                problems.append("(8) a quantifier leaked into the implicated conjunct")
            match right:
                case App(Const("forall"), Abs()):
                    pass
                case _:
                    problems.append("(8) right conjunct is not the universal claim")
        case _:
            problems.append("(8) normal form is not a conjunction under eta")

    dt = time.perf_counter() - t0
    _report(
        8,
        "insulation and projection",
        not problems,
        dt,
        "; ".join(problems) or "entries 4, 10 operation-free; entry 8 equality outside the universal",
    )
