"""Command-line front end.

Five subcommands:

  check FILE       type-check a declaration file, print each definition's type
  normalize        reduce a term to normal form (from -e or a file's directives)
  trace            like normalize, but print every reduction step
  fragment         run the built-in corpus and diff against the expected forms
  verify           run one of the metatheory property suites

Exit status: 0 success; 1 parse or type error, a file that cannot be
read as UTF-8, or input nested too deeply to process; 2 corpus mismatch
or property failure; 3 stuck term or fuel exhaustion; 64 usage error.
When the reader of the output goes away (`efflam fragment | head -1`),
the command stops quietly with 0.
Inline expressions (-e) parse in the built-in fragment environment, so
the corpus signature (speaker, implicate, scope, ...) is available.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace

from .fragment import CONTEXT as FRAGMENT_CONTEXT
from .fragment import GOLDENS, IOTA, example
from .reduce import (
    ConfluenceError,
    FuelExhausted,
    NormalForm,
    ReductionTrace,
    Stuck,
    normalize,
)
from .surface import (
    DeclFile,
    ParseError,
    parse_file,
    parse_term,
    print_path,
    print_term,
    print_type,
)
from .syntax import Const, Term, alpha_eq, erase
from .typecheck import TypeCheckError, synthesize

STATUS_OK = 0
STATUS_BAD_TERM = 1
STATUS_MISMATCH = 2
STATUS_STUCK = 3
STATUS_USAGE = 64


class _Parser(argparse.ArgumentParser):
    """argparse with the usage exit status this tool promises."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(STATUS_USAGE)


class _Emitter:
    """Routes output as plain text or as line-delimited records."""

    def __init__(self, fmt: str):
        self.records = fmt == "records"
        if self.records:
            # only records need `json`, whose import every start-up would pay
            import json

            self.dumps = json.dumps

    def line(self, text: str, **record):
        if self.records:
            print(self.dumps(record, sort_keys=True))
        else:
            print(text)

    def error(self, text: str, **record):
        if self.records:
            print(self.dumps({"kind": "error", **record}, sort_keys=True))
        else:
            print(text, file=sys.stderr)


def _int_at_least(low: int):
    """An argparse type: an integer no smaller than `low`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _build_parser() -> _Parser:
    parser = _Parser(prog="efflam", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_term_source=False):
        p.add_argument("--format", choices=("text", "records"), default="text")
        if with_term_source:
            p.add_argument("file", nargs="?", help="declaration file with directives")
            p.add_argument("-e", "--expr", help="inline expression")
            p.add_argument(
                "--strategy",
                choices=("leftmostOutermost", "randomSeeded", "exhaustiveCheck"),
                default="leftmostOutermost",
            )
            p.add_argument("--fuel", type=_int_at_least(0), default=100_000)
            p.add_argument("--seed", type=int, default=0)

    check = sub.add_parser("check", help="type-check a declaration file")
    check.add_argument("file")
    common(check)

    common(sub.add_parser("normalize", help="print a term's normal form"), True)
    common(sub.add_parser("trace", help="print every reduction step"), True)

    fragment = sub.add_parser("fragment", help="run the built-in corpus")
    fragment.add_argument("--example", type=int, choices=range(1, 12))
    fragment.add_argument("--speaker", default="s")
    common(fragment)

    verify = sub.add_parser("verify", help="run a metatheory property suite")
    verify.add_argument(
        "--suite",
        required=True,
        choices=(
            "subjectReduction",
            "confluence",
            "termination",
            "handlerIdentity",
            "monadLaws",
        ),
    )
    verify.add_argument("--size", type=_int_at_least(1))
    verify.add_argument("--seed", type=int)
    common(verify)

    return parser


# ---------------------------------------------------------------------------
# check


def _read_declarations(path: str, out: _Emitter) -> DeclFile | int:
    """The parsed declaration file, or a status once the failure is reported."""
    try:
        with open(path, encoding="utf-8") as handle:
            return parse_file(handle.read())
    except (OSError, UnicodeDecodeError) as err:
        out.error(f"cannot read {path}: {err}", error="io", message=str(err))
    except ParseError as err:
        out.error(str(err), error="parse", message=str(err))
    return STATUS_BAD_TERM


def _cmd_check(args, out: _Emitter) -> int:
    decl = _read_declarations(args.file, out)
    if isinstance(decl, int):
        return decl
    ctx = decl.context()
    # (label, kind, the record's fields naming the item, term)
    items = [(name, "def", {"name": name}, term) for name, _, term in decl.defs]
    items += [
        (f"{kind} directive {index}", "directive", {"directive": kind, "index": index}, term)
        for index, (kind, term) in enumerate(decl.directives, start=1)
    ]
    for label, item_kind, named, term in items:
        try:
            ty = synthesize(ctx, term)
        except TypeCheckError as err:
            out.error(
                f"{label}: {err}",
                error=err.kind,
                **named,
                path=print_path(err.path),
                message=err.message,
            )
            return STATUS_BAD_TERM
        shown = print_type(ty)
        out.line(f"{label} : {shown}", kind=item_kind, **named, type=shown)
    return STATUS_OK


# ---------------------------------------------------------------------------
# normalize / trace


def _gather_terms(args, out: _Emitter) -> list[Term] | int:
    """The terms a normalize/trace invocation should reduce, or a status."""
    if (args.file is None) == (args.expr is None):
        print(
            "efflam: error: supply exactly one of FILE or -e EXPR", file=sys.stderr
        )
        return STATUS_USAGE
    if args.expr is not None:
        try:
            return [parse_term(args.expr, FRAGMENT_CONTEXT)]
        except ParseError as err:
            out.error(str(err), error="parse", message=str(err))
            return STATUS_BAD_TERM
    decl = _read_declarations(args.file, out)
    if isinstance(decl, int):
        return decl
    return [term for kind, term in decl.directives if kind in ("normalize", "trace")]


def _report_outcome(trace: ReductionTrace, out: _Emitter) -> int:
    # ascriptions are checker plumbing; display the bare term
    shown = print_term(erase(trace.final))
    match trace.outcome:
        case NormalForm():
            out.line(shown, kind="normalForm", term=shown, steps=trace.step_count)
            return STATUS_OK
        case Stuck(path, reason):
            out.line(
                f"stuck at {print_path(path)}: {reason}",
                kind="stuck",
                path=print_path(path),
                reason=reason,
                term=shown,
            )
            return STATUS_STUCK
        case FuelExhausted():
            out.line(
                f"no normal form within the fuel budget; stopped at {shown}",
                kind="fuelExhausted",
                term=shown,
            )
            return STATUS_STUCK
    raise AssertionError(trace.outcome)


def _cmd_normalize(args, out: _Emitter, traced: bool) -> int:
    terms = _gather_terms(args, out)
    if isinstance(terms, int):
        return terms
    status = STATUS_OK
    for term in terms:
        try:
            trace = normalize(
                term,
                strategy=args.strategy,
                fuel=args.fuel,
                seed=args.seed,
                record_steps=traced,
            )
        except ConfluenceError as err:
            out.error(str(err), error="confluence", message=str(err))
            return STATUS_MISMATCH
        if traced:
            rows = [("init", (), trace.initial)]
            rows += [(step.rule.value, step.path, step.term) for step in trace.steps]
            for i, (rule, path, term) in enumerate(rows):
                shown, where = print_term(erase(term)), print_path(path)
                out.line(
                    f"{i} {rule} @ {where} ⊢ {shown}",
                    kind="step",
                    step=i,
                    rule=rule,
                    path=where,
                    term=shown,
                )
        status = max(status, _report_outcome(trace, out))
    return status


# ---------------------------------------------------------------------------
# fragment


def _cmd_fragment(args, out: _Emitter) -> int:
    name = args.speaker
    declared = FRAGMENT_CONTEXT.constants.get(name)
    if declared != IOTA:
        out.error(
            f"--speaker must name an individual-denoting constant; {name!r} is not one",
            error="unknownName",
            message=f"bad speaker constant {name!r}",
        )
        return STATUS_BAD_TERM
    entries = [example(args.example)] if args.example else GOLDENS
    single = args.example is not None
    # the expected forms name the default speaker s; read s as the chosen one
    expected_ctx = replace(FRAGMENT_CONTEXT, defs={"s": Const(name)})
    status = STATUS_OK
    for entry in entries:
        trace = normalize(entry.term(Const(name)), record_steps=False)
        if not isinstance(trace.outcome, NormalForm):
            outcome = _report_outcome(trace, out)
            status = max(status, outcome)
            continue
        actual = erase(trace.final)
        expected = erase(parse_term(entry.expected_src, expected_ctx))
        ok = alpha_eq(actual, expected)
        shown = print_term(actual)
        prefix = "" if single else f"({entry.number}) "
        out.line(
            f"{prefix}{shown}",
            kind="example",
            example=entry.number,
            phrase=entry.phrase,
            wrapper=entry.wrapper,
            normalForm=shown,
            expected=print_term(expected),
            ok=ok,
        )
        if not ok:
            out.line(
                f"{prefix}MISMATCH, expected {print_term(expected)}",
                kind="mismatch",
                example=entry.number,
                expected=print_term(expected),
            )
            status = max(status, STATUS_MISMATCH)
    return status


# ---------------------------------------------------------------------------
# verify


def _cmd_verify(args, out: _Emitter) -> int:
    from .verify import run_suite

    report = run_suite(args.suite, size=args.size, seed=args.seed)
    if out.records:
        out.line(
            "",
            kind="report",
            suite=report.suite,
            checked=report.checked,
            failures=list(report.failures),
            ok=report.ok,
            coverage=report.coverage,
        )
    else:
        for line in report.lines():
            print(line)
    return STATUS_OK if report.ok else STATUS_MISMATCH


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exit_:
        return exit_.code if isinstance(exit_.code, int) else STATUS_USAGE
    out = _Emitter(args.format)
    try:
        match args.command:
            case "check":
                status = _cmd_check(args, out)
            case "normalize":
                status = _cmd_normalize(args, out, traced=False)
            case "trace":
                status = _cmd_normalize(args, out, traced=True)
            case "fragment":
                status = _cmd_fragment(args, out)
            case "verify":
                status = _cmd_verify(args, out)
            case _:
                raise AssertionError(args.command)
        sys.stdout.flush()  # a closed pipe shows up here, not at exit
    except RecursionError:
        # the parser recurses a few frames per nested parenthesis,
        # lambda or operation call, and the checker one frame per level
        # of the term, so the interpreter's stack bounds the input's depth
        message = "input too deeply nested to process"
        out.error(f"efflam: error: {message}", error="tooDeep", message=message)
        return STATUS_BAD_TERM
    except BrokenPipeError:
        # nothing more can be shown; let the exit flush write to nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return STATUS_OK
    return status


if __name__ == "__main__":
    sys.exit(main())
