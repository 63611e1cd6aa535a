"""Run one `efflam` command line in this process, optionally traced.

    python3 perfbench/child.py ROOT [--trace FILE --request N] [--speed N] -- ARGS...

The metatheory workload starts one of these per `efflam verify`, so
each invocation begins with cold caches, as a user's would.  With
--trace, the tracing wrappers are installed before `efflam.cli.main`
runs; per-name totals go to FILE as JSON and the spans beside it, with
the suffix `.spans`.  With --speed N, the child times the reference
computation N times before the command, every SAMPLE_EVERY_S while it
runs (from a SIGALRM handler, so in the process and on the CPU that do
the work) and N times after it, and prints the timings and the seconds
they took as a last line `#speed {"took": [...], "spent": S}`.
"""

from __future__ import annotations

import argparse
import importlib
import json
import signal
import sys
import time
from pathlib import Path


def main() -> int:
    argv = sys.argv[1:]
    if "--" not in argv:
        print("usage: child.py ROOT [--trace FILE --request N] [--speed N] -- ARGS...",
              file=sys.stderr)
        return 64
    split = argv.index("--")
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("root", type=Path)
    parser.add_argument("--trace", type=Path)
    parser.add_argument("--request", type=int, default=0)
    parser.add_argument("--speed", type=int, default=0)
    args = parser.parse_args(argv[:split])
    sys.path.insert(0, str(args.root / "src"))
    import efflam.cli

    if args.trace is None:
        return timed_main(efflam.cli.main, argv[split + 1 :], args.speed)

    import spans

    importlib.import_module("efflam.verify")  # cli imports it lazily
    tracer = spans.Tracer()
    tracer.request_id = args.request
    tracer.install()
    try:
        status = efflam.cli.main(argv[split + 1 :])
    finally:
        tracer.uninstall()
    sys.stdout.flush()
    tracer.write(args.trace.with_suffix(".spans"))
    args.trace.write_text(json.dumps(tracer.totals()))
    return status


def timed_main(main, argv: list[str], samples: int) -> int:
    if not samples:
        return main(argv)
    import reference

    took: list[float] = []
    began = time.perf_counter()
    for _ in range(3):  # warm-up, not kept
        reference.run()
    spent = time.perf_counter() - began

    def sample(*_) -> None:
        nonlocal spent
        began = time.perf_counter()
        took.append(reference.run())
        spent += time.perf_counter() - began

    for _ in range(samples):
        sample()
    signal.signal(signal.SIGALRM, sample)
    signal.setitimer(signal.ITIMER_REAL, reference.SAMPLE_EVERY_S, reference.SAMPLE_EVERY_S)
    try:
        status = main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    for _ in range(samples):
        sample()
    print("#speed " + json.dumps({"took": took, "spent": spent}), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
