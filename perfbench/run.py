"""The efflam benchmark: four seeded workloads, measured end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is sentences, random_terms, metatheory, declarations, or all.
The load is a closed loop with one client in one thread: a request
starts only after the previous one has been answered and checked, and
at most one child process runs at a time.  A run repeats whole passes
over the workload's requests for about S seconds (at least one pass),
checks every output against its known answer, prints a table of the
metrics, and prints them again as one JSON object on the last line.
Every end-to-end timing is scaled to a fixed host speed, measured by
the reference computation of `reference.py` between requests (see
`Speed`); the table shows the raw wall-clock values beside them.

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 the
run makes one untraced pass, then installs the span wrappers of
`spans.py`, makes the same pass again, and reports the per-layer
metrics, the fixed probes (deep-sentence ladder, nested handlers) timed
without tracing, and the tracing overhead.  Spans are written under
perfbench/out/.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import reference
import spans
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
MODULES = ("syntax", "typecheck", "reduce", "prelude", "surface", "fragment", "verify", "cli")
SETUPS = {"random_terms": 3}  # set-ups per run whose median is setup_s; default 9
PROBE_REPEATS = 3
SPEED_WINDOW_S = 2.0  # samples this close to a timing scale it
SPEED_MIN_SAMPLES = 5

END_TO_END = (
    ("setup_s", "s"),
    ("requests_per_s", "1/s"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("verdict_s", "s"),
    ("peak_rss_mb", "MB"),
)


def efflam_modules():
    """The efflam modules, one attribute each, imported from src/."""
    ef = SimpleNamespace(**{m: importlib.import_module(f"efflam.{m}") for m in MODULES})
    origin = Path(ef.syntax.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise RuntimeError(f"efflam was imported from {origin}, not from {SRC}")
    return ef


def import_efflam():
    """Import every efflam module afresh, as a new process would."""
    for name in [n for n in sys.modules if n == "efflam" or n.startswith("efflam.")]:
        del sys.modules[name]
    return efflam_modules()


class Speed:
    """The host's speed over a run, sampled by timing `reference.run`.

    A timing from START to END is scaled by REFERENCE_S over the median
    of the samples taken within SPEED_WINDOW_S of it (at least the
    SPEED_MIN_SAMPLES nearest), so it reads as it would on a host where
    the reference takes REFERENCE_S.  Samples are taken outside every
    timed request, and the time they take is kept apart in `spent`.
    """

    def __init__(self) -> None:
        self.at: list[float] = []  # midpoints, ascending
        self.took: list[float] = []
        self.spent = 0.0
        for _ in range(3):  # warm-up, not kept
            reference.run()
        self.sample()

    def sample(self) -> None:
        began = time.perf_counter()
        took = reference.run()
        self.at.append(began + took / 2)
        self.took.append(took)
        self.spent += time.perf_counter() - began

    def maybe_sample(self) -> None:
        """One sample per SAMPLE_EVERY_S since the last, up to
        SPEED_MIN_SAMPLES, so a long request has samples on each side."""
        owed = int((time.perf_counter() - self.at[-1]) / reference.SAMPLE_EVERY_S)
        for _ in range(min(owed, SPEED_MIN_SAMPLES)):
            self.sample()

    def factor(self, start: float, end: float, own: list[float] = ()) -> float:
        """The scale of a timing from START to END; a child process that
        timed the reference itself (`own`) is scaled by its own samples."""
        if own:
            return reference.REFERENCE_S / statistics.median(own)
        low = bisect.bisect_left(self.at, start - SPEED_WINDOW_S)
        high = bisect.bisect_right(self.at, end + SPEED_WINDOW_S)
        if high - low < SPEED_MIN_SAMPLES:
            mid = (start + end) / 2
            nearest = sorted(range(len(self.at)), key=lambda i: abs(self.at[i] - mid))
            window = [self.took[i] for i in nearest[:SPEED_MIN_SAMPLES]]
        else:
            window = self.took[low:high]
        return reference.REFERENCE_S / statistics.median(window)


def setup(workload: wl.Workload, seed: int):
    """Import efflam (which builds the fragment lexicon) and generate the
    workload's inputs from the seed; return them with the time taken."""
    began = time.perf_counter()
    ef = import_efflam()
    sets = workload.generate(ef, seed)
    return ef, sets, time.perf_counter() - began


def freeze_inputs() -> None:
    """Keep the held inputs, which are the harness's and not the program's,
    out of the collector's full passes during the timed phase."""
    gc.collect()
    gc.freeze()


@dataclass
class Pass:
    latencies: list[float] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)
    own_speed: list[list[float]] = field(default_factory=list)  # a child's reference timings
    failures: list[str] = field(default_factory=list)
    wall: float = 0.0  # without the speed samples taken during the pass
    child_rss_mb: float = 0.0


def run_pass(
    workload: wl.Workload, env: wl.Env, items: list, tracer=None, speed: Speed | None = None
) -> Pass:
    """One closed-loop pass; a request fails when it raises or when its
    output differs from the known answer.  With `speed`, the host's speed
    is sampled between requests."""
    result = Pass()
    spent = speed.spent if speed else 0.0
    child_sampling = 0.0
    began = time.perf_counter()
    for item in items:
        if tracer is not None:
            tracer.request_id = env.request_id
        if speed is not None:
            speed.maybe_sample()
        t0 = time.perf_counter()
        try:
            output = workload.request(env, item)
            sampling = getattr(output, "speed_s", 0.0)
            child_sampling += sampling
            latency = time.perf_counter() - t0 - sampling
            if tracer is not None:
                tracer.active = False
            ok = workload.check(env, item, output)
        except Exception:
            latency = time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            ok = False
            output = None
        finally:
            if tracer is not None:
                tracer.active = True
        env.request_id += 1
        result.starts.append(t0)
        result.own_speed.append(getattr(output, "speed", []))
        result.latencies.append(latency)
        result.child_rss_mb = max(result.child_rss_mb, getattr(output, "peak_rss_mb", 0.0))
        if not ok:
            result.failures.append(str(getattr(item, "label", item))[:160])
    sampling = child_sampling + ((speed.spent - spent) if speed else 0.0)
    result.wall = time.perf_counter() - began - sampling
    return result


def quantile(values: list[float], q: float) -> float:
    """The q-quantile, interpolating between ranks as numpy's default does."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def measured_run(workload: wl.Workload, seed: int, seconds: float) -> dict:
    speed = Speed()
    setups, raw_setups = [], []
    for _ in range(SETUPS.get(workload.name, 9)):
        speed.maybe_sample()
        began = time.perf_counter()
        ef, sets, took = setup(workload, seed)
        raw_setups.append(took)
        setups.append((began, took))
    speed.maybe_sample()
    setups = [took * speed.factor(began, began + took) for began, took in setups]
    freeze_inputs()
    env = wl.Env(ef, ROOT, speed_samples=SPEED_MIN_SAMPLES)
    passes: list[Pass] = []
    began = time.perf_counter()
    while True:
        passes.append(run_pass(workload, env, sets[len(passes) % len(sets)], speed=speed))
        elapsed = time.perf_counter() - began
        # stop unless another pass would still end near the deadline
        if elapsed + statistics.median(p.wall for p in passes) / 2 > seconds:
            break
    speed.sample()
    scaled = [
        [x * speed.factor(t, t + x, own) for t, x, own in zip(p.starts, p.latencies, p.own_speed)]
        for p in passes
    ]
    # a pass's wall time, checks included, at its requests' mean speed factor
    walls = [p.wall * sum(s) / sum(p.latencies) for p, s in zip(passes, scaled)]
    raw = [x for p in passes for x in p.latencies]
    samples = speed.took + [x for p in passes for own in p.own_speed for x in own]
    latencies = [x for s in scaled for x in s]
    failures = [f for p in passes for f in p.failures]
    child_rss = max(p.child_rss_mb for p in passes)
    own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = {
        "setup_s": statistics.median(setups),
        "requests_per_s": len(latencies) / sum(latencies),
        "latency_ms_p50": 1000 * quantile(latencies, 0.5),
        "latency_ms_p90": 1000 * quantile(latencies, 0.9),
        "verdict_s": statistics.median(walls),
        "peak_rss_mb": child_rss or own_rss,
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups; raw {statistics.median(raw_setups):.4g} s",
        "requests_per_s": f"{len(latencies)} requests over {sum(latencies):.2f} s busy; "
        f"raw {len(raw) / sum(raw):.4g} 1/s",
        "latency_ms_p50": f"n={len(latencies)}; raw {1000 * quantile(raw, 0.5):.4g} ms",
        "latency_ms_p90": f"n={len(latencies)}; raw {1000 * quantile(raw, 0.9):.4g} ms",
        "verdict_s": f"median of {len(passes)} passes; "
        f"raw {statistics.median(p.wall for p in passes):.4g} s",
        "peak_rss_mb": "verify child processes" if child_rss else "this process",
        "host_speed": f"reference median {1000 * statistics.median(samples):.4g} ms "
        f"over {len(samples)} samples; timings scaled to {1000 * reference.REFERENCE_S:g} ms",
    }
    return {
        "metrics": {name: (values[name], unit) for name, unit in END_TO_END},
        "notes": notes,
        "attempted": len(latencies),
        "failures": failures,
    }


def probes(ef) -> tuple[dict, list[str]]:
    """The fixed rows, timed without tracing: the deep-sentence ladder
    (normalization only) and the 12-level nested-handler check."""
    m, failures = {}, []
    S = ef.syntax
    s = S.Const(wl.SPEAKER)
    for depth in wl.LADDER_DEPTHS:
        sentence = wl.ladder(depth)
        term = ef.fragment.with_speaker(s, ef.fragment.denote(wl.tree(ef.fragment, sentence)))
        times = []
        for _ in range(PROBE_REPEATS):
            t0 = time.perf_counter()
            trace = ef.reduce.normalize(term, record_steps=False)
            times.append(time.perf_counter() - t0)
        if not S.alpha_eq(S.erase(trace.final), wl.logical_form(S, sentence, s)):
            failures.append(f"ladder d{depth}")
        m[f"reduce.ladder.d{depth}.ms"] = (1000 * statistics.median(times), "ms")
        m[f"reduce.ladder.d{depth}.nodes"] = (S.size(term), "count")
    decl = ef.surface.parse_file(f"{wl.VERIFY_SIGNATURE}check {wl.nested_handler(12)}.\n")
    term, ctx = decl.directives[0][1], decl.context()
    times = []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        ty = ef.typecheck.synthesize(ctx, term)
        times.append(time.perf_counter() - t0)
    if ef.surface.print_type(ty) != wl.NESTED_TYPE:
        failures.append("nest12")
    m["typecheck.nest12.ms"] = (1000 * statistics.median(times), "ms")
    m["typecheck.nest12.nodes"] = (S.size(term), "count")
    return m, failures


def traced_run(workload: wl.Workload, seed: int) -> dict:
    ef, sets, _ = setup(workload, seed)
    freeze_inputs()
    m, failures = probes(ef)
    plain = run_pass(workload, wl.Env(ef, ROOT), sets[0])
    child_dir = OUT / workload.name
    shutil.rmtree(child_dir, ignore_errors=True)
    child_dir.mkdir(parents=True)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced_sets = workload.generate(ef, seed)  # input generation is traced too
        traced = run_pass(workload, wl.Env(ef, ROOT, trace_dir=child_dir), traced_sets[0], tracer)
    finally:
        tracer.uninstall()
    tracer.write(OUT / f"{workload.name}.spans")
    parts = [tracer.totals()] + [json.loads(p.read_text()) for p in sorted(child_dir.glob("*.json"))]
    totals = spans.merge(parts)
    m.update(spans.layer_metrics(totals))
    m["trace.overhead_s"] = (traced.wall - plain.wall, "s")
    m["trace.spans"] = (totals["spans"], "count")
    return {
        "metrics": m,
        "notes": {
            "trace.overhead_s": f"traced pass {traced.wall:.3f} s, untraced pass {plain.wall:.3f} s"
        },
        "attempted": len(plain.latencies) + len(traced.latencies) + len(wl.LADDER_DEPTHS) + 1,
        "failures": failures + plain.failures + traced.failures,
    }


def report(name: str, seed: int, result: dict) -> None:
    """The human-readable table."""
    attempted, failed = result["attempted"], len(result["failures"])
    print(f"workload {name}, seed {seed}")
    for metric, (value, unit) in result["metrics"].items():
        note = result["notes"].get(metric, "")
        print(f"  {metric:<36} {value:>16.6g} {unit:<6} {note}")
    print(f"  {'error_rate':<36} {failed / attempted:>16.6g} {'ratio':<6} {failed} of {attempted} failed")
    if "host_speed" in result["notes"]:
        print(f"  host speed: {result['notes']['host_speed']}")
    for failure in result["failures"][:10]:
        print(f"    FAILED: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "efflam" / "__init__.py").is_file():
        print(f"run.py: no efflam sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.workload == "all":
        return run_all(args)
    workload = wl.WORKLOADS[args.workload]
    if args.trace:
        result = traced_run(workload, args.seed)
    else:
        result = measured_run(workload, args.seed, args.seconds)
    report(args.workload, args.seed, result)
    failed = len(result["failures"])
    metrics = {m: {"value": v, "unit": u} for m, (v, u) in result["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": result["attempted"],
                      "failed": failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in a process of its own, one after another, so each
    starts cold and reports its own peak memory; the JSON line merges them
    with the metric names prefixed by the workload."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in wl.WORKLOADS:
        argv = ["--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run([sys.executable, __file__, *argv],
                              stdout=subprocess.PIPE, text=True, check=True)
        *table, last = proc.stdout.splitlines()
        print("\n".join(table))
        result = json.loads(last)
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            summary["metrics"][f"{name}.{metric}"] = value
    summary["correct"] = summary["failed"] == 0
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
