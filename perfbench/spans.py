"""Spans at efflam's layer boundaries, recorded from outside the package.

`install` rebinds, in every loaded efflam module, each attribute that
holds one of the functions in SPANNED or COUNTED, so calls made through
any module's globals reach a wrapper; `uninstall` puts the originals
back.  A spanned call opens a span unless the innermost open span is in
the same layer: only calls that cross into a layer count, so recursion
inside `syntax` (or `fragment.denote`) is one span.  Counted functions
open no span; they feed counters such as steps per rule.

Self time is a span's duration minus the time its child spans cover.
Time the tracer spends on its own bookkeeping (term sizes, byte counts)
is subtracted from the span that encloses it.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

SPANNED = {
    "reduce": ("normalize", "reducts"),
    "syntax": ("subst", "free_vars", "canonical_key", "alpha_eq", "erase"),
    "typecheck": ("synthesize", "check_against"),
    "verify": ("closed_shapes", "reduction_graph", "sample_typed"),
    "surface": ("parse_file", "parse_term", "print_term"),
    "fragment": ("denote", "with_speaker", "accommodate"),
    "cli": ("main",),
}
COUNTED = {"reduce": ("contract_at",), "verify": ("enumerate_typed",)}
RULES = ("beta", "eta", "bananaEta", "bananaOp", "bananaOpForward", "cherry", "cEta", "cOp")
ENUM_SIZE = 7  # the enumeration whose counts are reported on their own


class Tracer:
    """Spans kept in memory, plus per-name totals and counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.name = array("i")
        self.request = array("q")
        self.failed = array("b")
        self.stack: list[list] = []  # [span, layer, name, start, covered, excluded]
        self.request_id = -1
        self.active = True  # off while the benchmark checks an answer
        self.calls: Counter = Counter()
        self.failures: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)  # duration minus bookkeeping
        self.counts: Counter = Counter()
        self.peaks: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str, layer: str) -> list:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.parent.append(self.stack[-1][0] if self.stack else -1)
        self.name.append(nid)
        self.request.append(self.request_id)
        self.failed.append(0)
        self.end.append(0.0)
        frame = [index, layer, name, 0.0, 0.0, 0.0]
        self.stack.append(frame)
        frame[3] = now = time.perf_counter()
        self.start.append(now)
        return frame

    def close(self, frame: list, failed: bool) -> None:
        now = time.perf_counter()
        self.stack.pop()
        index, _, name, began, covered, excluded = frame
        duration = now - began
        self.end[index] = now
        self.calls[name] += 1
        self.self_s[name] += duration - covered
        self.total_s[name] += duration - excluded
        if failed:
            self.failures[name] += 1
            self.failed[index] = 1
        if self.stack:
            parent = self.stack[-1]
            parent[4] += duration
            parent[5] += excluded

    def exclude(self, seconds: float) -> None:
        """Charge bookkeeping time to no layer."""
        if self.stack:
            self.stack[-1][4] += seconds
            self.stack[-1][5] += seconds

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        """Rebind every efflam module attribute that holds a traced function."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == "efflam" or name.startswith("efflam.")
        }
        size = modules["efflam.syntax"].size
        wrappers = {}
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for layer, names in table.items():
                for fname in names:
                    fn = getattr(modules[f"efflam.{layer}"], fname, None)
                    if fn is not None:
                        wrappers[id(fn)] = (fn, make(layer, fname, fn, size))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._saved.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def uninstall(self) -> None:
        while self._saved:
            mod, attr, value = self._saved.pop()
            setattr(mod, attr, value)

    def _spanned(self, layer, fname, fn, size):
        name = f"{layer}.{fname}"
        observe = OBSERVERS.get(name)
        stack = self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active or (stack and stack[-1][1] == layer):
                return fn(*args, **kwargs)
            frame = self.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(frame, True)
                raise
            self.close(frame, False)
            if observe is not None:
                began = time.perf_counter()
                observe(self, args, kwargs, result, size)
                self.exclude(time.perf_counter() - began)
            return result

        return wrapper

    def _counted(self, layer, fname, fn, size):
        stack = self.stack
        counts = self.counts

        if fname == "contract_at":

            @functools.wraps(fn)
            def wrapper(t, path, rule):
                result = fn(t, path, rule)
                if self.active and stack and stack[-1][2] == "reduce.normalize":
                    began = time.perf_counter()
                    counts["reduce.steps"] += 1
                    counts[f"reduce.rule.{rule.value}"] += 1
                    self.peak("reduce.peak_size", size(result))
                    self.exclude(time.perf_counter() - began)
                return result

            return wrapper

        @functools.wraps(fn)
        def enumerate_typed(max_size, *args, **kwargs):
            result = fn(max_size, *args, **kwargs)
            if not self.active:
                return result
            counts["verify.shapes_typed"] += len(result)
            if max_size == ENUM_SIZE:
                counts[f"verify.enum{ENUM_SIZE}.shapes_typed"] += len(result)
            return result

        return enumerate_typed

    def peak(self, name: str, value: float) -> None:
        if value > self.peaks[name]:
            self.peaks[name] = value

    # -- output ------------------------------------------------------------

    def totals(self) -> dict:
        """Per-name totals and counters, as merged across processes."""
        return {
            "calls": dict(self.calls),
            "failures": dict(self.failures),
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "counts": dict(self.counts),
            "peaks": dict(self.peaks),
            "spans": len(self.start),
        }

    def write(self, path: Path) -> None:
        """Write every span: a JSON header line, then one column after
        another in native byte order (array typecodes in the header)."""
        columns = ("start", "end", "parent", "name", "request", "failed")
        header = {
            "names": self.names,
            "count": len(self.start),
            "columns": [[c, getattr(self, c).typecode] for c in columns],
            "fields": "start/end: perf_counter seconds; parent: span index or -1",
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for c in columns:
                getattr(self, c).tofile(out)


def merge(parts: list[dict]) -> dict:
    """Sum totals from several tracers; peaks take the maximum."""
    out = {"calls": Counter(), "failures": Counter(), "self_s": Counter(),
           "total_s": Counter(), "counts": Counter(), "peaks": {}, "spans": 0}
    for part in parts:
        for key in ("calls", "failures", "self_s", "total_s", "counts"):
            out[key].update(part[key])
        for key, value in part["peaks"].items():
            out["peaks"][key] = max(value, out["peaks"].get(key, 0))
        out["spans"] += part["spans"]
    return out


# ---------------------------------------------------------------------------
# Counters read from arguments and results, outside any span's time


def _normalize(tracer, args, kwargs, result, size):
    tracer.peak("reduce.peak_size", size(result.initial))
    outcome = type(result.outcome).__name__
    if outcome == "Stuck":
        tracer.counts["reduce.outcome.stuck"] += 1
    elif outcome == "FuelExhausted":
        tracer.counts["reduce.outcome.fuel_exhausted"] += 1


def _reducts(tracer, args, kwargs, result, size):
    tracer.counts["reduce.reducts.out"] += len(result)


def _closed_shapes(tracer, args, kwargs, result, size):
    tracer.counts["verify.shapes_generated"] += len(result)
    if (args[0] if args else kwargs["max_size"]) == ENUM_SIZE:
        tracer.counts[f"verify.enum{ENUM_SIZE}.shapes_generated"] += len(result)


def _reduction_graph(tracer, args, kwargs, result, size):
    tracer.counts["verify.reduction_graph.nodes"] += len(result.nodes)
    tracer.counts["verify.reduction_graph.budget_hits"] += not result.complete


def _parse_file(tracer, args, kwargs, result, size):
    src = args[0] if args else kwargs["src"]
    tracer.counts["surface.parse_file.bytes"] += len(src.encode("utf-8"))


OBSERVERS = {
    "reduce.normalize": _normalize,
    "reduce.reducts": _reducts,
    "verify.closed_shapes": _closed_shapes,
    "verify.reduction_graph": _reduction_graph,
    "surface.parse_file": _parse_file,
}


# ---------------------------------------------------------------------------
# Per-layer metrics

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(totals: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metrics from merged totals, as name -> (value, unit)."""
    calls, self_s, counts = totals["calls"], totals["self_s"], totals["counts"]
    m: dict[str, tuple[float, str]] = {}

    def span(name: str, *what: str) -> None:
        for w in what:
            if w == "calls":
                m[f"{name}.calls"] = (calls.get(name, 0), "count")
            else:
                m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")

    def count(name: str) -> None:
        m[name] = (counts.get(name, 0), "count")

    span("reduce.normalize", "calls", "self_s")
    count("reduce.steps")
    m["reduce.steps_per_s"] = (
        _ratio(counts.get("reduce.steps", 0), totals["total_s"].get("reduce.normalize", 0.0)),
        "1/s",
    )
    for rule in RULES:
        count(f"reduce.rule.{rule}")
    m["reduce.peak_size"] = (totals["peaks"].get("reduce.peak_size", 0), "count")
    count("reduce.outcome.stuck")
    count("reduce.outcome.fuel_exhausted")
    span("reduce.reducts", "calls", "self_s")
    count("reduce.reducts.out")
    for fname in SPANNED["syntax"]:
        span(f"syntax.{fname}", "calls", "self_s")
    span("typecheck.synthesize", "calls", "self_s")
    m["typecheck.synthesize.reject_ratio"] = (
        _ratio(totals["failures"].get("typecheck.synthesize", 0), calls.get("typecheck.synthesize", 0)),
        "ratio",
    )
    span("typecheck.check_against", "calls", "self_s")
    span("verify.closed_shapes", "self_s")
    count("verify.shapes_generated")
    count("verify.shapes_typed")
    m["verify.typed_yield"] = (
        _ratio(counts.get("verify.shapes_typed", 0), counts.get("verify.shapes_generated", 0)),
        "ratio",
    )
    count(f"verify.enum{ENUM_SIZE}.shapes_generated")
    count(f"verify.enum{ENUM_SIZE}.shapes_typed")
    span("verify.reduction_graph", "calls", "self_s")
    count("verify.reduction_graph.nodes")
    count("verify.reduction_graph.budget_hits")
    span("verify.sample_typed", "calls", "self_s")
    span("surface.parse_file", "calls", "self_s")
    m["surface.parse_file.bytes_per_s"] = (
        _ratio(counts.get("surface.parse_file.bytes", 0), self_s.get("surface.parse_file", 0.0)),
        "B/s",
    )
    span("surface.parse_term", "self_s")
    span("surface.print_term", "self_s")
    for fname in SPANNED["fragment"]:
        span(f"fragment.{fname}", "self_s")
    return m
