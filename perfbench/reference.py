"""The reference computation that measures the host's speed.

The benchmark's machine is a shared virtual machine whose speed drifts
by a quarter or more over tens of seconds, so a raw timing says as much
about the neighbours as about efflam.  Between requests, `run.py` times
this fixed computation and scales every timing by how long it took: a
timing is reported as it would read on a host where `run` takes
REFERENCE_S.  The computation is code of the same kind as efflam's
normalizer (a leftmost-outermost normalizer over tuples, with
capture-avoiding substitution), so a slow phase slows both alike; it is
frozen here, so a change to efflam cannot move it.

It normalizes 2^7 in Church numerals: 254 beta steps, about 9 ms.
"""

from __future__ import annotations

import gc
import itertools
import time

REFERENCE_S = 0.009  # what `run` takes on the host the benchmark was built on
SAMPLE_EVERY_S = 0.25  # time between two samples while a workload runs


def _subst(t, x, s, fresh):
    tag = t[0]
    if tag == "v":
        return s if t[1] == x else t
    if tag == "a":
        return ("a", _subst(t[1], x, s, fresh), _subst(t[2], x, s, fresh))
    y, body = t[1], t[2]
    if y == x:
        return t
    z = f"{y}_{next(fresh)}"
    return ("l", z, _subst(_subst(body, y, ("v", z), fresh), x, s, fresh))


def _step(t, fresh):
    tag = t[0]
    if tag == "a":
        f = t[1]
        if f[0] == "l":
            return _subst(f[2], f[1], t[2], fresh)
        r = _step(f, fresh)
        if r is not None:
            return ("a", r, t[2])
        r = _step(t[2], fresh)
        return None if r is None else ("a", f, r)
    if tag == "l":
        r = _step(t[2], fresh)
        return None if r is None else ("l", t[1], r)
    return None


def _church(n: int):
    body = ("v", "x")
    for _ in range(n):
        body = ("a", ("v", "f"), body)
    return ("l", "f", ("l", "x", body))


def normalize(t) -> tuple[object, int]:
    """The normal form of `t` and the number of steps to it."""
    fresh = itertools.count()
    steps = 0
    while (r := _step(t, fresh)) is not None:
        t, steps = r, steps + 1
    return t, steps


STEPS = 254
_TERM = ("a", _church(7), _church(2))


def run() -> float:
    """Seconds one normalization of 2^7 takes, with the collector off, so
    that how much efflam holds on the heap does not change the reading."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        began = time.perf_counter()
        _, steps = normalize(_TERM)
        took = time.perf_counter() - began
    finally:
        if enabled:
            gc.enable()
    if steps != STEPS:
        raise RuntimeError(f"reference took {steps} steps, not {STEPS}")
    return took
