"""Reference loops, rescaling to a nominal machine speed, and summary statistics.

The benchmark machine changes speed in phases of several seconds, and the
phases move fresh-process times by up to half. Each timed op is therefore
divided by a benchmark-owned reference timed next to it and multiplied by a
fixed nominal reference time: the result stays in milliseconds, at the
nominal speed. Fresh processes are rescaled by a bare interpreter start,
which tracks their phases; in-process ops by fixed in-process work of the
library's kind. Raw times are reported next to the rescaled ones.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time

from checks import closed_form
from inputs import Inputs

# Nominal reference times (ms). Fixed constants: they only set the scale.
NOMINAL_PROC_REF_MS = 15.0
NOMINAL_LOOP_REF_MS = 2.0

PROC_REF_REPEATS = 3
LOOP_REF_SOLVES = 150
LOOP_REF_DESIGNS = [Inputs(0, "reference").design() for _ in range(20)]


def proc_ref_ms(env: dict[str, str]) -> float:
    """Median wall time of a bare `python -I -S -c pass` start."""
    times = []
    for _ in range(PROC_REF_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], env=env, check=True)
        times.append((time.perf_counter() - start) * 1e3)
    return statistics.median(times)


def loop_ref_ms() -> float:
    """Wall time of fixed in-process work of the library's kind.

    Small numpy solves and scalar closed-form float math: over the machine's
    speed phases this tracked the library's ops about twice as closely as a
    pure integer loop did.
    """
    import numpy as np  # only the in-process worker calls this

    a = np.array([[4.0, 1.0, 0.0, 0.0], [1.0, 4.0, 1.0, 0.0],
                  [0.0, 1.0, 4.0, 1.0], [0.0, 0.0, 1.0, 4.0]])
    b = np.ones(4)
    start = time.perf_counter()
    for _ in range(LOOP_REF_SOLVES):
        np.linalg.solve(a, b)
    for design in LOOP_REF_DESIGNS:
        closed_form(design)
    return (time.perf_counter() - start) * 1e3


def rescale(raw_ms: list[float], refs_ms: list[float], nominal_ms: float) -> list[float]:
    return [raw / ref * nominal_ms for raw, ref in zip(raw_ms, refs_ms)]


def tail(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile above the median with at least 10 samples above it."""
    ordered = sorted(values)
    n = len(ordered)
    for pct in range(99, 50, -1):
        index = math.ceil(pct / 100 * n) - 1
        if n - 1 - index >= 10:
            return pct, ordered[index]
    return None


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def summary(raw_ms: list[float], scaled_ms: list[float]) -> dict:
    out = {
        "n": len(raw_ms),
        "p50_ms": statistics.median(scaled_ms),
        "p50_ms_raw": statistics.median(raw_ms),
    }
    found = tail(scaled_ms)
    if found is not None and math.isfinite(found[1]):
        out["tail_pct"], out["tail_ms"] = found
        out["tail_beyond"] = len(scaled_ms) - math.ceil(found[0] / 100 * len(scaled_ms))
    return out
