"""Parameter sweeps and 1-D design search over the scanner geometry."""

from __future__ import annotations

import math
from collections import namedtuple

from . import materials
from .multimorph import MultimorphStack
from .scanner import ScannerGeometry, solve_scanner


class ScanConfig(namedtuple("ScanConfig", ("substrate_E", "piezo_E", "d31", "substrate_t",
                                           "piezo_t", "beam_width", "beam_length",
                                           "mirror_side", "voltage"))):
    """One complete scanner design point: stack, mirror, and drive voltage."""

    __slots__ = ()

    def geometry(self) -> ScannerGeometry:
        """The design as the stack and mirror carriers. No model path calls this:
        perfbench's oracle op binds it."""
        stack = MultimorphStack(
            substrate_E=self.substrate_E,
            substrate_t=self.substrate_t,
            piezo_E=self.piezo_E,
            piezo_t=self.piezo_t,
            d31=self.d31,
            width=self.beam_width,
            length=self.beam_length,
        )
        return ScannerGeometry(stack=stack, mirror_side=self.mirror_side)


def reference_config() -> ScanConfig:
    """Scanner A: built-in materials, 5/1 um layers, 30 um wide 850 um beams,
    300 um mirror, 50 V drive."""
    return ScanConfig(
        substrate_E=materials.SILICON_E,
        piezo_E=materials.PZT5H_E,
        d31=materials.PZT5H_D31,
        substrate_t=5e-6,
        piezo_t=1e-6,
        beam_width=30e-6,
        beam_length=850e-6,
        mirror_side=300e-6,
        voltage=50.0,
    )


# Sweepable axis name -> ScanConfig field.
AXES = {
    "beam_length": "beam_length",
    "beam_width": "beam_width",
    "substrate_thickness": "substrate_t",
    "piezo_thickness": "piezo_t",
    "mirror_side": "mirror_side",
    "voltage": "voltage",
}


class SweepSpec(namedtuple("SweepSpec", ("base", "axis", "start", "stop", "steps"))):
    """Sweep one axis of base over steps values from start to stop; checked when built."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # _replace builds through _make

    def __new__(cls, base, axis, start, stop, steps):
        if axis not in AXES:
            raise ValueError(f"unknown axis {axis!r}; one of {sorted(AXES)}")
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ValueError("start and stop must be finite")
        if not start < stop:
            raise ValueError("need start < stop")
        if not math.isfinite(stop - start):
            raise ValueError("stop - start must be finite")
        if steps < 2:
            raise ValueError("steps must be >= 2")
        return super().__new__(cls, base, axis, start, stop, steps)

    def grid(self):
        """The parameter values in ascending order, start and stop included, as floats."""
        step = (self.stop - self.start) / (self.steps - 1)
        for i in range(self.steps - 1):
            yield self.start + i * step
        yield float(self.stop)


class SweepRecord(namedtuple("SweepRecord", ("param_value", "tilt_deg", "y_max_m", "force_N",
                                             "reaction_N", "status"))):
    """One sweep point. status is 'ok' or the error text of a failed point."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _points(base: ScanConfig, field: str, values):
    """SweepRecord fields, as tuples, of base with field set to each value in turn.

    A failed point's status is the error text that :func:`solve_scanner` raises.
    """
    design = list(base)
    index = base._fields.index(field)
    for value in values:
        design[index] = value
        try:
            force, _, _, _, r_a, tilt_signed, y_max, _ = solve_scanner(*design)
        except ValueError as exc:
            yield value, math.nan, math.nan, math.nan, math.nan, str(exc)
        else:
            yield value, math.degrees(abs(tilt_signed)), y_max, force, r_a, "ok"


def sweep_points(spec: SweepSpec):
    """The sweep grid's SweepRecord fields, as tuples, one point at a time."""
    return _points(spec.base, AXES[spec.axis], spec.grid())


def run_sweep(spec: SweepSpec) -> list[SweepRecord]:
    """Evaluate the sweep grid in ascending parameter order.

    Points that violate geometry invariants are reported as failed records
    rather than dropped; every evaluation is pure, so the result does not
    depend on evaluation order.
    """
    return [SweepRecord(*point) for point in sweep_points(spec)]


_OBJECTIVES = ("tilt", "y_max")
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_REL_TOL = 1e-4  # golden-section stop: bracket width relative to the larger |bound|


def optimize_1d(spec: SweepSpec, objective: str = "tilt") -> tuple[float, float]:
    """Maximize tilt or y_max over one axis.

    Coarse grid scan on spec.steps points, skipping those that fail, then
    golden-section refinement inside the bracketing triple around the grid
    optimum. Ties break toward the smaller parameter value. The returned
    objective is never below any grid sample. Raises ValueError "no feasible
    point on the sweep grid", or "objective undefined at {value}: {error}"
    where a golden-section point fails.
    """
    if objective not in _OBJECTIVES:
        raise ValueError(f"objective must be one of {_OBJECTIVES}")

    column = 1 if objective == "tilt" else 2  # of a sweep_points tuple
    grid = [(point[0], point[column]) for point in sweep_points(spec) if point[5] == "ok"]
    if not grid:
        raise ValueError("no feasible point on the sweep grid")

    best_x, best_f = grid[0]
    for x, f in grid[1:]:
        if f > best_f:
            best_x, best_f = x, f

    idx = [x for x, _ in grid].index(best_x)
    lo = grid[max(idx - 1, 0)][0]
    hi = grid[min(idx + 1, len(grid) - 1)][0]
    if lo == hi:
        return best_x, best_f

    design = list(spec.base)
    index = spec.base._fields.index(AXES[spec.axis])

    def objective_at(value: float) -> float:
        design[index] = value
        try:
            _, _, _, _, _, tilt_signed, y_max, _ = solve_scanner(*design)
        except ValueError as exc:
            raise ValueError(f"objective undefined at {value}: {exc}") from exc
        return math.degrees(abs(tilt_signed)) if column == 1 else y_max

    # Golden-section interior maximization on [lo, hi].
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc = objective_at(c)
    fd = objective_at(d)
    scale = max(abs(lo), abs(hi), 1e-30)
    while (b - a) > _REL_TOL * scale:
        if fc > fd or (fc == fd and c < d):
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = objective_at(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = objective_at(d)

    x_ref = c if (fc > fd or (fc == fd and c < d)) else d
    f_ref = max(fc, fd)
    if f_ref > best_f or (f_ref == best_f and x_ref < best_x):
        best_x, best_f = x_ref, f_ref
    return best_x, best_f


TABLE1_BEAM_LENGTHS = (850e-6, 600e-6, 500e-6)


def table1() -> list[SweepRecord]:
    """The three reference designs: 850/600/500 um beams, 30 um wide, 50 V."""
    return [SweepRecord(*point)
            for point in _points(reference_config(), "beam_length", TABLE1_BEAM_LENGTHS)]
