"""Parameter sweeps and 1-D design search over the scanner geometry."""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, fields

from . import materials
from .multimorph import MultimorphStack
from .scanner import ScannerGeometry, solve_scanner


@dataclass(frozen=True)
class ScanConfig:
    """One complete scanner design point: stack, mirror, and drive voltage."""

    substrate_E: float
    piezo_E: float
    d31: float
    substrate_t: float
    piezo_t: float
    beam_width: float
    beam_length: float
    mirror_side: float
    voltage: float

    def geometry(self) -> ScannerGeometry:
        """The design as the stack and mirror carriers. No model path calls this:
        perfbench and the tests bind it."""
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

    def solve(self) -> tuple[float, float, float, float, float, float, float, float]:
        """(force, rigidity, a, half_span, reaction, tilt_signed, y_max, x_at_ymax); see
        :func:`~piezoscanner.scanner.solve_scanner`."""
        return solve_scanner(*(getattr(self, name) for name in _FIELDS))


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


_FIELDS = tuple(field.name for field in fields(ScanConfig))

# Sweepable axis name -> ScanConfig field.
AXES = {
    "beam_length": "beam_length",
    "beam_width": "beam_width",
    "substrate_thickness": "substrate_t",
    "piezo_thickness": "piezo_t",
    "mirror_side": "mirror_side",
    "voltage": "voltage",
}


@dataclass(frozen=True)
class SweepSpec:
    base: ScanConfig
    axis: str
    start: float
    stop: float
    steps: int

    def __post_init__(self) -> None:
        if self.axis not in AXES:
            raise ValueError(f"unknown axis {self.axis!r}; one of {sorted(AXES)}")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ValueError("start and stop must be finite")
        if not self.start < self.stop:
            raise ValueError("need start < stop")
        if not math.isfinite(self.stop - self.start):
            raise ValueError("stop - start must be finite")
        if self.steps < 2:
            raise ValueError("steps must be >= 2")

    def grid(self):
        """The parameter values in ascending order, start and stop included."""
        step = (self.stop - self.start) / (self.steps - 1)
        for i in range(self.steps - 1):
            yield self.start + i * step
        yield self.stop


class SweepRecord(namedtuple("SweepRecord", ("param_value", "tilt_deg", "y_max_m", "force_N",
                                             "reaction_N", "status"), defaults=("ok",))):
    """One sweep point. status is 'ok' or the error text of a failed point."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def _points(base: ScanConfig, field: str, values):
    """SweepRecord fields, as tuples, of base with field set to each value in turn.

    A failed point's status is the error text that :func:`solve_scanner` raises.
    """
    design = [getattr(base, name) for name in _FIELDS]
    index = _FIELDS.index(field)
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


def _objective_value(spec: SweepSpec, objective: str, value: float) -> float:
    _, tilt_deg, y_max, _, _, status = next(_points(spec.base, AXES[spec.axis], (value,)))
    if status != "ok":
        raise ValueError(f"objective undefined at {value}: {status}")
    return tilt_deg if objective == "tilt" else y_max


def optimize_1d(spec: SweepSpec, objective: str = "tilt") -> tuple[float, float]:
    """Maximize tilt or y_max over one axis.

    Coarse grid scan on spec.steps points, then golden-section refinement
    inside the bracketing triple around the grid optimum. Ties break toward
    the smaller parameter value. The returned objective is never below any
    grid sample.
    """
    if objective not in _OBJECTIVES:
        raise ValueError(f"objective must be one of {_OBJECTIVES}")

    records = run_sweep(spec)
    grid = [(r.param_value, r.tilt_deg if objective == "tilt" else r.y_max_m)
            for r in records if r.ok]
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

    # Golden-section interior maximization on [lo, hi].
    a, b = lo, hi
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc = _objective_value(spec, objective, c)
    fd = _objective_value(spec, objective, d)
    scale = max(abs(lo), abs(hi), 1e-30)
    while (b - a) > _REL_TOL * scale:
        if fc > fd or (fc == fd and c < d):
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = _objective_value(spec, objective, c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = _objective_value(spec, objective, d)

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
