"""Parameter sweeps and 1-D design search over the scanner geometry."""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import repeat

from .multimorph import PZT5H_D31, PZT5H_E, SILICON_E, check_stack, section
from .scanner import _geometry, check_mirror, solve_scanner

_OracleBinding = namedtuple("OracleBinding", ("stack", "a", "half_span"))


class ScanConfig(namedtuple("ScanConfig", ("substrate_E", "piezo_E", "d31", "substrate_t",
                                           "piezo_t", "beam_width", "beam_length",
                                           "mirror_side", "voltage"))):
    """One complete scanner design point: stack, mirror, and drive voltage."""

    __slots__ = ()

    def geometry(self) -> _OracleBinding:
        """(stack, a, half_span): this design, checked as the solve checks it, and its half
        mirror and half span. No model path calls this: perfbench's oracle op binds it."""
        check_stack(self.substrate_E, self.substrate_t, self.piezo_E, self.piezo_t,
                    self.beam_width, self.beam_length)
        return _OracleBinding(self, *check_mirror(self.mirror_side, self.beam_length))


def reference_config() -> ScanConfig:
    """Scanner A: built-in materials, 5/1 um layers, 30 um wide 850 um beams,
    300 um mirror, 50 V drive."""
    return ScanConfig(
        substrate_E=SILICON_E,
        piezo_E=PZT5H_E,
        d31=PZT5H_D31,
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


def _stepper(base: ScanConfig, field: str):
    """A function step(value) that solves base with field set to value, as solve_scanner
    does, and gives the point's SweepRecord fields as a tuple.

    The step runs solve_scanner's checks as one test, then repeats the operations of
    end_force and of statics inline and in order, as profile_chunks does for _beam;
    test_hoisted_sweeps_match_reference_bit_for_bit holds it to their bits. Each part of
    the solve that does not read field is computed once, when the step is made: the test of
    the other fields that must be > 0, the force's left-to-right prefix
    1.5 * beam_width * piezo_t * piezo_E * d31, the section at unit width and the geometry
    factors. A point tests its value (unless field is d31 or voltage, which may take either
    sign) and 0 < a < span; if the base fails, every point does. The width enters the
    section only as the last factor of its inertia, width * K, and a unit width gives
    1.0 * K = K exactly, so e_ref * (beam_width * K) is section's rigidity at any width.
    A kept part has the bits of computing it again; one that raises on the base is
    computed at each point. A point that fails the test, raises, or has a non-finite result
    goes through solve_scanner, and the error text that it raises is the point's status.
    """
    design = list(base)
    index = base._fields.index(field)
    signed = field in ("d31", "voltage")
    checked = all(value > 0 for name, value in zip(base._fields, base)
                  if name not in ("d31", "voltage", field))
    prefix = unit = geometry = None
    if field not in ("beam_width", "piezo_t", "piezo_E", "d31"):
        prefix = 1.5 * base.beam_width * base.piezo_t * base.piezo_E * base.d31
    if field not in ("substrate_E", "substrate_t", "piezo_E", "piezo_t"):
        try:
            unit = section(base.substrate_E, base.substrate_t, base.piezo_E, base.piezo_t, 1.0)
        except ValueError:
            pass
    if field not in ("beam_length", "mirror_side"):
        a = base.mirror_side / 2
        try:
            geometry = _geometry(a, a + base.beam_length)
        except ValueError:
            pass
    atan, degrees, isfinite, nan = math.atan, math.degrees, math.isfinite, math.nan

    def step(value):
        design[index] = value
        (substrate_E, piezo_E, d31, substrate_t, piezo_t, beam_width, beam_length, mirror_side,
         voltage) = design
        a = mirror_side / 2
        span = a + beam_length
        if checked and (signed or value > 0) and 0 < a < span:
            force = ((1.5 * beam_width * piezo_t * piezo_E * d31 if prefix is None else prefix)
                     * voltage / beam_length)
            try:
                _, i_unit, e_ref, _ = unit or section(substrate_E, substrate_t, piezo_E,
                                                      piezo_t, 1.0)
                stiffness = e_ref * (beam_width * i_unit)
                ratio, l3, q, y_factor = geometry or _geometry(a, span)
                slope = force * a * l3 / (4 * stiffness * q)
                r_a = 0.0 - force * ratio
                tilt_signed = atan(slope)
                y_max = abs(slope) * y_factor
                if isfinite(force + stiffness + r_a + tilt_signed + y_max):
                    return value, degrees(abs(tilt_signed)), y_max, force, r_a, "ok"
            except (ArithmeticError, ValueError):
                pass
        try:
            force, _, _, _, r_a, tilt_signed, y_max, _ = solve_scanner(*design)
        except ValueError as exc:
            return value, nan, nan, nan, nan, str(exc)
        return value, degrees(abs(tilt_signed)), y_max, force, r_a, "ok"

    return step


def sweep_points(spec: SweepSpec):
    """The sweep grid's SweepRecord fields, as tuples, one point at a time."""
    return map(_stepper(spec.base, AXES[spec.axis]), spec.grid())


def run_sweep(spec: SweepSpec) -> list[SweepRecord]:
    """Evaluate the sweep grid in ascending parameter order.

    Points that violate geometry invariants are reported as failed records
    rather than dropped; every evaluation is pure, so the result does not
    depend on evaluation order.
    """
    # The step always gives six fields, so _make's length check has nothing to catch.
    return list(map(tuple.__new__, repeat(SweepRecord), sweep_points(spec)))


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

    column = 1 if objective == "tilt" else 2  # of a step's tuple
    step = _stepper(spec.base, AXES[spec.axis])
    grid = [(point[0], point[column]) for point in map(step, spec.grid()) if point[5] == "ok"]
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

    def objective_at(value: float) -> float:
        point = step(value)
        if point[5] != "ok":
            raise ValueError(f"objective undefined at {value}: {point[5]}")
        return point[column]

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
    return list(map(SweepRecord._make,
                    map(_stepper(reference_config(), "beam_length"), TABLE1_BEAM_LENGTHS)))
