"""Statically indeterminate half-scanner beam and the mirror tilt.

The device (anchor - multimorph - mirror - multimorph - anchor) is driven
antisymmetrically, so the mirror center stays fixed and the problem reduces
by symmetry to half the span: a simple support at the mirror center A
(x = 0), the equivalent end force F applied at the beam/mirror junction B
(x = a), and a clamp at the anchor C (x = L). Segment [A, B] is the rigid
half-mirror (zero curvature); segment [B, C] bends with the multimorph's
equivalent rigidity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .multimorph import MultimorphStack, OutOfRangeError, equivalent_force, equivalent_section


class DegenerateGeometryError(ValueError):
    pass


@dataclass(frozen=True)
class ScannerGeometry:
    """Mirror plus multimorph half-device geometry.

    a is the support-to-junction distance (half the mirror side);
    half_span = a + beam length.
    """

    stack: MultimorphStack
    mirror_side: float

    def __post_init__(self) -> None:
        if not self.mirror_side > 0:
            raise ValueError("mirror_side must be > 0")
        if not self.a < self.half_span:
            raise OutOfRangeError("half span", f"a + L rounds to a for a beam length of "
                                  f"{self.stack.length} m and a mirror side of {self.mirror_side} m")

    @property
    def a(self) -> float:
        return self.mirror_side / 2

    @property
    def half_span(self) -> float:
        return self.a + self.stack.length


@dataclass(frozen=True)
class ScannerSolution:
    """Static response of the scanner at one drive voltage.

    tilt and y_max are magnitudes; tilt_signed keeps the orientation.
    """

    force: float
    reaction: float
    tilt: float
    tilt_signed: float
    y_max: float
    x_at_ymax: float
    rigidity: float


def _check_span(a: float, span: float) -> None:
    if not 0 < a < span:
        raise DegenerateGeometryError(f"need 0 < a < L, got a={a}, L={span}")


def reaction(force: float, a: float, span: float) -> float:
    """Redundant reaction at the mirror-center support."""
    _check_span(a, span)
    return -force * (a**3 - 3 * a * span**2 + 2 * span**3) / (2 * span**3 - 2 * a**3)


def _profile_denominator(a: float, span: float, rigidity: float) -> float:
    return 4 * rigidity * (a**2 + span * a + span**2)


def _mirror_branch(x: float, force: float, a: float, span: float, rigidity: float) -> float:
    den = _profile_denominator(a, span, rigidity)
    return -force * a * (a - span) ** 3 * x / den


def _beam_branch(x: float, force: float, a: float, span: float, rigidity: float) -> float:
    den = _profile_denominator(a, span, rigidity)
    bracket = (
        (a + span) * x**3
        + x**2 * (-2 * span**2 - 2 * a**2 - 2 * a * span)
        + x * (span**3 + 4 * a**2 * span + a * span**2)
        - 2 * a**2 * span**2
    )
    return force * a * bracket / den


def _mirror_branch_slope(force: float, a: float, span: float, rigidity: float) -> float:
    den = _profile_denominator(a, span, rigidity)
    return -force * a * (a - span) ** 3 / den


def _beam_branch_slope(x: float, force: float, a: float, span: float, rigidity: float) -> float:
    den = _profile_denominator(a, span, rigidity)
    bracket = (
        3 * (a + span) * x**2
        + 2 * x * (-2 * span**2 - 2 * a**2 - 2 * a * span)
        + (span**3 + 4 * a**2 * span + a * span**2)
    )
    return force * a * bracket / den


def profile_half(x: float, force: float, a: float, span: float, rigidity: float) -> float:
    """Signed deflection of the half-model at x.

    Linear (rigid rotation) on the mirror segment, cubic on the flexible
    segment; the two branches share value and slope at the junction and the
    cubic satisfies y = y' = 0 at the clamp.
    """
    if not 0 <= x <= span:
        raise ValueError(f"x={x} outside [0, {span}]")
    _check_span(a, span)
    if rigidity <= 0:
        raise ValueError("rigidity must be > 0")
    if x <= a:
        return _mirror_branch(x, force, a, span, rigidity)
    return _beam_branch(x, force, a, span, rigidity)


def profile_half_slope(x: float, force: float, a: float, span: float, rigidity: float) -> float:
    """Analytic derivative of :func:`profile_half`."""
    if not 0 <= x <= span:
        raise ValueError(f"x={x} outside [0, {span}]")
    _check_span(a, span)
    if x <= a:
        return _mirror_branch_slope(force, a, span, rigidity)
    return _beam_branch_slope(x, force, a, span, rigidity)


def tilt(force: float, a: float, span: float, rigidity: float) -> float:
    """Signed mirror tilt: arctan of the rigid segment's slope."""
    _check_span(a, span)
    return math.atan(_mirror_branch_slope(force, a, span, rigidity))


def max_deflection(force: float, a: float, span: float, rigidity: float) -> tuple[float, float]:
    """Largest |deflection| on the flexible segment and its location.

    The stationary point of the cubic branch solves
    3(a+L)x^2 - 2(2L^2 + 2a^2 + 2aL)x + (L^3 + 4a^2 L + a L^2) = 0,
    whose roots are the clamp x = L and one point strictly inside (a, L).
    The junction value |y(a)| is compared as well.
    """
    _check_span(a, span)
    if force == 0:
        return 0.0, a
    qa = 3 * (a + span)
    qb = -2 * (2 * span**2 + 2 * a**2 + 2 * a * span)
    qc = span**3 + 4 * a**2 * span + a * span**2
    disc = qb * qb - 4 * qa * qc
    x_best, y_best = a, abs(profile_half(a, force, a, span, rigidity))
    if disc >= 0:
        sq = math.sqrt(disc)
        for root in ((-qb - sq) / (2 * qa), (-qb + sq) / (2 * qa)):
            if a < root < span * (1 - 1e-12):
                y_root = abs(profile_half(root, force, a, span, rigidity))
                if y_root > y_best:
                    x_best, y_best = root, y_root
    return y_best, x_best


def solve_scanner(geometry: ScannerGeometry, voltage: float) -> ScannerSolution:
    """Scalar static solution: force, reaction, tilt, y_max and rigidity.

    Nothing is sampled here; :func:`profile_points` samples the profile.
    """
    a, span = geometry.a, geometry.half_span
    force = equivalent_force(geometry.stack, voltage)
    rigidity = equivalent_section(geometry.stack).rigidity
    try:
        r_a = reaction(force, a, span)
        tilt_signed = tilt(force, a, span, rigidity)
        y_max, x_at = max_deflection(force, a, span, rigidity)
    except ArithmeticError as exc:
        raise OutOfRangeError("half-beam statics", exc) from exc
    # Finite inputs can still overflow; no non-finite result may leave the model.
    for name, value in (("force", force), ("rigidity", rigidity), ("reaction", r_a),
                        ("tilt", tilt_signed), ("y_max", y_max)):
        if not math.isfinite(value):
            raise ValueError(f"non-finite {name} ({value}); the design overflows double precision")

    return ScannerSolution(force=force, reaction=r_a, tilt=abs(tilt_signed),
                           tilt_signed=tilt_signed, y_max=y_max, x_at_ymax=x_at, rigidity=rigidity)


def profile_points(samples: int, force: float, a: float, span: float, rigidity: float):
    """Sample the full-device profile of a solved design, yielding (u, y) pairs.

    u runs from the left anchor (u = 0) through the fixed mirror center
    (u = span) to the right anchor (u = 2 * span); the right half is the
    antisymmetric image of the left. Sampling is uniform in u; an even
    sample count is bumped by one so the mirror center is always a sample.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    if samples % 2 == 0:
        samples += 1

    def half(x: float) -> float:
        branch = _mirror_branch if x <= a else _beam_branch
        return branch(x, force, a, span, rigidity)

    # Mirror the grid around the center so the antisymmetry of the two
    # half-profiles is exact in floating point.
    full = 2 * span
    last = samples - 1
    for i in range(samples):
        if 2 * i == last:
            # full * i / last can round off span; the center is x = 0 exactly.
            u = span
            y = half(0.0)
        elif 2 * i < last:
            u = full * i / last
            y = half(span - u)
        else:
            u_mirror = full * (last - i) / last
            u = full - u_mirror
            y = -half(span - u_mirror)
        if i in (0, last):
            y = 0.0  # anchors are clamped; suppress closed-form round-off
        if not math.isfinite(y):
            raise ValueError(f"non-finite profile ordinate ({y}) at u={u}")
        yield u, y
