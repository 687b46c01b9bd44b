"""Statically indeterminate half-scanner beam and the mirror tilt.

The device (anchor - multimorph - mirror - multimorph - anchor) is driven
antisymmetrically, so the mirror center stays fixed and the problem reduces
by symmetry to half the span: a simple support at the mirror center A
(x = 0), the equivalent end force F applied at the beam/mirror junction B
(x = a), and a clamp at the anchor C (x = L). Segment [A, B] is the rigid
half-mirror (zero curvature); segment [B, C] bends with the multimorph's
equivalent rigidity.

:func:`solve_scanner` is the model's one solve of a design, on the plain
floats of its fields: `model`, `profile`, the sweeps, the optimizer,
`table1` and `verify`'s oracle checks all solve through it.
:func:`check_mirror` is the model's one check of the half-beam geometry,
and :class:`piezoscanner.oracle.BeamProblem` the oracle's. The closed forms
assume 0 < a < span and rigidity > 0. A stack's rigidity is positive
unless it underflows to 0, which :func:`statics` meets as a division by zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .multimorph import MultimorphStack, OutOfRangeError, check_stack, end_force, section


@dataclass(frozen=True)
class ScannerGeometry:
    """Mirror plus multimorph half-device geometry.

    a is the support-to-junction distance (half the mirror side);
    half_span = a + beam length. No model path builds one: perfbench and
    the tests bind it, and it runs :func:`check_mirror` as the model does.
    """

    stack: MultimorphStack
    mirror_side: float

    def __post_init__(self) -> None:
        check_mirror(self.mirror_side, self.stack.length)

    @property
    def a(self) -> float:
        return self.mirror_side / 2

    @property
    def half_span(self) -> float:
        return self.a + self.stack.length


def check_mirror(mirror_side: float, length: float) -> tuple[float, float]:
    """(a, half_span) of a mirror side and beam length; raise unless 0 < a < half_span."""
    if not mirror_side > 0:
        raise ValueError("mirror_side must be > 0")
    a = mirror_side / 2
    if not a > 0:
        raise OutOfRangeError("mirror half side", f"a mirror side of {mirror_side} m halves to a = 0")
    span = a + length
    if not a < span:
        raise OutOfRangeError("half span", f"a + L rounds to a for a beam length of {length} m "
                              f"and a mirror side of {mirror_side} m")
    return a, span


def reaction(force: float, a: float, span: float) -> float:
    """Redundant reaction at the mirror-center support."""
    return -force * (a**3 - 3 * a * span**2 + 2 * span**3) / (2 * span**3 - 2 * a**3)


# The profile is y = mirror * x / den on the mirror segment and
# y = force * a * (c3 x^3 + x^2 c2 + x c1 - c0) / den on the beam. A design's
# den, mirror and cubic coefficients are computed once and each branch is
# evaluated from them, left to right.


def _profile_denominator(a: float, span: float, rigidity: float) -> float:
    return 4 * rigidity * (a**2 + span * a + span**2)


def _mirror_coefficient(force: float, a: float, span: float) -> float:
    """The rigid segment's slope times the profile denominator."""
    return -force * a * (a - span) ** 3


def _cubic_coefficients(a: float, span: float) -> tuple[float, float, float, float]:
    """(c3, c2, c1, c0) of the beam branch's bracket c3 x^3 + x^2 c2 + x c1 - c0."""
    return (a + span, -2 * span**2 - 2 * a**2 - 2 * a * span,
            span**3 + 4 * a**2 * span + a * span**2, 2 * a**2 * span**2)


def _slope_coefficients(a: float, span: float) -> tuple[float, float, float]:
    """(qa, qb, qc) of the beam branch's slope bracket qa x^2 + qb x + qc."""
    return (3 * (a + span), -2 * (2 * span**2 + 2 * a**2 + 2 * a * span),
            span**3 + 4 * a**2 * span + a * span**2)


def _beam(x, force_a, cubic, den):
    """The beam branch at x (a float or an array) from force * a, the cubic and den."""
    c3, c2, c1, c0 = cubic
    return force_a * (c3 * x**3 + x**2 * c2 + x * c1 - c0) / den


def _max_deflection(force: float, a: float, span: float, den: float,
                    mirror: float) -> tuple[float, float]:
    """Largest |deflection| on the flexible segment and its location, from the
    design's profile denominator and mirror coefficient.

    The stationary points of the cubic branch are the roots of its slope
    bracket (:func:`_slope_coefficients`): the clamp x = L and one point
    strictly inside (a, L). The junction value |y(a)| is compared as well.
    """
    if force == 0:
        return 0.0, a
    qa, qb, qc = _slope_coefficients(a, span)
    disc = qb * qb - 4 * qa * qc
    x_best, y_best = a, abs(mirror * a / den)
    if disc >= 0:
        sq = math.sqrt(disc)
        for root in ((-qb - sq) / (2 * qa), (-qb + sq) / (2 * qa)):
            if a < root < span * (1 - 1e-12):
                y_root = abs(_beam(root, force * a, _cubic_coefficients(a, span), den))
                if y_root > y_best:
                    x_best, y_best = root, y_root
    return y_best, x_best


def statics(force: float, a: float, span: float, rigidity: float) -> tuple[float, float, float, float]:
    """(reaction, tilt_signed, y_max, x_at_ymax) of a checked design.

    Raises OutOfRangeError where a stage overflows or divides by zero, and
    ValueError where the force, the rigidity or a result is not finite.
    """
    try:
        r_a = reaction(force, a, span)
        den = _profile_denominator(a, span, rigidity)
        mirror = _mirror_coefficient(force, a, span)
        tilt_signed = math.atan(mirror / den)
        y_max, x_at = _max_deflection(force, a, span, den, mirror)
    except ArithmeticError as exc:
        raise OutOfRangeError("half-beam statics", exc) from exc
    # Finite inputs can still overflow; no non-finite result may leave the model.
    for name, value in (("force", force), ("rigidity", rigidity), ("reaction", r_a),
                        ("tilt", tilt_signed), ("y_max", y_max)):
        if not math.isfinite(value):
            raise ValueError(f"non-finite {name} ({value}); the design overflows double precision")
    return r_a, tilt_signed, y_max, x_at


def solve_scanner(substrate_E: float, piezo_E: float, d31: float, substrate_t: float,
                  piezo_t: float, beam_width: float, beam_length: float, mirror_side: float,
                  voltage: float) -> tuple[float, float, float, float, float, float, float, float]:
    """(force, rigidity, a, half_span, reaction, tilt_signed, y_max, x_at_ymax) of one design,
    given by the field values of :class:`~piezoscanner.sweep.ScanConfig` in its field order.

    The stack is checked first, then the mirror, so a design that fails both
    raises the stack's error. Nothing is sampled; :func:`profile_points`
    samples the profile.
    """
    check_stack(substrate_E, substrate_t, piezo_E, piezo_t, beam_width, beam_length)
    a, span = check_mirror(mirror_side, beam_length)
    force = end_force(beam_width, piezo_t, piezo_E, d31, voltage, beam_length)
    rigidity = section(substrate_E, substrate_t, piezo_E, piezo_t, beam_width)[3]
    r_a, tilt_signed, y_max, x_at = statics(force, a, span, rigidity)
    return force, rigidity, a, span, r_a, tilt_signed, y_max, x_at


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

    den = _profile_denominator(a, span, rigidity)
    mirror = _mirror_coefficient(force, a, span)
    force_a = force * a
    cubic = _cubic_coefficients(a, span)

    def half(x: float) -> float:
        return mirror * x / den if x <= a else _beam(x, force_a, cubic, den)

    # The right half mirrors the grid of the left around the center, so the
    # antisymmetry of the two half-profiles is exact in floating point. The
    # anchors are clamped to y = 0: their ordinates are evaluated and
    # dropped, so a design the closed forms cannot evaluate fails at any
    # sample count.
    full = 2 * span
    last = samples - 1
    mid = last // 2
    u = full * 0 / last
    half(span - u)
    yield u, 0.0
    for i in range(1, mid):
        u = full * i / last
        y = half(span - u)
        if not math.isfinite(y):
            raise ValueError(f"non-finite profile ordinate ({y}) at u={u}")
        yield u, y
    # full * mid / last can round off span; the center is the fixed support.
    yield span, 0.0
    for i in range(mid + 1, last):
        u_mirror = full * (last - i) / last
        u = full - u_mirror
        y = -half(span - u_mirror)
        if not math.isfinite(y):
            raise ValueError(f"non-finite profile ordinate ({y}) at u={u}")
        yield u, y
    u_mirror = full * 0 / last
    half(span - u_mirror)
    yield full - u_mirror, 0.0
