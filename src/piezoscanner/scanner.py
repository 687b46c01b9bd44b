"""Statically indeterminate half-scanner beam and the mirror tilt.

The device (anchor - multimorph - mirror - multimorph - anchor) is driven
antisymmetrically, so the mirror center stays fixed and the problem reduces
by symmetry to half the span: a simple support at the mirror center A
(x = 0), the equivalent end force F applied at the beam/mirror junction B
(x = a), and a clamp at the anchor C (x = L). Segment [A, B] is the rigid
half-mirror (zero curvature); segment [B, C] bends with the multimorph's
equivalent rigidity.

:func:`check_mirror` is the model's one check of the half-beam geometry,
and :class:`piezoscanner.oracle.BeamProblem` the oracle's. The closed forms
assume 0 < a < span and rigidity > 0. A stack's rigidity is positive
unless it underflows to 0, which :func:`statics` meets as a division by zero.
"""

from __future__ import annotations

import math

from .multimorph import OutOfRangeError, check_stack, end_force, section


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


def _geometry(a: float, span: float) -> tuple[float, float, float, float]:
    """(ratio, l3, q, y_factor), the factors of :func:`statics` that depend on (a, span)
    alone; raises OutOfRangeError where a power overflows or q underflows to 0."""
    try:
        q = a**2 + a * span + span**2
        ratio = (span - a) * (2 * span + a) / (2 * q)
        l3 = (span - a) ** 3
        r = (span + 2 * a) / (a + span)
        y_factor = 4 / 27 * (span + 2 * a) * r * r
    except ArithmeticError as exc:
        raise OutOfRangeError("half-beam statics", exc) from exc
    return ratio, l3, q, y_factor


# With L = span - a, the mirror segment is y = slope * x and the beam branch
# is the cubic force a (x - span)^2 ((a + span) x - 2 a^2) / den, double-rooted
# at the clamp, den = 4 rigidity (a^2 + a span + span^2). In the mirror's
# slope = force a L^3 / den that branch is slope u^2 (2 a v + x), with
# u = (x - span) / L in [-1, 0] and v = (x - a) / L in [0, 1]: its last factor
# sums terms >= 0, so no digits cancel however short the beam is, and each
# partial product stays at the result's scale, so none overflows before the
# result does, for huge forces and for huge spans alike. The branch meets the
# mirror exactly at x = a, where u = -1 and v = 0. Its peak is x* (see statics).


def _slope(force: float, a: float, span: float, rigidity: float) -> float:
    """The mirror segment's slope, force a L^3 / den, as :func:`statics` computes it."""
    _, l3, q, _ = _geometry(a, span)
    return force * a * l3 / (4 * rigidity * q)


def _beam(x, slope, a, span):
    """The beam branch at x (a float or an array) of a design with this mirror slope.
    :func:`profile_rows` repeats these operations inline, in this order."""
    length = span - a
    u = (x - span) / length
    return slope * u * u * (2 * a * (x - a) / length + x)


def statics(force: float, a: float, span: float, rigidity: float) -> tuple[float, float, float, float]:
    """(reaction, tilt_signed, y_max, x_at_ymax) of a checked design.

    The beam branch's derivative, slope u (3 (a + span) v / L - 1), vanishes
    at the clamp (u = 0) and at x* = (span^2 + a span + 4 a^2) / (3 (a + span))
    = a + L^2 / (3 (a + span)), which lies strictly inside (a, span) because
    0 < L < 3 (a + span). There
    |y| = |slope| (4/27) (span + 2a) ((span + 2a) / (a + span))^2, more than
    the junction's |slope| a, the largest |y| on the mirror, so y_max is
    |y(x*)|. At zero force the profile is flat and (y_max, x_at_ymax) is (0.0, a).

    The step of :func:`piezoscanner.sweep._stepper` repeats these operations inline, in
    order, all but x*, which no step reads. x* raises nothing: its powers are q's, which
    :func:`_geometry` has computed, and its divisor 3 (a + span) is 0 only where r's
    a + span has raised.

    Raises OutOfRangeError where a stage overflows or divides by zero, and
    ValueError naming the first of force, rigidity, reaction, tilt and y_max
    that is not finite. Their sum is tested first: a sum with an inf or nan
    term is not finite, and only such a sum walks the loop that names the value.
    """
    ratio, l3, q, y_factor = _geometry(a, span)
    try:
        slope = force * a * l3 / (4 * rigidity * q)
    except ZeroDivisionError as exc:
        raise OutOfRangeError("half-beam statics", exc) from exc
    r_a = 0.0 - force * ratio  # -(force ratio), and +0.0 at zero force
    tilt_signed = math.atan(slope)
    y_max = abs(slope) * y_factor
    x_at = (span**2 + a * span + 4 * a**2) / (3 * (a + span)) if force else a
    # Finite inputs can still overflow; no non-finite result may leave the model.
    if not math.isfinite(force + rigidity + r_a + tilt_signed + y_max):
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
    raises the stack's error. Nothing is sampled; :func:`profile_rows`
    samples the profile.
    """
    check_stack(substrate_E, substrate_t, piezo_E, piezo_t, beam_width, beam_length)
    a, span = check_mirror(mirror_side, beam_length)
    force = end_force(beam_width, piezo_t, piezo_E, d31, voltage, beam_length)
    rigidity = section(substrate_E, substrate_t, piezo_E, piezo_t, beam_width)[3]
    return (force, rigidity, a, span, *statics(force, a, span, rigidity))


def profile_rows(samples: int, force: float, a: float, span: float, rigidity: float,
                 lo: int = 0, hi: float = math.inf) -> list[float]:
    """Rows lo to hi - 1 (by default all) of a solved design's full-device profile at
    samples points, as a flat SI list [u0, y0, u1, y1, ...]; an empty range gives [].

    u runs uniformly from the left anchor (0) through the fixed mirror center (span) to the
    right anchor (2 span); an even sample count is bumped by one so the center is a sample.
    The anchors and the center are the clamps and the fixed support: y = +0.0, as is every
    zero ordinate. Left-half row j, at u_j = 2 span j / (samples - 1), is on the mirror or
    :func:`_beam`; the right-half row at 2 span - u_j negates that ordinate as 0.0 - y, so
    the antisymmetry is exact and the rows are a function of their range alone. A non-finite
    ordinate raises ValueError naming its u_j; only an ordinate sum that is not finite walks
    the loop that names it. The slope is computed for every range, so a design the closed
    forms cannot evaluate fails even with no interior sample; past it the beam branch
    divides only by span - a > 0.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    slope = _slope(force, a, span, rigidity)
    length = span - a
    two_a = 2 * a
    full = 2 * span
    last = (samples | 1) - 1
    mid = last // 2
    stop = min(hi, last + 1)
    left = range(max(lo, 1), min(stop, mid))
    right = range(last - max(lo, mid + 1), max(last - stop, 0), -1)  # row i at j = last - i
    us = [full * j / last for j in [*left, *right]]
    ys = []
    for u in us:
        x = span - u
        if x <= a:
            y = slope * x
        else:
            v = (x - span) / length
            y = slope * v * v * (two_a * (x - a) / length + x)
        ys.append(y + 0.0)
    if not math.isfinite(sum(ys)):
        for u, y in zip(us, ys):
            if not math.isfinite(y):
                raise ValueError(f"non-finite profile ordinate ({y}) at u={u}")
    # The rows at y = 0: the anchors, and the center, which full * mid / last can round off span.
    head, center, tail, n = lo == 0 < stop, lo <= mid < stop, lo <= last < stop, len(left)
    us = [0.0] * head + us[:n] + [span] * center + [full - u for u in us[n:]] + [full] * tail
    ys = [0.0] * head + ys[:n] + [0.0] * center + [0.0 - y for y in ys[n:]] + [0.0] * tail
    rows = us + ys
    rows[::2], rows[1::2] = us, ys
    return rows
