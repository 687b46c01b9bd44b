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
`table1` and `verify`'s oracle checks all solve through it. The statics
split into a geometry part, the factors that depend on (a, span) alone,
and a load part that scales them, the one place that computes the
reaction, tilt and y_max (see :func:`statics`). :func:`solve_scanner` keeps
the last rigidity, keyed on the five stack fields :func:`section` reads,
and the last geometry factors, keyed on (a, span). The keys are checked
positive floats, so equal keys are equal bits: a hit returns the bits a
miss computes.
:func:`check_mirror` is the model's one check of the half-beam geometry,
and :class:`piezoscanner.oracle.BeamProblem` the oracle's. The closed forms
assume 0 < a < span and rigidity > 0. A stack's rigidity is positive
unless it underflows to 0, which :func:`statics` meets as a division by zero.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .multimorph import OutOfRangeError, check_stack, end_force, section


class ScannerGeometry(namedtuple("ScannerGeometry", ("stack", "mirror_side"))):
    """Mirror plus multimorph half-device geometry.

    a is the support-to-junction distance (half the mirror side);
    half_span = a + beam length. No model path builds one: perfbench's oracle
    op binds it, and one test class checks it. Every construction runs
    :func:`check_mirror` as the model does.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # _replace builds through _make

    def __new__(cls, stack, mirror_side):
        check_mirror(mirror_side, stack.length)
        return super().__new__(cls, stack, mirror_side)

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


def _geometry(a: float, span: float) -> tuple[float, float, float, float, float]:
    """(ratio, l3, q, y_factor, x_star), the factors of :func:`statics` that depend on
    (a, span) alone; raises OutOfRangeError where a power overflows or q underflows to 0."""
    try:
        q = a**2 + a * span + span**2
        ratio = (span - a) * (2 * span + a) / (2 * q)
        l3 = (span - a) ** 3
        r = (span + 2 * a) / (a + span)
        y_factor = 4 / 27 * (span + 2 * a) * r * r
        x_star = (span**2 + a * span + 4 * a**2) / (3 * (a + span))
    except ArithmeticError as exc:
        raise OutOfRangeError("half-beam statics", exc) from exc
    return ratio, l3, q, y_factor, x_star


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
    _, l3, q, _, _ = _geometry(a, span)
    return force * a * l3 / (4 * rigidity * q)


def _beam(x, slope, a, span):
    """The beam branch at x (a float or an array) of a design with this mirror slope.
    :func:`profile_points` repeats these operations inline, in this order."""
    length = span - a
    u = (x - span) / length
    return slope * u * u * (2 * a * (x - a) / length + x)


def _load(force: float, a: float, rigidity: float, geometry) -> tuple[float, float, float, float]:
    """statics' (reaction, tilt_signed, y_max, x_at_ymax) from the factors of :func:`_geometry`."""
    ratio, l3, q, y_factor, x_star = geometry
    try:
        slope = force * a * l3 / (4 * rigidity * q)
    except ZeroDivisionError as exc:
        raise OutOfRangeError("half-beam statics", exc) from exc
    r_a = 0.0 - force * ratio  # -(force ratio), and +0.0 at zero force
    tilt_signed = math.atan(slope)
    y_max = abs(slope) * y_factor
    x_at = x_star if force else a
    # Finite inputs can still overflow; no non-finite result may leave the model.
    if not math.isfinite(force + rigidity + r_a + tilt_signed + y_max):
        for name, value in (("force", force), ("rigidity", rigidity), ("reaction", r_a),
                            ("tilt", tilt_signed), ("y_max", y_max)):
            if not math.isfinite(value):
                raise ValueError(f"non-finite {name} ({value}); the design overflows double precision")
    return r_a, tilt_signed, y_max, x_at


def statics(force: float, a: float, span: float, rigidity: float) -> tuple[float, float, float, float]:
    """(reaction, tilt_signed, y_max, x_at_ymax) of a checked design.

    The beam branch's derivative, slope u (3 (a + span) v / L - 1), vanishes
    at the clamp (u = 0) and at x* = (span^2 + a span + 4 a^2) / (3 (a + span))
    = a + L^2 / (3 (a + span)), which lies strictly inside (a, span) because
    0 < L < 3 (a + span). There
    |y| = |slope| (4/27) (span + 2a) ((span + 2a) / (a + span))^2, more than
    the junction's |slope| a, the largest |y| on the mirror, so y_max is
    |y(x*)|. At zero force the profile is flat and (y_max, x_at_ymax) is (0.0, a).

    The geometry part, :func:`_geometry`, computes the factors that depend on
    (a, span) alone: the reaction ratio, L^3, q = a^2 + a span + span^2,
    y_factor = (4/27) (span + 2a) ((span + 2a) / (a + span))^2 and x*. The
    load part, :func:`_load`, scales them: the mirror-center support's
    reaction = 0 - force ratio, with ratio in (0, 1] and a zero reaction
    +0.0, slope = force a L^3 / (4 rigidity q), tilt = atan(slope) and
    y_max = |slope| y_factor.
    Each value takes one expression's operations in order, and the geometry
    part raises first, as a single pass would. :func:`solve_scanner` reuses
    the last factors and rigidity while their keys, (a, span) and section's
    five stack fields, are unchanged; the keys are checked positive floats, so
    equal keys are equal bits. statics caches nothing: it takes +-0 and nan.

    Raises OutOfRangeError where a stage overflows or divides by zero, and
    ValueError naming the first of force, rigidity, reaction, tilt and y_max
    that is not finite. Their sum is tested first: a sum with an inf or nan
    term is not finite, and only such a sum walks the loop that names the value.
    """
    return _load(force, a, rigidity, _geometry(a, span))


# solve_scanner's two one-entry caches, each (key, value) in one tuple so that a
# reader never pairs one call's key with another's value: the section's five stack
# fields -> rigidity, and (a, span) -> the geometry part's factors.
_last_section = ((), 0.0)
_last_geometry = ((), ())


def solve_scanner(substrate_E: float, piezo_E: float, d31: float, substrate_t: float,
                  piezo_t: float, beam_width: float, beam_length: float, mirror_side: float,
                  voltage: float) -> tuple[float, float, float, float, float, float, float, float]:
    """(force, rigidity, a, half_span, reaction, tilt_signed, y_max, x_at_ymax) of one design,
    given by the field values of :class:`~piezoscanner.sweep.ScanConfig` in its field order.

    The stack is checked first, then the mirror, so a design that fails both
    raises the stack's error. Nothing is sampled; :func:`profile_points`
    samples the profile.

    A sweep or an optimizer step changes one field of the last design, so
    the rigidity and the geometry factors are kept for their last key (see
    :func:`statics`); a computation that raises stores nothing. Threads may
    race on a miss, but each reads a key and its value from one tuple. The
    fields are floats, as the config parser and the sweeps give them: an int
    equal to a cached float reuses the float's value.
    """
    global _last_section, _last_geometry
    check_stack(substrate_E, substrate_t, piezo_E, piezo_t, beam_width, beam_length)
    a, span = check_mirror(mirror_side, beam_length)
    force = end_force(beam_width, piezo_t, piezo_E, d31, voltage, beam_length)
    stack = substrate_E, substrate_t, piezo_E, piezo_t, beam_width
    key, rigidity = _last_section
    if key != stack:
        rigidity = section(*stack)[3]
        _last_section = stack, rigidity
    ends = a, span
    key, geometry = _last_geometry
    if key != ends:
        geometry = _geometry(a, span)
        _last_geometry = ends, geometry
    r_a, tilt_signed, y_max, x_at = _load(force, a, rigidity, geometry)
    return force, rigidity, a, span, r_a, tilt_signed, y_max, x_at


def profile_points(samples: int, force: float, a: float, span: float, rigidity: float):
    """Sample the full-device profile of a solved design, yielding (u, y) pairs.

    u runs from the left anchor (u = 0) through the fixed mirror center
    (u = span) to the right anchor (u = 2 * span); the right half is the
    antisymmetric image of the left. Sampling is uniform in u; an even
    sample count is bumped by one so the mirror center is always a sample.
    The anchors and the center are the clamps and the fixed support, y = 0,
    and every zero ordinate is +0.0.

    Each left-half ordinate, at u_j = 2 span j / (samples - 1), is computed
    once, as the mirror segment or :func:`_beam` does, and kept: 8 bytes a
    sample, about 8 MB at a million. The right half's sample 2 span - u_j
    mirrors it, so its ordinate is exactly -y(u_j) and the antisymmetry is
    exact in floating point, with no second evaluation or check. A non-finite
    ordinate raises ValueError. The slope is computed at any sample count, so
    a design the closed forms cannot evaluate fails even with no interior
    sample; the anchors need no ordinate, as past the slope the beam branch
    divides only by span - a > 0.
    """
    if samples < 2:
        raise ValueError("samples must be >= 2")
    if samples % 2 == 0:
        samples += 1
    from array import array  # only profile loads it

    slope = _slope(force, a, span, rigidity)
    length = span - a
    two_a = 2 * a
    isfinite = math.isfinite
    full = 2 * span
    last = samples - 1
    mid = last // 2
    left = array("d", (0.0,)) * (mid - 1)  # the ordinate at u = full * j / last is left[j - 1]
    yield full * 0 / last, 0.0
    for i in range(1, mid):
        u = full * i / last
        x = span - u
        if x <= a:
            y = slope * x
        else:
            v = (x - span) / length
            y = slope * v * v * (two_a * (x - a) / length + x)
        if not isfinite(y):
            raise ValueError(f"non-finite profile ordinate ({y}) at u={u}")
        left[i - 1] = y
        yield u, y + 0.0
    # full * mid / last can round off span; the center is the fixed support.
    yield span, 0.0
    for j, y in zip(range(mid - 1, 0, -1), reversed(left)):
        yield full - full * j / last, 0.0 - y
    yield full - full * 0 / last, 0.0
