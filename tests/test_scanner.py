import math
import random
import re
import struct
import sys
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given

from piezoscanner.multimorph import OutOfRangeError, check_stack, end_force, section
from piezoscanner.scanner import _slope, check_mirror, solve_scanner, statics
from piezoscanner import sweep, verification
from piezoscanner.sweep import (
    AXES, ScanConfig, SweepSpec, optimize_1d, reference_config, sweep_points,
)
from piezoscanner.verification import branches

from conftest import (
    PROFILE_SAMPLES, Solution, extreme_profile_load, half, physical_designs, profile_outcome,
    profile_points, reference_profile_points, sampled,
)

# Scanner A: reference_config(), a 300 um mirror at 50 V. Frozen values computed by
# evaluating the reaction/tilt/extremum formulas independently (quadratic
# root by hand) and cross-checked by the finite-difference solver.
A = 150e-6
SPAN = 1000e-6
FORCE = -4.395282352941177e-05
RIGIDITY = 9.29782828606914e-11
REF_TILT_DEG = 0.5319742417015908
REF_YMAX = 2.285130752594303e-06
REF_X_AT = 3.594202898550724e-04
REF_REACTION = 3.4253213219616204e-05


def scanner_a(voltage: float):
    return reference_config()._replace(voltage=voltage)


def load_cases():
    """(force, a, span, rigidity) of the solves of physical designs under a nonzero drive."""
    def load(design):
        force, rigidity, a, span, *_ = solve_scanner(*design)
        return force, a, span, rigidity

    return physical_designs(d31_nonzero=True, drive="signed nonzero").map(load)


class TestReaction:
    def test_zero_force(self):
        assert statics(0.0, A, SPAN, RIGIDITY)[0] == 0.0

    def test_load_at_support(self):
        f = 1.0
        assert statics(f, 1e-9 * SPAN, SPAN, RIGIDITY)[0] == pytest.approx(-f, rel=1e-6)

    def test_midspan(self):
        assert statics(1.0, SPAN / 2, SPAN, RIGIDITY)[0] == pytest.approx(-5 / 14, rel=1e-12)

    def test_scanner_a(self):
        assert statics(FORCE, A, SPAN, RIGIDITY)[0] == pytest.approx(REF_REACTION, rel=1e-12)

    @pytest.mark.parametrize("force", [0.0, -0.0])
    def test_zero_reaction_is_positive_zero(self, force):
        assert statics(force, A, SPAN, RIGIDITY)[0].hex() == "0x0.0p+0"


class TestProfile:
    def test_support_condition(self):
        assert half(0.0, FORCE, A, SPAN, RIGIDITY)[0] == 0.0

    def test_clamp_conditions(self):
        y, dy = half(SPAN, FORCE, A, SPAN, RIGIDITY)
        assert abs(y) <= 1e-12 * REF_YMAX
        assert abs(dy) * SPAN <= 1e-12 * REF_YMAX

    def test_scanner_a_extremum_value(self):
        y = half(REF_X_AT, FORCE, A, SPAN, RIGIDITY)[0]
        assert abs(y) == pytest.approx(REF_YMAX, rel=1e-12)
        assert abs(y) == pytest.approx(2.29e-6, rel=0.01)

    @given(case=load_cases())
    def test_boundary_and_continuity(self, case):
        force, a, span, rigidity = case
        y_max = statics(force, a, span, rigidity)[2]
        y0 = half(0.0, force, a, span, rigidity)[0]
        y_end, dy_end = half(span, force, a, span, rigidity)
        y_mirror, y_beam, dy_mirror, dy_beam = branches(a, force, a, span, rigidity)
        y_jump = y_mirror - y_beam
        dy_jump = dy_mirror - dy_beam
        assert abs(y0) <= 1e-12 * y_max
        assert abs(y_end) <= 1e-12 * y_max
        assert abs(dy_end) * span <= 1e-12 * y_max
        assert abs(y_jump) <= 1e-12 * y_max
        assert abs(dy_jump) * span <= 1e-12 * y_max

    @given(case=load_cases())
    def test_mirror_segment_is_straight(self, case):
        force, a, span, rigidity = case
        y_max = statics(force, a, span, rigidity)[2]
        second = (
            half(a / 4, force, a, span, rigidity)[0]
            - 2 * half(a / 2, force, a, span, rigidity)[0]
            + half(3 * a / 4, force, a, span, rigidity)[0]
        )
        assert abs(second) <= 1e-10 * max(y_max, 1e-300)


class TestTilt:
    def test_zero_force(self):
        assert statics(0.0, A, SPAN, RIGIDITY)[1] == 0.0

    def test_vanishing_beam(self):
        assert statics(FORCE, SPAN * (1 - 1e-9), SPAN, RIGIDITY)[1] == pytest.approx(0.0, abs=1e-12)

    def test_scanner_a(self):
        phi = statics(FORCE, A, SPAN, RIGIDITY)[1]
        assert math.degrees(abs(phi)) == pytest.approx(REF_TILT_DEG, rel=1e-12)
        assert math.degrees(abs(phi)) == pytest.approx(0.532, rel=0.01)

    @given(case=load_cases())
    def test_matches_rigid_segment_slope(self, case):
        force, a, span, rigidity = case
        phi = statics(force, a, span, rigidity)[1]
        slope = half(0.0, force, a, span, rigidity)[1]
        assert math.tan(abs(phi)) == pytest.approx(abs(slope), rel=1e-12, abs=1e-300)

    def test_tan_linearity_in_force(self):
        t1 = math.tan(statics(FORCE, A, SPAN, RIGIDITY)[1])
        t2 = math.tan(statics(2 * FORCE, A, SPAN, RIGIDITY)[1])
        assert t2 == pytest.approx(2 * t1, rel=1e-9)


class TestMaxDeflection:
    def test_zero_force(self):
        assert statics(0.0, A, SPAN, RIGIDITY)[2:] == (0.0, A)

    def test_scanner_a(self):
        y_max, x_at = statics(FORCE, A, SPAN, RIGIDITY)[2:]
        assert y_max == pytest.approx(REF_YMAX, rel=1e-12)
        assert x_at == pytest.approx(REF_X_AT, rel=1e-12)

    def test_extremum_is_interior_stationary_point(self):
        _, x_at = statics(FORCE, A, SPAN, RIGIDITY)[2:]
        assert A < x_at < SPAN
        assert abs(half(x_at, FORCE, A, SPAN, RIGIDITY)[1]) * SPAN <= 1e-10 * REF_YMAX

    @given(case=load_cases())
    def test_dominates_sampled_profile(self, case):
        force, a, span, rigidity = case
        y_max, _ = statics(force, a, span, rigidity)[2:]
        for i in range(101):
            x = min(span * i / 100, span)
            assert abs(half(x, force, a, span, rigidity)[0]) <= y_max * (1 + 1e-9)


class TestSolveScanner:
    def test_zero_voltage(self):
        sol, profile = sampled(scanner_a(0.0), 51)
        assert sol.tilt_signed == 0.0
        assert all(y == 0.0 for _, y in profile)

    def test_center_is_fixed(self):
        _, profile = sampled(scanner_a(50.0), 401)
        center = profile[len(profile) // 2]
        assert center[0] == pytest.approx(SPAN, rel=1e-12)
        assert center[1] == 0.0

    def test_antisymmetry(self):
        _, profile = sampled(scanner_a(50.0), 401)
        for (u1, y1), (u2, y2) in zip(profile, reversed(profile)):
            assert u1 + u2 == pytest.approx(2 * SPAN, rel=1e-12)
            assert y1 == pytest.approx(-y2, rel=1e-12, abs=1e-30)

    def test_anchors_at_zero(self):
        sol, profile = sampled(scanner_a(50.0), 401)
        assert abs(profile[0][1]) <= 1e-12 * sol.y_max
        assert abs(profile[-1][1]) <= 1e-12 * sol.y_max

    def test_scanner_a_summary(self):
        sol, profile = sampled(scanner_a(50.0), 401)
        assert math.degrees(abs(sol.tilt_signed)) == pytest.approx(REF_TILT_DEG, rel=1e-10)
        assert sol.y_max == pytest.approx(REF_YMAX, rel=1e-10)
        assert sol.force == pytest.approx(FORCE, rel=1e-10)
        assert sol.reaction == pytest.approx(REF_REACTION, rel=1e-10)
        extrema = max(abs(y) for _, y in profile)
        assert extrema == pytest.approx(REF_YMAX, rel=1e-3)

    def test_even_sample_count_still_includes_center(self):
        _, profile = sampled(scanner_a(50.0), 10)
        assert any(u == pytest.approx(SPAN, rel=1e-12) and y == 0.0 for u, y in profile)

    def test_voltage_negation_flips_profile(self):
        _, pos = sampled(scanner_a(50.0), 51)
        _, neg = sampled(scanner_a(-50.0), 51)
        for (u1, y1), (u2, y2) in zip(pos, neg):
            assert u1 == u2
            assert y1 == -y2

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            sampled(scanner_a(50.0), 1)

    @pytest.mark.parametrize("mirror_side", [0.0, math.nan, 5e-324])
    def test_invalid_mirror_side_rejected(self, mirror_side):
        """check_mirror rejects the mirror, and the solve raises its error."""
        # 5e-324 m is a valid length, but it halves to a = 0.
        error = OutOfRangeError if mirror_side > 0 else ValueError
        with pytest.raises(error) as checked:
            check_mirror(mirror_side, 850e-6)
        with pytest.raises(error, match=f"^{re.escape(str(checked.value))}$"):
            solve_scanner(*scanner_a(50.0)._replace(mirror_side=mirror_side))

    @pytest.mark.parametrize("samples", [401, 3201])
    def test_center_exact_where_grid_rounds_past_span(self, samples):
        sol, profile = sampled(scanner_a(50.0)._replace(beam_length=169e-6), samples)
        span, last = sol.half_span, samples - 1
        assert 2 * span * (last // 2) / last > span  # the uniform grid overshoots the center
        assert profile[last // 2] == (span, 0.0)
        for (_, y1), (_, y2) in zip(profile, reversed(profile)):
            assert y1 == -y2

    @given(design=physical_designs(d31_nonzero=True, drive="signed nonzero"))
    def test_physical_design_finite_and_signed(self, design):
        sol, profile = sampled(design, 41)
        values = [sol.force, sol.rigidity, sol.reaction, sol.tilt_signed, sol.y_max]
        assert all(map(math.isfinite, values + [y for _, y in profile]))
        sign = math.copysign(1.0, design.d31 * design.voltage)
        assert math.copysign(1.0, sol.force) == sign and sol.force != 0.0
        assert math.copysign(1.0, sol.tilt_signed) == sign and sol.tilt_signed != 0.0
        assert math.copysign(1.0, sol.reaction) == -sign and sol.reaction != 0.0


def exact_half_beam(force, a, span, rigidity):
    """(reaction, slope, y_max, x*, y(x)) of the half beam in exact rational arithmetic,
    from the expanded cubic c3 x^3 + c2 x^2 + c1 x - c0 of the beam branch, not the
    factored form the model evaluates."""
    f, a, span, rigidity = map(Fraction, (force, a, span, rigidity))
    den = 4 * rigidity * (a**2 + span * a + span**2)
    c3, c2 = a + span, -2 * span**2 - 2 * a**2 - 2 * a * span
    c1, c0 = span**3 + 4 * a**2 * span + a * span**2, 2 * a**2 * span**2
    slope = -f * a * (a - span) ** 3 / den

    def y(x):
        x = Fraction(x)
        return slope * x if x <= a else f * a * (c3 * x**3 + c2 * x**2 + c1 * x - c0) / den

    x_star = (span**2 + a * span + 4 * a**2) / (3 * (a + span))
    # x* is the one stationary point of the cubic inside (a, span), and y peaks there.
    assert 3 * c3 * x_star**2 + 2 * c2 * x_star + c1 == 0 and a < x_star < span
    assert abs(y(x_star)) > abs(y(a))
    r_a = -f * (a**3 - 3 * a * span**2 + 2 * span**3) / (2 * span**3 - 2 * a**3)
    return r_a, slope, abs(y(x_star)), x_star, y


def relative_error(value, exact):
    return abs(Fraction(value) - exact) / abs(exact)


# Scanner A with its 150 um half-mirror over a/L = 1e-1 .. 1e9, with beams of 1e-9 to
# 1e102 m, at 1e308 V, where y_max is 4.6e300 m, and a 1e103 m half-mirror on a
# 1e89 m beam (a/L = 1e14), whose a^3 and span^3 overflow though no result does:
# (mirror_side, beam_length) in m and the voltage.
EXACT_DESIGNS = ([(300e-6, 150e-6 / ratio, 50.0) for ratio in (1e-1, 1, 10, 1e3, 1e5, 1e7, 1e9)]
                 + [(300e-6, length, 50.0) for length in (1e-9, 1e-6, 1, 1e10, 1e50, 1e77, 1e102)]
                 + [(300e-6, 850e-6, 1e308), (2e103, 1e89, 50.0)])


@pytest.mark.parametrize("mirror_side, beam_length, voltage", EXACT_DESIGNS)
def test_statics_and_profile_match_exact_reference(mirror_side, beam_length, voltage):
    """statics and profile_points agree with exact arithmetic to a few ulp."""
    config = scanner_a(voltage)._replace(mirror_side=mirror_side, beam_length=beam_length)
    sol = Solution(*solve_scanner(*config))
    r_a, slope, y_max, x_star, y = exact_half_beam(sol.force, sol.a, sol.half_span, sol.rigidity)
    assert relative_error(sol.reaction, r_a) <= 4e-15
    assert relative_error(sol.tilt_signed, Fraction(math.atan(slope))) <= 4e-15
    assert relative_error(sol.y_max, y_max) <= 4e-15
    assert relative_error(sol.x_at_ymax, x_star) <= 4e-15
    samples = 101
    profile = list(profile_points(samples, sol.force, sol.a, sol.half_span, sol.rigidity))
    for u, ordinate in profile[1:samples // 2]:
        assert relative_error(ordinate, y(sol.half_span - u)) <= 4e-15
    assert [v for _, v in profile] == [-v for _, v in reversed(profile)]


# The scalar reference: the bodies of statics and multimorph.section before the five
# results shared one finite test and the section its modulus ratios, with the reaction's
# own expression inlined. The model must match them bit for bit, error texts included,
# except for the zero reaction's sign (see reference_outcome).
def reference_statics(force, a, span, rigidity):
    try:
        q = a**2 + a * span + span**2
        r_a = -force * ((span - a) * (2 * span + a) / (2 * q))
        slope = _slope(force, a, span, rigidity)
        tilt_signed = math.atan(slope)
        ratio = (span + 2 * a) / (a + span)
        y_max = abs(slope) * (4 / 27 * (span + 2 * a) * ratio * ratio)
        x_at = (span**2 + a * span + 4 * a**2) / (3 * (a + span)) if force else a
    except ArithmeticError as exc:
        raise OutOfRangeError("half-beam statics", exc) from exc
    # Finite inputs can still overflow; no non-finite result may leave the model.
    for name, value in (("force", force), ("rigidity", rigidity), ("reaction", r_a),
                        ("tilt", tilt_signed), ("y_max", y_max)):
        if not math.isfinite(value):
            raise ValueError(f"non-finite {name} ({value}); the design overflows double precision")
    return r_a, tilt_signed, y_max, x_at


def reference_section(substrate_E, substrate_t, piezo_E, piezo_t, width):
    ts, tp = substrate_t, piezo_t
    hs, h1, h2 = ts / 2, ts + tp / 2, ts + 1.5 * tp  # layer mid-heights
    e_ref = max(substrate_E, piezo_E)

    try:
        # Stiffness-scaled layer areas per unit width; width cancels in h_eq.
        a_s = substrate_E / e_ref * ts
        a_p = piezo_E / e_ref * tp
        h_eq = (a_s * hs + a_p * h1 + a_p * h2) / (a_s + a_p + a_p)
        i_eq = width * (substrate_E / e_ref * (ts**3 / 12 + ts * (h_eq - hs) ** 2)
                        + piezo_E / e_ref * (tp**3 / 12 + tp * (h_eq - h1) ** 2)
                        + piezo_E / e_ref * (tp**3 / 12 + tp * (h_eq - h2) ** 2))
    except ArithmeticError as exc:
        raise OutOfRangeError("equivalent section", exc) from exc
    return h_eq, i_eq, e_ref, e_ref * i_eq


def reference_solve(substrate_E, piezo_E, d31, substrate_t, piezo_t, beam_width, beam_length,
                    mirror_side, voltage):
    """solve_scanner's stages with the reference section and statics."""
    check_stack(substrate_E, substrate_t, piezo_E, piezo_t, beam_width, beam_length)
    a, span = check_mirror(mirror_side, beam_length)
    force = end_force(beam_width, piezo_t, piezo_E, d31, voltage, beam_length)
    rigidity = reference_section(substrate_E, substrate_t, piezo_E, piezo_t, beam_width)[3]
    return (force, rigidity, a, span, *reference_statics(force, a, span, rigidity))


def outcome(function, *args):
    """The hex of every float the call returns, or its exception's exact type and text."""
    try:
        return [value.hex() for value in function(*args)]
    except Exception as exc:  # the exception type is part of what is compared
        return type(exc), str(exc)


def reference_outcome(reference, *args):
    """outcome of reference_solve or reference_statics, with a -0.0 reaction read as +0.0:
    the one difference allowed, as the model writes a zero reaction as +0.0."""
    result = outcome(reference, *args)
    index = 4 if reference is reference_solve else 0  # the reaction's place in the result
    if isinstance(result, list) and result[index] == "-0x0.0p+0":
        result[index] = "0x0.0p+0"
    return result


# verification.PHYSICAL_RANGES with d31 and the voltage drawn uniform through zero, in
# ScanConfig's field order.
SIGNED_RANGES = tuple((-hi, hi) if field in ("d31", "voltage") else (lo, hi)
                      for field, (lo, hi) in zip(ScanConfig._fields, verification.PHYSICAL_RANGES))


def physical_design(rng):
    return ScanConfig(*(rng.uniform(lo, hi) for lo, hi in SIGNED_RANGES))


def extreme_value(rng):
    """0, inf, -inf or a log-uniform magnitude in 1e-300 .. 1e300 of either sign."""
    draw = rng.random()
    if draw < 0.03:
        return rng.choice((0.0, -0.0, math.inf, -math.inf))
    magnitude = 10 ** rng.uniform(-300, 300)
    return -magnitude if draw < 0.08 else magnitude


def test_solve_matches_scalar_reference_bit_for_bit():
    """20,000 seeded designs, half physical and half extreme: solve_scanner, statics on
    the design's own loads and section give the reference's bits or its exact exception."""
    rng = random.Random(20261019)
    solved = 0
    for i in range(20_000):
        config = physical_design(rng) if i % 2 else ScanConfig(*(extreme_value(rng) for _ in range(9)))
        got = outcome(solve_scanner, *config)
        assert got == reference_outcome(reference_solve, *config), config
        solved += isinstance(got, list)
        loads = (extreme_value(rng), abs(extreme_value(rng)), abs(extreme_value(rng)),
                 abs(extreme_value(rng)))
        assert outcome(statics, *loads) == reference_outcome(reference_statics, *loads), loads
        stack = (config.substrate_E, config.substrate_t, config.piezo_E, config.piezo_t,
                 config.beam_width)
        assert outcome(section, *stack) == outcome(reference_section, *stack)
    assert solved > 10_000  # every physical design and some extreme ones solve


# Each field, and each pair of fields, of Scanner A set to a value that fails a check or
# reaches the solve: a pair that fails two checks raises the first check's error.
BAD_FIELDS = [(field,) for field in ScanConfig._fields] + list(combinations(ScanConfig._fields, 2))


@pytest.mark.parametrize("fields", BAD_FIELDS, ids="+".join)
def test_failed_checks_keep_their_order(fields):
    for value in (0.0, -0.0, -1.0, math.nan, -math.inf):
        design = reference_config()._replace(**dict.fromkeys(fields, value))
        assert outcome(solve_scanner, *design) == reference_outcome(reference_solve, *design)


@pytest.mark.parametrize("mirror_side, beam_length", [(5e-324, 850e-6), (1.0, 1e-17)],
                         ids=["mirror-halves-to-0", "a+L-rounds-to-a"])
def test_failed_mirror_checks_keep_their_text(mirror_side, beam_length):
    design = reference_config()._replace(mirror_side=mirror_side, beam_length=beam_length)
    got = outcome(solve_scanner, *design)
    assert got == reference_outcome(reference_solve, *design)
    assert got[0] is OutOfRangeError


# optimize_1d's (best_x, best_f) as hex on two seeded physical specs per axis, as the
# optimizer found them when its grid scan still built SweepRecords.
OPTIMIZER_PINS = {
    ("beam_length", "tilt"): ("0x1.be97d0127c4ffp-10", "0x1.3e6f3a056fc70p-5"),
    ("beam_length", "y_max"): ("0x1.a801eee71bcf9p-10", "0x1.9551d866014ecp-21"),
    ("beam_width", "tilt"): ("0x1.7adcf4c8f5911p-13", "0x1.70ce4f7054376p-3"),
    ("beam_width", "y_max"): ("0x1.d308dd5022351p-15", "0x1.683bfe94f3dfdp-27"),
    ("mirror_side", "tilt"): ("0x1.da7d30b85c534p-11", "0x1.0b42559a3e9dfp+3"),
    ("mirror_side", "y_max"): ("0x1.0596a187408acp-11", "0x1.0e9d32bb53551p-22"),
    ("piezo_thickness", "tilt"): ("0x1.500532f58ad75p-20", "0x1.cbd54cec9fdbep+1"),
    ("piezo_thickness", "y_max"): ("0x1.44d81f2999b03p-17", "0x1.6fb46f8b549d0p-19"),
    ("substrate_thickness", "tilt"): ("0x1.0aa257d755bb9p-17", "0x1.e018300aa3594p-2"),
    ("substrate_thickness", "y_max"): ("0x1.f61eb09fcce68p-21", "0x1.1a435c3a89c48p-19"),
    ("voltage", "tilt"): ("-0x1.8e3cb4668ea68p+7", "0x1.3c5a1405f167fp-1"),
    ("voltage", "y_max"): ("0x1.41d5e96fdadc8p+7", "0x1.db4be6c541b70p-20"),
}


def optimizer_specs():
    rng = random.Random(1414)
    for axis in sorted(AXES):
        lo, hi = SIGNED_RANGES[ScanConfig._fields.index(AXES[axis])]
        for objective in ("tilt", "y_max"):
            start, stop = sorted(rng.uniform(lo, hi) for _ in range(2))
            yield SweepSpec(physical_design(rng), axis, start, stop, 64), objective


@pytest.mark.parametrize("spec, objective", list(optimizer_specs()),
                         ids=[f"{spec.axis}-{objective}" for spec, objective in optimizer_specs()])
def test_optimize_1d_pinned(spec, objective):
    best_x, best_f = optimize_1d(spec, objective)
    assert (best_x.hex(), best_f.hex()) == OPTIMIZER_PINS[spec.axis, objective]


def sweep_spec(rng, base, axis, physical):
    """A 40-step sweep of one axis of base: over the axis's physical range from a physical
    base, or between two extreme values from an extreme one."""
    if physical:
        return SweepSpec(base, axis, *SIGNED_RANGES[ScanConfig._fields.index(AXES[axis])], 40)
    while True:
        start, stop = sorted(extreme_value(rng) for _ in range(2))
        try:
            return SweepSpec(base, axis, start, stop, 40)
        except ValueError:  # an infinite or equal bound, or an overflowing width
            pass


def record_outcome(design):
    """The sweep record's tilt_deg, y_max, force and reaction that reference_solve gives
    design, as hex, or its error text."""
    expected = reference_outcome(reference_solve, *design)
    if isinstance(expected, tuple):
        return expected[1]
    force, _, _, _, r_a, tilt_signed, y_max, _ = map(float.fromhex, expected)
    return [math.degrees(abs(tilt_signed)).hex(), y_max.hex(), force.hex(), r_a.hex()]


def test_hoisted_sweeps_match_reference_bit_for_bit():
    """A step keeps the parts of the solve that do not read its field: the test of the other
    fields, the force's prefix, the unit-width section and the geometry factors. Sweeps along
    all six axes from physical and extreme bases, beams that round a + L to the same span for
    several mirrors, bases whose kept part raises, bases that fail the one-time test or meet
    a zero, nan or overflowing prefix, and steps along each of the nine fields, axes or not,
    give reference_solve's bits or its error text at every point."""
    rng = random.Random(20261020)
    bases = [(physical_design(rng), True) if i % 2
             else (ScanConfig(*(extreme_value(rng) for _ in range(9))), False) for i in range(100)]
    specs = [sweep_spec(rng, base, axis, physical)
             for base, physical in bases for axis in sorted(AXES)]
    # a + L rounds to span = 1 m for every mirror, so (a, span) changes in a alone, and
    # span - a leaves 1 once a passes a quarter of the ulp of 1.
    specs.append(SweepSpec(physical_design(rng)._replace(beam_length=1.0), "mirror_side",
                           4e-18, 220e-18, 55))
    # Reused stages that raise: the section overflows, the geometry's L^3 overflows, and the
    # rigidity underflows to 0. Lengths and thicknesses <= 0 fail their check first.
    section_overflow = reference_config()._replace(substrate_t=1e200)
    huge_geometry = reference_config()._replace(beam_length=1e103, mirror_side=2e103)
    underflow = reference_config()._replace(substrate_E=1e-320, piezo_E=1e-320)
    for base, axes in ((section_overflow, ("voltage", "beam_length", "beam_width")),
                       (huge_geometry, ("voltage", "piezo_thickness")),
                       (underflow, ("voltage", "mirror_side", "beam_width"))):
        specs += [SweepSpec(base, axis, -2e-3, 2e-3, 41) for axis in axes]
    # The step tests the fields its axis leaves unchanged once and keeps the force's prefix
    # 1.5 W t_p E_p d31: each field that must be > 0 at 0 or -1, a + L rounding to a, d31 of
    # +-0 and nan, and a prefix that overflows, swept along every axis and through 0 V.
    positive = ("substrate_E", "substrate_t", "piezo_E", "piezo_t", "beam_width", "beam_length",
                "mirror_side")
    scanner_a = reference_config()
    edge_bases = [scanner_a._replace(**{name: bad}) for name in positive for bad in (0.0, -1.0)]
    edge_bases.append(scanner_a._replace(mirror_side=1.0, beam_length=1e-17))
    edge_bases += [scanner_a._replace(d31=d31) for d31 in (0.0, -0.0, math.nan)]
    edge_bases.append(scanner_a._replace(piezo_E=1e100, d31=1e300))
    for base in edge_bases:
        specs += [sweep_spec(rng, base, axis, True) for axis in sorted(AXES)]
        specs += [SweepSpec(base, axis, -2e-3, 2e-3, 41) for axis in sorted(AXES)]
        specs.append(SweepSpec(base, "voltage", -50.0, 50.0, 41))
    points = [(spec.base, AXES[spec.axis], point) for spec in specs for point in sweep_points(spec)]
    # Each ScanConfig field stepped from the physical bases at a physical magnitude, its
    # negative and 0: the moduli and d31 are no sweep axes, but a step reads them too.
    for base in [base for base, physical in bases if physical]:
        for field, (lo, hi) in zip(ScanConfig._fields, verification.PHYSICAL_RANGES):
            step = sweep._stepper(base, field)
            magnitude = rng.uniform(lo, hi)
            points += [(base, field, step(value)) for value in (magnitude, -magnitude, 0.0)]
    solved = 0
    for base, field, (value, *cells, status) in points:
        expected = record_outcome(base._replace(**{field: value}))
        got = [cell.hex() for cell in cells] if status == "ok" else status
        assert got == expected, (base, field, value)
        solved += status == "ok"
    assert solved > 12_000


def test_optimizer_steps_match_reference_bit_for_bit(monkeypatch):
    """Every grid point and golden-section step of optimize_1d, whose step keeps the parts
    its axis leaves unchanged, gives reference_solve's bits or its exact error text."""
    steps = []
    stepper = sweep._stepper

    def checked_stepper(base, field):
        step = stepper(base, field)

        def checked_step(value):
            point = step(value)
            got_value, *cells, status = point
            got = [cell.hex() for cell in cells] if status == "ok" else status
            assert got_value is value
            assert got == record_outcome(base._replace(**{field: value})), (base, field, value)
            steps.append(value)
            return point

        return checked_step

    monkeypatch.setattr(sweep, "_stepper", checked_stepper)
    for spec, objective in optimizer_specs():
        optimize_1d(spec, objective)
    assert len(steps) > 12 * 64


# A 50-point Scanner A sweep per axis, over values that all solve.
REUSE_SWEEPS = {
    "voltage": (0.0, 50.0),
    "beam_length": (100e-6, 2000e-6),
    "mirror_side": (100e-6, 500e-6),
    "beam_width": (10e-6, 50e-6),
    "substrate_thickness": (1e-6, 10e-6),
    "piezo_thickness": (0.5e-6, 3e-6),
}


def counted_calls(monkeypatch, names):
    """Count the calls of each of names in sweep's namespace."""
    calls = dict.fromkeys(names, 0)

    def counted(name, function):
        def wrapper(*args):
            calls[name] += 1
            return function(*args)
        return wrapper

    for name in names:
        monkeypatch.setattr(sweep, name, counted(name, getattr(sweep, name)))
    return calls


@pytest.mark.parametrize("axis", sorted(REUSE_SWEEPS))
def test_step_reuses_what_its_axis_leaves_unchanged(monkeypatch, axis):
    """A step computes the unit-width section and the geometry factors when it is made,
    where its axis leaves them unchanged, beam_width included, and at each point where its
    axis sets them; a point reaches solve_scanner only if it fails."""
    calls = counted_calls(monkeypatch, ("section", "_geometry", "solve_scanner"))
    step = sweep._stepper(reference_config(), AXES[axis])
    sets_section = AXES[axis] in ("substrate_t", "piezo_t")
    sets_geometry = axis in ("beam_length", "mirror_side")
    assert calls == {"section": 0 if sets_section else 1,
                     "_geometry": 0 if sets_geometry else 1, "solve_scanner": 0}
    points = map(step, SweepSpec(reference_config(), axis, *REUSE_SWEEPS[axis], 50).grid())
    assert all(point[5] == "ok" for point in points)
    assert calls == {"section": 50 if sets_section else 1,
                     "_geometry": 50 if sets_geometry else 1, "solve_scanner": 0}


def test_step_solves_failed_points_through_solve_scanner(monkeypatch):
    """The 21 beam lengths <= 0 fail and each goes through solve_scanner once; the 20 that
    solve compute the section once and the geometry factors each."""
    calls = counted_calls(monkeypatch, ("section", "_geometry", "solve_scanner"))
    records = sweep.run_sweep(SweepSpec(reference_config(), "beam_length", -1e-3, 1e-3, 41))
    assert [record.status for record in records[:21]] == ["length must be > 0"] * 21
    assert all(record.ok for record in records[21:])
    assert calls == {"section": 1, "_geometry": 20, "solve_scanner": 21}


def test_profile_matches_reference_bit_for_bit():
    """profile_points gives reference_profile_points' bits, a zero ordinate as +0.0, or its
    exact exception, on physical and extreme designs at every count of PROFILE_SAMPLES."""
    rng = random.Random(20261022)
    sampled_ok = failed = 0
    for i in range(200):
        if i % 2:
            sol = Solution(*solve_scanner(*physical_design(rng)))
            load = sol.force, sol.a, sol.half_span, sol.rigidity
        else:
            load = extreme_profile_load(rng)
        for samples in (*PROFILE_SAMPLES[:4], PROFILE_SAMPLES[4 + i % 6]):
            got = profile_outcome(profile_points, samples, *load)
            expected = profile_outcome(reference_profile_points, samples, *load)
            if isinstance(expected, list):
                expected = [(u, "0x0.0p+0" if y == "-0x0.0p+0" else y) for u, y in expected]
            assert got == expected, (samples, load)
            if isinstance(got, list):
                sampled_ok += 1
            else:
                failed += 1
    assert sampled_ok > 500 and failed > 50  # both outcomes are compared


def test_zero_sign_fix_keeps_nonzero_bits():
    """y + 0.0 and 0.0 - y, which profile_points yields for y and -y so that no ordinate
    is -0.0, have the bits of y and -y for every nonzero y."""
    rng = random.Random(20261023)
    special = [5e-324, -5e-324, sys.float_info.min, -sys.float_info.min, sys.float_info.max,
               -sys.float_info.max, math.inf, -math.inf]
    drawn = [struct.unpack("<d", struct.pack("<Q", rng.getrandbits(64)))[0] for _ in range(100_000)]
    values = [y for y in special + drawn if y == y and y != 0.0]
    mismatched = [y for y in values if ((y + 0.0).hex(), (0.0 - y).hex()) != (y.hex(), (-y).hex())]
    assert mismatched == []
    zeros = [(y + 0.0).hex() for y in (0.0, -0.0)] + [(0.0 - y).hex() for y in (0.0, -0.0)]
    assert zeros == ["0x0.0p+0"] * 4
