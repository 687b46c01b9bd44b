import math
import random
import re
import struct
import sys
import threading
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from piezoscanner.multimorph import (
    _E_REF_CHOICES, OutOfRangeError, check_stack, end_force, section,
)
from piezoscanner.scanner import (
    _beam, _slope, check_mirror, profile_points, solve_scanner, statics,
)
from piezoscanner import sweep
from piezoscanner.sweep import AXES, ScanConfig, SweepSpec, optimize_1d, reference_config
from piezoscanner.verification import branches

from conftest import Solution, drive_voltages, half, physical_designs, sampled

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


# (force, a, span, rigidity) quadruples within physical bounds
def load_cases():
    return st.tuples(
        st.floats(min_value=1e-7, max_value=1e-3).flatmap(
            lambda m: st.sampled_from([m, -m])
        ),
        st.floats(min_value=10e-6, max_value=500e-6),
        st.floats(min_value=100e-6, max_value=2000e-6),
        st.floats(min_value=1e-12, max_value=1e-8),
    ).map(lambda t: (t[0], t[1], t[1] + t[2], t[3]))


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

    @given(design=physical_designs(d31_nonzero=True,
                                   voltages=drive_voltages().filter(lambda v: v != 0.0)))
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


def reference_section(substrate_E, substrate_t, piezo_E, piezo_t, width, e_ref_choice="max"):
    if e_ref_choice not in _E_REF_CHOICES:
        raise ValueError(f"e_ref_choice must be one of {_E_REF_CHOICES}")
    ts, tp = substrate_t, piezo_t
    hs, h1, h2 = ts / 2, ts + tp / 2, ts + 1.5 * tp  # layer mid-heights

    if e_ref_choice == "substrate":
        e_ref = substrate_E
    elif e_ref_choice == "piezo":
        e_ref = piezo_E
    else:
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


# Physical bounds of each ScanConfig field, in its order.
PHYSICAL_RANGES = ((10e9, 500e9), (10e9, 500e9), (-500e-12, 500e-12), (0.2e-6, 20e-6),
                   (0.2e-6, 20e-6), (5e-6, 200e-6), (100e-6, 2000e-6), (10e-6, 1000e-6),
                   (-200.0, 200.0))


def physical_design(rng):
    return ScanConfig(*(rng.uniform(lo, hi) for lo, hi in PHYSICAL_RANGES))


def extreme_value(rng):
    """0, inf, -inf or a log-uniform magnitude in 1e-300 .. 1e300 of either sign."""
    draw = rng.random()
    if draw < 0.03:
        return rng.choice((0.0, -0.0, math.inf, -math.inf))
    magnitude = 10 ** rng.uniform(-300, 300)
    return -magnitude if draw < 0.08 else magnitude


def test_solve_matches_scalar_reference_bit_for_bit():
    """20,000 seeded designs, half physical and half extreme: solve_scanner, statics on
    the design's own loads and section under every e_ref choice give the reference's bits
    or its exact exception."""
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
        for choice in _E_REF_CHOICES:
            assert outcome(section, *stack, choice) == outcome(reference_section, *stack, choice)
    assert solved > 10_000  # every physical design and some extreme ones solve


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
        lo, hi = PHYSICAL_RANGES[ScanConfig._fields.index(AXES[axis])]
        for objective in ("tilt", "y_max"):
            start, stop = sorted(rng.uniform(lo, hi) for _ in range(2))
            yield SweepSpec(physical_design(rng), axis, start, stop, 64), objective


@pytest.mark.parametrize("spec, objective", list(optimizer_specs()),
                         ids=[f"{spec.axis}-{objective}" for spec, objective in optimizer_specs()])
def test_optimize_1d_pinned(spec, objective):
    best_x, best_f = optimize_1d(spec, objective)
    assert (best_x.hex(), best_f.hex()) == OPTIMIZER_PINS[spec.axis, objective]


def sweep_values(rng, base, axis, physical):
    """A sweep of one axis of base: 40 steps over the axis's physical range from a physical
    base, or 40 sorted extreme values from an extreme one."""
    if physical:
        return list(SweepSpec(base, axis, *PHYSICAL_RANGES[ScanConfig._fields.index(AXES[axis])],
                              40).grid())
    return sorted(extreme_value(rng) for _ in range(40))


def test_cached_solves_match_reference_bit_for_bit():
    """solve_scanner keeps the last section and (a, span) factors. Sweeps along all six axes,
    a walk whose consecutive designs differ in one field, and beams that round a + L to the
    same span for several mirrors give reference_solve's bits or its exact exception."""
    rng = random.Random(20261020)
    bases = [(physical_design(rng), True) if i % 2
             else (ScanConfig(*(extreme_value(rng) for _ in range(9))), False) for i in range(60)]
    sweeps = [(base, axis, sweep_values(rng, base, axis, physical))
              for base, physical in bases for axis in sorted(AXES)]
    # a + L rounds to span = 1 m for every mirror, so (a, span) changes in a alone, and
    # span - a leaves 1 once a passes a quarter of the ulp of 1.
    sweeps.append((physical_design(rng)._replace(beam_length=1.0), "mirror_side",
                   [m * 4e-18 for m in range(1, 56)]))
    solved = 0
    for base, axis, values in sweeps:
        design = list(base)
        index = ScanConfig._fields.index(AXES[axis])
        for value in values:
            design[index] = value
            got = outcome(solve_scanner, *design)
            assert got == reference_outcome(reference_solve, *design), (axis, design)
            solved += isinstance(got, list)

    # Each field takes one of two physical values or one extreme value, so steps return to
    # cached keys and leave them in every order.
    pools = [(rng.uniform(lo, hi), rng.uniform(lo, hi), extreme_value(rng))
             for lo, hi in PHYSICAL_RANGES]
    design = [pool[0] for pool in pools]
    for _ in range(20_000):
        field = rng.randrange(len(design))
        value = rng.choice([v for v in pools[field] if v != design[field]])
        design[field] = value
        got = outcome(solve_scanner, *design)
        assert got == reference_outcome(reference_solve, *design), design
        solved += isinstance(got, list)
    assert solved > 10_000


def test_optimizer_steps_match_reference_bit_for_bit(monkeypatch):
    """Every grid point and golden-section step of optimize_1d, whose consecutive solves
    differ in the optimized field, gives reference_solve's bits or its exact exception."""
    steps = []

    def checked_solve(*design):
        steps.append(design)
        expected = reference_outcome(reference_solve, *design)
        try:
            result = solve_scanner(*design)
        except Exception as exc:  # the exception type is part of what is compared
            assert (type(exc), str(exc)) == expected, design
            raise
        assert [value.hex() for value in result] == expected, design
        return result

    monkeypatch.setattr(sweep, "solve_scanner", checked_solve)
    for spec, objective in optimizer_specs():
        optimize_1d(spec, objective)
    assert len(steps) > 12 * 64


def test_cached_solves_are_thread_safe():
    """Four threads, two per design, sweep the voltage of two designs with a 0.1 ms switch
    interval, so solves keep replacing the other design's cached keys; each thread gets the
    reference's results."""
    rng = random.Random(20261021)
    jobs = []
    for base in (physical_design(rng), physical_design(rng)):
        designs = [base._replace(voltage=v) for v in SweepSpec(base, "voltage", -200.0, 200.0, 500).grid()]
        jobs.append((designs, [reference_outcome(reference_solve, *design) for design in designs]))
    mismatches = []

    def run(designs, expected):
        for _ in range(10):
            mismatches.extend(d for d, e in zip(designs, expected) if outcome(solve_scanner, *d) != e)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-4)
    try:
        threads = [threading.Thread(target=run, args=jobs[i % 2]) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []


# The profile reference: profile_points' body before the left half's ordinates were
# kept for the right half, verbatim. The model must match it bit for bit, error texts
# included, except that a zero ordinate is now +0.0 where the reference gave -0.0.
def reference_profile_points(samples: int, force: float, a: float, span: float, rigidity: float):
    if samples < 2:
        raise ValueError("samples must be >= 2")
    if samples % 2 == 0:
        samples += 1

    slope = _slope(force, a, span, rigidity)

    def half(x: float) -> float:
        return slope * x if x <= a else _beam(x, slope, a, span)

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


def profile_outcome(function, *args):
    """The hex of every (u, y) the generator yields, or its exception's exact type and text."""
    try:
        return [(u.hex(), y.hex()) for u, y in function(*args)]
    except Exception as exc:  # the exception type is part of what is compared
        return type(exc), str(exc)


# Sample counts of 2 to 5, and around one, two and four of the CLI's 1,024-row chunks.
PROFILE_SAMPLES = (2, 3, 4, 5, 1023, 1024, 1025, 2047, 2049, 4097)


def extreme_profile_load(rng):
    """(force, a, span, rigidity): a force of +-0, +-inf, nan or log-uniform in 1e-300 ..
    1e300 of either sign, and a, the beam length and the rigidity log-uniform in 1e-300 ..
    1e300, so that a + length can round to a and the statics can overflow or underflow."""
    force = rng.choice((0.0, -0.0, math.inf, -math.inf, math.nan, None, None, None))
    if force is None:
        force = math.copysign(10 ** rng.uniform(-300, 300), rng.random() - 0.5)
    a, length, rigidity = (10 ** rng.uniform(-300, 300) for _ in range(3))
    return force, a, a + length, rigidity


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
