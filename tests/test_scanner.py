import math
from dataclasses import replace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from piezoscanner.multimorph import OutOfRangeError
from piezoscanner.scanner import ScannerGeometry, reaction, statics
from piezoscanner.verification import branches

from conftest import REFERENCE_STACK, design, drive_voltages, half, physical_stacks, sampled

# Scanner A: reference stack, 300 um mirror, 50 V. Frozen values computed by
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
    return design(REFERENCE_STACK, 300e-6, voltage)


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
        assert reaction(0.0, A, SPAN) == 0.0

    def test_load_at_support(self):
        f = 1.0
        assert reaction(f, 1e-9 * SPAN, SPAN) == pytest.approx(-f, rel=1e-6)

    def test_midspan(self):
        assert reaction(1.0, SPAN / 2, SPAN) == pytest.approx(-5 / 14, rel=1e-12)

    def test_scanner_a(self):
        assert reaction(FORCE, A, SPAN) == pytest.approx(REF_REACTION, rel=1e-12)


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
        # 5e-324 m is a valid length, but it halves to a = 0.
        with pytest.raises(OutOfRangeError if mirror_side > 0 else ValueError):
            ScannerGeometry(stack=REFERENCE_STACK, mirror_side=mirror_side)

    @pytest.mark.parametrize("samples", [401, 3201])
    def test_center_exact_where_grid_rounds_past_span(self, samples):
        short_beam = replace(REFERENCE_STACK, length=169e-6)
        sol, profile = sampled(design(short_beam, 300e-6, 50.0), samples)
        span, last = sol.half_span, samples - 1
        assert 2 * span * (last // 2) / last > span  # the uniform grid overshoots the center
        assert profile[last // 2] == (span, 0.0)
        for (_, y1), (_, y2) in zip(profile, reversed(profile)):
            assert y1 == -y2

    @given(
        stack=physical_stacks(d31_nonzero=True),
        mirror_side=st.floats(min_value=50e-6, max_value=1000e-6),
        voltage=drive_voltages().filter(lambda v: v != 0.0),
    )
    def test_physical_design_finite_and_signed(self, stack, mirror_side, voltage):
        sol, profile = sampled(design(stack, mirror_side, voltage), 41)
        values = [sol.force, sol.rigidity, sol.reaction, sol.tilt_signed, sol.y_max]
        assert all(map(math.isfinite, values + [y for _, y in profile]))
        sign = math.copysign(1.0, stack.d31 * voltage)
        assert math.copysign(1.0, sol.force) == sign and sol.force != 0.0
        assert math.copysign(1.0, sol.tilt_signed) == sign and sol.tilt_signed != 0.0
        assert math.copysign(1.0, sol.reaction) == -sign and sol.reaction != 0.0
