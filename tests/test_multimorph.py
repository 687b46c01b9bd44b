import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from piezoscanner.multimorph import MultimorphStack, equivalent_force, equivalent_section
from piezoscanner.verification import (
    pipeline_force,
    piezo_strains,
    solve_curvature,
    tip_deflection,
)

from conftest import drive_voltages, physical_stacks

# Frozen reference values for the reference stack at 50 V, computed from an
# independent assembly and solve of the equilibrium/continuity equations
# (and cross-checked against the closed forms, which share no code path).
REF_KAPPA = -267.8754568668186
REF_TIP = -9.677000879313822e-05
REF_H_EQ = 2.9390395363278826e-06
REF_RIGIDITY = 9.29782828606914e-11
REF_FORCE = -4.395282352941177e-05


class TestStrains:
    def test_zero_voltage(self, reference_stack):
        s = piezo_strains(reference_stack, 0.0)
        assert s[0] == 0.0 and s[1] == 0.0

    def test_zero_d31(self, reference_stack):
        stack = reference_stack._replace(d31=0.0)
        s = piezo_strains(stack, 123.0)
        assert s[0] == 0.0 and s[1] == 0.0

    def test_reference_drive(self, reference_stack):
        s = piezo_strains(reference_stack, 50.0)
        assert s[0] == pytest.approx(1.37e-2, rel=1e-12)
        assert s[1] == pytest.approx(-1.37e-2, rel=1e-12)

    @given(stack=physical_stacks(), voltage=drive_voltages())
    def test_opposite_polarity(self, stack, voltage):
        s = piezo_strains(stack, voltage)
        assert s[0] == -s[1]


class TestCurvature:
    def test_zero_voltage(self, reference_stack):
        sol = solve_curvature(reference_stack, 0.0)
        assert sol == (0.0, 0.0, 0.0, 0.0)

    def test_zero_d31(self, reference_stack):
        stack = reference_stack._replace(d31=0.0)
        sol = solve_curvature(stack, 50.0)
        assert sol[3] == 0.0

    def test_reference_curvature(self, reference_stack):
        sol = solve_curvature(reference_stack, 50.0)
        assert sol[3] == pytest.approx(REF_KAPPA, rel=1e-9)
        assert abs(sol[3]) == pytest.approx(2.7e2, rel=0.01)

    @given(stack=physical_stacks(), voltage=drive_voltages())
    def test_equilibrium_and_residuals(self, stack, voltage):
        sol = solve_curvature(stack, voltage)
        es, ts = stack.substrate_E, stack.substrate_t
        ep, tp = stack.piezo_E, stack.piezo_t
        s = piezo_strains(stack, voltage)

        scale = max(abs(sol[0]), abs(sol[1]), abs(sol[2]), 1e-300)
        assert abs(sol[0] + sol[1] + sol[2]) <= 1e-10 * scale

        moment_terms = [
            ts / 2 * sol[0],
            (ts + tp / 2) * sol[1],
            (ts + 1.5 * tp) * sol[2],
            (es * ts**3 + 2 * ep * tp**3) / 12 * sol[3],
        ]
        m_scale = max(abs(t) for t in moment_terms) or 1e-300
        assert abs(sum(moment_terms)) <= 1e-10 * m_scale

        iface1 = [
            sol[0] / (es * ts),
            -sol[1] / (ep * tp),
            (ts + tp) / 2 * sol[3],
            -s[0],
        ]
        i1_scale = max(abs(t) for t in iface1) or 1e-300
        assert abs(sum(iface1)) <= 1e-10 * i1_scale

        iface2 = [
            sol[1] / (ep * tp),
            -sol[2] / (ep * tp),
            tp * sol[3],
            -(s[1] - s[0]),
        ]
        i2_scale = max(abs(t) for t in iface2) or 1e-300
        assert abs(sum(iface2)) <= 1e-10 * i2_scale


class TestTipDeflection:
    def test_zero_voltage(self, reference_stack):
        assert tip_deflection(reference_stack, 0.0) == 0.0

    def test_reference_value(self, reference_stack):
        y = tip_deflection(reference_stack, 50.0)
        assert y == pytest.approx(REF_TIP, rel=1e-9)
        assert abs(y) == pytest.approx(9.7e-5, rel=0.01)

    def test_linearity_in_voltage(self, reference_stack):
        y1 = tip_deflection(reference_stack, 25.0)
        y2 = tip_deflection(reference_stack, 50.0)
        assert y2 == pytest.approx(2 * y1, rel=1e-12)

    @given(stack=physical_stacks(), voltage=st.floats(min_value=0.1, max_value=200))
    def test_voltage_negation(self, stack, voltage):
        assert tip_deflection(stack, -voltage) == pytest.approx(
            -tip_deflection(stack, voltage), rel=1e-12, abs=0.0
        )


class TestEquivalentSection:
    def test_reference_values(self, reference_stack):
        sec = equivalent_section(reference_stack)
        assert sec.h_eq == pytest.approx(REF_H_EQ, rel=1e-12)
        assert sec.h_eq == pytest.approx(2.94e-6, rel=0.01)
        assert sec.rigidity == pytest.approx(REF_RIGIDITY, rel=1e-12)
        assert sec.rigidity == pytest.approx(9.30e-11, rel=0.01)

    def test_neutral_axis_inside_stack(self, reference_stack):
        sec = equivalent_section(reference_stack)
        total = reference_stack.substrate_t + 2 * reference_stack.piezo_t
        assert 0 < sec.h_eq < total

    def test_thin_piezo_limit(self, reference_stack):
        # single-layer limit: rectangular-section formulas
        stack = reference_stack._replace(piezo_t=1e-15)
        sec = equivalent_section(stack, "substrate")
        ts, w = stack.substrate_t, stack.width
        assert sec.h_eq == pytest.approx(ts / 2, rel=1e-6)
        assert sec.i_eq == pytest.approx(w * ts**3 / 12, rel=1e-6)

    def test_thin_piezo_limit_is_monotone(self, reference_stack):
        w, ts = reference_stack.width, reference_stack.substrate_t
        homogeneous = w * ts**3 / 12
        previous = None
        for tp in (1e-6, 1e-7, 1e-8, 1e-9, 1e-10):
            stack = reference_stack._replace(piezo_t=tp)
            i_eq = equivalent_section(stack, "substrate").i_eq
            assert i_eq > homogeneous
            if previous is not None:
                assert i_eq < previous
            previous = i_eq

    def test_thin_substrate_limit(self, reference_stack):
        stack = reference_stack._replace(substrate_t=1e-15)
        sec = equivalent_section(stack)
        assert sec.h_eq == pytest.approx(stack.piezo_t, rel=1e-6)

    def test_bad_choice_rejected(self, reference_stack):
        with pytest.raises(ValueError):
            equivalent_section(reference_stack, "geometric-mean")

    def test_layers_summed_left_to_right(self, reference_stack):
        """The same last bit on every interpreter: sum() compensates its rounding
        since Python 3.12, and gives 0x1.c245dbe9fecb6p-38 there."""
        stack = reference_stack._replace(substrate_t=1e-6)
        assert equivalent_section(stack).rigidity.hex() == "0x1.c245dbe9fecb7p-38"

    @given(stack=physical_stacks())
    def test_rigidity_independent_of_normalization(self, stack):
        rigs = [equivalent_section(stack, c).rigidity for c in ("substrate", "piezo", "max")]
        assert (max(rigs) - min(rigs)) <= 1e-12 * max(rigs)


class TestEquivalentForce:
    def test_zero_voltage(self, reference_stack):
        assert equivalent_force(reference_stack, 0.0) == 0.0

    def test_reference_value(self, reference_stack):
        f = equivalent_force(reference_stack, 50.0)
        assert f == pytest.approx(REF_FORCE, rel=1e-10)
        assert abs(f) == pytest.approx(4.40e-5, rel=0.01)

    def test_sign_follows_drive(self, reference_stack):
        assert equivalent_force(reference_stack, 50.0) < 0  # d31 < 0
        assert equivalent_force(reference_stack, -50.0) > 0

    def test_linearity(self, reference_stack):
        assert equivalent_force(reference_stack, 100.0) == pytest.approx(
            2 * equivalent_force(reference_stack, 50.0), rel=1e-12
        )

    @given(stack=physical_stacks(), voltage=drive_voltages())
    def test_pipeline_equals_closed_form(self, stack, voltage):
        f_pipeline = pipeline_force(stack, voltage)
        f = equivalent_force(stack, voltage)
        assert abs(f_pipeline - f) <= 1e-12 * max(abs(f), 1e-300)

    @given(
        stack=physical_stacks(d31_nonzero=True),
        voltage=st.floats(min_value=0.1, max_value=200),
    )
    def test_linearity_in_d31(self, stack, voltage):
        doubled = stack._replace(d31=2 * stack.d31)
        assert equivalent_force(doubled, voltage) == pytest.approx(
            2 * equivalent_force(stack, voltage), rel=1e-9
        )


@pytest.mark.parametrize("substrate_t", [0.0, math.nan])
def test_invalid_stack_rejected(substrate_t, reference_stack):
    with pytest.raises(ValueError):
        MultimorphStack(
            substrate_E=169e9, substrate_t=substrate_t, piezo_E=60e9, piezo_t=1e-6,
            d31=-274e-12, width=30e-6, length=850e-6,
        )
    with pytest.raises(ValueError, match="^substrate_t must be > 0$"):
        reference_stack._replace(substrate_t=substrate_t)
