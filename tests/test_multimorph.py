import math
import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from piezoscanner import multimorph
from piezoscanner.multimorph import check_stack, end_force, section
from piezoscanner.scanner import solve_scanner
from piezoscanner.sweep import ScanConfig, reference_config
from piezoscanner.verification import (
    PHYSICAL_RANGES,
    exact_force,
    layer_rigidity,
    layer_solution,
    piezo_strains,
    random_design,
)

from conftest import DRIVES, physical_designs, signed

# Frozen reference values for Scanner A at 50 V, computed from an
# independent assembly and solve of the equilibrium/continuity equations
# (and cross-checked against the closed forms, which share no code path).
REF_KAPPA = -267.8754568668186
REF_TIP = -9.677000879313822e-05
REF_H_EQ = 2.9390395363278826e-06
REF_RIGIDITY = 9.29782828606914e-11
REF_FORCE = -4.395282352941177e-05

SCANNER_A = reference_config()


def section_of(design: ScanConfig):
    """section's (h_eq, i_eq, e_ref, rigidity) of a design's stack."""
    return section(design.substrate_E, design.substrate_t, design.piezo_E, design.piezo_t,
                   design.beam_width)


def force_of(design: ScanConfig) -> float:
    """end_force of a design at its voltage."""
    return end_force(design.beam_width, design.piezo_t, design.piezo_E, design.d31,
                     design.voltage, design.beam_length)


class TestStrains:
    def test_zero_voltage(self):
        s = piezo_strains(SCANNER_A._replace(voltage=0.0))
        assert s[0] == 0.0 and s[1] == 0.0

    def test_zero_d31(self):
        s = piezo_strains(SCANNER_A._replace(d31=0.0, voltage=123.0))
        assert s[0] == 0.0 and s[1] == 0.0

    def test_reference_drive(self):
        s = piezo_strains(SCANNER_A)
        assert s[0] == pytest.approx(1.37e-2, rel=1e-12)
        assert s[1] == pytest.approx(-1.37e-2, rel=1e-12)

    @given(design=physical_designs())
    def test_opposite_polarity(self, design):
        s = piezo_strains(design)
        assert s[0] == -s[1]


def exact(design: ScanConfig) -> ScanConfig:
    """The design with each field as the Fraction of its float."""
    return ScanConfig(*map(Fraction, design))


def tip_deflection(design: ScanConfig) -> Fraction:
    """Free tip deflection of the cantilevered stack, kappa * L^2 / 2, exactly."""
    return layer_solution(design)[3] * exact(design).beam_length ** 2 / 2


def wide_designs():
    """Hypothesis strategy for designs far outside the physical domain, where the layer
    system is ill conditioned in floats: every field 10^U(-30, 30) and the piezo layer
    10^U(-300, 30) thick, d31 and the voltage of either sign (physical_designs() draws the
    zero drives)."""
    def decades(lo=-30, hi=30):
        return st.floats(lo, hi).map(lambda exponent: 10.0**exponent)

    fields = {name: decades() for name in ScanConfig._fields}
    fields["piezo_t"] = decades(-300, 30)
    fields["d31"] = signed(decades())
    fields["voltage"] = signed(decades())
    return st.builds(ScanConfig, **fields)


class TestCurvature:
    def test_zero_voltage(self):
        sol = layer_solution(SCANNER_A._replace(voltage=0.0))
        assert sol == (0, 0, 0, 0)

    def test_zero_d31(self):
        sol = layer_solution(SCANNER_A._replace(d31=0.0))
        assert sol == (0, 0, 0, 0)

    def test_reference_curvature(self):
        kappa = float(layer_solution(SCANNER_A)[3])
        assert kappa == pytest.approx(REF_KAPPA, rel=1e-9)
        assert abs(kappa) == pytest.approx(2.7e2, rel=0.01)

    @given(design=st.one_of(physical_designs(), wide_designs()))
    def test_equilibrium_and_residuals(self, design):
        """The four rows hold exactly: in-plane and moment equilibrium, and continuity at
        both interfaces."""
        p1, p2, p3, kappa = layer_solution(design)
        fields = exact(design)
        es, ts = fields.substrate_E, fields.substrate_t
        ep, tp = fields.piezo_E, fields.piezo_t
        s1, s2 = piezo_strains(fields)
        assert p1 + p2 + p3 == 0
        assert (ts / 2 * p1 + (ts + tp / 2) * p2 + (ts + 3 * tp / 2) * p3
                + (es * ts**3 + 2 * ep * tp**3) / 12 * kappa) == 0
        assert p1 / (es * ts) - p2 / (ep * tp) + (ts + tp) / 2 * kappa == s1
        assert p2 / (ep * tp) - p3 / (ep * tp) + tp * kappa == s2 - s1


class TestTipDeflection:
    def test_zero_voltage(self):
        assert tip_deflection(SCANNER_A._replace(voltage=0.0)) == 0

    def test_reference_value(self):
        y = float(tip_deflection(SCANNER_A))
        assert y == pytest.approx(REF_TIP, rel=1e-9)
        assert abs(y) == pytest.approx(9.7e-5, rel=0.01)

    def test_linearity_in_voltage(self):
        y1 = tip_deflection(SCANNER_A._replace(voltage=25.0))
        y2 = tip_deflection(SCANNER_A._replace(voltage=50.0))
        assert y2 == 2 * y1

    @given(design=physical_designs(drive="positive"))
    def test_voltage_negation(self, design):
        assert tip_deflection(design._replace(voltage=-design.voltage)) == -tip_deflection(design)


def test_exact_values_are_fractions():
    """The exact solve, the exact force and layer_rigidity on a design of Fractions stay in
    rationals: no float literal turns them back into floats."""
    assert {type(value) for value in layer_solution(SCANNER_A)} == {Fraction}
    assert type(exact_force(SCANNER_A)) is Fraction
    assert type(layer_rigidity(exact(SCANNER_A))) is Fraction


def force_partials(design: ScanConfig):
    """end_force's partial results, left to right: 1.5 * W, then * t_p, * E_p, * d31, * V
    and / L, the force."""
    value = 1.5
    for factor in (design.beam_width, design.piezo_t, design.piezo_E, design.d31, design.voltage):
        value *= factor
        yield value
    yield value / design.beam_length


def assert_exact_force(design: ScanConfig, force: float | None) -> None:
    """The exact layer system's force is (3/2) W t_p E_p d31 V / L as a rational. The
    solved force, unless None (the solve failed), is 0 for a zero drive and within 8 ulp of
    the exact force where every partial result of end_force is a normal float. Six
    roundings keep to 8 ulp only then: a subnormal partial result has lost digits, which a
    later division by a small L can bring back into normal range."""
    fields = exact(design)
    force_exact = exact_force(design)
    assert force_exact == (Fraction(3, 2) * fields.beam_width * fields.piezo_t * fields.piezo_E
                           * fields.d31 * fields.voltage / fields.beam_length)
    if force is None:
        return
    if design.d31 * design.voltage == 0:
        assert force == force_exact == 0
    elif all(sys.float_info.min <= abs(value) < math.inf for value in force_partials(design)):
        assert abs(Fraction(force) - force_exact) <= 8 * Fraction(math.ulp(force))


# 1.5 W t_p E_p d31 V is the subnormal 1.5e-310 before the division by L gives a normal
# 1.5e-307 about 100 ulp off the exact force.
@example(design=ScanConfig(substrate_E=1.0, piezo_E=1.0, d31=1.0, substrate_t=1.0,
                           piezo_t=1e-250, beam_width=1e-30, beam_length=1e-3, mirror_side=1.0,
                           voltage=1e-30))
@given(design=st.one_of(physical_designs(), wide_designs()))
def test_exact_force_is_the_closed_form(design):
    """assert_exact_force over the model's whole range: physical designs, and designs
    across decades with piezo layers down to 1e-300 m, whether the solve succeeds or not."""
    try:
        force = solve_scanner(*design)[0]
    except ValueError:
        force = None
    assert_exact_force(design, force)


class TestEquivalentSection:
    """The homogenized ("equivalent") section of the stack, as section computes it."""

    def test_reference_values(self):
        h_eq, _, _, rigidity = section_of(SCANNER_A)
        assert h_eq == pytest.approx(REF_H_EQ, rel=1e-12)
        assert h_eq == pytest.approx(2.94e-6, rel=0.01)
        assert rigidity == pytest.approx(REF_RIGIDITY, rel=1e-12)
        assert rigidity == pytest.approx(9.30e-11, rel=0.01)

    def test_neutral_axis_inside_stack(self):
        total = SCANNER_A.substrate_t + 2 * SCANNER_A.piezo_t
        assert 0 < section_of(SCANNER_A)[0] < total

    def test_thin_piezo_limit(self):
        # single-layer limit: rectangular-section formulas
        h_eq, i_eq, _, _ = section_of(SCANNER_A._replace(piezo_t=1e-15))
        ts, w = SCANNER_A.substrate_t, SCANNER_A.beam_width
        assert h_eq == pytest.approx(ts / 2, rel=1e-6)
        assert i_eq == pytest.approx(w * ts**3 / 12, rel=1e-6)

    def test_thin_piezo_limit_is_monotone(self):
        w, ts = SCANNER_A.beam_width, SCANNER_A.substrate_t
        homogeneous = w * ts**3 / 12
        previous = None
        for tp in (1e-6, 1e-7, 1e-8, 1e-9, 1e-10):
            i_eq = section_of(SCANNER_A._replace(piezo_t=tp))[1]
            assert i_eq > homogeneous
            if previous is not None:
                assert i_eq < previous
            previous = i_eq

    def test_thin_substrate_limit(self):
        design = SCANNER_A._replace(substrate_t=1e-15)
        assert section_of(design)[0] == pytest.approx(design.piezo_t, rel=1e-6)

    def test_layers_summed_left_to_right(self):
        """The same last bit on every interpreter: sum() compensates its rounding
        since Python 3.12, and gives 0x1.c245dbe9fecb6p-38 there."""
        assert section_of(SCANNER_A._replace(substrate_t=1e-6))[3].hex() == "0x1.c245dbe9fecb7p-38"

    @given(design=physical_designs())
    def test_rigidity_independent_of_normalization(self, design):
        """section's normalized rigidity equals the layer sum, which has no normalizing
        modulus."""
        rigidity = section_of(design)[3]
        assert abs(layer_rigidity(design) - rigidity) <= 1e-12 * rigidity


class TestEquivalentForce:
    def test_zero_voltage(self):
        assert force_of(SCANNER_A._replace(voltage=0.0)) == 0.0

    def test_reference_value(self):
        f = force_of(SCANNER_A)
        assert f == pytest.approx(REF_FORCE, rel=1e-10)
        assert abs(f) == pytest.approx(4.40e-5, rel=0.01)

    def test_sign_follows_drive(self):
        assert force_of(SCANNER_A) < 0  # d31 < 0
        assert force_of(SCANNER_A._replace(voltage=-50.0)) > 0

    def test_linearity(self):
        assert force_of(SCANNER_A._replace(voltage=100.0)) == pytest.approx(
            2 * force_of(SCANNER_A), rel=1e-12
        )

    @given(design=physical_designs())
    def test_pipeline_equals_closed_form(self, design):
        """The exact pipeline 3 EI / L^3 * y_tip, with EI the layer sum in rationals, is the
        exact force, and the solved force is the closed form, within 8 ulp of it."""
        force = solve_scanner(*design)[0]
        assert force == force_of(design)
        fields = exact(design)
        pipeline = 3 * layer_rigidity(fields) / fields.beam_length**3 * tip_deflection(design)
        assert pipeline == exact_force(design)
        assert abs(Fraction(force) - pipeline) <= 8 * Fraction(math.ulp(force))

    @pytest.mark.parametrize("piezo_t", [1e-14, 1e-18, 1e-20, 1e-24, 1e-100, 1e-300])
    def test_thin_piezo_force_is_exact(self, piezo_t):
        """Scanner A with its piezo layer thinned to where a float solve of the 4x4 system
        errs, relative to the force, by 4.0e-5 (1e-18 m), 3.7e-3 (1e-20 m) and 180
        (1e-24 m): the exact force is still the closed form, and the solved force within
        8 ulp of it."""
        design = SCANNER_A._replace(piezo_t=piezo_t)
        assert_exact_force(design, solve_scanner(*design)[0])

    @given(design=physical_designs(d31_nonzero=True, drive="positive"))
    def test_linearity_in_d31(self, design):
        doubled = design._replace(d31=2 * design.d31)
        assert force_of(doubled) == pytest.approx(2 * force_of(design), rel=1e-9)


class TestPhysicalDomain:
    """Every physical draw stays in PHYSICAL_RANGES, d31 and the voltage as magnitudes,
    with the signs and the zeros that its options name."""

    def test_random_design_in_domain(self):
        rng = random.Random(20261024)
        drawn = [random_design(rng) for _ in range(10_000)]
        assert all(type(value) is float for design in drawn for value in design)
        for field, values, (lo, hi) in zip(ScanConfig._fields, zip(*drawn), PHYSICAL_RANGES):
            magnitudes = map(abs, values) if field in ("d31", "voltage") else values
            assert all(lo <= magnitude <= hi for magnitude in magnitudes), field
        assert all(design.d31 < 0 for design in drawn)
        voltages = [design.voltage for design in drawn]
        assert min(voltages) < 0 < max(voltages)

    @pytest.mark.parametrize("drive", sorted(DRIVES))
    @pytest.mark.parametrize("d31_nonzero", [False, True])
    @given(data=st.data())
    def test_physical_designs_in_domain(self, d31_nonzero, drive, data):
        design = data.draw(physical_designs(d31_nonzero, drive))
        zero_allowed = {"d31": not d31_nonzero, "voltage": drive == "zero or signed"}
        for field, value, (lo, hi) in zip(ScanConfig._fields, design, PHYSICAL_RANGES):
            if field in zero_allowed:
                assert lo <= abs(value) <= hi or (value == 0.0 and zero_allowed[field]), field
            else:
                assert lo <= value <= hi, field
        assert design.voltage > 0 or drive != "positive"


@pytest.mark.parametrize("substrate_t", [0.0, math.nan])
def test_invalid_stack_rejected(substrate_t):
    """check_stack names the field, and the solve raises its error."""
    with pytest.raises(ValueError, match="^substrate_t must be > 0$"):
        check_stack(169e9, substrate_t, 60e9, 1e-6, 30e-6, 850e-6)
    with pytest.raises(ValueError, match="^substrate_t must be > 0$"):
        solve_scanner(*SCANNER_A._replace(substrate_t=substrate_t))


class TestCarriers:
    """ScanConfig.geometry, EquivalentSection, equivalent_section and equivalent_force: no
    model path uses them, and perfbench's oracle op binds them. Their contract is checked
    here, and only here."""

    @pytest.mark.parametrize("changes, error, text", [
        ({"substrate_t": 0.0}, ValueError, "substrate_t must be > 0"),
        ({"substrate_t": math.nan}, ValueError, "substrate_t must be > 0"),
        ({"mirror_side": 0.0}, ValueError, "mirror_side must be > 0"),
        ({"mirror_side": math.nan}, ValueError, "mirror_side must be > 0"),
        # 5e-324 m is a valid length, but it halves to a = 0.
        ({"mirror_side": 5e-324}, multimorph.OutOfRangeError,
         "mirror half side: a mirror side of 5e-324 m halves to a = 0; "
         "the design is outside double-precision range"),
        ({"substrate_t": 0.0, "mirror_side": 0.0}, ValueError, "substrate_t must be > 0"),
    ], ids=["substrate_t-0.0", "substrate_t-nan", "mirror_side-0.0", "mirror_side-nan",
            "mirror_side-5e-324", "substrate_t-and-mirror_side-0.0"])
    def test_geometry_raises_first_failing_check(self, changes, error, text):
        """geometry() checks the stack, then the mirror, as the solve does."""
        design = SCANNER_A._replace(**changes)
        for call in (design.geometry, lambda: solve_scanner(*design)):
            with pytest.raises(error, match=f"^{re.escape(text)}$") as raised:
                call()
            assert type(raised.value) is error

    def test_oracle_op_binding_is_the_solve(self):
        """perfbench's oracle op, its expressions verbatim, reads the bits of the solve's
        force, rigidity, a and half_span, and equivalent_section the values of section."""
        rng = random.Random(20261019)
        for _ in range(2000):
            design = random_design(rng)
            geometry = design.geometry()
            assert geometry.stack is design
            force = multimorph.equivalent_force(geometry.stack, design.voltage)
            rigidity = multimorph.equivalent_section(geometry.stack).rigidity
            bound = (force, rigidity, geometry.a, geometry.half_span)
            assert [v.hex() for v in bound] == [v.hex() for v in solve_scanner(*design)[:4]]
            assert tuple(multimorph.equivalent_section(geometry.stack)) == section_of(design)

