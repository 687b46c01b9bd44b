import math
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from piezoscanner import multimorph
from piezoscanner.multimorph import check_stack, end_force, section
from piezoscanner.scanner import solve_scanner
from piezoscanner.sweep import ScanConfig, reference_config
from piezoscanner.verification import (
    PHYSICAL_RANGES,
    layer_rigidity,
    pipeline_force,
    piezo_strains,
    random_design,
    solve_curvature,
    tip_deflection,
)

from conftest import DRIVES, physical_designs

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


class TestCurvature:
    def test_zero_voltage(self):
        sol = solve_curvature(SCANNER_A._replace(voltage=0.0))
        assert sol == (0.0, 0.0, 0.0, 0.0)

    def test_zero_d31(self):
        sol = solve_curvature(SCANNER_A._replace(d31=0.0))
        assert sol[3] == 0.0

    def test_reference_curvature(self):
        sol = solve_curvature(SCANNER_A)
        assert sol[3] == pytest.approx(REF_KAPPA, rel=1e-9)
        assert abs(sol[3]) == pytest.approx(2.7e2, rel=0.01)

    @given(design=physical_designs())
    def test_equilibrium_and_residuals(self, design):
        sol = solve_curvature(design)
        es, ts = design.substrate_E, design.substrate_t
        ep, tp = design.piezo_E, design.piezo_t
        s = piezo_strains(design)

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
    def test_zero_voltage(self):
        assert tip_deflection(SCANNER_A._replace(voltage=0.0)) == 0.0

    def test_reference_value(self):
        y = tip_deflection(SCANNER_A)
        assert y == pytest.approx(REF_TIP, rel=1e-9)
        assert abs(y) == pytest.approx(9.7e-5, rel=0.01)

    def test_linearity_in_voltage(self):
        y1 = tip_deflection(SCANNER_A._replace(voltage=25.0))
        y2 = tip_deflection(SCANNER_A._replace(voltage=50.0))
        assert y2 == pytest.approx(2 * y1, rel=1e-12)

    @given(design=physical_designs(drive="positive"))
    def test_voltage_negation(self, design):
        assert tip_deflection(design._replace(voltage=-design.voltage)) == pytest.approx(
            -tip_deflection(design), rel=1e-12, abs=0.0
        )


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
        """The 4x4 pipeline at the solved rigidity gives the solved force."""
        force, rigidity = solve_scanner(*design)[:2]
        assert force == force_of(design)
        assert abs(pipeline_force(design, rigidity) - force) <= 1e-12 * max(abs(force), 1e-300)

    @given(design=physical_designs(d31_nonzero=True, drive="positive"))
    def test_linearity_in_d31(self, design):
        doubled = design._replace(d31=2 * design.d31)
        assert force_of(doubled) == pytest.approx(2 * force_of(design), rel=1e-9)


def bits(values) -> np.ndarray:
    """The IEEE bit patterns of values, so that -0.0 differs from 0.0 and nan matches."""
    return np.asarray(values, dtype=np.float64).view(np.uint64)


class TestBatchedReference:
    """The 4x4 reference on a design of arrays, as `verify` draws and solves its designs."""

    @pytest.mark.parametrize("seed, size", [(20260824, 1000), (11, 5000), (12, 5000),
                                            (13, 5000), (14, 5000)])
    def test_batched_solve_is_per_design_bit_for_bit(self, seed, size):
        """One batched solve_curvature and pipeline_force give the bits of a call per design:
        `checks`' own draw (seed 20260824, 1,000 designs) and four draws of 5,000."""
        drawn = random_design(np.random.default_rng(seed), size)
        designs = [ScanConfig(*fields) for fields in np.column_stack(drawn).tolist()]
        rigidities = [solve_scanner(*design)[1] for design in designs]
        assert np.array_equal(bits(np.column_stack(solve_curvature(drawn))),
                              bits([solve_curvature(design) for design in designs]))
        assert np.array_equal(bits(pipeline_force(drawn, np.array(rigidities))),
                              bits([pipeline_force(design, rigidity)
                                    for design, rigidity in zip(designs, rigidities)]))


class TestPhysicalDomain:
    """Every physical draw stays in PHYSICAL_RANGES, d31 and the voltage as magnitudes,
    with the signs and the zeros that its options name."""

    def test_random_design_in_domain(self):
        drawn = random_design(np.random.default_rng(20261024), 10_000)
        for field, values, (lo, hi) in zip(ScanConfig._fields, drawn, PHYSICAL_RANGES):
            magnitudes = np.abs(values) if field in ("d31", "voltage") else values
            assert np.all((lo <= magnitudes) & (magnitudes <= hi)), field
        assert np.all(drawn.d31 < 0)
        assert np.any(drawn.voltage < 0) and np.any(drawn.voltage > 0)

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
        drawn = random_design(np.random.default_rng(20261019), 2000)
        for fields in np.column_stack(drawn).tolist():
            design = ScanConfig(*fields)
            geometry = design.geometry()
            assert geometry.stack is design
            force = multimorph.equivalent_force(geometry.stack, design.voltage)
            rigidity = multimorph.equivalent_section(geometry.stack).rigidity
            bound = (force, rigidity, geometry.a, geometry.half_span)
            assert [v.hex() for v in bound] == [v.hex() for v in solve_scanner(*design)[:4]]
            assert tuple(multimorph.equivalent_section(geometry.stack)) == section_of(design)

