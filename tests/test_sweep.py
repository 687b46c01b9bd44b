import math

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from piezoscanner.scanner import solve_scanner
from piezoscanner.sweep import (
    AXES,
    ScanConfig,
    SweepSpec,
    optimize_1d,
    reference_config,
    run_sweep,
    table1,
)

from conftest import physical_designs

# Paper-reported tilt/deflection for the three reference designs at 50 V.
TABLE1_EXPECTED = {
    850e-6: (0.57, 2.45e-6),
    600e-6: (0.48, 1.76e-6),
    500e-6: (0.42, 1.48e-6),
}


def beam_length_spec(steps=3, start=500e-6, stop=850e-6) -> SweepSpec:
    return SweepSpec(base=reference_config(), axis="beam_length", start=start, stop=stop, steps=steps)


class TestSpecValidation:
    def test_unknown_axis(self):
        with pytest.raises(ValueError):
            SweepSpec(base=reference_config(), axis="gravity", start=1, stop=2, steps=2)

    def test_degenerate_range(self):
        with pytest.raises(ValueError):
            SweepSpec(base=reference_config(), axis="voltage", start=50, stop=50, steps=2)

    def test_too_few_steps(self):
        with pytest.raises(ValueError):
            SweepSpec(base=reference_config(), axis="voltage", start=0, stop=50, steps=1)

    def test_replace_is_checked(self):
        with pytest.raises(ValueError, match="^steps must be >= 2$"):
            beam_length_spec()._replace(steps=1)

    def test_grid_yields_floats(self):
        """An int stop reaches the solves as a float, so no sweep point or optimum is an int."""
        spec = SweepSpec(base=reference_config(), axis="voltage", start=0, stop=50, steps=3)
        assert [(type(v), v) for v in spec.grid()] == [(float, 0.0), (float, 25.0), (float, 50.0)]
        assert all(type(rec.param_value) is float for rec in run_sweep(spec))
        assert type(optimize_1d(spec)[0]) is float


class TestRunSweep:
    def test_ascending_order_inclusive_endpoints(self):
        records = run_sweep(beam_length_spec(steps=8))
        values = [r.param_value for r in records]
        assert values == sorted(values)
        assert values[0] == 500e-6
        assert values[-1] == 850e-6
        assert len(values) == 8

    def test_table1_tilts_within_tolerance(self):
        by_length = {r.param_value: r for r in run_sweep(beam_length_spec(steps=8))}
        # endpoint rows of the grid hit two of the tabulated designs
        for length in (500e-6, 850e-6):
            phi_expected, _ = TABLE1_EXPECTED[length]
            assert by_length[length].tilt_deg == pytest.approx(phi_expected, rel=0.15)

    def test_voltage_linearity(self):
        spec = SweepSpec(base=reference_config(), axis="voltage", start=0.0, stop=50.0, steps=3)
        records = run_sweep(spec)
        tans = [math.tan(math.radians(r.tilt_deg)) for r in records]
        assert tans[0] == 0.0
        assert tans[2] == pytest.approx(2 * tans[1], rel=1e-9)

    def test_failed_points_reported_inline(self):
        # large mirrors make the support-junction distance swallow the span
        base = reference_config()._replace(beam_length=100e-6)
        spec = SweepSpec(base=base, axis="substrate_thickness", start=-1e-6, stop=1e-6, steps=3)
        records = run_sweep(spec)
        assert len(records) == 3
        assert not records[0].ok
        assert math.isnan(records[0].tilt_deg)
        assert records[-1].ok

    def test_determinism(self):
        spec = beam_length_spec(steps=11)
        assert run_sweep(spec) == run_sweep(spec)


# Values at or below 0, that overflow a stage, or that underflow to 0 or a subnormal.
EXTREMES = st.sampled_from([0.0, -0.0, -1e-6, -1e300, 1e100, 1e200, 1e300, 1.7e308, 1e-300,
                            1e-320, 5e-324])


def closed_forms(substrate_E, piezo_E, d31, substrate_t, piezo_t, beam_width, beam_length,
                 mirror_side, voltage):
    """(tilt in degrees, y_max, force, reaction) of a design: the end force
    (3/2) W t_p E_p d31 V / L, the homogenized section's rigidity, and the propped
    half beam's reaction, mirror slope and peak, evaluated in the model's order of
    operations. None where a length or modulus is not > 0, the half mirror a rounds
    to 0 or to the half span, or a value overflows or divides by zero."""
    a = mirror_side / 2
    span = a + beam_length
    lengths_and_moduli = (substrate_E, piezo_E, substrate_t, piezo_t, beam_width, beam_length, a)
    if not (all(value > 0 for value in lengths_and_moduli) and a < span):
        return None
    force = 1.5 * beam_width * piezo_t * piezo_E * d31 * voltage / beam_length
    e_ref = max(substrate_E, piezo_E)
    ts, tp = substrate_t, piezo_t
    hs, h1, h2 = ts / 2, ts + tp / 2, ts + 1.5 * tp
    try:
        r_s, r_p = substrate_E / e_ref, piezo_E / e_ref
        h_eq = (r_s * ts * hs + r_p * tp * h1 + r_p * tp * h2) / (r_s * ts + r_p * tp + r_p * tp)
        rigidity = e_ref * (beam_width * (r_s * (ts**3 / 12 + ts * (h_eq - hs) ** 2)
                                          + r_p * (tp**3 / 12 + tp * (h_eq - h1) ** 2)
                                          + r_p * (tp**3 / 12 + tp * (h_eq - h2) ** 2)))
        q = a**2 + a * span + span**2
        slope = force * a * (span - a) ** 3 / (4 * rigidity * q)
        reaction = 0.0 - force * ((span - a) * (2 * span + a) / (2 * q))
        ratio = (span + 2 * a) / (a + span)
        y_max = abs(slope) * (4 / 27 * (span + 2 * a) * ratio * ratio)
    except ArithmeticError:
        return None
    tilt_signed = math.atan(slope)
    if not all(map(math.isfinite, (force, rigidity, reaction, tilt_signed, y_max))):
        return None
    return math.degrees(abs(tilt_signed)), y_max, force, reaction


@st.composite
def sweep_bases(draw):
    """A physical design, possibly with one field set to an extreme value."""
    config = draw(physical_designs())
    if draw(st.booleans()):
        field = draw(st.sampled_from(list(ScanConfig._fields)))
        config = config._replace(**{field: draw(EXTREMES)})
    return config


@given(base=sweep_bases(), axis=st.sampled_from(sorted(AXES)),
       ends=st.lists(st.one_of(EXTREMES, st.floats(min_value=1e-7, max_value=1e-3)),
                     min_size=2, max_size=2, unique=True))
def test_sweep_point_is_model_path(base, axis, ends):
    """Each record holds the bits of the closed forms evaluated from its design's fields,
    or, where they leave the model's domain, the error text of the design's solve."""
    start, stop = sorted(ends)
    assume(math.isfinite(stop - start))
    for rec in run_sweep(SweepSpec(base=base, axis=axis, start=start, stop=stop, steps=3)):
        design = base._replace(**{AXES[axis]: rec.param_value})
        expected = closed_forms(*design)
        if expected is None:
            with pytest.raises(ValueError) as raised:
                solve_scanner(*design)
            assert rec.status == str(raised.value)
            assert all(map(math.isnan, (rec.tilt_deg, rec.y_max_m, rec.force_N, rec.reaction_N)))
            continue
        assert rec.status == "ok"
        got = (rec.tilt_deg, rec.y_max_m, rec.force_N, rec.reaction_N)
        assert [v.hex() for v in got] == [v.hex() for v in expected]


class TestOptimize:
    def test_tilt_monotone_in_beam_length(self):
        best_x, best_f = optimize_1d(beam_length_spec(steps=5), objective="tilt")
        assert best_x == pytest.approx(850e-6, rel=1e-4)
        records = run_sweep(beam_length_spec(steps=5))
        assert best_f >= max(r.tilt_deg for r in records)

    def test_tilt_monotone_in_voltage(self):
        spec = SweepSpec(base=reference_config(), axis="voltage", start=0.0, stop=50.0, steps=5)
        best_x, _ = optimize_1d(spec, objective="tilt")
        assert best_x == pytest.approx(50.0, rel=1e-4)

    def test_flat_objective_ties_to_smallest(self):
        base = reference_config()._replace(d31=0.0)
        spec = SweepSpec(base=base, axis="beam_length", start=500e-6, stop=850e-6, steps=5)
        best_x, best_f = optimize_1d(spec, objective="tilt")
        assert best_x == 500e-6
        assert best_f == 0.0

    def test_interior_maximum_dominates_grid(self):
        # y_max over substrate thickness has an interior optimum
        spec = SweepSpec(
            base=reference_config(), axis="substrate_thickness",
            start=0.5e-6, stop=20e-6, steps=7,
        )
        best_x, best_f = optimize_1d(spec, objective="y_max")
        records = run_sweep(spec)
        assert best_f >= max(r.y_max_m for r in records)
        assert 0.5e-6 <= best_x <= 20e-6

    def test_unknown_objective(self):
        with pytest.raises(ValueError):
            optimize_1d(beam_length_spec(), objective="mass")

    def test_failed_grid_points_are_skipped(self):
        # -100 um fails; the scan brackets the optimum among the four that solve.
        spec = beam_length_spec(steps=5, start=-100e-6, stop=850e-6)
        assert optimize_1d(spec, objective="tilt") == (0.00085, 0.5319742417015908)

    def test_failed_points_skipped_below_the_feasible_range(self):
        # -1 mm and -1/3 mm fail; the golden section searches [1/3 mm, 1 mm].
        spec = SweepSpec(base=reference_config(), axis="mirror_side", start=-1e-3, stop=1e-3, steps=4)
        assert optimize_1d(spec, objective="y_max") == (0.001, 7.419774462702619e-06)

    def test_all_failed_grid(self):
        spec = beam_length_spec(steps=5, start=-2e-3, stop=-1e-3)
        with pytest.raises(ValueError, match="^no feasible point on the sweep grid$"):
            optimize_1d(spec, objective="tilt")


class TestTable1:
    def test_rows_within_paper_tolerance(self):
        records = table1()
        assert [r.param_value for r in records] == [850e-6, 600e-6, 500e-6]
        for rec in records:
            phi_expected, y_expected = TABLE1_EXPECTED[rec.param_value]
            assert rec.tilt_deg == pytest.approx(phi_expected, rel=0.15)
            assert rec.y_max_m == pytest.approx(y_expected, rel=0.15)

    def test_ordering(self):
        a, b, c = table1()
        assert a.tilt_deg > b.tilt_deg > c.tilt_deg
        assert a.y_max_m > b.y_max_m > c.y_max_m
