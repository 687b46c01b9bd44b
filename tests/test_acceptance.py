"""Acceptance suite: one test per release criterion, with a pass/fail line
printed for each (run with -s or check the captured output)."""

import inspect
import math
import time

import pytest

from piezoscanner import multimorph, oracle, scanner, sweep, verification
from piezoscanner.multimorph import section

from conftest import sampled

EXPECTED_TILT_DEG = (0.57, 0.48, 0.42)
EXPECTED_YMAX_UM = (2.45, 1.76, 1.48)


def _report(name, ok):
    print(f"acceptance: {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, name


def test_criterion_1_table1_reproduction():
    start = time.perf_counter()
    records = sweep.table1()
    elapsed = time.perf_counter() - start
    ok = True
    for rec, phi_exp, ymax_exp in zip(records, EXPECTED_TILT_DEG, EXPECTED_YMAX_UM):
        ok &= abs(rec.tilt_deg - phi_exp) / phi_exp <= 0.15
        ok &= abs(rec.y_max_m * 1e6 - ymax_exp) / ymax_exp <= 0.15
    # desk-check reference for the long-beam design
    ok &= abs(records[0].tilt_deg - 0.532) / 0.532 <= 1e-3
    ok &= abs(records[0].y_max_m - 2.29e-6) / 2.29e-6 <= 3e-3
    ok &= elapsed < 1.0
    _report("1 Table-1 reproduction (15%, <1s)", ok)


def test_criterion_1_table1_shape():
    """The six paper/model ratios of Table 1 share one factor k to 1.5%, so the model
    keeps the paper's trend in beam length, not only its level. At Scanner A's constants
    k is 1.066 and the worst ratio is 1.01% from it."""
    records = sweep.table1()
    ratios = [paper / rec.tilt_deg for rec, paper in zip(records, EXPECTED_TILT_DEG)]
    ratios += [paper / (rec.y_max_m * 1e6) for rec, paper in zip(records, EXPECTED_YMAX_UM)]
    k = math.sqrt(min(ratios) * max(ratios))  # the factor with the smallest worst misfit
    worst = max(abs(ratio / k - 1) for ratio in ratios)
    _report(f"1 Table-1 shape (one factor {k:.3f}, worst {worst:.2%} <= 1.5%)", worst <= 0.015)


@pytest.fixture(scope="module")
def suite():
    """One run of the `verify` checks at 2,001 nodes: {name: residual} and its wall time."""
    start = time.perf_counter()
    residuals = {name: residual for name, residual, _ in verification.checks(2001)}
    return residuals, time.perf_counter() - start


def test_verify_lines_pinned():
    """`verify` prints these nine lines in this order, each at this tolerance: a line
    dropped, renamed, reordered or loosened fails here."""
    assert [(name, tol) for name, _, tol in verification.checks(2001)] == [
        ("oracle_reaction", 5e-3),
        ("oracle_profile_maxnorm", 5e-3),
        ("oracle_tilt", 5e-3),
        ("oracle_convergence_order", 0.0),
        ("oracle_midspan_reaction", 5e-3),
        ("closed_form_identity", 1e-10),
        ("normalization_independence", 1e-12),
        ("profile_invariants", 1e-12),
        ("profile_sampling", 0.0),
    ]


def test_normalization_line_fails_on_a_wrong_section(monkeypatch):
    """A section that gives each piezo layer twice its own inertia (t^3/6) fails
    normalization_independence, whatever modulus it normalizes by: the check's reference
    is the layer sum, which shares no formula with section."""
    source = inspect.getsource(multimorph.section)
    mutant_source = source.replace("i_p = tp**3 / 12", "i_p = tp**3 / 6")
    assert mutant_source != source
    namespace = dict(vars(multimorph))
    exec(mutant_source, namespace)
    monkeypatch.setattr(multimorph, "section", namespace["section"])
    monkeypatch.setattr(scanner, "section", namespace["section"])
    residuals = {name: (residual, tol) for name, residual, tol in verification.checks(2001)}
    residual, tol = residuals["normalization_independence"]
    assert residual > tol


def test_sampling_line_fails_on_a_reassociated_sampler(monkeypatch):
    """A sampler whose beam ordinate multiplies v * v before the slope rounds differently
    from the beam branch in the last bit: profile_sampling, at tolerance 0.0, fails, and the
    other eight lines, which never sample a profile, pass."""
    source = inspect.getsource(scanner.profile_rows)
    mutant_source = source.replace("y = slope * v * v * (", "y = slope * (v * v) * (")
    assert mutant_source != source
    namespace = dict(vars(scanner))
    exec(mutant_source, namespace)
    monkeypatch.setattr(scanner, "profile_rows", namespace["profile_rows"])
    failed = [name for name, residual, tol in verification.checks(2001) if not residual <= tol]
    assert failed == ["profile_sampling"]


def test_identity_line_fails_on_a_wrong_force(monkeypatch):
    """An end force whose factor 1.5 is off by one part in a million fails
    closed_form_identity, whose reference is the exact layer system, and the other eight
    lines, which read one solve's force on both sides, pass."""
    source = inspect.getsource(multimorph.end_force)
    mutant_source = source.replace("return 1.5 * width", "return 1.5000015 * width")
    assert mutant_source != source
    namespace = dict(vars(multimorph))
    exec(mutant_source, namespace)
    monkeypatch.setattr(scanner, "end_force", namespace["end_force"])
    failed = [name for name, residual, tol in verification.checks(2001) if not residual <= tol]
    assert failed == ["closed_form_identity"]


@pytest.mark.parametrize("module, name, nan, lines", [
    (scanner, "_beam", math.nan, ["oracle_profile_maxnorm", "oracle_convergence_order",
                                  "profile_invariants", "profile_sampling"]),
    (verification, "layer_rigidity", math.nan, ["normalization_independence"]),
    (oracle, "convergence_orders", [2.0, math.nan], ["oracle_convergence_order"]),
], ids=["beam-branch", "layer-rigidity", "convergence-orders"])
def test_nan_reference_fails_its_lines(monkeypatch, module, name, nan, lines):
    """A reference that goes nan fails the lines that read it, wherever the nan falls among
    the residuals: max() and min() alone keep a nan only in first place."""
    monkeypatch.setattr(module, name, lambda *args: nan)
    failed = [line for line, residual, tol in verification.checks(2001) if not residual <= tol]
    assert failed == lines


def test_criterion_2_closed_form_identity(suite):
    residuals, elapsed = suite
    worst = residuals["closed_form_identity"]
    _report(f"2 closed-form force identity (worst {worst:.2e} <= 1e-10, <1s)",
            worst <= 1e-10 and elapsed < 1.0)


def test_criterion_3_normalization_independence(suite):
    worst = suite[0]["normalization_independence"]
    _report(f"3 normalization independence (worst {worst:.2e} <= 1e-12)", worst <= 1e-12)


def test_criterion_4_profile_invariants(suite):
    worst = suite[0]["profile_invariants"]
    _report(f"4 profile invariants (worst {worst:.2e} <= 1e-12)", worst <= 1e-12)


def test_criterion_5_oracle_agreement(suite):
    residuals, elapsed = suite
    ok = residuals["oracle_reaction"] <= 5e-3
    ok &= residuals["oracle_profile_maxnorm"] <= 5e-3
    # The residual is 1.8 minus the smallest observed order over 101/201/401 nodes.
    ok &= residuals["oracle_convergence_order"] <= 0.0
    min_order = 1.8 - residuals["oracle_convergence_order"]
    ok &= residuals["oracle_midspan_reaction"] <= 5e-3
    ok &= elapsed < 5.0
    _report(f"5 oracle agreement (orders {min_order:.2f} >= 1.8, <5s)", ok)


def test_criterion_6_trivial_cases():
    cfg = sweep.reference_config()
    zero_v, zero_v_profile = sampled(cfg._replace(voltage=0.0), 51)
    ok = zero_v.force == 0.0 and zero_v.tilt_signed == 0.0
    ok &= all(y == 0.0 for _, y in zero_v_profile)

    zero_d, zero_d_profile = sampled(cfg._replace(d31=0.0), 51)
    ok &= zero_d.force == 0.0 and zero_d.tilt_signed == 0.0
    ok &= all(y == 0.0 for _, y in zero_d_profile)

    _, pos = sampled(cfg, 51)
    _, neg = sampled(cfg._replace(voltage=-50.0), 51)
    ok &= all(y1 == -y2 for (_, y1), (_, y2) in zip(pos, neg))
    _report("6 trivial cases (V=0, d31=0, V negation)", ok)


def test_criterion_7_homogeneous_limit():
    substrate_t, width = 5e-6, 30e-6
    h_eq, i_eq, _, _ = section(169e9, substrate_t, 60.6e9, 1e-30, width)
    ok = abs(h_eq - substrate_t / 2) <= 1e-12 * substrate_t
    expected = width * substrate_t**3 / 12
    ok &= abs(i_eq - expected) <= 1e-12 * expected
    _report("7 homogeneous limit (h_eq = t_s/2, I = W t_s^3/12)", ok)


def test_criterion_8_monotone_beam_length_trend():
    l850, l600, l500 = sweep.table1()
    tilts = [l500.tilt_deg, l600.tilt_deg, l850.tilt_deg]
    _report("8 monotone tilt vs beam length", tilts[0] < tilts[1] < tilts[2])
