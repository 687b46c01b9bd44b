"""Reference checks of the model: the 4x4 layer system and the `verify` suite.

Every check takes a design, a :class:`~piezoscanner.sweep.ScanConfig`, and
reads its model values from one :func:`scanner.solve_scanner` call, the solve
that every command makes. The layer force resultants and curvature of a
design at its voltage solve a 4x4 system (in-plane and moment equilibrium,
two interface continuity conditions). Its tip deflection gives the pipeline
force 3 EI / L^3 * y_tip, which must equal the solved force to round-off.
The profile checks read both half-profile branches as scanner evaluates them
(:func:`branches`). No model path calls this module; the CLI loads it, and
numpy with it, only for `verify`.

Domain: the designs of :func:`random_design` and the tests'
`physical_designs` (moduli 10-500 GPa, layers 0.2-20 um thick, |d31| up to
500 pm/V, widths 5-200 um, lengths 100-2000 um, mirrors 20-1000 um). The
formulation cancels as the piezo layer thins: the condition number is 6.4e5
at Scanner A's 1 um and 1.5e15 at 1e-14 um, where the pipeline force is off
by up to 4.3%, and equilibrating rows and columns does not remove the error.
"""

from __future__ import annotations

import math

import numpy as np

from . import multimorph, oracle, scanner, sweep


class SingularSystemError(ValueError):
    pass


def piezo_strains(design) -> tuple[float, float]:
    """(s1, s2), the drive strains of the lower and upper layer at the design's voltage,
    for opposite-polarity actuation."""
    s = design.d31 * design.voltage / design.piezo_t
    return -s, +s


def _assemble_system(design):
    """Build the 4x4 system in the unknowns (p1, p2, p3, kappa).

    Rows: in-plane equilibrium, moment equilibrium about the substrate
    bottom, substrate/lower-piezo interface continuity, piezo/piezo
    interface continuity.
    """
    es, ts, ep, tp = design.substrate_E, design.substrate_t, design.piezo_E, design.piezo_t
    s1, s2 = piezo_strains(design)

    a = np.array(
        [
            [1.0, 1.0, 1.0, 0.0],
            [ts / 2, ts + tp / 2, ts + 1.5 * tp, (es * ts**3 + 2 * ep * tp**3) / 12],
            [1 / (es * ts), -1 / (ep * tp), 0.0, (ts + tp) / 2],
            [0.0, 1 / (ep * tp), -1 / (ep * tp), tp],
        ]
    )
    b = np.array([0.0, 0.0, s1, s2 - s1])
    return a, b


def solve_curvature(design) -> tuple[float, float, float, float]:
    """(p1, p2, p3, kappa): the layer force resultants per unit width (N/m) and the
    beam curvature (1/m)."""
    a, b = _assemble_system(design)
    try:
        solution = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"degenerate stack: {exc}") from exc
    return tuple(map(float, solution))


def tip_deflection(design) -> float:
    """Free tip deflection of the cantilevered stack: kappa * L^2 / 2."""
    return solve_curvature(design)[3] * design.beam_length**2 / 2


def pipeline_force(design, rigidity: float) -> float:
    """End force from the 4x4 pipeline at the design's rigidity: 3 * rigidity / L^3 * y_tip."""
    return 3 * rigidity / design.beam_length**3 * tip_deflection(design)


def random_design(rng: np.random.Generator) -> sweep.ScanConfig:
    """A design drawn uniformly from inside the physical domain above, with d31 < 0 and
    a 1-100 V drive of either sign."""
    return sweep.ScanConfig(
        substrate_E=rng.uniform(10e9, 500e9), piezo_E=rng.uniform(10e9, 500e9),
        d31=-rng.uniform(10e-12, 500e-12), substrate_t=rng.uniform(0.2e-6, 20e-6),
        piezo_t=rng.uniform(0.2e-6, 20e-6), beam_width=rng.uniform(5e-6, 200e-6),
        beam_length=rng.uniform(100e-6, 2000e-6), mirror_side=rng.uniform(20e-6, 1000e-6),
        voltage=rng.uniform(1.0, 100.0) * float(rng.choice([-1.0, 1.0])),
    )


def branches(x: float, force: float, a: float, span: float,
             rigidity: float) -> tuple[float, float, float, float]:
    """(mirror y, beam y, mirror y', beam y') of the half profile at x, both branches
    evaluated from the mirror slope as the model evaluates them."""
    slope = scanner._slope(force, a, span, rigidity)
    length = span - a
    return (slope * x, scanner._beam(x, slope, a, span), slope,
            slope * (x - span) / length * (3 * (a + span) * (x - a) / length**2 - 1))


def _profile_residual(force: float, a: float, span: float, rigidity: float,
                      tilt_signed: float) -> float:
    """The largest violation of the half profile's support, clamp, continuity, straightness
    and tilt conditions, as a deflection (slopes times span)."""
    def at(x):
        return branches(x, force, a, span, rigidity)

    y0, _, dy0, _ = at(0.0)
    _, y_end, _, dy_end = at(span)
    y_a, y_b, dy_a, dy_b = at(a)
    return max(
        abs(y0),
        abs(y_end),
        abs(dy_end) * span,
        abs(y_a - y_b),
        abs(dy_a - dy_b) * span,
        # straightness of the mirror segment: second difference
        abs(at(a / 4)[0] - 2 * at(a / 2)[0] + at(3 * a / 4)[0]),
        abs(math.tan(abs(tilt_signed)) - abs(dy0)) * span,
    )


def checks(nodes: int):
    """Yield (name, residual, tolerance) for the whole verification suite."""
    force, rigidity, a, span, *_ = scanner.solve_scanner(*sweep.reference_config())

    problem = oracle.BeamProblem(span=span, a=a, force=force, rigidity=rigidity, nodes=nodes)
    fd = oracle.solve_fd(problem)
    r_closed, tilt_closed, _, _ = scanner.statics(force, fd.a_snapped, span, rigidity)
    yield "oracle_reaction", abs(fd.reaction - r_closed) / abs(r_closed), 5e-3
    yield "oracle_profile_maxnorm", oracle.profile_error(problem, fd), 5e-3
    yield "oracle_tilt", abs(fd.tilt() - abs(tilt_closed)) / abs(tilt_closed), 5e-3

    counts = [101, 201, 401]
    orders = oracle.convergence_orders(counts, oracle.convergence_study(problem, counts))
    yield "oracle_convergence_order", 1.8 - min(orders), 0.0

    half = oracle.BeamProblem(span=span, a=span / 2, force=force, rigidity=rigidity, nodes=nodes)
    fd_half = oracle.solve_fd(half)
    target = -5 * force / 14
    yield "oracle_midspan_reaction", abs(fd_half.reaction - target) / abs(target), 5e-3

    rng = np.random.default_rng(20260824)
    worst_identity = worst_norm = worst_profile = 0.0
    for i in range(1000):
        design = random_design(rng)
        force, rigidity, a, span, _, tilt_signed, y_max, _ = scanner.solve_scanner(*design)
        worst_identity = max(worst_identity,
                             abs(pipeline_force(design, rigidity) - force) / abs(force))
        stack = design.substrate_E, design.substrate_t, design.piezo_E, design.piezo_t
        rigs = [rigidity] + [multimorph.section(*stack, design.beam_width, choice)[3]
                             for choice in ("substrate", "piezo")]
        worst_norm = max(worst_norm, (max(rigs) - min(rigs)) / max(rigs))
        if i % 10 == 0:  # the profile checks, ~11 us a design, on 100 of them
            worst_profile = max(worst_profile,
                                _profile_residual(force, a, span, rigidity, tilt_signed) / y_max)
    yield "closed_form_identity", worst_identity, 1e-10
    yield "normalization_independence", worst_norm, 1e-12
    yield "profile_invariants", worst_profile, 1e-12
