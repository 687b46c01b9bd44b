"""Reference checks of the model: the 4x4 layer system and the `verify` suite.

The layer force resultants and curvature solve a 4x4 system (in-plane and
moment equilibrium, two interface continuity conditions). Its tip
deflection gives the pipeline force 3 EI / L^3 * y_tip, which must equal
:func:`multimorph.end_force` to round-off. The profile checks read
both half-profile branches as scanner evaluates them (:func:`branches`).
No model path calls this module; the CLI loads it, and numpy with it, only
for `verify`.

Domain: the tests' `physical_stacks` (moduli 10-500 GPa, layers 0.2-20 um
thick, |d31| up to 500 pm/V, widths 5-200 um, lengths 100-2000 um). The
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


# A stack is a MultimorphStack or its seven field values in that order:
# (substrate_E, substrate_t, piezo_E, piezo_t, d31, width, length).


def piezo_strains(stack, voltage: float) -> tuple[float, float]:
    """(s1, s2), the drive strains of the lower and upper layer for opposite-polarity actuation."""
    s = stack[4] * voltage / stack[3]  # d31 V / piezo_t
    return -s, +s


def _assemble_system(stack, voltage: float):
    """Build the 4x4 system in the unknowns (p1, p2, p3, kappa).

    Rows: in-plane equilibrium, moment equilibrium about the substrate
    bottom, substrate/lower-piezo interface continuity, piezo/piezo
    interface continuity.
    """
    es, ts, ep, tp = stack[:4]
    s1, s2 = piezo_strains(stack, voltage)

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


def solve_curvature(stack, voltage: float) -> tuple[float, float, float, float]:
    """(p1, p2, p3, kappa): the layer force resultants per unit width (N/m) and the
    beam curvature (1/m)."""
    a, b = _assemble_system(stack, voltage)
    try:
        solution = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"degenerate stack: {exc}") from exc
    return tuple(map(float, solution))


def tip_deflection(stack, voltage: float) -> float:
    """Free tip deflection of the cantilevered stack: kappa * L^2 / 2."""
    return solve_curvature(stack, voltage)[3] * stack[6] ** 2 / 2


def pipeline_force(stack, voltage: float) -> float:
    """End force from the 4x4 pipeline: 3 * rigidity / L^3 * y_tip."""
    es, ts, ep, tp, _, width, length = stack
    rigidity = multimorph.section(es, ts, ep, tp, width)[3]
    return 3 * rigidity / length**3 * tip_deflection(stack, voltage)


def random_stack(rng: np.random.Generator) -> tuple[float, ...]:
    """A stack's seven field values drawn uniformly from inside the physical domain above."""
    return (rng.uniform(10e9, 500e9), rng.uniform(0.2e-6, 20e-6), rng.uniform(10e9, 500e9),
            rng.uniform(0.2e-6, 20e-6), -rng.uniform(10e-12, 500e-12),
            rng.uniform(5e-6, 200e-6), rng.uniform(100e-6, 2000e-6))


def branches(x: float, force: float, a: float, span: float,
             rigidity: float) -> tuple[float, float, float, float]:
    """(mirror y, beam y, mirror y', beam y') of the half profile at x, both branches
    evaluated from the mirror slope as the model evaluates them."""
    slope = scanner._slope(force, a, span, rigidity)
    length = span - a
    return (slope * x, scanner._beam(x, slope, a, span), slope,
            slope * (x - span) / length * (3 * (a + span) * (x - a) / length**2 - 1))


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
    worst_identity = 0.0
    worst_norm = 0.0
    for _ in range(1000):
        stack = random_stack(rng)
        es, ts, ep, tp, d31, width, length = stack
        voltage = rng.uniform(1.0, 100.0) * rng.choice([-1.0, 1.0])
        f_pipeline = pipeline_force(stack, voltage)
        f_closed = multimorph.end_force(width, tp, ep, d31, voltage, length)
        worst_identity = max(worst_identity, abs(f_pipeline - f_closed) / abs(f_closed))
        rigs = [multimorph.section(es, ts, ep, tp, width, choice)[3]
                for choice in ("substrate", "piezo", "max")]
        worst_norm = max(worst_norm, (max(rigs) - min(rigs)) / max(rigs))
    yield "closed_form_identity", worst_identity, 1e-10
    yield "normalization_independence", worst_norm, 1e-12

    worst_profile = 0.0
    for _ in range(100):
        es, ts, ep, tp, d31, width, length = random_stack(rng)
        voltage = rng.uniform(1.0, 100.0) * rng.choice([-1.0, 1.0])
        f = multimorph.end_force(width, tp, ep, d31, voltage, length)
        rig = multimorph.section(es, ts, ep, tp, width)[3]
        aa = rng.uniform(10e-6, 500e-6)
        sp = aa + length
        _, tilt_signed, y_max, _ = scanner.statics(f, aa, sp, rig)
        y0, _, dy0, _ = branches(0.0, f, aa, sp, rig)
        _, y_end, _, dy_end = branches(sp, f, aa, sp, rig)
        y_a, y_b, dy_a, dy_b = branches(aa, f, aa, sp, rig)
        res = max(
            abs(y0),
            abs(y_end),
            abs(dy_end) * sp,
            abs(y_a - y_b),
            abs(dy_a - dy_b) * sp,
            # straightness of the mirror segment: second difference
            abs(branches(aa / 4, f, aa, sp, rig)[0] - 2 * branches(aa / 2, f, aa, sp, rig)[0]
                + branches(3 * aa / 4, f, aa, sp, rig)[0]),
            abs(math.tan(abs(tilt_signed)) - abs(dy0)) * sp,
        )
        worst_profile = max(worst_profile, res / y_max)
    yield "profile_invariants", worst_profile, 1e-12
