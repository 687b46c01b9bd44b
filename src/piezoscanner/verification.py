"""Reference checks of the model: the 4x4 layer system and the `verify` suite.

The layer force resultants and curvature solve a 4x4 system (in-plane and
moment equilibrium, two interface continuity conditions). Its tip
deflection gives the pipeline force 3 EI / L^3 * y_tip, which must equal
:func:`multimorph.equivalent_force` to round-off. The profile checks read
both half-profile branches from scanner's coefficients (:func:`branches`).
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
from dataclasses import dataclass

import numpy as np

from . import multimorph, oracle, scanner, sweep
from .multimorph import MultimorphStack


class SingularSystemError(ValueError):
    pass


@dataclass(frozen=True)
class Strains:
    """Piezoelectric drive strains of the lower (s1) and upper (s2) layer."""

    s1: float
    s2: float


@dataclass(frozen=True)
class CurvatureSolution:
    """In-plane force resultants per unit width (N/m) and curvature (1/m)."""

    p1: float
    p2: float
    p3: float
    kappa: float


def piezo_strains(stack: MultimorphStack, voltage: float) -> Strains:
    """Drive strains for opposite-polarity actuation of the two layers."""
    s = stack.d31 * voltage / stack.piezo_t
    return Strains(s1=-s, s2=+s)


def _assemble_system(stack: MultimorphStack, voltage: float):
    """Build the 4x4 system in the unknowns (p1, p2, p3, kappa).

    Rows: in-plane equilibrium, moment equilibrium about the substrate
    bottom, substrate/lower-piezo interface continuity, piezo/piezo
    interface continuity.
    """
    es, ts = stack.substrate_E, stack.substrate_t
    ep, tp = stack.piezo_E, stack.piezo_t
    strains = piezo_strains(stack, voltage)

    a = np.array(
        [
            [1.0, 1.0, 1.0, 0.0],
            [ts / 2, ts + tp / 2, ts + 1.5 * tp, (es * ts**3 + 2 * ep * tp**3) / 12],
            [1 / (es * ts), -1 / (ep * tp), 0.0, (ts + tp) / 2],
            [0.0, 1 / (ep * tp), -1 / (ep * tp), tp],
        ]
    )
    b = np.array([0.0, 0.0, strains.s1, strains.s2 - strains.s1])
    return a, b


def solve_curvature(stack: MultimorphStack, voltage: float) -> CurvatureSolution:
    """Solve for the layer force resultants and the beam curvature."""
    a, b = _assemble_system(stack, voltage)
    try:
        p1, p2, p3, kappa = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"degenerate stack: {exc}") from exc
    return CurvatureSolution(p1=float(p1), p2=float(p2), p3=float(p3), kappa=float(kappa))


def tip_deflection(stack: MultimorphStack, voltage: float) -> float:
    """Free tip deflection of the cantilevered stack: kappa * L^2 / 2."""
    kappa = solve_curvature(stack, voltage).kappa
    return kappa * stack.length**2 / 2


def _denominator_polynomial(stack: MultimorphStack) -> float:
    """Shared quartic polynomial of the tip-deflection and inertia closed forms."""
    es, ts = stack.substrate_E, stack.substrate_t
    ep, tp = stack.piezo_E, stack.piezo_t
    return (
        8 * es * ts**3 * ep * tp
        + 24 * es * ts**2 * ep * tp**2
        + 32 * es * ts * ep * tp**3
        + es**2 * ts**4
        + 16 * ep**2 * tp**4
    )


def tip_deflection_closed_form(stack: MultimorphStack, voltage: float) -> float:
    """Closed-form tip deflection, algebraically equal to `tip_deflection`."""
    es, ts = stack.substrate_E, stack.substrate_t
    ep, tp = stack.piezo_E, stack.piezo_t
    num = 6 * stack.length**2 * ep * tp * stack.d31 * (es * ts + 2 * ep * tp)
    return num * voltage / _denominator_polynomial(stack)


def pipeline_force(stack: MultimorphStack, voltage: float) -> float:
    """End force from the 4x4 pipeline: 3 * rigidity / L^3 * y_tip."""
    rigidity = multimorph.equivalent_section(stack).rigidity
    return 3 * rigidity / stack.length**3 * tip_deflection(stack, voltage)


def random_stack(rng: np.random.Generator) -> MultimorphStack:
    """A stack drawn uniformly from inside the physical domain above."""
    return MultimorphStack(
        substrate_E=rng.uniform(10e9, 500e9),
        substrate_t=rng.uniform(0.2e-6, 20e-6),
        piezo_E=rng.uniform(10e9, 500e9),
        piezo_t=rng.uniform(0.2e-6, 20e-6),
        d31=-rng.uniform(10e-12, 500e-12),
        width=rng.uniform(5e-6, 200e-6),
        length=rng.uniform(100e-6, 2000e-6),
    )


def branches(x: float, force: float, a: float, span: float,
             rigidity: float) -> tuple[float, float, float, float]:
    """(mirror y, beam y, mirror y', beam y') of the half profile at x, both branches
    evaluated from scanner's per-design coefficients as the model evaluates them."""
    den = scanner._profile_denominator(a, span, rigidity)
    mirror = scanner._mirror_coefficient(force, a, span)
    cubic = scanner._cubic_coefficients(a, span)
    qa, qb, qc = scanner._slope_coefficients(a, span)
    return (mirror * x / den, scanner._beam(x, force * a, cubic, den),
            mirror / den, force * a * (qa * x**2 + qb * x + qc) / den)


def checks(nodes: int):
    """Yield (name, residual, tolerance) for the whole verification suite."""
    force, rigidity, a, span, *_ = sweep.reference_config().solve()

    problem = oracle.BeamProblem(span=span, a=a, force=force, rigidity=rigidity, nodes=nodes)
    fd = oracle.solve_fd(problem)
    r_closed = scanner.reaction(force, fd.a_snapped, span)
    yield "oracle_reaction", abs(fd.reaction - r_closed) / abs(r_closed), 5e-3
    yield "oracle_profile_maxnorm", oracle.profile_error(problem, fd), 5e-3
    tilt_closed = abs(scanner.statics(force, fd.a_snapped, span, rigidity)[1])
    yield "oracle_tilt", abs(fd.tilt() - tilt_closed) / tilt_closed, 5e-3

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
        voltage = rng.uniform(1.0, 100.0) * rng.choice([-1.0, 1.0])
        f_pipeline = pipeline_force(stack, voltage)
        f_closed = multimorph.equivalent_force(stack, voltage)
        worst_identity = max(worst_identity, abs(f_pipeline - f_closed) / abs(f_closed))
        rigs = [multimorph.equivalent_section(stack, choice).rigidity
                for choice in ("substrate", "piezo", "max")]
        worst_norm = max(worst_norm, (max(rigs) - min(rigs)) / max(rigs))
    yield "closed_form_identity", worst_identity, 1e-10
    yield "normalization_independence", worst_norm, 1e-12

    worst_profile = 0.0
    for _ in range(100):
        stack = random_stack(rng)
        voltage = rng.uniform(1.0, 100.0) * rng.choice([-1.0, 1.0])
        f = multimorph.equivalent_force(stack, voltage)
        rig = multimorph.equivalent_section(stack).rigidity
        aa = rng.uniform(10e-6, 500e-6)
        sp = aa + stack.length
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
