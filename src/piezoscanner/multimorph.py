"""Static model of the 3-layer piezoelectric multimorph beam.

A substrate carries two identical piezoelectric layers driven with opposite
polarity. In-plane force resultants and the beam curvature follow from a
4x4 linear system (in-plane equilibrium, moment equilibrium, and the two
interface continuity conditions). The equivalent homogeneous section and
the end force the beam exerts on the mirror are derived from it.

Two independent closed forms are kept alongside the linear-system pipeline
(`tip_deflection_closed_form`, `equivalent_force_closed_form`); the pipeline
and the closed forms must agree to round-off, which is the module's master
self-check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class SingularSystemError(ValueError):
    pass


class OutOfRangeError(ValueError):
    """Float overflow or division by zero in a model stage: the design is
    outside double-precision range."""

    def __init__(self, stage: str, exc: ArithmeticError):
        super().__init__(f"{stage}: {exc}; the design is outside double-precision range")


@dataclass(frozen=True)
class MultimorphStack:
    """Geometry and constants of the substrate + 2 piezo layer stack.

    Both piezoelectric layers share ``piezo_t`` and ``piezo_E``. All values
    are SI: Pa, m, m/V.
    """

    substrate_E: float
    substrate_t: float
    piezo_E: float
    piezo_t: float
    d31: float
    width: float
    length: float

    def __post_init__(self) -> None:
        for field in ("substrate_E", "substrate_t", "piezo_E", "piezo_t", "width", "length"):
            if not getattr(self, field) > 0:
                raise ValueError(f"{field} must be > 0")


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


@dataclass(frozen=True)
class EquivalentSection:
    """Homogenized cross-section of the stack.

    h_eq is the neutral-axis height above the substrate bottom, i_eq the
    transformed-section moment of inertia for the normalizing modulus
    e_ref, and rigidity the flexural rigidity e_ref * i_eq. The rigidity is
    independent of which layer modulus normalizes the widths.
    """

    h_eq: float
    i_eq: float
    e_ref: float
    rigidity: float


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
    try:
        a, b = _assemble_system(stack, voltage)
        p1, p2, p3, kappa = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystemError(f"degenerate stack: {exc}") from exc
    except ArithmeticError as exc:
        raise OutOfRangeError("curvature solve", exc) from exc
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


_E_REF_CHOICES = ("substrate", "piezo", "max")


def equivalent_section(stack: MultimorphStack, e_ref_choice: str = "max") -> EquivalentSection:
    """Homogenize the stack by normalizing layer widths with e_ref.

    The neutral axis is the stiffness-weighted barycenter of the layer
    mid-heights; the inertia is the transformed-section sum of the
    parallel-axis contributions. Which modulus normalizes is immaterial
    for the rigidity e_ref * i_eq.
    """
    if e_ref_choice not in _E_REF_CHOICES:
        raise ValueError(f"e_ref_choice must be one of {_E_REF_CHOICES}")
    ts, tp = stack.substrate_t, stack.piezo_t
    moduli = (stack.substrate_E, stack.piezo_E, stack.piezo_E)
    thicknesses = (ts, tp, tp)
    mid_heights = (ts / 2, ts + tp / 2, ts + 1.5 * tp)

    if e_ref_choice == "substrate":
        e_ref = stack.substrate_E
    elif e_ref_choice == "piezo":
        e_ref = stack.piezo_E
    else:
        e_ref = max(stack.substrate_E, stack.piezo_E)

    try:
        # Stiffness-scaled layer areas per unit width; width cancels in h_eq.
        areas = [e / e_ref * t for e, t in zip(moduli, thicknesses)]
        h_eq = sum(s * h for s, h in zip(areas, mid_heights)) / sum(areas)
        i_eq = stack.width * sum(
            e / e_ref * (t**3 / 12 + t * (h_eq - h) ** 2)
            for e, t, h in zip(moduli, thicknesses, mid_heights)
        )
    except ArithmeticError as exc:
        raise OutOfRangeError("equivalent section", exc) from exc
    return EquivalentSection(h_eq=h_eq, i_eq=i_eq, e_ref=e_ref, rigidity=e_ref * i_eq)


def equivalent_force(stack: MultimorphStack, voltage: float) -> float:
    """End force on the mirror that reproduces the free tip deflection.

    F = 3 * rigidity / L^3 * y_tip. Signed: follows the sign of d31 * V.
    """
    rigidity = equivalent_section(stack).rigidity
    try:
        return 3 * rigidity / stack.length**3 * tip_deflection(stack, voltage)
    except ArithmeticError as exc:
        raise OutOfRangeError("equivalent force", exc) from exc


def equivalent_force_closed_form(stack: MultimorphStack, voltage: float) -> float:
    """Closed-form equivalent force (3/2) W t_p E_p d31 V / L."""
    return (
        1.5 * stack.width * stack.piezo_t * stack.piezo_E * stack.d31 * voltage / stack.length
    )
