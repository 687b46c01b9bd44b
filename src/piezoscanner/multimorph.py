"""Static model of the 3-layer piezoelectric multimorph beam.

A substrate carries two identical piezoelectric layers driven with opposite
polarity. The model is two closed forms: the homogenized section of the
stack and the end force on the mirror, (3/2) W t_p E_p d31 V / L, accurate
to a few ulp for every stack. The 4x4 layer system it derives from is a
check in :mod:`piezoscanner.verification` that no model path calls; that
system cancels as the piezo layer thins (condition number 6.4e5 at 1 um),
so it checks physical stacks only: moduli 10-500 GPa, layers 0.2-20 um
thick, |d31| up to 500 pm/V, widths 5-200 um and lengths 100-2000 um.
"""

from __future__ import annotations

from dataclasses import dataclass


class OutOfRangeError(ValueError):
    """Float overflow, division by zero or rounding in a model stage: the
    design is outside double-precision range."""

    def __init__(self, stage: str, cause: object):
        super().__init__(f"{stage}: {cause}; the design is outside double-precision range")


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

    F = 3 * rigidity / L^3 * y_tip, which reduces to (3/2) W t_p E_p d31 V / L.
    Signed: follows the sign of d31 * V. Float products never raise: an
    overflow gives +-inf, which `solve_scanner` rejects as non-finite.
    """
    return 1.5 * stack.width * stack.piezo_t * stack.piezo_E * stack.d31 * voltage / stack.length
