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
    are SI: Pa, m, m/V. No model path builds one: perfbench and
    verification's 4x4 check bind it, and it runs :func:`check_stack` as the
    model does.
    """

    substrate_E: float
    substrate_t: float
    piezo_E: float
    piezo_t: float
    d31: float
    width: float
    length: float

    def __post_init__(self) -> None:
        check_stack(self.substrate_E, self.substrate_t, self.piezo_E, self.piezo_t, self.width,
                    self.length)


def check_stack(substrate_E: float, substrate_t: float, piezo_E: float, piezo_t: float,
                width: float, length: float) -> None:
    """Raise ValueError, naming the first field in this order that is not > 0."""
    if not substrate_E > 0:
        raise ValueError("substrate_E must be > 0")
    if not substrate_t > 0:
        raise ValueError("substrate_t must be > 0")
    if not piezo_E > 0:
        raise ValueError("piezo_E must be > 0")
    if not piezo_t > 0:
        raise ValueError("piezo_t must be > 0")
    if not width > 0:
        raise ValueError("width must be > 0")
    if not length > 0:
        raise ValueError("length must be > 0")


@dataclass(frozen=True)
class EquivalentSection:
    """Homogenized cross-section of the stack.

    h_eq is the neutral-axis height above the substrate bottom, i_eq the
    transformed-section moment of inertia for the normalizing modulus
    e_ref, and rigidity the flexural rigidity e_ref * i_eq. The rigidity is
    independent of which layer modulus normalizes the widths. No model path
    builds one; perfbench and verification's 4x4 check read it.
    """

    h_eq: float
    i_eq: float
    e_ref: float
    rigidity: float


_E_REF_CHOICES = ("substrate", "piezo", "max")


def section(substrate_E: float, substrate_t: float, piezo_E: float, piezo_t: float,
            width: float, e_ref_choice: str = "max") -> tuple[float, float, float, float]:
    """(h_eq, i_eq, e_ref, rigidity) of the homogenized stack; see :class:`EquivalentSection`.

    Layer widths are normalized by e_ref. The neutral axis is the
    stiffness-weighted barycenter of the layer mid-heights; the inertia is
    the transformed-section sum of the parallel-axis contributions. Which
    modulus normalizes is immaterial for the rigidity e_ref * i_eq. The
    three layers are summed left to right, substrate first, so the result
    does not depend on how the interpreter's sum() rounds.
    """
    if e_ref_choice not in _E_REF_CHOICES:
        raise ValueError(f"e_ref_choice must be one of {_E_REF_CHOICES}")
    ts, tp = substrate_t, piezo_t
    hs, h1, h2 = ts / 2, ts + tp / 2, ts + 1.5 * tp  # layer mid-heights

    if e_ref_choice == "substrate":
        e_ref = substrate_E
    elif e_ref_choice == "piezo":
        e_ref = piezo_E
    else:
        e_ref = max(substrate_E, piezo_E)

    try:
        # Stiffness-scaled layer areas per unit width; width cancels in h_eq.
        a_s = substrate_E / e_ref * ts
        a_p = piezo_E / e_ref * tp
        h_eq = (a_s * hs + a_p * h1 + a_p * h2) / (a_s + a_p + a_p)
        i_eq = width * (substrate_E / e_ref * (ts**3 / 12 + ts * (h_eq - hs) ** 2)
                        + piezo_E / e_ref * (tp**3 / 12 + tp * (h_eq - h1) ** 2)
                        + piezo_E / e_ref * (tp**3 / 12 + tp * (h_eq - h2) ** 2))
    except ArithmeticError as exc:
        raise OutOfRangeError("equivalent section", exc) from exc
    return h_eq, i_eq, e_ref, e_ref * i_eq


def equivalent_section(stack: MultimorphStack, e_ref_choice: str = "max") -> EquivalentSection:
    """Homogenize the stack by normalizing layer widths with e_ref (:func:`section`).

    No model path calls this; perfbench and verification's 4x4 check do.
    """
    return EquivalentSection(*section(stack.substrate_E, stack.substrate_t, stack.piezo_E,
                                      stack.piezo_t, stack.width, e_ref_choice))


def end_force(width: float, piezo_t: float, piezo_E: float, d31: float, voltage: float,
              length: float) -> float:
    """(3/2) W t_p E_p d31 V / L; see :func:`equivalent_force`."""
    return 1.5 * width * piezo_t * piezo_E * d31 * voltage / length


def equivalent_force(stack: MultimorphStack, voltage: float) -> float:
    """End force on the mirror that reproduces the free tip deflection.

    F = 3 * rigidity / L^3 * y_tip, which reduces to (3/2) W t_p E_p d31 V / L.
    Signed: follows the sign of d31 * V. Float products never raise: an
    overflow gives +-inf, which `scanner.statics` rejects as non-finite. No
    model path calls this (the model calls :func:`end_force`); perfbench and
    verification's 4x4 check do.
    """
    return end_force(stack.width, stack.piezo_t, stack.piezo_E, stack.d31, voltage, stack.length)
