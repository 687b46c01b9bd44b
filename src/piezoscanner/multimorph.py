"""Static model of the 3-layer piezoelectric multimorph beam.

A substrate carries two identical piezoelectric layers driven with opposite
polarity. The model is two closed forms: the homogenized section of the
stack and the end force on the mirror, (3/2) W t_p E_p d31 V / L, accurate
to a few ulp for every stack. The 4x4 layer system it derives from is a
check in :mod:`piezoscanner.verification` that no model path calls; that
system cancels as the piezo layer thins (condition number 6.4e5 at 1 um),
so it checks physical designs only (see that module).
"""

from __future__ import annotations

from collections import namedtuple


class OutOfRangeError(ValueError):
    """Float overflow, division by zero or rounding in a model stage: the
    design is outside double-precision range."""

    def __init__(self, stage: str, cause: object):
        super().__init__(f"{stage}: {cause}; the design is outside double-precision range")


class MultimorphStack(namedtuple("MultimorphStack", ("substrate_E", "substrate_t", "piezo_E",
                                                     "piezo_t", "d31", "width", "length"))):
    """Geometry and constants of the substrate + 2 piezo layer stack.

    Both piezoelectric layers share ``piezo_t`` and ``piezo_E``. All values
    are SI: Pa, m, m/V. No model path builds one: perfbench's oracle op
    binds it, and one test class checks it. Every construction, ``_replace``
    included, runs :func:`check_stack` as the model does.
    """

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # _replace builds through _make

    def __new__(cls, substrate_E, substrate_t, piezo_E, piezo_t, d31, width, length):
        check_stack(substrate_E, substrate_t, piezo_E, piezo_t, width, length)
        return super().__new__(cls, substrate_E, substrate_t, piezo_E, piezo_t, d31, width, length)


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


class EquivalentSection(namedtuple("EquivalentSection", ("h_eq", "i_eq", "e_ref", "rigidity"))):
    """The values of :func:`section` by name. No model path builds one; perfbench's
    oracle op reads it."""

    __slots__ = ()


_E_REF_CHOICES = ("substrate", "piezo", "max")


def section(substrate_E: float, substrate_t: float, piezo_E: float, piezo_t: float,
            width: float, e_ref_choice: str = "max") -> tuple[float, float, float, float]:
    """(h_eq, i_eq, e_ref, rigidity) of the homogenized cross-section of the stack.

    h_eq is the neutral-axis height above the substrate bottom, i_eq the
    transformed-section moment of inertia for the normalizing modulus e_ref,
    and rigidity the flexural rigidity e_ref * i_eq. Layer widths are
    normalized by e_ref. The neutral axis is the stiffness-weighted barycenter
    of the layer mid-heights; the inertia is the transformed-section sum of the
    parallel-axis contributions. Which modulus normalizes is immaterial for the
    rigidity. The three layers are summed left to right, substrate first, so
    the result does not depend on how the interpreter's sum() rounds.
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
        r_s, r_p = substrate_E / e_ref, piezo_E / e_ref
        a_s, a_p = r_s * ts, r_p * tp
        h_eq = (a_s * hs + a_p * h1 + a_p * h2) / (a_s + a_p + a_p)
        i_p = tp**3 / 12  # every ** in i_eq raises the same OverflowError, so this order is free
        i_eq = width * (r_s * (ts**3 / 12 + ts * (h_eq - hs) ** 2)
                        + r_p * (i_p + tp * (h_eq - h1) ** 2)
                        + r_p * (i_p + tp * (h_eq - h2) ** 2))
    except ArithmeticError as exc:
        raise OutOfRangeError("equivalent section", exc) from exc
    return h_eq, i_eq, e_ref, e_ref * i_eq


def equivalent_section(stack: MultimorphStack) -> EquivalentSection:
    """The stack's :func:`section`. No model path calls this; perfbench's oracle op does."""
    return EquivalentSection(*section(stack.substrate_E, stack.substrate_t, stack.piezo_E,
                                      stack.piezo_t, stack.width))


def end_force(width: float, piezo_t: float, piezo_E: float, d31: float, voltage: float,
              length: float) -> float:
    """End force on the mirror that reproduces the free tip deflection.

    F = 3 * rigidity / L^3 * y_tip, which reduces to (3/2) W t_p E_p d31 V / L.
    Signed: follows the sign of d31 * V. Float products never raise: an
    overflow gives +-inf, which `scanner.statics` rejects as non-finite.
    """
    return 1.5 * width * piezo_t * piezo_E * d31 * voltage / length


def equivalent_force(stack: MultimorphStack, voltage: float) -> float:
    """The stack's :func:`end_force`. No model path calls this; perfbench's oracle op does."""
    return end_force(stack.width, stack.piezo_t, stack.piezo_E, stack.d31, voltage, stack.length)
