"""Static model of the 3-layer piezoelectric multimorph beam.

A substrate carries two identical piezoelectric layers driven with opposite
polarity. The model is two closed forms: the homogenized section of the
stack and the end force on the mirror, (3/2) W t_p E_p d31 V / L, accurate
to a few ulp wherever no intermediate of the force is subnormal.
"""

from __future__ import annotations

from collections import namedtuple

# Documented datasheet values in SI, which config names as built-in materials.
SILICON_E = 169e9
PZT5H_E = 60.6e9
PZT5H_D31 = -274e-12


class OutOfRangeError(ValueError):
    """Float overflow, division by zero or rounding in a model stage: the
    design is outside double-precision range."""

    def __init__(self, stage: str, cause: object):
        super().__init__(f"{stage}: {cause}; the design is outside double-precision range")


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


def section(substrate_E: float, substrate_t: float, piezo_E: float, piezo_t: float,
            width: float) -> tuple[float, float, float, float]:
    """(h_eq, i_eq, e_ref, rigidity) of the homogenized cross-section of the stack.

    h_eq is the neutral-axis height above the substrate bottom, i_eq the
    transformed-section moment of inertia for the normalizing modulus e_ref,
    and rigidity the flexural rigidity e_ref * i_eq. Layer widths are
    normalized by e_ref, the stiffer modulus, which keeps both width ratios <= 1.
    The neutral axis is the stiffness-weighted barycenter of the layer
    mid-heights; the inertia is the transformed-section sum of the parallel-axis
    contributions. The three layers are summed left to right, substrate first,
    so the result does not depend on how the interpreter's sum() rounds.
    """
    ts, tp = substrate_t, piezo_t
    hs, h1, h2 = ts / 2, ts + tp / 2, ts + 1.5 * tp  # layer mid-heights
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


def equivalent_section(design) -> EquivalentSection:
    """A ScanConfig's :func:`section`. No model path calls this; perfbench's oracle op does."""
    return EquivalentSection(*section(design.substrate_E, design.substrate_t, design.piezo_E,
                                      design.piezo_t, design.beam_width))


def end_force(width: float, piezo_t: float, piezo_E: float, d31: float, voltage: float,
              length: float) -> float:
    """End force on the mirror that reproduces the free tip deflection.

    F = 3 * rigidity / L^3 * y_tip, which reduces to (3/2) W t_p E_p d31 V / L.
    Signed: follows the sign of d31 * V. Float products never raise: an
    overflow gives +-inf, which `scanner.statics` rejects as non-finite.
    """
    return 1.5 * width * piezo_t * piezo_E * d31 * voltage / length


def equivalent_force(design, voltage: float) -> float:
    """A ScanConfig's :func:`end_force`. No model path calls this; perfbench's oracle op does."""
    return end_force(design.beam_width, design.piezo_t, design.piezo_E, design.d31, voltage,
                     design.beam_length)
