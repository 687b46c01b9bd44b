"""Material constants of the scanner model, in SI base units.

Engineering units exist only in the config keys, whose SI scales are
declared in :mod:`piezoscanner.config`.
"""

from __future__ import annotations

from dataclasses import dataclass


class UnknownMaterialError(ValueError):
    pass


@dataclass(frozen=True)
class Material:
    """Elastic (and optionally piezoelectric) constants of one constituent.

    Attributes:
        name: label used for built-in lookup and reporting.
        young_modulus: Young's modulus (Pa).
        d31: transverse piezoelectric strain coefficient (m/V); None for
            passive materials. Conventionally negative for PZT.
        s11E: elastic compliance at constant electric field (1/Pa); when
            present it must be the reciprocal of young_modulus.
    """

    name: str
    young_modulus: float
    d31: float | None = None
    s11E: float | None = None

    def __post_init__(self) -> None:
        if not self.young_modulus > 0:
            raise ValueError(f"{self.name}: young_modulus must be > 0")
        if self.s11E is not None:
            recip = self.young_modulus * self.s11E
            if abs(recip - 1.0) > 1e-6:
                raise ValueError(
                    f"{self.name}: s11E is not the reciprocal of E "
                    f"(E*s11E = {recip:.9g})"
                )


# Documented default constants. These are standard datasheet values; they are
# assumptions of this model and can be overridden through the config file.
# s11E is stored as the exact reciprocal of E (datasheet 16.5 per TPa rounds
# the same modulus).
SILICON_E = 169e9
PZT5H_E = 60.6e9
PZT5H_D31 = -274e-12
PZT5H_S11E = 1.0 / PZT5H_E

# Built-in materials by lower-case name.
BUILTIN = {
    "silicon": Material(name="silicon", young_modulus=SILICON_E),
    "pzt-5h": Material(name="pzt-5h", young_modulus=PZT5H_E, d31=PZT5H_D31, s11E=PZT5H_S11E),
}


def lookup(name: str) -> Material:
    """The built-in material of that name, ignoring case."""
    try:
        return BUILTIN[name.lower()]
    except KeyError:
        raise UnknownMaterialError(
            f"unknown material {name!r}; available: {sorted(BUILTIN)}"
        ) from None
