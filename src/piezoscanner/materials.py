"""Material properties and unit conversion for the scanner model.

All model computation happens in SI base units. The unit suffixes defined
here exist only at the config/CSV boundary.
"""

from __future__ import annotations

from dataclasses import dataclass


class UnsupportedUnitError(ValueError):
    pass


class UnknownMaterialError(ValueError):
    pass


# Scale factors to SI base units.
_UNIT_SCALE = {
    "um": 1e-6,
    "GPa": 1e9,
    "pm_per_V": 1e-12,
    "V": 1.0,
    "per_TPa": 1e-12,
}


def to_si(value: float, unit: str) -> float:
    """Convert a magnitude in the given engineering unit to SI base units."""
    try:
        return value * _UNIT_SCALE[unit]
    except KeyError:
        raise UnsupportedUnitError(
            f"unsupported unit {unit!r}; supported: {sorted(_UNIT_SCALE)}"
        ) from None


@dataclass(frozen=True)
class Material:
    """Elastic (and optionally piezoelectric) constants of one constituent.

    Attributes:
        name: label used for registry lookup and reporting.
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


class MaterialRegistry:
    """Name -> Material map with case-insensitive lookup."""

    def __init__(self, materials: list[Material] = ()):
        self._entries: dict[str, Material] = {}
        for m in materials:
            self.add(m)

    def add(self, material: Material) -> None:
        key = material.name.lower()
        if key in self._entries:
            raise ValueError(f"duplicate material name {material.name!r}")
        self._entries[key] = material

    def lookup(self, name: str) -> Material:
        try:
            return self._entries[name.lower()]
        except KeyError:
            raise UnknownMaterialError(
                f"unknown material {name!r}; available: {sorted(self._entries)}"
            ) from None

    def names(self) -> list[str]:
        return sorted(self._entries)


# Documented default constants. These are standard datasheet values; they are
# assumptions of this model and can be overridden through the config file.
# s11E is stored as the exact reciprocal of E (datasheet 16.5 per TPa rounds
# the same modulus).
SILICON_E = 169e9
PZT5H_E = 60.6e9
PZT5H_D31 = -274e-12
PZT5H_S11E = 1.0 / PZT5H_E


def builtin_registry() -> MaterialRegistry:
    """Registry with the built-in silicon and PZT-5H defaults."""
    return MaterialRegistry(
        [
            Material(name="silicon", young_modulus=SILICON_E),
            Material(
                name="pzt-5h",
                young_modulus=PZT5H_E,
                d31=PZT5H_D31,
                s11E=PZT5H_S11E,
            ),
        ]
    )
