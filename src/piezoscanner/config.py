"""Strict sectioned key = value config files for the CLI.

Sections and keys:

    [material.substrate]   name            (built-in material) -- or --
                           E_GPa           (explicit constant)
    [material.piezo]       name                                -- or --
                           E_GPa, d31_pm_per_V
    [geometry]             beam_length_um, beam_width_um,
                           substrate_thickness_um, piezo_thickness_um,
                           mirror_side_um
    [drive]                voltage_V

Each line is one of four things, with whitespace at either end ignored: a
blank line, a comment (``#`` first), a ``[section]`` header, or a
``key = value`` line under a header. A ``#`` after a value is part of the
value, and there are no continuation lines: any other line is an error that
names its line number, as is a repeated section or key. Keys are
case-sensitive. Unknown sections or keys are errors; each material section
takes either a built-in name (``silicon`` or ``pzt-5h``, any case) or
explicit constants, never both. A built-in name stands for its SI constants
in ``_BUILTIN``; from there both forms take the same piezo d31 check. Units
are fixed by the key suffixes; the key table below holds each key's SI scale,
and values are converted here, at the boundary. Parsing yields a
:class:`~piezoscanner.sweep.ScanConfig`, the one design carrier past this
boundary.
"""

from __future__ import annotations

import math

from .multimorph import PZT5H_D31, PZT5H_E, SILICON_E
from .sweep import ScanConfig


class ConfigError(ValueError):
    pass


# Section -> key -> SI scale of the unit in the key's suffix (None: not a number).
_SECTION_KEYS = {
    "material.substrate": {"name": None, "E_GPa": 1e9},
    "material.piezo": {"name": None, "E_GPa": 1e9, "d31_pm_per_V": 1e-12},
    "geometry": {
        "beam_length_um": 1e-6,
        "beam_width_um": 1e-6,
        "substrate_thickness_um": 1e-6,
        "piezo_thickness_um": 1e-6,
        "mirror_side_um": 1e-6,
    },
    "drive": {"voltage_V": 1.0},
}

# Built-in material name -> the material section's keys, with values already in SI.
_BUILTIN = {
    "silicon": {"E_GPa": SILICON_E},
    "pzt-5h": {"E_GPa": PZT5H_E, "d31_pm_per_V": PZT5H_D31},
}


def _si(section: str, key: str, raw: str, positive: bool = False) -> float:
    """The key's value in SI. Finiteness is checked before scaling: a finite
    value that overflows in SI is a numeric failure of the design, not a
    config error."""
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{section}.{key}: not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{section}.{key}: must be finite, got {raw!r}")
    value *= _SECTION_KEYS[section][key]
    if positive and not value > 0:
        raise ConfigError(f"{section}.{key}: must be > 0, got {value}")
    return value


def _material(section: str, raw: dict[str, str]) -> tuple[float, float | None]:
    """The section's Young's modulus and d31 in SI (d31 None: not piezoelectric)."""
    if "name" in raw and len(raw) > 1:
        raise ConfigError(f"{section}: give either a registry name or explicit constants, not both")
    if "name" in raw:
        try:
            si = _BUILTIN[raw["name"].lower()]
        except KeyError:
            raise ConfigError(
                f"unknown material {raw['name']!r}; available: {sorted(_BUILTIN)}"
            ) from None
    else:
        if "E_GPa" not in raw:
            raise ConfigError(f"{section}: missing required key E_GPa (or name)")
        si = {key: _si(section, key, raw[key], positive=key == "E_GPa")
              for key in _SECTION_KEYS[section] if key in raw}
    return si["E_GPa"], si.get("d31_pm_per_V")


def parse_config(text: str) -> ScanConfig:
    """Parse and validate a config document. Raises ConfigError."""
    sections: dict[str, dict[str, str]] = {}
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1]
            if section not in _SECTION_KEYS:
                raise ConfigError(f"unknown section [{section}]")
            if section in sections:
                raise ConfigError(f"line {lineno}: duplicate section [{section}]")
            sections[section] = {}
            continue
        key, eq, value = (part.strip() for part in line.partition("="))
        if not key or not eq or section is None:
            raise ConfigError(f"line {lineno}: expected key = value under a [section], got {line!r}")
        if key not in _SECTION_KEYS[section]:
            raise ConfigError(f"{section}: unknown key {key!r}")
        if key in sections[section]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        sections[section][key] = value
    for section in _SECTION_KEYS:
        if section not in sections:
            raise ConfigError(f"missing required section [{section}]")

    substrate_E, _ = _material("material.substrate", sections["material.substrate"])
    piezo_E, d31 = _material("material.piezo", sections["material.piezo"])
    if d31 is None:
        raise ConfigError("material.piezo: d31_pm_per_V (or a piezo registry name) is required")

    si = {}
    for section in ("geometry", "drive"):
        for key in _SECTION_KEYS[section]:
            if key not in sections[section]:
                raise ConfigError(f"{section}: missing required key {key}")
        si.update((key, _si(section, key, sections[section][key], positive=section == "geometry"))
                  for key in _SECTION_KEYS[section])

    return ScanConfig(
        substrate_E=substrate_E,
        piezo_E=piezo_E,
        d31=d31,
        substrate_t=si["substrate_thickness_um"],
        piezo_t=si["piezo_thickness_um"],
        beam_width=si["beam_width_um"],
        beam_length=si["beam_length_um"],
        mirror_side=si["mirror_side_um"],
        voltage=si["voltage_V"],
    )
