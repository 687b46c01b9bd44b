"""Strict sectioned key = value config files for the CLI.

Sections and keys:

    [material.substrate]   name            (built-in material) -- or --
                           E_GPa           (explicit constant)
    [material.piezo]       name                                -- or --
                           E_GPa, d31_pm_per_V, s11E_per_TPa (optional)
    [geometry]             beam_length_um, beam_width_um,
                           substrate_thickness_um, piezo_thickness_um,
                           mirror_side_um
    [drive]                voltage_V

Comments are whole lines starting with ``#``; a ``#`` after a value is part
of the value. Unknown sections or keys are errors; each material section
takes either a built-in name (``silicon`` or ``pzt-5h``, any case) or
explicit constants, never both. A built-in name stands for its SI constants
in ``_BUILTIN``; from there both forms take the same s11E reciprocity check
and piezo d31 check. Units are fixed by the key suffixes; the key table
below holds each key's SI scale, and values are converted here, at the
boundary. Parsing yields a :class:`~piezoscanner.sweep.ScanConfig`, the one
design carrier past this boundary.
"""

from __future__ import annotations

import configparser
import math

from .materials import PZT5H_D31, PZT5H_E, PZT5H_S11E, SILICON_E
from .sweep import ScanConfig


class ConfigError(ValueError):
    pass


# Section -> key -> SI scale of the unit in the key's suffix (None: not a number).
_SECTION_KEYS = {
    "material.substrate": {"name": None, "E_GPa": 1e9},
    "material.piezo": {"name": None, "E_GPa": 1e9, "d31_pm_per_V": 1e-12, "s11E_per_TPa": 1e-12},
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
    "pzt-5h": {"E_GPa": PZT5H_E, "d31_pm_per_V": PZT5H_D31, "s11E_per_TPa": PZT5H_S11E},
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
    e = si["E_GPa"]
    if "s11E_per_TPa" in si:
        recip = e * si["s11E_per_TPa"]
        if abs(recip - 1.0) > 1e-6:
            raise ConfigError(
                f"{section}: {section.split('.')[-1]}: s11E is not the reciprocal of E "
                f"(E*s11E = {recip:.9g})"
            )
    return e, si.get("d31_pm_per_V")


def parse_config(text: str) -> ScanConfig:
    """Parse and validate a config document. Raises ConfigError."""
    parser = configparser.ConfigParser(
        strict=True, interpolation=None, delimiters=("=",), comment_prefixes=("#",),
        default_section="",  # a [] header never parses, so [DEFAULT] is an unknown section
    )
    parser.optionxform = str  # keys are case-sensitive
    try:
        parser.read_string(text)
    except configparser.DuplicateSectionError as exc:
        raise ConfigError(f"line {exc.lineno}: duplicate section [{exc.section}]") from exc
    except configparser.DuplicateOptionError as exc:
        raise ConfigError(f"line {exc.lineno}: duplicate key {exc.option!r}") from exc
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from exc

    for section in parser.sections():
        if section not in _SECTION_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in _SECTION_KEYS[section]:
                raise ConfigError(f"{section}: unknown key {key!r}")
    for section in _SECTION_KEYS:
        if section not in parser:
            raise ConfigError(f"missing required section [{section}]")

    substrate_E, _ = _material("material.substrate", dict(parser["material.substrate"]))
    piezo_E, d31 = _material("material.piezo", dict(parser["material.piezo"]))
    if d31 is None:
        raise ConfigError("material.piezo: d31_pm_per_V (or a piezo registry name) is required")

    geom = dict(parser["geometry"])
    for key in _SECTION_KEYS["geometry"]:
        if key not in geom:
            raise ConfigError(f"geometry: missing required key {key}")
    geom_si = {
        key: _si("geometry", key, geom[key], positive=True)
        for key in _SECTION_KEYS["geometry"]
    }

    drive = dict(parser["drive"])
    if "voltage_V" not in drive:
        raise ConfigError("drive: missing required key voltage_V")
    voltage = _si("drive", "voltage_V", drive["voltage_V"])

    return ScanConfig(
        substrate_E=substrate_E,
        piezo_E=piezo_E,
        d31=d31,
        substrate_t=geom_si["substrate_thickness_um"],
        piezo_t=geom_si["piezo_thickness_um"],
        beam_width=geom_si["beam_width_um"],
        beam_length=geom_si["beam_length_um"],
        mirror_side=geom_si["mirror_side_um"],
        voltage=voltage,
    )
