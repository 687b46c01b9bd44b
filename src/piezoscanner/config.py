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

Unknown sections or keys are errors; each material section takes either a
built-in name or explicit constants, never both. Units are fixed by the key
suffixes; the key table below holds each key's SI scale, and values are
converted here, at the boundary. Parsing yields a
:class:`~piezoscanner.sweep.ScanConfig`, the one design carrier past this
boundary.
"""

from __future__ import annotations

import configparser
import math

from .materials import Material, lookup
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


def _material(section: str, raw: dict[str, str]) -> Material:
    has_name = "name" in raw
    has_constants = bool(set(raw) - {"name"})
    if has_name and has_constants:
        raise ConfigError(f"{section}: give either a registry name or explicit constants, not both")
    if has_name:
        return lookup(raw["name"])
    if "E_GPa" not in raw:
        raise ConfigError(f"{section}: missing required key E_GPa (or name)")
    e = _si(section, "E_GPa", raw["E_GPa"], positive=True)
    kwargs = {"name": section.split(".")[-1], "young_modulus": e}
    if "d31_pm_per_V" in raw:
        kwargs["d31"] = _si(section, "d31_pm_per_V", raw["d31_pm_per_V"])
    if "s11E_per_TPa" in raw:
        kwargs["s11E"] = _si(section, "s11E_per_TPa", raw["s11E_per_TPa"])
    try:
        return Material(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def parse_config(text: str) -> ScanConfig:
    """Parse and validate a config document. Raises ConfigError."""
    parser = configparser.ConfigParser(
        strict=True, interpolation=None, delimiters=("=",), comment_prefixes=("#",)
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

    substrate = _material("material.substrate", dict(parser["material.substrate"]))
    piezo = _material("material.piezo", dict(parser["material.piezo"]))
    if piezo.d31 is None:
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
        substrate_E=substrate.young_modulus,
        piezo_E=piezo.young_modulus,
        d31=piezo.d31,
        substrate_t=geom_si["substrate_thickness_um"],
        piezo_t=geom_si["piezo_thickness_um"],
        beam_width=geom_si["beam_width_um"],
        beam_length=geom_si["beam_length_um"],
        mirror_side=geom_si["mirror_side_um"],
        voltage=voltage,
    )
