"""Strict sectioned key = value config files for the CLI.

Sections and keys:

    [material.substrate]   name            (registry lookup)   -- or --
                           E_GPa           (explicit constant)
    [material.piezo]       name                                -- or --
                           E_GPa, d31_pm_per_V, s11E_per_TPa (optional)
    [geometry]             beam_length_um, beam_width_um,
                           substrate_thickness_um, piezo_thickness_um,
                           mirror_side_um
    [drive]                voltage_V

Unknown sections or keys are errors; each material section takes either a
registry name or explicit constants, never both. Units are fixed by the key
suffixes and converted to SI here, at the boundary. Parsing yields a
:class:`~piezoscanner.sweep.ScanConfig`, the one design carrier past this
boundary.
"""

from __future__ import annotations

import configparser
import math

from .materials import Material, MaterialRegistry, builtin_registry, to_si
from .sweep import ScanConfig


class ConfigError(ValueError):
    pass


_SECTION_KEYS = {
    "material.substrate": {"name", "E_GPa"},
    "material.piezo": {"name", "E_GPa", "d31_pm_per_V", "s11E_per_TPa"},
    "geometry": {
        "beam_length_um",
        "beam_width_um",
        "substrate_thickness_um",
        "piezo_thickness_um",
        "mirror_side_um",
    },
    "drive": {"voltage_V"},
}


def _float(section: str, key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{section}.{key}: not a number: {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"{section}.{key}: must be finite, got {raw!r}")
    return value


def _positive(section: str, key: str, value: float) -> float:
    if value <= 0:
        raise ConfigError(f"{section}.{key}: must be > 0, got {value}")
    return value


def _material(section: str, raw: dict[str, str], registry: MaterialRegistry) -> Material:
    has_name = "name" in raw
    has_constants = bool(set(raw) - {"name"})
    if has_name and has_constants:
        raise ConfigError(f"{section}: give either a registry name or explicit constants, not both")
    if has_name:
        return registry.lookup(raw["name"])
    if "E_GPa" not in raw:
        raise ConfigError(f"{section}: missing required key E_GPa (or name)")
    e = _positive(section, "E_GPa", _float(section, "E_GPa", raw["E_GPa"]))
    kwargs = {"name": section.split(".")[-1], "young_modulus": to_si(e, "GPa")}
    if "d31_pm_per_V" in raw:
        kwargs["d31"] = to_si(_float(section, "d31_pm_per_V", raw["d31_pm_per_V"]), "pm_per_V")
    if "s11E_per_TPa" in raw:
        kwargs["s11E"] = to_si(_float(section, "s11E_per_TPa", raw["s11E_per_TPa"]), "per_TPa")
    try:
        return Material(**kwargs)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from exc


def parse_config(text: str, registry: MaterialRegistry | None = None) -> ScanConfig:
    """Parse and validate a config document. Raises ConfigError."""
    if registry is None:
        registry = builtin_registry()

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
    for section in ("material.substrate", "material.piezo", "geometry", "drive"):
        if section not in parser:
            raise ConfigError(f"missing required section [{section}]")

    substrate = _material("material.substrate", dict(parser["material.substrate"]), registry)
    piezo = _material("material.piezo", dict(parser["material.piezo"]), registry)
    if piezo.d31 is None:
        raise ConfigError("material.piezo: d31_pm_per_V (or a piezo registry name) is required")

    geom = dict(parser["geometry"])
    for key in _SECTION_KEYS["geometry"]:
        if key not in geom:
            raise ConfigError(f"geometry: missing required key {key}")
    geom_si = {
        key: _positive("geometry", key, to_si(_float("geometry", key, geom[key]), "um"))
        for key in _SECTION_KEYS["geometry"]
    }

    drive = dict(parser["drive"])
    if "voltage_V" not in drive:
        raise ConfigError("drive: missing required key voltage_V")
    voltage = _float("drive", "voltage_V", drive["voltage_V"])

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
