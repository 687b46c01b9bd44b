"""The built-in materials and the material checks, through parse_config."""

import math

import pytest

from piezoscanner.config import ConfigError, parse_config

GEOMETRY_AND_DRIVE = """
[geometry]
beam_length_um = 850
beam_width_um = 30
substrate_thickness_um = 5
piezo_thickness_um = 1
mirror_side_um = 300

[drive]
voltage_V = 50
"""


def _parse(substrate: str, piezo: str):
    """Scanner A with the two material sections' bodies replaced."""
    return parse_config(f"[material.substrate]\n{substrate}\n\n[material.piezo]\n{piezo}\n"
                        + GEOMETRY_AND_DRIVE)


class TestRegistry:
    def test_silicon_default(self):
        assert _parse("name = silicon", "name = pzt-5h").substrate_E == 169e9
        # silicon is passive: no d31, so it cannot be the piezo layer
        with pytest.raises(ConfigError, match=r"^material\.piezo: d31_pm_per_V .* is required$"):
            _parse("name = silicon", "name = silicon")

    def test_pzt5h_default(self):
        parsed = _parse("name = silicon", "name = pzt-5h")
        assert parsed.piezo_E == 60.6e9
        assert parsed.d31 == -274e-12
        # a passive layer may be made of it: only its E is used there
        assert _parse("name = pzt-5h", "name = pzt-5h").substrate_E == 60.6e9

    def test_lookup_is_case_insensitive(self):
        assert _parse("name = SILICON", "name = PZT-5H") == _parse("name = silicon", "name = pzt-5h")

    def test_unknown_material_names_available_entries(self):
        with pytest.raises(ConfigError,
                           match=r"^unknown material 'unobtainium'; available: \['pzt-5h', 'silicon'\]$"):
            _parse("name = unobtainium", "name = pzt-5h")


class TestMaterialValidation:
    @pytest.mark.parametrize("modulus", [-1.0, math.nan])
    def test_nonpositive_modulus_rejected(self, modulus):
        with pytest.raises(ConfigError, match=r"^material\.substrate\.E_GPa: must be"):
            _parse(f"E_GPa = {modulus}", "name = pzt-5h")

    def test_compliance_key_is_unknown(self):
        """The model reads no compliance: s11E_per_TPa, even at the datasheet's 16.5, is an
        unknown key, beside explicit constants or a name."""
        for piezo in ("E_GPa = 60.6\nd31_pm_per_V = -274", "name = pzt-5h"):
            with pytest.raises(ConfigError, match=r"^material\.piezo: unknown key 's11E_per_TPa'$"):
                _parse("name = silicon", piezo + "\ns11E_per_TPa = 16.5")

    def test_negative_d31_allowed(self):
        parsed = _parse("name = silicon", "E_GPa = 60\nd31_pm_per_V = -274")
        assert parsed.d31 == pytest.approx(-274e-12, rel=1e-15)
