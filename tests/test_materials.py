import math

import pytest

from piezoscanner.materials import BUILTIN, Material, UnknownMaterialError, lookup


class TestRegistry:
    def test_silicon_default(self):
        m = lookup("silicon")
        assert m.young_modulus == 169e9
        assert m.d31 is None

    def test_pzt5h_default(self):
        m = lookup("pzt-5h")
        assert m.young_modulus == 60.6e9
        assert m.d31 == -274e-12
        # datasheet compliance, stored as the exact reciprocal of E
        assert m.s11E == pytest.approx(16.5e-12, rel=1e-3)

    def test_lookup_is_case_insensitive(self):
        assert lookup("PZT-5H") is lookup("pzt-5h")

    def test_unknown_material_names_available_entries(self):
        with pytest.raises(UnknownMaterialError,
                           match=r"^unknown material 'unobtainium'; available: \['pzt-5h', 'silicon'\]$"):
            lookup("unobtainium")

    def test_reciprocal_invariant_for_all_entries(self):
        for name, m in BUILTIN.items():
            assert m.name == name
            if m.s11E is not None:
                assert abs(m.young_modulus * m.s11E - 1.0) <= 1e-6


class TestMaterialValidation:
    @pytest.mark.parametrize("modulus", [-1.0, math.nan])
    def test_nonpositive_modulus_rejected(self, modulus):
        with pytest.raises(ValueError):
            Material(name="bad", young_modulus=modulus)

    def test_inconsistent_compliance_rejected(self):
        with pytest.raises(ValueError):
            Material(name="bad", young_modulus=100e9, s11E=2e-11)

    def test_negative_d31_allowed(self):
        Material(name="pzt", young_modulus=60e9, d31=-274e-12)
