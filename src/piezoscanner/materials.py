"""Documented default material constants of the scanner model, in SI base units.

These are standard datasheet values; they are assumptions of this model and
can be overridden through the config file, whose key table in
:mod:`piezoscanner.config` names them as built-in materials.
"""

SILICON_E = 169e9
PZT5H_E = 60.6e9
PZT5H_D31 = -274e-12
