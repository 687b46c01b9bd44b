"""Static model of a piezoelectric multimorph micro-scanner.

Computes the mirror tilt angle, actuation force, and deflection profile of
a mirror driven by two 3-layer piezoelectric multimorph beams, checks the
closed forms against an independent finite-difference beam solver, and
sweeps/optimizes the geometry for scan angle.
"""

from .materials import Material
from .multimorph import (
    CurvatureSolution,
    EquivalentSection,
    MultimorphStack,
    Strains,
    equivalent_force,
    equivalent_force_closed_form,
    equivalent_section,
    piezo_strains,
    solve_curvature,
    tip_deflection,
    tip_deflection_closed_form,
)
from .scanner import (
    ScannerGeometry,
    ScannerSolution,
    max_deflection,
    profile_half,
    profile_half_slope,
    reaction,
    solve_scanner,
    tilt,
)
from .sweep import ScanConfig, SweepRecord, SweepSpec, optimize_1d, reference_config, run_sweep, table1

__all__ = [
    "Material",
    "CurvatureSolution",
    "EquivalentSection",
    "MultimorphStack",
    "Strains",
    "equivalent_force",
    "equivalent_force_closed_form",
    "equivalent_section",
    "piezo_strains",
    "solve_curvature",
    "tip_deflection",
    "tip_deflection_closed_form",
    "ScannerGeometry",
    "ScannerSolution",
    "max_deflection",
    "profile_half",
    "profile_half_slope",
    "reaction",
    "solve_scanner",
    "tilt",
    "ScanConfig",
    "SweepRecord",
    "SweepSpec",
    "optimize_1d",
    "reference_config",
    "run_sweep",
    "table1",
]

__version__ = "0.1.0"
