"""Static model of a piezoelectric multimorph micro-scanner.

Computes the mirror tilt angle, actuation force, and deflection profile of
a mirror driven by two 3-layer piezoelectric multimorph beams, checks the
closed forms against an independent finite-difference beam solver, and
sweeps/optimizes the geometry for scan angle.
"""

from .multimorph import EquivalentSection, MultimorphStack, equivalent_force, equivalent_section
from .scanner import ScannerGeometry, solve_scanner
from .sweep import ScanConfig, SweepRecord, SweepSpec, optimize_1d, reference_config, run_sweep, table1

__all__ = [
    "EquivalentSection",
    "MultimorphStack",
    "equivalent_force",
    "equivalent_section",
    "ScannerGeometry",
    "solve_scanner",
    "ScanConfig",
    "SweepRecord",
    "SweepSpec",
    "optimize_1d",
    "reference_config",
    "run_sweep",
    "table1",
]

__version__ = "0.1.0"
