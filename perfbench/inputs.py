"""Seeded benchmark inputs: scanner designs, config files and sweep ranges.

Designs are drawn within the physical bounds of `tests/conftest.py::physical_stacks`
(nonzero d31), with mirror sides of 50-1000 um and |V| of 1-200 V. Values are
drawn in the config file's units and rounded to 6 significant digits, so the
file holds them exactly and the checker converts them to SI as the config
format documents (GPa, um, pm/V, V).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

GPA, UM, PM_PER_V = 1e9, 1e-6, 1e-12

# Built-in material constants documented in the README (silicon, PZT-5H).
SILICON_E_GPA = 169.0
PZT5H_E_GPA = 60.6
PZT5H_D31_PM = -274.0

# Config-unit bounds of each drawn quantity.
BOUNDS = {
    "substrate_E_GPa": (10.0, 500.0),
    "piezo_E_GPa": (10.0, 500.0),
    "d31_pm": (1.0, 500.0),  # magnitude
    "substrate_t_um": (0.2, 20.0),
    "piezo_t_um": (0.2, 20.0),
    "width_um": (5.0, 200.0),
    "length_um": (100.0, 2000.0),
    "mirror_um": (50.0, 1000.0),
    "voltage_V": (1.0, 200.0),  # magnitude
}

# Sweep axis (CLI / `sweep.AXES` name) -> (Design field, SI scale of the field).
AXES = {
    "beam_length": ("length_um", UM),
    "beam_width": ("width_um", UM),
    "substrate_thickness": ("substrate_t_um", UM),
    "piezo_thickness": ("piezo_t_um", UM),
    "mirror_side": ("mirror_um", UM),
    "voltage": ("voltage_V", 1.0),
}

# Axes along which the equivalent section (neutral axis, inertia, rigidity)
# does not change: it depends on the layer moduli, thicknesses and width only.
SECTION_INVARIANT_AXES = frozenset({"beam_length", "mirror_side", "voltage"})


@dataclass(frozen=True)
class Design:
    """One scanner design in config units; `named` uses the registry materials."""

    named: bool
    substrate_E_GPa: float
    piezo_E_GPa: float
    d31_pm: float
    substrate_t_um: float
    piezo_t_um: float
    width_um: float
    length_um: float
    mirror_um: float
    voltage_V: float

    def si(self) -> dict[str, float]:
        return {
            "Es": self.substrate_E_GPa * GPA,
            "Ep": self.piezo_E_GPa * GPA,
            "d31": self.d31_pm * PM_PER_V,
            "ts": self.substrate_t_um * UM,
            "tp": self.piezo_t_um * UM,
            "width": self.width_um * UM,
            "length": self.length_um * UM,
            "mirror": self.mirror_um * UM,
            "voltage": self.voltage_V,
        }

    def with_axis(self, axis: str, si_value: float) -> "Design":
        """The design with one sweep axis set to an SI value, as the sweep does."""
        field, scale = AXES[axis]
        return replace(self, **{field: si_value / scale})

    def config_text(self) -> str:
        if self.named:
            substrate = "name = silicon"
            piezo = "name = pzt-5h"
        else:
            substrate = f"E_GPa = {self.substrate_E_GPa!r}"
            piezo = f"E_GPa = {self.piezo_E_GPa!r}\nd31_pm_per_V = {self.d31_pm!r}"
        return (
            f"[material.substrate]\n{substrate}\n\n"
            f"[material.piezo]\n{piezo}\n\n"
            "[geometry]\n"
            f"beam_length_um = {self.length_um!r}\n"
            f"beam_width_um = {self.width_um!r}\n"
            f"substrate_thickness_um = {self.substrate_t_um!r}\n"
            f"piezo_thickness_um = {self.piezo_t_um!r}\n"
            f"mirror_side_um = {self.mirror_um!r}\n\n"
            f"[drive]\nvoltage_V = {self.voltage_V!r}\n"
        )


def reference_design(length_um: float = 850.0) -> Design:
    """Scanner A of the paper: 5/1 um layers, 30 um wide beams, 300 um mirror, 50 V."""
    return Design(
        named=True, substrate_E_GPa=SILICON_E_GPA, piezo_E_GPa=PZT5H_E_GPA,
        d31_pm=PZT5H_D31_PM, substrate_t_um=5.0, piezo_t_um=1.0, width_um=30.0,
        length_um=length_um, mirror_um=300.0, voltage_V=50.0,
    )


def hits_center_rounding_defect(design: Design, samples: int) -> bool:
    """Whether `solve_scanner` fails on this design at this sample count.

    A known program defect: the profile is sampled at x = L - u, and at the
    mirror-center sample u = 2L*k/(2k) can round to just above L, so
    `profile_half` rejects x < 0 and the CLI exits 2. This repeats the
    program's arithmetic (a = side/2, L = a + length, u = 2L*k/last) exactly.
    """
    last = samples if samples % 2 == 0 else samples - 1  # an even count is bumped by one
    si = design.si()
    span = si["mirror"] / 2 + si["length"]
    return 2 * span * (last // 2) / last > span


def _draw(rng: random.Random, key: str) -> float:
    lo, hi = BOUNDS[key]
    return float(f"{rng.uniform(lo, hi):.6g}")


def _sign(rng: random.Random) -> float:
    return rng.choice((-1.0, 1.0))


@dataclass(frozen=True)
class SweepInput:
    design: Design
    axis: str
    start: float  # SI
    stop: float  # SI
    steps: int

    def grid(self) -> list[float]:
        """The sweep's parameter values, built as `sweep.run_sweep` documents."""
        step = (self.stop - self.start) / (self.steps - 1)
        values = [self.start + i * step for i in range(self.steps)]
        values[-1] = self.stop
        return values


class Inputs:
    """Independent seeded input streams, one per op kind."""

    def __init__(self, seed: int, kind: str) -> None:
        self._rng = random.Random(f"{seed}:{kind}")
        self._count = 0

    def design(self, named: bool | None = None) -> Design:
        rng = self._rng
        if named is None:
            named = rng.random() < 0.5
        if named:
            es, ep, d31 = SILICON_E_GPA, PZT5H_E_GPA, PZT5H_D31_PM
        else:
            es, ep = _draw(rng, "substrate_E_GPa"), _draw(rng, "piezo_E_GPa")
            d31 = _sign(rng) * _draw(rng, "d31_pm")
        return Design(
            named=named, substrate_E_GPa=es, piezo_E_GPa=ep, d31_pm=d31,
            substrate_t_um=_draw(rng, "substrate_t_um"), piezo_t_um=_draw(rng, "piezo_t_um"),
            width_um=_draw(rng, "width_um"), length_um=_draw(rng, "length_um"),
            mirror_um=_draw(rng, "mirror_um"), voltage_V=_sign(rng) * _draw(rng, "voltage_V"),
        )

    def solvable_design(self, named: bool, samples: int) -> tuple[Design, int]:
        """The next design that avoids the mirror-center rounding defect at this
        sample count, and how many drawn designs were passed over for it."""
        skipped = 0
        while hits_center_rounding_defect(design := self.design(named), samples):
            skipped += 1
        return design, skipped

    def sweep(self, steps: int) -> SweepInput:
        """A new design swept over the next axis (rotating over all six) in bounds."""
        design = self.design()
        axis = list(AXES)[self._count % len(AXES)]
        self._count += 1
        field, scale = AXES[axis]
        lo, hi = BOUNDS[field]
        a, b = sorted(_draw(self._rng, field) for _ in range(2))
        if b - a < 0.1 * (hi - lo):  # keep every range at least a tenth of the bounds
            margin = 0.45 * (hi - lo)
            a, b = lo + margin * self._rng.random(), hi - margin * self._rng.random()
        start, stop = a * scale, b * scale
        if axis == "voltage" and design.voltage_V < 0:
            start, stop = -stop, -start
        return SweepInput(design=design, axis=axis, start=start, stop=stop, steps=steps)
