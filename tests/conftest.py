from collections import namedtuple

import pytest
from hypothesis import Phase, settings
from hypothesis import strategies as st

from piezoscanner.multimorph import MultimorphStack
from piezoscanner.scanner import profile_points, solve_scanner
from piezoscanner.sweep import ScanConfig
from piezoscanner.verification import branches

# Every phase but explain, which only annotates a failure that is already shrunk
# and, formatting each failure it meets through pytest, can delay the report by minutes.
settings.register_profile("no-explain", phases=[phase for phase in Phase if phase != Phase.explain])
settings.load_profile("no-explain")

# Reference design: silicon substrate with PZT-5H layers, 850 um beam.
REFERENCE_STACK = MultimorphStack(
    substrate_E=169e9,
    substrate_t=5e-6,
    piezo_E=60.6e9,
    piezo_t=1e-6,
    d31=-274e-12,
    width=30e-6,
    length=850e-6,
)


@pytest.fixture
def reference_stack():
    return REFERENCE_STACK


# solve_scanner's result, by field name.
Solution = namedtuple("Solution", "force rigidity a half_span reaction tilt_signed y_max x_at_ymax")


def design(stack: MultimorphStack, mirror_side: float, voltage: float) -> ScanConfig:
    """The design record of a stack, a mirror side and a drive voltage."""
    return ScanConfig(
        substrate_E=stack.substrate_E, piezo_E=stack.piezo_E, d31=stack.d31,
        substrate_t=stack.substrate_t, piezo_t=stack.piezo_t, beam_width=stack.width,
        beam_length=stack.length, mirror_side=mirror_side, voltage=voltage,
    )


def sampled(config: ScanConfig, samples: int):
    """The scalar solution and the sampled full-device profile of one design."""
    sol = Solution(*solve_scanner(*config))
    points = profile_points(samples, sol.force, sol.a, sol.half_span, sol.rigidity)
    return sol, list(points)


def half(x: float, force: float, a: float, span: float, rigidity: float) -> tuple[float, float]:
    """(y, y') of the half profile at x: the mirror branch up to a, the beam branch past it."""
    y_mirror, y_beam, dy_mirror, dy_beam = branches(x, force, a, span, rigidity)
    return (y_mirror, dy_mirror) if x <= a else (y_beam, dy_beam)


def drive_voltages():
    """Zero or a magnitude well clear of the denormal range, either sign."""
    return st.one_of(
        st.just(0.0),
        st.floats(min_value=0.01, max_value=200).flatmap(lambda m: st.sampled_from([m, -m])),
    )


def physical_stacks(d31_nonzero: bool = False):
    """Hypothesis strategy for stacks within physical bounds."""
    magnitudes = st.floats(min_value=1e-12, max_value=500e-12).flatmap(
        lambda m: st.sampled_from([m, -m])
    )
    d31 = magnitudes if d31_nonzero else st.one_of(st.just(0.0), magnitudes)
    return st.builds(
        MultimorphStack,
        substrate_E=st.floats(min_value=10e9, max_value=500e9),
        substrate_t=st.floats(min_value=0.2e-6, max_value=20e-6),
        piezo_E=st.floats(min_value=10e9, max_value=500e9),
        piezo_t=st.floats(min_value=0.2e-6, max_value=20e-6),
        d31=d31,
        width=st.floats(min_value=5e-6, max_value=200e-6),
        length=st.floats(min_value=100e-6, max_value=2000e-6),
    )
