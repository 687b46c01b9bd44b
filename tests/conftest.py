import pytest
from hypothesis import strategies as st

from piezoscanner.multimorph import MultimorphStack
from piezoscanner.scanner import ScannerGeometry, profile_points, solve_scanner

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


def sampled(geometry: ScannerGeometry, voltage: float, samples: int):
    """The scalar solution and the sampled full-device profile of one design."""
    sol = solve_scanner(geometry, voltage)
    points = profile_points(samples, sol.force, geometry.a, geometry.half_span, sol.rigidity)
    return sol, list(points)


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
