import math
from collections import namedtuple

from hypothesis import Phase, settings
from hypothesis import strategies as st

from piezoscanner.scanner import _beam, _slope, profile_chunks, solve_scanner
from piezoscanner.sweep import ScanConfig

# Every phase but explain, which only annotates a failure that is already shrunk
# and, formatting each failure it meets through pytest, can delay the report by minutes.
settings.register_profile("no-explain", phases=[phase for phase in Phase if phase != Phase.explain])
settings.load_profile("no-explain")


# solve_scanner's result, by field name.
Solution = namedtuple("Solution", "force rigidity a half_span reaction tilt_signed y_max x_at_ymax")


def profile_points(samples: int, force: float, a: float, span: float, rigidity: float):
    """The (u, y) rows of scanner.profile_chunks, one pair at a time."""
    for chunk in profile_chunks(samples, force, a, span, rigidity):
        yield from zip(chunk[::2], chunk[1::2])


def sampled(config: ScanConfig, samples: int):
    """The scalar solution and the sampled full-device profile of one design."""
    sol = Solution(*solve_scanner(*config))
    points = profile_points(samples, sol.force, sol.a, sol.half_span, sol.rigidity)
    return sol, list(points)


# The profile reference: profile_points' body before the left half's ordinates were
# kept for the right half, verbatim. The model must match it bit for bit, error texts
# included, except that a zero ordinate is now +0.0 where the reference gave -0.0.
def reference_profile_points(samples: int, force: float, a: float, span: float, rigidity: float):
    if samples < 2:
        raise ValueError("samples must be >= 2")
    if samples % 2 == 0:
        samples += 1

    slope = _slope(force, a, span, rigidity)

    def half(x: float) -> float:
        return slope * x if x <= a else _beam(x, slope, a, span)

    # The right half mirrors the grid of the left around the center, so the
    # antisymmetry of the two half-profiles is exact in floating point. The
    # anchors are clamped to y = 0: their ordinates are evaluated and
    # dropped, so a design the closed forms cannot evaluate fails at any
    # sample count.
    full = 2 * span
    last = samples - 1
    mid = last // 2
    u = full * 0 / last
    half(span - u)
    yield u, 0.0
    for i in range(1, mid):
        u = full * i / last
        y = half(span - u)
        if not math.isfinite(y):
            raise ValueError(f"non-finite profile ordinate ({y}) at u={u}")
        yield u, y
    # full * mid / last can round off span; the center is the fixed support.
    yield span, 0.0
    for i in range(mid + 1, last):
        u_mirror = full * (last - i) / last
        u = full - u_mirror
        y = -half(span - u_mirror)
        if not math.isfinite(y):
            raise ValueError(f"non-finite profile ordinate ({y}) at u={u}")
        yield u, y
    u_mirror = full * 0 / last
    half(span - u_mirror)
    yield full - u_mirror, 0.0


def profile_outcome(function, *args):
    """The hex of every (u, y) the generator yields, or its exception's exact type and text."""
    try:
        return [(u.hex(), y.hex()) for u, y in function(*args)]
    except Exception as exc:  # the exception type is part of what is compared
        return type(exc), str(exc)


def half(x: float, force: float, a: float, span: float, rigidity: float) -> tuple[float, float]:
    """(y, y') of the half profile at x: the mirror branch up to a, the beam branch past it."""
    from piezoscanner.verification import branches  # numpy loads only for the tests that need it

    y_mirror, y_beam, dy_mirror, dy_beam = branches(x, force, a, span, rigidity)
    return (y_mirror, dy_mirror) if x <= a else (y_beam, dy_beam)


def signed(magnitudes):
    """A magnitude drawn by `magnitudes`, of either sign."""
    return magnitudes.flatmap(lambda m: st.sampled_from([m, -m]))


# The voltage of each named drive, as a function of the strategy of its magnitude.
DRIVES = {
    "zero or signed": lambda magnitudes: st.one_of(st.just(0.0), signed(magnitudes)),
    "signed nonzero": signed,
    "positive": lambda magnitudes: magnitudes,
}


def physical_designs(d31_nonzero: bool = False, drive: str = "zero or signed"):
    """Hypothesis strategy for designs in verification.PHYSICAL_RANGES: d31 of either sign,
    or zero unless d31_nonzero, and the voltage as the named drive of DRIVES gives it."""
    from piezoscanner.verification import PHYSICAL_RANGES  # numpy loads only for the draws

    fields = {name: st.floats(min_value=lo, max_value=hi)
              for name, (lo, hi) in zip(ScanConfig._fields, PHYSICAL_RANGES)}
    d31 = signed(fields["d31"])
    fields["d31"] = d31 if d31_nonzero else st.one_of(st.just(0.0), d31)
    fields["voltage"] = DRIVES[drive](fields["voltage"])
    return st.builds(ScanConfig, **fields)
