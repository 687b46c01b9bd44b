"""Reference checks of the model: the 4x4 layer system and the `verify` suite.

Every check takes a design, a :class:`~piezoscanner.sweep.ScanConfig`, and
reads its model values from one :func:`scanner.solve_scanner` call, the solve
that every command makes. The layer force resultants and curvature of a
design at its voltage solve a 4x4 system (in-plane and moment equilibrium,
two interface continuity conditions). :func:`layer_solution` solves it
exactly, in rationals, for any stack of positive fields: the layer check has
no domain limit. Its end force, :func:`exact_force`, is (3/2) W t_p E_p d31 V / L
exactly, and the solved force must equal it to round-off.
`normalization_independence` compares each solved rigidity with the layer sum
:func:`layer_rigidity`, which shares no formula with `section`. The profile
checks read both half-profile branches as scanner evaluates them
(:func:`branches`), and `profile_sampling` holds scanner's sampled profile to
them at the same u, bit for bit. The checks work on floats, one drawn design
at a time; only the FD oracle uses arrays. No model path calls this module;
the CLI loads it, and numpy and fractions with it, only for `verify`.

Domain. :data:`PHYSICAL_RANGES` is the one physical domain: moduli of 10-500 GPa,
layers 0.2-20 um thick, widths of 5-200 um, lengths of 100-2000 um, mirrors of
10-1000 um, |d31| of 1-500 pm/V and |V| of 0.01-200 V.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from . import oracle, scanner, sweep


def piezo_strains(design) -> tuple[float, float]:
    """(s1, s2), the drive strains of the lower and upper layer at the design's voltage,
    for opposite-polarity actuation."""
    s = design.d31 * design.voltage / design.piezo_t
    return -s, +s


def _layer_system(design) -> list[list[int]]:
    """The design's 4x4 layer system, made triangular in exact integers.

    Unknowns (p1, p2, p3, kappa): the layer force resultants per unit width (N/m) and the
    beam curvature (1/m). Rows: in-plane equilibrium, moment equilibrium about the substrate
    bottom, and continuity at the substrate/piezo and piezo/piezo interfaces, in the
    Fractions of the design's fields, with two right-hand sides: the drive at the design's
    voltage, and a unit bending moment per unit width with no drive. Each row is scaled to
    integers, and Bareiss's elimination divides each step exactly by the previous pivot. The
    pivots are the leading minors, positive for a stack of positive fields, so no row is
    swapped. The last row is (0, 0, 0, det, det kappa, det kappa_1), with kappa_1 the
    curvature per unit moment.
    """
    exact = sweep.ScanConfig(*map(Fraction, design))
    es, ts, ep, tp = exact.substrate_E, exact.substrate_t, exact.piezo_E, exact.piezo_t
    s1, s2 = piezo_strains(exact)
    rows = (
        (1, 1, 1, 0, 0, 0),
        (ts / 2, ts + tp / 2, ts + 3 * tp / 2, (es * ts**3 + 2 * ep * tp**3) / 12, 0, 1),
        (1 / (es * ts), -1 / (ep * tp), 0, (ts + tp) / 2, s1, 0),
        (0, 1 / (ep * tp), -1 / (ep * tp), tp, s2 - s1, 0),
    )
    scales = [math.lcm(*(entry.denominator for entry in row)) for row in rows]
    matrix = [[entry.numerator * (scale // entry.denominator) for entry in row]
              for row, scale in zip(rows, scales)]
    for k in range(3):
        pivot, previous = matrix[k][k], matrix[k - 1][k - 1] if k else 1
        matrix[k + 1:] = [[(pivot * a - row[k] * b) // previous for a, b in zip(row, matrix[k])]
                          for row in matrix[k + 1:]]
    return matrix


def layer_solution(design) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(p1, p2, p3, kappa) of the design at its voltage, exactly: :func:`_layer_system`
    back-substituted."""
    x = [0, 0, 0, 0]
    for i, row in reversed(list(enumerate(_layer_system(design)))):
        x[i] = Fraction(row[4] - sum(a * b for a, b in zip(row[i + 1:4], x[i + 1:])), row[i])
    return tuple(x)


def exact_force(design) -> Fraction:
    """The end force 3 EI kappa / (2 L) of the exact layer system: kappa its curvature under
    the drive, and EI = W / kappa_1 from its curvature kappa_1 under a unit moment per unit
    width, which equals :func:`layer_rigidity` in rationals. Both curvatures share the
    system's det, which cancels."""
    *_, drive, moment = _layer_system(design)[3]
    return 3 * Fraction(design.beam_width) * drive / (2 * Fraction(design.beam_length) * moment)


def layer_rigidity(design):
    """Flexural rigidity summed layer by layer, each in its own modulus, with no normalizing
    modulus: h = sum(E t c) / sum(E t) over the layer mid-heights c, then
    W * sum(E (t^3/12 + t (h - c)^2)), on a design of floats, or exactly on one of Fractions,
    as it has no float literal."""
    es, ts, ep, tp = design.substrate_E, design.substrate_t, design.piezo_E, design.piezo_t
    cs, c1, c2 = ts / 2, ts + tp / 2, ts + 3 * tp / 2
    ks, kp = es * ts, ep * tp  # axial stiffness per unit width
    h = (ks * cs + kp * c1 + kp * c2) / (ks + kp + kp)
    ds, d1, d2 = h - cs, h - c1, h - c2
    return design.beam_width * (es * (ts * ts * ts / 12 + ts * ds * ds)
                                + ep * (tp * tp * tp / 12 + tp * d1 * d1)
                                + ep * (tp * tp * tp / 12 + tp * d2 * d2))


# The physical domain, one (lo, hi) per ScanConfig field in its order: d31 and the voltage
# as magnitudes.
PHYSICAL_RANGES = ((10e9, 500e9), (10e9, 500e9), (1e-12, 500e-12), (0.2e-6, 20e-6),
                   (0.2e-6, 20e-6), (5e-6, 200e-6), (100e-6, 2000e-6), (10e-6, 1000e-6),
                   (0.01, 200.0))


def random_design(rng: random.Random) -> sweep.ScanConfig:
    """One design of floats drawn uniformly from `PHYSICAL_RANGES`, each field lo + (hi - lo)
    rng.random() in field order, then the drive's sign from one more rng.random(): d31 < 0
    and a drive of either sign."""
    e_s, e_p, d31, t_s, t_p, width, length, mirror, volts = (
        lo + (hi - lo) * rng.random() for lo, hi in PHYSICAL_RANGES)
    sign = -1.0 if rng.random() < 0.5 else 1.0
    return sweep.ScanConfig(e_s, e_p, -d31, t_s, t_p, width, length, mirror, volts * sign)


def branches(x: float, force: float, a: float, span: float,
             rigidity: float) -> tuple[float, float, float, float]:
    """(mirror y, beam y, mirror y', beam y') of the half profile at x, both branches
    evaluated from the mirror slope as the model evaluates them."""
    slope = scanner._slope(force, a, span, rigidity)
    length = span - a
    return (slope * x, scanner._beam(x, slope, a, span), slope,
            slope * (x - span) / length * (3 * (a + span) * (x - a) / length**2 - 1))


def _worst(residuals) -> float:
    """The largest residual, or nan if any is nan: max() alone keeps a nan only in first
    place, so a check whose reference goes nan would pass."""
    residuals = list(residuals)
    return math.nan if any(map(math.isnan, residuals)) else max(residuals)


def _profile_residual(force: float, a: float, span: float, rigidity: float,
                      tilt_signed: float) -> float:
    """The largest violation of the half profile's support, clamp, continuity, straightness
    and tilt conditions, as a deflection (slopes times span)."""
    def at(x):
        return branches(x, force, a, span, rigidity)

    y0, _, dy0, _ = at(0.0)
    _, y_end, _, dy_end = at(span)
    y_a, y_b, dy_a, dy_b = at(a)
    return _worst((
        abs(y0),
        abs(y_end),
        abs(dy_end) * span,
        abs(y_a - y_b),
        abs(dy_a - dy_b) * span,
        # straightness of the mirror segment: second difference
        abs(at(a / 4)[0] - 2 * at(a / 2)[0] + at(3 * a / 4)[0]),
        abs(math.tan(abs(tilt_signed)) - abs(dy0)) * span,
    ))


def _sampling_residual(samples: int, force: float, a: float, span: float, rigidity: float,
                       y_max: float) -> float:
    """The largest difference between scanner's sampled profile and what it must be: on the
    left half and the center, the grid u = 2 span j / (samples - 1) (the center at span) and
    the branches at the sampled u, from one slope; on the right half, the left half's exact
    mirror. u is taken in units of span and y of y_max. The profile is read as two ranges
    cut at the center row, so that a range starting at the center is checked too."""
    last = (samples | 1) - 1
    mid = last // 2
    rows = (scanner.profile_rows(samples, force, a, span, rigidity, 0, mid)
            + scanner.profile_rows(samples, force, a, span, rigidity, mid))
    u, y = rows[0::2], rows[1::2]
    if len(u) != last + 1:
        return math.inf
    full = 2 * span
    slope = scanner._slope(force, a, span, rigidity)
    x = [span - u_j for u_j in u[:mid + 1]]
    du = [u[j] - full * j / last for j in range(mid)] + [u[mid] - span]
    du += [u_r - (full - u_l) for u_r, u_l in zip(u[mid + 1:], u[mid - 1::-1])]
    dy = [y_j - (slope * x_j if x_j <= a else scanner._beam(x_j, slope, a, span))
          for y_j, x_j in zip(y, x)]
    dy += [y_r + y_l for y_r, y_l in zip(y[mid + 1:], y[mid - 1::-1])]
    return _worst([abs(d) / span for d in du] + [abs(d) / y_max for d in dy])


def checks(nodes: int):
    """Yield (name, residual, tolerance) for the whole verification suite."""
    reference = sweep.reference_config()
    force, rigidity, a, span, _, _, y_max, _ = scanner.solve_scanner(*reference)
    # Scanner A's 2,048 samples are bumped to 2,049. That profile is the line's main cost,
    # so three drawn designs take 101, 100 and 5 samples.
    sampled = [(2048, force, a, span, rigidity, y_max)]

    problem = oracle.BeamProblem(span=span, a=a, force=force, rigidity=rigidity, nodes=nodes)
    fd = oracle.solve_fd(problem)
    r_closed, tilt_closed, _, _ = scanner.statics(force, fd.a_snapped, span, rigidity)
    yield "oracle_reaction", abs(fd.reaction - r_closed) / abs(r_closed), 5e-3
    yield "oracle_profile_maxnorm", oracle.profile_error(problem, fd), 5e-3
    yield "oracle_tilt", abs(fd.tilt() - abs(tilt_closed)) / abs(tilt_closed), 5e-3

    counts = [101, 201, 401]
    orders = oracle.convergence_orders(counts, oracle.convergence_study(problem, counts))
    yield "oracle_convergence_order", _worst(1.8 - order for order in orders), 0.0

    half = oracle.BeamProblem(span=span, a=span / 2, force=force, rigidity=rigidity, nodes=nodes)
    fd_half = oracle.solve_fd(half)
    target = -5 * force / 14
    yield "oracle_midspan_reaction", abs(fd_half.reaction - target) / abs(target), 5e-3

    # The exact layer system on Scanner A, on it with ever thinner piezo layers, and on
    # every 100th drawn design: |F / F_exact - 1| in rationals, rounded once.
    exact_designs = [reference, *(reference._replace(piezo_t=t) for t in (1e-20, 1e-100, 1e-300))]
    norms, profiles = [], []
    rng = random.Random(20260824)
    for i in range(1000):
        design = random_design(rng)
        force, rigidity, a, span, _, tilt_signed, y_max, _ = scanner.solve_scanner(*design)
        norms.append(abs(layer_rigidity(design) - rigidity) / rigidity)
        if i < 3:
            sampled.append(((101, 100, 5)[i], force, a, span, rigidity, y_max))
        if i % 10 == 0:  # the profile checks, ~11 us a design, on 100 of them
            profiles.append(_profile_residual(force, a, span, rigidity, tilt_signed) / y_max)
        if i % 100 == 0:
            exact_designs.append(design)
    identity = max(abs(Fraction(scanner.solve_scanner(*design)[0]) / exact_force(design) - 1)
                   for design in exact_designs)
    yield "closed_form_identity", float(identity), 1e-10
    yield "normalization_independence", _worst(norms), 1e-12
    yield "profile_invariants", _worst(profiles), 1e-12
    yield "profile_sampling", _worst(_sampling_residual(*args) for args in sampled), 0.0
