import math
import os
import random
import re
import subprocess
import sys

import numpy as np
import pytest

import piezoscanner
from piezoscanner import oracle, scanner
from piezoscanner.oracle import (
    BeamProblem,
    convergence_orders,
    convergence_study,
    profile_error,
    solve_fd,
)
from piezoscanner.verification import random_design

from conftest import half

# Scanner A loading of the half-model (see test_scanner.py for provenance).
A = 150e-6
SPAN = 1000e-6
FORCE = -4.395282352941177e-05
RIGIDITY = 9.29782828606914e-11


def problem_a(nodes=2001) -> BeamProblem:
    return BeamProblem(span=SPAN, a=A, force=FORCE, rigidity=RIGIDITY, nodes=nodes)


class TestProblemValidation:
    def test_even_node_count_rejected(self):
        with pytest.raises(ValueError):
            BeamProblem(span=SPAN, a=A, force=FORCE, rigidity=RIGIDITY, nodes=100)

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError):
            BeamProblem(span=SPAN, a=A, force=FORCE, rigidity=RIGIDITY, nodes=9)

    def test_junction_outside_span_rejected(self):
        with pytest.raises(ValueError):
            BeamProblem(span=SPAN, a=SPAN, force=FORCE, rigidity=RIGIDITY)

    @pytest.mark.parametrize("rigidity", [0.0, math.nan])
    def test_nonpositive_rigidity_rejected(self, rigidity):
        with pytest.raises(ValueError):
            BeamProblem(span=SPAN, a=A, force=FORCE, rigidity=rigidity)

    def test_replace_is_checked(self):
        with pytest.raises(ValueError, match="^nodes must be odd and >= 11$"):
            problem_a()._replace(nodes=100)

    # Each would solve to NaNs, or fail later in the solve or in profile_error with a text
    # that does not name the input at fault.
    @pytest.mark.parametrize("fields, text", [
        (dict(span=math.inf, a=1.5e-4, force=-1e-5, rigidity=1e-10, nodes=11),
         "span must be finite, not inf"),
        (dict(span=1e-3, a=1.5e-4, force=math.nan, rigidity=1e-10), "force must be finite, not nan"),
        (dict(span=1e-3, a=math.nan, force=-1e-5, rigidity=1e-10), "a must be finite, not nan"),
        (dict(span=1e-3, a=1.5e-4, force=-1e-5, rigidity=math.inf),
         "rigidity must be finite, not inf"),
        (dict(span=1e200, a=1.5e199, force=-1e-5, rigidity=1e-10),
         "grid step 5e+196 squares to inf, not a normal float"),
        (dict(span=1e300, a=1.5e299, force=-1e-5, rigidity=1e-10, nodes=11),
         "grid step 1e+299 squares to inf, not a normal float"),
        (dict(span=1e-160, a=1.5e-161, force=-1e-5, rigidity=1e-10, nodes=11),
         "grid step 1e-161 squares to 1e-322, not a normal float"),
        (dict(span=1e-170, a=1.5e-171, force=-1e-5, rigidity=1e-10, nodes=11),
         "grid step 1e-171 squares to 0.0, not a normal float"),
        (dict(span=1e300, a=1.5e299, force=math.nan, rigidity=1e-10), "force must be finite, not nan"),
        (dict(span=1e300, a=1.5e299, force=-math.inf, rigidity=1e-10),
         "force must be finite, not -inf"),
    ], ids=["inf-span", "nan-force", "nan-a", "inf-rigidity", "h2-overflows", "h2-overflows-11",
            "h2-subnormal", "h2-underflows", "huge-span-nan-force", "huge-span-inf-force"])
    def test_unsolvable_problem_rejected(self, fields, text):
        with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
            BeamProblem(**fields)


class TestSolveFd:
    def test_zero_force(self):
        solution = solve_fd(BeamProblem(span=SPAN, a=A, force=0.0, rigidity=RIGIDITY))
        assert solution.reaction == 0.0
        assert np.all(solution.deflection == 0.0)

    def test_boundary_conditions(self):
        solution = solve_fd(problem_a())
        scale = np.max(np.abs(solution.deflection))
        assert abs(solution.deflection[0]) <= 1e-10 * scale
        assert abs(solution.deflection[-1]) <= 1e-10 * scale

    def test_midspan_reaction(self):
        solution = solve_fd(BeamProblem(span=SPAN, a=SPAN / 2, force=FORCE, rigidity=RIGIDITY))
        assert solution.reaction == pytest.approx(-5 * FORCE / 14, rel=1e-4)

    def test_scanner_a_reaction(self):
        solution = solve_fd(problem_a())
        expected = scanner.statics(FORCE, solution.a_snapped, SPAN, RIGIDITY)[0]
        assert solution.reaction == pytest.approx(expected, rel=5e-3)

    def test_scanner_a_profile(self):
        problem = problem_a()
        assert profile_error(problem, solve_fd(problem)) <= 5e-3

    @pytest.mark.parametrize("nodes, a", [(11, A), (2001, A), (20001, A), (2001, SPAN / 2)])
    def test_profile_error_matches_pointwise_closed_form(self, nodes, a):
        """The vectorized closed form equals the half profile node by node to a few ulp."""
        problem = BeamProblem(span=SPAN, a=a, force=FORCE, rigidity=RIGIDITY, nodes=nodes)
        solution = solve_fd(problem)
        a_s = solution.a_snapped
        closed = np.array([half(x, FORCE, a_s, SPAN, RIGIDITY)[0] for x in solution.grid])
        scale = np.max(np.abs(closed))
        reference = np.max(np.abs(solution.deflection - closed)) / scale
        assert abs(profile_error(problem, solution) - reference) <= 16 * np.finfo(float).eps

    def test_tilt_matches_closed_form(self):
        solution = solve_fd(problem_a())
        expected = abs(scanner.statics(FORCE, solution.a_snapped, SPAN, RIGIDITY)[1])
        assert solution.tilt() == pytest.approx(expected, rel=5e-3)


class TestIntegrateTwice:
    def test_round_off_against_dense_solve(self, monkeypatch):
        # Capture the load and unit right-hand sides of a real solve, and its ramp.
        integrate = oracle._integrate_twice
        seen = []

        def recording(rhs, ramp):
            seen.append((rhs.copy(), ramp))
            return integrate(rhs, ramp)

        monkeypatch.setattr(oracle, "_integrate_twice", recording)
        solve_fd(problem_a(nodes=1001))
        assert len(seen) == 2
        for rhs, ramp in seen:
            m = rhs.size
            stencil = np.diag(np.full(m, -2.0)) + np.eye(m, k=1) + np.eye(m, k=-1)
            dense = np.linalg.solve(stencil, rhs)
            y = integrate(rhs, ramp)
            assert y[0] == 0.0 and y[-1] == 0.0
            assert np.max(np.abs(y[1:-1] - dense)) <= 1e-12 * np.max(np.abs(dense))


class TestConvergence:
    def test_errors_strictly_decrease(self):
        errors = convergence_study(problem_a(), [101, 201, 401])
        assert errors[0] > errors[1] > errors[2]

    def test_order_at_least_second(self):
        counts = [101, 201, 401]
        errors = convergence_study(problem_a(), counts)
        assert min(convergence_orders(counts, errors)) >= 1.8

    def test_refinement_ratio_near_four(self):
        errors = convergence_study(problem_a(), [201, 401])
        ratio = errors[0] / errors[1]
        assert 3.0 <= ratio <= 5.0

    def test_zero_force_all_zero(self):
        problem = BeamProblem(span=SPAN, a=A, force=0.0, rigidity=RIGIDITY)
        assert convergence_study(problem, [101, 201]) == [0.0, 0.0]

    @pytest.mark.parametrize("errors, nodes", [([0.0, 0.0], 101), ([1e-3, 0.0], 201)])
    def test_zero_error_has_no_order(self, errors, nodes):
        with pytest.raises(ValueError, match=f"^profile error is 0 at {nodes} nodes; "
                                             "no convergence order$"):
            convergence_orders([101, 201], errors)

    def test_convergence_script(self):
        src = os.path.dirname(os.path.dirname(piezoscanner.__file__))
        script = os.path.join(os.path.dirname(__file__), os.pardir, "scripts", "oracle_convergence.py")
        result = subprocess.run(
            [sys.executable, script], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        rows = [line.split() for line in result.stdout.splitlines()[1:]]
        orders = [float(row[2]) for row in rows if len(row) == 3]
        assert len(rows) == 5 and len(orders) == 4
        assert min(orders) >= 1.8


class TestRigidityScale:
    def test_reaction_independent_of_rigidity(self):
        """The reaction of Scanner A's geometry and force has the same bits at any rigidity,
        from subnormal to near overflow, with no division, overflow or invalid operation
        (at 1e308 the deflection underflows, as it must)."""
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            reactions = [solve_fd(BeamProblem(span=SPAN, a=A, force=FORCE, rigidity=r)).reaction
                         for r in (1e-310, RIGIDITY, 1e300, 1e308)]
        assert [r.hex() for r in reactions] == [reactions[1].hex()] * 4
        expected = scanner.statics(FORCE, A, SPAN, RIGIDITY)[0]
        assert reactions[0] == pytest.approx(expected, rel=5e-3)

    @pytest.mark.parametrize("rigidity, scale", [(1e308, "0.0"), (1e300, "2.12467526e-316")])
    def test_profile_error_rejects_underflowed_scale(self, rigidity, scale):
        """At 1e308 both profiles underflow to 0 and at 1e300 the closed form is subnormal:
        neither is a match, and the error names the scale."""
        problem = BeamProblem(span=SPAN, a=A, force=FORCE, rigidity=rigidity)
        with pytest.raises(ValueError, match=f"^closed-form profile scale {scale} underflows"):
            profile_error(problem, solve_fd(problem))


class TestFiniteRigidity:
    def test_tilt_insensitive_to_rigid_idealization(self):
        exact = solve_fd(problem_a()).tilt()
        finite = solve_fd(problem_a(), rigidity_ratio=1e6).tilt()
        assert abs(finite - exact) / exact < 1e-4


# The oracle before it worked in place, verbatim: solve_fd and profile_error must give its
# bits, a -0.0 included, and its error texts.
def reference_integrate_twice(rhs):
    n = rhs.size + 2
    y = np.zeros(n)
    y[2:] = np.cumsum(np.cumsum(rhs))
    return y - y[-1] * (np.arange(n) / (n - 1))


def reference_solve_superposed(grid, h, curvature_coeff, a_snapped, force):
    n = grid.size
    x_int = grid[1 : n - 1]
    m_load = force * np.maximum(x_int - a_snapped, 0.0)
    coeff = curvature_coeff[1 : n - 1]

    y_load = reference_integrate_twice(h * h * coeff * m_load)
    y_unit = reference_integrate_twice(h * h * coeff * x_int)

    def clamp_slope(y):
        return 3 * y[n - 1] - 4 * y[n - 2] + y[n - 3]

    denom = clamp_slope(y_unit)
    if denom == 0:
        raise ValueError("clamp condition does not determine the reaction")
    r = -clamp_slope(y_load) / denom
    return y_load + r * y_unit, r


def reference_solve_fd(problem, rigidity_ratio=math.inf):
    n = problem.nodes
    grid = np.linspace(0.0, problem.span, n)
    h = problem.span / (n - 1)
    j = int(round(problem.a / h))
    j = min(max(j, 1), n - 2)
    a_snapped = grid[j]

    c_mirror = 1.0 / rigidity_ratio
    coeff = np.ones(n)
    coeff[:j] = c_mirror
    coeff[j] = 0.5 * (c_mirror + 1.0)

    y, r = reference_solve_superposed(grid, h, coeff, a_snapped, problem.force)
    y /= problem.rigidity
    return oracle.OracleSolution(reaction=r, grid=grid, deflection=y, a_snapped=a_snapped)


def reference_profile_error(problem, solution):
    x, a, span, force = solution.grid, solution.a_snapped, problem.span, problem.force
    if force == 0:
        return float(np.max(np.abs(solution.deflection)))
    slope = scanner._slope(force, a, span, problem.rigidity)
    closed = np.where(x <= a, slope * x, scanner._beam(x, slope, a, span))
    scale = float(np.max(np.abs(closed)))
    if scale < sys.float_info.min:
        raise ValueError(f"closed-form profile scale {scale!r} underflows; nothing to compare")
    return float(np.max(np.abs(solution.deflection - closed)) / scale)


def reference_tilt(solution):
    j = int(np.argmin(np.abs(solution.grid - solution.a_snapped)))
    slope = (solution.deflection[j] - solution.deflection[0]) / solution.a_snapped
    return math.atan(abs(slope))


def oracle_outcome(solve, error, tilt, problem, rigidity_ratio):
    """The solution's bits, its tilt and its profile error as hex, or the error's type and
    text."""
    try:
        solution = solve(problem, rigidity_ratio)
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)
    bits = (solution.reaction.hex(), solution.grid.tobytes(), solution.deflection.tobytes(),
            solution.a_snapped.hex(), tilt(solution).hex())
    try:
        return bits, error(problem, solution).hex()
    except (ArithmeticError, ValueError) as exc:
        return bits, type(exc), str(exc)


def oracle_problems():
    """Scanner A with its mirror and at midspan, 50 drawn designs, and Scanner A at
    rigidities whose closed form underflows."""
    yield problem_a()
    yield problem_a()._replace(a=SPAN / 2)
    rng = random.Random(20261030)
    for _ in range(50):
        force, rigidity, a, span, *_ = scanner.solve_scanner(*random_design(rng))
        yield BeamProblem(span=span, a=a, force=force, rigidity=rigidity)
    for rigidity in (1e300, 1e308):
        yield problem_a()._replace(rigidity=rigidity)


def test_oracle_matches_reference_bit_for_bit():
    """solve_fd, tilt and profile_error give the reference's reaction, grid, deflection,
    snapped junction, tilt and profile error bit for bit, or its exact error, at 11, 2,001
    and 20,001 nodes and with a rigid or a 1e6 times stiffer mirror."""
    outcomes = []
    with np.errstate(all="ignore"):
        for problem in oracle_problems():
            for nodes in (11, 2001, 20001):
                for ratio in (math.inf, 1e6):
                    args = problem._replace(nodes=nodes), ratio
                    got = oracle_outcome(solve_fd, profile_error, oracle.OracleSolution.tilt,
                                         *args)
                    assert got == oracle_outcome(reference_solve_fd, reference_profile_error,
                                                 reference_tilt, *args), args
                    outcomes.append(got)
    underflows = [outcome[-1] for outcome in outcomes if outcome[-2] is ValueError]
    assert len(underflows) == 2 * 6 and all(" underflows; " in text for text in underflows)
    assert len(outcomes) == 54 * 6
