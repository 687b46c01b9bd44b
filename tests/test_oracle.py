import math
import os
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
        expected = scanner.reaction(FORCE, solution.a_snapped, SPAN)
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
        # Capture the load and unit right-hand sides of a real solve.
        integrate = oracle._integrate_twice
        seen = []

        def recording(rhs):
            seen.append(rhs)
            return integrate(rhs)

        monkeypatch.setattr(oracle, "_integrate_twice", recording)
        solve_fd(problem_a(nodes=1001))
        assert len(seen) == 2
        for rhs in seen:
            m = rhs.size
            stencil = np.diag(np.full(m, -2.0)) + np.eye(m, k=1) + np.eye(m, k=-1)
            dense = np.linalg.solve(stencil, rhs)
            y = integrate(rhs)
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


class TestFiniteRigidity:
    def test_tilt_insensitive_to_rigid_idealization(self):
        exact = solve_fd(problem_a()).tilt()
        finite = solve_fd(problem_a(), rigidity_ratio=1e6).tilt()
        assert abs(finite - exact) / exact < 1e-4
