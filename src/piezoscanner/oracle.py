"""Finite-difference oracle for the half-scanner beam.

Independent check of the closed-form reaction, profile, and tilt: the
propped beam with a rigid mirror segment and a junction point load is
discretized with second-order central differences and solved numerically,
treating the support reaction as the redundant unknown of the statically
indeterminate problem. Nothing here reuses the closed-form algebra beyond
the bending-moment statics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import scanner


class OracleSingularError(ValueError):
    pass


@dataclass(frozen=True)
class BeamProblem:
    """Half-span propped beam with rigid segment [0, a] and clamp at L."""

    span: float
    a: float
    force: float
    rigidity: float
    nodes: int = 2001

    def __post_init__(self) -> None:
        if self.nodes < 11 or self.nodes % 2 == 0:
            raise ValueError("nodes must be odd and >= 11")
        if not 0 < self.a < self.span:
            raise ValueError("need 0 < a < span")
        if not self.rigidity > 0:
            raise ValueError("rigidity must be > 0")


@dataclass(frozen=True)
class OracleSolution:
    """Nodal deflections, grid, redundant reaction, and the snapped junction."""

    reaction: float
    grid: np.ndarray
    deflection: np.ndarray
    a_snapped: float

    def rigid_segment_slope(self) -> float:
        """Slope of the mirror segment from its endpoint nodal values."""
        j = int(np.argmin(np.abs(self.grid - self.a_snapped)))
        return (self.deflection[j] - self.deflection[0]) / self.a_snapped

    def tilt(self) -> float:
        return math.atan(abs(self.rigid_segment_slope()))


def _integrate_twice(rhs):
    """Exact solution of y[i-1] - 2 y[i] + y[i+1] = rhs[i-1] at the n - 2
    interior nodes, with y = 0 at both ends.

    Two running sums give the solution with y[0] = y[1] = 0; subtracting
    the linear term, which the stencil does not see, zeroes the far end.
    """
    n = rhs.size + 2
    y = np.zeros(n)
    y[2:] = np.cumsum(np.cumsum(rhs))
    return y - y[-1] * (np.arange(n) / (n - 1))


def _solve_superposed(grid, h, curvature_coeff, a_snapped, force):
    """Solve the beam twice (unit reaction, pure load) and superpose.

    For a fixed reaction R the deflection is linear in R, so y = y_f + R*y_r
    where both pieces satisfy y(0) = y(L) = 0 and the interior stencils.
    The clamp slope condition y'(L) = 0 (one-sided second-order stencil)
    then fixes R.

    curvature_coeff[i] multiplies the bending moment at node i to give the
    curvature: 0 on the rigid segment, 1/rigidity on the flexible one, and
    the average of the two one-sided values at the junction node (the
    curvature jumps there, and the central stencil sees the mean).
    """
    n = grid.size
    # Moment split: M(x) = R * x + force * max(x - a, 0).
    x_int = grid[1 : n - 1]
    m_load = force * np.maximum(x_int - a_snapped, 0.0)
    coeff = curvature_coeff[1 : n - 1]

    y_load = _integrate_twice(h * h * coeff * m_load)
    y_unit = _integrate_twice(h * h * coeff * x_int)

    def clamp_slope(y):
        return 3 * y[n - 1] - 4 * y[n - 2] + y[n - 3]

    denom = clamp_slope(y_unit)
    if denom == 0:
        raise OracleSingularError("clamp condition does not determine the reaction")
    r = -clamp_slope(y_load) / denom
    return y_load + r * y_unit, r


def solve_fd(problem: BeamProblem, rigidity_ratio: float = math.inf) -> OracleSolution:
    """Solve the discretized beam.

    The mirror segment gets rigidity_ratio times the beam rigidity. The
    default, an infinite ratio, makes it exactly rigid (zero curvature); a
    large finite ratio confirms that the rigid idealization is insensitive
    to it.
    """
    n = problem.nodes
    grid = np.linspace(0.0, problem.span, n)
    h = problem.span / (n - 1)
    j = int(round(problem.a / h))
    j = min(max(j, 1), n - 2)
    a_snapped = grid[j]

    c_mirror = 1.0 / (rigidity_ratio * problem.rigidity)
    c_beam = 1.0 / problem.rigidity
    coeff = np.full(n, c_beam)
    coeff[:j] = c_mirror
    coeff[j] = 0.5 * (c_mirror + c_beam)

    y, r = _solve_superposed(grid, h, coeff, a_snapped, problem.force)
    return OracleSolution(reaction=r, grid=grid, deflection=y, a_snapped=a_snapped)


def profile_error(problem: BeamProblem, solution: OracleSolution) -> float:
    """Max-norm relative error of the oracle profile vs the closed form.

    The closed form is evaluated at the snapped junction so both sides
    solve the identical problem.
    """
    x, a, span, force = solution.grid, solution.a_snapped, problem.span, problem.force
    den = scanner._profile_denominator(a, span, problem.rigidity)
    mirror = scanner._mirror_coefficient(force, a, span)
    closed = np.where(x <= a, mirror * x / den,
                      scanner._beam(x, force * a, scanner._cubic_coefficients(a, span), den))
    scale = np.max(np.abs(closed))
    if scale == 0:
        return float(np.max(np.abs(solution.deflection)))
    return float(np.max(np.abs(solution.deflection - closed)) / scale)


def convergence_study(problem: BeamProblem, node_counts: list[int]) -> list[float]:
    """Closed-form profile errors at each resolution, in the given order."""
    errors = []
    for n in node_counts:
        p = BeamProblem(
            span=problem.span, a=problem.a, force=problem.force,
            rigidity=problem.rigidity, nodes=n,
        )
        errors.append(profile_error(p, solve_fd(p)))
    return errors


def convergence_orders(node_counts: list[int], errors: list[float]) -> list[float]:
    """Observed log-log convergence slopes between successive refinements."""
    orders = []
    for (n0, e0), (n1, e1) in zip(zip(node_counts, errors), zip(node_counts[1:], errors[1:])):
        h_ratio = (n1 - 1) / (n0 - 1)
        orders.append(math.log(e0 / e1) / math.log(h_ratio))
    return orders
