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
import sys
from collections import namedtuple

import numpy as np

from . import scanner


class BeamProblem(namedtuple("BeamProblem", ("span", "a", "force", "rigidity", "nodes"))):
    """Half-span propped beam with rigid segment [0, a] and clamp at L; checked when built.
    The span, a, force and rigidity must be finite, and the grid step's square h * h, which
    every right-hand side of the solve carries, a normal float."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))  # _replace builds through _make

    def __new__(cls, span, a, force, rigidity, nodes=2001):
        if nodes < 11 or nodes % 2 == 0:
            raise ValueError("nodes must be odd and >= 11")
        for name, value in (("span", span), ("a", a), ("force", force), ("rigidity", rigidity)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, not {value!r}")
        if not 0 < a < span:
            raise ValueError("need 0 < a < span")
        if not rigidity > 0:
            raise ValueError("rigidity must be > 0")
        h = span / (nodes - 1)
        if not sys.float_info.min <= h * h < math.inf:
            raise ValueError(f"grid step {h!r} squares to {h * h!r}, not a normal float")
        return super().__new__(cls, span, a, force, rigidity, nodes)


class OracleSolution(namedtuple("OracleSolution", ("reaction", "grid", "deflection", "a_snapped"))):
    """Nodal deflections, grid, redundant reaction, and the snapped junction."""

    __slots__ = ()

    def rigid_segment_slope(self) -> float:
        """Slope of the mirror segment from its endpoint nodal values."""
        j = int(np.searchsorted(self.grid, self.a_snapped))  # the junction node, grid[j] == a_snapped
        return (self.deflection[j] - self.deflection[0]) / self.a_snapped

    def tilt(self) -> float:
        return math.atan(abs(self.rigid_segment_slope()))


def _integrate_twice(rhs, ramp):
    """Exact solution of y[i-1] - 2 y[i] + y[i+1] = rhs[i-1] at the n - 2
    interior nodes, with y = 0 at both ends; ramp is i / (n - 1) at the n nodes.

    Two running sums give the solution with y[0] = y[1] = 0; subtracting
    the linear term y[-1] * ramp, which the stencil does not see, zeroes the
    far end. Both sums and the subtraction run in place in the returned array.
    """
    y = np.zeros(ramp.size)
    np.cumsum(rhs, out=y[2:])
    np.cumsum(y[2:], out=y[2:])
    y -= y[-1] * ramp
    return y


def _solve_superposed(grid, h, curvature_coeff, a_snapped, force):
    """Solve the beam twice (unit reaction, pure load) and superpose.

    For a fixed reaction R the deflection is linear in R, so y = y_f + R*y_r
    where both pieces satisfy y(0) = y(L) = 0 and the interior stencils.
    The clamp slope condition y'(L) = 0 (one-sided second-order stencil)
    then fixes R.

    curvature_coeff[i] multiplies the bending moment at node i to give the
    curvature times the beam's rigidity: 0 on a rigid segment, 1 on the
    flexible one, and the average of the two one-sided values at the junction
    node (the curvature jumps there, and the central stencil sees the mean).
    The deflection is in units of 1/rigidity; the reaction does not scale.
    """
    n = grid.size
    ramp = np.arange(n, dtype=float) / (n - 1)  # the integer arange's quotient, bit for bit
    # Moment split: M(x) = R * x + force * max(x - a, 0). Each right-hand side is
    # h * h * coeff * moment, multiplied in that order: of two NaNs a product keeps the first.
    x_int = grid[1 : n - 1]
    rhs_load = x_int - a_snapped
    np.maximum(rhs_load, 0.0, out=rhs_load)
    np.multiply(force, rhs_load, out=rhs_load)
    rhs_unit = h * h * curvature_coeff[1 : n - 1]
    np.multiply(rhs_unit, rhs_load, out=rhs_load)
    rhs_unit *= x_int

    y_load = _integrate_twice(rhs_load, ramp)
    y_unit = _integrate_twice(rhs_unit, ramp)

    def clamp_slope(y):
        return 3 * y[n - 1] - 4 * y[n - 2] + y[n - 3]

    denom = clamp_slope(y_unit)
    if denom == 0:
        raise ValueError("clamp condition does not determine the reaction")
    r = -clamp_slope(y_load) / denom
    np.multiply(r, y_unit, out=y_unit)
    y_load += y_unit
    return y_load, r


def solve_fd(problem: BeamProblem, rigidity_ratio: float = math.inf) -> OracleSolution:
    """Solve the discretized beam.

    The mirror segment gets rigidity_ratio times the beam rigidity. The
    default, an infinite ratio, makes it exactly rigid (zero curvature); a
    large finite ratio confirms that the rigid idealization is insensitive
    to it. The beam is solved at unit rigidity and its deflection divided by
    the rigidity once, so the reaction has the same bits at any rigidity.
    The solve works on its arrays in place, with the operations of the plain
    expressions h * h * coeff * moment and y_load + r * y_unit in their
    order, so it has their bits.
    """
    n = problem.nodes
    grid = np.linspace(0.0, problem.span, n)
    h = problem.span / (n - 1)
    j = int(round(problem.a / h))
    j = min(max(j, 1), n - 2)
    a_snapped = grid[j]

    c_mirror = 1.0 / rigidity_ratio  # flexibilities relative to the beam's
    coeff = np.ones(n)
    coeff[:j] = c_mirror
    coeff[j] = 0.5 * (c_mirror + 1.0)

    y, r = _solve_superposed(grid, h, coeff, a_snapped, problem.force)
    y /= problem.rigidity
    return OracleSolution(reaction=r, grid=grid, deflection=y, a_snapped=a_snapped)


def profile_error(problem: BeamProblem, solution: OracleSolution) -> float:
    """Max-norm relative error of the oracle profile vs the closed form.

    The closed form is evaluated at the snapped junction so both sides
    solve the identical problem. Under a zero force the closed form is exactly
    zero and the error is the oracle's largest |deflection|. Under any other
    force, a closed form whose largest |deflection| is 0 or subnormal has
    underflowed, so nothing can be compared: ValueError.
    """
    x, a, span, force = solution.grid, solution.a_snapped, problem.span, problem.force
    if force == 0:
        return float(np.max(np.abs(solution.deflection)))
    slope = scanner._slope(force, a, span, problem.rigidity)
    k = int(np.searchsorted(x, a, side="right"))  # the mirror's nodes, x <= a: a is a node
    closed = np.empty_like(x)
    np.multiply(slope, x[:k], out=closed[:k])
    closed[k:] = scanner._beam(x[k:], slope, a, span)
    scale = float(np.max(np.abs(closed)))
    if scale < sys.float_info.min:
        raise ValueError(f"closed-form profile scale {scale!r} underflows; nothing to compare")
    np.subtract(solution.deflection, closed, out=closed)
    return float(np.max(np.abs(closed, out=closed)) / scale)


def convergence_study(problem: BeamProblem, node_counts: list[int]) -> list[float]:
    """Closed-form profile errors at each resolution, in the given order."""
    errors = []
    for n in node_counts:
        p = problem._replace(nodes=n)
        errors.append(profile_error(p, solve_fd(p)))
    return errors


def convergence_orders(node_counts: list[int], errors: list[float]) -> list[float]:
    """Observed log-log convergence slopes between successive refinements. An error of 0,
    as under a zero force, has no logarithm: ValueError naming its node count."""
    orders = []
    for (n0, e0), (n1, e1) in zip(zip(node_counts, errors), zip(node_counts[1:], errors[1:])):
        if e0 == 0 or e1 == 0:
            raise ValueError(f"profile error is 0 at {n0 if e0 == 0 else n1} nodes; "
                             "no convergence order")
        h_ratio = (n1 - 1) / (n0 - 1)
        orders.append(math.log(e0 / e1) / math.log(h_ratio))
    return orders
