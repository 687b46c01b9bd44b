#!/usr/bin/env python3
"""Grid-refinement study of the finite-difference beam solver against the
closed-form profile of the reference design.

It prints the max-norm error and the observed order at five resolutions
(101 to 1,601 nodes). `piezoscanner verify` reduces the same study to one
number, the smallest order over 101/201/401 nodes; this table shows the
error falling by ~4x per halving of the grid step across the whole range.
"""

from piezoscanner import reference_config, solve_scanner
from piezoscanner.oracle import BeamProblem, convergence_orders, convergence_study


def main():
    force, rigidity, a, span, *_ = solve_scanner(*reference_config())
    problem = BeamProblem(span=span, a=a, force=force, rigidity=rigidity)
    counts = [101, 201, 401, 801, 1601]
    errors = convergence_study(problem, counts)
    orders = [None] + convergence_orders(counts, errors)
    print(f"{'nodes':>6} {'max-norm rel error':>19} {'order':>6}")
    for n, err, order in zip(counts, errors, orders):
        print(f"{n:>6} {err:>19.3e} {'' if order is None else f'{order:>6.3f}'}")


if __name__ == "__main__":
    main()
