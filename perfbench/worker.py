"""api-design worker: one long-lived process that calls the library, as a design script does.

Usage: python worker.py --seed N --seconds S [--trace] [--smoke] [--setup-only]

Prints `READY` once imported and one checked warm-up op per kind is done.
Then it runs the op kinds round-robin, closed loop, for S seconds (none with
--setup-only) and prints one JSON line with the raw op times, their
reference times and the check tally. With --trace it instead runs a fixed
number of rounds, each op once untraced and once traced.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys
import time

START = time.perf_counter()

from checks import (  # noqa: E402
    CheckError, Tally, check_optimize, check_oracle, check_sweep_records,
)
from inputs import SECTION_INVARIANT_AXES, Inputs  # noqa: E402
from spans import IMPORT_MARKER, Tracer  # noqa: E402
from timing import loop_ref_ms  # noqa: E402

KINDS = ("optimize", "sweep", "oracle")
SIZES = {"optimize": 64, "sweep": 2000, "oracle": 20001}
SMOKE_SIZES = {"optimize": 16, "sweep": 50, "oracle": 2001}
TRACE_ROUNDS, SMOKE_TRACE_ROUNDS = 12, 2


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    print(IMPORT_MARKER, file=sys.stderr, flush=True)
    t0 = time.perf_counter()
    from piezoscanner import multimorph, oracle, sweep
    import_ms = (time.perf_counter() - t0) * 1e3

    sizes = SMOKE_SIZES if args.smoke else SIZES
    streams = {kind: Inputs(args.seed, f"api-{kind}") for kind in KINDS}
    tally = Tally()
    points = {"invariant": 0, "all": 0}

    def scan_config(design):
        d = design.si()
        return sweep.ScanConfig(
            substrate_E=d["Es"], piezo_E=d["Ep"], d31=d["d31"], substrate_t=d["ts"],
            piezo_t=d["tp"], beam_width=d["width"], beam_length=d["length"],
            mirror_side=d["mirror"], voltage=d["voltage"],
        )

    def make_op(kind: str, index: int):
        """Generate one op's input; return (call, check) closures."""
        stream = streams[kind]
        if kind == "oracle":
            design = stream.design()
            geometry = scan_config(design).geometry()

            def call():
                force = multimorph.equivalent_force(geometry.stack, design.voltage_V)
                rigidity = multimorph.equivalent_section(geometry.stack).rigidity
                problem = oracle.BeamProblem(span=geometry.half_span, a=geometry.a, force=force,
                                             rigidity=rigidity, nodes=sizes["oracle"])
                fd = oracle.solve_fd(problem)
                return fd.reaction, oracle.profile_error(problem, fd)

            return call, lambda result: check_oracle(design, *result)

        spec_in = stream.sweep(sizes[kind])
        spec = sweep.SweepSpec(base=scan_config(spec_in.design), axis=spec_in.axis,
                               start=spec_in.start, stop=spec_in.stop, steps=spec_in.steps)
        points["all"] += spec_in.steps
        points["invariant"] += spec_in.steps if spec_in.axis in SECTION_INVARIANT_AXES else 0
        if kind == "optimize":
            objective = ("tilt", "y_max")[index % 2]
            return (lambda: sweep.optimize_1d(spec, objective),
                    lambda result: check_optimize(spec_in, objective, result))
        seed = args.seed * 7919 + index
        return (lambda: sweep.run_sweep(spec),
                lambda result: check_sweep_records(spec_in, result, seed))

    def timed(kind: str, call, check) -> tuple[float, bool]:
        """Run one op closed loop; check it untimed; return (wall time in ms, ok)."""
        gc.collect()
        tally.attempted += 1
        start = time.perf_counter()
        try:
            result = call()
        except (ValueError, ArithmeticError) as exc:
            elapsed = (time.perf_counter() - start) * 1e3
            tally.fail(f"{kind}: {type(exc).__name__}: {exc}")
            return elapsed, False
        elapsed = (time.perf_counter() - start) * 1e3
        try:
            check(result)
        except CheckError as exc:
            tally.fail(f"{kind}: {exc}")
            return elapsed, False
        return elapsed, True

    counters = {kind: 0 for kind in KINDS}

    def next_op(kind: str):
        counters[kind] += 1
        return make_op(kind, counters[kind])

    # Warm-up: one op per kind, checked. It is part of set-up, and timed
    # against its own loop reference because it is in-process compute.
    warmup_ref_ms = loop_ref_ms()
    start = time.perf_counter()
    for kind in KINDS:
        timed(kind, *next_op(kind))
    warmup_ms = (time.perf_counter() - start) * 1e3
    print("READY", flush=True)

    raw = {kind: [] for kind in KINDS}
    refs: list[float] = []
    trace = None
    if args.trace and not args.setup_only:
        tracer = Tracer()
        untraced = traced = 0.0
        rounds = SMOKE_TRACE_ROUNDS if args.smoke else TRACE_ROUNDS
        for _ in range(rounds):
            for kind in KINDS:
                call, check = next_op(kind)
                untraced += timed(kind, call, check)[0]
                tracer.install()
                try:
                    traced += timed(kind, call, check)[0]
                finally:
                    tracer.uninstall()
            refs.append(loop_ref_ms())
        trace = dict(tracer.snapshot(), rounds=rounds, traced_ms=traced, untraced_ms=untraced)
    elif not args.setup_only:
        deadline = time.perf_counter() + args.seconds
        refs.append(loop_ref_ms())
        while time.perf_counter() < deadline:
            for kind in KINDS:
                elapsed, ok = timed(kind, *next_op(kind))
                raw[kind].append(elapsed if ok else math.inf)  # a failed op misses any limit
            refs.append(loop_ref_ms())

    print(json.dumps({
        "start": START, "import_ms": import_ms, "raw_ms": raw, "refs_ms": refs,
        "warmup_ms": warmup_ms, "warmup_ref_ms": warmup_ref_ms,
        **tally.as_dict(),
        "points": points, "trace": trace,
        "units": {"optimize": 1, "sweep": sizes["sweep"], "oracle": sizes["oracle"]},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
