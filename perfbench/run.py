"""piezoscanner benchmark: three workloads, end-to-end metrics, a traced per-layer run.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload {cli-oneshot,cli-bulk,api-design}
                             --seed N --seconds S --trace {0,1} [--smoke]

The program under test is the checkout's own `src/`, run as
`python -m piezoscanner.cli` in fresh processes or imported by one
long-lived worker. Load is closed loop: one client, one op in flight. Op
kinds run round-robin, each with its own seeded inputs, and every output is
checked (see checks.py); a failed check counts the op as failed and is never
retried. `model` and `profile` pass over the designs that a known program
defect makes fail (see README.md); the detail line counts them. With
--trace 0 the last stdout line holds the end-to-end metrics, with --trace 1
the per-layer ones; the line before it holds the details (raw times,
reference times, versions, per-kind summaries). --smoke shrinks every size
for the self-test. See README.md for the workload rationale.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import checks
import timing
from inputs import SECTION_INVARIANT_AXES, Inputs, hits_center_rounding_defect, reference_design
from spans import IMPORT_MARKER, parse_importtime

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

CLI_WORKLOADS = {
    # Op kinds of one round, in order; `import` is the setup probe.
    "cli-oneshot": ("model", "table1", "model", "verify", "import"),
    "cli-bulk": ("sweep", "profile", "import"),
}
LEAD_KIND = {"cli-oneshot": "model", "cli-bulk": "sweep", "api-design": "optimize"}
MODEL_SAMPLES = 401  # the samples `model` solves with (the CLI default)
SIZES = {"sweep": 20000, "profile": 200001, "verify": 2001}
SMOKE_SIZES = {"sweep": 200, "profile": 2001, "verify": 201}
DEFECT_PROBE_LENGTH_UM = 169.0  # Scanner A at this length hits the known defect
CLI_TRACE_ROUNDS = 2
API_SETUP_SPAWNS, SMOKE_API_SETUP_SPAWNS = 5, 2
CALL_TIMEOUT_S = 100

# Work units per op, for the per-kind rates in the details.
RATE_NAMES = {
    ("cli-bulk", "sweep"): "sweep_points_per_s",
    ("cli-bulk", "profile"): "profile_samples_per_s",
    ("api-design", "sweep"): "sweep_points_per_s",
    ("api-design", "optimize"): "optimize_per_s",
    ("api-design", "oracle"): "oracle_nodes_per_s",
}

END_TO_END = {
    "call_p50_ms": "ms",
    "kinds_p50_geomean_ms": "ms",
    "setup_s": "s",
}

SPAN_METRICS = (
    ("config.parse_config", ("calls", "self_ms")),
    ("multimorph.equivalent_force", ("calls", "self_ms")),
    ("multimorph.equivalent_section", ("calls", "self_ms")),
    ("multimorph.solve_curvature", ("calls", "self_ms")),
    ("scanner.solve_scanner", ("calls", "self_ms")),
    ("sweep.run_sweep", ("calls", "self_ms")),
    ("sweep.optimize_1d", ("calls", "self_ms")),
    ("sweep.evaluate_point", ("calls",)),
    ("oracle.solve_fd", ("calls", "self_ms")),
    ("oracle.profile_error", ("calls", "self_ms")),
    ("cli.run", ("self_ms",)),
)
COUNT_METRICS = ("scanner.solve_scanner.samples", "sweep.run_sweep.points",
                 "sweep.failed_points", "oracle.solve_fd.nodes")


def per_layer_units() -> dict[str, str]:
    units = {"interp.start_ms": "ms", "interp.exit_ms": "ms", "import.numpy_ms": "ms",
             "import.scipy_ms": "ms", "import.piezoscanner_ms": "ms"}
    for name, fields in SPAN_METRICS:
        for field in fields:
            units[f"{name}.{field}"] = "ms" if field == "self_ms" else "count"
    units.update({name: "count" for name in COUNT_METRICS})
    units.update({"cli.bytes_written": "bytes", "bench.ref_loop_ms": "ms",
                  "trace.overhead_pct": "%", "trace.coverage_pct": "%"})
    return units


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


class CliOp:
    """One CLI call: its argv, output file, work units and output check."""

    def __init__(self, kind: str, argv: list[str], out: Path | None, units: int, check):
        self.kind, self.argv, self.out, self.units, self._check = kind, argv, out, units, check

    def command(self) -> list[str]:
        if self.kind == "import":
            return [sys.executable, "-c", "import piezoscanner.cli"]
        return [sys.executable, "-m", "piezoscanner.cli", *self.argv]

    def verify(self, proc: subprocess.CompletedProcess) -> None:
        if proc.returncode != 0 and self.kind != "verify":
            raise checks.CheckError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
        output = ""
        if self.out is not None:
            try:
                output = self.out.read_text()
            except OSError as exc:
                raise checks.CheckError(f"no output file: {exc}") from None
        self._check(proc, output)


class CliOps:
    """Seeded CLI ops, one independent input stream per kind."""

    def __init__(self, seed: int, workdir: Path, sizes: dict[str, int]):
        self.seed, self.workdir, self.sizes = seed, workdir, sizes
        self.streams: dict[str, Inputs] = {}
        self.counts: dict[str, int] = {}
        self.points = {"invariant": 0, "all": 0}
        self.defect_skips: dict[str, int] = {}

    def next(self, kind: str) -> CliOp:
        stream = self.streams.setdefault(kind, Inputs(self.seed, f"cli-{kind}"))
        index = self.counts[kind] = self.counts.get(kind, 0) + 1
        out = self.workdir / f"{kind}.csv"
        if out.exists():
            out.unlink()
        if kind == "import":
            return CliOp(kind, [], None, 1, lambda proc, text: None)
        if kind == "verify":
            return CliOp(kind, ["verify", "--nodes", str(self.sizes["verify"])], None, 1,
                         lambda proc, text: checks.check_verify(proc.returncode, proc.stdout))
        if kind == "table1":
            self._count_points("beam_length", len(checks.TABLE1_LENGTHS_UM))
            return CliOp(kind, ["table1", "--out", str(out)], out, 3,
                         lambda proc, text: checks.check_table1(proc.stdout, text))
        if kind == "sweep":
            sweep = stream.sweep(self.sizes["sweep"])
            self._count_points(sweep.axis, sweep.steps)
            config = self._config(kind, sweep.design)
            seed = self.seed * 7919 + index
            argv = ["sweep", "--config", config, "--axis", sweep.axis, f"--from={sweep.start!r}",
                    f"--to={sweep.stop!r}", "--steps", str(sweep.steps), "--out", str(out)]
            return CliOp(kind, argv, out, sweep.steps,
                         lambda proc, text: checks.check_sweep_rows(sweep, text, seed))
        # Half the designs use registry materials, half explicit constants.
        samples = self.sizes["profile"] if kind == "profile" else MODEL_SAMPLES
        design, skipped = stream.solvable_design(index % 2 == 0, samples)
        self.defect_skips[kind] = self.defect_skips.get(kind, 0) + skipped
        config = self._config(kind, design)
        if kind == "profile":
            argv = ["profile", "--config", config, "--samples", str(samples), "--out", str(out)]
            return CliOp(kind, argv, out, samples,
                         lambda proc, text: checks.check_profile(design, samples, text))
        argv = ["model", "--config", config, "--out", str(out)]
        return CliOp(kind, argv, out, 1,
                     lambda proc, text: checks.check_model(design, proc.stdout, text))

    def _config(self, kind: str, design) -> str:
        path = self.workdir / f"{kind}.cfg"
        path.write_text(design.config_text())
        return str(path)

    def _count_points(self, axis: str, steps: int) -> None:
        self.points["all"] += steps
        self.points["invariant"] += steps if axis in SECTION_INVARIANT_AXES else 0


def run_call(command: list[str], env: dict, cwd: Path) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    try:
        proc = subprocess.run(command, env=env, cwd=cwd, capture_output=True, text=True,
                              timeout=CALL_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        proc = subprocess.CompletedProcess(command, -9, exc.stdout or "", "timed out")
    return (time.perf_counter() - start) * 1e3, proc


def account(op: CliOp, proc: subprocess.CompletedProcess, tally: checks.Tally) -> bool:
    """Check one finished op and count it: attempted, and failed if a check fails."""
    tally.attempted += 1
    try:
        op.verify(proc)
    except checks.CheckError as exc:
        tally.fail(f"{op.kind}: {exc}")
        return False
    return True


def execute(op: CliOp, command: list[str], tally: checks.Tally, env: dict, cwd: Path):
    """Run one CLI op closed loop (timed), then check it (untimed); return (ms, proc, ok)."""
    wall_ms, proc = run_call(command, env, cwd)
    return wall_ms, proc, account(op, proc, tally)


def kind_summaries(workload: str, raw: dict, scaled: dict, units: dict) -> dict:
    out = {}
    for kind in raw:
        if not raw[kind]:
            continue
        entry = timing.summary(raw[kind], scaled[kind])
        entry["raw_ms"] = [ms if math.isfinite(ms) else None for ms in raw[kind]]
        rate = RATE_NAMES.get((workload, kind))
        if rate:
            entry[rate] = units[kind] / (entry["p50_ms"] / 1e3)
        out[kind] = entry
    return out


def end_to_end(workload: str, kinds: dict, setup_scaled_ms: list[float]) -> dict:
    return {
        "call_p50_ms": kinds[LEAD_KIND[workload]]["p50_ms"],
        "kinds_p50_geomean_ms": timing.geomean([k["p50_ms"] for k in kinds.values()]),
        "setup_s": statistics.median(setup_scaled_ms) / 1e3,
    }


def defect_probe(workdir: Path, env: dict) -> dict:
    """Untimed: does `model` still fail on the design that shows the known defect?"""
    design = reference_design(DEFECT_PROBE_LENGTH_UM)
    assert hits_center_rounding_defect(design, MODEL_SAMPLES)
    config = workdir / "probe.cfg"
    config.write_text(design.config_text())
    _, proc = run_call([sys.executable, "-m", "piezoscanner.cli", "model", "--config",
                        str(config), "--out", str(workdir / "probe.csv")], env, workdir)
    return {"design": f"Scanner A, beam_length_um = {DEFECT_PROBE_LENGTH_UM:g}",
            "model_exit": proc.returncode, "still_fails": proc.returncode != 0}


def run_cli(workload: str, args, workdir: Path, env: dict,
            tally: checks.Tally) -> tuple[dict, dict]:
    ops = CliOps(args.seed, workdir, SMOKE_SIZES if args.smoke else SIZES)
    kinds = CLI_WORKLOADS[workload]
    for kind in dict.fromkeys(kinds):  # untimed warm-up: bytecode caches, page cache
        op = ops.next(kind)
        execute(op, op.command(), tally, env, workdir)

    if args.trace:
        return run_cli_traced(workload, args, ops, workdir, env, tally)

    raw = {kind: [] for kind in kinds}
    refs = {kind: [] for kind in kinds}
    units = {}
    ref_ms = [timing.proc_ref_ms(env)]
    deadline = time.perf_counter() + args.seconds
    while time.perf_counter() < deadline:  # whole rounds, so every kind is sampled
        for kind in kinds:
            op = ops.next(kind)
            wall_ms, _, ok = execute(op, op.command(), tally, env, workdir)
            ref_ms.append(timing.proc_ref_ms(env))
            raw[kind].append(wall_ms if ok else math.inf)
            refs[kind].append((ref_ms[-2] + ref_ms[-1]) / 2)
            units[kind] = op.units
    scaled = {k: timing.rescale(raw[k], refs[k], timing.NOMINAL_PROC_REF_MS) for k in kinds}
    setup = scaled.pop("import")
    raw_setup = raw.pop("import")
    summaries = kind_summaries(workload, raw, scaled, units)
    detail = {"kinds": summaries, "setup_ms": {"raw": raw_setup, "scaled": setup},
              "bench.ref_loop_ms": statistics.median(ref_ms), "ref_ms": ref_ms,
              "ref": "python -I -S -c pass, median of 3",
              "nominal_ref_ms": timing.NOMINAL_PROC_REF_MS, "points": ops.points,
              "known_defect": {"designs_skipped": ops.defect_skips,
                               "probe": defect_probe(workdir, env)}}
    return end_to_end(workload, summaries, setup), detail


def run_cli_traced(workload, args, ops: CliOps, workdir: Path, env: dict, tally: checks.Tally):
    """Each op once untraced and once as a traced replay of cli.run(argv)."""
    kinds = [k for k in CLI_WORKLOADS[workload] if k != "import"]
    rounds = 1 if args.smoke else CLI_TRACE_ROUNDS
    trace_path = workdir / "trace.json"
    procs, spans = [], {"calls": {}, "self_s": {}, "counts": {}, "absent": []}
    untraced = traced = 0.0
    bytes_written = 0
    ref_ms = [timing.proc_ref_ms(env)]
    for _ in range(rounds):
        for kind in kinds:
            op = ops.next(kind)
            wall_ms, _, _ = execute(op, op.command(), tally, env, workdir)
            untraced += wall_ms
            if op.out is not None and op.out.exists():
                op.out.unlink()
            if trace_path.exists():
                trace_path.unlink()
            command = [sys.executable, "-X", "importtime", str(BENCH / "replay.py"),
                       str(trace_path), *op.argv]
            spawn = time.perf_counter()
            wall_ms, proc, ok = execute(op, command, tally, env, workdir)
            traced += wall_ms
            try:
                record = json.loads(trace_path.read_text())
            except (OSError, ValueError) as exc:
                if ok:  # a failed op is already counted
                    tally.fail(f"{kind} replay wrote no trace: {exc}")
                continue
            if op.out is not None and op.out.exists():
                bytes_written += op.out.stat().st_size
            imports = parse_importtime(proc.stderr, IMPORT_MARKER)
            procs.append({"wall_ms": wall_ms, "start_ms": (record["start"] - spawn) * 1e3,
                          "import_ms": record["import_ms"], "imports": imports,
                          "cli_run_ms": _span_total(record),
                          "exit_ms": wall_ms - (record["end"] - spawn) * 1e3})
            _merge_spans(spans, record)
        ref_ms.append(timing.proc_ref_ms(env))
    covered = sum(p["start_ms"] + p["import_ms"] + p["cli_run_ms"] + p["exit_ms"] for p in procs)
    layers = layer_metrics(spans, rounds, procs)
    layers.update({
        "cli.bytes_written": bytes_written / rounds,
        "bench.ref_loop_ms": statistics.median(ref_ms),
        "trace.overhead_pct": (traced - untraced) / untraced * 100,
        "trace.coverage_pct": covered / sum(p["wall_ms"] for p in procs) * 100,
    })
    detail = {"rounds": rounds, "absent": spans["absent"], "traced_ms": traced,
              "untraced_ms": untraced, "processes": procs, "points": ops.points,
              "known_defect": {"designs_skipped": ops.defect_skips}}
    return layers, detail


def _span_total(record: dict) -> float:
    """Wall time (ms) under the outermost spans: the sum of every self time."""
    return sum(record["self_s"].values()) * 1e3


def _merge_spans(into: dict, record: dict) -> None:
    for key in ("calls", "self_s", "counts"):
        for name, value in record[key].items():
            into[key][name] = into[key].get(name, 0) + value
    into["absent"] = sorted(set(into["absent"]) | set(record["absent"]))


def layer_metrics(spans: dict, rounds: int, procs: list[dict]) -> dict:
    """Per-layer values: import layers per process, spans and counts per round."""
    def mean(values):
        return statistics.fmean(values) if values else 0.0

    numpy_ms = [p["imports"].get("numpy", 0.0) for p in procs]
    scipy_ms = [p["imports"].get("scipy", 0.0) for p in procs]
    out = {
        "interp.start_ms": mean([p["start_ms"] for p in procs]),
        "interp.exit_ms": mean([p["exit_ms"] for p in procs if "exit_ms" in p]),
        "import.numpy_ms": mean(numpy_ms),
        "import.scipy_ms": mean(scipy_ms),
        "import.piezoscanner_ms": mean([p["import_ms"] - n - s
                                       for p, n, s in zip(procs, numpy_ms, scipy_ms)]),
    }
    for name, fields in SPAN_METRICS:
        for field in fields:
            if field == "calls":
                out[f"{name}.calls"] = spans["calls"].get(name, 0) / rounds
            else:
                out[f"{name}.self_ms"] = spans["self_s"].get(name, 0.0) * 1e3 / rounds
    for name in COUNT_METRICS:
        out[name] = spans["counts"].get(name, 0) / rounds
    return out


def spawn_worker(args, env: dict, workdir: Path, setup_only: bool, index: int):
    """Start the api-design worker; return (process, setup seconds, spawn time, stderr path)."""
    command = [sys.executable]
    if args.trace:
        command += ["-X", "importtime"]
    command += [str(BENCH / "worker.py"), "--seed", str(args.seed), "--seconds", str(args.seconds)]
    command += ["--trace"] * bool(args.trace) + ["--smoke"] * args.smoke
    command += ["--setup-only"] * setup_only
    stderr_path = workdir / f"worker-{index}.err"
    with open(stderr_path, "w") as stderr:
        spawn = time.perf_counter()
        proc = subprocess.Popen(command, env=env, cwd=workdir, stdout=subprocess.PIPE,
                                stderr=stderr, text=True)
    line = proc.stdout.readline()
    setup_ms = (time.perf_counter() - spawn) * 1e3
    return proc, setup_ms if line.strip() == "READY" else None, spawn, stderr_path


def finish_worker(proc: subprocess.Popen, stderr_path: Path) -> dict:
    try:
        # Read through the same buffered reader as the READY line: communicate()
        # would read the pipe directly and lose lines that reader already holds.
        out = proc.stdout.read()
        proc.wait(timeout=CALL_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = stderr_path.read_text()[-500:]
        raise RuntimeError(f"api-design worker exited {proc.returncode}: {tail}")
    return json.loads(lines[-1])


def run_api(args, workdir: Path, env: dict, tally: checks.Tally) -> tuple[dict, dict]:
    spawns = SMOKE_API_SETUP_SPAWNS if args.smoke else API_SETUP_SPAWNS
    setup_raw, setup_scaled = [], []
    ref_ms = [timing.proc_ref_ms(env)]
    for index in range(spawns):
        last = index == spawns - 1
        proc, setup_ms, spawn, stderr_path = spawn_worker(args, env, workdir, not last, index)
        if setup_ms is None:
            finish_worker(proc, stderr_path)
            raise RuntimeError("api-design worker did not become ready")
        ref_ms.append(timing.proc_ref_ms(env))
        result = finish_worker(proc, stderr_path)
        tally.merge(result)
        # Process start and import scale with the process reference, the
        # warm-up ops with the in-process loop reference timed just before them.
        warmup_ms = result["warmup_ms"]
        setup_raw.append(setup_ms)
        setup_scaled.append(
            (setup_ms - warmup_ms) / ((ref_ms[-2] + ref_ms[-1]) / 2) * timing.NOMINAL_PROC_REF_MS
            + warmup_ms / result["warmup_ref_ms"] * timing.NOMINAL_LOOP_REF_MS)

    if args.trace:  # the import layers of the last worker, which ran the traced ops
        trace = result["trace"]
        procs = [{"start_ms": (result["start"] - spawn) * 1e3, "import_ms": result["import_ms"],
                  "imports": parse_importtime(stderr_path.read_text(), IMPORT_MARKER)}]
        layers = layer_metrics(trace, trace["rounds"], procs)
        covered_ms = sum(trace["self_s"].values()) * 1e3
        layers.update({
            "cli.bytes_written": 0.0,
            "bench.ref_loop_ms": statistics.median(result["refs_ms"]),
            "trace.overhead_pct": (trace["traced_ms"] - trace["untraced_ms"])
            / trace["untraced_ms"] * 100,
            "trace.coverage_pct": covered_ms / trace["traced_ms"] * 100,
        })
        detail = {"rounds": trace["rounds"], "absent": trace["absent"],
                  "traced_ms": trace["traced_ms"], "untraced_ms": trace["untraced_ms"],
                  "points": result["points"]}
        return layers, detail

    loop_refs = result["refs_ms"]
    raw, scaled = result["raw_ms"], {}
    for kind, times in raw.items():
        round_refs = [(loop_refs[i] + loop_refs[i + 1]) / 2 for i in range(len(times))]
        scaled[kind] = timing.rescale(times, round_refs, timing.NOMINAL_LOOP_REF_MS)
    summaries = kind_summaries("api-design", raw, scaled, result["units"])
    detail = {"kinds": summaries, "setup_ms": {"raw": setup_raw, "scaled": setup_scaled},
              "bench.ref_loop_ms": statistics.median(loop_refs), "ref_ms": loop_refs,
              "ref": f"{timing.LOOP_REF_SOLVES} 4x4 numpy solves + "
                     f"{len(timing.LOOP_REF_DESIGNS)} closed forms",
              "nominal_ref_ms": timing.NOMINAL_LOOP_REF_MS, "setup_ref_ms": ref_ms,
              "points": result["points"]}
    return end_to_end("api-design", summaries, setup_scaled), detail


def versions() -> dict:
    found = {"python": platform.python_version(), "nproc": os.cpu_count()}
    for package in ("numpy", "scipy"):
        try:
            found[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            found[package] = "absent"
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*CLI_WORKLOADS, "api-design"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    args = parser.parse_args()

    if not (SRC / "piezoscanner" / "cli.py").is_file():
        print(f"perfbench: no piezoscanner source tree at {SRC}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    env = child_env()
    tally = checks.Tally()
    try:
        if args.workload == "api-design":
            metrics, detail = run_api(args, workdir, env, tally)
        else:
            metrics, detail = run_cli(args.workload, args, workdir, env, tally)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run's work directory is still there

    points = detail["points"]
    detail.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, versions=versions(), errors=tally.errors,
                  section_invariant_share=(points["invariant"] / points["all"]
                                           if points["all"] else None))
    units = per_layer_units() if args.trace else END_TO_END
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
