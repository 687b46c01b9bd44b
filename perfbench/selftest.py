"""Self-test of the benchmark.

Usage (from the root of a source checkout): python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json at tiny sizes, untraced and traced, and
asserts that each metric BENCHMARK.json names is printed with its unit and a
finite value, and that no op failed (an error rate of 0). Then it feeds a
truncated profile CSV to the checker and asserts that the call is counted as
attempted and failed. Exits 1 and lists the problems if any assertion fails.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import checks
import run

SEED = 1
SMOKE_SECONDS = 2


def smoke(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SMOKE_SECONDS), "--trace", str(trace), "--smoke"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} --trace {trace} exited {proc.returncode}: "
                             f"{proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_metrics(spec: dict) -> list[str]:
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = f"{workload} --trace {trace}"
            result = smoke(workload, trace)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m.get("unit") for name, m in result["metrics"].items()}
            if got != want:
                mismatch = sorted(set(got.items()) ^ set(want.items()))
                problems.append(f"{label}: metrics/units differ: {mismatch}")
            for name, metric in result["metrics"].items():
                value = metric.get("value")
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{label}: {name} = {value!r}")
                elif trace == 0 and value <= 0:
                    problems.append(f"{label}: {name} = {value!r} is not positive")
            error_rate = result["failed"] / result["attempted"]
            if error_rate != 0 or not result["correct"]:
                problems.append(f"{label}: error_rate {error_rate:.3g} "
                                f"({result['failed']}/{result['attempted']})")
    return problems


def check_truncated_csv() -> list[str]:
    """A profile CSV cut short must be counted as one attempted, failed call."""
    workdir = run.ROOT / ".perfbench_work" / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        env = run.child_env()
        op = run.CliOps(SEED, workdir, run.SMOKE_SIZES).next("profile")
        _, proc = run.run_call(op.command(), env, workdir)
        whole = checks.Tally()
        run.account(op, proc, whole)
        if whole.failed:
            return [f"profile output failed its check before truncation: {whole.errors}"]
        text = op.out.read_text()
        op.out.write_text(text[: len(text) // 2])
        truncated = checks.Tally()
        run.account(op, proc, truncated)
        if (truncated.attempted, truncated.failed) != (1, 1):
            return [f"truncated CSV counted as {truncated.failed} failed "
                    f"of {truncated.attempted} attempted, want 1 of 1"]
        return []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = check_truncated_csv() + check_metrics(spec)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
