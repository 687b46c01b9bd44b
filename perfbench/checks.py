"""Output checks. A failed check counts the op as failed; ops are never retried.

The expected values come from the paper's scalar closed forms, written out
here rather than imported, so the checks stay independent of the code under
test and of its internal API: the equivalent force (3/2) W t_p E_p d31 V / L,
the transformed section, and the propped half-beam's reaction, tilt and
largest deflection. The CSV holds 9 significant digits, so values are
compared at a relative tolerance of REL_TOL; a reordered but equivalent
computation (for example a batched evaluation) passes, while a wrong value
does not. No check compares bytes against a golden file.
"""

from __future__ import annotations

import math
import random

from inputs import Design, SweepInput, reference_design

REL_TOL = 1e-7  # 20x the 5e-9 rounding of a 9-significant-digit CSV field
ORACLE_TOL = 5e-3  # the oracle's stated agreement with the closed form
SPOT_CHECKS = 16  # seeded sample of sweep rows compared with the closed forms


MAX_ERRORS = 5  # error messages kept per run


class CheckError(Exception):
    pass


class Tally:
    """Ops attempted and failed; a failed op is counted once and never retried."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(message)

    def as_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed, "errors": self.errors}

    def merge(self, other: dict) -> None:
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        self.errors.extend(other["errors"][: MAX_ERRORS - len(self.errors)])


def closed_form(design: Design) -> dict[str, float]:
    """Force, rigidity, reaction, tilt and largest deflection of one design (SI)."""
    d = design.si()
    es, ep, ts, tp = d["Es"], d["Ep"], d["ts"], d["tp"]
    force = 1.5 * d["width"] * tp * ep * d["d31"] * d["voltage"] / d["length"]

    e_ref = max(es, ep)
    layers = ((es, ts, ts / 2), (ep, tp, ts + tp / 2), (ep, tp, ts + 1.5 * tp))
    areas = [e / e_ref * t for e, t, _ in layers]
    h_eq = sum(s * h for s, (_, _, h) in zip(areas, layers)) / sum(areas)
    i_eq = d["width"] * sum(e / e_ref * (t**3 / 12 + t * (h_eq - h) ** 2) for e, t, h in layers)
    rigidity = e_ref * i_eq

    a = d["mirror"] / 2
    span = a + d["length"]
    den = 4 * rigidity * (a * a + span * a + span * span)
    reaction = -force * (a**3 - 3 * a * span**2 + 2 * span**3) / (2 * span**3 - 2 * a**3)
    tilt = math.atan(force * a * (span - a) ** 3 / den)

    def beam(x: float) -> float:
        bracket = ((a + span) * x**3 + x**2 * (-2 * span**2 - 2 * a**2 - 2 * a * span)
                   + x * (span**3 + 4 * a**2 * span + a * span**2) - 2 * a**2 * span**2)
        return force * a * bracket / den

    # Largest |y| on the flexible segment: the junction or the interior
    # stationary point of the cubic branch.
    qa = 3 * (a + span)
    qb = -2 * (2 * span**2 + 2 * a**2 + 2 * a * span)
    qc = span**3 + 4 * a**2 * span + a * span**2
    y_max, x_at = abs(beam(a)), a
    disc = qb * qb - 4 * qa * qc
    if disc >= 0:
        for root in ((-qb - math.sqrt(disc)) / (2 * qa), (-qb + math.sqrt(disc)) / (2 * qa)):
            if a < root < span * (1 - 1e-12) and abs(beam(root)) > y_max:
                y_max, x_at = abs(beam(root)), root
    return {"force": force, "rigidity": rigidity, "reaction": reaction, "tilt": tilt,
            "y_max": y_max, "x_at_ymax": x_at, "a": a, "span": span}


def _close(name: str, got: float, want: float, tol: float = REL_TOL) -> None:
    if not (math.isfinite(got) and abs(got - want) <= tol * abs(want)):
        raise CheckError(f"{name}: got {got!r}, closed form {want!r} (rel tol {tol})")


def _csv(text: str, header: str) -> list[list[str]]:
    if not text.endswith("\n"):
        raise CheckError("CSV does not end with a newline (truncated?)")
    lines = text.split("\n")[:-1]
    if not lines or lines[0] != header:
        raise CheckError(f"CSV header {lines[0] if lines else ''!r}, want {header!r}")
    width = header.count(",") + 1
    rows = [line.split(",") for line in lines[1:]]
    for row in rows:
        if len(row) != width:
            raise CheckError(f"CSV row has {len(row)} fields, want {width}: {row!r}")
    return rows


def _float(field: str) -> float:
    try:
        return float(field)
    except ValueError:
        raise CheckError(f"not a number: {field!r}") from None


def _check_record(label: str, design: Design, tilt_deg: float, y_max_m: float,
                  force_n: float, reaction_n: float) -> None:
    want = closed_form(design)
    _close(f"{label} tilt", tilt_deg, math.degrees(abs(want["tilt"])))
    _close(f"{label} y_max", y_max_m, want["y_max"])
    _close(f"{label} force", abs(force_n), abs(want["force"]))
    _close(f"{label} reaction", reaction_n, want["reaction"])


MODEL_HEADER = "phi_deg,y_max_um,x_at_ymax_um,F_uN,R_A_uN,rigidity_Nm2"
SWEEP_HEADER = "param_name,param_value_si,phi_deg,y_max_um,F_uN,R_A_uN,status"
PROFILE_HEADER = "x_um,y_um"


def check_model(design: Design, stdout: str, csv_text: str) -> None:
    rows = _csv(csv_text, MODEL_HEADER)
    if len(rows) != 1:
        raise CheckError(f"model CSV has {len(rows)} rows, want 1")
    phi, y_max, x_at, force, reaction, rigidity = (_float(f) for f in rows[0])
    _check_record("model", design, phi, y_max * 1e-6, force * 1e-6, reaction * 1e-6)
    want = closed_form(design)
    _close("model x_at_ymax", x_at * 1e-6, want["x_at_ymax"])
    _close("model rigidity", rigidity, want["rigidity"])
    if f"phi_deg={rows[0][0]} " not in stdout:
        raise CheckError("model summary line does not match the CSV")


def _spot_indices(n: int, seed: int) -> list[int]:
    """Both ends plus a seeded sample of SPOT_CHECKS sweep points."""
    picks = random.Random(seed).sample(range(n), min(SPOT_CHECKS, n))
    return sorted(set(picks) | {0, n - 1})


def check_sweep_rows(sweep: SweepInput, csv_text: str, seed: int) -> None:
    rows = _csv(csv_text, SWEEP_HEADER)
    grid = sweep.grid()
    if len(rows) != len(grid):
        raise CheckError(f"sweep CSV has {len(rows)} rows, want {len(grid)}")
    bad = [row for row in rows if row[0] != sweep.axis or row[6] != "ok"]
    if bad:
        raise CheckError(f"{len(bad)} sweep rows not ok, first {bad[0]!r}")
    for i in _spot_indices(len(grid), seed):
        row = rows[i]
        _close(f"sweep row {i} param", _float(row[1]), grid[i])
        _check_record(f"sweep row {i}", sweep.design.with_axis(sweep.axis, grid[i]),
                      _float(row[2]), _float(row[3]) * 1e-6, _float(row[4]) * 1e-6,
                      _float(row[5]) * 1e-6)


def check_sweep_records(sweep: SweepInput, records, seed: int) -> None:
    """`sweep.run_sweep` records: every point ok, a seeded sample at the closed form."""
    grid = sweep.grid()
    if len(records) != len(grid):
        raise CheckError(f"run_sweep gave {len(records)} records, want {len(grid)}")
    failed = [rec for rec in records if not rec.ok]
    if failed:
        raise CheckError(f"{len(failed)} sweep points failed, first {failed[0].status!r}")
    for i in _spot_indices(len(grid), seed):
        rec = records[i]
        _close(f"record {i} param", rec.param_value, grid[i])
        _check_record(f"record {i}", sweep.design.with_axis(sweep.axis, grid[i]),
                      rec.tilt_deg, rec.y_max_m, rec.force_N, rec.reaction_N)


TABLE1_LENGTHS_UM = (850.0, 600.0, 500.0)


def check_table1(stdout: str, csv_text: str) -> None:
    rows = _csv(csv_text, SWEEP_HEADER)
    if len(rows) != len(TABLE1_LENGTHS_UM):
        raise CheckError(f"table1 CSV has {len(rows)} rows, want {len(TABLE1_LENGTHS_UM)}")
    for row, length in zip(rows, TABLE1_LENGTHS_UM):
        if row[0] != "beam_length" or row[6] != "ok":
            raise CheckError(f"table1 row not ok: {row!r}")
        _close("table1 beam_length", _float(row[1]), length * 1e-6)
        _check_record(f"table1 {length:g} um", reference_design(length), _float(row[2]),
                      _float(row[3]) * 1e-6, _float(row[4]) * 1e-6, _float(row[5]) * 1e-6)
    if stdout.count("phi_deg=") != len(TABLE1_LENGTHS_UM):
        raise CheckError("table1 printed the wrong number of summary lines")


def check_profile(design: Design, samples: int, csv_text: str) -> None:
    """Row count, clamped (zero) ends and exact antisymmetry y(u) = -y(2L - u)."""
    rows = _csv(csv_text, PROFILE_HEADER)
    n = samples + 1 if samples % 2 == 0 else samples
    if len(rows) != n:
        raise CheckError(f"profile CSV has {len(rows)} rows, want {n}")
    if _float(rows[0][1]) != 0.0 or _float(rows[-1][1]) != 0.0:
        raise CheckError("profile end deflections are not exactly 0")
    _close("profile x_end", _float(rows[-1][0]) * 1e-6, 2 * closed_form(design)["span"])
    if _float(rows[0][0]) != 0.0:
        raise CheckError("profile does not start at x = 0")
    try:
        y = [float(row[1]) for row in rows]
    except ValueError as exc:
        raise CheckError(f"profile: {exc}") from None
    bad = next((i for i in range(n // 2) if y[i] != -y[n - 1 - i]), None)
    if bad is not None:
        raise CheckError(f"profile not antisymmetric at rows {bad} and {n - 1 - bad}")


def check_verify(returncode: int, stdout: str) -> None:
    lines = [line for line in stdout.splitlines() if line and not line.startswith("assumed")]
    if returncode != 0:
        raise CheckError(f"verify exited {returncode}")
    if not lines or not all(line.endswith(" PASS") for line in lines):
        raise CheckError(f"verify printed a line that is not PASS: {stdout!r}")


def check_optimize(sweep: SweepInput, objective: str, result) -> None:
    """The optimum is at least the best grid sample and matches the closed form there."""
    best_x, best_f = result

    def value(design: Design) -> float:
        cf = closed_form(design)
        return math.degrees(abs(cf["tilt"])) if objective == "tilt" else cf["y_max"]

    grid_best = max(value(sweep.design.with_axis(sweep.axis, x)) for x in sweep.grid())
    if not best_f >= grid_best * (1 - REL_TOL):
        raise CheckError(f"optimize_1d returned {best_f!r} below the grid best {grid_best!r}")
    if not sweep.start <= best_x <= sweep.stop:
        raise CheckError(f"optimize_1d optimum {best_x!r} outside the range")
    _close("optimize_1d objective", best_f, value(sweep.design.with_axis(sweep.axis, best_x)))


def check_oracle(design: Design, reaction: float, error: float) -> None:
    if not error <= ORACLE_TOL:
        raise CheckError(f"profile_error {error!r} above {ORACLE_TOL}")
    _close("oracle reaction", reaction, closed_form(design)["reaction"], ORACLE_TOL)
