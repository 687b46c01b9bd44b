"""Command-line front end: model evaluation, CSV export, verification.

Exit codes: 0 success, 1 config/CLI error, 2 numerical or verification
failure. Errors go to stderr with stable prefixes ("config:", "numeric:",
"verify:"). All CSV output is written atomically (temp file + rename) and
is byte-stable for identical inputs.

The console entry, :func:`main`, ends the process itself once the `atexit`
hooks have run and stdout and stderr are flushed, skipping the interpreter's
teardown. In-process callers use :func:`run`, which returns the exit code.
"""

from __future__ import annotations

import argparse
import atexit
import itertools
import math
import os
import sys

from . import multimorph, scanner, sweep as sweep_mod
from .config import ConfigError, parse_config

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERIC = 2
# Bounds on a command's run time: 10x the largest benchmarked profile and sweep. Both
# stream their rows 1,024 at a time. A sweep's memory does not grow with --steps; a
# profile keeps its left-half ordinates in an array for the right half, 8 bytes a sample,
# about 8 MB at MAX_SAMPLES.
MAX_SAMPLES = 2_000_001  # profile samples and verify nodes
# The fewest verify nodes: the coarsest grid of verify's own convergence study, where the
# oracle lines pass the correct model with about 18x headroom.
MIN_NODES = 101
MAX_STEPS = 200_000  # sweep points


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage errors on our config/CLI exit code."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"config: {self.prog}: {message}\n")


def _fmt(value: float) -> str:
    """Render a number with 9 significant digits, in the format of every CSV row template."""
    return "%.9g" % value


def _write_atomic(path: str, header: str, pieces) -> None:
    """Write the header line, then the string pieces as they arrive, to a new temp file
    beside path; rename it over path only once the last piece is written. Memory holds one
    piece at a time: sweep and profile rows are each formatted 1,024 to a piece. The file gets
    the mode a plain open() would give it, 0o666 less the umask, which the kernel applies.
    An OSError raises ConfigError, which names path, not the temp file."""
    tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-{os.urandom(8).hex()}.csv")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w", newline="") as handle:
                handle.write(header + "\n")
                for piece in pieces:
                    handle.write(piece)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc


def _load_config(path: str) -> sweep_mod.ScanConfig:
    try:
        with open(path, "r") as handle:
            text = handle.read()
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:  # a ValueError, which would exit as numeric
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    return parse_config(text)


def _check_csv_units(values: tuple[float, ...]) -> None:
    """Raise unless every result in CSV units is finite; a finite SI result can still
    overflow in the scaling."""
    if not all(map(math.isfinite, values)):
        raise ValueError(f"a result overflows in CSV units: {', '.join(map(_fmt, values))}")


def _model_row(force: float, rigidity: float, a: float, half_span: float, reaction: float,
               tilt_signed: float, y_max: float, x_at_ymax: float) -> list[str]:
    """The model CSV's cells of a solve_scanner result."""
    values = (math.degrees(abs(tilt_signed)), y_max * 1e6, x_at_ymax * 1e6, abs(force) * 1e6,
              reaction * 1e6, rigidity)
    _check_csv_units(values)
    return [_fmt(value) for value in values]


def _cmd_model(args) -> int:
    row = _model_row(*scanner.solve_scanner(*_load_config(args.config)))
    _write_atomic(args.out, "phi_deg,y_max_um,x_at_ymax_um,F_uN,R_A_uN,rigidity_Nm2",
                  [",".join(row) + "\n"])
    print(
        f"phi_deg={row[0]} y_max_um={row[1]} x_at_ymax_um={row[2]} "
        f"F_uN={row[3]} R_A_uN={row[4]} rigidity_Nm2={row[5]}"
    )
    return EXIT_OK


def _cmd_profile(args) -> int:
    config = _load_config(args.config)
    if not 2 <= args.samples <= MAX_SAMPLES:
        raise ConfigError(f"--samples must be in [2, {MAX_SAMPLES}]")
    solution = scanner.solve_scanner(*config)
    _model_row(*solution)  # every |y| is at most y_max: this bounds the rows in CSV units too
    force, rigidity, a, half_span = solution[:4]
    chunks = scanner.profile_chunks(args.samples, force, a, half_span, rigidity)
    _write_atomic(args.out, "x_um,y_um", (
        ("%.9g,%.9g\n" * (len(chunk) // 2)) % tuple([v * 1e6 for v in chunk]) for chunk in chunks))
    return EXIT_OK


def _sweep_row(axis: str, value: float, tilt_deg: float, y_max: float, force: float,
               reaction: float, status: str) -> str:
    """One sweep CSV line from a point's SweepRecord fields; its status ends the line."""
    if status == "ok":
        cells = (tilt_deg, y_max * 1e6, abs(force) * 1e6, reaction * 1e6)
        try:
            _check_csv_units(cells)
        except ValueError as exc:
            status = str(exc)
        else:
            return "%s,%.9g,%.9g,%.9g,%.9g,%.9g,ok\n" % (axis, value, *cells)
    return "%s,%.9g,nan,nan,nan,nan,error: %s\n" % (axis, value, status.replace(",", ";"))


_SWEEP_HEADER = "param_name,param_value_si,phi_deg,y_max_um,F_uN,R_A_uN,status"


def _cmd_sweep(args) -> int:
    config = _load_config(args.config)
    if not 2 <= args.steps <= MAX_STEPS:
        raise ConfigError(f"--steps must be in [2, {MAX_STEPS}]")
    start, stop = getattr(args, "from"), args.to
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ConfigError("--from and --to must be finite")
    if not start < stop:
        raise ConfigError("--from must be less than --to")
    if not math.isfinite(stop - start):
        raise ConfigError("--to minus --from must be finite")
    spec = sweep_mod.SweepSpec(base=config, axis=args.axis, start=start, stop=stop,
                               steps=args.steps)
    failed = 0

    def rows():
        """The CSV's rows, 1,024 points to a piece. A chunk of ok points whose result
        cells sum to a finite value is formatted in one call. Any other chunk goes row by
        row through _sweep_row; only such rows can count as failed."""
        nonlocal failed
        points = sweep_mod.sweep_points(spec)
        ok_row = f"{args.axis},%.9g,%.9g,%.9g,%.9g,%.9g,ok\n"
        while chunk := list(itertools.islice(points, 1024)):
            if all(point[5] == "ok" for point in chunk):
                values = tuple(itertools.chain.from_iterable(
                    (value, tilt_deg, y_max * 1e6, abs(force) * 1e6, reaction * 1e6)
                    for value, tilt_deg, y_max, force, reaction, _ in chunk))
                # A sum with an inf or nan term is not finite, so a finite sum clears every cell.
                if math.isfinite(sum(values[1::5]) + sum(values[2::5]) + sum(values[3::5])
                                 + sum(values[4::5])):
                    yield (ok_row * len(chunk)) % values
                    continue
            lines = [_sweep_row(args.axis, *point) for point in chunk]
            failed += sum(not line.endswith(",ok\n") for line in lines)
            yield "".join(lines)

    _write_atomic(args.out, _SWEEP_HEADER, rows())
    if failed:
        print("numeric: some sweep points failed; see the status column", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def _cmd_table1(args) -> int:
    records = sweep_mod.table1()
    _write_atomic(args.out, _SWEEP_HEADER,
                  [_sweep_row("beam_length", *rec) for rec in records])
    for rec in records:
        print(
            f"beam_length_um={_fmt(rec.param_value * 1e6)} "
            f"phi_deg={_fmt(rec.tilt_deg)} y_max_um={_fmt(rec.y_max_m * 1e6)}"
        )
    return EXIT_OK


def _cmd_verify(args) -> int:
    if not (MIN_NODES <= args.nodes <= MAX_SAMPLES and args.nodes % 2):
        raise ConfigError(f"--nodes must be odd and in [{MIN_NODES}, {MAX_SAMPLES}]")
    try:
        from . import verification  # numpy loads only for verify
    except ModuleNotFoundError as exc:
        if exc.name != "numpy":
            raise
        raise ConfigError(f"verify needs numpy: {exc}") from exc

    print(
        "assumed constants: "
        f"silicon E={_fmt(multimorph.SILICON_E)} Pa, "
        f"pzt-5h E={_fmt(multimorph.PZT5H_E)} Pa "
        f"d31={_fmt(multimorph.PZT5H_D31)} m/V"
    )
    failures = 0
    for name, residual, tol in verification.checks(args.nodes):
        ok = residual <= tol
        failures += 0 if ok else 1
        print(f"{name}: residual={_fmt(residual)} tol={_fmt(tol)} {'PASS' if ok else 'FAIL'}")
    if failures:
        print(f"verify: {failures} check(s) exceeded tolerance", file=sys.stderr)
        return EXIT_NUMERIC
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    # --help shows the docstring but its last paragraph, which is about the console entry.
    parser = _Parser(prog="piezoscanner", description=__doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("model", help="evaluate one design and write model.csv")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="model.csv")
    p.set_defaults(func=_cmd_model)

    p = sub.add_parser("profile", help="export the full-device deflection profile")
    p.add_argument("--config", required=True)
    p.add_argument("--samples", type=int, default=401)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("sweep", help="sweep one parameter and export records")
    p.add_argument("--config", required=True)
    p.add_argument("--axis", required=True, choices=sorted(sweep_mod.AXES))
    p.add_argument("--from", type=float, required=True)
    p.add_argument("--to", type=float, required=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("table1", help="evaluate the three reference designs")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("verify", help="run the oracle and identity verification suite")
    p.add_argument("--nodes", type=int, default=2001)
    p.set_defaults(func=_cmd_verify)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValueError, ArithmeticError) as exc:
        print(f"numeric: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"config: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def main() -> None:
    """Run the command in sys.argv and end the process with its exit code. Once run()
    returns, every CSV is closed and renamed, so the process runs the `atexit` hooks,
    flushes stdout and stderr and ends with os._exit, skipping the interpreter's teardown.
    A flush that fails (stdout on a full disk or a closed pipe) exits through sys.exit, so
    the interpreter reports it as any program's lost output, with exit code 120. argparse's
    SystemExit (usage errors, --help) takes the interpreter's exit path too."""
    code = run()
    atexit._run_exitfuncs()
    try:
        for stream in (sys.stdout, sys.stderr):
            if stream is not None:  # None where the stream was closed at start-up
                stream.flush()
    except OSError:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    main()
