"""Traced replay of one CLI call in a fresh process.

Usage: python -X importtime replay.py TRACE_JSON CLI_ARG...

Imports `piezoscanner.cli` after a marker line on stderr (so -X importtime
lines after it belong to the program's import), wraps the layer functions,
runs `cli.run(argv)` and writes the spans and timestamps to TRACE_JSON; the
time after `end` is interpreter teardown. The exit code is the CLI's.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

from spans import IMPORT_MARKER, Tracer  # noqa: E402


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    print(IMPORT_MARKER, file=sys.stderr, flush=True)
    t0 = time.perf_counter()
    from piezoscanner import cli
    import_ms = (time.perf_counter() - t0) * 1e3
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.run(argv)
    finally:
        tracer.uninstall()
    record = dict(tracer.snapshot(), start=START, import_ms=import_ms, end=time.perf_counter())
    with open(trace_path, "w") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
