"""Spans around the public functions of piezoscanner, recorded from outside.

`Tracer.install` replaces each target function at every binding a caller can
look it up by: the home module and every other piezoscanner module that
imported the name (`sweep.solve_scanner`, `cli.parse_config`, ...). Each call
then records a span; a layer's self time is its span minus the spans of the
wrapped calls made inside it. Spans stay in memory and are summed per name.
"""

from __future__ import annotations

import functools
import sys
import time

# (module, function) pairs that mark the layer boundaries, in pipeline order.
TARGETS = (
    ("config", "parse_config"),
    ("multimorph", "solve_curvature"),
    ("multimorph", "equivalent_section"),
    ("multimorph", "equivalent_force"),
    ("scanner", "solve_scanner"),
    ("sweep", "evaluate_point"),
    ("sweep", "run_sweep"),
    ("sweep", "optimize_1d"),
    ("oracle", "solve_fd"),
    ("oracle", "profile_error"),
    ("cli", "run"),
)

PACKAGE = "piezoscanner"

# Written to stderr just before the program is imported, to split -X importtime output.
IMPORT_MARKER = "perfbench: importing piezoscanner"


def _samples(result) -> int:
    return len(result.profile)


def _points(result) -> int:
    return len(result)


def _nodes(result) -> int:
    return len(result.grid)


def _failed_points(result) -> int:
    return sum(1 for rec in result if not rec.ok)


# Work counters read off a layer's return value: span name -> {metric: fn}.
COUNTERS = {
    "scanner.solve_scanner": {"scanner.solve_scanner.samples": _samples},
    "sweep.run_sweep": {"sweep.run_sweep.points": _points, "sweep.failed_points": _failed_points},
    "oracle.solve_fd": {"oracle.solve_fd.nodes": _nodes},
}


class Tracer:
    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[float] = []  # child time accumulated per open span
        self._patched: list[tuple[dict, str, object]] = []

    def _wrap(self, name: str, fn):
        counters = COUNTERS.get(name, {})
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += span
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_s[name] = self.self_s.get(name, 0.0) + span - children
            for key, read in counters.items():
                try:
                    self.counts[key] = self.counts.get(key, 0) + read(result)
                except (AttributeError, TypeError):
                    pass  # the layer changed its return type; the counter is absent
            return result

        return traced

    def install(self) -> None:
        """Wrap every target at every piezoscanner binding of it."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        self.absent = []
        for mod_name, fn_name in TARGETS:
            name = f"{mod_name}.{fn_name}"
            home = sys.modules.get(f"{PACKAGE}.{mod_name}")
            original = getattr(home, fn_name, None) if home is not None else None
            if not callable(original):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            for module in modules:
                namespace = vars(module)
                for attr, value in list(namespace.items()):
                    if value is original:
                        self._patched.append((namespace, attr, original))
                        namespace[attr] = wrapper

    def uninstall(self) -> None:
        for namespace, attr, original in reversed(self._patched):
            namespace[attr] = original
        self._patched.clear()

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
            "absent": list(self.absent),
        }


def parse_importtime(stderr: str, marker: str, packages=("numpy", "scipy")) -> dict[str, float]:
    """Import time (ms) charged to each of `packages` after `marker`, from -X importtime.

    A module counts toward a package when it is that package or is imported
    from inside it, so the standard-library modules that numpy and scipy pull
    in are charged to them.
    """
    nodes = []  # (self ms, depth, name) in the order -X importtime prints them
    lines = stderr.splitlines()
    if marker in lines:
        lines = lines[lines.index(marker) + 1:]
    for line in lines:
        fields = line[len("import time:"):].split("|") if line.startswith("import time:") else ()
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue  # the header, or a line that is not -X importtime output
        name = fields[2].rstrip()
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        nodes.append((int(fields[0]) / 1000.0, depth, name.strip()))

    totals = dict.fromkeys(packages, 0.0)
    stack: list[tuple[int, str | None]] = []  # (depth, package) of the open ancestors
    for self_ms, depth, name in reversed(nodes):  # parents come after their children
        while stack and stack[-1][0] >= depth:
            stack.pop()
        package = stack[-1][1] if stack else None
        if package is None:
            package = next((p for p in packages if name == p or name.startswith(p + ".")), None)
        stack.append((depth, package))
        if package is not None:
            totals[package] += self_ms
    return totals
