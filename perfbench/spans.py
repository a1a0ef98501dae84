"""In-process span recorder for traced benchmark children.

The recorder wraps named public functions of the voxsphere modules from the
outside, so the package itself is not edited.  Each wrapped call is a span;
a span's self time is its duration minus the time of the wrapped calls made
inside it.  Time spent in functions that are not wrapped (scalar predicates,
private helpers) counts toward the nearest wrapped caller.

Names bound with ``from .x import y`` and functions stored in module-level
tables (``cli.GENERATORS``, ``checks.SUITES``) are separate references to the
same function object, so every such reference in every loaded voxsphere
module is replaced, not only the defining module's attribute.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# Spans recorded in a traced run: module -> public functions.  Each yields
# the per-layer metric "<module>.<function>.s" (self time, seconds).
SPANS = {
    "cli": ["main"],
    "analysis": ["sphere_count_row", "solid_count_row"],
    "kernels": ["size_tables", "gap_tallies", "surface_totals",
                "solid_totals", "flood_outside"],
    "lattice": ["canonicalize"],
    "circle": ["circle_pixels", "disc_pixels"],
    "sphere": ["sphere_voxels", "sphere_absentees", "completed_sphere_voxels"],
    "solid": ["completed_solid_voxels", "solid_absentee_voxels",
              "union_completed_spheres", "enclosed_voxels"],
    "io": ["emit", "write_text"],
    "checks": ["check_disc", "check_sphere", "check_solid"],
}

# Work counted at span boundaries: span name -> fn(recorder, args, result).
_COUNTS = {
    "kernels.size_tables":
        lambda rec, a, out: rec.add("kernels.size_tables.radii", int(a[0]) + 1),
    "kernels.flood_outside":
        lambda rec, a, out: rec.add("kernels.flood_outside.cells", int(a[0].size)),
    "lattice.canonicalize": lambda rec, a, out: (
        rec.add("lattice.canonicalize.rows_in", len(a[0])),
        rec.add("lattice.canonicalize.rows_out", len(out))),
    # the emitters write ASCII only, so characters are bytes
    "io.emit": lambda rec, a, out: rec.add("io.emit.bytes", len(out)),
    "circle.circle_pixels": lambda rec, a, out: rec.circle_radii.add(int(a[0])),
}


class Recorder:
    """Self time, call counts and work counts of the wrapped functions."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.circle_radii = set()
        self._child_s = []  # one accumulator per open span

    def add(self, counter: str, amount: int) -> None:
        self.counts[counter] += amount

    def wrap(self, name: str, fn):
        count = _COUNTS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            self._child_s.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                self.self_s[name] += dt - self._child_s.pop()
                if self._child_s:
                    self._child_s[-1] += dt
                self.calls[name] += 1
            if count is not None:
                count(self, args, out)
            return out

        return span

    def install(self) -> None:
        """Replace every reference to a listed function in the loaded
        voxsphere modules with its span wrapper, and count the radii the
        count-table cache rebuilds."""
        swap = {}
        for short, funcs in SPANS.items():
            mod = sys.modules[f"voxsphere.{short}"]
            for func in funcs:
                orig = getattr(mod, func)
                swap[id(orig)] = self.wrap(f"{short}.{func}", orig)
        mods = [m for n, m in sys.modules.items()
                if n == "voxsphere" or n.startswith("voxsphere.")]
        for mod in mods:
            for attr, value in list(vars(mod).items()):
                if id(value) in swap:
                    setattr(mod, attr, swap[id(value)])
                elif isinstance(value, dict):
                    for key, item in value.items():
                        if id(item) in swap:
                            value[key] = swap[id(item)]

        # _Tables.grow rebuilds from r = 0 whenever the largest radius rises
        tables = sys.modules["voxsphere.analysis"]._Tables
        grow = tables.grow

        def counted_grow(table, rmax):
            if rmax > table.rmax:
                self.add("analysis.tables_built", rmax + 1)
            return grow(table, rmax)

        tables.grow = counted_grow

    def summary(self) -> dict:
        counts = dict(self.counts)
        counts["analysis.tables_final"] = (
            sys.modules["voxsphere.analysis"]._tables.rmax + 1)
        counts["circle.circle_pixels.radii"] = len(self.circle_radii)
        return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                "counts": counts}
