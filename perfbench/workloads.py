"""The benchmark's workloads: inputs made from a seed, and output checks.

A workload is a list of steps run one after another, each in a fresh
interpreter (``child.py``).  One pass over the steps is an iteration.  Every
step has a check that reads its output and returns (operations attempted,
operations failed); a wrong output is a failed operation.

Why these workloads (times on a 2 vCPU Xeon, numpy 2.4.6, no numba):

* ``counts`` -- one big table build (size_tables(10000) is about 3 s of a
  4.8 s iteration); it materializes nothing.  The table-sweep workload.
* ``queries`` -- the same kernels as ``counts``, but one radius at a time in
  ascending order, so the count-table cache rebuilds from r = 0 at every new
  largest radius.  Incremental table growth shows here and not on ``counts``.
* ``generate`` -- construction, canonicalize, text emit and atomic write of
  two large sets; it never touches the count kernels.  solid-complete runs
  at r = 60: r = 150 takes about 70 s and 3.4 GB on the same code path.
* ``verify`` -- hundreds of tiny constructions, Python-level predicate loops,
  a flood fill and the published-table replays to r = 1000.  Per-call
  overhead added while speeding up large arrays shows here.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

NAMES = ("counts", "queries", "generate", "verify")

# (shape, format, radius, sha256 of the output, self-test radius, its
# sha256).  The digests were recorded from the program before any benchmark
# existed; a change that alters an output byte fails these checks.
GENERATE = (
    ("sphere-complete", "canonical-text",
     200, "fe77787e0617be2df2355beb820abc9f4ac8f265634484e5ea50e811658db8af",
     12, "c20d5eeb0d0f78d321c393c23bb428c1d7c2cba56ebb66f15f89fae51c0fbe1f"),
    ("solid-complete", "ply-ascii",
     60, "cd357df0a170aaffee853bfd284b57b46049f3770c958e0f7bb932d3fc4c0117",
     6, "ab77a395d6c553b6644b9d0c34cf17bf6dcdd48555b9a81bc50f48b3ec445c43"),
)

# Gating checks that `verify --suite all` runs; fewer means one went missing.
VERIFY_GATING_CHECKS = 14

QUERIES_TOP = 4000        # published radii queried: those at or below this
QUERIES_EXTRA = 12        # seeded radii added to them ...
QUERIES_EXTRA_TOP = 500   # ... below this, so each adds a small rebuild


@dataclass
class Step:
    argv: list[str]       # arguments of child.py
    out: Path             # the file holding the step's output
    stdout: bool          # whether that file is the child's standard output
    check: Callable[[Path, int], tuple[int, int]]  # (out, exit code) -> (attempted, failed)


def build(name: str, seed: int, tmp: Path, vs, tiny: bool = False) -> list[Step]:
    """The steps of one iteration of workload `name`; vs is the voxsphere
    package under test, used for reference tables and closed counts."""
    return {"counts": _counts, "queries": _queries, "generate": _generate,
            "verify": _verify}[name](random.Random(seed), tmp, vs, tiny)


def _published_row(vs, kind: str, r: int, ref):
    """The exact row for a published radius; only the final hollow row
    differs from print, by the documented deficit."""
    an = vs.analysis
    row = ref[r]
    if kind == "sphere" and r == an.HOLLOW_FINAL_ROW_R:
        d = an.HOLLOW_FINAL_ROW_DEFICIT
        row = an.CountRow(r, row.primitive, row.absentee + d, row.total + d)
    return row


def _lines_check(expected: list[str], out: Path, rc: int, skip: int = 0):
    """One operation per expected line: it must appear at its position."""
    if rc != 0 or not out.is_file():
        return len(expected), len(expected)
    got = out.read_text().splitlines()[skip:]
    failed = sum(1 for i, want in enumerate(expected)
                 if i >= len(got) or got[i] != want)
    return len(expected), failed


def _counts(rng, tmp, vs, tiny):
    an = vs.analysis
    steps = []
    for kind in ("sphere", "solid"):
        ref = an.reference_counts(kind)
        radii = sorted(r for r in ref if not tiny or r <= 100)
        rng.shuffle(radii)
        rows = [_published_row(vs, kind, r, ref) for r in radii]
        expected = [f"{w.r},{w.primitive},{w.absentee},{w.total},{an.alpha(w)}"
                    for w in rows]
        out = tmp / f"counts-{kind}.csv"
        steps.append(Step(
            ["cli", "counts", "--kind", kind,
             "--radii", ",".join(map(str, radii)), "--out", str(out)],
            out, False, partial(_lines_check, expected, skip=1)))
    return steps


def _queries(rng, tmp, vs, tiny):
    """Published radii up to QUERIES_TOP plus one seeded radius in each of
    QUERIES_EXTRA equal strata of [1, QUERIES_EXTRA_TOP): the strata keep
    the rebuild work, which grows with the square of each new radius, nearly
    the same for every seed."""
    an = vs.analysis
    top, n_extra, extra_top = ((100, 3, 100) if tiny else
                               (QUERIES_TOP, QUERIES_EXTRA, QUERIES_EXTRA_TOP))
    ref = {kind: an.reference_counts(kind) for kind in ("sphere", "solid")}
    radii = {r for table in ref.values() for r in table if r <= top}
    for i in range(n_extra):
        lo = 1 + i * (extra_top - 1) // n_extra
        hi = 1 + (i + 1) * (extra_top - 1) // n_extra
        r = rng.randrange(lo, hi)
        while r in radii:
            r = rng.randrange(lo, hi)
        radii.add(r)
    radii = sorted(radii)
    # published rows where the tables have them, else one table sweep here
    sweep = {"sphere": an.sphere_table(radii), "solid": an.solid_table(radii)}
    expected = []
    for i, r in enumerate(radii):
        for kind in ("sphere", "solid"):
            w = (_published_row(vs, kind, r, ref[kind]) if r in ref[kind]
                 else sweep[kind][i])
            expected.append(f"{kind},{w.r},{w.primitive},{w.absentee},{w.total}")
    out = tmp / "queries.csv"
    return [Step(["queries", ",".join(map(str, radii))], out, True,
                 partial(_lines_check, expected))]


def _generated_rows(data: bytes, fmt: str) -> int:
    if fmt != "ply-ascii":
        return data.count(b"\n")
    head, sep, body = data.partition(b"end_header\n")
    declared = [int(line.split()[2]) for line in head.splitlines()
                if line.startswith(b"element vertex ")]
    rows = body.count(b"\n")
    return rows if sep and declared == [rows] else -1


def _generate_check(fmt: str, rows: int, digest: str, out: Path, rc: int):
    if rc != 0 or not out.is_file():
        return 1, 1
    data = out.read_bytes()
    ok = (_generated_rows(data, fmt) == rows
          and hashlib.sha256(data).hexdigest() == digest)
    return 1, 0 if ok else 1


def _generate(rng, tmp, vs, tiny):
    steps = []
    for shape, fmt, r, digest, tiny_r, tiny_digest in GENERATE:
        if tiny:
            r, digest = tiny_r, tiny_digest
        rows = (vs.sphere.completed_sphere_count(r) if shape == "sphere-complete"
                else vs.solid.completed_solid_count(r))
        out = tmp / f"{shape}.out"
        steps.append(Step(
            ["cli", "generate", shape, "-r", str(r), "--format", fmt,
             "--out", str(out)],
            out, False, partial(_generate_check, fmt, rows, digest)))
    rng.shuffle(steps)  # the seed sets which shape is built first
    return steps


def _verify_check(out: Path, rc: int):
    """One operation per gating check and one for the exit status."""
    lines = out.read_text().splitlines() if out.is_file() else []
    gating = [ln for ln in lines if ln.startswith(("[PASS]", "[FAIL]"))]
    failed = sum(ln.startswith("[FAIL]") for ln in gating)
    missing = max(0, VERIFY_GATING_CHECKS - len(gating))
    status_ok = rc == 0 and bool(lines) and lines[-1].endswith("checks passed")
    attempted = max(VERIFY_GATING_CHECKS, len(gating)) + 1
    return attempted, failed + missing + (0 if status_ok else 1)


def _verify(rng, tmp, vs, tiny):
    # fixed input: the seed has nothing to vary in `verify --suite all`
    out = tmp / "verify.txt"
    return [Step(["cli", "verify", "--suite", "all",
                  "--max-r", "4" if tiny else "32"], out, True, _verify_check)]
