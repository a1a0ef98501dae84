"""Self-verification suites behind the command line's verify subcommand.

Each suite returns CheckResult records; a suite passes when all its gating
checks pass.  Known, documented divergences (the closed-form formula, the
final published hollow row, coverage holes in the solid model) are reported
as informational lines rather than gated, so a healthy build verifies clean
while still surfacing them.

Point sets are compared as arrays: two arrays hold the same set exactly when
their canonical forms (lattice.canonicalize: sorted, deduplicated) agree
elementwise, and two sets are disjoint exactly when canonicalizing their
concatenation loses no point.  Two checks evaluate a scalar oracle on one
representative per symmetry class instead of on every point, which is
exact because the oracle is constant on each class:

* circle-definition calls on_digital_circle on the octant 0 <= b <= a of
  its box only and expands the passing pixels to their 8 sign/swap images:
  the predicate reads (a, b) only through max(|a|,|b|) and min(|a|,|b|),
  and the box is closed under those maps;
* species-partition calls each species predicate once per class
  (max(|i|,|k|), |j|, min(|i|,|k|)) of the absentee voxels, weighted by the
  class size: both predicates read (i, k) only through classify_pixel,
  which is sign/swap invariant, and j only through |j|.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import INT, canonicalize, on_digital_circle, symmetric_octet
from . import analysis, circle, solid, sphere


@dataclass
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str
    gating: bool = True

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        if not self.gating:
            mark = "INFO"
        return f"[{mark}] {self.suite}:{self.name} {self.detail}"


def _same_set(a, b) -> bool:
    """Set equality of two point arrays: their canonical forms agree
    elementwise."""
    return np.array_equal(canonicalize(a), canonicalize(b))


def _sign_swap_images(pts: np.ndarray) -> np.ndarray:
    """The 8 images of every (a, b) under the sign changes and the swap."""
    both = np.concatenate([pts, pts[:, ::-1]])
    return np.concatenate([both * s for s in ((1, 1), (1, -1), (-1, 1), (-1, -1))])


def check_disc(max_r: int) -> list[CheckResult]:
    results = []

    rmax = min(max_r, 64)
    ok = True
    for r in range(rmax + 1):
        d = circle.disc_pixels(r)
        u = circle.union_circles(range(r + 1))
        a = circle.disc_absentees(r)
        ua = canonicalize(np.concatenate([u, a]))
        # no point is lost to deduplication exactly when u and a are disjoint
        if (len(canonicalize(u)) + len(canonicalize(a)) != len(ua)
                or not _same_set(ua, d)):
            ok = False
            break
    results.append(CheckResult(
        "disc", "cover-identity", ok,
        f"disc = circles + gaps, disjoint, r <= {rmax}"))

    rmax = min(max_r, 48)
    ok = True
    for r in range(rmax + 1):
        got = circle.circle_pixels(r)
        n = r + 2  # the box [-n, n]^2, through its octant (module docstring)
        octant = [(a, b) for a in range(n + 1) for b in range(a + 1)
                  if on_digital_circle(r, a, b)]
        want = _sign_swap_images(np.array(octant, dtype=INT).reshape(-1, 2))
        if not _same_set(got, want):
            ok = False
            break
    results.append(CheckResult(
        "disc", "circle-definition", ok,
        f"constructed rings match the membership predicate, r <= {rmax}"))

    rmax = min(max_r, 128)
    ok = True
    for r in range(0, rmax + 1, max(1, rmax // 16)):
        if analysis.enumerated_disc_absentee_count(r) != len(circle.disc_absentees(r)):
            ok = False
            break
    results.append(CheckResult(
        "disc", "gap-tallies", ok,
        f"closed tallies match enumerated gap pixels, sampled r <= {rmax}"))

    report = analysis.compare_closed_form(min(max_r, 128))
    mismatches = [row for row in report if not row[3]]
    results.append(CheckResult(
        "disc", "closed-form", True,
        f"formula disagrees with enumeration at {len(mismatches)}/{len(report)} radii "
        f"(first: r={mismatches[0][0]} formula={mismatches[0][1]} enumerated={mismatches[0][2]})"
        if mismatches else "formula matches enumeration everywhere",
        gating=False))

    return results


def check_sphere(max_r: int, long: bool = False) -> list[CheckResult]:
    # One pass builds each radius's gap sets once and feeds every check
    # whose range covers it; a check stops at its first failing radius.
    caps = {name: min(max_r, cap) for name, cap in
            (("materialized", 32), ("projection", 64), ("equator", 128), ("predicate", 16))}
    ok = dict.fromkeys(caps, True)
    for r in range(max(caps.values()) + 1):
        todo = {name for name in caps if ok[name] and r <= caps[name]}
        if not todo:
            break
        av = sphere.hemisphere_absentees(r)
        both = sphere.sphere_absentees(r)
        if "materialized" in todo:
            row = analysis.sphere_count_row(r)
            ok["materialized"] = (sphere.sphere_voxels(r).shape[0] == row.primitive
                                  and both.shape[0] == row.absentee
                                  and sphere.completed_sphere_voxels(r).shape[0] == row.total)
        if "projection" in todo:
            proj = canonicalize(av[:, [0, 2]])
            ok["projection"] = (len(proj) == av.shape[0]
                                and _same_set(proj, circle.disc_absentees(r)))
        if "equator" in todo:
            ok["equator"] = (not av.shape[0] or int(av[:, 1].min()) >= 1) \
                and both.shape[0] == 2 * av.shape[0]
        if "predicate" in todo:
            n = r + 2
            grid = np.arange(-n, n + 1)
            ii, jj, kk = np.meshgrid(grid, grid, grid, indexing="ij")
            vox = np.stack([ii.ravel(), jj.ravel(), kk.ravel()], axis=1)
            mask = sphere.is_sphere_absentee_many(vox, r)
            ok["predicate"] = _same_set(vox[mask], both)

    results = [CheckResult(
        "sphere", "streamed-vs-materialized", ok["materialized"],
        f"closed counts match materialized sets, r <= {caps['materialized']}")]
    results.append(CheckResult(
        "sphere", "gap-projection", ok["projection"],
        f"upper gap voxels project 1:1 onto disc gap pixels, r <= {caps['projection']}"))

    # Gap voxels could plausibly be assigned to either endpoint plane of the
    # generatrix step that reveals them, instead of to the plane whose run
    # interval contains the witness square.  Quantify how much each endpoint
    # convention moves: counts and zx-projections never change, only the
    # plane coordinate of the affected octets.
    rmax = min(max_r, 64)
    first = {"leading": 0, "trailing": 0}
    steps = {"leading": 0, "trailing": 0}
    voxels = {"leading": 0, "trailing": 0}
    for r in range(rmax + 1):
        gen = sphere.generatrix(r)
        for (x0, j0), (x1, j1) in zip(gen[:-1], gen[1:]):
            if int(x1) != int(x0) + 1:
                continue
            w = int(x0)
            j = sphere.gap_plane(r, w)
            n = sum(len(symmetric_octet(a, b))
                    for a, b in circle.iter_octant_absentees(w))
            if not n:
                continue
            for name, alt in (("leading", int(j1)), ("trailing", int(j0))):
                if alt != j:
                    steps[name] += 1
                    voxels[name] += n
                    first[name] = first[name] or r
    results.append(CheckResult(
        "sphere", "plane-placement", True,
        "endpoint-plane conventions would relocate gap voxels on "
        f"{steps['leading']} steps / {voxels['leading']} voxels (leading, "
        f"first r={first['leading']}) and {steps['trailing']} steps / "
        f"{voxels['trailing']} voxels (trailing, first r={first['trailing']}) "
        f"for r <= {rmax}; counts and projections are unaffected",
        gating=False))

    results.append(CheckResult(
        "sphere", "no-equator-gaps", ok["equator"],
        f"every gap voxel sits strictly off the equator, r <= {caps['equator']}"))
    results.append(CheckResult(
        "sphere", "membership-predicate", ok["predicate"],
        f"predicate sweep equals enumerated gap set, r <= {caps['predicate']}"))

    ref = analysis.reference_counts("sphere")
    grid = [r for r in sorted(ref) if r <= (10000 if long else 1000)]
    bad = []
    note = ""
    for r in grid:
        row = analysis.sphere_count_row(r)
        if row != ref[r]:
            if r == analysis.HOLLOW_FINAL_ROW_R and (
                    row.absentee - ref[r].absentee
                    == analysis.HOLLOW_FINAL_ROW_DEFICIT
                    == row.total - ref[r].total):
                note = (f" (r={r}: published row short by the documented "
                        f"{analysis.HOLLOW_FINAL_ROW_DEFICIT} voxels)")
                continue
            bad.append(r)
    results.append(CheckResult(
        "sphere", "published-table", not bad,
        f"{len(grid)} published rows reproduced{note}"
        if not bad else f"mismatch at r={bad[:4]}"))

    ref_ratio = analysis.reference_ratios("sphere")
    grid = [r for r in sorted(ref_ratio) if r <= (10000 if long else 1000)]
    bad = []
    skipped = []
    for r in grid:
        a = analysis.alpha(analysis.sphere_count_row(r))
        mismatch = str(a) != ref_ratio[r]
        if mismatch and r in analysis.HOLLOW_RATIO_ERRATA:
            skipped.append(r)
            mismatch = False
        if mismatch or (r >= 300 and abs(float(a) - 0.0584) >= 0.001):
            bad.append(r)
    note = f" ({len(skipped)} documented errata rows excluded)" if skipped else ""
    results.append(CheckResult(
        "sphere", "published-ratios", not bad,
        f"{len(grid)} ratio rows match and converge near 0.0584{note}"
        if not bad else f"mismatch at r={bad[:4]}"))

    return results


def check_solid(max_r: int, long: bool = False) -> list[CheckResult]:
    results = []

    rmax = min(max_r, 24)
    ok = True
    for r in range(rmax + 1):
        av = solid.solid_absentee_voxels(r)
        if av.shape[0] != solid.solid_absentee_count(r):
            ok = False
            break
        if solid.completed_solid_voxels(r).shape[0] != solid.completed_solid_count(r):
            ok = False
            break
    results.append(CheckResult(
        "solid", "streamed-vs-materialized", ok,
        f"closed counts match materialized sets, r <= {rmax}"))

    rmax = min(max_r, 16)
    ok = True
    for r in range(rmax + 1):
        av = solid.solid_absentee_voxels(r)
        # one predicate call per class, weighted by its size (module docstring)
        ik = np.abs(av[:, [0, 2]])
        cls, size = np.unique(
            np.stack([ik.max(axis=1), np.abs(av[:, 1]), ik.min(axis=1)], axis=1),
            axis=0, return_counts=True)
        nline = ncirc = 0
        for v, c in zip(cls.tolist(), size.tolist()):
            nline += c * solid.is_absentee_line_voxel(v)
            ncirc += c * solid.is_absentee_circle_voxel(v)
        lines, circles = solid.species_voxel_counts(r)
        if nline != lines or ncirc != circles or nline + ncirc != av.shape[0]:
            ok = False
            break
    results.append(CheckResult(
        "solid", "species-partition", ok,
        f"every absentee voxel is exactly one species, r <= {rmax}"))

    rmax = min(max_r, 64)
    ok = True
    for r in range(rmax + 1):
        n_ad = len(circle.disc_absentees(r))
        if solid.absentee_line_count(r) != n_ad:
            ok = False
            break
        if n_ad % 4 != 0 or solid.absentee_circle_count(r) != n_ad // 4:
            ok = False
            break
    results.append(CheckResult(
        "solid", "object-counts", ok,
        f"lines = gap pixels, circles = gap pixels / 4 per hemisphere, r <= {rmax}"))

    ref = analysis.reference_counts("solid")
    grid = [r for r in sorted(ref) if r <= (800 if long else 300)]
    bad = [r for r in grid if analysis.solid_count_row(r) != ref[r]]
    results.append(CheckResult(
        "solid", "published-table", not bad,
        f"{len(grid)} published rows reproduced"
        if not bad else f"mismatch at r={bad[:4]}"))

    ref_ratio = analysis.reference_ratios("solid")
    grid = [r for r in sorted(ref_ratio) if r <= (800 if long else 300)]
    bad = []
    for r in grid:
        a = analysis.alpha(analysis.solid_count_row(r), places=5)
        if str(a) != ref_ratio[r]:
            bad.append(r)
    results.append(CheckResult(
        "solid", "published-ratios", not bad,
        f"{len(grid)} ratio rows match after rounding to five places"
        if not bad else f"mismatch at r={bad[:4]}"))

    r_hole = min(max_r, 8)
    holes = solid.coverage_holes(r_hole)
    results.append(CheckResult(
        "solid", "coverage-holes", True,
        f"{holes.shape[0]} sealed voxels outside both species at r={r_hole} "
        "(expected: the species construction leaves interior holes from r=7)",
        gating=False))

    return results


SUITES = {
    "disc": lambda max_r, long: check_disc(max_r),
    "sphere": check_sphere,
    "solid": check_solid,
}


def run(suite: str, max_r: int, long: bool = False) -> list[CheckResult]:
    names = ["disc", "sphere", "solid"] if suite == "all" else [suite]
    out = []
    for name in names:
        out.extend(SUITES[name](max_r, long))
    return out
