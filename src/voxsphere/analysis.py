"""Count tables, absentee ratios, growth-rate fits, and the closed-form
disc-absentee formula.

All counting goes through the closed row tallies in :mod:`voxsphere.kernels`,
so tables stream: no voxel set is materialized.  One per-process table cache,
``_tables``, serves every closed count of the package (the sphere and solid
count functions read its rows).  It has two parts, each extended by the rows
a larger request lacks and never rebuilt:

* the circle sizes csz and their prefix sums cpref, closed-form and O(1) per
  radius.  A hollow row needs nothing else: its surface and its gap total
  (the disc size less its circles) are O(r) sums over the row extents, so
  ``sphere_count_row`` costs O(r) however large r is;
* the sweep tables cnt, circ and dsz to ``rmax``, from kernels.gap_tallies,
  O(r) per radius and so quadratic in the largest radius.  Only the solid
  rows, the species counts and the enumerated disc count read them.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from decimal import Decimal, ROUND_HALF_EVEN
from importlib import resources

import numpy as np

from .lattice import ceil_sqrt, exact_isqrt_many
from . import kernels


@dataclass(frozen=True)
class CountRow:
    """One table row: voxel counts for a single radius.

    total is redundant (primitive + absentee) and kept explicit because the
    published tables print all three columns.
    """
    r: int
    primitive: int
    absentee: int
    total: int

    def __post_init__(self):
        if self.total != self.primitive + self.absentee:
            raise ValueError("total must equal primitive + absentee")


class _Tables:
    """Per-radius tallies: circle sizes for radii 0..csz.size - 1, and the
    sweep tables for radii 0..rmax (rmax < csz.size), each extended as
    larger radii are asked for."""

    def __init__(self):
        self.rmax = -1  # the sweep's high-water mark
        self.csz = np.zeros(0, np.int64)
        self.dsz = np.zeros(0, np.int64)
        self.cpref = kernels.circle_prefix(self.csz)
        self.cnt = np.zeros(0, np.int64)   # witnesses 0..max(rmax - 1, 0)
        self.circ = np.zeros(0, np.int64)

    def grow_circles(self, rmax: int) -> None:
        """Extend csz and cpref to radius rmax, without the sweep."""
        lo = self.csz.size
        if rmax < lo:
            return
        self.csz = np.concatenate([self.csz, kernels.size_tables(rmax, start=lo)])
        self.cpref = kernels.circle_prefix(self.csz)  # one cumsum, O(rmax)

    def grow(self, rmax: int) -> None:
        """Compute the rows rmax has and the cache lacks, and append them."""
        if rmax <= self.rmax:
            return
        lo = self.rmax + 1
        self.grow_circles(rmax)
        cnt, circ = kernels.gap_tallies(max(rmax - 1, 0), self.csz,
                                        start=self.cnt.size)
        self.cnt = np.concatenate([self.cnt, cnt])
        self.circ = np.concatenate([self.circ, circ])
        # D(r) is C(0..r) plus the gaps of witnesses 0..r-1
        gaps = kernels.circle_prefix(self.cnt)
        self.dsz = np.concatenate(
            [self.dsz, self.cpref[lo + 1:rmax + 2] + gaps[lo:rmax + 1]])
        self.rmax = rmax


_tables = _Tables()


def sphere_count_row(r: int) -> CountRow:
    """Hollow-sphere table row: (swept voxels, gap voxels, completed total).

    Two gap voxels per gap pixel of D(r).  O(r) from the circle sizes alone:
    no gap sweep runs.
    """
    if r < 0:
        raise ValueError("radius must be non-negative")
    _tables.grow_circles(r)
    primitive, gaps = kernels.surface_totals(r, _tables.csz, _tables.cpref)
    return CountRow(r, primitive, 2 * gaps, primitive + 2 * gaps)


def species_voxel_counts(r: int) -> tuple[int, int]:
    """(line voxels, circle voxels) in solid.solid_absentee_voxels(r).

    A gap pixel with witness w <= r - 1 carries a line of 2*isqrt(w) + 1
    voxels, and each cross-section gap pixel (x, k) carries rings of radii x
    and k in two planes each (one ring pair when x = k).
    """
    if r < 0:
        raise ValueError("radius must be non-negative")
    _tables.grow(r)
    cnt = _tables.cnt[:r]
    lines = int((cnt * (2 * exact_isqrt_many(np.arange(r, dtype=np.int64)) + 1)).sum())
    return lines, 2 * int(_tables.circ[:r].sum())


def solid_count_row(r: int) -> CountRow:
    """Solid-sphere table row: (covered voxels, absentee voxels, solid total).

    total counts the per-plane filled-disc solid; absentee counts the line
    and circle species; primitive is their difference, matching how the
    tabulated first column relates to the other two.
    """
    absentee = sum(species_voxel_counts(r))
    total = kernels.solid_totals(r, _tables.dsz)
    return CountRow(r, total - absentee, absentee, total)


def sphere_table(radii) -> list[CountRow]:
    """sphere_count_row over a radius collection; extends only the circle
    sizes, once, to the largest radius."""
    radii = [int(r) for r in radii]
    if radii:
        _tables.grow_circles(max(radii))
    return [sphere_count_row(r) for r in radii]


def solid_table(radii) -> list[CountRow]:
    """solid_count_row over a radius collection."""
    radii = [int(r) for r in radii]
    if radii:
        _tables.grow(max(radii))
    return [solid_count_row(r) for r in radii]


def alpha(row: CountRow, places: int = 6) -> Decimal:
    """Absentee share absentee/total, rounded half-to-even.

    The hollow-sphere ratio table prints six decimal places and the solid
    table five; pass places accordingly.
    """
    if row.total <= 0:
        raise ValueError("total must be positive")
    q = Decimal(1).scaleb(-places)
    return (Decimal(row.absentee) / Decimal(row.total)).quantize(
        q, rounding=ROUND_HALF_EVEN)


def loglog_slope(series) -> float:
    """Ordinary least-squares slope of log(count) against log(r)."""
    pts = [(int(r), int(c)) for r, c in series]
    if len(pts) < 3:
        raise ValueError("need at least three points")
    if any(r <= 0 or c <= 0 for r, c in pts):
        raise ValueError("radii and counts must be positive")
    xs = np.log([r for r, _ in pts])
    ys = np.log([c for _, c in pts])
    return float(np.polyfit(xs, ys, 1)[0])


def _ceil_half_sqrt(n: int) -> int:
    """Smallest integer m with 2m >= sqrt(n), i.e. ceil(sqrt(n)/2)."""
    return (ceil_sqrt(n) + 1) // 2


def run_count_bound(r: int) -> int:
    """Number of octant rows carrying runs of C(r): r - ceil(r/sqrt(2)) + 1,
    with the ceiling evaluated by exact integer comparison
    (ceil(r/sqrt(2)) is the smallest q with 2q^2 >= r^2)."""
    if r < 1:
        raise ValueError("radius must be positive")
    q = math.isqrt((r * r) // 2)
    while 2 * q * q < r * r:
        q += 1
    return r - q + 1


def closed_form_disc_count(r: int) -> tuple[int, list[int]]:
    """The closed-form disc-absentee count, evaluated exactly as written.

    Returns (total, per-k terms) with
    term_k = ceil(sqrt((2k+1)r - k^2 - k)) - (2k+1) - ceil(sqrt(8k^2+4k+1)/2)
    summed for k = 0 .. run_count_bound(r) - 1 and multiplied by 8.  Terms go
    negative for larger k and the total disagrees with enumeration (r = 10
    gives 8 against the enumerated 40); compare_closed_form records this.
    All ceilings use integer square roots, never floating point.
    """
    if r < 1:
        raise ValueError("radius must be positive")
    m_r = run_count_bound(r)
    terms = []
    for k in range(m_r):
        lead = ceil_sqrt((2 * k + 1) * r - k * k - k)
        terms.append(lead - (2 * k + 1) - _ceil_half_sqrt(8 * k * k + 4 * k + 1))
    return 8 * sum(terms), terms


def enumerated_disc_absentee_count(r: int) -> int:
    """|disc gap pixels of D(r)| from the witness tallies (exact)."""
    if r < 0:
        raise ValueError("radius must be non-negative")
    _tables.grow(r)
    return int(_tables.cnt[:r].sum())


def compare_closed_form(rmax: int = 128) -> list[tuple[int, int, int, bool]]:
    """Per-radius comparison (r, closed_form, enumerated, equal) for
    r = 1..rmax.  Informational: the closed form is reported, not trusted."""
    _tables.grow(rmax)
    out = []
    for r in range(1, rmax + 1):
        cf, _ = closed_form_disc_count(r)
        en = enumerated_disc_absentee_count(r)
        out.append((r, cf, en, cf == en))
    return out


def reference_counts(kind: str) -> dict[int, CountRow]:
    """Published count-table rows shipped with the package.

    kind is "sphere" (hollow spheres) or "solid".  The final hollow row
    (r = 10000) is reproducible except for one witness: see
    HOLLOW_FINAL_ROW_DEFICIT.
    """
    name = {"sphere": "hollow_counts.csv", "solid": "solid_counts.csv"}[kind]
    text = (resources.files("voxsphere") / "data" / name).read_text()
    out = {}
    for row in csv.DictReader(text.splitlines()):
        r = int(row["r"])
        out[r] = CountRow(r, int(row["primitive"]), int(row["absentee"]),
                          int(row["total"]))
    return out


def reference_ratios(kind: str) -> dict[int, str]:
    """Published absentee-ratio rows (decimal strings, as printed)."""
    name = {"sphere": "hollow_ratios.csv", "solid": "solid_ratios.csv"}[kind]
    text = (resources.files("voxsphere") / "data" / name).read_text()
    return {int(row["r"]): row["alpha"]
            for row in csv.DictReader(text.splitlines())}


# The published hollow table's final row (r = 10000) undercounts gap voxels
# by exactly the contribution of witness 9999: 2 * 6184 = 12368 voxels
# missing from the absentee and total columns.  Every other count row of
# both shipped count tables matches exact enumeration.
HOLLOW_FINAL_ROW_R = 10000
HOLLOW_FINAL_ROW_DEFICIT = 12368

# Hollow ratio rows that do not equal the half-even rounding of the
# enumerated ratio.  56 of 60 rows match; these four deviate:
#   r=90    printed 0.058618 truncates the exact 0.0586185409...
#   r=1200  printed 0.058404, enumeration rounds to 0.058403
#   r=1900  printed 0.058397, enumeration rounds to 0.058396
#   r=10000 printed 0.058383 is the ratio of the deficient final-row
#           counts; the full enumeration gives 0.058394
# All four still satisfy the convergence band |alpha - 0.0584| < 0.001.
# Every solid ratio row matches half-even rounding at five places.
HOLLOW_RATIO_ERRATA = (90, 1200, 1900, 10000)
