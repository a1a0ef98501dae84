"""Solid digital spheres and their absentee voxels.

A solid sphere is built from the whole family of hollow spheres of radii
0..r.  Even after every hollow sphere has been completed (its own gap voxels
filled in), the union still misses voxels; these come in two species:

* absentee *lines*: short runs parallel to the y-axis sitting over every
  gap pixel of the zx-plane, and
* absentee *circles*: full rings lying in horizontal planes, one ring for
  every gap pixel of a vertical cross-section.

The two species never share a voxel: a line voxel projects onto a gap pixel
of the zx-plane while a circle voxel projects onto a pixel of some digital
circle, and a pixel cannot be both.

Two distinct notions of "the solid ball of radius r" are exposed:

* ``completed_solid_voxels`` / ``completed_solid_count`` -- the revolution
  model: every horizontal plane |j| <= r carries the filled digital disc
  whose radius is the widest ring swept on that plane.  This is the object
  whose counts the package's solid tables report.
* ``flood_solid_voxels`` -- the completed hollow sphere of radius r plus
  everything 6-connectedly enclosed by it.  While the completed sphere
  separates inside from outside this is slightly larger: the polar caps of
  the completed sphere bulge past the per-plane discs (at r = 2 by eight
  voxels plus what they enclose).  Where it does not separate (r = 7, 9 and
  11..40) it is the bare shell.

The completed solid also holds voxels that no completed hollow sphere and
neither absentee species covers: 16 at r = 7, e.g. (2, 5, 4), and 872 at
r = 20.  The tabulated solid absentee counts leave them out.
"""

from __future__ import annotations

import numpy as np

from .lattice import INT, canonicalize, classify_pixel, exact_isqrt_many, isqrt, runs, symmetric_octet
from .circle import _rings_and_gaps, gap_band_index, iter_octant_absentees
from .sphere import _lift, _lift_rings, _ring_at, completed_sphere_voxels
from .analysis import enumerated_disc_absentee_count, solid_count_row, \
    species_voxel_counts  # noqa: F401  (re-exported: part of the solid API)
from . import kernels


def absentee_line_voxels(a: int, b: int, w: int) -> np.ndarray:
    """The absentee lines through the gap pixel (a, b) of the zx-plane and
    all its mirror images: vertical runs |j| <= isqrt(w) + 1 where w is the
    pixel's witness radius (it lies between the circles of radii w and w+1).

    Raises ValueError when (a, b) is not a gap pixel or w is not its witness.
    The top |j| = isqrt(w) + 1 layer can already belong to a completed hollow
    sphere (for w = 1 it is exactly the gap-voxel octet of the radius-2
    sphere), which is why enumeration of new solid absentees stops one layer
    short of this bound.
    """
    q, absent = classify_pixel(a, b)
    if not absent:
        raise ValueError(f"({a}, {b}) lies on a digital circle")
    if q != w:
        raise ValueError(f"witness of ({a}, {b}) is {q}, not {w}")
    h = isqrt(w) + 1
    octet = symmetric_octet(a, b)
    return canonicalize(_lift(np.repeat(octet, 2 * h + 1, axis=0),
                              np.tile(np.arange(-h, h + 1, dtype=INT), len(octet))))


def absentee_circle_voxels(s: int, j: int) -> np.ndarray:
    """The pair of absentee circles for the gap pixel (s, j) of a vertical
    cross-section: the digital circle of radius s in the planes y = j and
    y = -j.

    Raises ValueError when (s, j) is not a gap pixel.
    """
    _, absent = classify_pixel(s, j)
    if not absent:
        raise ValueError(f"({s}, {j}) lies on a digital circle")
    return canonicalize(np.concatenate([_ring_at(s, j), _ring_at(s, -j)]))


def solid_absentee_voxels(r: int) -> np.ndarray:
    """The two tabulated absentee species of the solid sphere of radius r:
    absentee lines and absentee circles.  Every such voxel is missed by all
    completed hollow spheres of radius <= r, but not every missed voxel of
    the completed solid is one of them: completed_solid_voxels(r) minus the
    union and the species is nonempty from r = 7 (16 voxels there) and is
    left out here, as in the published solid table.

    Lines are clipped to |j| <= isqrt(w), one layer short of the per-line
    bound of absentee_line_voxels: the extra layer is not part of the
    solid's tabulated absentee set (for witness 1 it already belongs to the
    completed radius-2 sphere).  Line and circle voxels are disjoint because
    their zx-projections are a gap pixel and a circle pixel respectively.
    """
    rings, (gaps, w) = _rings_and_gaps(r)
    h = exact_isqrt_many(w)
    n = 2 * h + 1
    lines = _lift(np.repeat(gaps, n, axis=0), runs(-h, n))
    # each gap pixel (s, j) with s > 0 is a cross-section pixel: ring C(s)
    # in the plane y = j
    cross = gaps[gaps[:, 0] > 0]
    circles = _lift_rings(cross[:, 0], cross[:, 1], rings)
    return canonicalize(np.concatenate([lines, circles]))


def solid_absentee_count(r: int) -> int:
    """|solid_absentee_voxels(r)| via closed tallies, without materializing."""
    return solid_count_row(r).absentee


def absentee_line_count(r: int) -> int:
    """Number of distinct absentee lines of the solid sphere of radius r
    (one per gap pixel of the zx-plane with witness <= r - 1)."""
    return enumerated_disc_absentee_count(r)


def absentee_circle_count(r: int) -> int:
    """Number of distinct absentee circles per hemisphere of the solid
    sphere of radius r: two per cross-section gap pixel pair (x, k), x < k,
    one when x = k."""
    n = 0
    for w in range(1, r):
        for x, k in iter_octant_absentees(w):
            n += 1 if x == k else 2
    return n


def union_completed_spheres(r: int) -> np.ndarray:
    """Union of the completed hollow spheres of radii 0..r."""
    if r < 0:
        raise ValueError("radius must be non-negative")
    parts = [completed_sphere_voxels(s) for s in range(r + 1)]
    return canonicalize(np.concatenate(parts))


def completed_solid_voxels(r: int) -> np.ndarray:
    """The solid sphere of radius r in the revolution model: plane y = j
    carries the filled digital disc of the widest ring swept there.

    Built as z-runs over (x, j): the disc of radius s holds (x, z) exactly
    when |z| is at most the row maximum of C(s) at |x| (the disc_pixels
    column fill), so the rows come out in canonical order.
    """
    s = kernels.row_extents(r)[1]  # disc radius of the planes y = +-j
    last = np.full((r + 1, r + 1), -1, dtype=INT)  # last[t, x]: row maxima of C(t)
    for t in set(s.tolist()):
        last[t, :t + 1] = kernels.row_extents(t)[1]
    ax = np.abs(np.arange(-r, r + 1))
    h = last[s[ax]][:, ax].T.ravel()  # z half-height over (x, j), x-major
    n = np.maximum(2 * h + 1, 0)
    out = np.empty((int(n.sum()), 3), dtype=INT)
    out[:, 0] = np.repeat(np.arange(-r, r + 1, dtype=INT), n.reshape(ax.size, -1).sum(axis=1))
    out[:, 1] = np.repeat(np.tile(np.arange(-r, r + 1, dtype=INT), ax.size), n)
    out[:, 2] = runs(-h, n)
    return out


def completed_solid_count(r: int) -> int:
    """|completed_solid_voxels(r)| via per-plane disc sizes (streaming)."""
    return solid_count_row(r).total


def enclosed_voxels(vox: np.ndarray) -> np.ndarray:
    """Free cells that a 6-connected flood from outside the bounding box of
    vox cannot reach."""
    if vox.shape[0] == 0:
        return np.zeros((0, 3), dtype=INT)
    lo = vox.min(axis=0) - 1
    hi = vox.max(axis=0) + 1
    shape = tuple((hi - lo + 1).astype(int))
    occ = np.zeros(shape, dtype=np.uint8)
    idx = (vox - lo).astype(np.int64)
    occ[idx[:, 0], idx[:, 1], idx[:, 2]] = 1
    outside = kernels.flood_outside(occ)
    inside = (outside == 0) & (occ == 0)
    where = np.argwhere(inside).astype(INT)
    return canonicalize(where + lo)


def flood_solid_voxels(r: int) -> np.ndarray:
    """The completed hollow sphere of radius r together with everything it
    encloses (6-connected flood fill from outside the bounding box).

    For most small radii this is the set-theoretic "surface plus interior"
    ball, slightly larger than completed_solid_voxels (at r = 2 the polar
    gap voxels bulge past the per-plane discs and seal a bigger interior).
    It degenerates at r = 7, 9 and every r in 11..40 (the range checked):
    there the completed sphere fails to separate inside from outside under
    6-connectivity, and the flood marks nothing as enclosed.  At r = 7, over
    the witness-6 gap column (4, 5) the lifted gap voxels sit at planes
    |j| = 4 while the rings guard the column only for |j| <= 2, leaving a
    one-voxel-wide tunnel at |j| = 3.
    """
    sp = completed_sphere_voxels(r)
    inner = enclosed_voxels(sp)
    if inner.shape[0] == 0:
        return sp
    return canonicalize(np.concatenate([sp, inner]))


def coverage_holes(r: int) -> np.ndarray:
    """Diagnostic: voxels enclosed by, but not part of, the union of all
    completed hollow spheres of radii <= r and the solid's absentee voxels.

    Nonempty from r = 7 on -- e.g. (2, 5, 4): its zx-projection is a gap
    pixel with witness 4, so no ring of any sphere passes through it, no
    lifted gap voxel of any hollow sphere lands on it (that would need a
    square strictly between 36 and 46), and its absentee line stops at
    |j| <= 2.  Every 6-neighbor is covered, so it is sealed inside.

    Only enclosed voxels count, so where the union plus the species leaks
    this undercounts the uncovered voxels of the completed solid: 368
    against 384 at r = 16, 816 against 872 at r = 20.
    """
    covered = np.concatenate([union_completed_spheres(r),
                              solid_absentee_voxels(r)])
    return enclosed_voxels(canonicalize(covered))


def is_absentee_line_voxel(v) -> bool:
    """True when (i, j, k) sits on an absentee line: the zx-projection
    (i, k) is a gap pixel with witness w and |j| <= isqrt(w) + 1."""
    i, j, k = (int(c) for c in v)
    w, absent = classify_pixel(i, k)
    if not absent:
        return False
    return abs(j) <= isqrt(w) + 1


def is_absentee_circle_voxel(v) -> bool:
    """True when (i, j, k) sits on an absentee circle: the zx-projection
    lies on the digital circle of some radius s and (s, |j|) is a gap pixel
    of the cross-section plane."""
    i, j, k = (int(c) for c in v)
    s, absent = classify_pixel(i, k)
    if absent:
        return False
    _, gap = classify_pixel(s, abs(j))
    return gap


def polar_family_contains(v) -> bool:
    """Paraboloid family covering absentee circles that lie above their own
    radius (ring radius s <= plane j): true iff the square of the ring
    radius through (i, k) falls in a gap band of row j.

    Voxels whose zx-projection is the origin or a gap pixel are on no ring
    and never qualify.
    """
    i, j, k = (int(c) for c in v)
    s, absent = classify_pixel(i, k)
    if absent or s == 0:
        return False
    return gap_band_index(s * s, j) is not None


def equatorial_family_contains(v) -> bool:
    """Paraboloid family covering absentee circles that lie below their own
    radius (ring radius s >= plane j): true iff j^2 falls in a gap band of
    row s, s being the ring radius through (i, k)."""
    i, j, k = (int(c) for c in v)
    s, absent = classify_pixel(i, k)
    if absent or s == 0:
        return False
    return gap_band_index(j * j, s) is not None
