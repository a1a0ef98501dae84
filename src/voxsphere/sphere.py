"""Digital spheres of revolution and their absentee voxels.

A hemisphere is swept by rotating the first-quadrant arc of a digital circle
about the y axis: every arc pixel (x, j) contributes the digital circle of
radius x in the plane y = j.  Distinct radii give disjoint rings, so the
voxel count of the hemisphere is the sum of ring sizes over arc pixels.

The sweep is built column by column, from this identity: a voxel (x, y, z)
lies on the sphere of radius r exactly when (x, z) lies on some C(q) and
(q, |y|) lies on C(r).  Proof: the upper hemisphere is the union of C(q') in
the plane y = j over the arc pixels (q', j), the pixels of C(r) with q',
j >= 0, and the lower one is its mirror; a pixel lies on at most one
circle, so (x, z) on C(q') forces q' = q.  C(r) is symmetric under x <-> y,
so (q, j) lies on it exactly when (j, q) does, that is when first[q] <= j
<= last[q] for the row extents of C(r) (kernels.row_extents): the planes of
the ring C(q) are the column q of C(r), one run, nonempty for every q <= r
because every row of C(r) holds a pixel.  So one lift builds the
hemisphere: each pixel of C(0), ..., C(r) with radius q goes to the planes
first[q]..last[q].

Gap pixels of the plane (strictly between consecutive digital circles) lift
to gap voxels of the sphere.  A gap pixel (i, k) with witness w belongs to
the sphere of radius r at exactly one plane: the j whose run interval
[r^2 - j^2 - j, r^2 - j^2 + j) contains w^2.  Those intervals tile the
squared radii, making the plane unique, always >= 1 (so the equator never
carries gap voxels), and mirror-symmetric between hemispheres.

Every lift keeps the abscissa of its pixel, so the voxels of abscissas
x0..x1 are the lift of the plane's pixels in those columns.  circle._plane
classifies the box one slab of columns at a time; given the shape's exact
closed count, it keeps each slab narrow enough to lift to about
io._CHUNK_ROWS voxels.  Each builder lifts, mirrors and canonicalizes
one slab at a time and yields it as an x-block, in ascending abscissa; as
the blocks' abscissas are disjoint and ascending, their concatenation is
canonical (io module docstring), each sort covers one block, and no more
than one slab of the plane is held at once.  ``generate`` writes the blocks
as they come.  The array builders copy them into one array sized by the
shape's exact closed count from analysis (circle._joined), and raise should
the blocks hold fewer or more rows: the hemispheres too, each slab
canonicalized on its own, so no builder keeps a list of its blocks or sorts
the whole set again.  The upper hemisphere has (|sphere| + |C(r)|) / 2
voxels: the sphere is it and its mirror, which share only the equator ring
C(r).
"""

from __future__ import annotations

import numpy as np

from . import analysis, circle, kernels
from .lattice import (COORD_MAX, INT, absentee_witness, canonicalize, classify_many, isqrt,
                      runs, symmetric_octet)


def generatrix(r: int) -> np.ndarray:
    """First-quadrant arc of the digital circle C(r), ordered from (0, r) to
    (r, 0): planes descend, abscissas ascend within a plane.  Consecutive
    points differ by one of (+1, 0), (+1, -1), (0, -1)."""
    first, last = (a[::-1] for a in kernels.row_extents(r))
    n = last - first + 1
    return np.stack([runs(first, n), np.repeat(np.arange(r, -1, -1, dtype=INT), n)], axis=1)


def _lift(pix: np.ndarray, j) -> np.ndarray:
    """Pixels (x, z) placed in the plane y = j as voxels (x, j, z); j is one
    plane or one plane per pixel."""
    out = np.empty((len(pix), 3), dtype=pix.dtype)
    out[:, 0], out[:, 1], out[:, 2] = pix[:, 0], j, pix[:, 1]
    return out


def _ring_at(s: int, j: int) -> np.ndarray:
    """Voxels of the digital circle of radius s in the plane y = j."""
    return _lift(circle.circle_pixels(s), j)


def _lift_runs(pix: np.ndarray, start: np.ndarray, count: np.ndarray) -> np.ndarray:
    """Each pixel pix[i] placed in the count[i] planes from start[i] up."""
    return _lift(np.repeat(pix, count, axis=0), runs(start, count))


def _upper(r: int, *gap: bool, rows: int | None = None):
    """The upper-hemisphere lift of each slab of circle._plane(r, *gap,
    rows=rows): a pixel of C(q) goes to the planes of column q of C(r)
    (module docstring), a gap pixel of witness w to the one plane
    gap_plane(r, w).  Distinct rings are disjoint."""
    first, last = kernels.row_extents(r)
    planes = np.array([gap_plane(r, w) for w in range(r)], dtype=INT)
    for slab in circle._plane(r, *gap, rows=rows):
        yield np.concatenate([_lift(pix, planes[q]) if g else
                              _lift_runs(pix, first[q], last[q] - first[q] + 1)
                              for (pix, q), g in zip(slab, gap)])


def _mirrored(upper: np.ndarray) -> np.ndarray:
    """upper followed by its mirror through the equator y = 0."""
    both = np.concatenate([upper, upper])
    both[len(upper):, 1] *= -1
    return both


def _sphere_blocks(r: int, *gap: bool, rows: int):
    """Canonical x-blocks of the sphere lifted from circle._plane(r, *gap):
    each slab's upper hemisphere, mirrored and canonicalized on its own;
    rows is the size of the whole sphere."""
    for upper in _upper(r, *gap, rows=rows):
        yield canonicalize(_mirrored(upper))


def _hemisphere(r: int, gap: bool, rows: int) -> np.ndarray:
    """The upper hemisphere lifted from circle._plane(r, gap), of rows
    voxels: each slab canonicalized on its own, as an x-block."""
    return circle._joined((canonicalize(upper) for upper in _upper(r, gap, rows=rows)), rows)


def hemisphere_voxels(r: int) -> np.ndarray:
    """Upper hemisphere: one ring per generatrix pixel, canonicalized.  The
    generatrix pixels of abscissa q are the column q of C(r), so every pixel
    of C(q) is lifted to that column's run of planes."""
    # the sphere is this and its mirror, which share only the equator ring C(r)
    n = analysis.sphere_count_row(r).primitive + circle.circle_count(r)
    return _hemisphere(r, False, n // 2)


def sphere_blocks(r: int):
    """sphere_voxels(r) as canonical x-blocks, in ascending abscissa."""
    yield from _sphere_blocks(r, False, rows=sphere_surface_count(r))


def sphere_voxels(r: int) -> np.ndarray:
    """Sphere of revolution: hemisphere plus its mirror through the equator."""
    n = analysis.sphere_count_row(r).primitive
    return circle._joined(_sphere_blocks(r, False, rows=n), n)


def sphere_surface_count(r: int) -> int:
    """|sphere_voxels(r)| without materializing the set."""
    return analysis.sphere_count_row(r).primitive


def gap_plane(r: int, w: int) -> int:
    """The unique plane j >= 1 of the radius-r sphere holding the gap voxels
    of witness w: j(j+1) >= r^2 - w^2 and j(j-1) < r^2 - w^2."""
    if not 0 <= w < r:
        raise ValueError("witness must satisfy 0 <= w < r")
    # j(j - 1) < q <= j(j + 1) reads (2j - 1)^2 < 4q < (2j + 1)^2
    return (isqrt(4 * (r * r - w * w)) + 1) // 2


def step_gap_voxels(gen: np.ndarray, t: int) -> np.ndarray:
    """Gap voxels introduced by the generatrix step t -> t+1 (0-based), which
    must grow the swept radius by one.  The gap pixels between the circles of
    radii x_t and x_t + 1 are expanded over their eight plane symmetries and
    placed at the plane whose run interval contains the witness square."""
    if not 0 <= t < len(gen) - 1:
        raise ValueError("step index out of range")
    w = int(gen[t, 0])
    if int(gen[t + 1, 0]) != w + 1:
        raise ValueError("step does not grow the swept radius")
    j = gap_plane(int(gen[0, 1]), w)
    parts = [_lift(symmetric_octet(a, b), j) for a, b in circle.iter_octant_absentees(w)]
    if not parts:
        return np.zeros((0, 3), dtype=INT)
    return canonicalize(np.concatenate(parts))


def hemisphere_absentees(r: int) -> np.ndarray:
    """All upper-hemisphere gap voxels: the union of step_gap_voxels over the
    radius-growing generatrix steps; one voxel per gap pixel of the disc."""
    return _hemisphere(r, True, analysis.sphere_count_row(r).absentee // 2)


def sphere_absentee_blocks(r: int):
    """sphere_absentees(r) as canonical x-blocks, in ascending abscissa."""
    yield from _sphere_blocks(r, True, rows=sphere_absentee_count(r))


def sphere_absentees(r: int) -> np.ndarray:
    """Gap voxels of both hemispheres (the mirror never meets the equator)."""
    n = analysis.sphere_count_row(r).absentee
    return circle._joined(_sphere_blocks(r, True, rows=n), n)


def sphere_absentee_count(r: int) -> int:
    """|sphere_absentees(r)| without materializing the set."""
    return analysis.sphere_count_row(r).absentee


def completed_sphere_blocks(r: int):
    """completed_sphere_voxels(r) as canonical x-blocks, in ascending
    abscissa.  Its rings and gap pixels come from one classified plane."""
    yield from _sphere_blocks(r, False, True, rows=completed_sphere_count(r))


def completed_sphere_voxels(r: int) -> np.ndarray:
    """Sphere of revolution with every gap voxel filled in."""
    n = analysis.sphere_count_row(r).total
    return circle._joined(_sphere_blocks(r, False, True, rows=n), n)


def completed_sphere_count(r: int) -> int:
    """|completed_sphere_voxels(r)| without materializing the set."""
    return analysis.sphere_count_row(r).total


def is_sphere_absentee(v, r: int) -> bool:
    """Whether voxel v = (i, j, k) is a gap voxel of the radius-r sphere:
    its in-plane pixel must lie strictly between two consecutive circles
    (witness w) and w^2 must fall in the run interval of its plane."""
    i, j, k = (int(c) for c in v)
    w = absentee_witness(i, k)
    if w is None:
        return False
    jj = abs(j)
    c = r * r - jj * jj
    return c - jj <= w * w < c + jj


def is_sphere_absentee_many(vox: np.ndarray, r: int) -> np.ndarray:
    """Vectorised is_sphere_absentee over an (N, 3) int array.

    Exact for coordinates and r in [-COORD_MAX, COORD_MAX], where every
    square below stays under 2^63; raises ValueError beyond it.
    """
    vox = np.asarray(vox, dtype=INT)
    q, absent = classify_many(vox[:, 0], vox[:, 2])
    j = vox[:, 1]
    if abs(r) > COORD_MAX or (j.size and (j.min() < -COORD_MAX or j.max() > COORD_MAX)):
        raise ValueError(f"coordinates and radius must lie in [-{COORD_MAX}, {COORD_MAX}]")
    jj = np.abs(j)
    c = r * r - jj * jj
    ww = q * q
    return absent & (c - jj <= ww) & (ww < c + jj)


def parabolic_family_contains(v) -> bool:
    """Whether the octant-restricted voxel (i, j, k), 0 <= i <= k, j >= 0,
    lies in the translation-invariant parabolic gap family: some band
    (2h+1)k + h^2 <= i^2 < (2h+1)k + (h+1)^2 with k + h >= 1 contains it.
    Exactly the voxels whose (i, k) pixel is a gap pixel."""
    i, j, k = (int(c) for c in v)
    if not (0 <= i <= k) or j < 0:
        raise ValueError("voxel outside the supported octant")
    return circle.parabolic_band_index(i, k) is not None
