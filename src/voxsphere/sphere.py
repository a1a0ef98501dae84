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
because every row of C(r) holds a pixel.

Gap pixels of the plane (strictly between consecutive digital circles) lift
to gap voxels of the sphere.  A gap pixel (i, k) with witness w belongs to
the sphere of radius r at exactly one plane: the j whose run interval
[r^2 - j^2 - j, r^2 - j^2 + j) contains w^2.  Those intervals tile the
squared radii, making the plane unique, always >= 1 (so the equator never
carries gap voxels), and mirror-symmetric between hemispheres.

So a pixel's planes depend only on its shell index s (2q on C(q), 2w + 1
in the gap of witness w; circle._plane): a shape built from the plane is
its profile, the rows (s, y), ascending in s, that give a pixel of index s
the plane y.  The completed sphere's (_profile) is column q of C(r) at
s = 2q and +-gap_plane(r, w) at s = 2w + 1; the sphere keeps its even
rows, the absentees the odd ones, the hemispheres those with y >= 0 (the
solid's profiles: solid module docstring).  One lift (_lifted) repeats each
pixel of a run of circle._plane over its rows and canonicalizes the run as
an x-block; a pixel of index s weighs its profile rows in the cut of the
runs, so a run lifts to about io._CHUNK_ROWS voxels, whatever the count.
The blocks, disjoint and ascending in x, concatenate to the canonical set
(io module docstring), and ``generate`` writes them as they come.  The
array builders copy them into one array of the shape's exact closed count
from analysis (circle._joined), which raises should they hold fewer or
more rows.  The upper hemisphere has (|sphere| + |C(r)|) / 2 voxels: it and
its mirror share only the equator ring C(r).
"""

from __future__ import annotations

import numpy as np

from . import analysis, circle, kernels
from .lattice import (COORD_MAX, INT, absentee_witness, canonicalize, classify_many,
                      exact_isqrt_many, isqrt, runs, symmetric_octet)


def generatrix(r: int) -> np.ndarray:
    """First-quadrant arc of the digital circle C(r), ordered from (0, r) to
    (r, 0): planes descend, abscissas ascend within a plane.  Consecutive
    points differ by one of (+1, 0), (+1, -1), (0, -1)."""
    first, last = (a[::-1] for a in kernels.row_extents(r))
    n = last - first + 1
    return np.stack([runs(first, n), np.repeat(np.arange(r, -1, -1, dtype=INT), n)], axis=1)


def _lift(pix: np.ndarray, j, n=None) -> np.ndarray:
    """Pixels (x, z) placed in the planes y = j as voxels (x, j, z), pixel i
    n[i] times (once if n is None); j is one plane or one per voxel."""
    out = np.empty((len(pix) if n is None else int(n.sum()), 3), dtype=pix.dtype)
    out[:, 1] = j
    out[:, 0::2] = pix if n is None else np.repeat(pix, n, axis=0)
    return out


def _profile(r: int, rings: bool = True, gaps: bool = True, lower: bool = True) -> np.ndarray:
    """The completed sphere's profile (module docstring), with the rows of
    the rings, of the gaps and below the equator only as asked."""
    first, last = kernels.row_extents(r)
    planes = _gap_planes(r, np.arange(r, dtype=INT))
    lo, hi = np.empty((2, 2 * r + 1), dtype=INT)
    lo[0::2], lo[1::2] = first, planes
    hi[0::2], hi[1::2] = last, planes
    n, y = circle._mirrored_runs(lo, hi)
    s = np.repeat(np.arange(2 * r + 1, dtype=INT), n)
    keep = np.array([rings, gaps])[s % 2] & ((y >= 0) | lower)
    return np.stack([s[keep], y[keep]], axis=1)


def _gap_planes(r: int, w: np.ndarray) -> np.ndarray:
    """gap_plane(r, w) for each witness of w (0 <= w < r); r * r past int64
    raises OverflowError."""
    c = r * r - w * w
    j = exact_isqrt_many(c)
    j += j * (j + 1) < c  # j(j - 1) < c <= j(j + 1), from j = isqrt(c)
    return j


def _lifted(r: int, profile: np.ndarray):
    """Canonical x-blocks of the shape of profile: each pixel (x, z) of
    index s of circle._plane(r) goes to the voxels (x, y, z) of the
    profile's rows (s, y), so it weighs as many rows as s has there."""
    s, y = profile.T
    cut = np.searchsorted(s, np.arange(2 * r + 2))
    for pix, t in circle._plane(r, np.diff(cut)):
        yield _lifted_slab(pix, t, cut, y)


def _lifted_slab(pix: np.ndarray, t: np.ndarray, cut: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The voxels of pixel i of pix in the planes y[cut[t[i]]:cut[t[i] + 1]],
    canonicalized.  A call of its own, so that no temporary of the slab is
    held while the block is written."""
    n = cut[t + 1] - cut[t]
    return canonicalize(_lift(pix, y[runs(cut[t], n)], n))


def hemisphere_voxels(r: int) -> np.ndarray:
    """Upper hemisphere: one ring per generatrix pixel, the rows y >= 0 of
    the sphere's profile (module docstring)."""
    n = (analysis.sphere_count_row(r).primitive + circle.circle_count(r)) // 2
    return circle._joined(_lifted(r, _profile(r, gaps=False, lower=False)), n)


def sphere_blocks(r: int):
    """sphere_voxels(r) as canonical x-blocks, in ascending abscissa."""
    yield from _lifted(r, _profile(r, gaps=False))


def sphere_voxels(r: int) -> np.ndarray:
    """Sphere of revolution: hemisphere plus its mirror through the equator."""
    return circle._joined(sphere_blocks(r), sphere_surface_count(r))


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
    return circle._joined(_lifted(r, _profile(r, rings=False, lower=False)),
                          circle.disc_absentee_count(r))


def sphere_absentee_blocks(r: int):
    """sphere_absentees(r) as canonical x-blocks, in ascending abscissa."""
    yield from _lifted(r, _profile(r, rings=False))


def sphere_absentees(r: int) -> np.ndarray:
    """Gap voxels of both hemispheres (the mirror never meets the equator)."""
    return circle._joined(sphere_absentee_blocks(r), sphere_absentee_count(r))


def sphere_absentee_count(r: int) -> int:
    """|sphere_absentees(r)| without materializing the set."""
    return analysis.sphere_count_row(r).absentee


def completed_sphere_blocks(r: int):
    """completed_sphere_voxels(r) as canonical x-blocks, in ascending
    abscissa.  Its rings and gap pixels come from one classified plane."""
    yield from _lifted(r, _profile(r))


def completed_sphere_voxels(r: int) -> np.ndarray:
    """Sphere of revolution with every gap voxel filled in."""
    return circle._joined(completed_sphere_blocks(r), completed_sphere_count(r))


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
