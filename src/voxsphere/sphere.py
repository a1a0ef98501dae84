"""Digital spheres of revolution and their absentee voxels.

A hemisphere is swept by rotating the first-quadrant arc of a digital circle
about the y axis: every arc pixel (x, j) contributes the digital circle of
radius x in the plane y = j.  Distinct radii give disjoint rings, so the
voxel count of the hemisphere is the sum of ring sizes over arc pixels.

Gap pixels of the plane (strictly between consecutive digital circles) lift
to gap voxels of the sphere.  A gap pixel (i, k) with witness w belongs to
the sphere of radius r at exactly one plane: the j whose run interval
[r^2 - j^2 - j, r^2 - j^2 + j) contains w^2.  Those intervals tile the
squared radii, making the plane unique, always >= 1 (so the equator never
carries gap voxels), and mirror-symmetric between hemispheres.
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
    return np.insert(pix, 1, j, axis=1)


def _ring_at(s: int, j: int) -> np.ndarray:
    """Voxels of the digital circle of radius s in the plane y = j."""
    return _lift(circle.circle_pixels(s), j)


def _lift_rings(s: np.ndarray, j: np.ndarray, rings) -> np.ndarray:
    """The ring C(s[i]) in the plane y = j[i] for every i, concatenated;
    rings is circle._rings(n) for some n >= max(s)."""
    pix, start = rings
    size = start[s + 1] - start[s]
    return _lift(pix[runs(start[s], size)], np.repeat(j, size))


def _upper_rings(r: int, rings) -> np.ndarray:
    """The rings of the upper hemisphere, one per generatrix pixel, in no
    particular order; distinct rings are disjoint.  rings is
    circle._rings(r)."""
    gen = generatrix(r)
    return _lift_rings(gen[:, 0], gen[:, 1], rings)


def _mirrored(upper: np.ndarray) -> np.ndarray:
    """upper followed by its mirror through the equator y = 0."""
    both = np.concatenate([upper, upper])
    both[len(upper):, 1] *= -1
    return both


def hemisphere_voxels(r: int) -> np.ndarray:
    """Upper hemisphere: one ring per generatrix pixel, canonicalized."""
    return canonicalize(_upper_rings(r, circle._rings(r)))


def sphere_voxels(r: int) -> np.ndarray:
    """Sphere of revolution: hemisphere plus its mirror through the equator."""
    return canonicalize(_mirrored(_upper_rings(r, circle._rings(r))))


def sphere_surface_count(r: int) -> int:
    """|sphere_voxels(r)| without materializing the set."""
    return analysis.sphere_count_row(r).primitive


def gap_plane(r: int, w: int) -> int:
    """The unique plane j >= 1 of the radius-r sphere holding the gap voxels
    of witness w: j(j+1) >= r^2 - w^2 and j(j-1) < r^2 - w^2."""
    if not 0 <= w < r:
        raise ValueError("witness must satisfy 0 <= w < r")
    q = r * r - w * w
    j = isqrt(q)
    while j * (j + 1) < q:
        j += 1
    while j >= 1 and (j - 1) * j >= q:
        j -= 1
    return j


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


def _upper_gaps(r: int, gap_pixels) -> np.ndarray:
    """Every upper-hemisphere gap voxel, in no particular order: each gap
    pixel of the disc, lifted to the plane of its witness.  gap_pixels is
    circle._gap_pixels(r)."""
    gaps, w = gap_pixels
    planes = np.array([gap_plane(r, v) for v in range(r)], dtype=INT)
    return _lift(gaps, planes[w])


def hemisphere_absentees(r: int) -> np.ndarray:
    """All upper-hemisphere gap voxels: the union of step_gap_voxels over the
    radius-growing generatrix steps; one voxel per gap pixel of the disc."""
    return canonicalize(_upper_gaps(r, circle._gap_pixels(r)))


def sphere_absentees(r: int) -> np.ndarray:
    """Gap voxels of both hemispheres (the mirror never meets the equator)."""
    return canonicalize(_mirrored(_upper_gaps(r, circle._gap_pixels(r))))


def completed_sphere_voxels(r: int) -> np.ndarray:
    """Sphere of revolution with every gap voxel filled in.  Its rings and
    gap pixels come from one classified plane."""
    rings, gaps = circle._rings_and_gaps(r)
    return canonicalize(_mirrored(np.concatenate([_upper_rings(r, rings), _upper_gaps(r, gaps)])))


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
