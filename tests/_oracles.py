"""Independent reference implementations used only by the tests.

These deliberately avoid the package's interval arithmetic: circle
membership comes from high-precision decimal square roots, discs from the
pixel-by-pixel membership condition, and sphere gap voxels from a direct
between-two-circles set construction over the generatrix.  Slow, box-based,
and written to be obviously faithful to the defining conditions rather than
fast.
"""

from __future__ import annotations

import functools
from decimal import Decimal, ROUND_FLOOR, getcontext

import numpy as np

getcontext().prec = 60

_HALF = Decimal("0.5")


def _nearest_sqrt(d: int) -> int:
    """round(sqrt(d)) via 60-digit decimal arithmetic (d >= 0)."""
    s = Decimal(d).sqrt()
    return int((s + _HALF).to_integral_value(rounding=ROUND_FLOOR))


@functools.cache
def oracle_circle_pixels(r: int) -> set[tuple[int, int]]:
    """Pixels whose dominant coordinate is the rounded chord height of the
    real circle at their minor coordinate.

    Cached; callers must not mutate the returned set in place.
    """
    out = set()
    for i in range(-r - 2, r + 3):
        for j in range(-r - 2, r + 3):
            m, n = max(abs(i), abs(j)), min(abs(i), abs(j))
            d = r * r - n * n
            if d < 0:
                continue
            if m == _nearest_sqrt(d):
                out.add((i, j))
    return out


@functools.cache
def oracle_disc_pixels(r: int) -> set[tuple[int, int]]:
    """Circle pixels plus every pixel between a circle pixel and the y-axis
    on the same row (0 <= i*i_c <= i_c^2).  Cached; do not mutate."""
    ring = oracle_circle_pixels(r)
    out = set(ring)
    for ic, jc in ring:
        step = 1 if ic >= 0 else -1
        for i in range(0, ic + step, step):
            out.add((i, jc))
    return out


def oracle_union_circles(r: int) -> set[tuple[int, int]]:
    out = set()
    for s in range(r + 1):
        out |= oracle_circle_pixels(s)
    return out


def oracle_disc_absentees(r: int) -> set[tuple[int, int]]:
    return oracle_disc_pixels(r) - oracle_union_circles(r)


def _between_circles(w: int) -> set[tuple[int, int]]:
    """Pixels strictly inside the circle of radius w+1 and strictly outside
    the circle of radius w."""
    inner_open = oracle_disc_pixels(w + 1) - oracle_circle_pixels(w + 1)
    return inner_open - oracle_disc_pixels(w)


def oracle_generatrix(r: int) -> list[tuple[int, int]]:
    """First-quadrant arc of the circle of radius r, abscissa ascending."""
    arc = sorted((x, j) for x, j in oracle_circle_pixels(r) if x >= 0 and j >= 0)
    return sorted(arc, key=lambda p: (p[0], -p[1]))


def _radius_steps(r: int) -> list[tuple[int, int, int]]:
    """(w, j_low, j_high) for every generatrix step where the swept radius
    grows from w to w+1; j_low is the plane of the last abscissa-w point and
    j_high the plane of the first abscissa-(w+1) point (equal unless the
    step is diagonal)."""
    gen = oracle_generatrix(r)
    steps = []
    for (x0, j0), (x1, j1) in zip(gen, gen[1:]):
        if x1 == x0 + 1:
            steps.append((x0, j0, j1))
    return steps


def oracle_hemisphere_absentees(r: int) -> set[tuple[int, int, int]]:
    """Gap voxels of the upper hemisphere: whenever the swept radius grows
    from w to w+1, every pixel strictly between those two circles becomes a
    gap voxel on the unique plane j in 1..r satisfying the interval test
    r^2 - j^2 - j <= w^2 < r^2 - j^2 + j.

    The plane is found by scanning all of 1..r rather than just the two
    planes of the step itself: from r=7 on, the qualifying plane can lie
    strictly above both (first case r=7, w=6 -> plane 4, step planes 3 and
    2).  The membership predicate and the per-plane ring structure of the
    completed sphere both hinge on this interval placement, so it is the
    one this oracle pins down.
    """
    out = set()
    for w, _, _ in _radius_steps(r):
        gap = _between_circles(w)
        if not gap:
            continue
        planes = [j for j in range(1, r + 1)
                  if r * r - j * j - j <= w * w < r * r - j * j + j]
        assert len(planes) == 1, (r, w, planes)
        j = planes[0]
        for a, b in gap:
            out.add((a, j, b))
    return out


def oracle_hemisphere_absentees_def4(r: int) -> set[tuple[int, int, int]]:
    """Gap voxels placed per the literal between-consecutive-circles
    wording: both circles centered on the plane of the *larger*-radius
    point, so a diagonal step puts witness-w pixels one plane below the
    last abscissa-w point."""
    out = set()
    for w, _, j_high in _radius_steps(r):
        for a, b in _between_circles(w):
            out.add((a, j_high, b))
    return out


def oracle_hemisphere_absentees_swept(r: int) -> set[tuple[int, int, int]]:
    """Gap voxels placed on the plane of the last abscissa-w point (the
    placement the incremental fixing procedure uses)."""
    out = set()
    for w, j_low, _ in _radius_steps(r):
        for a, b in _between_circles(w):
            out.add((a, j_low, b))
    return out


def oracle_sphere_absentees(r: int) -> set[tuple[int, int, int]]:
    upper = oracle_hemisphere_absentees(r)
    return upper | {(i, -j, k) for i, j, k in upper}


def oracle_sphere_voxels(r: int) -> set[tuple[int, int, int]]:
    """Swept sphere: every first-quadrant arc pixel (x, j) contributes the
    full ring of radius x on planes +j and -j."""
    out = set()
    for x, j in oracle_generatrix(r):
        ring = oracle_circle_pixels(x)
        for a, b in ring:
            out.add((a, j, b))
            out.add((a, -j, b))
    return out


def oracle_flood_outside(occ: np.ndarray) -> np.ndarray:
    """Breadth-first search from every free boundary cell through the free
    cells of a 3-D grid (occ: 1 = occupied), stepping to the six face
    neighbours.  Returns a mask of the cells reached, in occ's dtype."""
    nx, ny, nz = occ.shape
    out = np.zeros_like(occ)
    queue = []
    for x in range(nx):
        for y in range(ny):
            for z in range(nz):
                on_edge = (x in (0, nx - 1) or y in (0, ny - 1)
                           or z in (0, nz - 1))
                if on_edge and occ[x, y, z] == 0:
                    out[x, y, z] = 1
                    queue.append((x, y, z))
    head = 0
    while head < len(queue):
        x, y, z = queue[head]
        head += 1
        for dx, dy, dz in ((1, 0, 0), (-1, 0, 0), (0, 1, 0),
                           (0, -1, 0), (0, 0, 1), (0, 0, -1)):
            xx, yy, zz = x + dx, y + dy, z + dz
            if (0 <= xx < nx and 0 <= yy < ny and 0 <= zz < nz
                    and occ[xx, yy, zz] == 0 and out[xx, yy, zz] == 0):
                out[xx, yy, zz] = 1
                queue.append((xx, yy, zz))
    return out
