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
import math
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


def _octet(a: int, b: int) -> set[tuple[int, int]]:
    return {(sa * p, sb * q) for p, q in ((a, b), (b, a))
            for sa in (1, -1) for sb in (1, -1)}


def oracle_completed_solid_voxels(r: int) -> set[tuple[int, int, int]]:
    """Plane by plane: the plane y = j carries the filled disc whose radius
    is the largest abscissa of C(r) on row |j|."""
    ring = oracle_circle_pixels(r)
    out = set()
    for j in range(-r, r + 1):
        s = max(x for x, y in ring if y == abs(j))
        out |= {(a, j, b) for a, b in oracle_disc_pixels(s)}
    return out


def oracle_solid_absentee_voxels(r: int) -> set[tuple[int, int, int]]:
    """Gap pixel by gap pixel, from the package's scalar octant enumeration:
    every octant gap pixel (x, k) with witness w <= r - 1 carries, over each
    image in its octet, a line |j| <= isqrt(w), and the rings C(x) in the
    planes y = +-k and C(k) in the planes y = +-x."""
    from voxsphere.circle import iter_octant_absentees

    out = set()
    for w in range(1, r):
        h = math.isqrt(w)
        for x, k in iter_octant_absentees(w):
            for a, b in _octet(x, k):
                out |= {(a, j, b) for j in range(-h, h + 1)}
            for s, j in ((x, k), (x, -k), (k, x), (k, -x)):
                out |= {(a, j, b) for a, b in oracle_circle_pixels(s)}
    return out


def oracle_plane(n: int) -> tuple[np.ndarray, np.ndarray]:
    """circle._plane(n) classified as one whole box and not in slabs: the
    canonical pixels of [-n, n]^2 with shell index s <= 2n, and s (2q on
    C(q), 2w + 1 in the gap of witness w)."""
    from voxsphere.lattice import classify_many

    axis = np.arange(-n, n + 1, dtype=np.int64)
    box = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    q, absent = classify_many(box[:, 0], box[:, 1])
    s = 2 * q + absent
    return box[s <= 2 * n], s[s <= 2 * n]


def oracle_union_completed_spheres(r: int) -> np.ndarray:
    """The union of the completed hollow spheres of radii 0..r, sphere by
    sphere: their concatenation, canonicalized."""
    from voxsphere.lattice import canonicalize
    from voxsphere.sphere import completed_sphere_voxels

    return canonicalize(np.concatenate([completed_sphere_voxels(s) for s in range(r + 1)]))


def union_circles(radii) -> np.ndarray:
    """Union of the digital circles with the given radii, canonicalized."""
    from voxsphere.circle import circle_pixels
    from voxsphere.lattice import INT, canonicalize

    parts = [circle_pixels(int(s)) for s in radii]
    if not parts:
        return np.zeros((0, 2), dtype=INT)
    return canonicalize(np.concatenate(parts))


def row_tiling_check(r: int, limit: int) -> bool:
    """On the fixed row k = r >= 1, the run intervals I(r', k) and the gap
    intervals J(r', k) for r' = k, k+1, ... alternate and exactly partition
    the squared abscissas [0, limit) -- a regression guard on the interval
    formulas."""
    from voxsphere.circle import absentee_interval, run_interval

    k = r
    if k < 1:
        raise ValueError("tiling is defined for rows k >= 1")
    pos = 0
    rp = k
    while pos < limit:
        iv = run_interval(rp, k)
        if max(iv.lo, 0) != pos or iv.hi < pos:
            return False
        pos = iv.hi
        gap = absentee_interval(rp, k)
        if gap.lo != pos or gap.hi < pos:
            return False
        pos = gap.hi
        rp += 1
    return True


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


def oracle_size_tables(rmax: int, start: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(csz, dsz) for radii start..rmax, one radius at a time over all of its
    rows j = 1..r: the table builder the blocked octant sweep replaced.  The
    quadrant rows j >= 1 of C(r), turned by quarter turns, tile C(r) less the
    origin; D(r) is its columns |x| <= last_j, row 0 once."""
    from voxsphere.kernels import row_extents
    from voxsphere.lattice import INT

    csz = np.ones(rmax + 1 - start, INT)  # C(0) and D(0) are the origin alone
    dsz = csz.copy()
    for r in range(max(start, 1), rmax + 1):
        first, last = row_extents(r)
        csz[r - start] = 4 * int((last[1:] - first[1:] + 1).sum())
        dsz[r - start] = 2 * int((2 * last + 1).sum()) - (2 * r + 1)
    return csz, dsz


def oracle_gap_tallies(wmax: int, csz: np.ndarray, start: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(cnt, circ) for witnesses start..wmax, one witness at a time: the
    tally loop the blocked octant sweep replaced."""
    from voxsphere.kernels import _ceil_sqrt
    from voxsphere.lattice import INT

    cnt = np.zeros(wmax + 1 - start, INT)
    circ = np.zeros(wmax + 1 - start, INT)
    for w in range(max(start, 1), wmax + 1):
        k0 = max(1, math.isqrt((w * w) // 2) - 2)
        k = np.arange(k0, w + 1, dtype=INT)
        lo = w * w - k * k + k
        hi = (w + 1) * (w + 1) - k * k - k
        x = _ceil_sqrt(lo)
        hit = (x * x < hi) & (x <= k)  # k <= w keeps hi - lo = 2(w - k) + 1 > 0
        if not hit.any():
            continue
        xh = x[hit]
        kh = k[hit]
        diag = xh == kh
        cnt[w - start] = 4 * int(diag.sum()) + 8 * int((~diag).sum())
        circ[w - start] = int(csz[xh].sum() + csz[kh[~diag]].sum())
    return cnt, circ


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


def oracle_canonicalize(points: np.ndarray) -> np.ndarray:
    """Sorted distinct rows of an (N, k) int64 array, by numpy's own
    row-wise unique."""
    arr = np.asarray(points, dtype=np.int64)
    if arr.size == 0:
        return arr.reshape(0, arr.shape[1])
    return np.unique(arr, axis=0)


def _oracle_rows(pts: np.ndarray, sep: str) -> str:
    """One Python string per row: str() of each coordinate, joined by sep."""
    return "".join(sep.join(str(c) for c in row) + "\n" for row in pts.tolist())


def oracle_canonical_text(vox: np.ndarray) -> str:
    return _oracle_rows(np.asarray(vox, dtype=np.int64), " ")


def oracle_csv(vox: np.ndarray) -> str:
    pts = np.asarray(vox, dtype=np.int64)
    header = "i,j" if pts.shape[1] == 2 else "i,j,k"
    return header + "\n" + _oracle_rows(pts, ",")


def oracle_ply(vox: np.ndarray) -> str:
    pts = np.asarray(vox, dtype=np.int64)
    if pts.shape[1] == 2:
        pts = np.hstack([pts, np.zeros((pts.shape[0], 1), dtype=np.int64)])
    head = (
        "ply\n"
        "format ascii 1.0\n"
        f"element vertex {pts.shape[0]}\n"
        "property int x\n"
        "property int y\n"
        "property int z\n"
        "end_header\n"
    )
    return head + _oracle_rows(pts, " ")


ORACLE_EMITTERS = {
    "canonical-text": oracle_canonical_text,
    "csv": oracle_csv,
    "ply-ascii": oracle_ply,
}


def parse_canonical_text(text: str | bytes) -> np.ndarray:
    """Inverse of io.emit(..., "canonical-text"); accepts 2- or 3-column
    input and re-canonicalizes, so parse(emit(S)) == S for canonical S."""
    rows = []
    width = None
    for ln, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if width is None:
            width = len(parts)
            if width not in (2, 3):
                raise ValueError(f"line {ln}: expected 2 or 3 columns")
        if len(parts) != width:
            raise ValueError(f"line {ln}: expected {width} columns")
        rows.append([int(p) for p in parts])
    if not rows:
        return np.zeros((0, 3), dtype=np.int64)
    return oracle_canonicalize(np.array(rows, dtype=np.int64))
