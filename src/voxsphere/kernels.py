"""Hot integer-counting kernels, vectorised with numpy over the rows of one
radius.

Every row of a table depends only on its own radius (circ also reads csz), so
size_tables and gap_tallies can compute the rows from ``start`` on by
themselves; analysis._Tables uses that to extend its tables instead of
rebuilding them.

Table conventions:
    csz[s]  -- pixel count of the digital circle of radius s
    dsz[s]  -- pixel count of the filled digital disc of radius s
                (circle pixels of radii 0..s plus the gap pixels between them)
    cnt[w]  -- full-plane count of gap pixels with witness w (strictly
                between the circles of radii w and w+1)
    circ[w] -- sum over octant gap pixels (x <= k, witness w) of
                csz[x] (+ csz[k] when x < k): the per-hemisphere ring-voxel
                budget of the gap's two swept circles
"""

from __future__ import annotations

import math

import numpy as np

from .lattice import INT, exact_isqrt_many


def _ceil_sqrt(a: np.ndarray) -> np.ndarray:
    a = np.maximum(a, 0)
    q = exact_isqrt_many(a)
    return q + (q * q < a)


def _row_spans(r: int):
    """Per-row quantities of C(r) for j = 1..r: (lo, hi, steep_x, xmax).

    lo/hi bound the shallow run (x <= j) in abscissa; steep_x is the single
    steep abscissa or -1; xmax is the row maximum.
    """
    j = np.arange(1, r + 1, dtype=INT)
    c = r * r - j * j  # >= 0, so c + j - 1 >= 0 and row j = r has x = 0
    hi = np.minimum(j, exact_isqrt_many(c + j - 1))
    lo = _ceil_sqrt(c - j)
    x = (exact_isqrt_many(4 * c) + 1) // 2
    steep = np.where(x > j, x, -1)
    xmax = np.where(steep >= 0, steep, hi)
    return lo, hi, steep, xmax


def using_numba() -> bool:
    # numpy is the only backend; perfbench/run.py still records this flag in
    # every result it writes.
    return False


def size_tables(rmax: int, start: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(csz, dsz) for radii start..rmax."""
    if rmax < 0:
        raise ValueError("rmax must be non-negative")
    if not 0 <= start <= rmax + 1:
        raise ValueError("start must lie in 0..rmax+1")
    csz = np.ones(rmax + 1 - start, INT)  # C(0) and D(0) are the origin alone
    dsz = csz.copy()
    for r in range(max(start, 1), rmax + 1):
        lo, hi, steep, xmax = _row_spans(r)
        csz[r - start] = 4 * int((np.maximum(hi - lo + 1, 0) + (steep >= 0)).sum())
        dsz[r - start] = (2 * r + 1) + 2 * int((2 * xmax + 1).sum())
    return csz, dsz


def circle_prefix(csz: np.ndarray) -> np.ndarray:
    """cpref[i] = sum of csz[0..i-1]; cpref has one extra leading zero."""
    cpref = np.zeros(len(csz) + 1, INT)
    np.cumsum(csz, out=cpref[1:])
    return cpref


def surface_totals(r: int, csz: np.ndarray, cpref: np.ndarray) -> int:
    """|sphere(r)| (revolved ring sums, equator deduplicated)."""
    lo, hi, steep, _ = _row_spans(r)
    sel = hi >= lo
    hemi = int((cpref[hi[sel] + 1] - cpref[lo[sel]]).sum())
    hemi += int(csz[steep[steep >= 0]].sum())
    hemi += int(csz[r])  # row j=0 contributes the equator ring only
    return 2 * hemi - int(csz[r])


def solid_totals(r: int, dsz: np.ndarray) -> int:
    """|complete solid(r)| (per-plane filled-disc sums)."""
    xmax = _row_spans(r)[3]
    return int(dsz[r]) + 2 * int(dsz[xmax].sum())


def gap_tallies(wmax: int, csz: np.ndarray, start: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(cnt, circ) for witnesses start..wmax; csz must cover radii 0..wmax."""
    if wmax < 0:
        raise ValueError("wmax must be non-negative")
    if not 0 <= start <= wmax + 1:
        raise ValueError("start must lie in 0..wmax+1")
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


def flood_outside(occ: np.ndarray) -> np.ndarray:
    """Mask of free cells 6-connected to the grid boundary (occ: 1=occupied)."""
    occ = np.ascontiguousarray(occ, np.uint8)
    free = occ == 0
    out = np.zeros(occ.shape, dtype=bool)
    for axis in range(3):
        sl = [slice(None)] * 3
        for edge in (0, -1):
            sl[axis] = edge
            out[tuple(sl)] |= free[tuple(sl)]
    while True:
        grow = out.copy()
        grow[1:, :, :] |= out[:-1, :, :]
        grow[:-1, :, :] |= out[1:, :, :]
        grow[:, 1:, :] |= out[:, :-1, :]
        grow[:, :-1, :] |= out[:, 1:, :]
        grow[:, :, 1:] |= out[:, :, :-1]
        grow[:, :, :-1] |= out[:, :, 1:]
        grow &= free
        if (grow == out).all():
            return out.astype(occ.dtype)
        out = grow
