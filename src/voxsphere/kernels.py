"""Hot integer-counting kernels, vectorised with numpy.

Every row of a table depends only on its own radius (circ also reads csz), so
size_tables and gap_tallies can compute the rows from ``start`` on by
themselves; analysis._Tables uses that to extend its tables instead of
rebuilding them.

Table conventions:
    csz[s]  -- pixel count of the digital circle of radius s
    dsz[s]  -- pixel count of the filled digital disc of radius s
    cnt[w]  -- full-plane count of gap pixels with witness w (strictly
                between the circles of radii w and w+1)
    circ[w] -- sum over octant gap pixels (x <= k, witness w) of
                csz[x] (+ csz[k] when x < k): the per-hemisphere ring-voxel
                budget of the gap's two swept circles

A disc is its circles plus its gap pixels and nothing else:

    |D(r)| = csz[0..r].sum() + cnt[0..r-1].sum().

Proof.  Give the pixel (x, y) other than the origin, with m >= n its sorted
absolute coordinates and t = m^2 + n^2, the shell index
2 isqrt(t + m) + [isqrt(t + m)^2 <= t - m], and the origin index 0: 2q on
C(q), 2w + 1 in the gap of witness w (lattice.classify_many), so the circles
and the gaps are pairwise disjoint and cover the plane.  Along a row y = j,
both t + m and t - m are nondecreasing in |x| (x^2 + j^2 +- j below the
diagonal, x^2 +- |x| + j^2 from it on, equal on it), and the index is
nondecreasing in them: a larger isqrt(t + m) raises it by at least one, an
equal one leaves only the indicator, which t - m can only switch on.  Each
row |j| <= r holds a pixel of C(r), so the pixels of index <= 2r on it are
the |x| up to last_j, the end of its quadrant run first_j..last_j
(row_extents); a row |j| > r holds none, since (0, j) already has index
2|j|.  That is the column fill of D(r) (circle.disc_pixels).  The count rows
sum over the runs the builders lift, in O(r) (j = 0..r, row 0 once): the
generatrix pixel (q, j) sweeps the ring C(q), the plane y = +-j of the
complete solid is D(last_j) (solid_totals), and

    |D(r)| = 2 * sum_j (2 last_j + 1) - (2r + 1),
    |hemisphere(r)| = sum_j (cpref[last_j + 1] - cpref[first_j]).

analysis._Tables derives dsz from the cover identity; a hollow count row
reads it the other way round, as the gap total cnt[0..r-1].sum() = |D(r)| -
csz[0..r].sum(), with no sweep at all (surface_totals).  Only the solid
rows, which weight each cnt[w] and circ[w] separately, need gap_tallies.

row_extents is the one source of the runs.  Its (first, last) arrays are
read-only, and it keeps the pairs of the small radii, r <= _KEPT_R (127), for
the life of the process: at most 2 KiB a pair, and 16 * 128 * 129 / 2 =
132,096 bytes in all, with no accounting.  verify, which rebuilds hundreds of
small sets, re-reads those radii: run("all", 32) reads the runs 1149 times
and computes them 68 times.  A larger pair is computed on each call and
kept by no one, so the count sweeps, which read each radius once or twice,
keep nothing past the call.

The counts work on octant rows: pairs (r, j) of a radius and a row j >= 1
whose pixels (x, j) with 0 <= x <= j are counted and then multiplied out by
the eight-fold symmetry.  gap_tallies is the one sweep over them, about
0.29 r pairs per radius from row r / sqrt(2) up, each one exact ceil-sqrt.
The pairs of consecutive radii are laid out flat (``lattice.runs`` for the
rows, ``np.repeat`` for the radius), in blocks of about _BLOCK pairs, and
summed per radius with ``np.add.reduceat`` in int64: the Python loop runs
once per block, not once per radius, and a block's working set stays small.

size_tables needs four rows per radius.  With F_j = ceil_sqrt(r^2 - j^2 + j)
(0 for j > r), the octant row j of C(r) is x in [F_{j+1}, F_j) clipped to
x <= j; a diagonal pixel counted as half, it holds (min(2F_j, 2j+1) -
min(2F_{j+1}, 2j+1)) / 2 pixels.  From a row k0 on, the sum telescopes to
min(2F_k0, 2k0+1) plus, for each later row, clip(2F_j - 2j + 1, 0, 2),
which is zero unless (2j - 1)(j - 1) < r^2.  With m = isqrt(r^2 / 2),
r^2 < 2(m+1)^2 <= (2m+3)(m+1), so the rows from m + 2 on drop out; a row
j < m is empty (r^2 >= 2(j+1)^2 > 2j^2 + j, so F_{j+1} > j), so any
k0 <= m will do.  k0 = max(m - 2, 1), where gap_tallies starts, leaves the
rows k0..k0+3, and csz[r] = 4 * sum - 4 (the axis pixels count twice).
"""

from __future__ import annotations

import functools

import numpy as np

from .lattice import INT, exact_isqrt_many, runs

_BLOCK = 2**13  # (radius, row) pairs per block of gap_tallies


def _ceil_sqrt(a: np.ndarray) -> np.ndarray:
    a = np.maximum(a, 0)
    q = exact_isqrt_many(a)
    return q + (q * q < a)


_KEPT_R = 127  # row_extents keeps the pairs of the radii 0.._KEPT_R


def row_extents(r: int) -> tuple[np.ndarray, np.ndarray]:
    """(first, last) abscissas of C(r) on the rows j = 0..r: quadrant row j
    is the run first..last, the shallow x <= j with c - j <= x^2 < c + j
    (c = r^2 - j^2), then the steep x > j, if any; row 0 is x = r alone.

    The arrays are read-only.  A pair of r <= _KEPT_R is computed once and
    shared by every call; a larger one is computed on each call."""
    r = int(r)
    return _kept(r) if r <= _KEPT_R else _row_extents(r)


@functools.cache
def _kept(r: int) -> tuple[np.ndarray, np.ndarray]:
    """row_extents(r) for r <= _KEPT_R, computed once per process."""
    return _row_extents(r)


def _row_extents(r: int) -> tuple[np.ndarray, np.ndarray]:
    """row_extents(r), computed, read-only."""
    if r < 0:
        raise ValueError("radius must be non-negative")
    j = np.arange(r + 1, dtype=INT)
    c = r * r - j * j
    sq = np.maximum(np.concatenate([c + j - 1, c - j, c]), 0)  # -1: C(0), row 0
    top, lo, x = exact_isqrt_many(sq).reshape(3, r + 1)
    lo += lo * lo < sq[r + 1:2 * r + 2]  # ceil_sqrt(c - j)
    # x(x - 1) < c <= x(x + 1), from q = isqrt(c): 4c overflows past r ~ 1.52e9
    x += x * (x + 1) < c
    hi = np.minimum(j, top)
    out = np.where(hi >= lo, lo, x), np.where(x > j, x, hi)
    for a in out:
        a.flags.writeable = False
    return out


def using_numba() -> bool:
    # numpy is the only backend; perfbench/run.py still records this flag in
    # every result it writes.
    return False


def _blocks(count: np.ndarray, size: int = _BLOCK):
    """(a, b) index ranges of consecutive items holding about size units
    each, where item i has count[i] units: a block closes before the first
    item whose units start past the next multiple of size."""
    if not count.size:
        return ()
    if count.sum() - count[-1] < size:  # one block: every item starts in it
        return ((0, count.size),)
    block = (np.cumsum(count) - count) // size
    cut = (np.flatnonzero(block[1:] != block[:-1]) + 1).tolist()
    return zip([0] + cut, cut + [count.size])


def size_tables(rmax: int, start: int = 0) -> np.ndarray:
    """csz for radii start..rmax, from the rows k0..k0+3 of each radius
    (module docstring)."""
    if rmax < 0:
        raise ValueError("rmax must be non-negative")
    if not 0 <= start <= rmax + 1:
        raise ValueError("start must lie in 0..rmax+1")
    csz = np.ones(rmax + 1 - start, INT)  # C(0) is the origin alone
    r = np.arange(max(start, 1), rmax + 1, dtype=INT)
    rr = r * r
    k0 = np.maximum(exact_isqrt_many(rr // 2) - 2, 1)
    acc = np.minimum(2 * _ceil_sqrt(rr - k0 * k0 + k0), 2 * k0 + 1)
    for d in (1, 2, 3):  # one row at a time keeps the working set O(R)
        j = k0 + d
        acc += np.clip(2 * _ceil_sqrt(rr - j * j + j) - 2 * j + 1, 0, 2)
    csz[csz.size - r.size:] = 4 * acc - 4
    return csz


def circle_prefix(csz: np.ndarray) -> np.ndarray:
    """cpref[i] = sum of csz[0..i-1]; cpref has one extra leading zero."""
    cpref = np.zeros(len(csz) + 1, INT)
    np.cumsum(csz, out=cpref[1:])
    return cpref


def surface_totals(r: int, csz: np.ndarray, cpref: np.ndarray) -> tuple[int, int]:
    """(|sphere(r)|, gap pixels of D(r)), summed over the runs of
    row_extents(r) (module docstring).  csz and cpref must cover 0..r."""
    first, last = row_extents(r)
    hemi = int((cpref[last + 1] - cpref[first]).sum())
    disc = 2 * int((2 * last + 1).sum()) - (2 * r + 1)
    return 2 * hemi - int(csz[r]), disc - int(cpref[r + 1])


def solid_totals(r: int, dsz: np.ndarray) -> int:
    """|complete solid(r)|: D(last_j) on each plane y = +-j (module docstring)."""
    last = row_extents(r)[1]
    return 2 * int(dsz[last].sum()) - int(dsz[r])


def gap_tallies(wmax: int, csz: np.ndarray, start: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """(cnt, circ) for witnesses start..wmax; csz must cover radii 0..wmax.

    The octant row k of the gap of witness w holds at most one pixel: the
    least x with x^2 >= w^2 - k^2 + k, when x <= k and x^2 < (w+1)^2 - k^2 - k.
    Rows below isqrt(w^2 / 2) - 2 hold none.
    """
    if wmax < 0:
        raise ValueError("wmax must be non-negative")
    if not 0 <= start <= wmax + 1:
        raise ValueError("start must lie in 0..wmax+1")
    cnt = np.zeros(wmax + 1 - start, INT)
    circ = np.zeros(wmax + 1 - start, INT)
    w = np.arange(max(start, 1), wmax + 1, dtype=INT)
    ww = w * w
    k0 = np.maximum(exact_isqrt_many(ww // 2) - 2, 1)
    rows = w - k0 + 1
    o = cnt.size - w.size  # 1 when the tables start at witness 0
    for a, b in _blocks(rows):
        n = rows[a:b]
        k = runs(k0[a:b], n)
        lo = np.repeat(ww[a:b], n) - k * k + k
        x = _ceil_sqrt(lo)
        # x^2 < (w+1)^2 - k^2 - k, as x^2 - lo < 2(w - k) + 1
        hit = (x * x - lo < 2 * (np.repeat(w[a:b], n) - k) + 1) & (x <= k)
        off = hit & (x < k)
        seg = np.cumsum(n) - n
        cnt[o + a:o + b] = np.add.reduceat(4 * hit + 4 * off, seg)
        circ[o + a:o + b] = np.add.reduceat(hit * csz[x] + off * csz[k], seg)
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
