"""Digital circles and discs in the plane, and their absentee pixels.

The squared-abscissa view drives everything: on the row y = k, the pixel
(x, k) with 0 <= x <= k lies on the circle C(r), r >= 1, exactly when

    x^2  in  I(r, k) = [r^2 - k^2 - k, r^2 - k^2 + k)

and the gap between consecutive circles C(w), C(w+1) on that row is

    J(w, k) = [w^2 - k^2 + k, (w+1)^2 - k^2 - k).

J(w, k) is nonempty only for k <= w, and it can contain a perfect square
only when 2k^2 - k >= w^2, so absentees cluster around the diagonal and
never touch the axes.

The disc is filled column by column (disc_blocks), and the classified plane
(_plane) is that fill with each pixel's shell index, in runs of whole
columns: the disc's gap pixels are its odd-index pixels, and every 3-D
shape built from the plane lifts its runs (sphere module docstring).  All
are x-blocks, runs of whole columns that kernels._blocks cuts to about
io._CHUNK_ROWS of the rows the construction yields, never by the shape's
exact closed count, which only checks them (io.counted): ``generate``
writes them as they come, and every array builder copies them into one
array of that count (_joined), never holding a list of them at once.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np

from . import analysis, io, kernels
from .lattice import (
    INT,
    IntegerInterval,
    ceil_sqrt,
    classify_many,
    isqrt,
    runs,
)


def run_interval(r: int, k: int) -> IntegerInterval:
    """Squared abscissas of the row-k run of C(r) in the shallow octant: for
    r >= 1 and 0 <= x <= k, (x, k) lies on C(r) exactly when x^2 is in it.
    Not past the diagonal: (10, 1) lies on C(10), but 100 is not in [98, 100)."""
    c = r * r - k * k
    return IntegerInterval(c - k, c + k)


def absentee_interval(w: int, k: int) -> IntegerInterval:
    """Squared abscissas strictly between the row-k runs of C(w) and C(w+1)."""
    return IntegerInterval(w * w - k * k + k, (w + 1) * (w + 1) - k * k - k)


def circle_pixels(r: int) -> np.ndarray:
    """All pixels of the digital circle of radius r, in canonical order.

    The circle is symmetric under x <-> y, so column x holds exactly the
    |y| in first[|x|]..last[|x|] of the row extents.  Filling column by
    column yields the rows already in canonical order with no sort.
    """
    first, last = kernels.row_extents(r)
    ax = np.abs(np.arange(-r, r + 1))
    n, y = _mirrored_runs(first[ax], last[ax])
    out = np.empty((len(y), 2), dtype=INT)
    out[:, 0] = np.repeat(np.arange(-r, r + 1, dtype=INT), n)
    out[:, 1] = y
    return out


def _mirrored_runs(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(n, y): y concatenates, for each i, the n[i] values with lo[i] <=
    |y| <= hi[i] in ascending order, 0 once (one merged run)."""
    zero = lo == 0
    start = np.empty(2 * lo.size, dtype=INT)
    count = np.empty(2 * lo.size, dtype=INT)
    start[0::2], start[1::2] = -hi, lo + zero
    count[0::2] = hi - lo + 1
    count[1::2] = count[0::2] - zero
    return count[0::2] + count[1::2], runs(start, count)


def circle_count(r: int) -> int:
    """|circle_pixels(r)|: the closed circle size csz[r]."""
    return int(kernels.size_tables(r, start=r)[0])


def disc_pixels(r: int) -> np.ndarray:
    """All pixels of the digital disc of radius r: the circle C(r) together
    with its interior.  Row y = j spans every |x| up to the largest abscissa
    of C(r) on that row, so the disc also contains the gap pixels that lie
    on no circle at all."""
    return _joined(disc_blocks(r), disc_count(r))


def disc_blocks(r: int) -> Iterator[np.ndarray]:
    """disc_pixels(r) as canonical x-blocks of about io._CHUNK_ROWS rows."""
    axis, h = _disc_columns(r)
    for a, b in kernels._blocks(2 * h + 1, io._CHUNK_ROWS):
        yield np.stack(_columns(axis[a:b], h[a:b]), axis=1)


def _disc_columns(r: int) -> tuple[np.ndarray, np.ndarray]:
    """(x, h): the columns x = -r..r of D(r) and their half-heights.  The
    disc is symmetric under x <-> y, so column x spans |y| <= last[|x|]."""
    axis = np.arange(-r, r + 1, dtype=INT)
    return axis, kernels.row_extents(r)[1][np.abs(axis)]


def _columns(axis: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, y) of the pixels |y| <= h of the columns x of axis, filled column
    by column, so in canonical order."""
    n = 2 * h + 1
    return np.repeat(axis, n), runs(-h, n)


def disc_count(r: int) -> int:
    """|disc_pixels(r)|: columns of 2 * last[|x|] + 1 pixels, x = -r..r."""
    return int((2 * _disc_columns(r)[1] + 1).sum())


def _plane(n: int, weight: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The pixels of D(n), which are the pixels of shell index s <= 2n
    (kernels module docstring), each with s: 2q on the circle C(q), 2w + 1
    in the gap of witness w.  Yields them as (pixels, s), pixels in
    canonical order, one run of whole columns at a time, in ascending
    abscissa.  The columns are classified in runs of about io._CHUNK_ROWS
    pixels, and each run is cut again into runs whose pixels yield about
    io._CHUNK_ROWS rows, a pixel of index s yielding weight[s] of them, so
    the runs depend on the shape built from the plane and not on its
    count."""
    if n < 0:
        raise ValueError("radius must be non-negative")
    axis, h = _disc_columns(n)
    for a, b in kernels._blocks(2 * h + 1, io._CHUNK_ROWS):
        x, y = _columns(axis[a:b], h[a:b])
        s, absent = classify_many(x, y)
        s *= 2
        s += absent
        pix = np.stack([x, y], axis=1)
        edge = np.append(0, np.cumsum(2 * h[a:b] + 1))  # column starts, then the end
        for c, d in kernels._blocks(np.add.reduceat(weight[s], edge[:-1]), io._CHUNK_ROWS):
            yield pix[edge[c]:edge[d]], s[edge[c]:edge[d]]


def _joined(blocks: Iterable[np.ndarray], rows: int) -> np.ndarray:
    """The concatenation of blocks, read through io.counted against their
    exact count rows, so no short or padded array is ever returned: a
    single block as it is, else one array of rows rows, allocated once and
    filled block by block as the blocks come, so no list of blocks is
    kept."""
    blocks = io.counted(blocks, rows)
    out = next(blocks)
    n = len(out)
    if n < rows:
        whole = np.empty((rows, out.shape[1]), dtype=out.dtype)
        whole[:n] = out
        out = whole
    for block in blocks:
        out[n:n + len(block)] = block
        n += len(block)
    return out


def iter_octant_absentees(w: int) -> Iterator[tuple[int, int]]:
    """Absentee pixels (x, k) with 0 <= x <= k and witness w, i.e. pixels
    strictly between C(w) and C(w+1).  Scans only rows k with 2k^2 - k >= w^2:
    x <= k forces k^2 >= x^2 >= w^2 - k^2 + k, so no other row can hold an
    absentee, and within such rows every square in J(w, k) stays <= k^2.
    """
    if w < 1:
        return
    kmin = ceil_sqrt((w * w) // 2)
    while 2 * kmin * kmin - kmin < w * w:
        kmin += 1
    for k in range(kmin, w + 1):
        gap = absentee_interval(w, k)
        x = ceil_sqrt(gap.lo)
        while x * x < gap.hi:
            yield x, k
            x += 1


def disc_absentees(r: int) -> np.ndarray:
    """All absentee pixels of the disc D(r): pixels inside the disc's extent
    lying on no C(s) with s <= r.  These are exactly the gap pixels with
    witness w <= r - 1."""
    return _joined(disc_absentee_blocks(r), disc_absentee_count(r))


def disc_absentee_blocks(r: int) -> Iterator[np.ndarray]:
    """disc_absentees(r) as canonical x-blocks, in ascending abscissa: the
    gap pixels, of odd index, of each run of _plane(r)."""
    for pix, s in _plane(r, np.arange(2 * r + 1) & 1):
        yield pix[(s & 1).astype(bool)]


def disc_absentee_count(r: int) -> int:
    """|disc_absentees(r)| without materializing the set: the hollow sphere
    of radius r has two gap voxels over each gap pixel of D(r)."""
    return analysis.sphere_count_row(r).absentee // 2


def gap_band_index(value_sq: int, row: int) -> int | None:
    """Index h >= 0 such that value_sq falls in row's h-th gap band
    [(2h+1)row + h^2, (2h+1)row + (h+1)^2), or None when no band contains it.

    Band h of a row shifts to the gap J(row + h, row) after completing the
    square, so membership can be read off one integer square root:
    value_sq + row^2 - row lands in [(row+h)^2, (row+h+1)^2 - 2*row), a
    sub-interval of consecutive squares.  Bands with row + h < 1 are not
    bands of any circle and report None.
    """
    if row < 0 or value_sq < 0:
        return None
    t = value_sq + row * row - row
    if t < 0:
        return None
    h = isqrt(t) - row
    if h < 0 or row + h < 1:
        return None
    v = (2 * h + 1) * row + h * h
    u = v + 2 * h + 1
    return h if v <= value_sq < u else None


def parabolic_band_index(i: int, k: int) -> int | None:
    """Index h >= 0 of the parabolic band containing the gap pixel (i, k) with
    0 <= i <= k, k >= 1, or None when (i, k) lies on a circle.

    Band h collects, on row k, the squared abscissas in
    [(2h+1)k + h^2, (2h+1)k + (h+1)^2), equivalently the gap after the circle
    of radius k + h.
    """
    if k < 1 or i > k or i < 0:
        return None
    return gap_band_index(i * i, k)
