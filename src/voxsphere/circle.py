"""Digital circles and discs in the plane, and their absentee pixels.

The squared-abscissa view drives everything: on the row y = k, the pixel
(x, k) with x >= k lies on the digital circle of radius r exactly when

    x^2  in  I(r, k) = [r^2 - k^2 - k, r^2 - k^2 + k)

and the gap between consecutive circles C(w), C(w+1) on that row is

    J(w, k) = [w^2 - k^2 + k, (w+1)^2 - k^2 - k).

J(w, k) is nonempty only for k <= w, and it can contain a perfect square
only when 2k^2 - k >= w^2, so absentees cluster around the diagonal and
never touch the axes.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from . import kernels
from .lattice import (
    INT,
    IntegerInterval,
    canonicalize,
    ceil_sqrt,
    classify_many,
    classify_pixel,
    isqrt,
    runs,
)


def run_interval(r: int, k: int) -> IntegerInterval:
    """Squared abscissas of the row-k run of C(r) in the shallow octant (x <= k
    is not required here; the interval itself encodes the x >= k part of the
    circle, the steep part being its mirror)."""
    c = r * r - k * k
    return IntegerInterval(c - k, c + k)


def absentee_interval(w: int, k: int) -> IntegerInterval:
    """Squared abscissas strictly between the row-k runs of C(w) and C(w+1)."""
    return IntegerInterval(w * w - k * k + k, (w + 1) * (w + 1) - k * k - k)


def circle_pixels(r: int) -> np.ndarray:
    """All pixels of the digital circle of radius r, in canonical order.

    The circle is symmetric under x <-> y, so column x holds exactly the
    |y| in first[|x|]..last[|x|] of the row extents.  Filling column by
    column, the run below the axis and then the run above it (one merged
    run when it starts on the axis), yields the rows already in canonical
    order with no sort.
    """
    first, last = kernels.row_extents(r)
    ax = np.abs(np.arange(-r, r + 1))
    f, h = first[ax], last[ax]
    on_axis = f == 0  # -h..0, then 1..h: the axis pixel once
    start = np.empty(2 * ax.size, dtype=INT)
    count = np.empty(2 * ax.size, dtype=INT)
    start[0::2], start[1::2] = -h, f + on_axis
    count[0::2] = h - f + 1
    count[1::2] = count[0::2] - on_axis
    out = np.empty((int(count.sum()), 2), dtype=INT)
    out[:, 0] = np.repeat(np.arange(-r, r + 1, dtype=INT), count[0::2] + count[1::2])
    out[:, 1] = runs(start, count)
    return out


def disc_pixels(r: int) -> np.ndarray:
    """All pixels of the digital disc of radius r: the circle C(r) together
    with its interior.  Row y = j spans every |x| up to the largest abscissa
    of C(r) on that row, so the disc also contains the gap pixels that lie
    on no circle at all.

    The disc is symmetric under x <-> y, so it is filled column by column
    instead (column x spans |y| <= the row maximum at |x|), which yields the
    rows already in canonical order.
    """
    last = kernels.row_extents(r)[1]
    h = last[np.abs(np.arange(-r, r + 1))]
    n = 2 * h + 1
    out = np.empty((int(n.sum()), 2), dtype=INT)
    out[:, 0] = np.repeat(np.arange(-r, r + 1, dtype=INT), n)
    out[:, 1] = runs(-h, n)
    return out


def _plane(n: int, *gap: bool) -> list[tuple[np.ndarray, np.ndarray]]:
    """The pixels of the box [-n, n]^2 with shell index s <= 2n, in
    canonical order, and their s: 2q on the circle C(q), 2w + 1 in the gap
    of witness w.  One (pixels, s) pair per flag in gap: True keeps the gap
    pixels of witness w <= n - 1, False the pixels of C(0), ..., C(n).  The
    box is classified once, a slab of columns at a time, so memory follows
    the kept pixels."""
    if n < 0:
        raise ValueError("radius must be non-negative")
    axis = np.arange(-n, n + 1, dtype=INT)
    step = max(1, 2**18 // axis.size)
    parts = [([], []) for _ in gap]
    for x0 in range(0, axis.size, step):
        box = np.stack(np.meshgrid(axis[x0:x0 + step], axis, indexing="ij"), axis=-1).reshape(-1, 2)
        q, absent = classify_many(box[:, 0], box[:, 1])
        s = 2 * q + absent
        inside = s <= 2 * n
        for (pix, shell), g in zip(parts, gap):
            k = inside & (absent == g)
            pix.append(box[k])
            shell.append(s[k])
    return [(np.concatenate(pix), np.concatenate(shell)) for pix, shell in parts]


def _gap_pixels(r: int) -> tuple[np.ndarray, np.ndarray]:
    """The gap pixels with witness w <= r - 1 in canonical order, and their
    witnesses.  Each lies inside D(r), hence in the box [-r, r]^2."""
    (pix, shell), = _plane(r, True)
    return pix, shell // 2


def _rings(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The pixels of C(0), ..., C(n) grouped by radius, and the group
    offsets: C(s) is pix[start[s]:start[s + 1]], in canonical order."""
    (pix, shell), = _plane(n, False)
    return _grouped(pix, shell, n)


def _rings_and_gaps(n: int) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """(_rings(n), _gap_pixels(n)) from one classified pass over the box."""
    (pix, shell), (gaps, gshell) = _plane(n, False, True)
    return _grouped(pix, shell, n), (gaps, gshell // 2)


def _grouped(pix: np.ndarray, shell: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonical pixels of C(0), ..., C(n) and their shells, grouped by
    radius as _rings returns them; the stable sort keeps each group
    canonical."""
    order = np.argsort(shell, kind="stable")
    return pix[order], np.searchsorted(shell[order], 2 * np.arange(n + 2))


def union_circles(radii) -> np.ndarray:
    """Union of the digital circles with the given radii, canonicalized."""
    parts = [circle_pixels(int(s)) for s in radii]
    if not parts:
        return np.zeros((0, 2), dtype=INT)
    return canonicalize(np.concatenate(parts))


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
    return _gap_pixels(r)[0]


def is_disc_absentee(a: int, b: int) -> bool:
    """True when (a, b) lies on no digital circle, i.e. strictly between two
    consecutive circles.  Total over the grid; absentees of the disc D(r) are
    exactly these pixels with witness radius <= r - 1."""
    return classify_pixel(a, b)[1]


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


def row_tiling_check(r: int, limit: int) -> bool:
    """On the fixed row k = r >= 1, the run intervals I(r', k) and the gap
    intervals J(r', k) for r' = k, k+1, ... alternate and exactly partition
    the squared abscissas [0, limit) -- a regression guard on the interval
    formulas."""
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
