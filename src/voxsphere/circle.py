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

import math
from typing import Iterator

import numpy as np

from .lattice import (
    INT,
    IntegerInterval,
    canonicalize,
    ceil_sqrt,
    classify_pixel,
    isqrt,
    symmetric_octet,
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


def circle_row_run(r: int, j: int) -> tuple[range, range]:
    """The x-extents of the digital circle C(r) on row y = j, split into the
    shallow part (x <= j, from the run interval) and the steep part (x > j,
    from the dominant-x membership test).  Either range may be empty; their
    union is a contiguous block of abscissas.
    """
    jj = abs(j)
    if jj > r:
        return range(0), range(0)
    if r == 0:
        return range(0, 1), range(0)
    c = r * r - jj * jj
    # shallow: x <= jj with x^2 in [c - jj, c + jj)
    lo = ceil_sqrt(max(c - jj, 0))
    hi = min(jj, isqrt(c + jj - 1)) if c + jj >= 1 else -1
    shallow = range(lo, hi + 1) if lo <= hi else range(0)
    # steep: x > jj with (2x-1)^2 < 4c < (2x+1)^2; 4c is never an odd square
    if c >= 1:
        u = isqrt(4 * c)
        x = (u + 1) // 2
        steep = range(x, x + 1) if x > jj else range(0)
    else:
        steep = range(0)
    return shallow, steep


def circle_row_max(r: int, j: int) -> int:
    """Largest abscissa of C(r) on row y = j (-1 when the row is empty)."""
    shallow, steep = circle_row_run(r, j)
    if len(steep):
        return steep[-1]
    if len(shallow):
        return shallow[-1]
    return -1


def circle_pixels(r: int) -> np.ndarray:
    """All pixels of the digital circle of radius r, canonicalized."""
    if r < 0:
        raise ValueError("radius must be non-negative")
    if r == 0:
        return np.array([[0, 0]], dtype=INT)
    pts: list[tuple[int, int]] = []
    for j in range(r + 1):
        shallow, steep = circle_row_run(r, j)
        for x in shallow:
            pts.append((x, j))
        for x in steep:
            pts.append((x, j))
    quad = np.array(pts, dtype=INT)
    images = [quad * s for s in ((1, 1), (1, -1), (-1, 1), (-1, -1))]
    return canonicalize(np.concatenate(images))


def disc_pixels(r: int) -> np.ndarray:
    """All pixels of the digital disc of radius r: the circle C(r) together
    with its interior, filled row by row.  Row y = j spans every |x| up to
    the largest abscissa of C(r) on that row, so the disc also contains the
    gap pixels that lie on no circle at all.
    """
    if r < 0:
        raise ValueError("radius must be non-negative")
    rows = []
    for j in range(-r, r + 1):
        hw = circle_row_max(r, j)
        xs = np.arange(-hw, hw + 1, dtype=INT)
        row = np.empty((xs.size, 2), dtype=INT)
        row[:, 0] = xs
        row[:, 1] = j
        rows.append(row)
    if not rows:
        return np.zeros((0, 2), dtype=INT)
    return canonicalize(np.concatenate(rows))


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
    witness w <= r - 1, expanded over the eight symmetries."""
    if r < 0:
        raise ValueError("radius must be non-negative")
    parts = []
    for w in range(1, r):
        for x, k in iter_octant_absentees(w):
            parts.append(symmetric_octet(x, k))
    if not parts:
        return np.zeros((0, 2), dtype=INT)
    return canonicalize(np.concatenate(parts))


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
