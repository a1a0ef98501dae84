"""Exact integer primitives shared by the 2D and 3D lattice constructions.

Everything here works in plain 64-bit integer arithmetic.  A pixel (a, b)
belongs to the digital circle of radius r when the distance from the pixel
centre to the real circle, measured along the dominant axis, is below 1/2:

    | max(|a|,|b|) - sqrt(r^2 - min(|a|,|b|)^2) | < 1/2

Squaring both bounds turns the test into a comparison of 4*(r^2 - n^2)
against the odd squares (2m - 1)^2 and (2m + 1)^2, which is never a tie
because one side is divisible by four and the other is odd.
"""

from __future__ import annotations

import math

import numpy as np

INT = np.int64
COORD_MAX = 2**31 - 1   # largest m with 2m^2 + m < 2^63


def isqrt(n: int) -> int:
    """Floor square root of a non-negative integer."""
    if n < 0:
        raise ValueError("isqrt of a negative number")
    return math.isqrt(n)


def ceil_sqrt(n: int) -> int:
    """Smallest integer q with q*q >= n."""
    if n < 0:
        raise ValueError("ceil_sqrt of a negative number")
    if n == 0:
        return 0
    return math.isqrt(n - 1) + 1


def on_digital_circle(r: int, a: int, b: int) -> bool:
    """Membership of pixel (a, b) in the digital circle of radius r."""
    if r < 0:
        raise ValueError("radius must be non-negative")
    m = max(abs(a), abs(b))
    n = min(abs(a), abs(b))
    if n > r:
        return False
    d = 4 * (r * r - n * n)
    if m == 0:
        # only the origin on the radius-0 circle
        return d < 1
    return (2 * m - 1) ** 2 < d < (2 * m + 1) ** 2


def classify_pixel(x: int, y: int) -> tuple[int, bool]:
    """Place a pixel on the unique circle through it, or between two circles.

    Returns (q, False) when the pixel lies on the digital circle of radius q,
    and (w, True) when it falls in the gap between the circles of radii w and
    w + 1 (an absentee pixel with witness w).  Every lattice pixel is exactly
    one of the two: with m = max(|x|,|y|), n = min(|x|,|y|) the pixel is on
    C(q) iff q^2 lands in [m^2+n^2-m+1, m^2+n^2+m], a window that contains at
    most one square.
    """
    m = max(abs(x), abs(y))
    n = min(abs(x), abs(y))
    if m == 0:
        return 0, False
    t = m * m + n * n
    q = math.isqrt(t + m)
    if q * q >= t - m + 1:
        return q, False
    return q, True


def absentee_witness(x: int, y: int) -> int | None:
    """Witness radius w when (x, y) lies strictly between C(w) and C(w+1)."""
    q, absent = classify_pixel(x, y)
    return q if absent else None


def classify_many(x, y) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised classify_pixel over int64 arrays: (radius, absentee mask).

    Exact for |x|, |y| <= COORD_MAX, where m^2 + n^2 + m stays below 2^63;
    raises ValueError for any coordinate beyond it.
    """
    x = np.asarray(x, dtype=INT)
    y = np.asarray(y, dtype=INT)
    for c in (x, y):
        if c.size and (c.min() < -COORD_MAX or c.max() > COORD_MAX):
            raise ValueError(f"coordinates must lie in [-{COORD_MAX}, {COORD_MAX}]")
    # m^2 + n^2 + m and m^2 + n^2 - m + 1 are formed in place in one array,
    # n freed once read: the classified plane's slabs are the largest inputs,
    # and these temporaries the peak of their working set
    m = np.abs(x)
    n = np.abs(y)
    m, n = np.maximum(m, n), np.minimum(m, n)
    t = m * m
    t += n * n
    del n
    t += m  # m^2 + n^2 + m
    q = exact_isqrt_many(t)
    t -= 2 * m - 1  # m^2 + n^2 - m + 1
    absent = q * q < t
    absent &= m > 0
    return q, absent


def exact_isqrt_many(a) -> np.ndarray:
    """Exact floor sqrt of int64 values 0 <= a <= 2^63 - 1; raises
    ValueError on negative values.

    The float sqrt is within one of the answer and, since every such a
    converts to at most 2.0**63, never above floor(sqrt(2^63 - 1)), so q*q
    cannot overflow.  One fixup step each way, without forming (q + 1)^2.
    """
    a = np.asarray(a, dtype=INT)
    if np.minimum.reduce(a, axis=None, initial=0) < 0:
        raise ValueError("exact_isqrt_many of a negative number")
    q = np.sqrt(a.astype(np.float64)).astype(INT)
    rem = a - q * q
    q += rem > 2 * q  # (q + 1)^2 <= a
    q -= rem < 0
    return q


def runs(start, count) -> np.ndarray:
    """Concatenation of arange(s, s + c) over paired start/count arrays
    (counts >= 0)."""
    count = np.asarray(count, dtype=INT)
    ends = np.cumsum(count)
    out = np.arange(ends[-1] if ends.size else 0, dtype=INT)
    out -= np.repeat(ends - count - start, count)
    return out


def symmetric_octet(a: int, b: int) -> np.ndarray:
    """All sign/swap images of (a, b), deduplicated and lexicographically sorted.

    Cardinality is 1 for the origin, 4 on an axis or diagonal, 8 otherwise.
    """
    if a < 0 or b < 0:
        raise ValueError("octet representative must have non-negative coordinates")
    pts = {
        (a, b), (b, a), (-a, b), (b, -a),
        (a, -b), (-b, a), (-a, -b), (-b, -a),
    }
    return np.array(sorted(pts), dtype=INT)


def canonicalize(points: np.ndarray, counts: bool = False):
    """Deduplicate and lexicographically sort an (N, k) point array; with
    counts, also return how many rows of points each result row stands for
    (its run length among the sorted rows).

    Each row is packed into one int64 mixed-radix key: column c, shifted by
    its minimum lo_c, is a digit of radix span_c = max_c - lo_c + 1, the
    first column most significant, so key order is row order.  One sort of
    the keys, a drop of adjacent equal keys and a divmod decode give the
    result; equal keys are equal rows, so the sort need not be stable.  The
    spans are Python ints, so the fit test is exact: every key is at most
    prod(span_c) - 1, and the keys are used only when prod(span_c) <=
    2^63 - 1.  Wider inputs, which no int64 key can order, take one lexsort
    over the columns instead.
    """
    arr = np.asarray(points, dtype=INT)
    if arr.size == 0:
        out = arr.reshape(0, arr.shape[1] if arr.ndim == 2 else 2)
        return (out, np.zeros(0, INT)) if counts else out
    if arr.ndim != 2:
        raise ValueError("expected an (N, k) point array")
    cols = arr.T  # one strided column at a time: min(axis=0) is much slower
    lo = [int(c.min()) for c in cols]
    spans = [int(c.max()) - m + 1 for c, m in zip(cols, lo)]
    if math.prod(spans) > 2**63 - 1:
        arr = arr[np.lexsort(arr.T[::-1])]
        keep = np.empty(len(arr), dtype=bool)
        keep[0] = True
        np.any(arr[1:] != arr[:-1], axis=1, out=keep[1:])
        out = arr[keep]
    else:
        key = arr[:, 0] - lo[0]  # every partial key below stays under 2^63
        for c in range(1, len(spans)):
            key *= spans[c]
            key += arr[:, c] - lo[c]
        key.sort()
        keep = np.empty(len(key), dtype=bool)
        keep[0] = True
        np.not_equal(key[1:], key[:-1], out=keep[1:])
        key = key[keep]
        out = np.empty((len(key), len(spans)), dtype=INT)
        for c in range(len(spans) - 1, 0, -1):
            key, out[:, c] = np.divmod(key, spans[c])
            out[:, c] += lo[c]
        out[:, 0] = key + lo[0]
    return (out, np.diff(np.flatnonzero(keep), append=len(keep))) if counts else out


class IntegerInterval:
    """Half-open integer interval [lo, hi)."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int):
        self.lo = int(lo)
        self.hi = int(hi)

    def __contains__(self, value: int) -> bool:
        return self.lo <= value < self.hi

    @property
    def is_empty(self) -> bool:
        return self.hi <= self.lo

    def __len__(self) -> int:
        return max(0, self.hi - self.lo)

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntegerInterval):
            return NotImplemented
        return (self.lo, self.hi) == (other.lo, other.hi)

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    def __repr__(self) -> str:
        return f"IntegerInterval({self.lo}, {self.hi})"
