import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxsphere.lattice import (
    COORD_MAX,
    IntegerInterval,
    absentee_witness,
    canonicalize,
    ceil_sqrt,
    classify_many,
    classify_pixel,
    exact_isqrt_many,
    isqrt,
    on_digital_circle,
    ring_radius,
    symmetric_octet,
)

coords = st.integers(min_value=-3000, max_value=3000)
INT64_MAX = 2**63 - 1
ISQRT_MAX = math.isqrt(INT64_MAX)


def test_isqrt_small():
    for n in range(2000):
        q = isqrt(n)
        assert q * q <= n < (q + 1) * (q + 1)
        c = ceil_sqrt(n)
        assert (c - 1) * (c - 1) < n <= c * c or (n == 0 and c == 0)


def test_sqrt_rejects_negative():
    with pytest.raises(ValueError):
        isqrt(-1)
    with pytest.raises(ValueError):
        ceil_sqrt(-4)


def test_on_digital_circle_rejects_negative_radius():
    with pytest.raises(ValueError):
        on_digital_circle(-1, 0, 0)


def test_origin_is_only_radius_zero_pixel():
    assert on_digital_circle(0, 0, 0)
    assert not on_digital_circle(0, 1, 0)
    assert not on_digital_circle(1, 0, 0)
    assert classify_pixel(0, 0) == (0, False)


@given(coords, coords)
def test_classify_agrees_with_membership(x, y):
    """classify gives the unique circle through the pixel, or an absentee
    witness w with the pixel strictly outside C(w) and strictly inside
    C(w+1)."""
    q, absent = classify_pixel(x, y)
    m, n = max(abs(x), abs(y)), min(abs(x), abs(y))
    if not absent:
        assert on_digital_circle(q, x, y)
    else:
        assert not on_digital_circle(q, x, y)
        assert not on_digital_circle(q + 1, x, y)
        # strictly outside C(q): chord test fails on the low side
        assert 4 * (q * q - n * n) <= (2 * m - 1) ** 2
        # strictly inside C(q+1)
        assert 4 * ((q + 1) * (q + 1) - n * n) > (2 * m + 1) ** 2


@given(coords, coords, st.integers(min_value=0, max_value=4500))
def test_membership_means_classify_radius(x, y, r):
    if on_digital_circle(r, x, y):
        assert classify_pixel(x, y) == (r, False)


def test_ring_radius_and_witness_partition():
    for x in range(-40, 41):
        for y in range(-40, 41):
            s = ring_radius(x, y)
            w = absentee_witness(x, y)
            assert (s is None) != (w is None)


def test_known_absentee():
    # the first gap pixel of the plane sits between C(1) and C(2)
    assert classify_pixel(1, 1) == (1, True)
    assert absentee_witness(1, 1) == 1
    assert ring_radius(2, 1) == 2


def test_classify_many_matches_scalar():
    rng = np.random.default_rng(7)
    x = rng.integers(-5000, 5000, size=4000)
    y = rng.integers(-5000, 5000, size=4000)
    q, absent = classify_many(x, y)
    for i in range(0, 4000, 97):
        qs, as_ = classify_pixel(int(x[i]), int(y[i]))
        assert (int(q[i]), bool(absent[i])) == (qs, as_)


def test_exact_isqrt_many_exhaustive_edges():
    # squares and near-squares are where float sqrt goes wrong, up to the
    # int64 edge where (q+1)^2 itself would overflow
    vals = [INT64_MAX]
    for q in (list(range(0, 300)) + [10**6, 10**7, 10**9]
              + list(range(ISQRT_MAX - 50, ISQRT_MAX + 1))):
        vals += [q * q - 1, q * q, q * q + 1]
    a = np.array([v for v in vals if 0 <= v <= INT64_MAX], dtype=np.int64)
    out = exact_isqrt_many(a)
    for v, q in zip(a.tolist(), out.tolist()):
        assert q == math.isqrt(v)


# the top of each domain plus the squares near it and their neighbours
isqrt_edge = (st.integers(0, INT64_MAX)
              | st.builds(lambda q, d: q * q + d,
                          st.integers(ISQRT_MAX - 3, ISQRT_MAX), st.integers(-1, 1))
              | st.integers(INT64_MAX - 2**40, INT64_MAX))
coord_edge = (st.integers(-COORD_MAX, COORD_MAX)
              | st.integers(COORD_MAX - 5, COORD_MAX)
              | st.integers(-COORD_MAX, -COORD_MAX + 5))


def test_vector_helpers_at_the_int64_edge():
    assert exact_isqrt_many([INT64_MAX]).tolist() == [ISQRT_MAX]
    assert 2 * COORD_MAX**2 + COORD_MAX < 2**63 <= 2 * (COORD_MAX + 1)**2 + COORD_MAX + 1
    q, absent = classify_many([COORD_MAX], [-COORD_MAX])
    assert (int(q[0]), bool(absent[0])) == classify_pixel(COORD_MAX, -COORD_MAX)


@settings(max_examples=300)
@given(st.lists(isqrt_edge, min_size=1, max_size=20))
def test_exact_isqrt_many_matches_math_isqrt(vals):
    assert exact_isqrt_many(np.array(vals, dtype=np.int64)).tolist() == \
        [math.isqrt(v) for v in vals]


@settings(max_examples=300)
@given(st.lists(st.tuples(coord_edge, coord_edge), min_size=1, max_size=20))
def test_classify_many_matches_scalar_at_the_edges(pairs):
    x, y = (np.array(c, dtype=np.int64) for c in zip(*pairs))
    q, absent = classify_many(x, y)
    assert list(zip(q.tolist(), absent.tolist())) == \
        [classify_pixel(a, b) for a, b in pairs]


@pytest.mark.parametrize("x, y", [
    (2**31 + 5, 2**31), (COORD_MAX + 1, 0), (0, -COORD_MAX - 1),
    (-2**63, 0), (3, 2**62)])
def test_classify_many_rejects_coordinates_past_its_domain(x, y):
    with pytest.raises(ValueError, match="coordinates"):
        classify_many(np.array([0, x]), np.array([0, y]))


def test_exact_isqrt_many_rejects_negatives():
    with pytest.raises(ValueError, match="negative"):
        exact_isqrt_many(np.array([4, -1, 9]))
    assert exact_isqrt_many(np.zeros(0, dtype=np.int64)).shape == (0,)

def test_symmetric_octet_cardinalities():
    assert len(symmetric_octet(0, 0)) == 1
    assert len(symmetric_octet(0, 3)) == 4
    assert len(symmetric_octet(2, 2)) == 4
    assert len(symmetric_octet(1, 2)) == 8


def test_symmetric_octet_rejects_negative():
    with pytest.raises(ValueError):
        symmetric_octet(-1, 2)


@given(st.integers(min_value=0, max_value=50), st.integers(min_value=0, max_value=50))
def test_symmetric_octet_closed_under_symmetry(a, b):
    pts = {tuple(p) for p in symmetric_octet(a, b)}
    assert {(y, x) for x, y in pts} == pts
    assert {(-x, y) for x, y in pts} == pts


def test_canonicalize_dedupes_and_sorts():
    arr = np.array([[1, 2], [0, 0], [1, 2], [-1, 5]], dtype=np.int64)
    out = canonicalize(arr)
    assert out.tolist() == [[-1, 5], [0, 0], [1, 2]]
    empty = canonicalize(np.zeros((0, 3), dtype=np.int64))
    assert empty.shape == (0, 3)


def test_integer_interval():
    iv = IntegerInterval(3, 7)
    assert 3 in iv and 6 in iv and 7 not in iv and 2 not in iv
    assert len(iv) == 4 and not iv.is_empty
    assert IntegerInterval(5, 5).is_empty
    assert len(IntegerInterval(9, 2)) == 0
    assert iv == IntegerInterval(3, 7) and hash(iv) == hash(IntegerInterval(3, 7))
    assert repr(iv) == "IntegerInterval(3, 7)"


@settings(max_examples=30)
@given(st.integers(min_value=1, max_value=10**9))
def test_classify_window_holds_one_square(m):
    # the window (m^2+n^2-m, m^2+n^2+m] has width 2m and never two squares
    n = m // 2
    t = m * m + n * n
    lo, hi = t - m + 1, t + m
    q = math.isqrt(hi)
    if q * q >= lo:
        assert (q - 1) * (q - 1) < lo
