import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as O
from voxsphere.circle import (
    absentee_interval,
    circle_pixels,
    disc_absentees,
    disc_pixels,
    gap_band_index,
    is_disc_absentee,
    iter_octant_absentees,
    parabolic_band_index,
    row_tiling_check,
    run_interval,
    union_circles,
)
from voxsphere.kernels import row_extents
from voxsphere.lattice import absentee_witness, canonicalize, classify_pixel, on_digital_circle

CIRCLE_SIZES = [1, 4, 12, 16, 24, 28, 32, 40, 44, 52, 56, 64, 68, 72, 80, 84, 92]
DISC_SIZES = [1, 5, 21, 37, 61, 97, 129, 177, 221, 277, 349]
ABSENTEE_SIZES = [0, 0, 4, 4, 4, 12, 12, 20, 20, 24, 40, 40, 48, 56, 64, 72, 76]
UNION_SIZES = [1, 5, 17, 33, 57, 85, 117, 157, 201, 253, 309]


def as_set(arr):
    return {tuple(int(c) for c in p) for p in arr}


@pytest.mark.parametrize("r", range(17))
def test_circle_matches_decimal_oracle(r):
    assert as_set(circle_pixels(r)) == O.oracle_circle_pixels(r)


@pytest.mark.parametrize("r", range(13))
def test_disc_matches_oracle(r):
    assert as_set(disc_pixels(r)) == O.oracle_disc_pixels(r)


@pytest.mark.parametrize("r", range(13))
def test_absentees_match_oracle(r):
    assert as_set(disc_absentees(r)) == O.oracle_disc_absentees(r)


def test_frozen_sizes():
    assert [len(circle_pixels(r)) for r in range(17)] == CIRCLE_SIZES
    assert [len(disc_pixels(r)) for r in range(11)] == DISC_SIZES
    assert [len(disc_absentees(r)) for r in range(17)] == ABSENTEE_SIZES
    assert [len(union_circles(range(r + 1))) for r in range(11)] == UNION_SIZES


def test_negative_radius_rejected():
    for fn in (circle_pixels, disc_pixels, disc_absentees, row_extents):
        with pytest.raises(ValueError):
            fn(-1)


@pytest.mark.parametrize("r", range(21))
def test_disc_is_rings_plus_absentees(r):
    """The disc splits exactly into the union of its circles and the gap
    pixels with witness below r."""
    disc = as_set(disc_pixels(r))
    rings = as_set(union_circles(range(r + 1)))
    gaps = as_set(disc_absentees(r))
    assert rings <= disc
    assert gaps <= disc
    assert not (rings & gaps)
    assert rings | gaps == disc


@pytest.mark.parametrize("r", [0, 1, 2, 5, 9, 16, 25, 40])
def test_row_runs_cover_circle(r):
    """Each quadrant row j of C(r) is exactly the run first[j]..last[j]."""
    first, last = row_extents(r)
    assert len(first) == len(last) == r + 1
    ring = O.oracle_circle_pixels(r)
    for j in range(r + 1):
        expect = {x for x, jj in ring if jj == j and x >= 0}
        assert set(range(first[j], last[j] + 1)) == expect, (r, j)


def test_disc_and_gaps_come_out_canonical():
    for r in range(201):
        for arr in (disc_pixels(r), disc_absentees(r)):
            assert np.array_equal(canonicalize(arr), arr), r


def test_disc_is_xy_symmetric():
    """disc_pixels fills columns, which equals the row fill of its definition
    because the disc is symmetric under x <-> y: y <= last[x] iff
    x <= last[y]."""
    for r in range(1001):
        last = row_extents(r)[1]
        inside = np.arange(r + 1)[None, :] <= last[:, None]
        assert (inside == inside.T).all(), r
    for r in list(range(41)) + [100, 200, 500, 1000]:
        disc = disc_pixels(r)
        assert np.array_equal(canonicalize(disc[:, ::-1]), disc), r


def test_run_interval_is_row_membership():
    # for 0 <= x <= k the interval test is exactly circle membership
    for r in range(1, 30):
        for k in range(r + 1):
            iv = run_interval(r, k)
            for x in range(k + 1):
                assert (x * x in iv) == on_digital_circle(r, x, k)


def test_absentee_interval_is_gap_membership():
    for w in range(1, 25):
        for k in range(1, w + 1):
            gap = absentee_interval(w, k)
            for x in range(k + 1):
                expected = classify_pixel(x, k) == (w, True)
                assert (x * x in gap) == expected, (w, k, x)


@pytest.mark.parametrize("w", range(1, 40))
def test_octant_absentees_shape(w):
    rows = {}
    for x, k in iter_octant_absentees(w):
        assert 1 <= x <= k <= w
        assert classify_pixel(x, k) == (w, True)
        rows.setdefault(k, []).append(x)
    # never two gap squares in one row
    assert all(len(v) == 1 for v in rows.values())


def test_no_axis_absentees():
    for v in range(200):
        assert not is_disc_absentee(v, 0)
        assert not is_disc_absentee(0, v)


def test_witness_helpers():
    assert is_disc_absentee(1, 1)
    assert absentee_witness(1, 1) == 1
    assert absentee_witness(2, 1) is None
    assert not is_disc_absentee(0, 0)


@pytest.mark.parametrize("r", range(2, 33))
def test_band_index_characterizes_octant_absentees(r):
    """Within the octant 0 <= i <= k, a pixel has a parabolic band index iff
    it is a gap pixel; the index recovers the witness as k + h."""
    for k in range(1, r + 1):
        for i in range(k + 1):
            h = parabolic_band_index(i, k)
            w = absentee_witness(i, k)
            if w is None:
                assert h is None, (i, k)
            else:
                assert h == w - k, (i, k)


def test_band_index_outside_octant():
    assert parabolic_band_index(3, 2) is None
    assert parabolic_band_index(-1, 5) is None
    assert parabolic_band_index(2, 0) is None
    assert gap_band_index(-1, 3) is None
    assert gap_band_index(4, -1) is None
    # the raw band helper does index row 0 (bands [h^2, (h+1)^2)); only the
    # degenerate h = row = 0 band is rejected
    assert gap_band_index(9, 0) == 3
    assert gap_band_index(0, 0) is None


@given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=1000))
def test_gap_band_index_bounds(value_sq, row):
    h = gap_band_index(value_sq, row)
    if h is not None:
        assert h >= 0 and row + h >= 1
        assert (2 * h + 1) * row + h * h <= value_sq < (2 * h + 1) * row + (h + 1) ** 2


@settings(max_examples=40)
@given(st.integers(min_value=1, max_value=60))
def test_row_tiling(r):
    assert row_tiling_check(r, 4 * r * r + 200)


def test_circle_pixels_column_fill_matches_sorted_quadrants():
    """The sort-free column fill equals canonicalize of the four quadrant
    images of the row runs."""
    for r in range(301):
        first, last = row_extents(r)
        n = last - first + 1
        quad = np.stack([np.concatenate([np.arange(f, f + c) for f, c in zip(first, n)]),
                         np.repeat(np.arange(r + 1), n)], axis=1)
        want = canonicalize(np.concatenate([quad * s for s in ((1, 1), (1, -1), (-1, 1), (-1, -1))]))
        assert np.array_equal(circle_pixels(r), want)
