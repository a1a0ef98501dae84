import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles as O
from voxsphere.circle import disc_absentees, iter_octant_absentees
from voxsphere.lattice import COORD_MAX, classify_pixel
from voxsphere.sphere import (
    completed_sphere_count,
    completed_sphere_voxels,
    gap_plane,
    generatrix,
    hemisphere_absentees,
    hemisphere_voxels,
    is_sphere_absentee,
    is_sphere_absentee_many,
    parabolic_family_contains,
    sphere_absentees,
    sphere_surface_count,
    sphere_voxels,
    step_gap_voxels,
)

SURFACE_SIZES = [1, 6, 46, 82, 170, 254, 330, 498, 614, 830, 1002]
COMPLETED_SIZES = [1, 6, 54, 90, 178, 278, 354, 538, 654, 878, 1082]
GAP_SIZES = [0, 0, 4, 4, 4, 12, 12, 20, 20, 24, 40, 40, 48]

GEN10 = [
    (0, 10), (1, 10), (2, 10), (3, 10), (4, 9), (5, 9), (6, 8), (7, 7),
    (8, 6), (9, 5), (9, 4), (10, 3), (10, 2), (10, 1), (10, 0),
]


def as_set(arr):
    return {tuple(int(c) for c in p) for p in arr}


def test_generatrix_frozen_r10():
    assert [tuple(int(c) for c in p) for p in generatrix(10)] == GEN10


@pytest.mark.parametrize("r", range(16))
def test_generatrix_matches_oracle(r):
    got = [tuple(int(c) for c in p) for p in generatrix(r)]
    assert got == O.oracle_generatrix(r)


@pytest.mark.parametrize("r", range(13))
def test_generatrix_steps_are_unit(r):
    pts = [tuple(int(c) for c in p) for p in generatrix(r)]
    assert pts[0] == (0, r) and pts[-1] == (r, 0)
    for (x0, j0), (x1, j1) in zip(pts, pts[1:]):
        assert (x1 - x0, j1 - j0) in {(1, 0), (1, -1), (0, -1)}


@pytest.mark.parametrize("r", range(13))
def test_sphere_matches_oracle(r):
    assert as_set(sphere_voxels(r)) == O.oracle_sphere_voxels(r)


@pytest.mark.parametrize("r", range(13))
def test_hemisphere_absentees_match_oracle(r):
    assert as_set(hemisphere_absentees(r)) == O.oracle_hemisphere_absentees(r)


def test_frozen_counts():
    assert [sphere_surface_count(r) for r in range(11)] == SURFACE_SIZES
    assert [completed_sphere_count(r) for r in range(11)] == COMPLETED_SIZES
    assert [len(hemisphere_absentees(r)) for r in range(13)] == GAP_SIZES
    for r in range(11):
        assert sphere_surface_count(r) == len(sphere_voxels(r))
        assert completed_sphere_count(r) == len(completed_sphere_voxels(r))


@pytest.mark.parametrize("r", range(2, 21))
def test_mirror_doubles_and_misses_equator(r):
    upper = hemisphere_absentees(r)
    both = sphere_absentees(r)
    assert len(both) == 2 * len(upper)
    assert np.all(upper[:, 1] >= 1)
    assert not np.any(both[:, 1] == 0)


@pytest.mark.parametrize("r", range(2, 21))
def test_projection_is_disc_absentees(r):
    ups = as_set(hemisphere_absentees(r))
    proj = {(i, k) for i, j, k in ups}
    assert len(proj) == len(ups), "projection must be injective"
    assert proj == as_set(disc_absentees(r))


def test_step_gap_union_is_hemisphere_absentees():
    for r in range(2, 16):
        gen = generatrix(r)
        parts = set()
        for t in range(len(gen) - 1):
            if int(gen[t + 1, 0]) == int(gen[t, 0]) + 1:
                parts |= as_set(step_gap_voxels(gen, t))
        assert parts == as_set(hemisphere_absentees(r))


def test_step_gap_spec_examples():
    gen = generatrix(10)
    pts = [tuple(int(c) for c in p) for p in gen]
    t45 = pts.index((4, 9))  # swept radius grows 4 -> 5 here
    got = as_set(step_gap_voxels(gen, t45))
    assert (2, 9, 4) in got
    assert (3, 9, 4) not in got
    t01 = pts.index((0, 10))
    assert len(step_gap_voxels(gen, t01)) == 0


def test_step_gap_contract_errors():
    gen = generatrix(10)
    pts = [tuple(int(c) for c in p) for p in gen]
    t_flat = pts.index((10, 3))  # next point keeps the swept radius
    with pytest.raises(ValueError):
        step_gap_voxels(gen, t_flat)
    with pytest.raises(ValueError):
        step_gap_voxels(gen, len(gen) - 1)


def test_gap_plane_values_and_uniqueness():
    assert gap_plane(10, 4) == 9
    # the qualifying plane can sit above both planes of the radius step
    assert gap_plane(7, 6) == 4
    for r in range(2, 41):
        for w in range(1, r):
            j = gap_plane(r, w)
            hits = [jj for jj in range(1, r + 1)
                    if r * r - jj * jj - jj <= w * w < r * r - jj * jj + jj]
            assert hits == [j], (r, w)
    with pytest.raises(ValueError):
        gap_plane(5, 5)
    with pytest.raises(ValueError):
        gap_plane(5, -1)


def test_predicate_worked_examples():
    assert is_sphere_absentee((2, 9, 4), 10)
    assert not is_sphere_absentee((3, 9, 4), 10)
    for r in (0, 1, 5, 10):
        assert not is_sphere_absentee((0, r, 0), r)


@pytest.mark.parametrize("r", range(2, 9))
def test_predicate_matches_enumeration(r):
    members = as_set(hemisphere_absentees(r))
    for i in range(-r - 1, r + 2):
        for j in range(0, r + 2):
            for k in range(-r - 1, r + 2):
                assert is_sphere_absentee((i, j, k), r) == ((i, j, k) in members)


def test_predicate_vectorised_matches_scalar():
    rng = np.random.default_rng(3)
    vox = rng.integers(-12, 13, size=(500, 3))
    for r in (5, 8, 11):
        many = is_sphere_absentee_many(vox, r)
        for row, flag in zip(vox, many):
            assert bool(flag) == is_sphere_absentee(tuple(int(c) for c in row), r)


coord_edge = (st.integers(-COORD_MAX, COORD_MAX)
              | st.integers(COORD_MAX - 5, COORD_MAX)
              | st.integers(-COORD_MAX, -COORD_MAX + 5))
radius_edge = st.integers(0, COORD_MAX) | st.integers(COORD_MAX - 5, COORD_MAX)


@settings(max_examples=300)
@given(st.data())
def test_predicate_vectorised_matches_scalar_at_the_edges(data):
    r = data.draw(radius_edge)
    vox = data.draw(st.lists(st.tuples(coord_edge, coord_edge, coord_edge),
                             min_size=1, max_size=20))
    # voxels on and next to the gap plane of their pixel's witness, so that
    # absentees occur too: a pixel in the box |a|, |b| <= r/2 has w < r
    half = st.integers(-(r // 2), r // 2)
    for a, b in data.draw(st.lists(st.tuples(half, half), max_size=10)):
        w, absent = classify_pixel(a, b)
        if absent:
            j = gap_plane(r, w)
            vox += [(a, j, b), (a, -j, b), (a, j - 1, b), (a, min(j + 1, COORD_MAX), b)]
    got = is_sphere_absentee_many(np.array(vox, dtype=np.int64), r).tolist()
    assert got == [is_sphere_absentee(v, r) for v in vox]


@pytest.mark.parametrize("vox, r", [
    ((1, 2**32, 1), 5), ((1, COORD_MAX + 1, 1), 5), ((1, -2**63, 1), 5),
    ((1, 0, 1), COORD_MAX + 1), ((1, 0, 1), -COORD_MAX - 1),
    ((COORD_MAX + 1, 0, 0), 5)])
def test_predicate_vectorised_rejects_past_its_domain(vox, r):
    with pytest.raises(ValueError):
        is_sphere_absentee_many(np.array([vox], dtype=np.int64), r)


def test_completed_sphere_has_no_gaps_left():
    for r in range(2, 9):
        done = as_set(completed_sphere_voxels(r))
        surface = as_set(sphere_voxels(r))
        gaps = as_set(sphere_absentees(r))
        assert not (surface & gaps)
        assert surface | gaps == done
        for i in range(-r - 1, r + 2):
            for j in range(0, r + 2):
                for k in range(-r - 1, r + 2):
                    if is_sphere_absentee((i, j, k), r):
                        assert (i, j, k) in done


def test_family_contains_examples():
    assert parabolic_family_contains((1, 3, 1))
    assert parabolic_family_contains((1, 0, 1))
    assert parabolic_family_contains((2, 9, 4))
    assert not parabolic_family_contains((0, 7, 5))
    with pytest.raises(ValueError):
        parabolic_family_contains((3, 1, 2))
    with pytest.raises(ValueError):
        parabolic_family_contains((1, -1, 1))


@pytest.mark.parametrize("r", range(2, 17))
def test_family_covers_octant_absentees_and_no_surface_voxel(r):
    for v in hemisphere_absentees(r):
        i, j, k = (int(c) for c in v)
        if 0 <= i <= k:
            assert parabolic_family_contains((i, j, k))
    for v in hemisphere_voxels(r):
        i, j, k = (int(c) for c in v)
        if 0 <= i <= k and k >= 1:
            assert not parabolic_family_contains((i, j, k))
