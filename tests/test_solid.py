import tracemalloc

import numpy as np
import pytest

import _oracles as O
from voxsphere.circle import disc_absentees, iter_octant_absentees
from voxsphere.lattice import absentee_witness, canonicalize, isqrt
from voxsphere.solid import (
    absentee_circle_count,
    absentee_circle_voxels,
    absentee_line_count,
    absentee_line_voxels,
    completed_solid_count,
    completed_solid_voxels,
    coverage_holes,
    enclosed_voxels,
    equatorial_family_contains,
    flood_solid_voxels,
    is_absentee_circle_voxel,
    is_absentee_line_voxel,
    polar_family_contains,
    solid_absentee_count,
    solid_absentee_voxels,
    species_voxel_counts,
    union_completed_spheres,
)
from voxsphere.sphere import completed_sphere_voxels

AVS_SIZES = [0, 0, 20, 20, 20, 132, 132, 276, 276, 360, 752]
UNION_SIZES = [1, 7, 61, 151, 329, 607, 961, 1499, 2153, 3031, 4113]
SOLID_SIZES = [1, 7, 73, 163, 341, 723, 1077, 1759, 2429, 3399, 4873]
FLOOD_SIZES = [1, 7, 81, 171, 349, 739, 1093, 538, 2461, 878, 4929]
HOLE_SIZES = [0, 0, 0, 0, 0, 0, 0, 16, 32, 48, 64]


def as_set(arr):
    return {tuple(int(c) for c in p) for p in arr}


def test_frozen_size_tables():
    assert [solid_absentee_count(r) for r in range(11)] == AVS_SIZES
    assert [len(solid_absentee_voxels(r)) for r in range(11)] == AVS_SIZES
    assert [len(union_completed_spheres(r)) for r in range(11)] == UNION_SIZES
    assert [completed_solid_count(r) for r in range(11)] == SOLID_SIZES
    assert [len(completed_solid_voxels(r)) for r in range(11)] == SOLID_SIZES
    assert [len(flood_solid_voxels(r)) for r in range(11)] == FLOOD_SIZES
    assert [len(coverage_holes(r)) for r in range(11)] == HOLE_SIZES


def test_line_voxels_smallest_gap():
    got = as_set(absentee_line_voxels(1, 1, 1))
    cols = {(si, sk) for si in (1, -1) for sk in (1, -1)}
    assert got == {(i, j, k) for i, k in cols for j in range(-2, 3)}
    assert len(got) == 20
    layer0 = {(i, k) for i, j, k in got if j == 0}
    assert layer0 == as_set(disc_absentees(2))


def test_line_voxels_eight_columns():
    got = absentee_line_voxels(2, 4, 4)
    assert len(got) == 8 * 7  # octet of (2,4), j in -3..3
    assert set(got[:, 1].tolist()) == set(range(-3, 4))


def test_line_voxels_contract():
    with pytest.raises(ValueError):
        absentee_line_voxels(1, 0, 1)  # on C(1)
    with pytest.raises(ValueError):
        absentee_line_voxels(1, 1, 2)  # wrong witness


def test_circle_voxels_examples():
    got = as_set(absentee_circle_voxels(1, 1))
    assert got == {(1, 1, 0), (-1, 1, 0), (0, 1, 1), (0, 1, -1),
                   (1, -1, 0), (-1, -1, 0), (0, -1, 1), (0, -1, -1)}
    a = as_set(absentee_circle_voxels(2, 4))
    b = as_set(absentee_circle_voxels(4, 2))
    assert a != b and not (a & b)
    assert {abs(j) for _, j, _ in a} == {4}
    assert {abs(j) for _, j, _ in b} == {2}
    with pytest.raises(ValueError):
        absentee_circle_voxels(1, 0)


def test_avs_r2_exact_set():
    """Lines clipped to |j| <= isqrt(w) plus both ring mirrors."""
    lines = {(i, j, k) for i in (1, -1) for k in (1, -1) for j in (-1, 0, 1)}
    rings = as_set(absentee_circle_voxels(1, 1))
    assert as_set(solid_absentee_voxels(2)) == lines | rings


@pytest.mark.parametrize("r", range(13))
def test_species_partition(r):
    avs = as_set(solid_absentee_voxels(r))
    lines = {v for v in avs if is_absentee_line_voxel(v)}
    circles = {v for v in avs if is_absentee_circle_voxel(v)}
    assert lines | circles == avs
    # projections separate the species: gap pixel vs ring pixel
    assert not (lines & circles)
    nline, ncirc = species_voxel_counts(r)
    assert (len(lines), len(circles)) == (nline, ncirc)
    assert nline + ncirc == solid_absentee_count(r)


@pytest.mark.parametrize("r", range(13))
def test_avs_disjoint_from_sphere_union_and_inside_solid(r):
    avs = as_set(solid_absentee_voxels(r))
    assert not (avs & as_set(union_completed_spheres(r)))
    assert avs <= as_set(completed_solid_voxels(r))


@pytest.mark.parametrize("r", range(31))
def test_solid_sets_match_loop_oracles(r):
    assert as_set(completed_solid_voxels(r)) == O.oracle_completed_solid_voxels(r)
    assert as_set(solid_absentee_voxels(r)) == O.oracle_solid_absentee_voxels(r)


def test_completed_solid_comes_out_canonical():
    for r in range(41):
        vox = completed_solid_voxels(r)
        assert np.array_equal(canonicalize(vox), vox), r


def test_object_count_identities():
    for r in range(2, 40):
        n_ad = len(disc_absentees(r))
        assert absentee_line_count(r) == n_ad
        assert n_ad % 4 == 0, f"octet count not divisible by 4 at r={r}"
        assert absentee_circle_count(r) == n_ad // 4


def test_line_predicate_examples():
    assert is_absentee_line_voxel((1, 0, 1))
    assert is_absentee_line_voxel((1, 2, 1))
    assert not is_absentee_line_voxel((1, 3, 1))  # bound isqrt(1)+1 = 2
    assert not is_absentee_line_voxel((1, 0, 0))  # on C(1)


def test_circle_predicate_examples():
    assert is_absentee_circle_voxel((1, 1, 0))
    assert is_absentee_circle_voxel((0, 1, 1))
    assert not is_absentee_circle_voxel((1, 0, 0))
    assert not is_absentee_circle_voxel((1, 1, 1))  # projection is a gap pixel


def test_predicates_match_constructed_unions():
    """Over a small box, the membership predicates agree with the unions of
    the per-pixel line and circle constructors."""
    L = 8
    lines = set()
    circles = set()
    for i in range(0, 2 * L + 1):
        for k in range(i, 2 * L + 1):
            w = absentee_witness(i, k)
            if w is not None:
                lines |= as_set(absentee_line_voxels(i, k, w))
                circles |= as_set(absentee_circle_voxels(i, k))
                if i != k:
                    circles |= as_set(absentee_circle_voxels(k, i))
    box = range(-L, L + 1)
    for i in box:
        for j in box:
            for k in box:
                v = (i, j, k)
                assert is_absentee_line_voxel(v) == (v in lines), v
                assert is_absentee_circle_voxel(v) == (v in circles), v


def test_family_spec_examples():
    assert polar_family_contains((1, 1, 0))
    assert not polar_family_contains((0, 5, 0))
    assert not polar_family_contains((2, 9, 0))  # 4 sits below every band of row 9
    assert not equatorial_family_contains((0, 0, 0))
    # depends only on the ring through (i, k): mirrors agree
    assert equatorial_family_contains((5, 4, 0)) == equatorial_family_contains((0, 4, 5))


@pytest.mark.parametrize("r", range(2, 13))
def test_families_cover_circle_voxels_by_source_octant(r):
    """Rings from an octant-1 gap pixel (x <= k: radius x, plane k) lie in
    the polar family; rings from the swapped octant-2 pixel (radius k,
    plane x) lie in the equatorial family."""
    for w in range(1, r):
        for x, k in iter_octant_absentees(w):
            for v in absentee_circle_voxels(x, k):
                i, j, kk = (int(c) for c in v)
                if j >= 0:
                    assert polar_family_contains((i, j, kk))
            if x != k:
                for v in absentee_circle_voxels(k, x):
                    i, j, kk = (int(c) for c in v)
                    if j >= 0:
                        assert equatorial_family_contains((i, j, kk))


def test_hole_witness_r7():
    holes = as_set(coverage_holes(7))
    assert (2, 5, 4) in holes
    assert len(holes) == 16


def test_third_species_voxel_r10():
    """(6,3,6) is left uncovered by every hollow sphere yet lies inside the
    solid: the line predicate admits it (top layer) while the tabulated
    absentee set stops one layer short."""
    v = (6, 3, 6)
    assert absentee_witness(6, 6) == 8
    assert is_absentee_line_voxel(v)  # |3| <= isqrt(8)+1
    assert v not in as_set(solid_absentee_voxels(10))
    assert v not in as_set(union_completed_spheres(10))
    assert v in as_set(completed_solid_voxels(10))


def test_flood_degenerates_where_surface_leaks():
    # at r=7 and r=9 the completed hollow sphere does not 6-separate space,
    # so the flood encloses nothing and the "solid" collapses to the shell
    for r in (7, 9):
        assert len(flood_solid_voxels(r)) == len(enclosed_voxels(np.zeros((0, 3), np.int64))) + FLOOD_SIZES[r]
        assert FLOOD_SIZES[r] == len(as_set(flood_solid_voxels(r)))


def test_enclosed_voxels_basics():
    assert enclosed_voxels(np.zeros((0, 3), np.int64)).shape == (0, 3)
    # hollow 3x3x3 shell around a single pocket
    shell = [(i, j, k) for i in range(3) for j in range(3) for k in range(3)
             if (i, j, k) != (1, 1, 1)]
    got = enclosed_voxels(np.array(shell, dtype=np.int64))
    assert as_set(got) == {(1, 1, 1)}


def test_negative_radius_rejected():
    for fn in (solid_absentee_voxels, union_completed_spheres,
               completed_solid_voxels, completed_solid_count,
               species_voxel_counts):
        with pytest.raises(ValueError):
            fn(-1)


@pytest.mark.parametrize("build, r", [(solid_absentee_voxels, 100),
                                      (completed_sphere_voxels, 200)])
def test_plane_lifted_builders_keep_a_small_working_set(build, r):
    """The tracemalloc peak of a plane-lifted builder stays under 1.6 times
    its output bytes (measured: 1.44 for solid_absentee_voxels(100) and 1.46
    for completed_sphere_voxels(200), one classified run of columns at a
    time; 4.10 and 3.25 while the classified plane was still held through
    the sort)."""
    tracemalloc.start()
    try:
        out = build(r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * out.nbytes
