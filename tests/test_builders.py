"""The array builders: one allocation each, sized by the exact closed count.

Each builder copies its canonical x-blocks into one array whose size is the
shape's closed count from ``analysis`` (the count the PLY header reads), so
it holds no list of blocks and no second copy, and a block stream that
disagrees with the count raises instead of returning a short or padded
array.
"""

import tracemalloc

import numpy as np
import pytest

import _oracles as O
from voxsphere import analysis, circle, cli, io, solid, sphere

# (builder, radius): each radius gives at least 3 x-blocks, and an output
# large enough (21 to 41 MiB) that a block's own working set, up to about
# 5 MiB with the classification of one column run of _plane (about
# io._CHUNK_ROWS pixels), fits in the bound: the peaks measure 0.87 to 0.96
# of it (hemisphere_voxels(500) the highest, at 1.001 with runs of 2^16
# pixels).
LARGE = [
    (sphere.sphere_voxels, 400),
    (sphere.sphere_absentees, 1700),
    (sphere.completed_sphere_voxels, 400),
    (sphere.hemisphere_voxels, 500),
    (sphere.hemisphere_absentees, 2400),
    (solid.solid_absentee_voxels, 150),
    (solid.completed_solid_voxels, 60),
    (circle.disc_absentees, 2900),
    (circle.disc_pixels, 900),
]
BUILDERS = [build for build, _ in LARGE]


def _name(build):
    return build.__name__


@pytest.mark.parametrize("build, r", LARGE, ids=[_name(b) for b, _ in LARGE])
def test_builder_peaks_near_its_output(monkeypatch, build, r):
    """The traced peak stays within 1.15 times the result plus 2 MiB
    (measured: 1.02 to 1.10 times it plus 2 MiB).  A list of the blocks and
    their concatenation peak at about twice the result."""
    blocks = []
    join = circle._joined

    def counting(stream, rows):
        blocks.append(0)
        slot = len(blocks) - 1

        def counted():
            for block in stream:
                blocks[slot] += 1
                yield block
        return join(counted(), rows)

    monkeypatch.setattr(circle, "_joined", counting)
    monkeypatch.setattr(solid, "_joined", counting)
    tracemalloc.start()
    try:
        out = build(r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert blocks[0] >= 3  # the builder's own stream (solid's gap gather is next)
    assert peak <= 1.15 * out.nbytes + 2 * 2**20


@pytest.mark.parametrize("sizes", [[5], [0], [5, 0, 3, 4], [0, 2, 0]])
def test_joined_fills_one_array_of_exactly_the_count(sizes):
    blocks = [np.full((n, 3), i, dtype=np.int64) for i, n in enumerate(sizes)]
    total = sum(sizes)
    out = circle._joined(iter(blocks), total)
    assert np.array_equal(out, np.concatenate(blocks))
    if len(sizes) == 1:
        assert out is blocks[0]  # a single block as it is
    for rows in (total - 1, total + 1):
        if rows >= 0:
            with pytest.raises(io.CountMismatch, match="exact count"):
                circle._joined(iter(blocks), rows)


# the count source of each builder, and a wrong count that moves its size
# by at least one either way
SHIFTED = {
    "sphere_count_row": lambda row, d: analysis.CountRow(
        row.r, row.primitive + 2 * d, row.absentee + 2 * d, row.total + 4 * d),
    "solid_count_row": lambda row, d: analysis.CountRow(
        row.r, row.primitive + d, row.absentee + d, row.total + 2 * d),
    "disc_count": lambda n, d: n + d,
}
SOURCE = {"solid_absentee_voxels": (analysis, "solid_count_row"),
          "completed_solid_voxels": (analysis, "solid_count_row"),
          "disc_pixels": (circle, "disc_count")}


@pytest.mark.parametrize("build", BUILDERS, ids=_name)
@pytest.mark.parametrize("r", [7, 60])
@pytest.mark.parametrize("d", [-1, 1])
def test_blocks_short_or_long_of_the_count_raise(monkeypatch, build, r, d):
    module, name = SOURCE.get(build.__name__, (analysis, "sphere_count_row"))
    count = getattr(module, name)
    monkeypatch.setattr(module, name, lambda r: SHIFTED[name](count(r), d))
    with pytest.raises(io.CountMismatch, match="exact count"):
        build(r)


# every shape generate writes in x-blocks (all but the one-block circle):
# its array builder and the source of its count, shifted as in SHIFTED
BLOCKED = {
    "disc": (circle.disc_pixels, circle, "disc_count"),
    "disc-absentees": (circle.disc_absentees, analysis, "sphere_count_row"),
    "sphere": (sphere.sphere_voxels, analysis, "sphere_count_row"),
    "sphere-absentees": (sphere.sphere_absentees, analysis, "sphere_count_row"),
    "sphere-complete": (sphere.completed_sphere_voxels, analysis, "sphere_count_row"),
    "solid": (solid.union_completed_spheres, analysis, "sphere_count_row"),
    "solid-absentees": (solid.solid_absentee_voxels, analysis, "solid_count_row"),
    "solid-complete": (solid.completed_solid_voxels, analysis, "solid_count_row"),
}


@pytest.mark.parametrize("shape", BLOCKED)
@pytest.mark.parametrize("r", [13, 40])
@pytest.mark.parametrize("under", [0, 1], ids=["target-at-count", "target-under-count"])
@pytest.mark.parametrize("d", [-1, 1])
def test_a_count_never_moves_a_block(monkeypatch, tmp_path, shape, r, under, d):
    """The x-blocks are cut from what the construction yields, never from
    the count that checks them: with the count source shifted either way,
    every block is the same array as before, while the array builder and
    generate still refuse the rows.  The row target sits at the exact count
    or one row under it, where a cut read from the count would move."""
    build, module, name = BLOCKED[shape]
    blocks_of, count_of = cli.SHAPES[shape]
    monkeypatch.setattr(io, "_CHUNK_ROWS", count_of(r) - under)
    before = list(blocks_of(r))
    count = getattr(module, name)
    monkeypatch.setattr(module, name, lambda r: SHIFTED[name](count(r), d))
    if shape == "disc":  # generate reads disc_count itself, the disc's count source
        monkeypatch.setitem(cli.SHAPES, shape, (blocks_of, circle.disc_count))
    after = list(blocks_of(r))
    assert len(after) == len(before)
    assert all(np.array_equal(a, b) for a, b in zip(after, before))
    with pytest.raises(io.CountMismatch, match="exact count"):
        build(r)
    assert cli.main(["generate", shape, "-r", str(r), "--out", str(tmp_path / "out")]) == 4
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("build", BUILDERS, ids=_name)
def test_negative_radius_rejected(build):
    with pytest.raises(ValueError, match="non-negative"):
        build(-1)


def test_union_holds_the_sum_of_the_sphere_counts():
    """The completed spheres of radii 0..r are pairwise disjoint, so their
    union holds the sum of their exact counts."""
    for r in range(31):
        total = sum(sphere.completed_sphere_count(s) for s in range(r + 1))
        assert len(solid.union_completed_spheres(r)) == total, r


@pytest.mark.parametrize("grow", [False, True], ids=["in-place", "appended"])
def test_union_with_a_repeated_voxel_raises(monkeypatch, grow):
    """Union blocks that disagree with union_count raise: a voxel lifted
    twice in place of another, which the slab's sort drops, leaves them
    short; a voxel repeated on top of a block leaves them long."""
    sort = sphere.canonicalize

    def repeating(vox):
        if grow:
            out = sort(vox)
            return np.concatenate([out, out[:1]])
        return sort(np.concatenate([vox[:-1], vox[:1]]))

    monkeypatch.setattr(sphere, "canonicalize", repeating)
    with pytest.raises(io.CountMismatch, match="exact count"):
        solid.union_completed_spheres(5)


def test_union_is_the_union_of_the_completed_spheres():
    """The union lifted from one plane equals the completed spheres of radii
    0..r gathered sphere by sphere, for every r <= 40."""
    for r in range(41):
        assert np.array_equal(solid.union_completed_spheres(r),
                              O.oracle_union_completed_spheres(r)), r
