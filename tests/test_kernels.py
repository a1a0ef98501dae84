import math

import numpy as np
import pytest

from _oracles import oracle_flood_outside
from voxsphere import analysis, kernels, solid, sphere
from voxsphere.circle import circle_pixels, disc_pixels
from voxsphere.lattice import absentee_witness

RMAX = 96


def test_size_tables_match_enumeration():
    csz, dsz = kernels.size_tables(RMAX)
    assert csz.shape == dsz.shape == (RMAX + 1,)
    for r in range(0, 33):
        assert csz[r] == len(circle_pixels(r))
        assert dsz[r] == len(disc_pixels(r))
    for start in (0, 1, 2, 50, RMAX, RMAX + 1):
        tail_c, tail_d = kernels.size_tables(RMAX, start=start)
        assert np.array_equal(tail_c, csz[start:])
        assert np.array_equal(tail_d, dsz[start:])


def test_gap_tallies_match_enumeration():
    csz, _ = kernels.size_tables(RMAX)
    cnt, circ = kernels.gap_tallies(RMAX - 1, csz)
    # brute tally of witnesses over a quadrant reproduces cnt
    lim = 40
    brute = np.zeros(lim, dtype=np.int64)
    for x in range(-lim, lim + 1):
        for y in range(-lim, lim + 1):
            w = absentee_witness(x, y)
            if w is not None and w < lim:
                brute[w] += 1
    assert np.array_equal(cnt[:lim], brute)
    for start in (0, 1, 2, 50, RMAX):
        tail_n, tail_c = kernels.gap_tallies(RMAX - 1, csz, start=start)
        assert np.array_equal(tail_n, cnt[start:])
        assert np.array_equal(tail_c, circ[start:])


def test_circle_prefix():
    csz, _ = kernels.size_tables(8)
    cpref = kernels.circle_prefix(csz)
    assert cpref[0] == 0
    assert np.array_equal(np.diff(cpref), csz)


def test_flood_outside_matches_bfs_oracle_on_random_blobs():
    rng = np.random.default_rng(11)
    for _ in range(6):
        occ = (rng.random((14, 15, 13)) < 0.35).astype(np.uint8)
        out = kernels.flood_outside(occ)
        assert np.array_equal(out, oracle_flood_outside(occ))
        assert not np.any(out & occ.astype(bool))


def test_flood_outside_sealed_box_keeps_pocket():
    occ = np.zeros((5, 5, 5), dtype=np.uint8)
    occ[1:4, 1:4, 1:4] = 1
    occ[2, 2, 2] = 0
    out = kernels.flood_outside(occ)
    assert not out[2, 2, 2]
    assert out[0, 0, 0]


def test_input_validation():
    with pytest.raises(ValueError):
        kernels.size_tables(-1)
    with pytest.raises(ValueError):
        kernels.size_tables(4, start=6)
    with pytest.raises(ValueError):
        kernels.gap_tallies(-1, np.zeros(1, np.int64))
    with pytest.raises(ValueError):
        kernels.gap_tallies(4, np.ones(5, np.int64), start=-1)


def test_tables_grow_by_extension(monkeypatch):
    """A cache grown step by step holds exactly a one-shot build, computes
    only the rows it lacks, and is what every closed count reads."""
    size_tables, gap_tallies = kernels.size_tables, kernels.gap_tallies
    calls = []

    def spy_size(rmax, start=0):
        calls.append(("size", rmax, start))
        return size_tables(rmax, start)

    def spy_gap(wmax, csz, start=0):
        calls.append(("gap", wmax, start))
        return gap_tallies(wmax, csz, start)

    tables = analysis._Tables()
    monkeypatch.setattr(analysis, "_tables", tables)
    monkeypatch.setattr(kernels, "size_tables", spy_size)
    monkeypatch.setattr(kernels, "gap_tallies", spy_gap)
    prev = -1
    for r in (0, 1, 2, 3, 7, 64, 65, 300):
        calls.clear()
        witnesses_held = tables.cnt.size
        tables.grow(r)
        assert calls == [("size", r, prev + 1),
                         ("gap", max(r - 1, 0), witnesses_held)]
        tables.grow(r)
        tables.grow(prev)
        assert len(calls) == 2 and tables.rmax == r

        csz, dsz = size_tables(r)
        cpref = kernels.circle_prefix(csz)
        cnt, circ = gap_tallies(max(r - 1, 0), csz)
        assert np.array_equal(tables.csz, csz)
        assert np.array_equal(tables.dsz, dsz)
        assert np.array_equal(tables.cpref, cpref)
        assert np.array_equal(tables.cnt, cnt)
        assert np.array_equal(tables.circ, circ)

        for s in range(r + 1):
            surface = kernels.surface_totals(s, csz, cpref)
            gaps = 2 * int(cnt[:max(s, 1)].sum())
            lines = sum(int(cnt[w]) * (2 * math.isqrt(w) + 1) for w in range(s))
            circles = 2 * int(circ[:s].sum())
            total = kernels.solid_totals(s, dsz)
            assert sphere.sphere_surface_count(s) == surface
            assert sphere.completed_sphere_count(s) == surface + gaps
            assert analysis.sphere_count_row(s) == analysis.CountRow(
                s, surface, gaps, surface + gaps)
            assert solid.species_voxel_counts(s) == (lines, circles)
            assert solid.solid_absentee_count(s) == lines + circles
            assert solid.absentee_line_count(s) == int(cnt[:s].sum())
            assert solid.completed_solid_count(s) == total
            assert analysis.solid_count_row(s) == analysis.CountRow(
                s, total - lines - circles, lines + circles, total)
        assert len(calls) == 2 and tables.rmax == r
        prev = r
