import functools
import gc
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from _oracles import oracle_flood_outside, oracle_gap_tallies, oracle_size_tables
from voxsphere import analysis, kernels, solid, sphere
from voxsphere.circle import circle_pixels, disc_pixels
from voxsphere.lattice import absentee_witness

RMAX = 96
BIG = 3000  # a build to BIG spans many blocks of gap_tallies


def test_size_tables_match_enumeration():
    csz = kernels.size_tables(RMAX)
    assert csz.shape == (RMAX + 1,)
    tables = analysis._Tables()
    tables.grow(RMAX)
    for r in range(0, 33):
        assert csz[r] == len(circle_pixels(r))
        assert tables.dsz[r] == len(disc_pixels(r))
    for start in (0, 1, 2, 50, RMAX, RMAX + 1):
        assert np.array_equal(kernels.size_tables(RMAX, start=start), csz[start:])


def test_gap_tallies_match_enumeration():
    csz = kernels.size_tables(RMAX)
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


@pytest.fixture(scope="module")
def reference_tables():
    """csz, dsz, cnt and circ to BIG from the per-radius reference loops."""
    csz, dsz = oracle_size_tables(BIG)
    cnt, circ = oracle_gap_tallies(BIG - 1, csz)
    return csz, dsz, cnt, circ


def _starts(top: int, drop: int) -> list[int]:
    """Starts to test for a build of radii 1..top in which radius r has the
    rows max(1, isqrt(r^2 / 2) - drop)..r: 0, 1, 2, top and top + 1, and
    each radius that opens a block, with its two neighbours, sampled (the
    first and last three openers and every eighth in between)."""
    r = np.arange(1, top + 1)
    rows = r - np.array([max(1, math.isqrt(v * v // 2) - drop) for v in r]) + 1
    block = (np.cumsum(rows) - rows) // kernels._BLOCK
    opener = r[1:][block[1:] != block[:-1]].tolist()
    assert len(opener) > 50
    opener = opener[:3] + opener[3:-3:8] + opener[-3:]
    return sorted({0, 1, 2, top, top + 1}
                  | {b + d for b in opener for d in (-1, 0, 1)})


def test_size_tables_match_reference_across_blocks(reference_tables):
    csz = reference_tables[0]
    for start in _starts(BIG, drop=0):
        tail = kernels.size_tables(BIG, start=start)
        assert tail.dtype == np.int64
        assert np.array_equal(tail, csz[start:]), start


@pytest.mark.parametrize("r", [99_999, 100_000, 314_159, 999_999, 1_000_000])
def test_closed_circle_sizes_match_reference_far_out(r):
    """The four-row closed form against the all-rows reference, single
    radii up to ten times the largest radius counts accept."""
    assert np.array_equal(kernels.size_tables(r, start=r),
                          oracle_size_tables(r, start=r)[0])


def test_gap_tallies_match_reference_across_blocks(reference_tables):
    csz, _, cnt, circ = reference_tables
    for start in _starts(BIG - 1, drop=2):
        tail_n, tail_c = kernels.gap_tallies(BIG - 1, csz, start=start)
        assert tail_n.dtype == tail_c.dtype == np.int64
        assert np.array_equal(tail_n, cnt[start:]), start
        assert np.array_equal(tail_c, circ[start:]), start


def test_tables_grown_across_blocks_match_reference(reference_tables):
    csz, dsz, cnt, circ = reference_tables
    tables = analysis._Tables()
    for r in (0, 1, 2, 7, 300, BIG - 1, BIG):
        tables.grow(r)
        witnesses = max(r, 1)  # witnesses 0..max(r - 1, 0)
        assert np.array_equal(tables.csz, csz[:r + 1])
        assert tables.dsz.dtype == np.int64
        assert np.array_equal(tables.dsz, dsz[:r + 1])
        assert np.array_equal(tables.cpref, kernels.circle_prefix(csz[:r + 1]))
        assert np.array_equal(tables.cnt, cnt[:witnesses])
        assert np.array_equal(tables.circ, circ[:witnesses])


def test_hollow_gap_total_matches_sweep(reference_tables):
    """The hollow row's gap total, |D(r)| less its circles, against twice
    the swept witness tallies: the two derivations share no code."""
    gaps = kernels.circle_prefix(reference_tables[2])
    for r in range(BIG + 1):
        assert analysis.sphere_count_row(r).absentee == 2 * gaps[max(r, 1)], r


def test_hollow_rows_skip_the_sweep(monkeypatch):
    """Hollow rows extend only the circle sizes: no gap_tallies call, the
    sweep's high-water mark unchanged, and a later solid row still grows
    the sweep from where it stood."""
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
    for bad in (lambda: analysis.sphere_count_row(-1),
                lambda: analysis.sphere_table([-3]),
                lambda: analysis.solid_count_row(-2)):
        with pytest.raises(ValueError):
            bad()
    assert calls == [] and tables.csz.size == 0 and tables.rmax == -1

    tables.grow(300)
    calls.clear()
    rows = analysis.sphere_table([4000, 17, 5000, 300])
    assert calls == [("size", 5000, 301)]
    assert [row.r for row in rows] == [4000, 17, 5000, 300]
    for r in (0, 1, 299, 301, 4999, 5000):
        analysis.sphere_count_row(r)
    assert len(calls) == 1 and tables.rmax == 300
    assert tables.csz.size == tables.cpref.size - 1 == 5001
    assert tables.cnt.size == tables.circ.size == 300
    assert tables.dsz.size == 301

    calls.clear()
    analysis.solid_count_row(700)
    assert calls == [("gap", 699, 300)]
    assert tables.rmax == 700 and tables.dsz.size == 701
    fresh = analysis._Tables()
    fresh.grow(700)
    for name in ("cnt", "circ", "dsz"):
        assert np.array_equal(getattr(tables, name), getattr(fresh, name))
    assert np.array_equal(tables.csz[:701], fresh.csz)


def test_table_builders_keep_a_small_working_set():
    """What a build to r = 10^4 holds at once stays under 2 MB of
    tracemalloc peak (each output array takes 80 kB): gap_tallies works in
    blocks, and size_tables builds its four rows one at a time."""
    csz = kernels.size_tables(10_000)
    for build in (lambda: kernels.size_tables(10_000),
                  lambda: kernels.gap_tallies(9_999, csz)):
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2_000_000


def _row_extent_reference(r, j):
    """(first, last) abscissa of C(r) on row j >= 0, in Python integers:
    the shallow run x <= j holds the x with c - j <= x^2 <= c + j - 1
    (c = r^2 - j^2), the steep pixel is the x > j with (2x - 1)^2 < 4c <
    (2x + 1)^2."""
    if j == 0:
        return r, r
    c = r * r - j * j
    lo = math.isqrt(c - j - 1) + 1 if c - j > 0 else 0
    hi = min(j, math.isqrt(c + j - 1))
    x = (math.isqrt(4 * c) + 1) // 2
    steep = x if x > j else None
    return (lo if hi >= lo else steep), (hi if steep is None else steep)


def test_row_extents_match_per_row_reference():
    for r in range(301):
        first, last = kernels.row_extents(r)
        assert first.size == last.size == r + 1
        got = list(zip(first.tolist(), last.tolist()))
        assert got == [_row_extent_reference(r, j) for j in range(r + 1)], r


@pytest.mark.parametrize("r", [10**5, 10**6 - 1, 10**6])
def test_row_extents_match_per_row_reference_at_large_radii(r):
    """The edge rows, the rows around the diagonal and 3000 random rows."""
    first, last = kernels.row_extents(r)
    assert first.size == last.size == r + 1
    d = math.isqrt(r * r // 2)
    rng = np.random.default_rng(r)
    for j in sorted({*range(5), *range(r - 5, r + 1), *range(d - 5, d + 6),
                     *rng.integers(0, r + 1, 3000).tolist()}):
        assert (int(first[j]), int(last[j])) == _row_extent_reference(r, j), j


def test_circle_prefix():
    csz = kernels.size_tables(8)
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

        csz = size_tables(r)
        dsz = oracle_size_tables(r)[1]
        cpref = kernels.circle_prefix(csz)
        cnt, circ = gap_tallies(max(r - 1, 0), csz)
        assert np.array_equal(tables.csz, csz)
        assert np.array_equal(tables.dsz, dsz)
        assert np.array_equal(tables.cpref, cpref)
        assert np.array_equal(tables.cnt, cnt)
        assert np.array_equal(tables.circ, circ)

        for s in range(r + 1):
            surface, _ = kernels.surface_totals(s, csz, cpref)
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


@pytest.fixture
def empty_cache(monkeypatch):
    """row_extents with nothing kept yet; the process's cache is put back after."""
    monkeypatch.setattr(kernels, "_kept", functools.cache(kernels._kept.__wrapped__))


def kept_pairs(monkeypatch, body=kernels._row_extents):
    """Route row_extents's computations through body and watch them:
    returns alive(), {r: the arrays computed for r that are still alive
    after gc.collect()}, that is the ones the process keeps."""
    computed = {}

    def watched(r):
        pair = body(r)
        computed.setdefault(r, []).extend(weakref.ref(a) for a in pair)
        return pair

    monkeypatch.setattr(kernels, "_row_extents", watched)

    def alive():
        gc.collect()
        return {r: [a() for a in refs if a() is not None] for r, refs in computed.items()}

    return alive


def test_row_extents_serves_kept_read_only_arrays(empty_cache):
    """A small pair is computed once and the same read-only arrays serve
    every call, by int(r)."""
    for r in (0, 1, 2, 37, kernels._KEPT_R):
        first, last = kernels.row_extents(r)
        fresh = kernels._row_extents(r)
        assert np.array_equal(first, fresh[0]) and np.array_equal(last, fresh[1])
        assert not first.flags.writeable and not last.flags.writeable
        with pytest.raises(ValueError):
            last[0] = -1
        again = kernels.row_extents(np.int64(r))  # kept by int(r)
        assert again[0] is first and again[1] is last
    assert kernels._kept.cache_info().currsize == 5


def test_row_extents_keeps_no_large_pair(empty_cache):
    """A pair past _KEPT_R equals a fresh computation, is read-only, and is
    computed anew on each call, kept by no one."""
    for r in (kernels._KEPT_R + 1, 1000, 16383, 10**6):
        first, last = kernels.row_extents(r)
        fresh = kernels._row_extents(r)
        assert np.array_equal(first, fresh[0]) and np.array_equal(last, fresh[1])
        assert not first.flags.writeable and not last.flags.writeable
        again = kernels.row_extents(r)
        assert again[0] is not first and again[1] is not last
    assert kernels._kept.cache_info().currsize == 0


def test_row_extents_of_a_negative_radius_raises_and_keeps_nothing(empty_cache):
    for _ in range(3):
        with pytest.raises(ValueError, match="non-negative"):
            kernels.row_extents(-1)
    assert kernels._kept.cache_info().currsize == 0


def test_row_extents_keeps_at_most_its_byte_budget(empty_cache, monkeypatch):
    """Reading every radius 0..20000 leaves alive the pairs of r <= 127
    only: 16 (r + 1) bytes each, 132,096 bytes in all.  The sweep computes
    zeros of the kernel's sizes: what is kept depends on r only, and the
    kernel itself would take seconds."""
    alive = kept_pairs(monkeypatch, lambda r: (np.zeros(r + 1, np.int64), np.zeros(r + 1, np.int64)))
    for r in range(20001):
        kernels.row_extents(r)
    kept = alive()
    assert sorted(r for r, arrays in kept.items() if arrays) == list(range(128))
    assert sum(a.nbytes for arrays in kept.values() for a in arrays) == 132_096


def test_count_rows_keep_no_large_pair(empty_cache, monkeypatch):
    """The hollow rows of the 60 published radii (up to r = 10000) compute
    the runs of each radius and keep no pair past r = 127."""
    radii = sorted(analysis.reference_counts("sphere"))
    assert len(radii) == 60 and max(radii) == 10000
    alive = kept_pairs(monkeypatch)
    analysis.sphere_table(radii)
    kept = alive()
    assert set(kept) == set(radii)
    assert not [r for r, arrays in kept.items() if arrays and r > kernels._KEPT_R]
