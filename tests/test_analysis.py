from decimal import Decimal

import pytest

from _oracles import loglog_slope
from voxsphere import analysis
from voxsphere.analysis import (
    HOLLOW_FINAL_ROW_DEFICIT,
    HOLLOW_FINAL_ROW_R,
    HOLLOW_RATIO_ERRATA,
    CountRow,
    alpha,
    closed_form_disc_count,
    compare_closed_form,
    enumerated_disc_absentee_count,
    reference_counts,
    reference_ratios,
    run_count_bound,
    solid_count_row,
    solid_table,
    sphere_count_row,
    sphere_table,
)
from voxsphere.circle import disc_absentees
from voxsphere.sphere import completed_sphere_count, sphere_surface_count


def test_count_row_checks_total():
    CountRow(3, 5, 2, 7)
    with pytest.raises(ValueError):
        CountRow(3, 5, 2, 8)


def test_sphere_rows_match_direct_enumeration():
    for r in range(0, 24):
        row = sphere_count_row(r)
        assert row.primitive == sphere_surface_count(r)
        assert row.total == completed_sphere_count(r)
        assert row.absentee == 2 * len(disc_absentees(r))


def test_spot_rows():
    assert sphere_count_row(10) == CountRow(10, 1002, 80, 1082)
    assert sphere_count_row(100) == CountRow(100, 100622, 6248, 106870)
    assert solid_count_row(10) == CountRow(10, 4121, 752, 4873)
    assert solid_count_row(1) == CountRow(1, 7, 0, 7)


def test_tables_preserve_order_and_cache():
    rows = sphere_table([5, 3, 10])
    assert [row.r for row in rows] == [5, 3, 10]
    assert rows == [sphere_count_row(5), sphere_count_row(3), sphere_count_row(10)]
    assert solid_table([]) == []


def test_negative_radius_rejected():
    with pytest.raises(ValueError):
        sphere_count_row(-1)
    with pytest.raises(ValueError):
        solid_count_row(-2)


def test_alpha_rounding():
    assert alpha(sphere_count_row(10)) == Decimal("0.073937")
    assert alpha(sphere_count_row(100)) == Decimal("0.058464")
    assert alpha(sphere_count_row(1000)) == Decimal("0.058401")
    assert alpha(solid_count_row(10), places=5) == Decimal("0.15432")
    assert alpha(solid_count_row(100), places=5) == Decimal("0.10667")
    with pytest.raises(ValueError):
        alpha(CountRow(0, 0, 0, 0))


def test_loglog_slope():
    series = [(r, r * r * 3) for r in (8, 16, 32, 64)]
    assert abs(loglog_slope(series) - 2.0) < 1e-9
    with pytest.raises(ValueError):
        loglog_slope([(2, 4), (3, 9)])
    with pytest.raises(ValueError):
        loglog_slope([(0, 1), (2, 4), (3, 9)])


def test_run_count_bound():
    # rows of the shallow octant: r - ceil(r/sqrt(2)) + 1
    assert [run_count_bound(r) for r in (1, 2, 5, 10, 100)] == [1, 1, 2, 3, 30]
    with pytest.raises(ValueError):
        run_count_bound(0)


def test_closed_form_documented_discrepancy():
    total, terms = closed_form_disc_count(10)
    assert terms == [2, 1, -2]
    assert total == 8
    assert enumerated_disc_absentee_count(10) == 40
    report = compare_closed_form(128)
    assert len(report) == 128
    assert all(not equal for _, _, _, equal in report)
    for r, cf, en, _ in report:
        assert en == len(disc_absentees(r))


def test_reference_counts_agree_with_enumeration_small():
    ref = reference_counts("sphere")
    for r in list(range(11)) + [20, 50, 100]:
        assert sphere_count_row(r) == ref[r]
    sref = reference_counts("solid")
    for r in list(range(11)) + [20, 100]:
        assert solid_count_row(r) == sref[r]


def test_reference_table_shapes():
    assert len(reference_counts("sphere")) == 60
    assert len(reference_counts("solid")) == 34
    assert len(reference_ratios("sphere")) == 60
    assert len(reference_ratios("solid")) == 56
    with pytest.raises(KeyError):
        reference_counts("cube")


def test_hollow_final_row_deficit():
    ref = reference_counts("sphere")[HOLLOW_FINAL_ROW_R]
    row = sphere_count_row(HOLLOW_FINAL_ROW_R)
    assert row.primitive == ref.primitive
    assert row.absentee - ref.absentee == HOLLOW_FINAL_ROW_DEFICIT
    assert row.total - ref.total == HOLLOW_FINAL_ROW_DEFICIT
    # the deficit is the two gap voxels of each witness-9999 gap pixel, as
    # the swept tallies count them (the hollow row itself reads no tally)
    analysis._tables.grow(HOLLOW_FINAL_ROW_R)
    assert HOLLOW_FINAL_ROW_DEFICIT == 2 * int(analysis._tables.cnt[9999])


def test_hollow_row_at_the_counts_cap():
    """The frozen hollow row at r = 100000, the counts radius cap: O(r)
    from the closed circle sizes and the row extents, no sweep."""
    row = sphere_count_row(100_000)
    assert row == CountRow(100_000, 100997086030, 6263309800, 107260395830)
    assert str(alpha(row)) == "0.058393"


def test_hollow_ratio_errata_rows():
    ratios = reference_ratios("sphere")
    # the four deviant rows, with the printed and the recomputed values
    expected = {
        90: ("0.058618", "0.058619"),
        1200: ("0.058404", "0.058403"),
        1900: ("0.058397", "0.058396"),
        10000: ("0.058383", "0.058394"),
    }
    assert set(HOLLOW_RATIO_ERRATA) == set(expected)
    for r, (printed, computed) in expected.items():
        assert ratios[r] == printed
        assert str(alpha(sphere_count_row(r))) == computed
    # every other row matches half-even rounding exactly
    for r, printed in ratios.items():
        if r not in expected:
            assert str(alpha(sphere_count_row(r))) == printed, r


def test_solid_ratios_all_match():
    for r, printed in reference_ratios("solid").items():
        assert str(alpha(solid_count_row(r), places=5)) == printed, r


@pytest.mark.slow
def test_tallies_at_scale():
    """Frozen rows at r = 100000, the counts radius cap, ten times past the
    largest published radius.  The hollow row is O(r) and is also pinned
    in tier-1; the solid row is the one check of the gap sweep and its
    int64 tallies at this radius (about 45 s on a 2-vCPU Xeon)."""
    row = sphere_count_row(100_000)
    assert row == CountRow(100_000, 100997086030, 6263309800, 107260395830)
    assert row.absentee % 8 == 0
    assert str(alpha(row)) == "0.058393"
    row = solid_count_row(100_000)
    assert row == CountRow(
        100_000, 3782599760832725, 406241512789212, 4188841273621937)
    assert str(alpha(row, places=5)) == "0.09698"
