"""Strength of the verify checks.

The verify output is frozen, each reworked gating check must fail when its
builder is broken in the way the check exists to catch, and the symmetry
reductions the checks rely on are tested against the scalar predicates.
"""

import hashlib
from collections import Counter
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxsphere import analysis, checks, circle, cli, solid, sphere
from voxsphere.lattice import on_digital_circle

# sha256 of the stdout of `verify --suite all --max-r 32`, recorded before
# the checks compared sets as canonical arrays.
VERIFY_32_SHA256 = "670f30710bbf192cafd355bcaafb6b78a3d645874b983af51d6f90e8d5a48a2a"
# The same at --max-r 128, the largest cap of any check, recorded before the
# sphere rings were lifted along the columns of C(r).
VERIFY_128_SHA256 = "54d8e19c4c7a3f70b41491a77840ce4df377ba554823058797968da0cd1e126e"


def run_verify(capsys, suite, max_r):
    rc = cli.main(["verify", "--suite", suite, "--max-r", str(max_r)])
    return rc, capsys.readouterr().out


def test_verify_output_frozen(capsys):
    rc, out = run_verify(capsys, "all", 32)
    assert rc == 0
    assert out.splitlines()[-1] == "17/17 checks passed"
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_32_SHA256


def test_verify_output_frozen_at_the_largest_cap(capsys):
    rc, out = run_verify(capsys, "all", 128)
    assert rc == 0
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_128_SHA256


@pytest.mark.parametrize("name", ["hemisphere_absentees", "sphere_absentees",
                                  "sphere_voxels", "completed_sphere_voxels"])
def test_sphere_checks_build_each_set_once_per_radius(monkeypatch, name):
    build = getattr(sphere, name)
    radii = []
    monkeypatch.setattr(sphere, name, lambda r: radii.append(r) or build(r))
    assert all(c.passed for c in checks.check_sphere(20))
    assert radii == list(range(21))


def test_run_builds_each_set_once(monkeypatch):
    """One run of all three suites shares its builds: each disc gap set and
    solid species set once per radius, at most two rings per radius (one
    for cover-identity, one for circle-definition), and one octant
    enumeration per witness for plane-placement."""
    calls = {}
    for module, name in [(circle, "disc_absentees"), (circle, "circle_pixels"),
                         (circle, "iter_octant_absentees"), (solid, "solid_absentee_voxels")]:
        build = getattr(module, name)
        seen = calls[name] = Counter()
        monkeypatch.setattr(module, name,
                            lambda r, build=build, seen=seen: seen.update([r]) or build(r))
    assert all(c.passed for c in checks.run("all", 20))
    assert calls["disc_absentees"] == Counter(range(21))
    # coverage-holes builds its own species set at r = 8
    assert calls["solid_absentee_voxels"] - Counter({8: 1}) == Counter(range(21))
    assert set(calls["circle_pixels"]) == set(range(21))
    assert max(calls["circle_pixels"].values()) <= 2
    assert calls["iter_octant_absentees"] == Counter(range(20))


def test_memo_holds_read_only_builds():
    memo = checks.Memo()
    a = memo(circle.disc_absentees, 5)
    assert memo(circle.disc_absentees, 5) is a
    assert not a.flags.writeable


# (module, builder, mutation, suite, check): a builder broken after a clean
# run in the same process must fail the next run, so no build is kept
# between runs.
BROKEN_AFTER_A_CLEAN_RUN = [
    (circle, "disc_absentees", lambda p, r: p[1:], "disc", "cover-identity"),
    (analysis, "sphere_count_row",
     lambda row, r: analysis.CountRow(r, row.primitive + 1, row.absentee, row.total + 1),
     "sphere", "published-table"),
]


@pytest.mark.parametrize("module, name, mutate, suite, check", BROKEN_AFTER_A_CLEAN_RUN)
def test_no_memo_outlives_a_run(capsys, monkeypatch, module, name, mutate, suite, check):
    rc, _ = run_verify(capsys, suite, 8)
    assert rc == 0
    build = getattr(module, name)
    monkeypatch.setattr(module, name, lambda r: mutate(build(r), r))
    rc, out = run_verify(capsys, suite, 8)
    assert rc == 1
    assert any(line.startswith(f"[FAIL] {suite}:{check} ") for line in out.splitlines())


def _drop_first(points, r):
    return points[1:]


# (module, builder, mutation, suite, check): each mutation must make the
# named gating check fail.
MUTATIONS = [
    (circle, "circle_pixels", _drop_first, "disc", "circle-definition"),
    # (0, r), a pixel of C(r), also listed as a gap pixel: the union is
    # unchanged, only disjointness breaks
    (circle, "disc_absentees", lambda p, r: np.concatenate([p, [[0, r]]]),
     "disc", "cover-identity"),
    (circle, "disc_absentees", _drop_first, "disc", "cover-identity"),
    (sphere, "hemisphere_absentees",
     lambda v, r: np.concatenate([v, v[:1]]), "sphere", "gap-projection"),
    (sphere, "sphere_absentees", _drop_first, "sphere", "membership-predicate"),
    (solid, "solid_absentee_voxels",
     lambda v, r: np.concatenate([v, [[0, 1000, 0]]]), "solid", "species-partition"),
    (solid, "solid_absentee_count", lambda n, r: n + 1, "solid", "streamed-vs-materialized"),
]


@pytest.mark.parametrize("module, name, mutate, suite, check", MUTATIONS)
def test_broken_builder_fails_its_check(capsys, monkeypatch, module, name,
                                        mutate, suite, check):
    build = getattr(module, name)
    monkeypatch.setattr(module, name, lambda r: mutate(build(r), r))
    rc, out = run_verify(capsys, suite, 8)
    assert rc == 1
    assert any(line.startswith(f"[FAIL] {suite}:{check} ") for line in out.splitlines())


def test_published_ratio_mismatch_listed_once(monkeypatch):
    """A radius that misses both its printed ratio and the 0.0584 band is
    reported once."""
    ratios = analysis.reference_ratios
    monkeypatch.setattr(analysis, "reference_ratios",
                        lambda kind: {300: "0", 400: "0"} if kind == "sphere" else ratios(kind))
    monkeypatch.setattr(analysis, "alpha", lambda row, places=6: Decimal("0.5"))
    result = {c.name: c for c in checks.check_sphere(0)}["published-ratios"]
    assert not result.passed
    assert result.detail == "mismatch at r=[300, 400]"


def _sign_swap(a, b):
    return [(x * s, y * t) for x, y in ((a, b), (b, a)) for s in (1, -1) for t in (1, -1)]


coord = st.integers(-300, 300)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 300), coord, coord)
def test_circle_predicate_sign_swap_invariant(r, a, b):
    """circle-definition evaluates on_digital_circle on one octant only."""
    want = on_digital_circle(r, a, b)
    assert all(on_digital_circle(r, x, y) == want for x, y in _sign_swap(a, b))


@settings(max_examples=300, deadline=None)
@given(coord, st.one_of(st.integers(-20, 20), coord), coord)
def test_species_predicates_class_invariant(i, j, k):
    """species-partition evaluates each predicate once per class
    (max(|i|,|k|), |j|, min(|i|,|k|))."""
    for pred in (solid.is_absentee_line_voxel, solid.is_absentee_circle_voxel):
        want = pred((i, j, k))
        assert all(pred((x, y, z)) == want
                   for x, z in _sign_swap(i, k) for y in (j, -j))
