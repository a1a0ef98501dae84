"""Serialization formats and the command-line interface.

Format bytes are frozen (not just round-tripped) because downstream tooling
diffs exported files; the determinism tests re-run the CLI in subprocesses
and require byte-identical output.
"""

import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxsphere import circle, cli, io as vio, sphere
from voxsphere.lattice import INT, canonicalize


def run_cli(capsys, *argv):
    rc = cli.main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def run_proc(*argv):
    return subprocess.run([sys.executable, "-m", "voxsphere", *argv],
                          capture_output=True, text=True)


# ---------------------------------------------------------------- emitters

def test_canonical_text_frozen():
    assert vio.emit_canonical_text(circle.circle_pixels(0)) == "0 0\n"
    assert (vio.emit_canonical_text(circle.circle_pixels(1))
            == "-1 0\n0 -1\n0 1\n1 0\n")
    assert vio.emit_canonical_text(sphere.sphere_voxels(0)) == "0 0 0\n"


def test_canonical_text_empty():
    assert vio.emit_canonical_text(np.zeros((0, 2), dtype=INT)) == ""
    assert vio.emit_canonical_text(np.zeros((0, 3), dtype=INT)) == ""


def test_csv_frozen():
    assert vio.emit_csv(circle.circle_pixels(0)) == "i,j\n0,0\n"
    assert (vio.emit_csv(np.array([[1, -2, 3]], dtype=INT))
            == "i,j,k\n1,-2,3\n")


def test_ply_frozen_and_2d_embedding():
    want = (
        "ply\n"
        "format ascii 1.0\n"
        "element vertex 4\n"
        "property int x\n"
        "property int y\n"
        "property int z\n"
        "end_header\n"
        "-1 0 0\n"
        "0 -1 0\n"
        "0 1 0\n"
        "1 0 0\n"
    )
    assert vio.emit_ply(circle.circle_pixels(1)) == want


def test_ply_vertex_count_matches_rows():
    vox = sphere.completed_sphere_voxels(3)
    text = vio.emit_ply(vox)
    head, _, body = text.partition("end_header\n")
    assert f"element vertex {vox.shape[0]}\n" in head
    assert body.count("\n") == vox.shape[0]


def test_emit_unknown_format():
    with pytest.raises(ValueError, match="unknown format"):
        vio.emit(circle.circle_pixels(1), "json")


def test_emit_rejects_bad_shapes():
    with pytest.raises(ValueError):
        vio.emit(np.arange(6, dtype=INT), "csv")
    with pytest.raises(ValueError):
        vio.emit(np.zeros((2, 4), dtype=INT), "canonical-text")


# ------------------------------------------------------------------ parser

points_2d = st.sets(
    st.tuples(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9)),
    min_size=1, max_size=60)
points_3d = st.sets(
    st.tuples(st.integers(-10**9, 10**9), st.integers(-10**9, 10**9),
              st.integers(-10**9, 10**9)),
    min_size=1, max_size=60)


@settings(max_examples=120, deadline=None)
@given(points_2d | points_3d)
def test_round_trip(points):
    vox = canonicalize(np.array(sorted(points), dtype=INT))
    back = vio.parse_canonical_text(vio.emit_canonical_text(vox))
    assert np.array_equal(back, vox)


def test_parse_reorders_and_skips_blanks():
    got = vio.parse_canonical_text("3 1\n\n  \n-2 5\n3 0\n")
    assert np.array_equal(got, np.array([[-2, 5], [3, 0], [3, 1]]))


def test_parse_empty_input():
    assert vio.parse_canonical_text("").shape == (0, 3)
    assert vio.parse_canonical_text(" \n\t\n").shape == (0, 3)


def test_parse_rejects_bad_columns():
    with pytest.raises(ValueError, match="line 1"):
        vio.parse_canonical_text("7\n")
    with pytest.raises(ValueError, match="line 2"):
        vio.parse_canonical_text("1 2\n3 4 5\n")
    with pytest.raises(ValueError, match="line 3"):
        vio.parse_canonical_text("1 2 3\n4 5 6\n7 8\n")


# ------------------------------------------------------------- file writes

def test_write_text_file(tmp_path):
    out = tmp_path / "pts.txt"
    vio.write_text("0 0\n1 1\n", str(out))
    assert out.read_bytes() == b"0 0\n1 1\n"
    assert not list(tmp_path.glob(".voxsphere-*"))


def test_write_text_stdout(capsys):
    vio.write_text("0 0\n", None)
    assert capsys.readouterr().out == "0 0\n"


def test_write_text_failure_leaves_no_temp(tmp_path):
    target = tmp_path / "occupied"
    target.mkdir()
    with pytest.raises(OSError):
        vio.write_text("1 2\n", str(target))
    assert not list(tmp_path.glob(".voxsphere-*"))
    assert target.is_dir()


# ---------------------------------------------------------------- generate

def test_generate_circle_r0(capsys):
    rc, out, _ = run_cli(capsys, "generate", "circle", "-r", "0")
    assert rc == 0
    assert out == "0 0\n"


def test_generate_sphere_complete_r2_lines(capsys):
    rc, out, _ = run_cli(capsys, "generate", "sphere-complete", "-r", "2")
    assert rc == 0
    assert out.count("\n") == 54
    assert vio.parse_canonical_text(out).shape == (54, 3)


def test_generate_solid_absentees_r10_lines(capsys):
    rc, out, _ = run_cli(capsys, "generate", "solid-absentees", "-r", "10")
    assert rc == 0
    assert out.count("\n") == 752


def test_generate_out_matches_stdout(tmp_path, capsys):
    rc, out, _ = run_cli(capsys, "generate", "disc", "-r", "7")
    path = tmp_path / "disc.txt"
    rc2 = cli.main(["generate", "disc", "-r", "7", "--out", str(path)])
    capsys.readouterr()
    assert rc == rc2 == 0
    assert path.read_text() == out


def test_generate_formats(capsys):
    rc, out, _ = run_cli(capsys, "generate", "circle", "-r", "2",
                         "--format", "csv")
    assert rc == 0 and out.startswith("i,j\n")
    rc, out, _ = run_cli(capsys, "generate", "sphere", "-r", "2",
                         "--format", "ply-ascii")
    assert rc == 0 and out.startswith("ply\nformat ascii 1.0\n")
    assert "element vertex 46\n" in out


def test_generate_negative_radius(capsys):
    rc, _, err = run_cli(capsys, "generate", "circle", "--radius=-1")
    assert rc == 2
    assert "non-negative" in err


def test_generate_solid_cap(capsys):
    for shape in ("solid", "solid-absentees", "solid-complete"):
        rc, _, err = run_cli(capsys, "generate", shape, "-r", "1501")
        assert rc == 3
        assert "counts" in err
    # hollow shapes are streamed from closed tallies, not capped
    rc, out, _ = run_cli(capsys, "generate", "circle", "-r", "1501")
    assert rc == 0 and out


# ------------------------------------------------------------------ counts

SPHERE_COUNTS_0_10 = """\
r,primitive,absentee,total,alpha
0,1,0,1,0.000000
1,6,0,6,0.000000
2,46,8,54,0.148148
3,82,8,90,0.088889
4,170,8,178,0.044944
5,254,24,278,0.086331
6,330,24,354,0.067797
7,498,40,538,0.074349
8,614,40,654,0.061162
9,830,48,878,0.054670
10,1002,80,1082,0.073937
"""


def test_counts_sphere_frozen(capsys):
    rc, out, _ = run_cli(capsys, "counts", "--kind", "sphere",
                         "--radii", "0..10")
    assert rc == 0
    assert out == SPHERE_COUNTS_0_10


def test_counts_solid_rows(capsys):
    rc, out, _ = run_cli(capsys, "counts", "--kind", "solid",
                         "--radii", "10,100")
    assert rc == 0
    assert out.splitlines() == [
        "r,primitive,absentee,total,alpha",
        "10,4121,752,4873,0.154320",
        "100,3785733,452052,4237785,0.106672",
    ]


def test_counts_range_with_step(capsys):
    rc, out, _ = run_cli(capsys, "counts", "--kind", "sphere",
                         "--radii", "0..4:2,9")
    assert rc == 0
    assert [ln.split(",")[0] for ln in out.splitlines()[1:]] == \
        ["0", "2", "4", "9"]


@pytest.mark.parametrize("spec", ["5..1", "abc", "3..6:0", "-2", "", "1,,2"])
def test_counts_bad_radii(capsys, spec):
    rc, _, err = run_cli(capsys, "counts", "--kind", "sphere",
                         "--radii", spec)
    assert rc == 2
    assert err.startswith("error:")


def test_counts_radius_cap(capsys):
    rc, _, err = run_cli(capsys, "counts", "--kind", "solid",
                         "--radii", "1000001")
    assert rc == 2
    assert "up to 1000000" in err
    rc, out, _ = run_cli(capsys, "counts", "--kind", "sphere",
                         "--radii", "10000")
    assert rc == 0
    assert out.splitlines()[1] == "10000,1009962778,62633152,1072595930,0.058394"


# ------------------------------------------------------------------ verify

def test_verify_disc_quick(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--suite", "disc", "--max-r", "8")
    assert rc == 0
    assert "[FAIL]" not in out
    assert "checks passed" in out.splitlines()[-1]


def test_verify_negative_max_r(capsys):
    rc, _, err = run_cli(capsys, "verify", "--max-r=-1")
    assert rc == 2
    assert "non-negative" in err


def test_verify_reports_failures(capsys, monkeypatch):
    from voxsphere.checks import CheckResult
    monkeypatch.setattr(cli.checks, "run", lambda *a, **k: [
        CheckResult("disc", "broken", False, "boom"),
        CheckResult("disc", "note", False, "soft", gating=False),
    ])
    rc, out, _ = run_cli(capsys, "verify")
    assert rc == 1
    lines = out.splitlines()
    assert lines[0] == "[FAIL] disc:broken boom"
    assert lines[1] == "[INFO] disc:note soft"
    assert lines[-1] == "1/2 checks passed, 1 FAILED"


# ------------------------------------------------------------- subprocess

def test_module_entrypoint():
    proc = run_proc("generate", "circle", "-r", "0")
    assert proc.returncode == 0
    assert proc.stdout == "0 0\n"


def test_determinism_across_backends():
    """Identical bytes from repeated runs of the one numpy backend."""
    gen, cnt = [], []
    for _ in range(3):
        p = run_proc("generate", "sphere-complete", "-r", "6")
        assert p.returncode == 0, p.stderr
        gen.append(p.stdout)
        p = run_proc("counts", "--kind", "sphere", "--radii", "0..32")
        assert p.returncode == 0, p.stderr
        cnt.append(p.stdout)
    assert gen[0] == gen[1] == gen[2]
    assert cnt[0] == cnt[1] == cnt[2]
    assert gen[0].count("\n") == 354
