"""Serialization formats and the command-line interface.

Format bytes are frozen (not just round-tripped) because downstream tooling
diffs exported files; the determinism tests re-run the CLI in subprocesses
and require byte-identical output.
"""

import hashlib
import subprocess
import sys
import tracemalloc

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
    assert vio.emit_canonical_text(circle.circle_pixels(0)) == b"0 0\n"
    assert (vio.emit_canonical_text(circle.circle_pixels(1))
            == b"-1 0\n0 -1\n0 1\n1 0\n")
    assert vio.emit_canonical_text(sphere.sphere_voxels(0)) == b"0 0 0\n"


def test_canonical_text_empty():
    assert vio.emit_canonical_text(np.zeros((0, 2), dtype=INT)) == b""
    assert vio.emit_canonical_text(np.zeros((0, 3), dtype=INT)) == b""


def test_csv_frozen():
    assert vio.emit_csv(circle.circle_pixels(0)) == b"i,j\n0,0\n"
    assert (vio.emit_csv(np.array([[1, -2, 3]], dtype=INT))
            == b"i,j,k\n1,-2,3\n")


def test_ply_frozen_and_2d_embedding():
    want = (
        b"ply\n"
        b"format ascii 1.0\n"
        b"element vertex 4\n"
        b"property int x\n"
        b"property int y\n"
        b"property int z\n"
        b"end_header\n"
        b"-1 0 0\n"
        b"0 -1 0\n"
        b"0 1 0\n"
        b"1 0 0\n"
    )
    assert vio.emit_ply(circle.circle_pixels(1)) == want


def test_ply_vertex_count_matches_rows():
    vox = sphere.completed_sphere_voxels(3)
    text = vio.emit_ply(vox)
    head, _, body = text.partition(b"end_header\n")
    assert f"element vertex {vox.shape[0]}\n".encode() in head
    assert body.count(b"\n") == vox.shape[0]


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
    vio.write_text(b"0 0\n1 1\n", str(out))
    assert out.read_bytes() == b"0 0\n1 1\n"
    assert not list(tmp_path.glob(".voxsphere-*"))


def test_write_text_stdout(capsys):
    vio.write_text(b"0 0\n", None)
    assert capsys.readouterr().out == "0 0\n"


def test_write_text_str_and_bytes(tmp_path, capsys):
    # counts passes str, generate passes bytes; both reach stdout in order
    vio.write_text("r\n", None)
    vio.write_text(b"0 0\n", None)
    vio.write_text("1\n", None)
    assert capsys.readouterr().out == "r\n0 0\n1\n"
    out = tmp_path / "rows.csv"
    vio.write_text("r,total\n0,1\n", str(out))
    assert out.read_bytes() == b"r,total\n0,1\n"

def test_write_text_failure_leaves_no_temp(tmp_path):
    target = tmp_path / "occupied"
    target.mkdir()
    with pytest.raises(OSError):
        vio.write_text(b"1 2\n", str(target))
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


# ------------------------------------------------------------ frozen bytes

FROZEN_RADII = (0, 1, 2, 7, 13)

# sha256 of `generate <shape> -r <r> --format <fmt> --out FILE`, recorded
# before the emitters and canonicalize were vectorised.
FROZEN_SHA256 = {
    ("circle", "canonical-text", 0): "0ccdb5a77ba5bf7687f2565a8ed97dfb9c1af45503c496fb646312239fab5101",
    ("circle", "canonical-text", 1): "6484be69e30fd2ecfe98f14b27a0cfbd1a32c30d803963dc301d0545ce3a80c0",
    ("circle", "canonical-text", 2): "3cafa24feb90020cea30a5c12e9d41e2f9e841ac16d96cf2ab117a00511469aa",
    ("circle", "canonical-text", 7): "511d3496fc053ddfa29c7e6f06e478308f97fd612a6462e8e6e6eca148cbf035",
    ("circle", "canonical-text", 13): "0470c111549d7aa08d1c9016f37622396921f4f5ddbf1e738d21a53a1a2c4550",
    ("circle", "csv", 0): "527a0b2f3c9cb7631af4eb96bea429a98ed57e9c4a278df32c269bb027fcc690",
    ("circle", "csv", 1): "9e095a4997e19e612b6f992f455a60fb5080622de9932e774dac89ff3b019f02",
    ("circle", "csv", 2): "bd5dd8024446efb4a73111825166e67fc820512cb9e3e34656011055d193430a",
    ("circle", "csv", 7): "d4dcced7831658e70c0bb544f3916704dfdbbf21a93519599a8665ff10d335b5",
    ("circle", "csv", 13): "6f8acfea3e6acc88965b1d5a1ae16c140c3c64f7138a2bb4d95040b1de62c5d0",
    ("circle", "ply-ascii", 0): "7675a78af6d9e579225c66bcc8b34f3957ca4bc9de1d33270ca2d590791d9398",
    ("circle", "ply-ascii", 1): "c73f5024757d972c3ab33b3797c940fc3419a9a10ad9f7a6f2d89628ef07c75b",
    ("circle", "ply-ascii", 2): "8a622ee655bf16f6bbc6eada394ecd4a6578a1cb80156a8cf25ace9c362f06dc",
    ("circle", "ply-ascii", 7): "f4cfd75b0f25b335b07fc7fe9374f80a9f473cb91f1a9acdace80d3c21de05e3",
    ("circle", "ply-ascii", 13): "ab88645aba64de131895dccba3194ca313be763093e77f25b1385896c6b1a4f1",
    ("disc", "canonical-text", 0): "0ccdb5a77ba5bf7687f2565a8ed97dfb9c1af45503c496fb646312239fab5101",
    ("disc", "canonical-text", 1): "952fa201797b9b0608db9366c641e98fff2e1de88d794f72a0c1435de435682f",
    ("disc", "canonical-text", 2): "fb2803bb4bb2ca4123a9228e817fcc2476e40c5b4489f60f74049f1b71ee012a",
    ("disc", "canonical-text", 7): "3d6dfadcdf2badeb60d7ab3b18ddeefba3b6849ebc756c43cc1d8083063cbfbb",
    ("disc", "canonical-text", 13): "85abdc28e009e45c5bc9f1cdcae868088fc3dbc90fd12b75dc6e5c50fd78c9d6",
    ("disc", "csv", 0): "527a0b2f3c9cb7631af4eb96bea429a98ed57e9c4a278df32c269bb027fcc690",
    ("disc", "csv", 1): "67b405f31e2d97f263b3004b47ca157048e09859236151381b2a740f1054889b",
    ("disc", "csv", 2): "55d720a1ee9db1824bd1163233ce111b0025c0356921e4430798b3040a4638b4",
    ("disc", "csv", 7): "7c1f5e1df8218f2ba29bdee905e3573fef04bd0611c9869f1a06f8aa37893d00",
    ("disc", "csv", 13): "fec769ff98d0becc70d448bea466ab36e10849ae977a094a91f7bdedecbc0440",
    ("disc", "ply-ascii", 0): "7675a78af6d9e579225c66bcc8b34f3957ca4bc9de1d33270ca2d590791d9398",
    ("disc", "ply-ascii", 1): "bc18f4493fa1ba6f07624c4b0aca57d0cf6a479c31c5ea6be2411b5c54974c30",
    ("disc", "ply-ascii", 2): "4df4fc82c38ff9bc65e1a0751d7a286f62e3fd3c9e1f61dda08672548062cbd8",
    ("disc", "ply-ascii", 7): "c72b6c6c8cacb9c1ba14c58524df043d95d17b5a5a2bae5528071bacdb90df27",
    ("disc", "ply-ascii", 13): "c49b23386a99d52d500cfae107cd0f5e40ef5fac540d4c0d464b419392523c51",
    ("disc-absentees", "canonical-text", 0): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("disc-absentees", "canonical-text", 1): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("disc-absentees", "canonical-text", 2): "a1fdfda016663bf81e65c1d86ed48ce921e56f7b281e82bf2a72649db7ebb4fd",
    ("disc-absentees", "canonical-text", 7): "bb5917fd85a99d22f41122c63e0fde4df9a0d74a54fae67c6da8cfcafef1738e",
    ("disc-absentees", "canonical-text", 13): "f9b0779cea75e84d534e717d7f85186a921c4957c39450c9f3e4d19e9e011441",
    ("disc-absentees", "csv", 0): "f84d144d4987746ccefc2ccc4bc59856f26dd130f211d099ef2c89cfe6b4bcc7",
    ("disc-absentees", "csv", 1): "f84d144d4987746ccefc2ccc4bc59856f26dd130f211d099ef2c89cfe6b4bcc7",
    ("disc-absentees", "csv", 2): "8d35cb072f134d429a63b4c6adaa6b5d5969abcb03a975cfabc83d8950ec3bb5",
    ("disc-absentees", "csv", 7): "63b4f4329b103b715e656f94dc09bc76ab513fa51aeb15f4125b8cbb847ab554",
    ("disc-absentees", "csv", 13): "be512b1f20258345ee51a4699582c3960b84a65d0487efa35dc2c8cdba4e24ab",
    ("disc-absentees", "ply-ascii", 0): "ccf993dfcc7e12b066e03dd7bed10b7034dc34987f9bde4a7beb596eec8c1c4d",
    ("disc-absentees", "ply-ascii", 1): "ccf993dfcc7e12b066e03dd7bed10b7034dc34987f9bde4a7beb596eec8c1c4d",
    ("disc-absentees", "ply-ascii", 2): "db163b8b1b00c4b4b048dbe97297f1c4f77f76cf5c658e072ed5b96f1de5d771",
    ("disc-absentees", "ply-ascii", 7): "5ad2f5f01137f60eda154e56e476c70e1ce8ee9f57bbf0a7555995ce93f0ed94",
    ("disc-absentees", "ply-ascii", 13): "ffc199c9cd30ae1f7be14bba14e947fb9366240f7d7c275dd17615d66081aa4b",
    ("solid", "canonical-text", 0): "a17138988e1387532b5cb0bd7a23f18a11d537123873e67154dada3c6359e53e",
    ("solid", "canonical-text", 1): "57ea38b8bbd8a5126c3732e274c3c4fd41929893500803dcbb042df5af35f291",
    ("solid", "canonical-text", 2): "1ce95f25af6fd9f3e42605649af34829d93abf628640f91caf2200119cb294a2",
    ("solid", "canonical-text", 7): "b37aebb0483e2cde3aae17103e4099d1c92b9c2c07cf553e733bdc4a7f5a908f",
    ("solid", "canonical-text", 13): "62c5d33616a20fb382bc82063b0d9552a5a121780b5b6b0f1693946aaeea11c4",
    ("solid", "csv", 0): "3e73d70be7f169500d303c7140d1692584aee098bf3032091348344c2fb49b90",
    ("solid", "csv", 1): "e2635ead1d6ef6e3b6404a59b4590b1dbc0b75b325c56c0e68402171c59cb6b0",
    ("solid", "csv", 2): "6e973fc5a60922acc33124fe1f833cb4482522a31e7424f0c016444df29812ae",
    ("solid", "csv", 7): "929cc6926c77e3aeab432b869bf6f470d2949afc3e2f3bdac4c08720ce0dfe59",
    ("solid", "csv", 13): "0b28664ffdad884adf0c84159fd22501c038e77b11d5489c055058b966c5d8df",
    ("solid", "ply-ascii", 0): "7675a78af6d9e579225c66bcc8b34f3957ca4bc9de1d33270ca2d590791d9398",
    ("solid", "ply-ascii", 1): "7fdc0d840cfb9b27cb69282d96af074d20b205046c6633607495aa5012cc7b3e",
    ("solid", "ply-ascii", 2): "b7c545ded050f24204c965d525e75a97b26b9bff6e62e073d1b1d9372984f1e2",
    ("solid", "ply-ascii", 7): "f3184408ff1e1696ac246a3d4f0b25a0f4746fb06a1a14435df9307fced61934",
    ("solid", "ply-ascii", 13): "76c33efda68463228a20c4d6b859446675dc8b0559633e629c60bf0162ca0182",
    ("solid-absentees", "canonical-text", 0): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("solid-absentees", "canonical-text", 1): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("solid-absentees", "canonical-text", 2): "445ffeeb0a1e02533b4cc6069d0d7b1df60cc6062a755cab300e32f082f15d26",
    ("solid-absentees", "canonical-text", 7): "45e0b8eeb03bc4fecfd2c575038bd17e93dd9461d98f9cca68bc703a5b22c2f7",
    ("solid-absentees", "canonical-text", 13): "bb5812fa2ac4423956be0ce0f362d52ebb0579e82e526d45f2a2814afbc0161d",
    ("solid-absentees", "csv", 0): "e54db9dad2581c20452239482ad62488114066c7f84e98339bf185fb18318505",
    ("solid-absentees", "csv", 1): "e54db9dad2581c20452239482ad62488114066c7f84e98339bf185fb18318505",
    ("solid-absentees", "csv", 2): "0ca5e8df83606dae41f8f206309027e26be040d5940852afab2f9e1d084e6ddf",
    ("solid-absentees", "csv", 7): "d2a161fba9277fdf866b3e3522aac3d2e0d94a0b13088bc1b976eeb9ae639c7f",
    ("solid-absentees", "csv", 13): "4c4fe9593db5cb354d4baf6e640252e03671377cbc450e3fcf81912c2a0c7454",
    ("solid-absentees", "ply-ascii", 0): "ccf993dfcc7e12b066e03dd7bed10b7034dc34987f9bde4a7beb596eec8c1c4d",
    ("solid-absentees", "ply-ascii", 1): "ccf993dfcc7e12b066e03dd7bed10b7034dc34987f9bde4a7beb596eec8c1c4d",
    ("solid-absentees", "ply-ascii", 2): "0d410560cd97b4b7c1750d64a167e895f53b907d3d6877a280549b639cf19dba",
    ("solid-absentees", "ply-ascii", 7): "86a07a830e5daa11a6363bb291b0710f34f698cea5dacaa22447957884a5c892",
    ("solid-absentees", "ply-ascii", 13): "0470212abaa951cfff2797947ac60e8e5ce3f33d692c9232d937bf1f7fedc47d",
    ("solid-complete", "canonical-text", 0): "a17138988e1387532b5cb0bd7a23f18a11d537123873e67154dada3c6359e53e",
    ("solid-complete", "canonical-text", 1): "57ea38b8bbd8a5126c3732e274c3c4fd41929893500803dcbb042df5af35f291",
    ("solid-complete", "canonical-text", 2): "3e6058f4bc7b1fa1dcf8805f39bd0a2d95d712ef024d30b20285a3e392650150",
    ("solid-complete", "canonical-text", 7): "eb964bd0a24c6b5f83b886a26fd0b6919447ba70d6c0e03377a707221d6d5b8e",
    ("solid-complete", "canonical-text", 13): "ab55651936f190dfa633e3771520963c4716d323cc9f800aaaf4f429b0c41478",
    ("solid-complete", "csv", 0): "3e73d70be7f169500d303c7140d1692584aee098bf3032091348344c2fb49b90",
    ("solid-complete", "csv", 1): "e2635ead1d6ef6e3b6404a59b4590b1dbc0b75b325c56c0e68402171c59cb6b0",
    ("solid-complete", "csv", 2): "055167289ce02d7df1248434633a991a21c6beff2f8c58118dedada3b656a82f",
    ("solid-complete", "csv", 7): "87f10a089901fac9f51ea7f68b6044ad8e311b942fa2e0eaafd3435d114c7966",
    ("solid-complete", "csv", 13): "553382064c7d3ce7e13ad23db689fe9f47693426bd6acdb2a0967062e8eeaec5",
    ("solid-complete", "ply-ascii", 0): "7675a78af6d9e579225c66bcc8b34f3957ca4bc9de1d33270ca2d590791d9398",
    ("solid-complete", "ply-ascii", 1): "7fdc0d840cfb9b27cb69282d96af074d20b205046c6633607495aa5012cc7b3e",
    ("solid-complete", "ply-ascii", 2): "b2be8bce2e2b7fa2e505e6807e05a7660f891b9039e6c3eab64a12455c166770",
    ("solid-complete", "ply-ascii", 7): "2e98d82511db2fd971b91127679efd1fab4045ee8e7984f9f65ced8ff93d1c65",
    ("solid-complete", "ply-ascii", 13): "e97c9f6f09ef003ccebac94907317e7f9fb85e6bcba17cc7625eadd16265f60c",
    ("sphere", "canonical-text", 0): "a17138988e1387532b5cb0bd7a23f18a11d537123873e67154dada3c6359e53e",
    ("sphere", "canonical-text", 1): "8d5bdf3bfe036df24d3e1a77b8cc652e199fea22b6d690ca50e9d97989ebd950",
    ("sphere", "canonical-text", 2): "2c899ecbdf213107dd3a49c273be455191bbaf586c5e72386bfa59b81bd1d79e",
    ("sphere", "canonical-text", 7): "23fed3ea19493d6dd22337bd2eceaf8941107bca244499dbe71744df379fc7f1",
    ("sphere", "canonical-text", 13): "c94e3aa74461d3c32c578cbd85a03394277779371987e6f008bbaf0313ccd44a",
    ("sphere", "csv", 0): "3e73d70be7f169500d303c7140d1692584aee098bf3032091348344c2fb49b90",
    ("sphere", "csv", 1): "a800228d4a47406c763367fb94a193dbc062fd44b21233fb448fb045325d417e",
    ("sphere", "csv", 2): "584a59f853110eed4a9adee0ee2a2609d8aefc4ee43a714f931bdf20a1956ab8",
    ("sphere", "csv", 7): "28867cb65dd37a3cc6f0bc3547b61779a99393c1458de39974c1cd40901734d1",
    ("sphere", "csv", 13): "4bcc076ae1d3859d91521511fa2535477840f85c64e9dfb8da40bb8510852782",
    ("sphere", "ply-ascii", 0): "7675a78af6d9e579225c66bcc8b34f3957ca4bc9de1d33270ca2d590791d9398",
    ("sphere", "ply-ascii", 1): "7ca5370bcd8ccfc92c1c8735219b1a3ab5b2bccef29b5937a7c7b7db4e43650e",
    ("sphere", "ply-ascii", 2): "90cc76fdf5ac2de55f64c75a11074515ab4b7163a6e5a7be9c555f1c27b9098f",
    ("sphere", "ply-ascii", 7): "8988502ca3c40a74356b04e14f8e52c61faf51f09201fcb58db9503d70d5fa3c",
    ("sphere", "ply-ascii", 13): "d738fbca75113ab27566a0c1b4fb710860e6b286797876e6c33160a2dd9769bb",
    ("sphere-absentees", "canonical-text", 0): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("sphere-absentees", "canonical-text", 1): "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("sphere-absentees", "canonical-text", 2): "27d230f654b67d3ee2e5e9366652432f14935f94c3a5eb5eeb792278e803293d",
    ("sphere-absentees", "canonical-text", 7): "00bed071d69587312761bb17bba512936dbdfc27bcf3b3f658bb1fc61ce04a63",
    ("sphere-absentees", "canonical-text", 13): "59f767503bb554e16cc09db82cedc19eec5d8ef3a758d445a4a9745929f9cac6",
    ("sphere-absentees", "csv", 0): "e54db9dad2581c20452239482ad62488114066c7f84e98339bf185fb18318505",
    ("sphere-absentees", "csv", 1): "e54db9dad2581c20452239482ad62488114066c7f84e98339bf185fb18318505",
    ("sphere-absentees", "csv", 2): "72736fb8381ac53685c3b5656f386c95ed263030b689a99435f7470a037cdc66",
    ("sphere-absentees", "csv", 7): "9eba7a442a7b0a6be6d3926f559d64e9ad45b6b5b0f707930cc9457a377cf053",
    ("sphere-absentees", "csv", 13): "63741b6068c6563bd71c08615f33d246abcc9da185824a447a64f294f74164b7",
    ("sphere-absentees", "ply-ascii", 0): "ccf993dfcc7e12b066e03dd7bed10b7034dc34987f9bde4a7beb596eec8c1c4d",
    ("sphere-absentees", "ply-ascii", 1): "ccf993dfcc7e12b066e03dd7bed10b7034dc34987f9bde4a7beb596eec8c1c4d",
    ("sphere-absentees", "ply-ascii", 2): "28e83b09e0aea93aa95bb6af89d80bbd80e6e286968dc30c384dd4e958de7bab",
    ("sphere-absentees", "ply-ascii", 7): "b67bcb34f91e538f70431ac70673e605e42f4a6ec618273b6159394f8d15195d",
    ("sphere-absentees", "ply-ascii", 13): "574dceaf9639904110d715ef2b550be502203bed2df37cfec0a104224e37e15d",
    ("sphere-complete", "canonical-text", 0): "a17138988e1387532b5cb0bd7a23f18a11d537123873e67154dada3c6359e53e",
    ("sphere-complete", "canonical-text", 1): "8d5bdf3bfe036df24d3e1a77b8cc652e199fea22b6d690ca50e9d97989ebd950",
    ("sphere-complete", "canonical-text", 2): "9a374e0757e88f5f1da687f4b6269fa0b507545dddf0a032058433eb6562ad58",
    ("sphere-complete", "canonical-text", 7): "6f8ca707d343051a425cf5d3110edcf173b537b2455e99678e492dd66ba0ca34",
    ("sphere-complete", "canonical-text", 13): "11dd0f36e706d9a1f05bb9039a4cfe5c28564bc08cd1acdcbc72107fda7e71a9",
    ("sphere-complete", "csv", 0): "3e73d70be7f169500d303c7140d1692584aee098bf3032091348344c2fb49b90",
    ("sphere-complete", "csv", 1): "a800228d4a47406c763367fb94a193dbc062fd44b21233fb448fb045325d417e",
    ("sphere-complete", "csv", 2): "ac2b0702c82773fc270fb74963b5ce5f80c229542f69c597cccca9d3046f1610",
    ("sphere-complete", "csv", 7): "2686da48e92158d858573a99ebd749b554fe8c37ffa661850ccddc59bc593bfb",
    ("sphere-complete", "csv", 13): "95fb1c9072f60bdb30a6cfc2433eaaa5dc76ba54566330763a2fdc0ac983038f",
    ("sphere-complete", "ply-ascii", 0): "7675a78af6d9e579225c66bcc8b34f3957ca4bc9de1d33270ca2d590791d9398",
    ("sphere-complete", "ply-ascii", 1): "7ca5370bcd8ccfc92c1c8735219b1a3ab5b2bccef29b5937a7c7b7db4e43650e",
    ("sphere-complete", "ply-ascii", 2): "ea7519e086d590e723093d629c728dc47747cac6e9d4c90454643fae5ba588a5",
    ("sphere-complete", "ply-ascii", 7): "7f5872916407f33f31d979c37d507c490ce34de31678cea08c2d1133be8125f3",
    ("sphere-complete", "ply-ascii", 13): "cad8a0f6fa9665c7b44dd374f38bb8f20eea55fbe14a3e55f099d28d33377236",
}


@pytest.mark.parametrize("shape, fmt, r", sorted(FROZEN_SHA256))
def test_generate_bytes_frozen(tmp_path, shape, fmt, r):
    out = tmp_path / "out"
    assert cli.main(["generate", shape, "-r", str(r), "--format", fmt,
                     "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        FROZEN_SHA256[shape, fmt, r]


def test_frozen_table_covers_every_shape_and_format():
    assert set(FROZEN_SHA256) == {(s, f, r) for s in cli.GENERATORS
                                  for f in vio.FORMATS for r in FROZEN_RADII}


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
    """The cap is the radius whose build the --runslow tally test times."""
    assert cli._parse_radii("100000") == [100_000]
    assert cli._parse_radii("99999..100000") == [99_999, 100_000]
    for spec in ("100001", "1000001"):
        rc, out, err = run_cli(capsys, "counts", "--kind", "solid",
                               "--radii", spec)
        assert rc == 2 and out == ""
        assert err == "error: counts support radii up to 100000\n"
    rc, out, _ = run_cli(capsys, "counts", "--kind", "sphere",
                         "--radii", "10000")
    assert rc == 0
    assert out.splitlines()[1] == "10000,1009962778,62633152,1072595930,0.058394"


@pytest.mark.parametrize("spec", ["0..3000000", f"0..{10**15}"])
def test_counts_cap_checked_before_expanding(capsys, spec):
    """A range past the cap is refused before it becomes a list of radii."""
    tracemalloc.start()
    try:
        rc, _, err = run_cli(capsys, "counts", "--kind", "sphere",
                             "--radii", spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 2
    assert err.endswith("up to 100000\n")
    assert peak < 1_000_000


@pytest.mark.parametrize("argv", [("generate", "circle", "-r", "3"),
                                  ("counts", "--kind", "sphere", "--radii", "10")])
def test_out_into_missing_directory(capsys, monkeypatch, tmp_path, argv):
    """--out in a directory that does not exist is an invalid argument
    (exit 2), refused before any shape or table is built."""
    def no_work(*_):
        raise AssertionError("work started")

    monkeypatch.setitem(cli.GENERATORS, "circle", no_work)
    monkeypatch.setattr(cli.analysis, "sphere_table", no_work)
    (tmp_path / "file").write_text("")
    for out in (tmp_path / "missing" / "out.txt", tmp_path / "file" / "out.txt"):
        rc, stdout, err = run_cli(capsys, *argv, "--out", str(out))
        assert rc == 2 and stdout == ""
        assert err == f"error: no such directory for --out: {out}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


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
