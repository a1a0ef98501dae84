"""canonicalize and the three emitters against the reference implementations
in _oracles: numpy's row-wise unique, and one Python string per row.

Inputs range from small coordinate boxes, where most rows repeat, to the
whole int64 range with its two ends, and span more than one emitter chunk.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import ORACLE_EMITTERS, oracle_canonicalize
from voxsphere import io as vio
from voxsphere.lattice import INT, canonicalize

INT64_MIN, INT64_MAX = -2**63, 2**63 - 1

small = st.integers(-3, 3)
full = (st.integers(INT64_MIN, INT64_MAX)
        | st.sampled_from([INT64_MIN, INT64_MIN + 1, -10, -9, -1, 0, 1, 9,
                           10, INT64_MAX - 1, INT64_MAX]))


@st.composite
def point_arrays(draw):
    k = draw(st.sampled_from([2, 3]))
    coord = draw(st.sampled_from([small, full]))
    rows = draw(st.lists(st.tuples(*[coord] * k), max_size=400))
    return np.array(rows, dtype=INT).reshape(-1, k)


@settings(max_examples=200, deadline=None)
@given(point_arrays())
def test_canonicalize_matches_unique(pts):
    before = pts.copy()
    got = canonicalize(pts)
    want = oracle_canonicalize(pts)
    assert got.dtype == INT and got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(pts, before)


@settings(max_examples=200, deadline=None)
@given(point_arrays(), st.sampled_from(vio.FORMATS),
       st.sampled_from([1, 2, 7, 64]))
def test_emit_matches_per_row_oracle(pts, fmt, chunk):
    want = ORACLE_EMITTERS[fmt](pts).encode()
    with mock.patch.object(vio, "_CHUNK_ROWS", chunk):
        assert vio.emit(pts, fmt) == want


@pytest.mark.parametrize("fmt", vio.FORMATS)
@pytest.mark.parametrize("k", [2, 3])
def test_emit_across_real_chunk_boundaries(fmt, k):
    rng = np.random.default_rng(k)
    n = 2 * vio._CHUNK_ROWS + 5
    pts = rng.integers(INT64_MIN, INT64_MAX, size=(n, k), dtype=INT,
                       endpoint=True)
    pts[::1000] = rng.integers(-20, 20, size=pts[::1000].shape)
    pts[vio._CHUNK_ROWS - 1] = INT64_MIN
    pts[vio._CHUNK_ROWS] = INT64_MAX
    out = vio.emit(pts, fmt)
    assert out == ORACLE_EMITTERS[fmt](pts).encode()
    assert isinstance(out, bytes)


def test_canonicalize_rejects_non_2d():
    with pytest.raises(ValueError):
        canonicalize(np.arange(4, dtype=INT))
