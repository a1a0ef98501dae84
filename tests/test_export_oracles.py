"""canonicalize and the three emitters against the reference implementations
in _oracles: numpy's row-wise unique, and one Python string per row.

Inputs range from small coordinate boxes, where most rows repeat, to the
whole int64 range with its two ends, and span more than one emitter chunk.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _oracles import ORACLE_EMITTERS, oracle_canonicalize
from voxsphere import io as vio
from voxsphere.lattice import INT, canonicalize

INT64_MIN, INT64_MAX = -2**63, 2**63 - 1

small = st.integers(-3, 3)
# every power-of-ten edge of the digit count, on both signs
DIGIT_EDGES = [s * v for p in range(1, 19) for v in (10**p - 1, 10**p)
               for s in (1, -1)]
full = (st.integers(INT64_MIN, INT64_MAX)
        | st.sampled_from([INT64_MIN, INT64_MIN + 1, -1, 0, 1, INT64_MAX - 1,
                           INT64_MAX] + DIGIT_EDGES))


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


# Column spans (max - min + 1) at the packed-key guard: a product of
# 2^63 - 1 = 7^2 * 73 * 127 * 337 * 92737 * 649657 still packs, 2^63 does
# not, and a column over the whole int64 range overflows on its own.
GUARD_SPANS = {
    "packed": {2: [7, (2**63 - 1) // 7], 3: [7, 7, (2**63 - 1) // 49]},
    "fallback": {2: [2, 2**62], 3: [2, 2, 2**61]},
    "full-column": {2: [2**64, 3], 3: [5, 2**64, 3]},
}


@pytest.mark.parametrize("k", [2, 3])
@pytest.mark.parametrize("case", sorted(GUARD_SPANS))
def test_canonicalize_at_the_packed_key_guard(case, k):
    spans = GUARD_SPANS[case][k]
    rng = np.random.default_rng([k, len(case)])
    cols = []
    for span in spans:
        lo = max(INT64_MIN, -(span // 2))
        hi = lo + span - 1
        col = rng.integers(lo, hi, size=300, dtype=INT, endpoint=True)
        col[:2] = lo, hi  # both ends present: the spans are exact
        cols.append(col)
    pts = np.stack(cols, axis=1)
    pts = np.concatenate([pts, pts[::3], pts[:1]])  # duplicates
    rng.shuffle(pts)
    assert [int(c.max()) - int(c.min()) + 1 for c in pts.T] == spans
    with mock.patch.object(np, "lexsort", wraps=np.lexsort) as lexsort:
        got = canonicalize(pts)
    assert lexsort.call_count == (case != "packed")
    assert np.array_equal(got, oracle_canonicalize(pts))


@settings(max_examples=200, deadline=None)
@given(point_arrays(), st.sampled_from(vio.FORMATS),
       st.sampled_from([1, 2, 7, 64]))
# one row per chunk: every digit width, on both sides of the 32-bit path
@example(np.array([[v, 0] for v in DIGIT_EDGES], dtype=INT), "canonical-text", 1)
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
