"""Serialization of pixel and voxel sets.

Three formats, all ASCII and byte-deterministic for a given set:

* ``canonical-text`` -- one point per line, decimal coordinates separated by
  single spaces, LF endings, lexicographically sorted, no trailing
  whitespace.  Two columns for pixel sets, three for voxel sets.
* ``csv`` -- same rows with a header (``i,j`` or ``i,j,k``) and commas.
* ``ply-ascii`` -- standard ASCII PLY point cloud with integer x/y/z vertex
  properties; pixel sets are embedded at z = 0 since PLY has no 2D form.

The emitters return ``bytes``, converted from the int64 array with numpy in
fixed-size row chunks; no Python object is made per row.  File writes go
through a temporary file in the destination directory and an atomic rename,
so a failed export never leaves a partial file behind.
"""

from __future__ import annotations

import os
import sys
import tempfile

import numpy as np

from .lattice import INT, canonicalize

FORMATS = ("canonical-text", "csv", "ply-ascii")


def _as_points(vox: np.ndarray) -> np.ndarray:
    arr = np.asarray(vox, dtype=INT)
    if arr.ndim != 2 or arr.shape[1] not in (2, 3):
        raise ValueError("expected an (N, 2) or (N, 3) array")
    return arr


# Rows converted per step of _ascii_rows; bounds its temporaries.
_CHUNK_ROWS = 1 << 15
# 10, 100, ..., 10^19: a magnitude u has searchsorted(_POW10, u, "right") + 1
# decimal digits.
_POW10 = 10 ** np.arange(1, 20, dtype=np.uint64)


def _fields(block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(magnitude, negative mask, digit count) of every int64 in block.

    Magnitudes are uint64, so -INT64_MIN = 2^63 is exact.
    """
    neg = block < 0
    mag = block.astype(np.uint64)
    np.negative(mag, out=mag, where=neg)
    return mag, neg, np.searchsorted(_POW10, mag, side="right") + 1


def _ascii_rows(head: str, pts: np.ndarray, sep: str) -> bytes:
    """head followed by one ASCII line per row of pts: decimal fields joined
    by sep, each line ending in LF.

    The bytes go into one preallocated uint8 buffer.  Rows are converted
    _CHUNK_ROWS at a time: each chunk lays its fields out in a
    (rows, k, 1 + digits + 1) grid -- a '-' column, the digits right-aligned,
    then sep or LF -- and a mask keeps the sign of negative fields, each
    field's own digits and the closing column.
    """
    n, k = pts.shape
    chunks = range(0, n, _CHUNK_ROWS)
    size = len(head) + n * k  # one separator or LF per field
    for lo in chunks:
        _, neg, ndig = _fields(pts[lo:lo + _CHUNK_ROWS])
        size += int(ndig.sum()) + int(neg.sum())
    buf = np.empty(size, dtype=np.uint8)
    buf[:len(head)] = np.frombuffer(head.encode("ascii"), dtype=np.uint8)
    pos = len(head)
    for lo in chunks:
        mag, neg, ndig = _fields(pts[lo:lo + _CHUNK_ROWS])
        w = int(ndig.max()) + 1
        grid = np.empty(ndig.shape + (w + 1,), dtype=np.uint8)
        grid[:, :, 0] = ord("-")
        for col in range(w - 1, 0, -1):
            grid[:, :, col] = mag % 10 + ord("0")
            mag //= 10
        grid[:, :-1, w] = ord(sep)
        grid[:, -1, w] = ord("\n")
        keep = np.arange(w + 1) >= (w - ndig)[:, :, None]
        keep[:, :, 0] = neg
        text = grid[keep]
        buf[pos:pos + len(text)] = text
        pos += len(text)
    return buf.tobytes()


def emit_canonical_text(vox: np.ndarray) -> bytes:
    return _ascii_rows("", _as_points(vox), " ")


def emit_csv(vox: np.ndarray) -> bytes:
    pts = _as_points(vox)
    header = "i,j" if pts.shape[1] == 2 else "i,j,k"
    return _ascii_rows(header + "\n", pts, ",")


def emit_ply(vox: np.ndarray) -> bytes:
    pts = _as_points(vox)
    if pts.shape[1] == 2:
        z = np.zeros((pts.shape[0], 1), dtype=INT)
        pts = np.hstack([pts, z])
    head = (
        "ply\n"
        "format ascii 1.0\n"
        f"element vertex {pts.shape[0]}\n"
        "property int x\n"
        "property int y\n"
        "property int z\n"
        "end_header\n"
    )
    return _ascii_rows(head, pts, " ")


_EMITTERS = {
    "canonical-text": emit_canonical_text,
    "csv": emit_csv,
    "ply-ascii": emit_ply,
}


def emit(vox: np.ndarray, fmt: str) -> bytes:
    try:
        emitter = _EMITTERS[fmt]
    except KeyError:
        raise ValueError(f"unknown format {fmt!r}; choose from {FORMATS}")
    return emitter(vox)


def parse_canonical_text(text: str | bytes) -> np.ndarray:
    """Inverse of emit_canonical_text; accepts 2- or 3-column input and
    re-canonicalizes, so parse(emit(S)) == S for canonical S."""
    rows = []
    width = None
    for ln, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split()
        if width is None:
            width = len(parts)
            if width not in (2, 3):
                raise ValueError(f"line {ln}: expected 2 or 3 columns")
        if len(parts) != width:
            raise ValueError(f"line {ln}: expected {width} columns")
        rows.append([int(p) for p in parts])
    if not rows:
        return np.zeros((0, 3), dtype=INT)
    return canonicalize(np.array(rows, dtype=INT))


def write_text(text: str | bytes, out: str | None) -> None:
    """Write to a path atomically (temp file + rename), or to stdout when
    out is None.  bytes are written as they are, in binary mode."""
    if out is None:
        if isinstance(text, str):
            sys.stdout.write(text)
        else:
            sys.stdout.flush()  # keep earlier str output ahead of these bytes
            sys.stdout.buffer.write(text)
        return
    if isinstance(text, str):
        text = text.encode()
    directory = os.path.dirname(os.path.abspath(out))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".voxsphere-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(text)
        os.replace(tmp, out)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
