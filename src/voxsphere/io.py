"""Serialization of pixel and voxel sets.

Three formats, all ASCII and byte-deterministic for a given set:

* ``canonical-text`` -- one point per line, decimal coordinates separated by
  single spaces, LF endings, lexicographically sorted, no trailing
  whitespace.  Two columns for pixel sets, three for voxel sets.
* ``csv`` -- same rows with a header (``i,j`` or ``i,j,k``) and commas.
* ``ply-ascii`` -- standard ASCII PLY point cloud with integer x/y/z vertex
  properties; pixel sets are embedded at z = 0 since PLY has no 2D form.

The emitters return ``bytes``, converted from the int64 array with numpy in
fixed-size row chunks; no Python object is made per row.  One pass per
chunk counts each field's digits, by comparing its magnitude with the powers
of ten up to the chunk's largest, writes the digits (in 32-bit arithmetic
when every magnitude is below 10^9) and keeps each field's own columns
through a mask looked up by digit count; the chunks' bytes are joined.
File writes go through a temporary file in the destination directory and an
atomic rename, so a failed export never leaves a partial file behind.
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


def _fields(block: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(magnitude, negative mask, digit count) of every int64 in block.

    Magnitudes are the uint64 view of abs(block): abs wraps INT64_MIN to
    itself, whose bits read as uint64 are 2^63, the exact magnitude.  A
    magnitude has one digit plus one for each power of ten 10, 100, ... at
    or below it; only the powers up to the block's largest magnitude are
    compared, and none beyond 10^19 > 2^63 is needed.
    """
    neg = block < 0
    mag = np.abs(block).view(np.uint64)
    ndig = np.ones(block.shape, dtype=np.int8)
    top = int(mag.max())
    p = 10
    while p <= top:
        ndig += mag >= np.uint64(p)
        p *= 10
    return mag, neg, ndig


def _ascii_rows(head: str, pts: np.ndarray, sep: str) -> bytes:
    """head followed by one ASCII line per row of pts: decimal fields joined
    by sep, each line ending in LF.

    Rows are converted _CHUNK_ROWS at a time and the chunks' bytes joined:
    each chunk lays its fields out in a (rows, k, 1 + digits + 1) grid -- a
    '-' column, the digits right-aligned, then sep or LF -- and a mask, one
    table row per digit count, keeps the sign of negative fields, each
    field's own digits and the closing column.
    """
    parts = [head.encode("ascii")]
    for lo in range(0, len(pts), _CHUNK_ROWS):
        mag, neg, ndig = _fields(pts[lo:lo + _CHUNK_ROWS])
        w = int(ndig.max()) + 1
        if w <= 10:  # every magnitude below 10^9: 32-bit division is faster
            mag = mag.astype(np.uint32)
        grid = np.empty(ndig.shape + (w + 1,), dtype=np.uint8)
        grid[:, :, 0] = ord("-")
        for col in range(w - 1, 0, -1):
            grid[:, :, col] = mag % 10 + ord("0")
            mag //= 10
        grid[:, :-1, w] = ord(sep)
        grid[:, -1, w] = ord("\n")
        # row d of the table: the columns a field of d digits keeps
        keep = np.take(np.arange(w + 1) >= w - np.arange(w)[:, None], ndig, axis=0)
        keep[:, :, 0] = neg
        parts.append(grid[keep].tobytes())
    return b"".join(parts)


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
