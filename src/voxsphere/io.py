"""Serialization of pixel and voxel sets.

Three formats, all ASCII and byte-deterministic for a given set:

* ``canonical-text`` -- one point per line, decimal coordinates separated by
  single spaces, LF endings, lexicographically sorted, no trailing
  whitespace.  Two columns for pixel sets, three for voxel sets.
* ``csv`` -- same rows with a header (``i,j`` or ``i,j,k``) and commas.
* ``ply-ascii`` -- standard ASCII PLY point cloud with integer x/y/z vertex
  properties; pixel sets are embedded at z = 0 since PLY has no 2D form.

``stream`` yields an export as bytes chunks, from an iterable of point
blocks that it reads one block at a time, and checks their rows against an
exact count in every format through ``counted``, the one count check,
which the array builders read too (circle._joined); ``emit`` joins the
chunks of one array.  Rows are converted from int64 with numpy in
fixed-size chunks; no Python object is made per row.  One pass per chunk
counts each field's digits, by comparing its magnitude with the powers of
ten up to the chunk's largest, writes the digits (in 32-bit arithmetic
when every magnitude is below 10^9) and keeps each field's own columns
through a mask looked up by digit count.

Canonical blocks whose first coordinates fill disjoint, ascending ranges
concatenate to a canonical array: every row of a block has a smaller first
coordinate than any row of a later block, so rows of distinct blocks are in
order and never equal.  So the builders yield such x-blocks, each sorted on
its own, and ``generate`` writes each block's chunks as it comes, holding
neither the whole array nor its text.  File writes, of a string, of bytes
or of such a chunk stream, go through a temporary file in the destination
directory and an atomic rename, so a failed export never leaves a partial
file behind and never touches an existing one.
"""

from __future__ import annotations

import itertools
import os
import sys
import tempfile
from typing import Iterable, Iterator

import numpy as np

from .lattice import INT

FORMATS = ("canonical-text", "csv", "ply-ascii")


class CountMismatch(ValueError):
    """Rows, of an export or of an array builder's x-blocks, that disagree
    with the exact closed count of their shape."""


def _as_points(vox: np.ndarray) -> np.ndarray:
    arr = np.asarray(vox, dtype=INT)
    if arr.ndim != 2 or arr.shape[1] not in (2, 3):
        raise ValueError("expected an (N, 2) or (N, 3) array")
    return arr


# Rows converted per step of _ascii_rows, which bounds its temporaries; also
# the row target of every builder's x-blocks, runs of whole columns cut by
# kernels._blocks, and the pixels of each column run that circle._plane
# classifies at once.
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


def _ascii_rows(pts: np.ndarray, sep: str) -> Iterator[bytes]:
    """One ASCII line per row of pts, decimal fields joined by sep and each
    line ending in LF, as one bytes chunk per _CHUNK_ROWS rows.

    Each chunk lays its fields out in a (rows, k, 1 + digits + 1) grid -- a
    '-' column, the digits right-aligned, then sep or LF -- and a mask, one
    table row per digit count, keeps the sign of negative fields, each
    field's own digits and the closing column.
    """
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
        yield grid[keep].tobytes()


def _head(fmt: str, width: int, count: int) -> str:
    if fmt == "csv":
        return "i,j\n" if width == 2 else "i,j,k\n"
    if fmt != "ply-ascii":
        return ""
    return ("ply\n"
            "format ascii 1.0\n"
            f"element vertex {count}\n"
            "property int x\n"
            "property int y\n"
            "property int z\n"
            "end_header\n")


def stream(blocks: Iterable[np.ndarray], fmt: str, count: int) -> Iterator[bytes]:
    """The export of the concatenation of blocks, as byte chunks: the header,
    then every block's rows, _CHUNK_ROWS at a time.

    blocks holds at least one array, all of one width, and is read one block
    at a time, so the chunks can go to a file while later blocks are still
    unbuilt.  count is the total number of rows, known up front: the PLY
    header declares it, and in every format the blocks are read through
    counted, so a block that would take the rows past it is refused before
    any of its rows is written, and a short total raises after the last.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown format {fmt!r}; choose from {FORMATS}")
    return _stream(counted(blocks, count), fmt, count)


def _stream(blocks: Iterator[np.ndarray], fmt: str, count: int) -> Iterator[bytes]:
    first = _as_points(next(blocks))
    width = first.shape[1]
    yield _head(fmt, width, count).encode("ascii")
    sep = "," if fmt == "csv" else " "
    for pts in itertools.chain([first], blocks):
        pts = _as_points(pts)
        if pts.shape[1] != width:
            raise ValueError("blocks of different widths")
        if fmt == "ply-ascii" and width == 2:  # pixels at z = 0
            pts = np.hstack([pts, np.zeros((len(pts), 1), dtype=INT)])
        yield from _ascii_rows(pts, sep)


def counted(blocks: Iterable[np.ndarray], count: int) -> Iterator[np.ndarray]:
    """The blocks, checked against their exact count of rows: a block that
    would take the rows past count raises CountMismatch before it is
    yielded, and rows short of count raise it after the last block."""
    rows = 0
    for block in blocks:
        rows += len(block)
        if rows > count:
            raise CountMismatch(f"the blocks hold at least {rows} rows against an exact "
                                f"count of {count}")
        yield block
    if rows != count:
        raise CountMismatch(f"the blocks hold {rows} rows against an exact count of {count}")


def emit(vox: np.ndarray, fmt: str) -> bytes:
    pts = _as_points(vox)
    return b"".join(stream([pts], fmt, len(pts)))


def write_text(text: str | bytes | Iterable[bytes], out: str | None) -> None:
    """Write to a path atomically (temp file + rename), or to stdout when
    out is None.  text is a str, bytes, or an iterable of bytes chunks
    (stream), each written as it comes; bytes go out as they are, in binary
    mode.  Should the iterable raise, the temp file is removed and out, if
    it exists, keeps its old content."""
    if isinstance(text, str):
        if out is None:
            sys.stdout.write(text)
            return
        text = text.encode()
    chunks = [text] if isinstance(text, bytes) else text
    if out is None:
        sys.stdout.flush()  # keep earlier str output ahead of these bytes
        for chunk in chunks:
            sys.stdout.buffer.write(chunk)
        return
    directory = os.path.dirname(os.path.abspath(out))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".voxsphere-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, out)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
