"""On-disk formats: 16-bit PGM images, one-column CSV vectors, CSV tables,
and the plain-text sparse-operator format (header `rows cols nnz`, then triples).

The text writers print each value as `%.17g` (indices as `%d`), the same bytes
as formatting value by value.  They work in blocks of `_BLOCK` entries and
format each distinct value of a block once, so no per-entry Python object and
no text of the whole file is ever built.
"""

from __future__ import annotations

import csv
import math
import re
import warnings
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .linops import ImageVector, ShapeError, SparseMatrixOperator

PGM_MAXVAL = 65535
# `P5 width height maxval`, fields separated by whitespace or `#` comment lines
_PGM_HEADER = re.compile(rb"P5" + rb"(?:\s|#[^\n]*\n)+(\d+)" * 3 + rb"\s")
_TRIPLE = np.dtype([("row", np.int64), ("col", np.int64), ("value", np.float64)])
# Entries per written block: a block's tables, indices and text are all a
# writer holds at once, however large the operator.
_BLOCK = 1 << 14
# Values formatted per list.  A few thousand short-lived bytes objects at a
# time reuse the same interpreter memory, where a block's worth would leave
# partly used arenas behind.
_FORMAT_BATCH = 4096


def write_pgm(path, image: ImageVector) -> None:
    """Binary PGM, maxval 65535, row-major big-endian; values clipped to [0, 1]."""
    arr = np.clip(image.as_2d(), 0.0, 1.0)
    quantized = np.round(arr * PGM_MAXVAL).astype(">u2")
    h, w = image.shape
    with open(path, "wb") as fh:
        fh.write(f"P5 {w} {h} {PGM_MAXVAL}\n".encode())
        fh.write(quantized.tobytes())


def read_pgm(path) -> ImageVector:
    with open(path, "rb") as fh:
        blob = fh.read()
    header = _PGM_HEADER.match(blob)
    if header is None:
        raise ValueError(f"{path}: not a binary PGM (P5) header")
    w, h, maxval = (int(t) for t in header.groups())
    if maxval != PGM_MAXVAL:
        raise ValueError(f"{path}: expected maxval {PGM_MAXVAL}, got {maxval}")
    pixels = blob[header.end():]
    if len(pixels) != 2 * w * h:
        raise ValueError(f"{path}: {len(pixels)} pixel bytes for {w}x{h}, expected {2 * w * h}")
    return ImageVector(np.frombuffer(pixels, dtype=">u2") / PGM_MAXVAL, (h, w))


def _text_table(values: np.ndarray, text: bytes) -> np.ndarray:
    """`text % v` for each of `values`, as the rows of a NUL-padded byte table."""
    table = np.concatenate([
        np.array([text % v for v in values[i:i + _FORMAT_BATCH].tolist()], dtype=np.bytes_)
        for i in range(0, values.size, _FORMAT_BATCH)])
    return table.view(np.uint8).reshape(values.size, table.itemsize)


def _write_lines(fh, columns) -> None:
    """For each entry i, write `text % column[i]` of every (column, text) pair,
    one after another.  Float64 columns are keyed by their bits, so -0.0 keeps
    its sign and NaNs with different bits stay apart."""
    for start in range(0, len(columns[0][0]), _BLOCK):
        parts = []
        for column, text in columns:
            block = column[start:start + _BLOCK]
            floats = block.dtype == np.float64
            distinct, inverse = np.unique(block.view(np.uint64) if floats else block,
                                          return_inverse=True)
            table = _text_table(distinct.view(np.float64) if floats else distinct, text)
            parts.append(table[inverse])
        lines = np.concatenate(parts, axis=1).ravel()
        fh.write(lines[lines != 0])  # the text holds no NUL, so only the padding goes


def write_vector_csv(path, vec) -> None:
    """One float per line, printed with enough digits to round-trip exactly."""
    vec = np.ravel(np.asarray(vec, dtype=np.float64))
    with open(path, "wb") as fh:
        _write_lines(fh, [(vec, b"%.17g\n")])


def write_table(path, header, rows) -> None:
    """CSV table under a header line; floats printed as `%.17g`, which
    round-trips exactly, and every other cell as `str`."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([f"{v:.17g}" if isinstance(v, float) else v for v in row]
                         for row in rows)


def read_vector_csv(path) -> np.ndarray:
    """The floats of a one-column file, one per non-blank line.

    Each line is parsed by `float()` (which takes bytes, so no decode step can
    fail); the first line that is not a finite number is named in the error.
    """
    with open(path, "rb") as fh:
        lines = fh.read().split(b"\n")  # the lines a binary file iterates over
    kept = [line for line in lines if line.strip()]
    try:
        values = np.fromiter(map(float, kept), dtype=np.float64, count=len(kept))
    except ValueError:
        values = None
    if values is None or not np.all(np.isfinite(values)):
        for lineno, line in enumerate(lines, 1):
            try:
                bad = line.strip() and not math.isfinite(float(line))
            except ValueError:
                bad = True
            if bad:
                raise ValueError(f"{path}: line {lineno}: expected a finite number, "
                                 f"got {line.strip().decode('latin-1')!r}")
    return values


def write_operator(path, op: SparseMatrixOperator) -> None:
    """The operator's matrix as text triples under a `rows cols nnz` header."""
    mat = op.matrix.tocoo()
    with open(path, "wb") as fh:
        fh.write(b"%d %d %d\n" % (mat.shape[0], mat.shape[1], mat.nnz))
        _write_lines(fh, [(mat.row, b"%d "), (mat.col, b"%d "), (mat.data, b"%.17g\n")])


def read_operator(path, expected_rows: Optional[int] = None,
                  expected_cols: Optional[int] = None) -> SparseMatrixOperator:
    """The operator stored at `path`.  With `expected_rows` (the measurement
    count, say) or `expected_cols` (the pixel count), a header declaring
    another shape is rejected before anything is allocated, so a huge
    declared shape that could be allocated is not."""
    with open(path, "rb") as fh:
        header = fh.readline().split()
        if len(header) != 3 or not all(t.isdigit() for t in header):
            raise ValueError(f"{path}: malformed operator header")
        rows, cols, nnz = (int(t) for t in header)
        if expected_rows is not None and rows != expected_rows:
            raise ShapeError(f"{path}: header declares {rows} rows, expected {expected_rows}")
        if expected_cols is not None and cols != expected_cols:
            raise ShapeError(f"{path}: header declares {cols} columns, expected {expected_cols}")
        try:
            with warnings.catch_warnings():  # an empty triple list is checked below
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                triples = np.loadtxt(fh, dtype=_TRIPLE, comments=None, ndmin=1)
        except ValueError as exc:
            raise ValueError(f"{path}: malformed triple list: {exc}") from None
    if triples.size != nnz:
        raise ValueError(f"{path}: header declares {nnz} triples, found {triples.size}")
    r, c, v = triples["row"], triples["col"], triples["value"]
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{path}: non-finite triple value")
    if nnz and (min(r.min(), c.min()) < 0 or r.max() >= rows or c.max() >= cols):
        raise ShapeError(f"{path}: triple index outside declared shape")
    try:
        return SparseMatrixOperator(sp.coo_matrix((v, (r, c)), shape=(rows, cols)).tocsr())
    except (MemoryError, OverflowError):  # the declared shape, not the triples, is too big
        raise ValueError(f"{path}: cannot allocate the declared {rows}x{cols} operator") from None
