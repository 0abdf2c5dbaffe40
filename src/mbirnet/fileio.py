"""On-disk formats: 16-bit PGM images, one-column CSV vectors, and the
plain-text sparse-operator format (header `rows cols nnz`, then triples)."""

from __future__ import annotations

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


def write_vector_csv(path, vec) -> None:
    """One float per line, printed with enough digits to round-trip exactly."""
    vec = np.ravel(np.asarray(vec, dtype=np.float64))
    with open(path, "w") as fh:
        for v in vec:
            fh.write(f"{v:.17g}\n")


def read_vector_csv(path) -> np.ndarray:
    values = []
    with open(path, "rb") as fh:  # float() parses bytes, so no decode step can fail
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                v = float(line)
            except ValueError:
                v = math.nan  # reported with the non-finite values below
            if not math.isfinite(v):
                raise ValueError(f"{path}: line {lineno}: expected a finite number, "
                                 f"got {line.strip().decode('latin-1')!r}")
            values.append(v)
    return np.array(values, dtype=np.float64)


def write_operator(path, op: SparseMatrixOperator) -> None:
    """The operator's matrix as text triples under a `rows cols nnz` header."""
    mat = op.matrix.tocoo()
    with open(path, "w") as fh:
        fh.write(f"{mat.shape[0]} {mat.shape[1]} {mat.nnz}\n")
        for r, c, v in zip(mat.row, mat.col, mat.data):
            fh.write(f"{r} {c} {v:.17g}\n")


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
