"""On-disk formats: 16-bit PGM images, one-column CSV vectors, CSV tables,
and the plain-text sparse-operator format (header `rows cols nnz`, then triples).

The text writers print each value as `%.17g` (indices as `%d`), the same bytes
as formatting value by value.  They work in blocks of `_BLOCK` entries, so no
per-entry Python object and no text of the whole file is ever built.  A block's
indices are written as digits by numpy arithmetic, with no formatting call at
all.  Its floats are written once per distinct value: a normal double with
1e-10 <= |v| < 1e14 by integer arithmetic (its 17 significant digits are the
exactly rounded product of its 53-bit mantissa and a power of five, shifted);
zeros, subnormals, NaN, infinities and larger or smaller magnitudes by `%`
formatting.
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
# The range of |v| whose `%.17g` text integer arithmetic writes: there every
# decimal exponent k a value can have keeps 5**(16 - k) below 2**64.
_FAST_LO, _FAST_HI = 1e-10, 1e14
_POW5 = 5 ** np.arange(28, dtype=np.uint64)  # exact: 5**27 < 2**63
_LOW32 = (1 << 32) - 1
_IMPLICIT_BIT = 1 << 52  # of a normal double's 53-bit mantissa
# `00` to `99`
_DIGIT_PAIRS = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(),
                             dtype=np.uint8).reshape(100, 2)
_LEAD = np.frombuffer(b"0.000", dtype=np.uint8)[:, None]
_EXPONENT_SIGN = np.frombuffer(b"e-", dtype=np.uint8)[:, None]
_LEAD_ROWS = np.arange(5)[:, None]
_BODY_ROWS = np.arange(18, dtype=np.uint8)[:, None]
_DIGIT_COUNTS = np.arange(1, 18, dtype=np.uint8)[:, None]


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
    """`text % v` for each of `values`, as the rows of a NUL-padded byte table:
    each row's text, then NULs to the table's width."""
    table = np.concatenate([
        np.array([text % v for v in values[i:i + _FORMAT_BATCH].tolist()], dtype=np.bytes_)
        for i in range(0, values.size, _FORMAT_BATCH)])
    return table.view(np.uint8).reshape(values.size, table.itemsize)


def _digit_table(values: np.ndarray, suffix: bytes) -> np.ndarray:
    """`b"%d" + suffix` for each of the non-negative integers `values`, as the
    rows of a byte table laid out like `_text_table`'s but built by arithmetic:
    the digits right-aligned to the width of the largest value, NULs before
    them, then the suffix."""
    width = len(str(int(values.max())))
    table = np.zeros((values.size, width + len(suffix)), dtype=np.uint8)
    table[:, width:] = np.frombuffer(suffix, dtype=np.uint8)
    rest = values
    for col in range(width - 1, -1, -1):
        quot = rest // 10
        digit = rest - quot * 10
        digit += ord("0")
        if col < width - 1:  # a leading zero stays NUL; the units digit always shows
            digit *= rest > 0
        table[:, col] = digit
        rest = quot
    return table


def _scaled_digits(mantissa: np.ndarray, biased: np.ndarray, k: np.ndarray):
    """floor(v * 10**(16 - k)) for the doubles v = mantissa * 2**(biased - 1075),
    and whether rounding half to even takes it one up.

    The product mantissa * 5**(16 - k) is formed exactly, as 128 bits held in
    two uint64 halves; the factor 2**(16 - k) and the binary exponent together
    are a right shift of it.  For a normal v in the fast range and k within one
    of its decimal exponent, the shift is 1 to 63 bits and the quotient is
    below 10**18, so the quotient, the remainder and the half each fit in one
    uint64."""
    five = _POW5[16 - k]
    m_lo, m_hi = mantissa & _LOW32, mantissa >> 32
    f_lo, f_hi = five & _LOW32, five >> 32
    del five
    lo = m_lo * f_lo
    mid = m_lo * f_hi
    mid += m_hi * f_lo  # still below 2**63: m_hi < 2**21 and f_hi < 2**29
    hi = m_hi * f_hi
    del m_lo, m_hi, f_lo, f_hi
    hi += mid >> 32
    mid <<= 32
    lo += mid
    hi += lo < mid  # the carry out of the low word
    del mid
    shift = (1059 + k - biased).astype(np.uint64)
    digits = (lo >> shift) | (hi << (64 - shift))
    del hi
    rem = lo
    rem &= (1 << shift) - 1
    half = 1 << (shift - 1)
    up = (rem > half) | ((rem == half) & (digits & 1 == 1))
    return digits, up


def _g17_table(values: np.ndarray, suffix: bytes) -> np.ndarray:
    """`b"%.17g" + suffix` for each of `values`, all normal with
    1e-10 <= |v| < 1e14, as the rows of a byte table with NUL padding and NUL
    holes, built by integer arithmetic: the 17 significant digits are
    round-half-even(v * 10**(16 - k)) for the decimal exponent k, written from
    a table of digit pairs and laid out as `%g` does."""
    bits = values.view(np.uint64)
    biased = ((bits >> 52) & 0x7FF).astype(np.int64)
    mantissa = (bits & (_IMPLICIT_BIT - 1)) | _IMPLICIT_BIT
    k = np.floor(np.log10(np.abs(values))).astype(np.int64)
    digits, up = _scaled_digits(mantissa, biased, k)
    # log10 can land one decade off next to a power of ten; the digits before
    # rounding tell, since they are in [10**16, 10**17) for the right k only
    step = (digits >= 10**17).astype(np.int64) - (digits < 10**16)
    if step.any():
        at = np.flatnonzero(step)
        k[at] += step[at]
        digits[at], up[at] = _scaled_digits(mantissa[at], biased[at], k[at])
    del mantissa, biased, step
    # No double in the range rounds up onto 10**17: next to each power of ten
    # the doubles are too far apart.  So the digits never carry into k + 1.
    digits += up
    del up

    # The table is built one byte position per row, so that every step below
    # runs along all values at once, then transposed.  Text rows 1-17 hold
    # the 17 digits; rows 0 and 18 are NUL.
    text = np.empty((19, values.size), dtype=np.uint8)
    text[0] = text[18] = 0
    digits = digits.view(np.int64)
    for row in range(16, 0, -2):
        rest = digits // 100
        np.take(_DIGIT_PAIRS.T, digits - 100 * rest, axis=1, out=text[row:row + 2],
                mode="clip")
        digits = rest
    text[1] = digits + ord("0")
    del digits, rest

    # trailing zeros go; a fixed form keeps its integer digits
    shown = (text[1:18] != ord("0")).view(np.uint8)
    shown *= _DIGIT_COUNTS
    shown = np.maximum(shown.max(axis=0), k + 1)
    # the digit after which the point stands: 17 (none) for `0.000ddd`
    exponent = k < -4
    point = np.where(k >= 0, k, np.where(exponent, 0, 17)).astype(np.uint8)
    # the body's shown digits and point: a point with no digit after it goes
    width = (shown + (shown > point + 1)).astype(np.uint8)
    del shown

    # sign, `0.` and up to three zeros, 17 digits and a point, `e-XX`, suffix
    table = np.zeros((28 + len(suffix), values.size), dtype=np.uint8)
    table[0] = (values < 0) * ord("-")
    lead = np.where(exponent | (k >= 0), 0, 1 - k)
    np.multiply(_LEAD, _LEAD_ROWS < lead, out=table[1:6])
    del lead
    body = table[6:24]  # row c: digit c up to the point, then digit c - 1
    np.subtract(text[1:19], text[:18], out=body)
    body *= _BODY_ROWS <= point
    body += text[:18]
    del text
    at = np.flatnonzero(point < 17)
    body[point[at] + 1, at] = ord(".")
    body *= _BODY_ROWS < width
    at = np.flatnonzero(exponent)
    table[24:26, at] = _EXPONENT_SIGN
    table[26:28, at] = _DIGIT_PAIRS[-k[at]].T
    table[28:] = np.frombuffer(suffix, dtype=np.uint8)[:, None]
    return np.ascontiguousarray(table.T)


def _float_table(values: np.ndarray, suffix: bytes) -> np.ndarray:
    """`b"%.17g" + suffix` for each of the float64 `values`, as the rows of a
    byte table with NUL padding and NUL holes.  A normal value with
    `_FAST_LO <= |v| < _FAST_HI` is a `_g17_table` row; zeros, subnormals,
    non-finite and larger or smaller values are `_text_table` rows."""
    mag = np.abs(values)
    fast = (mag >= _FAST_LO) & (mag < _FAST_HI)
    del mag
    if fast.all():
        return _g17_table(values, suffix)
    arithmetic = _g17_table(values[fast], suffix)
    formatted = _text_table(values[~fast], b"%.17g" + suffix)
    table = np.zeros((values.size, max(arithmetic.shape[1], formatted.shape[1])),
                     dtype=np.uint8)
    table[fast, :arithmetic.shape[1]] = arithmetic
    table[~fast, :formatted.shape[1]] = formatted
    return table


def _write_lines(fh, columns) -> None:
    """For each entry i, write `text % column[i]` of every (column, text) pair,
    one after another.  An integer column's text is `%d` and a suffix, and its
    values are non-negative (indices, by construction): each block of it is a
    `_digit_table`.  A float64 column's text is `%.17g` and a suffix: its block
    is a `_float_table` of its distinct values, keyed by their bits, so -0.0
    keeps its sign and NaNs with different bits stay apart."""
    for start in range(0, len(columns[0][0]), _BLOCK):
        parts = []  # (table, the table row of each entry, or None for row i)
        for column, text in columns:
            block = column[start:start + _BLOCK]
            if np.issubdtype(block.dtype, np.integer):
                parts.append((_digit_table(block, text.removeprefix(b"%d")), None))
            else:
                distinct, inverse = np.unique(block.view(np.uint64), return_inverse=True)
                parts.append((_float_table(distinct.view(np.float64),
                                           text.removeprefix(b"%.17g")), inverse))
                del distinct, inverse
        lines = np.empty((len(block), sum(table.shape[1] for table, _ in parts)), dtype=np.uint8)
        stop = 0
        for table, rows in parts:
            at, stop = stop, stop + table.shape[1]
            if rows is None:
                lines[:, at:stop] = table
            else:  # one void item per table row, so the gather copies whole rows
                row = np.dtype((np.void, table.shape[1]))
                np.take(table.view(row)[:, 0], rows, out=lines[:, at:stop].view(row)[:, 0],
                        mode="clip")
        del parts, table, rows
        lines = lines.ravel()
        fh.write(lines[lines != 0])  # the text holds no NUL, so only the padding goes
        del lines  # before the next block's tables are built


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
