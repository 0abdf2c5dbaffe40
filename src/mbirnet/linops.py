"""The sparse forward operator, quadratic data-fit terms, and diagonal majorizers.

Everything downstream (proximal steps, solvers, training) consumes the types
defined here.  All numerics are double precision; the types are value objects
that do not mutate after construction.  Inner products and norms of flat
vectors (`_dot`, `_norm`) are summed by numpy itself, never by BLAS, so the
solver loop wakes none of OpenBLAS's worker threads.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp


class ShapeError(ValueError):
    """Raised when vector/operator dimensions do not line up."""


def as_f64(a) -> np.ndarray:
    """Coerce to a contiguous float64 array."""
    return np.ascontiguousarray(a, dtype=np.float64)


def _frozen(a: np.ndarray) -> np.ndarray:
    a = as_f64(a)
    a.flags.writeable = False
    return a


# ---------------------------------------------------------------------------
# image container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ImageVector:
    """Flat real-valued signal plus its 2-D shape (height, width)."""

    data: np.ndarray
    shape: tuple[int, int]

    def __post_init__(self):
        data = _frozen(np.ravel(self.data))
        object.__setattr__(self, "data", data)
        h, w = self.shape
        if data.size != h * w:
            raise ShapeError(f"data length {data.size} != {h}x{w}")
        if not np.all(np.isfinite(data)):
            raise ValueError("image entries must be finite")

    @classmethod
    def from_2d(cls, arr) -> "ImageVector":
        arr = as_f64(arr)
        return cls(arr.ravel(), arr.shape)

    def as_2d(self) -> np.ndarray:
        return self.data.reshape(self.shape)

    @property
    def size(self) -> int:
        return self.data.size


def _flat(x) -> np.ndarray:
    if isinstance(x, ImageVector):
        return x.data
    return as_f64(np.ravel(x))


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product of two flat vectors, summed by numpy's einsum loop.

    `np.dot` hands a long vector to BLAS: OpenBLAS runs a 65k-entry dot on two
    threads, and its worker then spins on the other CPU for about 0.1 s,
    where it slows the split products that follow to serial speed.  einsum
    makes no BLAS call (about 35 us at 65k entries).
    """
    return float(np.einsum("i,i->", a, b))


def _norm(a: np.ndarray) -> float:
    """Euclidean norm of a flat vector, through `_dot`."""
    return math.sqrt(_dot(a, a))


# ---------------------------------------------------------------------------
# forward operator
# ---------------------------------------------------------------------------

# Fewest nonzeros a row block of a split product may hold.  Measured on 2
# vCPUs of a shared host (CT matrices, median of 30-200 products): two threads
# break even with one at about 2.3e5 nonzeros per block (0.47M in all: 287 us
# serial, 310 us split), are 25% faster at 5e5 per block and 45% faster at
# 7.5e6 (256x256, 180 views: 16.0 ms serial, 8.9 ms split); at 120k nonzeros
# (64x64, 23 views) the split costs twice the serial product.  2^20 keeps a
# margin of four above break-even for thread start-up jitter on a busy host.
_MIN_BLOCK_NNZ = 1 << 20


def usable_cpus() -> int:
    """CPUs this process may run on, which is the most row blocks a product uses."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _freeze_csr(a: sp.csr_matrix) -> sp.csr_matrix:
    for arr in (a.data, a.indices, a.indptr):
        arr.flags.writeable = False
    return a


def _row_blocks(a: sp.csr_matrix) -> list[sp.csr_matrix]:
    """Split CSR `a` into row blocks of about equal nonzeros, one per usable CPU.

    No block holds fewer than `_MIN_BLOCK_NNZ` nonzeros, so a small matrix is
    its own single block.  Each block's data and indices are views of `a`'s;
    only its row pointer is a new (small) array.
    """
    parts = min(usable_cpus(), a.nnz // _MIN_BLOCK_NNZ)
    if parts < 2:
        return [a]
    # first row whose start reaches each equal share: a block misses its
    # share by less than one row's nonzeros
    cuts = np.searchsorted(a.indptr, np.arange(1, parts) * (a.nnz / parts))
    bounds = np.unique(np.concatenate(([0], cuts, [a.shape[0]])))
    blocks = []
    for r0, r1 in zip(bounds[:-1], bounds[1:]):
        lo, hi = a.indptr[r0], a.indptr[r1]
        # scipy's (data, indices, indptr) constructor copies a view smaller
        # than half its base, so the views are set on an empty block instead
        block = sp.csr_matrix((int(r1 - r0), a.shape[1]), dtype=np.float64)
        block.data, block.indices, block.indptr = (
            a.data[lo:hi], a.indices[lo:hi], a.indptr[r0:r1 + 1] - lo)
        blocks.append(_freeze_csr(block))
    return blocks


def _in_threads(work, parts: int) -> list:
    """[work(0), ..., work(parts - 1)], part 0 on the calling thread and every
    other part on a thread of its own.

    The threads live for one call only: a pool kept across calls would hang in
    a child forked after it was made.  One part starts no thread.  Only the
    threads that started are joined, and the first exception a worker raised
    is raised again here.
    """
    out = [None] * parts
    errors = []

    def run(i):
        try:
            out[i] = work(i)
        except BaseException as exc:  # handed to the caller below
            errors.append(exc)

    threads = []
    try:
        for i in range(1, parts):
            t = threading.Thread(target=run, args=(i,))
            t.start()
            threads.append(t)  # only started threads are joined
        out[0] = work(0)
    finally:
        for t in threads:
            t.join()
    if errors:
        raise errors[0]
    return out


def _product(blocks: list[sp.csr_matrix], v: np.ndarray) -> np.ndarray:
    """Stacked products `block @ v`, one thread per block after the first.

    Each row is summed by the same scipy kernel in the same order, so the
    result equals the whole matrix's product bit for bit.  scipy releases the
    interpreter lock in its CSR kernel, so the blocks run in parallel.
    """
    if len(blocks) == 1:
        return blocks[0] @ v
    return np.concatenate(_in_threads(lambda i: blocks[i] @ v, len(blocks)))


class SparseMatrixOperator:
    """Forward model u -> Au backed by a scipy CSR matrix, with adjoint v -> A^T v.

    Every forward model is one: the sparse-view Radon matrix, the circulant
    blur (`imaging.build_blur`) and any operator read from disk.

    A float64 CSR matrix is wrapped, not copied: its arrays become read-only
    and the caller must not write to them afterwards.  Any other input (dense,
    integer, COO) is converted into a new float64 CSR.  The operator keeps the
    matrix, its CSR transpose and row blocks that are views of the two.

    Products of an operator with at least two blocks' worth of nonzeros
    (`2 * _MIN_BLOCK_NNZ`) are split into row blocks, one thread per usable CPU
    (`usable_cpus`), and equal the whole matrix's products bit for bit.  Every
    other product runs on the calling thread.  There is no setting.
    """

    def __init__(self, matrix):
        self.matrix = sp.csr_matrix(matrix).astype(np.float64, copy=False)
        self.matrix.sum_duplicates()  # scipy canonicalizes in place, so do it before freezing
        _freeze_csr(self.matrix)
        self.shape = self.matrix.shape  # (m, n) = (output dim, input dim)
        # the arrays are read-only from here on, so one scan settles the sign
        self._has_negative = bool(self.matrix.nnz and self.matrix.data.min() < 0)
        self._adj = _freeze_csr(self.matrix.T.tocsr())
        self._blocks = _row_blocks(self.matrix)
        self._adj_blocks = _row_blocks(self._adj)

    @property
    def in_dim(self) -> int:
        return self.shape[1]

    @property
    def out_dim(self) -> int:
        return self.shape[0]

    def forward(self, x):
        x = _flat(x)
        if x.size != self.in_dim:
            raise ShapeError(f"operator expects input of length {self.in_dim}, got {x.size}")
        return _product(self._blocks, x)

    def adjoint(self, y):
        y = _flat(y)
        if y.size != self.out_dim:
            raise ShapeError(f"operator expects adjoint input of length {self.out_dim}, got {y.size}")
        return _product(self._adj_blocks, y)


# ---------------------------------------------------------------------------
# data fit, majorizer, feasible set, objective
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuadraticDataFit:
    """Weighted least-squares data fit  f(x) = 1/2 ||y - Ax||^2_W, and its `diag_majorizer`."""

    op: SparseMatrixOperator
    weights: np.ndarray
    measurements: np.ndarray
    majorizer: DiagonalMajorizer = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "weights", _frozen(np.ravel(self.weights)))
        object.__setattr__(self, "measurements", _frozen(np.ravel(self.measurements)))
        if not np.all(np.isfinite(self.weights)) or np.any(self.weights < 0):
            raise ValueError("weights must be finite and entrywise nonnegative")
        if not np.all(np.isfinite(self.measurements)):
            raise ValueError("measurements must be finite")
        if self.weights.size != self.op.out_dim:
            raise ShapeError("weights length must equal operator output dim")
        if self.measurements.size != self.op.out_dim:
            raise ShapeError("measurement length must equal operator output dim")
        with np.errstate(over="ignore"):  # an overflow is reported below
            norm = 0.5 * _dot(self.weights * self.measurements, self.measurements)
        if not math.isfinite(norm):
            raise ValueError("measurements too large: 1/2 ||y||^2_W overflows, so the "
                             "data fit would too")
        ones = np.ones(self.op.in_dim)
        with np.errstate(over="ignore", invalid="ignore"):  # DiagonalMajorizer rejects inf
            if self.op._has_negative:
                a = abs(self.op.matrix)
                d = a.T @ (self.weights * (a @ ones))
            else:
                d = _product(self.op._adj_blocks, self.weights * _product(self.op._blocks, ones))
            dmax = float(np.max(d)) if d.size else 0.0
            floor = 1e-8 * dmax if dmax > 0 else 1e-8
            object.__setattr__(self, "majorizer", DiagonalMajorizer(np.maximum(d, floor)))

    def value(self, x) -> float:
        r = self.op.forward(_flat(x)) - self.measurements
        return 0.5 * _dot(self.weights * r, r)

    @property
    def n(self) -> int:
        return self.op.in_dim


@dataclass(frozen=True)
class DiagonalMajorizer:
    """Positive diagonal metric M, stored as its diagonal with any scale in it
    (the MBIR step metric lam * (M_f + gamma I) is one: `MbirObjective.metric`)."""

    diag: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "diag", _frozen(np.ravel(self.diag)))
        if self.diag.size == 0:
            raise ValueError("empty diagonal")
        if not np.all(np.isfinite(self.diag)) or np.any(self.diag <= 0):
            raise ValueError("majorizer diagonal must be finite and strictly positive")


@dataclass(frozen=True)
class FeasibleSet:
    """Convex closed constraint set: all of R^N, the nonnegative orthant, or a box."""

    kind: str
    lo: float = -np.inf
    hi: float = np.inf

    _KINDS = ("all", "nonneg", "box")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown feasible set kind {self.kind!r}")
        if self.kind == "box" and not self.lo <= self.hi:
            raise ValueError("box requires lo <= hi")

    @classmethod
    def all(cls) -> "FeasibleSet":
        return cls("all")

    @classmethod
    def nonneg(cls) -> "FeasibleSet":
        return cls("nonneg", lo=0.0)

    @classmethod
    def box(cls, lo: float, hi: float) -> "FeasibleSet":
        return cls("box", lo=float(lo), hi=float(hi))

    def project(self, v: np.ndarray) -> np.ndarray:
        if self.kind == "all":
            return np.array(v, dtype=np.float64, copy=True)
        if self.kind == "nonneg":
            return np.maximum(v, 0.0)
        return np.clip(v, self.lo, self.hi)


@dataclass(frozen=True)
class MbirObjective:
    """F(x; y, z) = f(x; y) + (gamma/2) ||x - z||^2 over a feasible set, for every
    refined image z; its step metric lam * (M_f + gamma I) is formed at construction."""

    datafit: QuadraticDataFit
    gamma: float
    feasible: FeasibleSet
    lam: float = 1.0
    metric: DiagonalMajorizer = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "gamma", float(self.gamma))
        if self.gamma <= 0:
            raise ValueError("gamma must be > 0")
        object.__setattr__(self, "metric", DiagonalMajorizer(
            self.lam * (self.datafit.majorizer.diag + self.gamma)))

    def value(self, x, z) -> float:
        x = _flat(x)
        d = x - _flat(z).reshape(x.shape)  # a z of another length cannot reshape
        return self.datafit.value(x) + 0.5 * self.gamma * _dot(d, d)


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def datafit_gradient(f: QuadraticDataFit, x):
    """Gradient A^T W (Ax - y) of the weighted least-squares data fit."""
    xf = _flat(x)
    if xf.size != f.n:
        raise ShapeError(f"gradient point has length {xf.size}, expected {f.n}")
    r = f.op.forward(xf) - f.measurements
    return f.op.adjoint(f.weights * r)


def diag_majorizer(f: QuadraticDataFit) -> DiagonalMajorizer:
    """Diagonal curvature bound diag(|A^T| W |A| 1) >= A^T W A.

    Zero diagonal entries (all-zero rows/columns of A) are floored at
    1e-8 * max-entry so the majorizer stays strictly positive definite; an
    identically-zero operator falls back to an absolute 1e-8 floor.

    The diagonal depends only on the data fit, which is frozen, so it is
    formed, and an overflowing one rejected, when `f` is constructed; every
    call returns that `f.majorizer`, and an `MbirObjective` forms its step
    metric from it once, when the objective is built.  A matrix with no negative entry is its
    own |A|, so the product runs on the operator's matrix and stored transpose
    without a copy; it sums in the same order as the transpose view of a copy
    would.  Like the operator's own products, it is split over one thread per
    usable CPU when the operator is large enough, with the same bits.  A matrix
    with a negative entry forms |A| and runs single-threaded.
    """
    return f.majorizer


def mbir_gradient(obj: MbirObjective, x, z):
    """Gradient of F(x; y, z): data-fit gradient plus gamma * (x - z)."""
    xf = _flat(x)
    return datafit_gradient(obj.datafit, xf) + obj.gamma * (xf - _flat(z).reshape(xf.shape))


@dataclass(frozen=True)
class MajorizationReport:
    trials: int
    violations: int
    max_violation: float

    @property
    def ok(self) -> bool:
        return self.violations == 0


def verify_majorization(
    f: QuadraticDataFit,
    m: DiagonalMajorizer,
    trials: int,
    seed: int,
    rel_tol: float = 1e-10,
) -> MajorizationReport:
    """Check the quadratic upper bound f(u) <= f(v) + <grad f(v), u-v> + 1/2||u-v||_M^2.

    Sampling is over random Gaussian pairs; violations beyond `rel_tol`
    (relative to the magnitude of both sides) are counted, never raised.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    n = f.n
    md = m.diag
    violations = 0
    worst = 0.0
    for _ in range(trials):
        u = rng.standard_normal(n)
        v = rng.standard_normal(n)
        d = u - v
        lhs = f.value(u)
        rhs = f.value(v) + _dot(datafit_gradient(f, v), d) + 0.5 * _dot(md * d, d)
        scale = max(1.0, abs(lhs), abs(rhs))
        gap = (lhs - rhs) / scale
        if gap > rel_tol:
            violations += 1
        worst = max(worst, gap)
    return MajorizationReport(trials, violations, worst)


def spectral_spread(m: DiagonalMajorizer) -> float:
    """Spread sigma_max - sigma_min of a diagonal majorizer: the max - min of
    its diagonal."""
    return float(np.max(m.diag) - np.min(m.diag))


def select_gamma(m_f: DiagonalMajorizer, chi: float) -> float:
    """Proximity weight spread(M_f) / chi from the data-fit majorizer.

    A scaled-identity majorizer has zero spread; the fallback scales gamma to
    the majorizer magnitude instead so the weight stays positive.  A spread of
    at most 1e-12 of the largest entry is rounding noise (a circulant blur
    majorizer summed in CSR order, say) and counts as zero.
    """
    if chi <= 0:
        raise ValueError("chi must be > 0")
    spread = spectral_spread(m_f)
    top = float(np.max(m_f.diag))
    gamma = spread / chi if spread > 1e-12 * top else top / chi
    if not (math.isfinite(gamma) and gamma > 0):
        raise ValueError(f"chi = {chi} gives gamma = {gamma}, which is not finite and > 0")
    return gamma
