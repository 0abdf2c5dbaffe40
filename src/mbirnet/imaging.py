"""Desk-scale forward models, phantoms, measurement simulation, and metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .linops import ImageVector, ShapeError, SparseMatrixOperator, _in_threads, as_f64, usable_cpus

FULL_VIEW_COUNT = 180  # 1-degree parallel-beam grid from which views are subsampled


# ---------------------------------------------------------------------------
# phantoms
# ---------------------------------------------------------------------------

# (added value, semi-axis a, semi-axis b, center x, center y, rotation degrees)
_HEAD_ELLIPSES = (
    (1.0, 0.69, 0.92, 0.0, 0.0, 0.0),
    (-0.8, 0.6624, 0.874, 0.0, -0.0184, 0.0),
    (-0.2, 0.11, 0.31, 0.22, 0.0, -18.0),
    (-0.2, 0.16, 0.41, -0.22, 0.0, 18.0),
    (0.1, 0.21, 0.25, 0.0, 0.35, 0.0),
    (0.1, 0.046, 0.046, 0.0, 0.1, 0.0),
    (0.1, 0.046, 0.046, 0.0, -0.1, 0.0),
    (0.1, 0.046, 0.023, -0.08, -0.605, 0.0),
    (0.1, 0.023, 0.023, 0.0, -0.606, 0.0),
    (0.1, 0.023, 0.046, 0.06, -0.605, 0.0),
)


def render_ellipses(n: int, ellipses) -> np.ndarray:
    """Sum of constant-valued ellipses sampled on an n x n grid over [-1, 1]^2."""
    coords = (np.arange(n) + 0.5) / n * 2.0 - 1.0
    xg, yg = np.meshgrid(coords, -coords)  # row 0 at the top
    img = np.zeros((n, n))
    for value, a, b, cx, cy, deg in ellipses:
        phi = math.radians(deg)
        xr = (xg - cx) * math.cos(phi) + (yg - cy) * math.sin(phi)
        yr = -(xg - cx) * math.sin(phi) + (yg - cy) * math.cos(phi)
        img += value * ((xr / a) ** 2 + (yr / b) ** 2 <= 1.0)
    return img


def shepp_logan(n: int) -> ImageVector:
    """Standard ellipse head phantom with values in [0, 1]."""
    if n < 16:
        raise ValueError("phantom size must be at least 16")
    img = np.clip(render_ellipses(n, _HEAD_ELLIPSES), 0.0, 1.0)
    return ImageVector.from_2d(img)


def random_ellipse_phantom(n: int, rng: np.random.Generator) -> ImageVector:
    """Head-like phantom with randomized interior ellipses, values in [0, 1]."""
    if n < 16:
        raise ValueError("phantom size must be at least 16")
    ellipses = list(_HEAD_ELLIPSES[:2])
    for _ in range(int(rng.integers(3, 7))):
        a = rng.uniform(0.04, 0.35)
        b = rng.uniform(0.04, 0.35)
        radius = rng.uniform(0.0, 0.55)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        ellipses.append((
            rng.uniform(-0.15, 0.3),
            a, b,
            radius * math.cos(angle), radius * math.sin(angle),
            rng.uniform(0.0, 180.0),
        ))
    img = np.clip(render_ellipses(n, ellipses), 0.0, 1.0)
    return ImageVector.from_2d(img)


# ---------------------------------------------------------------------------
# parallel-beam geometry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CtGeometry:
    """Parallel-beam layout: n x n image, a subset of the 180 uniform angles,
    and a centered detector row whose bins must cover the image diagonal."""

    n: int
    n_views: int
    n_detectors: Optional[int] = None
    pitch: Optional[float] = None

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("image side must be >= 2")
        if not 1 <= self.n_views <= FULL_VIEW_COUNT:
            raise ValueError(f"n_views must lie in [1, {FULL_VIEW_COUNT}]")
        if self.pitch is None:
            object.__setattr__(self, "pitch", 2.0 / self.n)
        if not (math.isfinite(self.pitch) and self.pitch > 0):
            raise ValueError(f"pixel pitch must be positive and finite, got {self.pitch}")
        min_det = math.ceil(self.n * math.sqrt(2.0))
        if self.n_detectors is None:
            object.__setattr__(self, "n_detectors", min_det + 1)
        if self.n_detectors < min_det:
            raise ValueError(f"need at least {min_det} detector bins to cover the diagonal")

    @property
    def view_angles_deg(self) -> np.ndarray:
        """Evenly spaced subset of the 180-degree view grid."""
        idx = np.floor(np.arange(self.n_views) * FULL_VIEW_COUNT / self.n_views)
        return idx.astype(float)

    @property
    def n_rays(self) -> int:
        return self.n_views * self.n_detectors


def _trace_view(n: int, pitch: float, theta: float, offsets: np.ndarray):
    """Siddon intersections of the lines x cos + y sin = t, one per offset t.

    Returns, ray-major and in crossing order within each ray, the ray's
    position in `offsets`, the pixel index and the intersection length.
    """
    half = 0.5 * n * pitch
    ct, st = math.cos(theta), math.sin(theta)
    # ray parametrization p(s) = t*(ct, st) + s*(-st, ct)
    px, py = offsets * ct, offsets * st
    dx, dy = -st, ct
    planes = -half + pitch * np.arange(n + 1)

    # clip to the bounding box; a ray parallel to an axis must lie within its span
    crossings = []
    s_min, s_max = np.full(offsets.shape, -np.inf), np.full(offsets.shape, np.inf)
    inside = np.ones(offsets.shape, dtype=bool)
    for axis_d, axis_p in ((dx, px), (dy, py)):
        if abs(axis_d) > 1e-12:
            crossings.append((planes - axis_p[:, None]) / axis_d)
            lo = (-half - axis_p) / axis_d
            hi = (half - axis_p) / axis_d
            s_min = np.maximum(s_min, np.minimum(lo, hi))
            s_max = np.minimum(s_max, np.maximum(lo, hi))
        else:
            inside &= (-half <= axis_p) & (axis_p <= half)

    # crossings on or outside the clipped span collapse onto s_min and add only
    # zero-length segments, as do repeated crossings
    s_all = np.concatenate(crossings, axis=1)
    interior = (s_all > s_min[:, None] + 1e-12) & (s_all < s_max[:, None] - 1e-12)
    s_all = np.sort(np.where(interior, s_all, s_min[:, None]), axis=1)
    s_all = np.concatenate((s_min[:, None], s_all, s_max[:, None]), axis=1)
    lengths = np.diff(s_all, axis=1)
    mids = 0.5 * (s_all[:, :-1] + s_all[:, 1:])
    mx = px[:, None] + mids * dx
    my = py[:, None] + mids * dy
    cols = np.floor((mx + half) / pitch).astype(np.int64)
    rows = np.floor((half - my) / pitch).astype(np.int64)
    keep = ((lengths > 1e-12) & inside[:, None]
            & (cols >= 0) & (cols < n) & (rows >= 0) & (rows < n))
    return np.nonzero(keep)[0], rows[keep] * n + cols[keep], lengths[keep]


# Fewest plane crossings, n_detectors * (2n + 2), a view must have before the
# views are traced on more than one thread.  Measured on 2 vCPUs of a shared
# host, tracing 90 views in a fresh process, serial against 2 threads:
# 128x128 (47k crossings per view) 216-231 ms against 223-248 ms, 192x192
# (105k) 440-466 against 481-523, 224x224 (143k) 597-642 against 308-745,
# and 256x256 (187k) 762-821 against 411-477.  In a process that had traced
# 256x256 before, 128x128 gained as well (190-247 against 130-167 ms), so the
# break-even moves with the allocator's state; the floor follows a fresh one.
_MIN_VIEW_CROSSINGS = 1 << 17

# Most plane crossings traced in one `_trace_view` call: a view with more is
# traced in runs of adjacent rays, so each of its (rays, 2n + 2)-shaped
# temporaries stays near 0.5 MB (64x64 traces a whole view per call).  With
# these small temporaries, and range buffers too large for a thread heap
# (glibc maps them on their own), a tracing thread's heap stays small.  When it
# held whole views' temporaries and per-view pieces, it kept 15-30 MB resident
# after `malloc_trim` in 6 of 30 runs of three 256x256 builds.
_CHUNK_CROSSINGS = 1 << 16


def build_radon(geom: CtGeometry) -> SparseMatrixOperator:
    """Sparse line-integral matrix for the geometry; all entries nonnegative.

    Row `view * n_detectors + detector` holds the ray's pixel intersection
    lengths, so the CSR equals one built ray by ray, entry for entry.  When a
    view has at least `_MIN_VIEW_CROSSINGS` plane crossings the views are
    traced in contiguous ranges, one per usable CPU (`linops.usable_cpus`), on
    threads that live for this call only; numpy releases the interpreter lock
    inside the tracing.  A smaller geometry is traced on the calling thread.
    Each range writes its entries into two buffers sized for every crossing
    of its views, of which only the written pages become resident.
    """
    n, n_det = geom.n, geom.n_detectors
    offsets = (np.arange(n_det) - 0.5 * (n_det - 1)) * geom.pitch
    angles = geom.view_angles_deg
    parts = 1
    if n_det * (2 * n + 2) >= _MIN_VIEW_CROSSINGS:
        parts = min(usable_cpus(), angles.size)
    bounds = [angles.size * i // parts for i in range(parts + 1)]
    rays = max(1, _CHUNK_CROSSINGS // (2 * n + 2))

    def trace(part):
        views = angles[bounds[part]:bounds[part + 1]]
        # a ray keeps at most its 2n + 3 segments; int32 indices like scipy's
        # own index arrays: an n with n*n beyond it would need tens of GB for
        # one view's crossings
        size = views.size * n_det * (2 * n + 3)
        indices, data = np.empty(size, dtype=np.int32), np.empty(size)
        counts, end = [], 0
        for angle in views:
            for first in range(0, n_det, rays):
                run = offsets[first:first + rays]
                ray, idx, lengths = _trace_view(n, geom.pitch, math.radians(angle), run)
                counts.append(np.bincount(ray, minlength=run.size))
                indices[end:end + idx.size] = idx
                data[end:end + idx.size] = lengths
                end += idx.size
        return counts, indices[:end], data[:end]

    # The calling thread joins the ranges once.  The range buffers are sized
    # by the crossing bound, not by what was written: at 256x256 with 180 views
    # they are 67 and 134 MB per range, beyond glibc's largest mmap threshold
    # (32 MB), so each is mapped on its own and freeing it leaves the threshold
    # as it was.  Freeing a worker's exactly sized array of tens of MB raises
    # the threshold; later worker allocations then stay in the worker's heap,
    # whose free top malloc_trim does not return.
    counts, indices, data = zip(*_in_threads(trace, parts))
    indptr = np.concatenate(([0], np.cumsum(np.concatenate([c for cs in counts for c in cs]))))
    # the operator sorts each row's columns in place (`sum_duplicates`)
    return SparseMatrixOperator(sp.csr_matrix(
        (np.concatenate(data), np.concatenate(indices), indptr), shape=(geom.n_rays, n * n)))


def simulate_ct(x: ImageVector, op: SparseMatrixOperator, incident: float, sigma2: float,
                seed: Optional[int] = None, noiseless: bool = False):
    """Post-log sinogram and statistical weights from a transmission scan.

    Pre-log counts follow Poisson(I0 exp(-Ax)) plus Gaussian readout noise of
    variance sigma2, clamped at 1 before the log; the weight for each ray is
    p^2 / (p + sigma2).  The noiseless path is seed-free and returns y = Ax
    exactly.
    """
    if not (math.isfinite(incident) and incident > 0):
        raise ValueError(f"incident intensity must be positive and finite, got {incident}")
    if not (math.isfinite(sigma2) and sigma2 >= 0):
        raise ValueError(f"noise variance sigma2 must be nonnegative and finite, got {sigma2}")
    line_integrals = op.forward(x.data)
    expected = incident * np.exp(-line_integrals)
    if noiseless:
        p = np.maximum(expected, 1e-300)
        y = line_integrals.copy()
    else:
        rng = np.random.default_rng(seed)
        p = rng.poisson(expected).astype(np.float64)
        if sigma2 > 0:
            p += rng.normal(0.0, math.sqrt(sigma2), size=p.shape)
        p = np.maximum(p, 1.0)
        y = np.log(incident / p)
    weights = p * p / (p + sigma2)
    return y, weights


def build_blur(kernel, image_shape: tuple[int, int]) -> SparseMatrixOperator:
    """2-D circular convolution as a circulant CSR matrix, one band per nonzero tap.

    The kernel taps sit on centered offsets (range(r) - r//2 per axis) and the
    boundary is circular, so row n holds tap (a, b) in the column of the pixel
    displaced from n by (a - kh//2, b - kw//2); the adjoint is correlation.
    """
    kernel = as_f64(np.atleast_2d(kernel))
    if not np.all(np.isfinite(kernel)):
        raise ValueError("kernel must be finite")
    h, w = int(image_shape[0]), int(image_shape[1])
    kh, kw = kernel.shape
    if kh > h or kw > w:
        raise ShapeError(f"kernel {kernel.shape} larger than image {(h, w)}")
    n = h * w
    rows_grid, cols_grid = np.divmod(np.arange(n), w)
    taps = np.argwhere(kernel != 0.0)
    dy = taps[:, :1] - kh // 2
    dx = taps[:, 1:] - kw // 2
    cols = ((rows_grid - dy) % h) * w + (cols_grid - dx) % w
    rows = np.broadcast_to(np.arange(n), cols.shape)
    data = np.repeat(kernel[kernel != 0.0], n)
    return SparseMatrixOperator(sp.coo_matrix((data, (rows.ravel(), cols.ravel())),
                                              shape=(n, n)).tocsr())


def binomial_kernel(c: float = 0.3) -> np.ndarray:
    """Mild normalized blur: c * delta + (1 - c) * separable binomial 3x3.

    Entries are nonnegative with unit sum, so the circulant data-fit majorizer
    is the identity up to rounding and the smallest singular value stays at c.
    """
    if not 0.0 <= c <= 1.0:
        raise ValueError("mixing weight must lie in [0, 1]")
    b = np.outer([0.25, 0.5, 0.25], [0.25, 0.5, 0.25])
    k = (1.0 - c) * b
    k[1, 1] += c
    return k


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def _pair(a, b, roi=None):
    a2 = a.as_2d() if isinstance(a, ImageVector) else as_f64(a)
    b2 = b.as_2d() if isinstance(b, ImageVector) else as_f64(b)
    if a2.shape != b2.shape:
        raise ShapeError("images must share one shape")
    if roi is not None:
        roi = np.asarray(roi, dtype=bool)
        if roi.shape != a2.shape:
            raise ShapeError("ROI mask must match the image shape")
        return a2[roi], b2[roi]
    return a2.ravel(), b2.ravel()


def rmse(x_star, x_true, roi=None) -> float:
    """Root mean squared error over the ROI (whole image when roi is None)."""
    a, b = _pair(x_star, x_true, roi)
    return float(np.sqrt(np.mean((a - b) ** 2)))


def psnr(x_star, x_true, peak: float) -> float:
    """Peak signal-to-noise ratio in dB; identical images report +inf."""
    if peak <= 0:
        raise ValueError("peak must be positive")
    a, b = _pair(x_star, x_true)
    mse = float(np.mean((a - b) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / mse)
