"""Desk-scale forward models, phantoms, measurement simulation, and metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.sparse as sp

from .linops import ImageVector, ShapeError, SparseMatrixOperator, as_f64

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
    ellipses = [
        (1.0, 0.69, 0.92, 0.0, 0.0, 0.0),
        (-0.8, 0.6624, 0.874, 0.0, -0.0184, 0.0),
    ]
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
        if self.pitch <= 0:
            raise ValueError("pixel pitch must be positive")
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


def _siddon_ray(n: int, pitch: float, theta: float, t: float):
    """Pixel indices and intersection lengths for the line x cos + y sin = t."""
    half = 0.5 * n * pitch
    ct, st = math.cos(theta), math.sin(theta)
    # ray parametrization p(s) = t*(ct, st) + s*(-st, ct)
    px, py = t * ct, t * st
    dx, dy = -st, ct

    s_vals = []
    for axis_d, axis_p in ((dx, px), (dy, py)):
        if abs(axis_d) > 1e-12:
            planes = -half + pitch * np.arange(n + 1)
            s_vals.append((planes - axis_p) / axis_d)
    if not s_vals:
        return np.empty(0, dtype=np.int64), np.empty(0)
    s_all = np.unique(np.concatenate(s_vals))

    # clip to the bounding box
    s_min, s_max = -np.inf, np.inf
    for axis_d, axis_p in ((dx, px), (dy, py)):
        if abs(axis_d) > 1e-12:
            lo = (-half - axis_p) / axis_d
            hi = (half - axis_p) / axis_d
            s_min = max(s_min, min(lo, hi))
            s_max = min(s_max, max(lo, hi))
        elif not -half <= axis_p <= half:
            return np.empty(0, dtype=np.int64), np.empty(0)
    if s_min >= s_max:
        return np.empty(0, dtype=np.int64), np.empty(0)

    s_all = s_all[(s_all > s_min + 1e-12) & (s_all < s_max - 1e-12)]
    s_all = np.concatenate(([s_min], s_all, [s_max]))
    lengths = np.diff(s_all)
    mids = 0.5 * (s_all[:-1] + s_all[1:])
    mx = px + mids * dx
    my = py + mids * dy
    cols = np.floor((mx + half) / pitch).astype(np.int64)
    rows = np.floor((half - my) / pitch).astype(np.int64)
    keep = (lengths > 1e-12) & (cols >= 0) & (cols < n) & (rows >= 0) & (rows < n)
    return rows[keep] * n + cols[keep], lengths[keep]


def build_radon(geom: CtGeometry) -> SparseMatrixOperator:
    """Sparse line-integral matrix for the geometry; all entries nonnegative."""
    n = geom.n
    rows, cols, vals = [], [], []
    half_span = 0.5 * (geom.n_detectors - 1)
    for vi, angle in enumerate(geom.view_angles_deg):
        theta = math.radians(angle)
        for di in range(geom.n_detectors):
            t = (di - half_span) * geom.pitch
            idx, lengths = _siddon_ray(n, geom.pitch, theta, t)
            if idx.size:
                ray = vi * geom.n_detectors + di
                rows.append(np.full(idx.size, ray, dtype=np.int64))
                cols.append(idx)
                vals.append(lengths)
    if rows:
        mat = sp.coo_matrix(
            (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
            shape=(geom.n_rays, n * n))
    else:
        mat = sp.coo_matrix((geom.n_rays, n * n))
    return SparseMatrixOperator(mat.tocsr())


def simulate_ct(x: ImageVector, op: SparseMatrixOperator, incident: float, sigma2: float,
                seed: Optional[int] = None, noiseless: bool = False):
    """Post-log sinogram and statistical weights from a transmission scan.

    Pre-log counts follow Poisson(I0 exp(-Ax)) plus Gaussian readout noise of
    variance sigma2, clamped at 1 before the log; the weight for each ray is
    p^2 / (p + sigma2).  The noiseless path is seed-free and returns y = Ax
    exactly.
    """
    if incident <= 0:
        raise ValueError("incident intensity must be positive")
    if sigma2 < 0:
        raise ValueError("noise variance must be nonnegative")
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
