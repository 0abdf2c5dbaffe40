import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import mbirnet as mn
from mbirnet.imaging import _trace_view


def _siddon_ray(n: int, pitch: float, theta: float, t: float):
    """Per-ray reference for `_trace_view`: pixel indices and intersection
    lengths for the line x cos + y sin = t."""
    half = 0.5 * n * pitch
    ct, st = math.cos(theta), math.sin(theta)
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


def _reference_radon(geom):
    """CSR from one `_siddon_ray` call per ray, in ray-major order."""
    n = geom.n
    rows, cols, vals = [], [], []
    half_span = 0.5 * (geom.n_detectors - 1)
    for vi, angle in enumerate(geom.view_angles_deg):
        theta = math.radians(angle)
        for di in range(geom.n_detectors):
            idx, lengths = _siddon_ray(n, geom.pitch, theta, (di - half_span) * geom.pitch)
            rows.append(np.full(idx.size, vi * geom.n_detectors + di, dtype=np.int64))
            cols.append(idx)
            vals.append(lengths)
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(geom.n_rays, n * n)).tocsr()


class TestSheppLogan:
    def test_range_and_shape(self):
        img = mn.shepp_logan(64)
        arr = img.as_2d()
        assert arr.shape == (64, 64)
        assert arr.min() >= 0.0 and arr.max() <= 1.0

    def test_corners_outside_head(self):
        arr = mn.shepp_logan(64).as_2d()
        assert arr[0, 0] == 0.0 and arr[0, -1] == 0.0
        assert arr[-1, 0] == 0.0 and arr[-1, -1] == 0.0

    def test_positive_mass(self):
        assert mn.shepp_logan(32).data.sum() > 0.0

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            mn.shepp_logan(8)


class TestRandomPhantom:
    def test_range(self, rng):
        for _ in range(5):
            arr = mn.random_ellipse_phantom(32, rng).as_2d()
            assert arr.min() >= 0.0 and arr.max() <= 1.0

    def test_deterministic_for_fixed_stream(self):
        a = mn.random_ellipse_phantom(32, np.random.default_rng(5))
        b = mn.random_ellipse_phantom(32, np.random.default_rng(5))
        assert np.array_equal(a.data, b.data)


class TestCtGeometry:
    def test_defaults_cover_diagonal(self):
        g = mn.CtGeometry(64, 23)
        assert g.n_detectors >= math.ceil(64 * math.sqrt(2))
        assert g.pitch == pytest.approx(2.0 / 64)
        assert g.view_angles_deg.size == 23
        assert np.all(np.diff(g.view_angles_deg) > 0)

    def test_view_bounds(self):
        with pytest.raises(ValueError):
            mn.CtGeometry(64, 0)
        with pytest.raises(ValueError):
            mn.CtGeometry(64, 181)

    def test_insufficient_detectors_rejected(self):
        with pytest.raises(ValueError):
            mn.CtGeometry(64, 10, n_detectors=32)

    def test_full_view_set_on_grid(self):
        g = mn.CtGeometry(32, 180)
        assert np.array_equal(g.view_angles_deg, np.arange(180.0))


class TestBuildRadon:
    def test_entries_nonnegative(self):
        a = mn.build_radon(mn.CtGeometry(16, 8))
        assert a.matrix.data.min() >= 0.0

    def test_adjoint(self, rng):
        a = mn.build_radon(mn.CtGeometry(16, 8))
        for _ in range(20):
            u = rng.standard_normal(a.in_dim)
            v = rng.standard_normal(a.out_dim)
            lhs = float(np.dot(a.forward(u), v))
            rhs = float(np.dot(u, a.adjoint(v)))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    def test_uniform_image_ray_bound(self):
        geom = mn.CtGeometry(16, 12)
        a = mn.build_radon(geom)
        sino = a.forward(np.ones(16 * 16))
        assert sino.max() <= 16 * geom.pitch * math.sqrt(2.0) + 1e-9

    def test_hand_geometry_2x2(self):
        # one vertical ray through the left column of a 2x2 grid with pitch 1:
        # it crosses both pixels of that column with unit intersection length
        geom = mn.CtGeometry(2, 1, n_detectors=3, pitch=1.0)
        a = mn.build_radon(geom)
        dense = a.matrix.toarray()
        assert geom.view_angles_deg[0] == 0.0
        # detector t-coordinates are (-1, 0, 1); t = -0.5 is not sampled, but
        # the center ray t = 0 runs along the boundary; check the offset rays
        # explicitly with a custom single-detector layout instead
        _, idx, lengths = _trace_view(2, 1.0, 0.0, np.array([-0.5]))
        assert sorted(idx.tolist()) == [0, 2]  # pixels (0,0) and (1,0)
        assert np.allclose(lengths, [1.0, 1.0])
        _, idx, lengths = _trace_view(2, 1.0, math.radians(90.0), np.array([0.5]))
        assert sorted(idx.tolist()) == [0, 1]  # top row
        assert np.allclose(lengths, [1.0, 1.0])
        # diagonal ray through the center crosses two full pixel diagonals
        _, idx, lengths = _trace_view(2, 1.0, math.radians(45.0), np.array([0.0]))
        assert np.allclose(sorted(lengths), [math.sqrt(2.0)] * 2)

    def test_axis_parallel_ray_just_outside_the_grid_is_empty(self):
        # at this pitch a ray one ulp outside the grid floors into the last
        # column or row, so only the per-ray inside test drops it
        n, pitch = 14, 0.46204361113142567
        half = 0.5 * n * pitch
        for theta, t in ((0.0, np.nextafter(half, np.inf)),
                         (math.radians(90.0), np.nextafter(-half, -np.inf))):
            assert _siddon_ray(n, pitch, theta, t)[0].size == 0
            ray, idx, lengths = _trace_view(n, pitch, theta, np.array([t]))
            assert ray.size == idx.size == lengths.size == 0

    @pytest.mark.parametrize("geom", [
        mn.CtGeometry(2, 1, n_detectors=3, pitch=1.0),
        mn.CtGeometry(2, 180),
        mn.CtGeometry(3, 1),
        mn.CtGeometry(16, 8),
        mn.CtGeometry(33, 17),
        mn.CtGeometry(64, 23),
        mn.CtGeometry(24, 180, n_detectors=60, pitch=0.07),
        mn.CtGeometry(20, 7, pitch=0.3),
        mn.CtGeometry(31, 90, n_detectors=45),
    ], ids=lambda g: f"n{g.n}-v{g.n_views}-d{g.n_detectors}-p{g.pitch:g}")
    def test_matches_per_ray_reference(self, geom):
        _assert_equals_reference(mn.build_radon(geom).matrix, geom)


def _assert_equals_reference(got, geom):
    # entry for entry, so every CT artifact stays byte-identical
    want = _reference_radon(geom)
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.data.tobytes() == want.data.tobytes()
    assert got.indptr.dtype == want.indptr.dtype
    assert got.indices.dtype == want.indices.dtype
    assert got.data.dtype == want.data.dtype


@pytest.fixture
def view_threads(monkeypatch):
    """Trace every geometry on `k` threads at most, whatever its size."""
    from mbirnet import imaging

    def set_threads(k):
        monkeypatch.setattr(imaging, "_MIN_VIEW_CROSSINGS", 0)
        monkeypatch.setattr(imaging, "usable_cpus", lambda: k)
    return set_threads


class TestThreadedBuildRadon:
    @pytest.mark.parametrize("k", [2, 3, 64])
    @pytest.mark.parametrize("geom", [
        mn.CtGeometry(2, 1, n_detectors=3, pitch=1.0),
        mn.CtGeometry(3, 1),
        mn.CtGeometry(16, 8),
        mn.CtGeometry(24, 180, n_detectors=60, pitch=0.07),
        mn.CtGeometry(31, 90, n_detectors=45),
    ], ids=lambda g: f"n{g.n}-v{g.n_views}-d{g.n_detectors}")
    def test_split_views_match_per_ray_reference(self, geom, k, view_threads, monkeypatch):
        import threading
        started = []
        real_thread = threading.Thread

        def counting_thread(*args, **kwargs):
            started.append(1)
            return real_thread(*args, **kwargs)
        monkeypatch.setattr(threading, "Thread", counting_thread)
        view_threads(k)
        _assert_equals_reference(mn.build_radon(geom).matrix, geom)
        # one range of views per CPU, and no CPU without a view
        assert len(started) == min(k, geom.n_views) - 1

    @pytest.mark.parametrize("k", [1, 2])
    def test_runs_of_rays_match_per_ray_reference(self, k, view_threads, monkeypatch):
        from mbirnet import imaging
        monkeypatch.setattr(imaging, "_CHUNK_CROSSINGS", 100)  # 1 or 2 rays per run
        view_threads(k)
        for geom in (mn.CtGeometry(16, 8), mn.CtGeometry(31, 90, n_detectors=45)):
            _assert_equals_reference(mn.build_radon(geom).matrix, geom)

    def test_small_geometry_starts_no_thread(self, monkeypatch):
        import threading

        from mbirnet import imaging
        monkeypatch.setattr(imaging, "usable_cpus", lambda: 64)  # more CPUs do not split it
        geom = mn.CtGeometry(64, 23)
        assert geom.n_detectors * (2 * geom.n + 2) < imaging._MIN_VIEW_CROSSINGS

        def no_thread(*args, **kwargs):
            raise AssertionError("a small geometry started a thread")
        monkeypatch.setattr(threading, "Thread", no_thread)
        mn.build_radon(geom)

    def test_worker_exception_reaches_caller(self, view_threads, monkeypatch):
        import threading

        from mbirnet import imaging
        real_trace = imaging._trace_view

        def broken_in_worker(*args):
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("view failed")
            return real_trace(*args)
        monkeypatch.setattr(imaging, "_trace_view", broken_in_worker)
        view_threads(2)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="view failed"):
            mn.build_radon(mn.CtGeometry(16, 8))
        assert threading.active_count() == before

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc and glibc")
    def test_repeated_builds_return_their_memory(self):
        # a buffer that the calling thread frees after a worker allocated it
        # raises glibc's mmap threshold; later worker allocations then stay in
        # the worker's heap, which malloc_trim does not shrink
        script = "\n".join([
            "import ctypes, gc, re",
            "import mbirnet as mn",
            "from mbirnet import imaging",
            "imaging.usable_cpus = lambda: 2",
            "trim = getattr(ctypes.CDLL(None), 'malloc_trim', None)",
            "if trim is None:",
            "    raise SystemExit(5)",
            "rss = []",
            "for _ in range(3):",
            "    mn.build_radon(mn.CtGeometry(256, 180))",
            "    gc.collect()",
            "    trim(0)",
            "    with open('/proc/self/status') as fh:",
            "        rss.append(int(re.search(r'VmRSS:\\s+(\\d+)', fh.read()).group(1)) / 1024)",
            "print(*rss)",
        ])
        src = str(Path(mn.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        proc = subprocess.run([sys.executable, "-c", script], env=env, text=True,
                              capture_output=True, timeout=300)
        if proc.returncode == 5:
            pytest.skip("the C library has no malloc_trim")
        assert proc.returncode == 0, proc.stderr
        first, *later = (float(t) for t in proc.stdout.split())
        assert all(abs(mb - first) <= 16.0 for mb in later), proc.stdout


class TestSimulateCt:
    def _setup(self, n=16):
        geom = mn.CtGeometry(n, 8)
        return mn.shepp_logan(n), mn.build_radon(geom)

    def test_weight_formula(self):
        # p = 100, sigma2 = 25 -> w = 10000 / 125 = 80
        x = mn.ImageVector(np.zeros(4), (2, 2))
        op = mn.SparseMatrixOperator(np.zeros((3, 4)))
        y, w = mn.simulate_ct(x, op, incident=100.0, sigma2=25.0, noiseless=True)
        assert np.allclose(w, 80.0)

    def test_noiseless_exact_line_integrals(self):
        truth, a = self._setup()
        y, w = mn.simulate_ct(truth, a, 1e5, 0.0, noiseless=True)
        assert np.array_equal(y, a.forward(truth.data))
        assert np.allclose(w, 1e5 * np.exp(-y))

    def test_zero_image_zero_sinogram(self):
        _, a = self._setup()
        x = mn.ImageVector(np.zeros(a.in_dim), (16, 16))
        y, _ = mn.simulate_ct(x, a, 1e5, 0.0, noiseless=True)
        assert np.array_equal(y, np.zeros(a.out_dim))

    def test_noisy_path_seeded_and_weights_nonneg(self):
        truth, a = self._setup()
        y1, w1 = mn.simulate_ct(truth, a, 1e5, 25.0, seed=3)
        y2, w2 = mn.simulate_ct(truth, a, 1e5, 25.0, seed=3)
        assert np.array_equal(y1, y2) and np.array_equal(w1, w2)
        assert w1.min() >= 0.0

    def test_validation(self):
        truth, a = self._setup()
        with pytest.raises(ValueError):
            mn.simulate_ct(truth, a, 0.0, 25.0)
        with pytest.raises(ValueError):
            mn.simulate_ct(truth, a, 1e5, -1.0)


class TestBuildBlur:
    def test_delta_kernel_identity(self, rng):
        op = mn.build_blur(np.array([[1.0]]), (6, 6))
        x = rng.standard_normal(36)
        assert np.allclose(op.forward(x), x, atol=1e-14)

    def test_adjoint_tight(self, rng):
        op = mn.build_blur(rng.standard_normal((3, 3)), (8, 8))
        worst = 0.0
        for _ in range(50):
            u = rng.standard_normal(64)
            v = rng.standard_normal(64)
            worst = max(worst, abs(np.dot(op.forward(u), v) - np.dot(u, op.adjoint(v))))
        assert worst <= 1e-12 * 64

    def test_dc_gain_one(self):
        op = mn.build_blur(mn.binomial_kernel(0.3), (8, 8))
        const = np.full(64, 0.7)
        assert np.allclose(op.forward(const), const, atol=1e-12)

    def test_kernel_mix_validation(self):
        with pytest.raises(ValueError):
            mn.binomial_kernel(1.5)


class TestMetrics:
    def test_rmse_cases(self):
        a = mn.ImageVector(np.array([2.0, 2.0]), (1, 2))
        b = mn.ImageVector(np.array([0.0, 2.0]), (1, 2))
        assert mn.rmse(a, a) == 0.0
        assert mn.rmse(a, b) == pytest.approx(math.sqrt(2.0))
        c = mn.ImageVector(np.array([1.3, 1.3]), (1, 2))
        d = mn.ImageVector(np.array([0.3, 0.3]), (1, 2))
        assert mn.rmse(c, d) == pytest.approx(1.0)

    def test_rmse_roi_and_permutation_covariance(self, rng):
        img_a = rng.standard_normal((4, 4))
        img_b = rng.standard_normal((4, 4))
        roi = rng.random((4, 4)) > 0.4
        base = mn.rmse(img_a, img_b, roi)
        perm = rng.permutation(16)
        pa = img_a.ravel()[perm].reshape(4, 4)
        pb = img_b.ravel()[perm].reshape(4, 4)
        proi = roi.ravel()[perm].reshape(4, 4)
        assert mn.rmse(pa, pb, proi) == pytest.approx(base, rel=1e-12)

    def test_rmse_shape_mismatch(self):
        with pytest.raises(mn.ShapeError):
            mn.rmse(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_psnr_cases(self):
        a = np.full((2, 2), 0.5)
        assert mn.psnr(a, a, peak=1.0) == math.inf
        b = a + 1.0  # mse = 1 = peak^2
        assert mn.psnr(a, b, peak=1.0) == pytest.approx(0.0)
        c = a + 0.1  # mse = 0.01
        assert mn.psnr(a, c, peak=1.0) == pytest.approx(20.0)

    def test_psnr_validation(self):
        with pytest.raises(ValueError):
            mn.psnr(np.zeros((2, 2)), np.zeros((2, 2)), peak=0.0)
