import math

import numpy as np
import pytest

import mbirnet as mn


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
        from mbirnet.imaging import _siddon_ray
        idx, lengths = _siddon_ray(2, 1.0, 0.0, -0.5)
        assert sorted(idx.tolist()) == [0, 2]  # pixels (0,0) and (1,0)
        assert np.allclose(lengths, [1.0, 1.0])
        idx, lengths = _siddon_ray(2, 1.0, math.radians(90.0), 0.5)
        assert sorted(idx.tolist()) == [0, 1]  # top row
        assert np.allclose(lengths, [1.0, 1.0])
        # diagonal ray through the center crosses two full pixel diagonals
        idx, lengths = _siddon_ray(2, 1.0, math.radians(45.0), 0.0)
        assert np.allclose(sorted(lengths), [math.sqrt(2.0)] * 2)


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
