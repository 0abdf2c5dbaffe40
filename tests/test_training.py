import numpy as np
import pytest

import mbirnet as mn
import mbirnet.training
from mbirnet.training import (dcnn_value_and_grad, extract_patches, scnn_value_and_grad)


class TestSelectGamma:
    def test_arithmetic(self):
        m = mn.DiagonalMajorizer(np.array([1.0, 11.0]))  # spread 10
        assert mn.select_gamma(m, 2.0) == pytest.approx(5.0)

    def test_scaled_identity_fallback(self):
        m = mn.DiagonalMajorizer(np.full(4, 6.0))
        assert mn.select_gamma(m, 3.0) == pytest.approx(2.0)

    def test_tuned_factor(self):
        m = mn.DiagonalMajorizer(np.array([1.0, 1.0 + 167.64]))
        assert mn.select_gamma(m, 167.64) == pytest.approx(1.0)

    def test_rounding_level_spread_counts_as_zero(self):
        # a spread of at most 1e-12 of the largest entry is rounding noise
        noisy = mn.DiagonalMajorizer(np.array([6.0, 6.0 * (1 + 4e-16), 6.0 * (1 + 5e-13)]))
        assert mn.select_gamma(noisy, 3.0) == pytest.approx(2.0, rel=1e-12)
        spread = mn.DiagonalMajorizer(np.array([6.0, 6.0 * (1 + 1e-11)]))
        assert mn.select_gamma(spread, 3.0) == pytest.approx(2e-11, rel=1e-3)

    def test_chi_validation(self):
        with pytest.raises(ValueError):
            mn.select_gamma(mn.DiagonalMajorizer(np.ones(2)), 0.0)
        with pytest.raises(ValueError):
            mn.select_gamma(mn.DiagonalMajorizer(np.ones(2)), 1e-320)

    def test_scale_covariance(self, rng):
        diag = rng.uniform(0.5, 5.0, 8)
        for c in (0.3, 2.0, 17.0):
            g1 = mn.select_gamma(mn.DiagonalMajorizer(diag), 4.2)
            g2 = mn.select_gamma(mn.DiagonalMajorizer(c * diag), 4.2)
            assert g2 == pytest.approx(c * g1, rel=1e-12)


class TestRefiningLoss:
    def test_exact_map_zero_loss(self, rng):
        pairs = [(rng.standard_normal((4, 4)),) * 2 for _ in range(3)]
        assert mn.refining_loss(mn.IdentityRefiner(), pairs) == 0.0

    def test_single_pair_hand_value(self):
        truth = np.array([[1.0, 0.0]])
        zero = lambda u: np.zeros_like(u)
        assert mn.refining_loss(zero, [(truth, truth)]) == pytest.approx(0.5)

    def test_permutation_invariance(self, rng):
        pairs = [(rng.standard_normal((3, 3)), rng.standard_normal((3, 3)))
                 for _ in range(4)]
        blur = lambda u: 0.5 * u
        a = mn.refining_loss(blur, pairs)
        b = mn.refining_loss(blur, pairs[::-1])
        assert a == pytest.approx(b, rel=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mn.refining_loss(mn.IdentityRefiner(), [])


def _fd_gradcheck(value_fn, params, grads, step=1e-5, max_coords=25):
    worst = 0.0
    for name, arr in params.items():
        it = np.nditer(arr, flags=["multi_index"])
        for _ in range(min(arr.size, max_coords)):
            mi = it.multi_index
            old = arr[mi]
            h = step * max(1.0, abs(old))
            arr[mi] = old + h
            lp = value_fn()
            arr[mi] = old - h
            lm = value_fn()
            arr[mi] = old
            fd = (lp - lm) / (2 * h)
            an = grads[name][mi]
            worst = max(worst, abs(fd - an) / max(1e-8, abs(fd), abs(an)))
            it.iternext()
    return worst


class TestAnalyticGradients:
    def test_scnn_matches_finite_differences(self, rng):
        enc = rng.uniform(-0.5, 0.5, (3, 3, 3))
        dec = rng.uniform(-0.5, 0.5, (3, 3, 3))
        thr = rng.normal(-2.0, 0.3, 3)
        inputs = rng.standard_normal((2, 8, 8))
        targets = rng.standard_normal((2, 8, 8))
        loss, grads = scnn_value_and_grad(enc, dec, thr, True, inputs, targets)
        worst = _fd_gradcheck(
            lambda: scnn_value_and_grad(enc, dec, thr, True, inputs, targets)[0],
            {"enc": enc, "dec": dec, "thr": thr}, grads)
        assert worst <= 1e-4

    def test_dcnn_matches_finite_differences(self, rng):
        first = rng.uniform(-0.4, 0.4, (3, 3, 3))
        mid = rng.uniform(-0.3, 0.3, (1, 3, 3, 3, 3))
        last = rng.uniform(-0.4, 0.4, (3, 3, 3))
        inputs = rng.standard_normal((2, 8, 8))
        targets = rng.standard_normal((2, 8, 8))
        loss, grads = dcnn_value_and_grad(first, mid, last, inputs, targets)
        worst = _fd_gradcheck(
            lambda: dcnn_value_and_grad(first, mid, last, inputs, targets)[0],
            {"first": first, "mid": mid, "last": last}, grads)
        assert worst <= 1e-4

    @staticmethod
    def _loss(ref, inputs, targets):
        if isinstance(ref, mn.ScnnRefiner):
            return scnn_value_and_grad(np.asarray(ref.enc_filters), np.asarray(ref.dec_filters),
                                       np.asarray(ref.log_thresholds), ref.residual,
                                       inputs, targets)[0]
        return dcnn_value_and_grad(np.asarray(ref.first_filters), np.asarray(ref.mid_filters),
                                   np.asarray(ref.last_filters), inputs, targets)[0]

    @pytest.mark.parametrize("arch", ["scnn", "dcnn"])
    def test_loss_matches_refining_loss(self, rng, arch):
        if arch == "scnn":
            ref = mn.ScnnRefiner.init_random(2, 9, rng)
        else:
            ref = mn.DcnnRefiner.init_random(2, 9, 3, rng)
        inputs = rng.standard_normal((3, 8, 8))
        targets = rng.standard_normal((3, 8, 8))
        pairs = list(zip(targets, inputs))
        assert self._loss(ref, inputs, targets) == pytest.approx(
            mn.refining_loss(ref, pairs), rel=1e-12)

    @pytest.mark.parametrize("arch", ["scnn", "dcnn"])
    def test_single_image_loss_is_the_refiner_forward_bitwise(self, rng, arch):
        # at this size numpy evaluates a product with a temporary operand in
        # place, with the operands swapped, and complex products are not
        # bitwise commutative: both paths must still compute the same bits
        if arch == "scnn":
            ref = mn.ScnnRefiner.init_random(25, 25, rng)
        else:
            ref = mn.DcnnRefiner.init_random(25, 25, 3, rng)
        u = rng.standard_normal((1, 64, 64))
        assert self._loss(ref, u, ref(u[0])[None]) == 0.0


class TestTrainRefiner:
    def _pairs(self, rng, count=4):
        return [(rng.standard_normal((6, 6)), rng.standard_normal((6, 6)))
                for _ in range(count)]

    def test_zero_learning_rates_leave_parameters(self, rng):
        init = mn.ScnnRefiner.init_random(2, 9, rng)
        cfg = mn.TrainConfig(batch_size=4, epochs=3, lr_filters=0.0, lr_thresholds=0.0)
        out, history = mn.train_refiner(init, self._pairs(rng), cfg)
        assert np.array_equal(out.enc_filters, init.enc_filters)
        assert np.array_equal(out.dec_filters, init.dec_filters)
        assert np.array_equal(out.log_thresholds, init.log_thresholds)
        assert len(set(history)) == 1

    def test_full_batch_fixed_seed_bit_reproducible(self, rng):
        init = mn.ScnnRefiner.init_random(2, 9, rng)
        pairs = self._pairs(rng)
        cfg = mn.TrainConfig(batch_size=4, epochs=10, seed=11)
        a, ha = mn.train_refiner(init, pairs, cfg)
        b, hb = mn.train_refiner(init, pairs, cfg)
        assert np.array_equal(a.enc_filters, b.enc_filters)
        assert np.array_equal(a.dec_filters, b.dec_filters)
        assert np.array_equal(a.log_thresholds, b.log_thresholds)
        assert ha == hb

    def test_one_parameter_regression_reaches_zero_loss(self, rng):
        # scalar filter model on exactly representable data: w * x with w = 2;
        # the threshold is pinned at its floor so the map is effectively linear
        x = rng.standard_normal((8, 5, 5))
        pairs = [(2.0 * xi, xi) for xi in x]
        init = mn.ScnnRefiner(np.array([[[1.0]]]), np.array([[[0.5]]]),
                              np.array([-800.0]), residual=False)
        cfg = mn.TrainConfig(batch_size=8, epochs=500, lr_filters=0.3,
                             lr_thresholds=0.0, lr_decay=0.2, seed=0)
        out, history = mn.train_refiner(init, pairs, cfg)
        assert history[-1] < 1e-8
        assert mn.refining_loss(out, pairs) < 1e-8

    def test_dcnn_trains(self, rng):
        init = mn.DcnnRefiner.init_random(2, 9, 3, rng)
        cfg = mn.TrainConfig(batch_size=4, epochs=5, seed=2)
        out, history = mn.train_refiner(init, self._pairs(rng), cfg)
        assert len(history) == 5
        assert history[-1] <= history[0]

    def test_nonfinite_loss_aborts_with_history(self, rng):
        init = mn.ScnnRefiner.init_random(1, 1, rng)
        huge = np.full((4, 4), 1e300)
        pairs = [(huge, huge)]
        cfg = mn.TrainConfig(batch_size=1, epochs=3, seed=0)
        with pytest.raises(mn.TrainingAborted) as err:
            with np.errstate(over="ignore", invalid="ignore"):
                mn.train_refiner(init, pairs, cfg)
        assert isinstance(err.value.history, list)

    def test_untrainable_type_rejected(self, tf_bank4, rng):
        tied = mn.TiedCaolRefiner(tf_bank4, np.zeros(4))
        with pytest.raises(TypeError):
            mn.train_refiner(tied, self._pairs(rng), mn.TrainConfig(batch_size=1, epochs=1))


def _toy_samples(rng, count=3, n=12):
    geom = mn.CtGeometry(n, 6)
    op = mn.build_radon(geom)
    samples = []
    for i in range(count):
        truth = mn.random_ellipse_phantom(16, rng)
        # crop to n x n via rerendering at size n
        truth = mn.ImageVector.from_2d(truth.as_2d()[:n, :n]) if n < 16 else truth
        y, w = mn.simulate_ct(truth, op, 1e5, 25.0, seed=50 + i)
        samples.append(mn.TrainingSample.build(truth, mn.QuadraticDataFit(op, w, y), 10.0))
    return samples


class TestGreedyTrain:
    def test_single_stage_reduces_to_train_refiner(self, rng):
        samples = _toy_samples(rng)
        arch = mn.RefinerArch("scnn", n_filters=2, filter_size=9)
        net_cfg = mn.MomentumNetConfig(n_iter=1, rho=0.5, chi=10.0,
                                       record_fixed_point=False)
        train_cfg = mn.TrainConfig(batch_size=3, epochs=4, seed=9)
        refiners, histories = mn.greedy_train(samples, arch, net_cfg, train_cfg)
        assert len(refiners) == 1 and len(histories) == 1

        # replicate the internal stream: init draw, then one stage seed draw
        mirror = np.random.default_rng(9)
        init = arch.build(mirror)
        stage_rng = np.random.default_rng(mirror.integers(0, 2**63 - 1))
        pairs = [(s.truth.as_2d(),
                  mn.backprojection_init(s.datafit, s.truth.shape).as_2d())
                 for s in samples]
        direct, history = mn.train_refiner(init, pairs, train_cfg, rng=stage_rng)
        assert np.array_equal(refiners[0].enc_filters, direct.enc_filters)
        assert histories[0] == history

    @pytest.mark.parametrize("stages, steps", [(1, 0), (2, 3)])
    def test_no_advance_after_the_last_stage(self, rng, monkeypatch, stages, steps):
        # an advance steps each of the 3 samples once; the last stage's would feed nothing
        step = mbirnet.training.momentum_net_step
        calls = []

        def counting_step(*args, **kwargs):
            calls.append(1)
            return step(*args, **kwargs)
        monkeypatch.setattr(mbirnet.training, "momentum_net_step", counting_step)
        samples = _toy_samples(rng)
        arch = mn.RefinerArch("scnn", n_filters=2, filter_size=9)
        net_cfg = mn.MomentumNetConfig(n_iter=stages, rho=0.5, chi=10.0,
                                       record_fixed_point=False)
        refiners, _ = mn.greedy_train(samples, arch, net_cfg,
                                      mn.TrainConfig(batch_size=3, epochs=2, seed=9))
        assert len(refiners) == stages
        assert len(calls) == steps

    def test_truth_start_keeps_loss_small(self, rng):
        samples = _toy_samples(rng)
        samples = [mn.TrainingSample(s.truth, s.datafit, s.gamma, s.majorizer,
                                     x0=s.truth) for s in samples]
        arch = mn.RefinerArch("scnn", n_filters=2, filter_size=9)
        net_cfg = mn.MomentumNetConfig(n_iter=2, rho=0.5, chi=10.0,
                                       record_fixed_point=False)
        train_cfg = mn.TrainConfig(batch_size=3, epochs=60, lr_filters=5e-3, seed=9)
        refiners, histories = mn.greedy_train(samples, arch, net_cfg, train_cfg)
        # residual architecture can represent the identity, so loss stays small
        assert histories[0][-1] < 0.2 * histories[0][0]

    def test_requires_stage(self, rng):
        samples = _toy_samples(rng)
        arch = mn.RefinerArch("scnn", n_filters=2, filter_size=9)
        with pytest.raises(ValueError):
            mn.greedy_train(samples, arch,
                            mn.MomentumNetConfig(n_iter=0, chi=10.0),
                            mn.TrainConfig(batch_size=1, epochs=1))


class TestPatchLossBound:
    def test_zero_filters_equality(self, rng):
        ref = mn.ScnnRefiner(np.zeros((2, 3, 3)), np.zeros((2, 3, 3)), np.zeros(2),
                             residual=False)
        from mbirnet.training import _patch_bound_sides
        data = [(rng.standard_normal((6, 6)), rng.standard_normal((6, 6)))]
        left, right = _patch_bound_sides(data, np.zeros((2, 3, 3)), np.zeros((2, 3, 3)),
                                         np.ones(2))
        # every pixel appears in R patches, so the two sides coincide
        assert left == pytest.approx(right, rel=1e-12)

    def test_random_draws_zero_violations(self, rng):
        ref = mn.ScnnRefiner(np.zeros((3, 3, 3)), np.zeros((3, 3, 3)), np.zeros(3),
                             residual=False)
        report = mn.patch_loss_bound_check(ref, None, trials=25, seed=4)
        assert report.ok

    def test_single_pixel_r1_identical_sides(self, rng):
        ref = mn.ScnnRefiner(np.zeros((1, 1, 1)), np.zeros((1, 1, 1)), np.zeros(1),
                             residual=False)
        from mbirnet.training import _patch_bound_sides
        img = rng.standard_normal((1, 1))
        left, right = _patch_bound_sides([(img, img)], rng.standard_normal((1, 1, 1)),
                                         rng.standard_normal((1, 1, 1)),
                                         np.abs(rng.normal(size=1)))
        assert left == pytest.approx(right, rel=1e-12)

    def test_even_filter_side_rejected(self, rng):
        ref = mn.ScnnRefiner(np.zeros((1, 2, 2)), np.zeros((1, 2, 2)), np.zeros(1))
        with pytest.raises(ValueError):
            mn.patch_loss_bound_check(ref, None, trials=1)

    def test_patch_extraction_matches_convolution(self, rng):
        # E @ patches must reproduce the stacked analysis coefficients
        from mbirnet.refiners import conv_stack, filter_fft
        img = rng.standard_normal((7, 7))
        filt = rng.standard_normal((1, 3, 3))
        conv = conv_stack(filter_fft(filt, img.shape), img)[0]
        patches = extract_patches(img, 3)
        assert np.allclose(filt.reshape(1, 9) @ patches, conv.ravel(), atol=1e-12)


class TestTrainingSample:
    def test_gamma_positive(self, rng):
        f = mn.QuadraticDataFit(mn.SparseMatrixOperator(np.eye(4)), np.ones(4), np.zeros(4))
        truth = mn.ImageVector(np.zeros(4), (2, 2))
        with pytest.raises(ValueError):
            mn.TrainingSample(truth, f, 0.0, mn.DiagonalMajorizer(np.ones(4)))

    def test_build_wires_majorizer(self, rng):
        f = mn.QuadraticDataFit(mn.SparseMatrixOperator(np.eye(4)), np.full(4, 2.0), np.zeros(4))
        truth = mn.ImageVector(np.zeros(4), (2, 2))
        s = mn.TrainingSample.build(truth, f, chi=4.0)
        # identity operator: majorizer = weights, zero spread, fallback max/chi
        assert s.gamma == pytest.approx(0.5)
        assert np.allclose(s.majorizer.diag, 2.5)
        assert np.array_equal(s.measurements, f.measurements)
