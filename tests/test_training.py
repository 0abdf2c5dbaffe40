import tracemalloc

import numpy as np
import pytest
import scipy.fft

import mbirnet as mn
import mbirnet.solver
import mbirnet.training
from mbirnet.prox import soft_threshold
from mbirnet.refiners import THRESHOLD_FLOOR, _shift_stack, filter_fft
from mbirnet.training import _scnn_workspace, dcnn_value_and_grad, scnn_value_and_grad


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


def _extract_taps(full, rh, rw):
    """Read filter-tap gradients back out of full-size correlation images."""
    h, w = full.shape[-2:]
    rows = (np.arange(rh) - rh // 2) % h
    cols = (np.arange(rw) - rw // 2) % w
    return full[..., rows[:, None], cols[None, :]]


def _reference_scnn_value_and_grad(enc, dec, log_thr, residual, inputs, targets):
    """The sCNN loss and gradients with every convolution and correlation taken
    as a product of spectra: the independent reference for the spatial-domain
    backward pass.  The forward runs on the refiners' FFT library (scipy.fft),
    so its loss equals the program's bit for bit at every image size."""
    b, h, w = inputs.shape
    shape = (h, w)
    rh, rw = enc.shape[1], enc.shape[2]
    thr = np.maximum(np.exp(log_thr), THRESHOLD_FLOOR)
    dthr = np.where(np.exp(log_thr) >= THRESHOLD_FLOOR, np.exp(log_thr), 0.0)

    ehat, dhat = filter_fft(enc, shape), filter_fft(dec, shape)
    uhat = scipy.fft.rfft2(inputs, axes=(-2, -1))
    hidden = soft_threshold(scipy.fft.irfft2(ehat[:, None] * uhat[None], s=shape, axes=(-2, -1)),
                            thr[:, None, None, None])
    hhat = scipy.fft.rfft2(hidden, axes=(-2, -1))
    out = scipy.fft.irfft2(np.sum(hhat * dhat[:, None], axis=0), s=shape, axes=(-2, -1))
    if residual:
        out = out + inputs
    resid = out - targets
    loss = 0.5 * float(np.sum(resid * resid)) / b

    ghat = np.fft.rfft2(resid / b, axes=(-2, -1))
    g_dec = _extract_taps(
        np.fft.irfft2(np.conj(hhat) * ghat[None], s=shape, axes=(-2, -1)).sum(axis=1), rh, rw)
    g_hidden = np.fft.irfft2(np.conj(dhat)[:, None] * ghat[None], s=shape, axes=(-2, -1))
    g_thr = -dthr * np.sum(g_hidden * np.sign(hidden), axis=(1, 2, 3))
    g_code_hat = np.fft.rfft2(np.where(hidden != 0.0, g_hidden, 0.0), axes=(-2, -1))
    g_enc = _extract_taps(
        np.fft.irfft2(np.conj(uhat)[None] * g_code_hat, s=shape, axes=(-2, -1)).sum(axis=1), rh, rw)
    return loss, {"enc_filters": g_enc, "dec_filters": g_dec, "log_thresholds": g_thr}


class TestScnnSpatialBackward:
    @pytest.mark.parametrize("k, rh, rw, b, h, w, residual, pinned", [
        (3, 3, 3, 2, 9, 12, True, False),    # non-square images
        (2, 1, 1, 3, 6, 6, True, False),     # r = 1
        (25, 5, 5, 10, 16, 16, True, False),  # K = R = 25, the trained size
        (4, 5, 5, 2, 5, 5, True, False),     # filter as large as the image
        (4, 3, 3, 2, 7, 5, True, False),     # K != R
        (3, 3, 5, 2, 8, 9, True, False),     # non-square filters
        (3, 2, 2, 2, 6, 7, True, False),     # even side: no tap at -o
        (3, 3, 3, 1, 8, 8, True, False),     # B = 1
        (3, 3, 3, 2, 8, 8, False, False),    # residual=False
        (3, 3, 3, 2, 8, 8, True, True),      # thresholds pinned at the floor
    ])
    def test_matches_fft_reference(self, rng, k, rh, rw, b, h, w, residual, pinned):
        enc = rng.uniform(-0.5, 0.5, (k, rh, rw))
        dec = rng.uniform(-0.5, 0.5, (k, rh, rw))
        log_thr = rng.normal(-1.5, 0.5, k)
        if pinned:
            log_thr[::2] = -800.0  # exp underflows, so the floor is the threshold
        inputs = rng.standard_normal((b, h, w))
        targets = rng.standard_normal((b, h, w))
        loss, grads = scnn_value_and_grad(enc, dec, log_thr, residual, inputs, targets)
        ref_loss, ref = _reference_scnn_value_and_grad(enc, dec, log_thr, residual,
                                                       inputs, targets)
        assert loss == ref_loss  # one forward for both
        for name in ("enc_filters", "dec_filters", "log_thresholds"):
            assert grads[name].shape == ref[name].shape
            scale = np.max(np.abs(ref[name]))
            assert scale > 0
            assert np.max(np.abs(grads[name] - ref[name])) <= 1e-12 * scale, name
        if pinned:
            assert np.all(grads["log_thresholds"][::2] == 0.0)

    def test_runs_without_numpy_fft(self, rng, monkeypatch):
        def no_fft(*args, **kwargs):
            raise AssertionError("the sCNN ran a numpy.fft transform")

        scnn = mn.ScnnRefiner.init_random(4, 9, rng)
        tied = mn.TiedCaolRefiner(mn.make_tf_filterbank(4), np.full(4, 0.1))
        u = rng.standard_normal((2, 8, 8))
        monkeypatch.setattr(np.fft, "rfft2", no_fft)
        monkeypatch.setattr(np.fft, "irfft2", no_fft)
        assert scnn(u[0]).shape == tied(u[0]).shape == (8, 8)
        scnn_value_and_grad(np.asarray(scnn.enc_filters), np.asarray(scnn.dec_filters),
                            np.asarray(scnn.log_thresholds), True, u, u)


def _scnn_params(rng, k, r):
    return (rng.uniform(-0.3, 0.3, (k, r, r)), rng.uniform(-0.3, 0.3, (k, r, r)),
            rng.normal(-1.5, 0.5, k))


class TestScnnWorkspace:
    @pytest.mark.parametrize("residual", [True, False])
    def test_bits_equal_the_allocating_call(self, rng, residual):
        enc, dec, log_thr = _scnn_params(rng, 9, 3)
        inputs = rng.standard_normal((5, 12, 10))
        targets = rng.standard_normal((5, 12, 10))
        work = _scnn_workspace(9, 9, 5 * 12 * 10)
        for buf in work:
            buf.fill(np.nan)  # stale contents must not leak into the result
        # a full batch, then a short last batch on leading views of the same
        # buffers, then the full batch again over what the short one left
        for b in (5, 2, 5):
            loss, grads = scnn_value_and_grad(enc, dec, log_thr, residual,
                                              inputs[:b], targets[:b], work)
            ref_loss, ref = scnn_value_and_grad(enc, dec, log_thr, residual,
                                                inputs[:b], targets[:b])
            assert loss == ref_loss
            for name in ("enc_filters", "dec_filters", "log_thresholds"):
                assert grads[name].tobytes() == ref[name].tobytes(), (b, name)

    def test_too_small_workspace_rejected(self, rng):
        enc, dec, log_thr = _scnn_params(rng, 4, 3)
        u = rng.standard_normal((3, 8, 8))
        with pytest.raises(ValueError):
            scnn_value_and_grad(enc, dec, log_thr, True, u, u, _scnn_workspace(4, 9, 2 * 64))

    def test_gradient_peak_in_a_workspace(self, rng):
        # K = R = 25, B = 10, 64x64: the two (25, 40960) buffers are 8.2 MB
        # each; what the gradient allocates beside them stays below one
        enc, dec, log_thr = _scnn_params(rng, 25, 5)
        inputs = rng.standard_normal((10, 64, 64))
        targets = rng.standard_normal((10, 64, 64))
        work = _scnn_workspace(25, 25, 10 * 64 * 64)
        tracemalloc.start()
        try:
            scnn_value_and_grad(enc, dec, log_thr, True, inputs, targets, work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6

    def test_workspace_and_gradient_peak(self, rng):
        # K = R = 25, B = 10, 64x64: the workspace holds two 8.2 MB buffers (the
        # code gradient goes over the codes), and the call adds less than one
        enc, dec, log_thr = _scnn_params(rng, 25, 5)
        inputs = rng.standard_normal((10, 64, 64))
        targets = rng.standard_normal((10, 64, 64))
        tracemalloc.start()
        try:
            work = _scnn_workspace(25, 25, 10 * 64 * 64)
            scnn_value_and_grad(enc, dec, log_thr, True, inputs, targets, work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24e6


@pytest.mark.parametrize("k, n", [(25, 40960), (3, 1000), (7, 5), (1, 1), (4, 0)])
def test_rowwise_threshold_gradient_sum_is_bitwise(rng, k, n):
    # scnn_value_and_grad reduces each code row on its own; every row must
    # reduce exactly as the axis-1 sum of the whole (K, N) product does,
    # with codes and gradients that hold zeros of both signs
    hidden = rng.standard_normal((k, n))
    hidden[rng.random((k, n)) < 0.4] = 0.0
    hidden[rng.random((k, n)) < 0.2] = -0.0
    grad = rng.standard_normal((k, n))
    grad[rng.random((k, n)) < 0.2] = -0.0
    rows, row = np.empty(k), np.empty(n)
    for i in range(k):  # the reused row buffer of scnn_value_and_grad
        np.sign(hidden[i], out=row)
        row *= grad[i]
        rows[i] = np.sum(row)
    whole = np.sum(grad * np.sign(hidden), axis=1)
    assert rows.tobytes() == whole.tobytes()


def test_code_gradient_mask_by_bits_is_copyto(rng):
    # scnn_value_and_grad zeroes the code gradient where a code is zero by
    # multiplying its int64 bits by the mask; that must equal the copyto it
    # replaces on every value, signed zeros, infinities and NaNs included
    hidden = rng.standard_normal((6, 500))
    hidden[rng.random(hidden.shape) < 0.5] = 0.0
    hidden[rng.random(hidden.shape) < 0.1] = -0.0
    grad = rng.standard_normal(hidden.shape)
    for value, share in [(-0.0, 0.1), (np.inf, 0.02), (-np.inf, 0.02), (np.nan, 0.02)]:
        grad[rng.random(hidden.shape) < share] = value
    want = grad.copy()
    np.copyto(want, 0.0, where=hidden == 0.0)
    got = grad.view(np.int64)
    got *= hidden != 0.0
    assert grad.tobytes() == want.tobytes()


def test_code_signs_in_int8_are_the_float_signs(rng):
    # scnn_value_and_grad keeps the codes' signs as int8 and copies them back
    # into float64 rows; soft_threshold writes no -0.0 and no NaN, so that
    # round trip must give np.sign of every code, byte for byte, ties, signed
    # zeros, infinities and NaNs in its inputs included
    alpha = np.array([0.0, 0.5, 1.0, np.inf, 1e-300, 2.0])[:, None]
    u = rng.standard_normal((alpha.size, 400)) * 2.0
    for value, share in [(0.0, 0.1), (-0.0, 0.1), (np.inf, 0.05), (-np.inf, 0.05),
                         (np.nan, 0.05), (-np.nan, 0.05)]:
        u[rng.random(u.shape) < share] = value
    ties = rng.random(u.shape) < 0.1
    u[ties] = np.broadcast_to(alpha, u.shape)[ties] * rng.choice([-1.0, 1.0], u.shape)[ties]
    with np.errstate(invalid="ignore"):  # inf - inf at infinite ties
        codes = soft_threshold(u, alpha)
    signs = np.empty(codes.shape, np.int8)
    np.sign(codes, out=signs, casting="unsafe")
    row = np.empty(codes.shape[1])
    for i in range(codes.shape[0]):  # the reused row buffer of scnn_value_and_grad
        np.copyto(row, signs[i])
        assert row.tobytes() == np.sign(codes[i]).tobytes(), i
    assert np.array_equal(signs != 0, codes != 0)


@pytest.mark.parametrize("k, b, h, w", [(25, 10, 64, 33), (3, 2, 9, 7), (4, 1, 5, 3)])
def test_inplace_filter_sum_is_bitwise(rng, k, b, h, w):
    # refiners._scnn_forward multiplies the code spectra by the decoder's in
    # place before the K-sum; that must equal the product-then-sum, bit for bit
    def spectra(*shape):
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        z.real[rng.random(shape) < 0.2] = 0.0
        z.imag[rng.random(shape) < 0.2] = -0.0
        return z

    hhat, dhat = spectra(k, b, h, w), spectra(k, h, w)
    dhat[0] = -0.0
    expect = np.sum(hhat * dhat[:, None], axis=0)
    hhat *= dhat[:, None]
    assert np.sum(hhat, axis=0).tobytes() == expect.tobytes()


def _reference_dcnn_value_and_grad(first, mid, last, inputs, targets):
    """The dCNN loss and gradients with every convolution and correlation taken
    as a product of spectra: the independent reference for the shift-stack
    forward and backward passes."""
    b, h, w = inputs.shape
    shape = (h, w)
    rh, rw = first.shape[1], first.shape[2]

    uhat = np.fft.rfft2(inputs, axes=(-2, -1))
    feat = np.maximum(np.fft.irfft2(filter_fft(first, shape)[:, None] * uhat[None],
                                    s=shape, axes=(-2, -1)), 0.0)
    feats, feat_hats, mhats = [feat], [np.fft.rfft2(feat, axes=(-2, -1))], []
    for layer in mid:
        mhat = np.stack([filter_fft(layer[k], shape) for k in range(layer.shape[0])])
        mixed = np.einsum("kcab,cnab->knab", mhat, feat_hats[-1])
        feat = np.maximum(np.fft.irfft2(mixed, s=shape, axes=(-2, -1)), 0.0)
        mhats.append(mhat)
        feats.append(feat)
        feat_hats.append(np.fft.rfft2(feat, axes=(-2, -1)))
    lhat = filter_fft(last, shape)
    out = inputs - np.fft.irfft2(np.sum(feat_hats[-1] * lhat[:, None], axis=0),
                                 s=shape, axes=(-2, -1))
    resid = out - targets
    loss = 0.5 * float(np.sum(resid * resid)) / b

    ghat = np.fft.rfft2(resid / b, axes=(-2, -1))
    g_last = -_extract_taps(
        np.fft.irfft2(np.conj(feat_hats[-1]) * ghat[None], s=shape, axes=(-2, -1)).sum(axis=1),
        rh, rw)
    g_feat = -np.fft.irfft2(np.conj(lhat)[:, None] * ghat[None], s=shape, axes=(-2, -1))
    g_mid = np.zeros_like(mid)
    for li in range(mid.shape[0] - 1, -1, -1):
        g_pre_hat = np.fft.rfft2(np.where(feats[li + 1] > 0, g_feat, 0.0), axes=(-2, -1))
        corr = np.fft.irfft2(np.conj(feat_hats[li])[None] * g_pre_hat[:, None],
                             s=shape, axes=(-2, -1))  # (K, K, B, h, w)
        g_mid[li] = _extract_taps(corr.sum(axis=2), rh, rw)
        g_feat = np.fft.irfft2(np.einsum("kcab,knab->cnab", np.conj(mhats[li]), g_pre_hat),
                               s=shape, axes=(-2, -1))
    g_pre_hat = np.fft.rfft2(np.where(feats[0] > 0, g_feat, 0.0), axes=(-2, -1))
    g_first = _extract_taps(
        np.fft.irfft2(np.conj(uhat)[None] * g_pre_hat, s=shape, axes=(-2, -1)).sum(axis=1), rh, rw)
    return loss, {"first_filters": g_first, "mid_filters": g_mid, "last_filters": g_last}


class TestDcnnShiftStack:
    @pytest.mark.parametrize("k, n_layers, r, b, h, w", [
        (3, 2, 3, 2, 9, 12),    # L = 2, non-square images
        (3, 3, 3, 2, 7, 10),    # L = 3, non-square images
        (3, 4, 3, 2, 8, 8),     # L = 4
        (2, 3, 1, 2, 6, 6),     # r = 1
        (3, 3, 2, 2, 6, 7),     # r = 2: even side, no tap at -o
        (3, 3, 5, 2, 5, 5),     # filter as large as the image
        (3, 3, 3, 1, 8, 8),     # B = 1
        (25, 3, 5, 1, 64, 64),  # K = R = 25 at 64x64
    ])
    def test_matches_fft_reference(self, rng, k, n_layers, r, b, h, w):
        ref = mn.DcnnRefiner.init_random(k, r * r, n_layers, rng)
        first, mid, last = (np.asarray(a) for a in (ref.first_filters, ref.mid_filters,
                                                     ref.last_filters))
        inputs = rng.standard_normal((b, h, w))
        targets = rng.standard_normal((b, h, w))
        loss, grads = dcnn_value_and_grad(first, mid, last, inputs, targets)
        ref_loss, expect = _reference_dcnn_value_and_grad(first, mid, last, inputs, targets)
        assert loss == pytest.approx(ref_loss, rel=1e-12, abs=0.0)
        for name in ("first_filters", "mid_filters", "last_filters"):
            assert grads[name].shape == expect[name].shape
            if expect[name].size == 0:
                continue
            scale = np.max(np.abs(expect[name]))
            assert scale > 0
            assert np.max(np.abs(grads[name] - expect[name])) <= 1e-12 * scale, name

    def test_runs_without_fft(self, rng, monkeypatch):
        def no_fft(*args, **kwargs):
            raise AssertionError("the dCNN ran an FFT")

        ref = mn.DcnnRefiner.init_random(3, 9, 3, rng)
        u = rng.standard_normal((2, 8, 8))
        for module in (np.fft, scipy.fft):
            monkeypatch.setattr(module, "rfft2", no_fft)
            monkeypatch.setattr(module, "irfft2", no_fft)
        assert ref(u[0]).shape == (8, 8)
        dcnn_value_and_grad(np.asarray(ref.first_filters), np.asarray(ref.mid_filters),
                            np.asarray(ref.last_filters), u, u)


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
            {"enc_filters": enc, "dec_filters": dec, "log_thresholds": thr}, grads)
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
            {"first_filters": first, "mid_filters": mid, "last_filters": last}, grads)
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
    def test_loss_matches_the_per_image_residual_sum(self, rng, arch):
        if arch == "scnn":
            ref = mn.ScnnRefiner.init_random(2, 9, rng)
        else:
            ref = mn.DcnnRefiner.init_random(2, 9, 3, rng)
        inputs = rng.standard_normal((3, 8, 8))
        targets = rng.standard_normal((3, 8, 8))
        # (1/2B) sum_b ||t_b - R(u_b)||^2, one refiner call per image
        want = 0.5 * sum(np.sum((t - ref(u)) ** 2) for t, u in zip(targets, inputs)) / 3
        assert self._loss(ref, inputs, targets) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("arch", ["scnn", "dcnn"])
    def test_single_image_loss_is_the_refiner_forward_bitwise(self, rng, arch):
        # sCNN: at this size numpy evaluates a product with a temporary operand
        # in place, with the operands swapped, and complex products are not
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
        assert 0.5 * np.mean([np.sum((t - out(u)) ** 2) for t, u in pairs]) < 1e-8

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

    @pytest.mark.parametrize("key", ["lr_filters", "lr_thresholds"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0])
    def test_bad_learning_rate_names_itself(self, key, value):
        with pytest.raises(ValueError, match=f"{key} must be finite and >= 0"):
            mn.TrainConfig(batch_size=1, epochs=1, **{key: value})

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
        samples.append(mn.TrainingSample(truth, mn.QuadraticDataFit(op, w, y)))
    return samples


class TestAdam:
    def test_steps_equal_a_hand_written_update(self, rng):
        params = {"a": rng.standard_normal((2, 3)), "b": rng.standard_normal(4)}
        lrs = {"a": 1e-2, "b": 0.3}
        want = {k: p.copy() for k, p in params.items()}
        m = {k: np.zeros_like(p) for k, p in params.items()}
        v = {k: np.zeros_like(p) for k, p in params.items()}
        opt = mbirnet.training.Adam(params)
        for t in (1, 2, 3):
            grads = {k: rng.standard_normal(p.shape) for k, p in params.items()}
            opt.step(params, grads, lrs)
            for k, g in grads.items():
                m[k] = 0.9 * m[k] + (1.0 - 0.9) * g
                v[k] = 0.999 * v[k] + (1.0 - 0.999) * (g * g)
                m_hat = m[k] / (1.0 - 0.9 ** t)
                v_hat = v[k] / (1.0 - 0.999 ** t)
                want[k] -= lrs[k] * m_hat / (np.sqrt(v_hat) + 1e-8)
            if t != 2:  # one step, then three
                for k in params:
                    assert params[k].tobytes() == want[k].tobytes(), (t, k)


class TestOneObjectivePerDataFit:
    """A run builds its data fit's MBIR objective once; training and
    diagnostics build each sample's once."""

    @pytest.fixture
    def built(self, monkeypatch):
        built = []
        post_init = mn.MbirObjective.__post_init__

        def counting(obj):
            built.append(obj)
            post_init(obj)
        monkeypatch.setattr(mn.MbirObjective, "__post_init__", counting)
        return built

    @pytest.mark.parametrize("n_iter", [2, 5])
    @pytest.mark.parametrize("solver", ["momentum", "bcd"])
    def test_once_per_solver_run(self, rng, built, solver, n_iter):
        s = _toy_samples(rng, count=1)[0]
        cfg = mn.MomentumNetConfig(n_iter=n_iter, rho=0.5, chi=10.0)  # fixed-point record on
        x0 = mn.backprojection_init(s.datafit, s.truth.shape)
        if solver == "bcd":
            trace = mn.run_bcd_net(cfg, [mn.IdentityRefiner()], s.datafit,
                                   mn.FeasibleSet.nonneg(), x0, inner_iters=3)
        else:
            trace = mn.run_momentum_net(cfg, [mn.IdentityRefiner()], s.datafit,
                                        mn.FeasibleSet.nonneg(), x0)
            assert all(np.isfinite(r.fixed_point_residual) for r in trace.records[1:])
        assert len(trace) == n_iter + 1 and not trace.aborted
        assert len(built) == 1 and built[0].datafit is s.datafit

    def test_once_per_sample_in_training_and_diagnostics(self, rng, built):
        samples = _toy_samples(rng)
        arch = mn.RefinerArch("scnn", n_filters=2, filter_size=9)
        net_cfg = mn.MomentumNetConfig(n_iter=3, rho=0.5, chi=10.0)
        refiners, _ = mn.greedy_train(samples, arch, net_cfg,
                                      mn.TrainConfig(batch_size=3, epochs=1, seed=9))
        assert [id(obj.datafit) for obj in built] == [id(s.datafit) for s in samples]
        built.clear()
        mn.run_diagnostics(refiners, samples, net_cfg, mn.FeasibleSet.nonneg(), n_pairs=3)
        assert [id(obj.datafit) for obj in built] == [id(s.datafit) for s in samples]


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
        step = mbirnet.solver.momentum_net_step
        calls = []

        def counting_step(*args, **kwargs):
            calls.append(1)
            return step(*args, **kwargs)
        monkeypatch.setattr(mbirnet.solver, "momentum_net_step", counting_step)
        samples = _toy_samples(rng)
        arch = mn.RefinerArch("scnn", n_filters=2, filter_size=9)
        net_cfg = mn.MomentumNetConfig(n_iter=stages, rho=0.5, chi=10.0,
                                       record_fixed_point=False)
        refiners, _ = mn.greedy_train(samples, arch, net_cfg,
                                      mn.TrainConfig(batch_size=3, epochs=2, seed=9))
        assert len(refiners) == stages
        assert len(calls) == steps

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
        img = rng.standard_normal((7, 7))
        filt = rng.standard_normal((1, 3, 3))
        conv = np.fft.irfft2(filter_fft(filt, img.shape) * np.fft.rfft2(img), s=img.shape)[0]
        patches = _shift_stack(img[None], 3, 3)
        assert np.allclose(filt.reshape(1, 9) @ patches, conv.ravel(), atol=1e-12)


class TestTrainingSample:
    def test_truth_size_must_match_operator(self):
        f = mn.QuadraticDataFit(mn.SparseMatrixOperator(np.eye(4)), np.ones(4), np.zeros(4))
        with pytest.raises(mn.ShapeError):
            mn.TrainingSample(mn.ImageVector(np.zeros(9), (3, 3)), f)
