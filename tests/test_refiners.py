import ctypes
import dataclasses
import math
import re
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.fft

import mbirnet as mn
import mbirnet.refiners
import mbirnet.training
from mbirnet.prox import soft_threshold
from mbirnet.refiners import _caller_gemm, _scnn_forward, filter_fft, tf_defect


def delta_filter(r):
    f = np.zeros((r, r))
    f[r // 2, r // 2] = 1.0
    return f


class TestScnnForward:
    def test_zero_decoder_residual_only(self, rng):
        u = rng.standard_normal((8, 8))
        r = mn.ScnnRefiner(rng.standard_normal((3, 3, 3)), np.zeros((3, 3, 3)),
                           np.zeros(3), residual=True)
        assert np.allclose(r(u), u, atol=1e-14)

    def test_identity_filters_double(self, rng):
        u = rng.standard_normal((8, 8))
        r = mn.ScnnRefiner(delta_filter(1)[None], delta_filter(1)[None],
                           np.array([-800.0]), residual=True)
        assert np.allclose(r(u), 2 * u, atol=1e-10)

    def test_zero_input(self, rng):
        r = mn.ScnnRefiner(rng.standard_normal((2, 3, 3)), rng.standard_normal((2, 3, 3)),
                           rng.standard_normal(2), residual=True)
        assert np.allclose(r(np.zeros((6, 6))), 0.0, atol=1e-14)

    def test_homogeneity_with_joint_threshold_scaling(self, rng):
        # non-residual map is positively 1-homogeneous when thresholds scale with the input
        u = rng.standard_normal((8, 8))
        c = 2.5
        enc = rng.standard_normal((3, 3, 3))
        dec = rng.standard_normal((3, 3, 3))
        log_thr = rng.normal(-1.5, 0.3, 3)
        base = mn.ScnnRefiner(enc, dec, log_thr, residual=False)
        scaled = mn.ScnnRefiner(enc, dec, log_thr + math.log(c), residual=False)
        assert np.allclose(scaled(c * u), c * base(u), atol=1e-12)

    def test_bank_shape_mismatch(self):
        with pytest.raises(mn.ShapeError):
            mn.ScnnRefiner(np.zeros((2, 3, 3)), np.zeros((3, 3, 3)), np.zeros(2))


class TestFilterBankRank:
    # a 2-D (r, r) array is one filter without its K axis, never r filters of r x 1
    @pytest.mark.parametrize("kind", ["scnn", "dcnn", "tied"])
    def test_refiner_rejects_a_2d_bank(self, kind):
        f = np.ones((3, 3))
        with pytest.raises(mn.ShapeError, match=r"\(K, rh, rw\) stack, got shape \(3, 3\)"):
            if kind == "scnn":
                mn.ScnnRefiner(f, f, np.zeros(3))
            elif kind == "dcnn":
                mn.DcnnRefiner(f, np.zeros(0), f)
            else:
                mn.TiedCaolRefiner(f, np.zeros(3), tight_frame=False)

    @pytest.mark.parametrize("call", [
        lambda f: mbirnet.refiners.embed_filters(f, (8, 8)),
        lambda f: filter_fft(f, (8, 8)),
        tf_defect,
    ], ids=["embed_filters", "filter_fft", "tf_defect"])
    def test_bank_function_rejects_a_2d_bank(self, call):
        with pytest.raises(mn.ShapeError, match=r"\(K, rh, rw\) stack, got shape \(3, 3\)"):
            call(np.ones((3, 3)))

    @pytest.mark.parametrize("kind", ["scnn", "dcnn", "tied"])
    def test_every_kind_rejects_taps_wider_than_the_image(self, rng, kind):
        refiner = {"scnn": mn.ScnnRefiner.init_random(1, 25, rng),
                   "dcnn": mn.DcnnRefiner.init_random(1, 25, 3, rng),
                   "tied": mn.TiedCaolRefiner(rng.standard_normal((1, 5, 5)), np.zeros(1),
                                              tight_frame=False)}[kind]
        with pytest.raises(mn.ShapeError, match=r"filters \(5, 5\) larger than image \(4, 6\)"):
            refiner(np.zeros((4, 6)))

    # taps that fit one side of a non-square image but not the other; the same
    # taps fit the transposed image
    @pytest.mark.parametrize("rh, rw, shape", [(3, 5, (8, 4)), (5, 3, (4, 8))],
                             ids=["too wide", "too tall"])
    @pytest.mark.parametrize("call", [
        lambda f, shape: mbirnet.refiners._shift_stack(np.ones((1, *shape)), *f.shape[1:]),
        lambda f, shape: mbirnet.refiners.embed_filters(f, shape),
        lambda f, shape: filter_fft(f, shape),
    ], ids=["_shift_stack", "embed_filters", "filter_fft"])
    def test_taps_must_fit_each_side(self, call, rh, rw, shape):
        bank = np.ones((2, rh, rw))
        with pytest.raises(mn.ShapeError, match=rf"filters \({rh}, {rw}\) larger than image"):
            call(bank, shape)
        call(bank, shape[::-1])

    @pytest.mark.parametrize("kind", ["scnn", "tied"])
    @pytest.mark.parametrize("thr_shape", [(2, 1), (2,)], ids=["column", "flat"])
    def test_thresholds_are_raveled_and_the_callers_array_stays_writable(self, rng, kind,
                                                                         thr_shape):
        bank, thr = rng.standard_normal((2, 3, 3)), np.full(thr_shape, 0.5)
        refiner = (mn.ScnnRefiner(bank, bank, thr) if kind == "scnn"
                   else mn.TiedCaolRefiner(bank, thr, tight_frame=False))
        stored = refiner.log_thresholds if kind == "scnn" else refiner.thresholds
        assert stored.shape == (2,) and not stored.flags.writeable
        thr[0] = 1.0  # the caller's array is not frozen with the stored view

    def test_one_filter_takes_a_scalar_threshold(self, rng):
        refiner = mn.TiedCaolRefiner(rng.standard_normal((1, 3, 3)), 0.5, tight_frame=False)
        assert refiner.thresholds.shape == (1,)


class TestFilterFft:
    # (K, rh, rw, image shape): even 2x2 filters (criterion 5), filters as tall
    # as the image, 1x1 filters, an odd non-square image and a 256x256 one
    CASES = [(4, 2, 2, (16, 16)), (25, 5, 5, (64, 64)), (3, 5, 3, (5, 8)), (3, 1, 1, (8, 8)),
             (5, 3, 3, (9, 7)), (4, 9, 7, (9, 7)), (25, 5, 5, (256, 256))]

    @pytest.mark.parametrize("k, rh, rw, shape", CASES)
    def test_equals_the_full_embedded_rfft2(self, rng, k, rh, rw, shape):
        filters = rng.standard_normal((k, rh, rw))
        want = scipy.fft.rfft2(mbirnet.refiners.embed_filters(filters, shape))
        got = filter_fft(filters, shape)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    @pytest.mark.parametrize("rh, rw", [(5, 3), (3, 9)])
    def test_oversized_filters_rejected(self, rh, rw):
        with pytest.raises(mn.ShapeError):
            filter_fft(np.ones((2, rh, rw)), (4, 8))

    # one row block at 64x64 and six at 256x256; with the bound at 1, every
    # block has two or three rows
    @pytest.mark.parametrize("k, rh, rw, shape", CASES)
    @pytest.mark.parametrize("bound", ["default", "two rows per block"])
    @pytest.mark.parametrize("bank", ["whole", "slices"])
    def test_bits_equal_one_matmul(self, rng, monkeypatch, k, rh, rw, shape, bound, bank):
        if bound == "two rows per block":
            monkeypatch.setattr(mbirnet.refiners, "_GEMM_MADDS", 1)
        filters = rng.standard_normal((k, rh, rw))
        h, w = shape
        band = np.zeros((k, rh, w))
        band[:, :, (np.arange(rw) - rw // 2) % w] = filters
        rows = (np.arange(rh) - rh // 2) % h
        twiddle = np.exp((-2j * np.pi / h) * (np.arange(h)[:, None] * rows % h))
        # the row-blocked product's reference: the one matmul it replaced
        want = np.matmul(twiddle, scipy.fft.rfft(band, axis=-1))
        got = filter_fft(filters, shape)
        assert got.tobytes() == want.tobytes()
        if bank == "slices":
            # the sCNN forward's bank blocks: a slice of the bank has that
            # slice of the bank's spectra, bit for bit
            for a, b in [(0, 1), (k // 2, k), (1, k - 1)]:
                assert filter_fft(filters[a:b], shape).tobytes() == got[a:b].tobytes(), (a, b)

    def test_each_matmul_stays_within_the_block_bound(self, rng, monkeypatch):
        filters = rng.standard_normal((25, 5, 5))
        want = filter_fft(filters, (256, 256))
        matmul = np.matmul
        sizes = []

        def counted(a, b, *args, **kwargs):
            sizes.append((a.shape[-2], a.shape[-1], b.shape[-1]))
            return matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", counted)
        got = filter_fft(filters, (256, 256))
        assert got.tobytes() == want.tobytes()
        assert len(sizes) > 1 and sum(m for m, _, _ in sizes) == 256
        assert all(m * n * k <= mbirnet.refiners._GEMM_MADDS for m, n, k in sizes)

    def test_builds_no_full_filter_stack(self, rng):
        filters = rng.standard_normal((25, 5, 5))
        stack_bytes = 25 * 256 * 256 * 8
        tracemalloc.start()
        try:
            spectra = filter_fft(filters, (256, 256))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # beyond the spectra it returns, the band and its row transforms
        # (about half a MB here) are all it holds
        assert peak - spectra.nbytes < stack_bytes / 8


def _reference_scnn_forward(ehat, dhat, thresholds, u):
    """The sCNN forward over all filters at once, as it ran before the filters
    went in blocks: the reference for the blocked `_scnn_forward`.  Returns
    (output, codes)."""
    uhat = scipy.fft.rfft2(u, axes=(-2, -1))
    code = scipy.fft.irfft2(ehat[:, None] * uhat[None], s=u.shape[-2:], axes=(-2, -1))
    hidden = soft_threshold(code, thresholds[:, None, None, None])
    hhat = scipy.fft.rfft2(hidden, axes=(-2, -1))
    hhat *= dhat[:, None]
    out = scipy.fft.irfft2(np.sum(hhat, axis=0), s=u.shape[-2:], axes=(-2, -1))
    return out, hidden


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlockedScnnForward:
    # every shape has more than one spectrum entry per filter: for a 1x1 image
    # numpy's axis-0 sum is pairwise, not one filter after another
    @pytest.mark.parametrize("k, b, h, w", [(25, 10, 64, 64), (25, 1, 256, 256),
                                            (9, 3, 32, 32), (7, 3, 9, 7), (25, 1, 17, 17)])
    @pytest.mark.parametrize("decoder", ["scnn", "tied"])
    @pytest.mark.parametrize("blocks", ["default", "one filter each"])
    def test_bits_equal_the_single_shot_forward(self, rng, monkeypatch, k, b, h, w,
                                                decoder, blocks):
        if blocks == "one filter each":
            monkeypatch.setattr(mbirnet.refiners, "_BLOCK_BYTES", 1)
        r = 5 if k == 25 else 3
        enc = rng.uniform(-0.3, 0.3, (k, r, r))
        dec = rng.uniform(-0.3, 0.3, (k, r, r)) if decoder == "scnn" else None
        ehat = filter_fft(enc, (h, w))
        dhat = filter_fft(dec, (h, w)) if decoder == "scnn" else np.conj(ehat)
        thr = np.exp(rng.normal(-1.5, 0.5, k))
        u = rng.standard_normal((b, h, w))
        want, want_codes = _reference_scnn_forward(ehat, dhat, thr, u)
        codes = np.full((k, b, h, w), np.nan)
        got = _scnn_forward(enc, dec, thr, u, codes=codes)
        assert got.tobytes() == want.tobytes()
        assert codes.tobytes() == want_codes.tobytes()
        assert _scnn_forward(enc, dec, thr, u).tobytes() == want.tobytes()

    def test_refiner_call_peaks_no_higher_than_the_single_shot(self, rng):
        # at 64x64, B = 1 all 25 filters are one block
        refiner = mn.ScnnRefiner.init_random(25, 25, rng)
        u = rng.standard_normal((64, 64))

        def reference():
            shape = u.shape
            return _reference_scnn_forward(filter_fft(refiner.enc_filters, shape),
                                           filter_fft(refiner.dec_filters, shape),
                                           refiner.thresholds, u[None])[0][0] + u

        assert refiner(u).tobytes() == reference().tobytes()
        assert _peak_bytes(lambda: refiner(u)) <= _peak_bytes(reference)

    @pytest.mark.parametrize("kind", ["scnn", "tied"])
    def test_256_refiner_call_holds_no_whole_bank_spectra(self, rng, kind):
        # at 256x256 the spectra of the whole 25-filter bank are 13.2 MB, and
        # each filter's (528 KB) is its own bank block
        refiner = (mn.ScnnRefiner.init_random(25, 25, rng) if kind == "scnn"
                   else mn.TiedCaolRefiner(mn.make_tf_filterbank(25), np.full(25, 0.05)))
        u = rng.standard_normal((256, 256))
        assert _peak_bytes(lambda: refiner(u)) < 8e6

    # a bank block holds the filters whose spectra fit in _BLOCK_BYTES: the
    # whole 25-filter bank at 64x64, whatever the batch, and one filter at 256x256
    @pytest.mark.parametrize("call, b, side, calls", [
        ("scnn", 1, 64, 2), ("gradient", 10, 64, 2), ("tied", 1, 64, 1), ("scnn", 1, 256, 50)])
    def test_filter_fft_calls_per_bank_block(self, rng, monkeypatch, call, b, side, calls):
        enc, dec = rng.uniform(-0.3, 0.3, (2, 25, 5, 5))
        u = rng.standard_normal((b, side, side))
        filter_fft_calls = []

        def counted(*args, **kwargs):
            filter_fft_calls.append(args[0].shape[0])
            return filter_fft(*args, **kwargs)

        monkeypatch.setattr(mbirnet.refiners, "filter_fft", counted)
        if call == "scnn":
            mn.ScnnRefiner(enc, dec, np.full(25, -3.0))(u[0])
        elif call == "tied":
            mn.TiedCaolRefiner(mn.make_tf_filterbank(25), np.full(25, 0.05))(u[0])
        else:
            mbirnet.training.scnn_value_and_grad(enc, dec, np.full(25, -3.0), True, u, u)
        assert len(filter_fft_calls) == calls
        assert sum(filter_fft_calls) == (25 if call == "tied" else 50)


class TestDcnnForward:
    def test_zero_last_layer_is_identity(self, rng):
        u = rng.standard_normal((8, 8))
        r = mn.DcnnRefiner(rng.standard_normal((4, 3, 3)), np.zeros((0, 4, 4, 3, 3)),
                           np.zeros((4, 3, 3)))
        assert np.array_equal(r(u), u)

    def test_zero_input(self, rng):
        r = mn.DcnnRefiner(rng.standard_normal((2, 3, 3)),
                           rng.standard_normal((1, 2, 2, 3, 3)),
                           rng.standard_normal((2, 3, 3)))
        assert np.allclose(r(np.zeros((6, 6))), 0.0, atol=1e-14)

    def test_two_layer_delta_chain(self):
        r = mn.DcnnRefiner(delta_filter(1)[None], np.zeros((0, 1, 1, 1, 1)),
                           delta_filter(1)[None])
        u = np.array([[1.0, -1.0]])
        assert np.allclose(r(u), [[0.0, -1.0]], atol=1e-14)

    def test_layer_count(self):
        r = mn.DcnnRefiner(np.zeros((2, 3, 3)), np.zeros((2, 2, 2, 3, 3)), np.zeros((2, 3, 3)))
        assert r.n_layers == 4


def _openblas_config():
    """The configuration string of the OpenBLAS that numpy loaded, with the core
    it runs on, or "" where numpy carries no such library."""
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        get = getattr(ctypes.CDLL(str(path)), "scipy_openblas_get_config64_", None)
        if get is not None:
            get.restype = ctypes.c_char_p
            return get().decode()
    return ""


# `_caller_gemm`'s 8-column grid was measured to keep one GEMM's bits on this
# OpenBLAS and core; elsewhere its blocks are held to the GEMM's rounding error.
_GRID_MEASURED = re.match(r"OpenBLAS 0\.3\.31\b.*\bSkylakeX\b", _openblas_config()) is not None


def assert_same_gemm(got, want, a, b):
    if _GRID_MEASURED:
        assert got.tobytes() == want.tobytes()
    else:
        bound = 2 * a.shape[-1] * np.finfo(float).eps * (np.abs(a) @ np.abs(b))
        assert np.all(np.abs(got - want) <= bound)


class TestCallerGemm:
    # (bank rows, taps, B*h*w) of every dCNN GEMM the tests run, of 64x64 and
    # 256x256 dCNN forwards with 8 filters, and two whose rest joins the last block
    SHAPES = [(1, 1, 2), (1, 25, 24), (1, 9, 36), (1, 25, 50), (1, 9, 64), (1, 1, 72),
              (1, 4, 84), (1, 9, 128), (1, 9, 140), (1, 9, 144), (1, 9, 192), (1, 9, 216),
              (1, 9, 256), (1, 625, 576), (1, 9, 640), (1, 9, 768), (1, 25, 4096),
              (1, 9, 4096), (1, 9, 4480), (1, 9, 40960), (2, 9, 36), (2, 9, 64), (2, 1, 72),
              (2, 9, 144), (2, 9, 192), (3, 25, 50), (3, 9, 64), (3, 4, 84), (3, 9, 128),
              (3, 9, 140), (3, 9, 216), (4, 9, 64), (4, 9, 256), (4, 9, 640), (4, 9, 768),
              (4, 9, 4096), (4, 9, 4480), (4, 9, 40960), (25, 25, 4096), (8, 9, 4096),
              (1, 9, 65536), (8, 9, 65536), (1, 9, 29125), (8, 9, 14563)]

    @pytest.mark.parametrize("m, k, n", SHAPES)
    def test_bits_equal_one_gemm(self, rng, m, k, n):
        a = rng.standard_normal((m, k))
        b = rng.standard_normal((k, n))
        assert_same_gemm(_caller_gemm(a, b), a @ b, a, b)

    @staticmethod
    def forward_gemms(refiner, u, monkeypatch):
        """The refiner's output on u and the (m, k, n) of each np.matmul it made."""
        matmul = np.matmul
        sizes = []

        def counted(a, b, *args, **kwargs):
            sizes.append((a.shape[0], a.shape[1], b.shape[1]))
            return matmul(a, b, *args, **kwargs)

        monkeypatch.setattr(np, "matmul", counted)
        out = refiner(u)
        monkeypatch.undo()
        return out, sizes

    def test_256_forward_runs_in_blocks_below_the_switch(self, rng, monkeypatch):
        refiner = mn.DcnnRefiner.init_random(8, 9, 3, rng)
        u = rng.standard_normal((256, 256))
        monkeypatch.setattr(mbirnet.refiners, "_caller_gemm", lambda a, b: a @ b)
        want = refiner(u)
        monkeypatch.undo()
        got, sizes = self.forward_gemms(refiner, u, monkeypatch)
        if _GRID_MEASURED:
            assert got.tobytes() == want.tobytes()
        else:
            assert np.allclose(got, want, rtol=1e-12, atol=1e-12)
        # 1 + 8 channel GEMMs of 8 rows in 10 blocks, and 8 of one row in 3
        assert sum(n for _, _, n in sizes) == 17 * 256 * 256 and len(sizes) == 9 * 10 + 8 * 3
        columns = mbirnet.refiners._GEMM_COLUMNS
        budget = mbirnet.refiners._DGEMM_MADDS
        assert all(n >= columns and m * k * n <= (budget if m > 1 else budget // 2)
                   for m, k, n in sizes)
        assert sum(n % columns != 0 for _, _, n in sizes) <= 17

    @pytest.mark.parametrize("m, k", [(1, 9), (8, 9)])
    def test_a_narrow_rest_joins_the_last_block(self, rng, monkeypatch, m, k):
        # on any BLAS: when 1 to 7 columns are left past the last full block,
        # they join it, so no block is narrower than the grid
        columns = mbirnet.refiners._GEMM_COLUMNS
        matmul = np.matmul
        widths = []

        def counted(x, y, *args, **kwargs):
            widths.append(y.shape[1])
            return matmul(x, y, *args, **kwargs)

        a = rng.standard_normal((m, k))
        monkeypatch.setattr(np, "matmul", counted)
        _caller_gemm(a, np.ones((k, 1 << 17)))
        step = widths[0]
        assert 1 < len(widths) and 2 * step + columns <= 1 << 17
        for rest in range(1, columns):
            widths.clear()
            _caller_gemm(a, np.ones((k, 2 * step + rest)))
            assert widths == [step, step + rest]

    def test_64_forward_runs_one_gemm_per_channel(self, rng, monkeypatch):
        refiner = mn.DcnnRefiner.init_random(8, 9, 3, rng)
        _, sizes = self.forward_gemms(refiner, rng.standard_normal((64, 64)), monkeypatch)
        assert sizes == [(8, 9, 4096)] * 9 + [(1, 9, 4096)] * 8


class TestTiedCaolForward:
    def test_tight_frame_zero_thresholds_identity(self, tf_bank4, rng):
        r = mn.TiedCaolRefiner(tf_bank4, np.zeros(4))
        u = rng.standard_normal((10, 10))
        assert np.max(np.abs(r(u) - u)) <= 1e-10

    def test_zero_input(self, tf_bank4):
        r = mn.TiedCaolRefiner(tf_bank4, np.full(4, 0.3))
        assert np.allclose(r(np.zeros((8, 8))), 0.0, atol=1e-14)

    def test_huge_thresholds_annihilate(self, tf_bank4, rng):
        r = mn.TiedCaolRefiner(tf_bank4, np.full(4, 1e6))
        assert np.allclose(r(rng.standard_normal((8, 8))), 0.0, atol=1e-14)

    def test_non_tight_bank_rejected(self, rng):
        with pytest.raises(ValueError):
            mn.TiedCaolRefiner(rng.standard_normal((4, 2, 2)), np.zeros(4))

    def test_flag_off_allows_any_bank(self, rng):
        r = mn.TiedCaolRefiner(rng.standard_normal((4, 2, 2)), np.zeros(4),
                               tight_frame=False)
        r(rng.standard_normal((6, 6)))


class TestStackedCall:
    """A refiner applied to a (B, h, w) stack equals the stack of its calls on
    each image, bit for bit."""

    @pytest.mark.parametrize("kind", ["scnn", "scnn-plain", "tied", "dcnn"])
    # at 64x64, B = 10 the sCNN forward runs 3 of its 25 filters per block
    @pytest.mark.parametrize("b, h, w", [(10, 64, 64), (3, 16, 16), (7, 32, 20)])
    def test_stack_equals_per_image_calls(self, rng, kind, b, h, w):
        if kind.startswith("scnn"):
            refiner = mn.ScnnRefiner.init_random(25, 25, rng, residual=kind == "scnn")
        elif kind == "tied":
            refiner = mn.TiedCaolRefiner(mn.make_tf_filterbank(25), np.full(25, 0.05))
        else:
            refiner = mn.DcnnRefiner.init_random(4, 9, 3, rng)
        u = rng.uniform(0.0, 1.0, (b, h, w))
        got = refiner(u)
        assert got.shape == u.shape
        assert got.tobytes() == np.stack([refiner(x) for x in u]).tobytes()


class TestTfFilterbank:
    @pytest.mark.parametrize("R,tol", [(4, 1e-12), (16, 1e-12)])
    def test_tf_identity_on_random_images(self, R, tol, rng):
        bank = mn.make_tf_filterbank(R)
        assert bank.shape[0] == R
        for _ in range(5):
            u = rng.standard_normal((12, 12))
            conv = np.fft.irfft2(filter_fft(bank, u.shape) * np.fft.rfft2(u), s=u.shape)
            energy = np.sum(conv ** 2)
            assert energy == pytest.approx(np.sum(u ** 2), abs=tol * np.sum(u ** 2))

    def test_r1_identity_filter(self):
        bank = mn.make_tf_filterbank(1)
        assert bank.shape == (1, 1, 1)
        assert bank[0, 0, 0] == pytest.approx(1.0)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            mn.make_tf_filterbank(6)

    def test_gram_defect(self):
        assert tf_defect(mn.make_tf_filterbank(9)) < 1e-12


class TestDiagnostics:
    def test_paired_epsilon_identity(self, rng):
        ident = mn.IdentityRefiner()
        u = rng.standard_normal((4, 4))
        assert mn.paired_epsilon([((u, ident(u)), (u, ident(u)))]) == 0.0

    def test_paired_epsilon_expansive(self):
        double = lambda u: 2 * u
        u = np.array([[1.0, 0.0]])
        v = np.array([[0.0, 0.0]])
        assert mn.paired_epsilon([((u, double(u)), (v, double(v)))]) == pytest.approx(3.0)

    def test_paired_epsilon_constant_maps(self, rng):
        zero = lambda u: np.zeros_like(u)
        pairs = [(rng.standard_normal((3, 3)), rng.standard_normal((3, 3)))
                 for _ in range(4)]
        assert mn.paired_epsilon([((u, zero(u)), (v, zero(v))) for u, v in pairs]) == 0.0

    def test_paired_epsilon_empty(self):
        with pytest.raises(ValueError):
            mn.paired_epsilon([])

    def test_delta_measure_cases(self):
        x = np.zeros(2)
        assert mn.delta_measure(np.array([1.0, 0.0]), np.array([1.0, 0.0]), x) == 0.0
        assert mn.delta_measure(x, np.array([5.0, 0.0]), x) == 0.0
        assert mn.delta_measure(np.array([2.0, 0.0]), np.array([1.0, 0.0]), x) == 3.0

    def test_delta_measure_shape_mismatch(self):
        with pytest.raises(mn.ShapeError):
            mn.delta_measure(np.zeros(2), np.zeros(3), np.zeros(2))

    def test_lipschitz_cases(self, rng):
        pairs = [(rng.standard_normal((3, 3)), rng.standard_normal((3, 3)))
                 for _ in range(5)]

        def through(refiner):
            return [((u, refiner(u)), (v, refiner(v))) for u, v in pairs]

        assert mn.lipschitz_estimate(through(mn.IdentityRefiner())) == pytest.approx(1.0)
        assert mn.lipschitz_estimate(through(lambda u: 2 * u)) == pytest.approx(2.0)
        assert mn.lipschitz_estimate(through(lambda u: np.zeros_like(u))) == 0.0

    def test_lipschitz_coincident_pair(self):
        u = np.ones((2, 2))
        with pytest.raises(ValueError):
            mn.lipschitz_estimate([((u, u), (u.copy(), u.copy()))])


class TestNonexpansiveSufficient:
    def test_zero_filters_delta_column_dominates(self):
        for R in (1, 9):
            r = int(math.isqrt(R))
            ref = mn.ScnnRefiner(np.zeros((2, r, r)), np.zeros((2, r, r)), np.zeros(2))
            rep = mn.scnn_nonexpansive_sufficient(ref)
            assert rep.enc_sigma_max == pytest.approx(1.0)
            assert rep.dec_sigma_max == pytest.approx(1.0)
            assert rep.passes == (R == 1)

    def test_scaled_delta_filters_match_eigen_oracle(self):
        R = 9
        r = 3
        filt = delta_filter(r) / math.sqrt(2 * R)
        ref = mn.ScnnRefiner(filt[None], filt[None], np.zeros(1))
        rep = mn.scnn_nonexpansive_sufficient(ref)
        cols = np.column_stack([filt.ravel(), delta_filter(r).ravel()])
        expected = np.linalg.eigvalsh(cols.T @ cols)[-1]
        assert rep.enc_sigma_max == pytest.approx(expected, rel=1e-12)
        # analytic top eigenvalue of [[c^2, c], [c, 1]] is 1 + c^2
        assert expected == pytest.approx(1.0 + 1.0 / (2 * R), rel=1e-12)

    def test_r1_zero_filters_pass_at_boundary(self):
        ref = mn.ScnnRefiner(np.zeros((1, 1, 1)), np.zeros((1, 1, 1)), np.zeros(1))
        rep = mn.scnn_nonexpansive_sufficient(ref)
        assert rep.passes and rep.bound == 1.0


class TestFlip:
    def test_tied_forward_matches_explicit_flip_convolution(self, tf_bank4, rng):
        # conj-in-Fourier decoding equals literal flip + convolve
        u = rng.standard_normal((6, 6))
        r = mn.TiedCaolRefiner(tf_bank4, np.full(4, 0.05))
        # codes from an independent numpy.fft analysis
        embedded = mbirnet.refiners.embed_filters(tf_bank4, u.shape)
        analysis = np.fft.irfft2(np.fft.rfft2(embedded) * np.fft.rfft2(u), s=u.shape)
        codes = soft_threshold(analysis, 0.05)
        direct = np.zeros_like(u)
        h, w = u.shape
        for k in range(4):
            # even-sized flip moves support: embed at negated offsets explicitly
            emb = np.zeros((h, w))
            side = tf_bank4.shape[1]
            for a in range(side):
                for b in range(side):
                    dy = -(a - side // 2)
                    dx = -(b - side // 2)
                    emb[dy % h, dx % w] += tf_bank4[k, a, b]
            direct += np.fft.irfft2(np.fft.rfft2(emb) * np.fft.rfft2(codes[k]), s=u.shape)
        assert np.allclose(direct, r(u), atol=1e-12)


class TestSerialization:
    @pytest.mark.parametrize("make", [
        lambda rng: mn.ScnnRefiner.init_random(3, 9, rng),
        lambda rng: mn.ScnnRefiner.init_random(3, 9, rng, residual=False),
        lambda rng: mn.DcnnRefiner.init_random(2, 9, 2, rng),
        lambda rng: mn.DcnnRefiner.init_random(2, 9, 4, rng),
        lambda rng: mn.TiedCaolRefiner(mn.make_tf_filterbank(4), np.array([0.0, 0.1, 0.2, 0.3])),
        lambda rng: mn.TiedCaolRefiner(rng.standard_normal((3, 2, 2)), np.array([0.1, 0.2, 0.3]),
                                       tight_frame=False),
    ], ids=["scnn", "scnn-nonresidual", "dcnn-L2", "dcnn-L4", "tied", "tied-not-tight"])
    def test_round_trip_bit_exact(self, tmp_path, rng, make):
        ref = make(rng)
        path, again = tmp_path / "r.rfn", tmp_path / "again.rfn"
        mn.save_refiner(path, ref)
        back = mn.load_refiner(path)
        assert type(back) is type(ref)
        for field in dataclasses.fields(ref):
            want, got = getattr(ref, field.name), getattr(back, field.name)
            if isinstance(want, np.ndarray):
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), field.name
            else:
                assert got == want, field.name
        mn.save_refiner(again, back)
        assert again.read_bytes() == path.read_bytes()

    def test_unsaveable_type_leaves_no_file(self, tmp_path):
        path = tmp_path / "r.rfn"
        with pytest.raises(TypeError):
            mn.save_refiner(path, mn.IdentityRefiner())
        assert not path.exists()

    @pytest.mark.parametrize("kind", ["scnn", "dcnn", "tied"])
    def test_non_square_bank_rejected(self, kind):
        # the container stores one side length, so such a bank could not load
        bank = np.zeros((2, 3, 5))
        with pytest.raises(mn.ShapeError, match="square"):
            if kind == "scnn":
                mn.ScnnRefiner(bank, bank, np.zeros(2))
            elif kind == "dcnn":
                mn.DcnnRefiner(bank, np.zeros((0, 2, 2, 3, 5)), bank)
            else:
                mn.TiedCaolRefiner(bank, np.zeros(2), tight_frame=False)

    @pytest.mark.parametrize("header", ["scnn 04 9 1", "scnn +4 9 1", "scnn 4 9 0_1",
                                        "scnn 4 9 +1"])
    def test_header_integers_only_in_the_saved_form(self, tmp_path, rng, header):
        # int() takes these too, but the file would re-save to other bytes
        path = tmp_path / "r.rfn"
        mn.save_refiner(path, mn.ScnnRefiner.init_random(4, 9, rng))
        magic, _, payload = path.read_bytes().split(b"\n", 2)
        path.write_bytes(b"\n".join([magic, header.encode(), payload]))
        with pytest.raises(ValueError, match="r.rfn: scnn header needs three plain integers"):
            mn.load_refiner(path)

    def test_save_twice_byte_identical(self, tmp_path, rng):
        ref = mn.ScnnRefiner.init_random(2, 9, rng)
        a, b = tmp_path / "a.rfn", tmp_path / "b.rfn"
        mn.save_refiner(a, ref)
        mn.save_refiner(b, ref)
        assert a.read_bytes() == b.read_bytes()

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "x.rfn"
        p.write_bytes(b"not a refiner")
        with pytest.raises(ValueError):
            mn.load_refiner(p)

    def test_overflowing_tight_frame_bank_rejected_without_warning(self, tmp_path, tf_bank4):
        # a first tap of 1e200 overflows the bank's Gram: a violated identity,
        # not a numpy warning ahead of the error
        path = tmp_path / "r.rfn"
        mn.save_refiner(path, mn.TiedCaolRefiner(tf_bank4, np.zeros(4)))
        magic, header, payload = path.read_bytes().split(b"\n", 2)
        path.write_bytes(b"\n".join([magic, header, np.array([1e200], "<f8").tobytes()
                                     + payload[8:]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="r.rfn: filter bank violates the tight-frame"):
                mn.load_refiner(path)

    def _saved(self, tmp_path, rng):
        path = tmp_path / "r.rfn"
        mn.save_refiner(path, mn.ScnnRefiner.init_random(2, 9, rng))
        return path, path.read_bytes()

    def test_short_header_rejected(self, tmp_path, rng):
        path, data = self._saved(tmp_path, rng)
        magic = b"MBIRNET-REFINER v1\n"
        path.write_bytes(magic + b"scnn\n" + data.split(b"\n", 2)[2])
        with pytest.raises(ValueError, match="r.rfn"):
            mn.load_refiner(path)

    def test_truncated_payload_rejected(self, tmp_path, rng):
        path, data = self._saved(tmp_path, rng)
        path.write_bytes(data[:-16])
        with pytest.raises(ValueError, match="r.rfn.*payload"):
            mn.load_refiner(path)

    def test_trailing_bytes_rejected(self, tmp_path, rng):
        path, data = self._saved(tmp_path, rng)
        path.write_bytes(data + b"\0" * 8)
        with pytest.raises(ValueError, match="r.rfn.*payload"):
            mn.load_refiner(path)

    @pytest.mark.parametrize("kind, flag", [
        ("scnn", "2"), ("scnn", "-3"), ("tied", "2"), ("tied", "-1"), ("dcnn", "1"),
    ])
    def test_header_flag_out_of_range_rejected(self, tmp_path, rng, tf_bank4, kind, flag):
        # a boolean flag is 0 or 1, and a dCNN has at least 2 layers
        ref = {"scnn": mn.ScnnRefiner.init_random(2, 9, rng),
               "tied": mn.TiedCaolRefiner(tf_bank4, np.zeros(4)),
               "dcnn": mn.DcnnRefiner.init_random(2, 9, 2, rng)}[kind]
        path = tmp_path / "r.rfn"
        mn.save_refiner(path, ref)
        magic, header, payload = path.read_bytes().split(b"\n", 2)
        tag, k, r, _ = header.split()
        path.write_bytes(b"\n".join([magic, b" ".join([tag, k, r, flag.encode()]), payload]))
        with pytest.raises(ValueError, match=f"r.rfn: invalid {kind} header"):
            mn.load_refiner(path)

    @pytest.mark.parametrize("k, r", [("0", "9"), ("2", "10"), ("2", "0")])
    def test_header_filter_bank_names_both_settings(self, tmp_path, rng, k, r):
        path, data = self._saved(tmp_path, rng)
        magic, _, payload = data.split(b"\n", 2)
        path.write_bytes(magic + f"\nscnn {k} {r} 1\n".encode() + payload)
        with pytest.raises(ValueError,
                           match=f"r.rfn: .*n_filters={k}, filter_size={r}$"):
            mn.load_refiner(path)
