import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mbirnet as mn
from mbirnet.linops import _MIN_BLOCK_NNZ, ShapeError


def dense(mat):
    return mn.SparseMatrixOperator(np.asarray(mat, dtype=float))


class TestImageVector:
    def test_round_trip(self):
        img = mn.ImageVector(np.arange(6.0), (2, 3))
        assert img.as_2d().shape == (2, 3)
        assert np.array_equal(mn.ImageVector.from_2d(img.as_2d()).data, img.data)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            mn.ImageVector(np.arange(5.0), (2, 3))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            mn.ImageVector(np.array([1.0, np.inf]), (1, 2))


class TestApplyForward:
    def test_identity(self):
        op = mn.SparseMatrixOperator(np.eye(3))
        assert np.array_equal(op.forward(np.array([1.0, 2.0, 3.0])),
                              [1.0, 2.0, 3.0])

    def test_hand_matrix(self):
        out = dense([[1, 2], [3, 4]]).forward(np.array([1.0, 1.0]))
        assert np.array_equal(out, [3.0, 7.0])

    def test_zero_operator(self):
        out = dense(np.zeros((3, 2))).forward(np.array([5.0, -2.0]))
        assert np.array_equal(out, np.zeros(3))

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            dense([[1, 2], [3, 4]]).forward(np.ones(3))


def _adjoint_gap(op, rng, trials=1000):
    worst = 0.0
    for _ in range(trials):
        u = rng.standard_normal(op.in_dim)
        v = rng.standard_normal(op.out_dim)
        lhs = float(np.dot(op.forward(u), v))
        rhs = float(np.dot(u, op.adjoint(v)))
        worst = max(worst, abs(lhs - rhs) / max(1.0, abs(lhs), abs(rhs)))
    return worst


class TestAdjointConsistency:
    def test_dense(self, rng):
        assert _adjoint_gap(dense(rng.standard_normal((7, 5))), rng) < 1e-10

    def test_sparse(self, rng):
        import scipy.sparse as sp
        mat = sp.random(20, 12, density=0.3, random_state=3, format="csr")
        assert _adjoint_gap(mn.SparseMatrixOperator(mat), rng) < 1e-10

    def test_identity(self, rng):
        assert _adjoint_gap(mn.SparseMatrixOperator(np.eye(9)), rng) < 1e-10

    def test_circular_conv(self, rng):
        op = mn.build_blur(rng.standard_normal((3, 3)), (8, 8))
        assert _adjoint_gap(op, rng) < 1e-10

    def test_circulant_matches_sparse_materialization(self, rng):
        kernel = rng.standard_normal((3, 3))
        op = mn.build_blur(kernel, (6, 6))
        x = rng.standard_normal(36)
        # FFT circular convolution with the taps at centered offsets
        embedded = np.zeros((6, 6))
        embedded[np.ix_(np.arange(-1, 2) % 6, np.arange(-1, 2) % 6)] = kernel
        fft_conv = np.fft.irfft2(np.fft.rfft2(embedded) * np.fft.rfft2(x.reshape(6, 6)), s=(6, 6))
        assert np.allclose(op.forward(x), fft_conv.ravel(), atol=1e-12)


class TestDatafitGradient:
    def test_zero_residual(self):
        op = dense([[1, 2], [3, 4]])
        x = np.array([1.0, 1.0])
        f = mn.QuadraticDataFit(op, np.ones(2), op.forward(x))
        assert np.allclose(mn.datafit_gradient(f, x), 0.0, atol=1e-14)

    def test_identity_quadratic(self):
        f = mn.QuadraticDataFit(mn.SparseMatrixOperator(np.eye(2)), np.ones(2), np.zeros(2))
        assert np.array_equal(mn.datafit_gradient(f, np.array([2.0, -1.0])), [2.0, -1.0])

    def test_hand_arithmetic(self):
        f = mn.QuadraticDataFit(dense([[1, 2], [3, 4]]), np.array([1.0, 2.0]), np.zeros(2))
        assert np.array_equal(mn.datafit_gradient(f, np.array([1.0, 1.0])), [45.0, 62.0])

    def test_negative_weights_rejected(self):
        # non-finite weights or measurements are rejected at construction too
        for weights, measurements in [([1.0, -1.0], [0.0, 0.0]), ([1.0, np.nan], [0.0, 0.0]),
                                      ([1.0, np.inf], [0.0, 0.0]), ([1.0, 1.0], [np.inf, 0.0]),
                                      ([1.0, 1.0], [0.0, np.nan])]:
            with pytest.raises(ValueError):
                mn.QuadraticDataFit(mn.SparseMatrixOperator(np.eye(2)), np.array(weights),
                                    np.array(measurements))

    def test_overflowing_weighted_norm_rejected(self):
        # finite data whose 1/2 ||y||^2_W overflows, with no RuntimeWarning
        eye = mn.SparseMatrixOperator(np.eye(2))
        for weights, measurements in [([1.0, 1.0], [1e300, 0.0]), ([1e300, 1.0], [1e10, 1.0])]:
            with pytest.raises(ValueError, match="overflows"):
                mn.QuadraticDataFit(eye, np.array(weights), np.array(measurements))
        # the largest weighted norm that is still finite is accepted
        f = mn.QuadraticDataFit(eye, np.array([0.0, 1.0]), np.array([1e300, 1e154]))
        assert f.value(np.zeros(2)) == 0.5e308


class TestDiagMajorizer:
    def test_hand_value_and_psd(self):
        op = dense([[1, 2], [3, 4]])
        f = mn.QuadraticDataFit(op, np.ones(2), np.zeros(2))
        m = mn.diag_majorizer(f)
        assert np.allclose(m.diag, [24.0, 34.0])
        gap = np.diag(m.diag) - op.matrix.T @ op.matrix
        eigs = np.linalg.eigvalsh(gap)
        assert eigs.min() >= -1e-10 * np.max(m.diag)
        assert np.allclose(sorted(eigs), [0.0, 28.0], atol=1e-12)

    def test_identity(self):
        f = mn.QuadraticDataFit(mn.SparseMatrixOperator(np.eye(4)), np.ones(4), np.zeros(4))
        assert np.allclose(mn.diag_majorizer(f).diag, 1.0)

    def test_zero_column_floored(self):
        op = dense([[1.0, 0.0], [2.0, 0.0]])
        f = mn.QuadraticDataFit(op, np.ones(2), np.zeros(2))
        m = mn.diag_majorizer(f)
        assert m.diag[1] == pytest.approx(1e-8 * m.diag.max())
        assert m.diag[1] > 0

    def test_psd_on_random_dense(self, rng):
        for _ in range(20):
            mat = np.abs(rng.standard_normal((12, 8)))
            w = rng.uniform(0.0, 2.0, 12)
            f = mn.QuadraticDataFit(dense(mat), w, np.zeros(12))
            m = mn.diag_majorizer(f)
            gap = np.diag(m.diag) - mat.T @ (w[:, None] * mat)
            assert np.linalg.eigvalsh(gap).min() >= -1e-10 * np.max(m.diag)

    def test_mixed_signs_use_absolute_values(self):
        import scipy.sparse as sp
        # the second copy stores each row's columns in reverse (not canonical)
        unsorted = sp.csr_matrix((np.array([-2.0, 1.0, 4.0, -3.0]), np.array([1, 0, 1, 0]),
                                  np.array([0, 2, 4])), shape=(2, 2))
        for op in (dense([[1, -2], [-3, 4]]), mn.SparseMatrixOperator(unsorted)):
            f = mn.QuadraticDataFit(op, np.ones(2), np.zeros(2))
            m = mn.diag_majorizer(f)
            assert np.array_equal(m.diag, [24.0, 34.0])
            gap = np.diag(m.diag) - op.matrix.T @ op.matrix
            assert np.linalg.eigvalsh(gap).min() >= -1e-10 * np.max(m.diag)

    @pytest.mark.parametrize("build, negative", [
        (lambda: mn.build_radon(mn.CtGeometry(64, 23)), False),
        (lambda: mn.build_blur([[0.0, -0.25, 0.0], [-0.25, 2.0, -0.25], [0.0, -0.25, 0.0]],
                               (8, 8)), True),
        (lambda: mn.SparseMatrixOperator(np.zeros((3, 4))), False),
    ], ids=["radon", "blur-negative-taps", "all-zero"])
    def test_sign_flag_agrees_with_a_scan(self, build, negative):
        # diag_majorizer reads the flag the operator records once
        op = build()
        assert op._has_negative == bool(np.any(op.matrix.data < 0)) == negative

    @pytest.mark.parametrize("build", [
        lambda: mn.build_radon(mn.CtGeometry(64, 23)),
        lambda: mn.build_blur(mn.binomial_kernel(), (16, 16)),
        lambda: mn.build_blur([[0.0, -0.25, 0.0], [-0.25, 2.0, -0.25], [0.0, -0.25, 0.0]],
                              (8, 8)),
        # entries in (-1, 1) and at least 2 * _MIN_BLOCK_NNZ nonzeros, so two CPUs split it
        lambda: mn.SparseMatrixOperator(np.random.default_rng(3).uniform(
            -1.0, 1.0, (math.isqrt(2 * _MIN_BLOCK_NNZ) + 1,) * 2)),
    ], ids=["radon", "blur", "blur-negative-taps", "signed-two-blocks"])
    def test_majorizer_matches_absolute_copy_bitwise(self, build, rng):
        op = build()
        w = rng.uniform(0.0, 2.0, op.out_dim)
        f = mn.QuadraticDataFit(op, w, np.zeros(op.out_dim))
        a = abs(op.matrix)
        want = np.asarray(a.T @ (w * (a @ np.ones(op.in_dim))))
        assert np.array_equal(mn.diag_majorizer(f).diag, np.maximum(want, 1e-8 * want.max()))

    def test_second_call_runs_no_product(self, monkeypatch, rng):
        from mbirnet import linops
        op = mn.build_radon(mn.CtGeometry(16, 5))
        f = mn.QuadraticDataFit(op, rng.uniform(0.5, 1.5, op.out_dim), np.zeros(op.out_dim))
        first = mn.diag_majorizer(f)

        def no_product(*args):
            raise AssertionError("the majorizer was formed again")
        monkeypatch.setattr(linops, "_product", no_product)
        again = mn.diag_majorizer(f)
        assert np.array_equal(again.diag, first.diag)
        assert np.shares_memory(again.diag, first.diag)
        with pytest.raises(ValueError, match="read-only"):
            first.diag[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            f.majorizer.diag[0] = 1.0

    @pytest.mark.parametrize("entry", [1e200, -1e200])
    def test_overflowing_majorizer_rejected(self, entry):
        # 1/2 ||y||^2_W is finite, but |A|^T W |A| 1 overflows: rejected at
        # construction, not later as a non-finite metric
        op = mn.SparseMatrixOperator(np.array([[entry, 0.0], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="majorizer diagonal must be finite"):
            mn.QuadraticDataFit(op, np.ones(2), np.zeros(2))

    def test_negative_entries_cached_too(self):
        f = mn.QuadraticDataFit(dense([[1, -2], [-3, 4]]), np.ones(2), np.zeros(2))
        first, again = mn.diag_majorizer(f), mn.diag_majorizer(f)
        assert np.array_equal(again.diag, [24.0, 34.0])
        assert np.shares_memory(again.diag, first.diag)

    def test_each_data_fit_forms_its_own(self):
        op = dense([[1, 2], [3, 4]])
        ones = mn.diag_majorizer(mn.QuadraticDataFit(op, np.ones(2), np.zeros(2)))
        twos = mn.diag_majorizer(mn.QuadraticDataFit(op, np.full(2, 2.0), np.zeros(2)))
        assert np.array_equal(twos.diag, 2 * ones.diag)

    def test_nonnegative_matrix_is_not_copied(self):
        import tracemalloc
        op = mn.build_radon(mn.CtGeometry(64, 23))
        w, y = np.ones(op.out_dim), np.zeros(op.out_dim)
        tracemalloc.start()
        try:
            mn.QuadraticDataFit(op, w, y)  # forms the majorizer
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < op.matrix.nnz * 8


class TestOperatorConstruction:
    def test_float64_csr_is_wrapped_read_only(self):
        import scipy.sparse as sp
        mat = sp.random(20, 12, density=0.3, random_state=3, format="csr")
        op = mn.SparseMatrixOperator(mat)
        for name in ("data", "indices", "indptr"):
            assert np.shares_memory(getattr(op.matrix, name), getattr(mat, name))
        with pytest.raises(ValueError):
            op.matrix.data[0] = 1.0

    def test_other_inputs_become_float64_csr(self, rng):
        import scipy.sparse as sp
        ints = np.array([[1, 0, 2], [0, 3, 0]])
        x, y = rng.standard_normal(3), rng.standard_normal(2)
        for mat in (ints, ints.astype(float), sp.csr_matrix(ints), sp.coo_matrix(ints)):
            op = mn.SparseMatrixOperator(mat)
            assert sp.isspmatrix_csr(op.matrix) and op.matrix.dtype == np.float64
            assert np.array_equal(op.forward(x), ints @ x)
            assert np.array_equal(op.adjoint(y), ints.T @ y)
        ints_csr = sp.csr_matrix(ints)
        mn.SparseMatrixOperator(ints_csr)
        assert ints_csr.indices.flags.writeable  # converted, so the input stays the caller's


SPLIT_BUILDS = [
    lambda: mn.build_radon(mn.CtGeometry(64, 23)),
    lambda: mn.build_blur(mn.binomial_kernel(), (16, 16)),
]


@pytest.fixture
def cpus(monkeypatch):
    """Set the usable CPU count; with any nonzero a block, so every operator splits."""
    from mbirnet import linops

    def set_cpus(k):
        monkeypatch.setattr(linops, "_MIN_BLOCK_NNZ", 1)
        monkeypatch.setattr(linops, "usable_cpus", lambda: k)
    return set_cpus


class TestSplitProducts:
    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("build", SPLIT_BUILDS, ids=["radon", "blur"])
    def test_products_equal_whole_matrix_bitwise(self, build, k, cpus, rng):
        cpus(k)
        op = build()
        assert len(op._blocks) == len(op._adj_blocks) == k
        x, y = rng.standard_normal(op.in_dim), rng.standard_normal(op.out_dim)
        assert np.array_equal(op.forward(x), op.matrix @ x)
        assert np.array_equal(op.adjoint(y), op.matrix.T @ y)
        w = rng.uniform(0.0, 2.0, op.out_dim)
        f = mn.QuadraticDataFit(op, w, np.zeros(op.out_dim))
        a = abs(op.matrix)
        want = np.asarray(a.T @ (w * (a @ np.ones(op.in_dim))))
        assert np.array_equal(mn.diag_majorizer(f).diag, np.maximum(want, 1e-8 * want.max()))

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("build", SPLIT_BUILDS, ids=["radon", "blur"])
    def test_blocks_are_views_balanced_by_nonzeros(self, build, k, cpus):
        cpus(k)
        op = build()
        for blocks, whole in ((op._blocks, op.matrix), (op._adj_blocks, op._adj)):
            assert sum(b.shape[0] for b in blocks) == whole.shape[0]
            widest_row = np.diff(whole.indptr).max()
            for b in blocks:
                assert np.shares_memory(b.data, whole.data)
                assert np.shares_memory(b.indices, whole.indices)
                assert abs(b.nnz - whole.nnz / k) <= widest_row

    def test_mixed_signs_split_still_use_absolute_values(self, cpus):
        cpus(2)
        op = dense([[1, -2], [-3, 4]])
        assert len(op._blocks) == 2
        m = mn.diag_majorizer(mn.QuadraticDataFit(op, np.ones(2), np.zeros(2)))
        assert np.array_equal(m.diag, [24.0, 34.0])

    def test_small_operator_starts_no_thread(self, monkeypatch, rng):
        import threading

        from mbirnet import linops
        monkeypatch.setattr(linops, "usable_cpus", lambda: 64)  # more CPUs do not split it
        op = mn.build_radon(mn.CtGeometry(64, 23))

        def no_thread(*args, **kwargs):
            raise AssertionError("a small operator started a thread")
        monkeypatch.setattr(threading, "Thread", no_thread)
        op.forward(rng.standard_normal(op.in_dim))
        op.adjoint(rng.standard_normal(op.out_dim))
        mn.diag_majorizer(mn.QuadraticDataFit(op, np.ones(op.out_dim), np.zeros(op.out_dim)))

    def test_worker_exception_reaches_caller(self, cpus, rng):
        import threading
        from mbirnet.linops import _product

        class Broken:
            def __matmul__(self, v):
                raise RuntimeError("block failed")

        cpus(2)
        op = mn.build_radon(mn.CtGeometry(64, 23))
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="block failed"):
            _product([op._blocks[0], Broken()], rng.standard_normal(op.in_dim))
        assert threading.active_count() == before

    def test_split_product_after_fork(self):
        # a thread pool made before a fork has no workers in the child, so
        # the child's product would wait forever
        import os
        import signal
        import subprocess
        import sys
        from pathlib import Path
        script = "\n".join([
            "import os, numpy as np, mbirnet as mn",
            "from mbirnet import linops",
            "linops._MIN_BLOCK_NNZ = 1",
            "linops.usable_cpus = lambda: 2",
            "op = mn.build_radon(mn.CtGeometry(64, 23))",
            "assert len(op._blocks) == 2",
            "x = np.random.default_rng(0).standard_normal(op.in_dim)",
            "want = op.forward(x)",
            "pid = os.fork()",
            "if pid == 0:",
            "    os._exit(0 if np.array_equal(op.forward(x), want) else 3)",
            "_, status = os.waitpid(pid, 0)",
            "raise SystemExit(os.waitstatus_to_exitcode(status))",
        ])
        src = str(Path(mn.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        # a session of its own, so a hung forked child is killed with its parent
        proc = subprocess.Popen([sys.executable, "-c", script], env=env, text=True,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                start_new_session=True)
        try:
            _, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("the split product did not finish in the forked child")
        assert proc.returncode == 0, err


class TestMbirGradient:
    def _objective(self, op, w, y, gamma, feasible=None):
        f = mn.QuadraticDataFit(op, w, y)
        return mn.MbirObjective(f, gamma, feasible or mn.FeasibleSet.all())

    def test_both_terms_vanish(self):
        op = dense([[1, 2], [3, 4]])
        x = np.array([1.0, 1.0])
        obj = self._objective(op, np.ones(2), op.forward(x), 1.0)
        assert np.allclose(mn.mbir_gradient(obj, x, x), 0.0, atol=1e-14)

    def test_pure_proximity(self):
        obj = self._objective(dense(np.zeros((2, 2))), np.ones(2), np.zeros(2), 2.0)
        assert np.array_equal(mn.mbir_gradient(obj, np.array([1.0, 1.0]), np.zeros(2)),
                              [2.0, 2.0])

    def test_composite_hand_value(self):
        obj = self._objective(dense([[1, 2], [3, 4]]), np.array([1.0, 2.0]),
                              np.zeros(2), 1.0)
        assert np.array_equal(mn.mbir_gradient(obj, np.array([1.0, 1.0]), np.zeros(2)),
                              [46.0, 63.0])

    def test_matches_finite_differences(self, rng):
        op = dense(rng.standard_normal((6, 4)))
        obj = self._objective(op, rng.uniform(0.1, 2.0, 6), rng.standard_normal(6), 0.7)
        z = rng.standard_normal(4)
        for _ in range(5):
            x = rng.standard_normal(4)
            g = mn.mbir_gradient(obj, x, z)
            scale = max(1.0, float(np.abs(x).max()))
            h = 1e-5 * scale
            fd = np.zeros(4)
            for j in range(4):
                e = np.zeros(4)
                e[j] = h
                fd[j] = (obj.value(x + e, z) - obj.value(x - e, z)) / (2 * h)
            assert np.linalg.norm(fd - g) <= 1e-6 * max(1.0, np.linalg.norm(g))


class TestVerifyMajorization:
    def test_valid_majorizer_never_violates(self, rng):
        op = dense(np.abs(rng.standard_normal((6, 4))))
        f = mn.QuadraticDataFit(op, rng.uniform(0, 2, 6), rng.standard_normal(6))
        report = mn.verify_majorization(f, mn.diag_majorizer(f), trials=200, seed=0)
        assert report.ok
        assert report.max_violation <= 1e-10

    def test_scaled_down_majorizer_fails(self):
        op = dense([[1.0, 2.0], [3.0, 4.0]])
        f = mn.QuadraticDataFit(op, np.ones(2), np.zeros(2))
        weak = mn.DiagonalMajorizer(0.01 * mn.diag_majorizer(f).diag)
        report = mn.verify_majorization(f, weak, trials=100, seed=0)
        assert report.violations > 0

    def test_tight_bound_holds_with_equality(self):
        # A = I, W = 1: f(u) = 1/2||u - y||^2 equals its quadratic bound in M_f = I,
        # so the exact majorizer shows only rounding and one a hair below it fails
        f = mn.QuadraticDataFit(mn.SparseMatrixOperator(np.eye(3)), np.ones(3),
                                np.array([1.0, -2.0, 0.5]))
        m = mn.diag_majorizer(f)
        report = mn.verify_majorization(f, m, trials=50, seed=0)
        assert report.ok and report.max_violation <= 1e-12
        short = mn.DiagonalMajorizer((1 - 1e-6) * m.diag)
        assert mn.verify_majorization(f, short, trials=50, seed=0).violations == 50

    def test_trials_validation(self):
        f = mn.QuadraticDataFit(mn.SparseMatrixOperator(np.eye(2)), np.ones(2), np.zeros(2))
        with pytest.raises(ValueError):
            mn.verify_majorization(f, mn.diag_majorizer(f), trials=0, seed=0)


class TestSpectralSpread:
    def test_diagonal_values(self):
        assert mn.spectral_spread(mn.DiagonalMajorizer(np.array([24.0, 34.0]))) == 10.0
        assert mn.spectral_spread(mn.DiagonalMajorizer(np.full(5, 3.0))) == 0.0
        assert mn.spectral_spread(mn.DiagonalMajorizer(np.array([1.0, 5.0, 3.0]))) == 4.0


class TestDiagonalMajorizerType:
    def test_positive_required(self):
        with pytest.raises(ValueError):
            mn.DiagonalMajorizer(np.array([1.0, 0.0]))


def _nan_with_payload(bits: int) -> float:
    return np.array([bits], dtype=np.uint64).view(np.float64)[0]


# signed zeros, NaNs of two payloads, infinities, and values on, inside and
# beyond each bound of box(0, 1)
_EDGES = np.array([0.0, -0.0, _nan_with_payload(0x7FF8000000000001),
                   _nan_with_payload(0xFFF80000000ABC00), np.inf, -np.inf, 1.0, -1.0, 0.5,
                   2.0, 1.0 + 2.0 ** -52, 5e-324, -5e-324])


class TestFeasibleSet:
    @pytest.mark.parametrize("lo, hi", [(2.0, 1.0), (1.0, 0.0), (np.nan, 1.0), (0.0, np.nan)],
                             ids=["2-1", "1-0", "nan-lo", "nan-hi"])
    def test_box_validation(self, lo, hi):
        with pytest.raises(ValueError):
            mn.FeasibleSet.box(lo, hi)

    def test_fields_are_the_two_bounds(self):
        assert [f.name for f in dataclasses.fields(mn.FeasibleSet)] == ["lo", "hi"]
        assert mn.FeasibleSet.all() == mn.FeasibleSet(-np.inf, np.inf)
        assert mn.FeasibleSet.nonneg() == mn.FeasibleSet(0.0, np.inf)

    def test_all_copies_the_bits(self):
        out = mn.FeasibleSet.all().project(_EDGES)
        assert out.tobytes() == np.array(_EDGES, copy=True).tobytes()

    def test_nonneg_bits_are_maximum_with_zero(self):
        # np.clip(v, 0, inf) keeps the sign of -0.0, which this does not
        out = mn.FeasibleSet.nonneg().project(_EDGES)
        assert out.tobytes() == np.maximum(_EDGES, 0.0).tobytes()

    def test_box_values_are_clip(self):
        out = mn.FeasibleSet.box(0, 1).project(_EDGES)
        assert np.array_equal(out, np.clip(_EDGES, 0.0, 1.0), equal_nan=True)
        assert np.all(np.isnan(out) | ((out >= 0.0) & (out <= 1.0)))

    @pytest.mark.parametrize("fset", [mn.FeasibleSet.all(), mn.FeasibleSet.nonneg(),
                                      mn.FeasibleSet.box(0, 1)], ids=["all", "nonneg", "box"])
    def test_result_never_shares_memory(self, fset):
        v = _EDGES.copy()
        out = fset.project(v)
        assert not np.shares_memory(out, v)
        out[:] = 7.0
        assert v.tobytes() == _EDGES.tobytes()

    def test_projection_variants(self):
        v = np.array([-1.0, 0.5, 2.0])
        assert np.array_equal(mn.FeasibleSet.all().project(v), v)
        assert np.array_equal(mn.FeasibleSet.nonneg().project(v), [0.0, 0.5, 2.0])
        assert np.array_equal(mn.FeasibleSet.box(0, 1).project(v), [0.0, 0.5, 1.0])
        inside = np.array([0.2, 0.8])
        assert np.array_equal(mn.FeasibleSet.box(0, 1).project(inside), inside)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(-4, 4), min_size=2, max_size=6))
    def test_projection_idempotent_and_nonexpansive(self, values):
        v = np.array(values)
        fset = mn.FeasibleSet.box(-1.0, 1.5)
        p = fset.project(v)
        assert np.array_equal(fset.project(p), p)
        w = np.linspace(-2, 2, v.size)
        q = fset.project(w)
        assert np.linalg.norm(p - q) <= np.linalg.norm(v - w) + 1e-12
