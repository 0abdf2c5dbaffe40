import dataclasses
import json
import math
import shutil
import sys
import textwrap
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import HealthCheck, given, settings, strategies as st

import mbirnet as mn
from mbirnet import fileio
from mbirnet.cli import main
from mbirnet.fileio import (read_operator, read_pgm, read_vector_csv, write_operator,
                            write_pgm, write_vector_csv)


class TestPgm:
    def test_header_contract(self, tmp_path):
        path = tmp_path / "img.pgm"
        write_pgm(path, mn.shepp_logan(64))
        assert path.read_bytes().startswith(b"P5 64 64 65535\n")

    def test_round_trip_within_quantization(self, tmp_path, rng):
        img = mn.ImageVector(rng.random(48), (6, 8))
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        back = read_pgm(path)
        assert back.shape == (6, 8)
        assert np.max(np.abs(back.data - img.data)) <= 0.5 / 65535 + 1e-12

    def test_quantized_values_round_trip_exactly(self, tmp_path):
        img = mn.ImageVector(np.round(np.linspace(0, 1, 12) * 65535) / 65535, (3, 4))
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        assert np.array_equal(read_pgm(path).data, img.data)

    def test_wrong_magic_rejected(self, tmp_path):
        p = tmp_path / "x.pgm"
        p.write_bytes(b"P2 2 2 65535\n0 0 0 0")
        with pytest.raises(ValueError):
            read_pgm(p)

    def test_truncated_header_rejected(self, tmp_path):
        p = tmp_path / "x.pgm"
        p.write_bytes(b"P5 16")
        with pytest.raises(ValueError, match="x.pgm"):
            read_pgm(p)

    def test_short_pixel_data_rejected(self, tmp_path):
        p = tmp_path / "x.pgm"
        write_pgm(p, mn.shepp_logan(16))
        p.write_bytes(p.read_bytes()[:-1])
        with pytest.raises(ValueError, match="x.pgm"):
            read_pgm(p)

    def test_trailing_bytes_rejected(self, tmp_path):
        p = tmp_path / "x.pgm"
        write_pgm(p, mn.shepp_logan(16))
        p.write_bytes(p.read_bytes() + b"\x00\x00")
        with pytest.raises(ValueError, match="x.pgm"):
            read_pgm(p)


class TestVectorCsv:
    def test_round_trip_exact(self, tmp_path, rng):
        vec = rng.standard_normal(17) * 10.0 ** rng.integers(-8, 8, 17)
        path = tmp_path / "v.csv"
        write_vector_csv(path, vec)
        assert np.array_equal(read_vector_csv(path), vec)

    @pytest.mark.parametrize("bad", ["abc", "nan", "inf", "-inf"])
    def test_non_numeric_or_non_finite_line_rejected(self, tmp_path, bad):
        path = tmp_path / "v.csv"
        path.write_text(f"1.5\n\n{bad}\n2.5\n")
        with pytest.raises(ValueError, match="v.csv: line 3"):
            read_vector_csv(path)

    @staticmethod
    def _line_by_line(path):
        """The reader as a loop over the file's lines: the reference."""
        values = []
        with open(path, "rb") as fh:
            for lineno, line in enumerate(fh, 1):
                if not line.strip():
                    continue
                try:
                    v = float(line)
                except ValueError:
                    v = math.nan
                if not math.isfinite(v):
                    raise ValueError(f"{path}: line {lineno}: expected a finite number, "
                                     f"got {line.strip().decode('latin-1')!r}")
                values.append(v)
        return np.array(values, dtype=np.float64)

    @pytest.mark.parametrize("text", [
        b"", b"\n\n", b"1.5", b"1.5\n\n  \n-0\n0\n 2e-308 \n\t3\r\n1_0\n-0.0\n",
        b"0x1p3\n", b"1\n2\n\n", b"\n\n1.5\nnan\n", b"1\n-inf\n", b"1\ninfinity\n2\n",
        b"1\n2\n3 4\n", b"\n1\n\xff\xfe\n", b"1\r2\n", b"1e999\n", b"NaN\n\n1\n"])
    def test_same_bits_and_errors_as_line_by_line(self, tmp_path, text):
        path = tmp_path / "v.csv"
        path.write_bytes(text)
        try:
            want = self._line_by_line(path)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                read_vector_csv(path)
            assert str(got.value) == str(exc)
        else:
            got = read_vector_csv(path)
            assert got.dtype == np.float64 and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestOperatorFile:
    def test_sparse_round_trip_exact(self, tmp_path, rng):
        import scipy.sparse as sp
        mat = sp.random(14, 9, density=0.3, random_state=0, format="csr")
        extreme = mat.copy()
        # magnitudes 1e-300..1e300 of both signs, plus subnormals
        extreme.data = rng.choice([-1.0, 1.0], mat.nnz) * 10.0 ** rng.uniform(-300, 300, mat.nnz)
        extreme.data[:4] = [5e-324, -2.5e-310, 1e-300, -1e300]
        path = tmp_path / "A.txt"
        for m in (mat, extreme, mn.build_radon(mn.CtGeometry(16, 8)).matrix):
            op = mn.SparseMatrixOperator(m)
            write_operator(path, op)
            back = read_operator(path)
            assert (back.matrix != op.matrix).nnz == 0
            assert back.matrix.data.tobytes() == op.matrix.data.tobytes()
            assert np.array_equal(back.matrix.indices, op.matrix.indices)
            assert np.array_equal(back.matrix.indptr, op.matrix.indptr)

    def test_header_shape(self, tmp_path):
        op = mn.SparseMatrixOperator(np.eye(3))
        path = tmp_path / "A.txt"
        write_operator(path, op)
        assert path.read_text().splitlines()[0] == "3 3 3"

    def test_circulant_written_as_triples(self, tmp_path, rng):
        op = mn.build_blur(rng.standard_normal((3, 3)), (5, 5))
        path = tmp_path / "A.txt"
        write_operator(path, op)
        back = read_operator(path)
        x = rng.standard_normal(25)
        assert np.allclose(back.forward(x), op.forward(x), atol=1e-12)

    def test_out_of_range_index_rejected(self, tmp_path):
        p = tmp_path / "A.txt"
        p.write_text("2 2 1\n5 0 1.0\n")
        with pytest.raises(mn.ShapeError):
            read_operator(p)

    @pytest.mark.parametrize("text", [
        "2 2 2\n0 0 1.0\n",              # fewer triples than declared
        "2 2 1\n0 0 1.0\n1 1 2.0\n",     # more triples than declared
        "2 2 0\n0 0 1.0\n",              # triples where none are declared
        "2 2 1\n0.5 0 1.0\n",            # non-integer index
        "2 2 1\n-1 0 1.0\n",             # negative index
        "2 2 1\n0 0 abc\n",              # non-numeric value
        "2 2 1\n0 0 nan\n",              # non-finite values
        "2 2 1\n0 0 -inf\n",
    ], ids=["short", "long", "long-empty", "fractional-index", "negative-index",
            "non-numeric", "nan", "-inf"])
    def test_malformed_triples_rejected(self, tmp_path, text):
        p = tmp_path / "A.txt"
        p.write_text(text)
        with pytest.raises(ValueError, match="A.txt"):
            read_operator(p)

    def test_row_count_other_than_expected_rejected(self, tmp_path):
        p = tmp_path / "A.txt"
        p.write_text("2 2 1\n0 0 1.0\n")
        assert read_operator(p, expected_rows=2).shape == (2, 2)
        with pytest.raises(mn.ShapeError, match="A.txt.*declares 2 rows, expected 3"):
            read_operator(p, expected_rows=3)

    def test_column_count_other_than_expected_rejected(self, tmp_path):
        p = tmp_path / "A.txt"
        p.write_text("2 3 1\n0 0 1.0\n")
        assert read_operator(p, expected_rows=2, expected_cols=3).shape == (2, 3)
        with pytest.raises(mn.ShapeError, match="A.txt.*declares 3 columns, expected 4"):
            read_operator(p, expected_cols=4)

    # shapes beyond any address space (and, last, beyond int64): nothing is allocated
    @pytest.mark.parametrize("header", [f"{10**17} 2 1", f"2 {10**17} 1", f"{10**20} 2 1"],
                             ids=["rows", "cols", "int64-overflow"])
    def test_unallocatable_shape_rejected(self, tmp_path, header):
        p = tmp_path / "A.txt"
        p.write_text(f"{header}\n0 0 1.0\n")
        with pytest.raises(ValueError, match="A.txt.*cannot allocate"):
            read_operator(p)


def _reference_write_operator(path, op):
    """The operator writer as it was, one formatted triple per call."""
    mat = op.matrix.tocoo()
    with open(path, "w") as fh:
        fh.write(f"{mat.shape[0]} {mat.shape[1]} {mat.nnz}\n")
        for r, c, v in zip(mat.row, mat.col, mat.data):
            fh.write(f"{r} {c} {v:.17g}\n")


def _reference_write_vector_csv(path, vec):
    """The vector writer as it was, one formatted value per call."""
    vec = np.ravel(np.asarray(vec, dtype=np.float64))
    with open(path, "w") as fh:
        for v in vec:
            fh.write(f"{v:.17g}\n")


def _special_values_operator():
    # -0.0 and the two NaN bit patterns are distinct keys, each with its own text
    data = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 1e-300, -1e-300,
                     np.nan, -np.nan, 2.5, -0.0])
    indices = np.array([0, 1, 2, 3, 0, 1, 2, 3, 0, 1, 2, 3])
    indptr = np.array([0, 4, 8, 12])
    return mn.SparseMatrixOperator(sp.csr_matrix((data, indices, indptr), shape=(3, 4)))


def _multi_block_operator():
    # distinct random values over more than two blocks
    rng = np.random.default_rng(5)
    at = rng.choice(700 * 500, 2 * fileio._BLOCK + 3, replace=False)
    return mn.SparseMatrixOperator(sp.csr_matrix(
        (rng.standard_normal(at.size), (at // 500, at % 500)), shape=(700, 500)))


class TestTextWritersMatchReference:
    @pytest.mark.parametrize("make", [
        lambda: mn.build_radon(mn.CtGeometry(64, 23)),
        lambda: mn.build_blur(np.array([[0.1, -0.3, 0.05], [-0.2, 1.0, -0.25], [0.0, 0.4, -0.1]]),
                              (9, 7)),
        _special_values_operator,
        lambda: mn.SparseMatrixOperator(sp.csr_matrix((6, 5))),
        _multi_block_operator,
    ], ids=["ct64-23", "blur", "special-values", "empty", "multi-block"])
    def test_operator_bytes(self, tmp_path, make):
        op = make()
        write_operator(tmp_path / "new.txt", op)
        _reference_write_operator(tmp_path / "old.txt", op)
        assert (tmp_path / "new.txt").read_bytes() == (tmp_path / "old.txt").read_bytes()

    @pytest.mark.parametrize("vec", [
        np.array([]),
        np.array([-0.0, 0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, 1e-300, -1e300, 0.1]),
        np.random.default_rng(3).standard_normal((2, fileio._BLOCK + 1)),
    ], ids=["empty", "special-values", "multi-block"])
    def test_vector_bytes(self, tmp_path, vec):
        write_vector_csv(tmp_path / "new.csv", vec)
        _reference_write_vector_csv(tmp_path / "old.csv", vec)
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_operator_memory_peak_well_below_its_text(self, tmp_path):
        # 3e5 entries: the writer holds one block of text at a time, never the file's
        op = mn.SparseMatrixOperator(sp.random(1000, 1000, density=0.3, random_state=2,
                                               format="csr"))
        path = tmp_path / "A.txt"
        tracemalloc.start()
        try:
            write_operator(path, op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 2


def _overwritten(valid: bytes):
    """Strategy: `valid` with one to four bytes overwritten."""
    changes = st.lists(st.tuples(st.integers(0, len(valid) - 1), st.integers(0, 255)),
                       min_size=1, max_size=4)

    def overwrite(pairs):
        data = bytearray(valid)
        for i, b in pairs:
            data[i] = b
        return bytes(data)
    return changes.map(overwrite)


def _corrupted(valid: bytes):
    """Strategy: `valid` cut short, or with one to four bytes overwritten."""
    cut = st.integers(0, len(valid) - 1).map(lambda n: valid[:n])
    return st.one_of(cut, _overwritten(valid))


class TestReaderFuzz:
    @pytest.mark.parametrize("name, write, read", [
        ("img.pgm", lambda p: write_pgm(p, mn.shepp_logan(16)), read_pgm),
        ("A.txt", lambda p: write_operator(p, mn.build_blur(mn.binomial_kernel(0.3), (4, 4))),
         read_operator),
        ("v.csv", lambda p: write_vector_csv(p, np.linspace(-2.0, 3.0, 7)), read_vector_csv),
        ("r.rfn", lambda p: mn.save_refiner(
            p, mn.TiedCaolRefiner(mn.make_tf_filterbank(4), np.full(4, 1e-3))), mn.load_refiner),
    ], ids=["pgm", "operator", "vector", "refiner"])
    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_corrupt_file_returns_or_names_itself(self, tmp_path, name, write, read, data):
        path = tmp_path / name
        write(path)
        path.write_bytes(data.draw(_corrupted(path.read_bytes())))
        try:
            read(path)
        except ValueError as exc:  # any other exception type fails the test
            assert name in str(exc)


BLUR_CONFIG = textwrap.dedent("""\
    schema: 1
    seed: 5
    problem:
      kind: blur
      n: 24
      kernel_mix: 0.3
      noise_sigma: 0.01
    solver:
      kind: momentum
      n_iter: 12
      rho: 0.5
      chi: 50.0
      feasible: box
      box_lo: 0.0
      box_hi: 1.0
    """)


@pytest.fixture
def blur_workspace(tmp_path):
    cfg = tmp_path / "blur.yaml"
    cfg.write_text(BLUR_CONFIG)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "sim")]) == 0
    bank = mn.make_tf_filterbank(4)
    refdir = tmp_path / "refs"
    refdir.mkdir()
    mn.save_refiner(refdir / "refiner_000.rfn", mn.TiedCaolRefiner(bank, np.full(4, 1e-3)))
    return tmp_path


class TestCmdPhantom:
    def test_writes_and_reruns_identically(self, tmp_path):
        assert main(["phantom", "--n", "64", "--out", str(tmp_path / "a")]) == 0
        assert main(["phantom", "--n", "64", "--out", str(tmp_path / "b")]) == 0
        a = (tmp_path / "a" / "phantom.pgm").read_bytes()
        b = (tmp_path / "b" / "phantom.pgm").read_bytes()
        assert a == b

    def test_below_minimum_is_config_error(self, tmp_path):
        assert main(["phantom", "--n", "8", "--out", str(tmp_path / "x")]) == 2

    def test_unallocatable_size_is_config_error(self, tmp_path, capsys, monkeypatch):
        def out_of_memory(n):
            raise MemoryError
        monkeypatch.setattr("mbirnet.cli.shepp_logan", out_of_memory)
        capsys.readouterr()
        assert main(["phantom", "--n", "200000", "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err and "--n 200000" in err
        assert not (tmp_path / "x" / "phantom.pgm").exists()


class TestCmdSimulate:
    def test_noiseless_matches_forward(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(BLUR_CONFIG)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s"),
                     "--noiseless"]) == 0
        truth = read_pgm(tmp_path / "s" / "truth.pgm")
        op = read_operator(tmp_path / "s" / "operator.txt")
        y = read_vector_csv(tmp_path / "s" / "y.csv")
        assert np.allclose(y, op.forward(truth.data), atol=1e-12)

    def test_fixed_seed_rerun_byte_identical(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(BLUR_CONFIG)
        for d in ("s1", "s2"):
            assert main(["simulate", "--config", str(cfg), "--out",
                         str(tmp_path / d), "--seed", "9"]) == 0
        m1 = json.loads((tmp_path / "s1" / "manifest.json").read_text())["outputs"]
        m2 = json.loads((tmp_path / "s2" / "manifest.json").read_text())["outputs"]
        assert m1 == m2

    def test_manifest_records_the_parsed_argv(self, tmp_path, monkeypatch):
        # an in-process call parses its own argv, not the host interpreter's
        monkeypatch.setattr(sys, "argv", ["python", "extra-arg-from-the-host"])
        argv = ["phantom", "--n", "16", "--out", str(tmp_path / "p")]
        assert main(argv) == 0
        info = json.loads((tmp_path / "p" / "manifest.json").read_text())
        assert info["argv"] == argv and info["command"] == "phantom"

    def test_manifest_records_peak_rss(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(BLUR_CONFIG)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 0
        peak = json.loads((tmp_path / "s" / "manifest.json").read_text())["peak_rss_mb"]
        assert isinstance(peak, float) and math.isfinite(peak) and peak > 0

    def test_manifest_records_faults_and_cpu_time(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(BLUR_CONFIG)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 0
        info = json.loads((tmp_path / "s" / "manifest.json").read_text())
        for key in ("minor_faults", "major_faults", "user_s", "sys_s"):
            value = info[key]
            assert isinstance(value, (int, float)) and not isinstance(value, bool), key
            assert math.isfinite(value) and value >= 0, key
            assert key not in info["outputs"]

    def test_manifest_records_environment(self, tmp_path):
        import platform

        import scipy

        from mbirnet.linops import usable_cpus
        cfg = tmp_path / "c.yaml"
        cfg.write_text(BLUR_CONFIG)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 0
        env = json.loads((tmp_path / "s" / "manifest.json").read_text())["environment"]
        assert env["python"] == platform.python_version()
        assert env["numpy"] == np.__version__ and env["scipy"] == scipy.__version__
        assert isinstance(env["numpy_fft"], str) and env["numpy_fft"]
        assert isinstance(env["scipy_fft"], str) and env["scipy_fft"]
        assert env["cpus"] == usable_cpus() >= 1
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        assert env["blas"] == f"{blas['name']} {blas['version']}"

    def test_manifest_blas_unknown_without_build_info(self, tmp_path, monkeypatch):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(BLUR_CONFIG)
        monkeypatch.setattr(np, "show_config", lambda mode=None: {"Build Dependencies": {}})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 0
        env = json.loads((tmp_path / "s" / "manifest.json").read_text())["environment"]
        assert env["blas"] == "unknown"

    @pytest.mark.parametrize("problem, builder", [
        ("{kind: ct, n: 100000, n_views: 1}", "build_radon"),
        ("{kind: blur, n: 200000}", "build_blur"),
    ], ids=["ct", "blur"])
    def test_unallocatable_operator_is_config_error(self, tmp_path, capsys, monkeypatch,
                                                    problem, builder):
        def out_of_memory(*args):
            raise MemoryError
        monkeypatch.setattr(f"mbirnet.config.{builder}", out_of_memory)
        cfg = tmp_path / "c.yaml"
        cfg.write_text(f"schema: 1\nproblem: {problem}\n")
        capsys.readouterr()
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err and "problem.n" in err
        assert not (tmp_path / "s" / "truth.pgm").exists()

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(BLUR_CONFIG + "extra_key: 1\n")
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 2

    def test_blur_gamma_matches_library_operator(self, tmp_path):
        # chi, kernel mix and n as in BLUR_CONFIG; the blur majorizer is the
        # identity up to rounding, so both sides take the zero-spread weight 1/chi
        cfg = tmp_path / "c.yaml"
        cfg.write_text(BLUR_CONFIG)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 0
        y = read_vector_csv(tmp_path / "s" / "y.csv")
        w = read_vector_csv(tmp_path / "s" / "weights.csv")
        ops = (read_operator(tmp_path / "s" / "operator.txt"),
               mn.build_blur(mn.binomial_kernel(0.3), (24, 24)))
        from_file, in_memory = (mn.select_gamma(mn.diag_majorizer(mn.QuadraticDataFit(op, w, y)),
                                                50.0) for op in ops)
        assert from_file == pytest.approx(in_memory, rel=1e-12)
        assert in_memory == pytest.approx(0.02, rel=1e-12)

    @pytest.mark.parametrize("problem, setting", [
        ("{kind: ct, n: 16, n_views: 8, sigma2: .inf}", "sigma2"),
        ("{kind: ct, n: 16, n_views: 8, pitch: .inf}", "pitch"),
        ("{kind: ct, n: 16, n_views: 8, incident: .nan}", "incident"),
        ("{kind: blur, n: 16, noise_sigma: .inf}", "noise_sigma"),
        ("{kind: blur, n: 16, noise_sigma: -0.5}", "noise_sigma"),
    ], ids=["sigma2", "pitch", "incident", "noise_sigma", "negative_noise_sigma"])
    def test_non_finite_setting_is_config_error(self, tmp_path, capsys, problem, setting):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(f"schema: 1\nproblem: {problem}\n")
        capsys.readouterr()
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert setting in err
        assert not (tmp_path / "s" / "y.csv").exists()

    def test_ct_simulation_writes_operator(self, tmp_path):
        cfg = tmp_path / "ct.yaml"
        cfg.write_text(textwrap.dedent("""\
            schema: 1
            seed: 0
            problem: {kind: ct, n: 16, n_views: 8}
            """))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "s")]) == 0
        op = read_operator(tmp_path / "s" / "operator.txt")
        assert op.shape[1] == 256


class TestCmdReconstruct:
    def test_momentum_and_trace_columns(self, blur_workspace):
        t = blur_workspace
        assert main(["reconstruct", "--config", str(t / "blur.yaml"),
                     "--refiners", str(t / "refs"), "--input", str(t / "sim"),
                     "--out", str(t / "rec")]) == 0
        header = (t / "rec" / "trace.csv").read_text().splitlines()[0]
        assert header == "iter,objective,step_residual,fixed_point_residual,wall_ms"

    def test_noextrap_flag_matches_api_run(self, blur_workspace):
        t = blur_workspace
        assert main(["reconstruct", "--config", str(t / "blur.yaml"),
                     "--refiners", str(t / "refs"), "--input", str(t / "sim"),
                     "--out", str(t / "rec"), "--solver", "momentum-noextrap"]) == 0
        datafit = mn.QuadraticDataFit(read_operator(t / "sim" / "operator.txt"),
                                      read_vector_csv(t / "sim" / "weights.csv"),
                                      read_vector_csv(t / "sim" / "y.csv"))
        refiner = mn.load_refiner(t / "refs" / "refiner_000.rfn")
        cfg = mn.MomentumNetConfig(n_iter=12, rho=0.5, chi=50.0, extrapolate=False)
        x0 = mn.backprojection_init(datafit, (24, 24))
        trace = mn.run_momentum_net(cfg, [refiner], datafit,
                                    mn.FeasibleSet.box(0, 1), x0)
        got = read_pgm(t / "rec" / "recon.pgm")
        expect = trace.final_image()
        assert np.max(np.abs(got.data - expect.data)) <= 0.5 / 65535 + 1e-12

    def test_unknown_solver_rejected(self, blur_workspace, capsys):
        t = blur_workspace
        code = main(["reconstruct", "--config", str(t / "blur.yaml"),
                     "--refiners", str(t / "refs"), "--input", str(t / "sim"),
                     "--out", str(t / "bad")] + ["--solver"] + ["nonsense"])
        assert code == 2

    def test_missing_operator_io_error(self, blur_workspace):
        t = blur_workspace
        assert main(["reconstruct", "--config", str(t / "blur.yaml"),
                     "--refiners", str(t / "refs"), "--input", str(t / "nowhere"),
                     "--out", str(t / "rec2")]) == 4

    def test_malformed_refiner_is_config_error(self, blur_workspace, capsys):
        t = blur_workspace
        bad = t / "badrefs"
        bad.mkdir()
        (bad / "refiner_000.rfn").write_bytes(b"MBIRNET-REFINER v1\nscnn\n")
        capsys.readouterr()
        assert main(["reconstruct", "--config", str(t / "blur.yaml"),
                     "--refiners", str(bad), "--input", str(t / "sim"),
                     "--out", str(t / "recx")]) == 2
        err = capsys.readouterr().err
        assert "refiner_000.rfn" in err and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("kind", ["scnn", "dcnn"])
    def test_filters_wider_than_the_image_are_config_error(self, blur_workspace, capsys, kind):
        # one rule for every refiner kind: 25x25 taps do not fit the 24x24 image
        t = blur_workspace
        big = t / "bigrefs"
        big.mkdir()
        rng = np.random.default_rng(0)
        refiner = (mn.ScnnRefiner.init_random(1, 625, rng) if kind == "scnn"
                   else mn.DcnnRefiner.init_random(1, 625, 2, rng))
        mn.save_refiner(big / "refiner_000.rfn", refiner)
        capsys.readouterr()
        assert main(["reconstruct", "--config", str(t / "blur.yaml"),
                     "--refiners", str(big), "--input", str(t / "sim"),
                     "--out", str(t / "recx")]) == 2
        err = capsys.readouterr().err
        assert "filters (25, 25) larger than image (24, 24)" in err and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_malformed_operator_is_config_error(self, blur_workspace, capsys):
        t = blur_workspace
        shutil.copytree(t / "sim", t / "badsim")
        with open(t / "badsim" / "operator.txt", "a") as fh:
            fh.write("0 0 1.0\n")  # one triple more than the header declares
        capsys.readouterr()
        assert main(["reconstruct", "--config", str(t / "blur.yaml"),
                     "--refiners", str(t / "refs"), "--input", str(t / "badsim"),
                     "--out", str(t / "recx")]) == 2
        err = capsys.readouterr().err
        assert "operator.txt" in err and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    @staticmethod
    def _assert_huge_header_rejected(t, capsys, monkeypatch, huge):
        """A header declaring 10^9 `huge` ("rows" or "columns") exits 2 with one
        stderr line naming it, and `read_operator` allocates under 1 MB."""
        import tracemalloc
        shutil.copytree(t / "sim", t / "hugesim")
        path = t / "hugesim" / "operator.txt"
        lines = path.read_text().splitlines(keepends=True)
        rows, cols, nnz = lines[0].split()
        header = f"{10**9} {cols}" if huge == "rows" else f"{rows} {10**9}"
        path.write_text(f"{header} {nnz}\n" + "".join(lines[1:]))
        peaks = []

        def traced_read_operator(*args, **kwargs):
            tracemalloc.start()
            try:
                return read_operator(*args, **kwargs)
            finally:
                peaks.append(tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        monkeypatch.setattr("mbirnet.cli.read_operator", traced_read_operator)
        capsys.readouterr()
        assert main(["reconstruct", "--config", str(t / "blur.yaml"),
                     "--refiners", str(t / "refs"), "--input", str(t / "hugesim"),
                     "--out", str(t / "recx")]) == 2
        err = capsys.readouterr().err
        assert "operator.txt" in err and f"1000000000 {huge}" in err
        assert len(err.strip().splitlines()) == 1
        assert len(peaks) == 1 and peaks[0] < 1 << 20

    def test_huge_operator_header_rejected_before_allocation(self, blur_workspace, capsys,
                                                            monkeypatch):
        self._assert_huge_header_rejected(blur_workspace, capsys, monkeypatch, "rows")

    def test_huge_column_count_rejected_before_allocation(self, blur_workspace, capsys,
                                                         monkeypatch):
        self._assert_huge_header_rejected(blur_workspace, capsys, monkeypatch, "columns")

    def test_diverging_refiner_numeric_failure(self, blur_workspace):
        t = blur_workspace
        bad = t / "badrefs"
        bad.mkdir()
        huge = np.full((1, 3, 3), 1e200)
        mn.save_refiner(bad / "refiner_000.rfn",
                        mn.ScnnRefiner(huge, huge, np.zeros(1), residual=False))
        assert main(["reconstruct", "--config", str(t / "blur.yaml"),
                     "--refiners", str(bad), "--input", str(t / "sim"),
                     "--out", str(t / "recx")]) == 3


class TestCmdCompare:
    def test_diverging_refiner_names_label_and_iteration(self, blur_workspace, capsys):
        t = blur_workspace
        bad = t / "badrefs"
        bad.mkdir()
        huge = np.full((1, 3, 3), 1e200)
        mn.save_refiner(bad / "refiner_000.rfn",
                        mn.ScnnRefiner(huge, huge, np.zeros(1), residual=False))
        capsys.readouterr()
        assert main(["compare", "--config", str(t / "blur.yaml"),
                     "--refiners", str(bad), "--input", str(t / "sim"),
                     "--out", str(t / "cmpx")]) == 3
        err = capsys.readouterr().err
        assert err == "numeric failure: blur: non-finite iterate at iteration 1\n"

    def test_two_configs_summary(self, blur_workspace):
        t = blur_workspace
        noext = (t / "blur.yaml").read_text().replace("kind: momentum",
                                                      "kind: momentum-noextrap")
        (t / "noext.yaml").write_text(noext)
        assert main(["compare", "--config", str(t / "blur.yaml"), str(t / "noext.yaml"),
                     "--refiners", str(t / "refs"), "--input", str(t / "sim"),
                     "--out", str(t / "cmp")]) == 0
        lines = (t / "cmp" / "summary.csv").read_text().splitlines()
        assert lines[0] == "label,solver,n_iter,final_objective,iters_to_threshold,wall_ms"
        assert len(lines) == 3
        assert (t / "cmp" / "trace_blur.csv").exists()
        assert (t / "cmp" / "trace_noext.csv").exists()

    def test_single_config_degenerate_summary(self, blur_workspace):
        t = blur_workspace
        assert main(["compare", "--config", str(t / "blur.yaml"),
                     "--refiners", str(t / "refs"), "--input", str(t / "sim"),
                     "--out", str(t / "cmp1")]) == 0
        assert len((t / "cmp1" / "summary.csv").read_text().splitlines()) == 2

    def test_shared_file_name_rejected(self, blur_workspace, capsys):
        # the runs would share the label `blur` and the trace file trace_blur.csv
        t = blur_workspace
        (t / "other").mkdir()
        shutil.copy(t / "blur.yaml", t / "other" / "blur.yaml")
        capsys.readouterr()
        assert main(["compare", "--config", str(t / "blur.yaml"), str(t / "other" / "blur.yaml"),
                     "--refiners", str(t / "refs"), "--input", str(t / "sim"),
                     "--out", str(t / "cmpx")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "blur" in err
        assert not (t / "cmpx" / "summary.csv").exists()

    def test_mismatched_problems_rejected(self, blur_workspace):
        t = blur_workspace
        other = BLUR_CONFIG.replace("n: 24", "n: 16")
        (t / "other.yaml").write_text(other)
        assert main(["compare", "--config", str(t / "blur.yaml"), str(t / "other.yaml"),
                     "--refiners", str(t / "refs"), "--input", str(t / "sim"),
                     "--out", str(t / "cmpx")]) == 2


def _write_ct_training_set(tmp_path, n=16, n_views=8, count=3, arch="{type: scnn, n_filters: 4, filter_size: 9}",
                           stages=2, epochs=4):
    base = tmp_path / "trainset"
    base.mkdir()
    geom = mn.CtGeometry(n, n_views)
    op = mn.build_radon(geom)
    write_operator(base / "A.txt", op)
    rng = np.random.default_rng(0)
    entries = []
    for i in range(count):
        truth = mn.random_ellipse_phantom(n, rng)
        y, w = mn.simulate_ct(truth, op, 1e5, 25.0, seed=i)
        write_pgm(base / f"t{i}.pgm", truth)
        write_vector_csv(base / f"y{i}.csv", y)
        write_vector_csv(base / f"w{i}.csv", w)
        entries.append(f"  - {{truth: t{i}.pgm, measurements: y{i}.csv, "
                       f"weights: w{i}.csv, operator: A.txt}}")
    manifest = textwrap.dedent(f"""\
        schema: 1
        seed: 3
        chi: 10.0
        solver:
          kind: momentum
          rho: 0.5
          n_iter: 10
          feasible: nonneg
        train:
          arch: {arch}
          epochs: {epochs}
          batch_size: {count}
          n_iter: {stages}
        samples:
        """) + "\n".join(entries) + "\n"
    path = base / "manifest.yaml"
    path.write_text(manifest)
    return path


class TestCmdTrain:
    def test_single_stage_writes_one_refiner(self, tmp_path):
        manifest = _write_ct_training_set(tmp_path, stages=1)
        assert main(["train", "--config", str(manifest), "--out", str(tmp_path / "tr")]) == 0
        out = tmp_path / "tr"
        assert (out / "refiner_000.rfn").exists()
        assert not (out / "refiner_001.rfn").exists()
        loss_lines = (out / "loss_000.csv").read_text().splitlines()
        assert loss_lines[0] == "epoch,loss"
        assert len(loss_lines) == 1 + 4  # header + epochs rows

    def test_truncated_truth_is_config_error(self, tmp_path, capsys):
        manifest = _write_ct_training_set(tmp_path, stages=1)
        truth = manifest.parent / "t1.pgm"
        truth.write_bytes(truth.read_bytes()[:-10])
        capsys.readouterr()
        assert main(["train", "--config", str(manifest), "--out", str(tmp_path / "tr")]) == 2
        err = capsys.readouterr().err
        assert "t1.pgm" in err and "Traceback" not in err
        assert len(err.strip().splitlines()) == 1

    def test_diverging_training_is_numeric_failure(self, tmp_path, capsys):
        manifest = _write_ct_training_set(tmp_path, stages=1)
        manifest.write_text(manifest.read_text().replace(
            "epochs: 4", "epochs: 4\n  lr_filters: 1.0e+300"))
        capsys.readouterr()
        assert main(["train", "--config", str(manifest), "--out", str(tmp_path / "tr")]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "numeric failure: non-finite loss" in err
        assert not (tmp_path / "tr" / "manifest.json").exists()

    @pytest.mark.parametrize("arch", [
        "{type: scnn, n_filters: 4, filter_size: 9}",
        "{type: dcnn, n_filters: 4, filter_size: 9, n_layers: 3}",
    ], ids=["scnn", "dcnn"])
    def test_rerun_bit_identical(self, tmp_path, arch):
        manifest = _write_ct_training_set(tmp_path, arch=arch)
        for d in ("t1", "t2"):
            assert main(["train", "--config", str(manifest),
                         "--out", str(tmp_path / d)]) == 0
        m1 = json.loads((tmp_path / "t1" / "manifest.json").read_text())["outputs"]
        m2 = json.loads((tmp_path / "t2" / "manifest.json").read_text())["outputs"]
        assert m1 == m2

    @pytest.mark.parametrize("arch, named", [
        ("{type: scnn, n_filters: 0, filter_size: 9}", "n_filters=0"),
        ("{type: scnn, n_filters: -1, filter_size: 9}", "n_filters=-1"),
        ("{type: scnn, n_filters: 4, filter_size: 0}", "filter_size=0"),
        ("{type: scnn, n_filters: 4, filter_size: 10}", "filter_size=10"),
        ("{type: dcnn, n_filters: 0, filter_size: 9, n_layers: 3}", "n_filters=0"),
    ], ids=["scnn-no-filters", "scnn-negative-filters", "scnn-size-0", "scnn-size-10",
            "dcnn-no-filters"])
    def test_invalid_filter_bank_is_config_error(self, tmp_path, capsys, arch, named):
        manifest = _write_ct_training_set(tmp_path, arch=arch, stages=1, epochs=1)
        capsys.readouterr()
        assert main(["train", "--config", str(manifest), "--out", str(tmp_path / "tr")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("config error: ") and named in err
        assert not (tmp_path / "tr" / "refiner_000.rfn").exists()

    # `train` always follows the momentum trajectory and runs no BCD inner loop
    @pytest.mark.parametrize("old, new, message", [
        ("kind: momentum", "kind: bcd",
         "solver.kind must be momentum or momentum-noextrap in a training manifest, got 'bcd'"),
        ("rho: 0.5", "rho: 0.5\n  inner_iters: 3", "solver: unknown key(s) ['inner_iters']"),
    ], ids=["kind-bcd", "inner_iters"])
    def test_solver_setting_train_cannot_follow_is_config_error(self, tmp_path, capsys, old,
                                                                new, message):
        manifest = _write_ct_training_set(tmp_path, stages=1, epochs=1)
        manifest.write_text(manifest.read_text().replace(old, new))
        capsys.readouterr()
        assert main(["train", "--config", str(manifest), "--out", str(tmp_path / "tr")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and message in err
        assert not (tmp_path / "tr" / "refiner_000.rfn").exists()


class TestProximityWeightSettings:
    @pytest.mark.parametrize("command, old, new, setting", [
        ("reconstruct", "chi: 50.0", "chi: 1.0e-320", "chi"),
        ("reconstruct", "chi: 50.0", "chi: .nan", "chi"),
        ("reconstruct", "chi: 50.0", "chi: .inf", "chi"),
        ("reconstruct", "chi: 50.0", "gamma: .nan", "gamma"),
        ("reconstruct", "chi: 50.0", "gamma: .inf", "gamma"),
        ("train", "chi: 10.0", "chi: 1.0e-320", "chi"),
        ("train", "chi: 10.0", "gamma: .inf", "gamma"),
        ("reconstruct", "rho: 0.5", "rho: 0.5\n  lam: .nan", "lam"),
        ("reconstruct", "rho: 0.5", "rho: 0.5\n  lam: .inf", "lam"),
        ("train", "rho: 0.5", "rho: 0.5\n  lam: .nan", "lam"),
        ("train", "rho: 0.5", "rho: 0.5\n  lam: .inf", "lam"),
        ("train", "epochs: 4", "epochs: 4\n  lr_filters: .nan", "lr_filters"),
    ], ids=["reconstruct-chi-tiny", "reconstruct-chi-nan", "reconstruct-chi-inf",
            "reconstruct-gamma-nan", "reconstruct-gamma-inf", "train-chi-tiny",
            "train-gamma-inf", "reconstruct-lam-nan", "reconstruct-lam-inf", "train-lam-nan",
            "train-lam-inf", "train-lr_filters-nan"])
    def test_bad_value_names_the_setting(self, blur_workspace, capsys, command, old, new,
                                         setting):
        t = blur_workspace
        if command == "reconstruct":
            cfg = t / "blur.yaml"
            extra = ["--refiners", str(t / "refs"), "--input", str(t / "sim")]
        else:
            cfg = _write_ct_training_set(t, stages=1)
            extra = []
        cfg.write_text(cfg.read_text().replace(old, new))
        capsys.readouterr()
        assert main([command, "--config", str(cfg), "--out", str(t / "out")] + extra) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert setting in err

    @pytest.mark.parametrize("key, value", [("chi", "0.001"), ("gamma", "1000.0")])
    def test_manifest_solver_block_takes_no_weight(self, tmp_path, capsys, key, value):
        # a manifest sets chi or gamma at its top level only
        manifest = _write_ct_training_set(tmp_path, stages=1, epochs=1)
        manifest.write_text(manifest.read_text().replace("rho: 0.5",
                                                         f"rho: 0.5\n  {key}: {value}"))
        capsys.readouterr()
        assert main(["train", "--config", str(manifest), "--out", str(tmp_path / "tr")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"solver: unknown key(s) ['{key}']" in err
        assert not (tmp_path / "tr" / "refiner_000.rfn").exists()


class TestCmdDiagnose:
    def test_sequences_emitted(self, tmp_path):
        manifest = _write_ct_training_set(tmp_path, stages=3)
        assert main(["train", "--config", str(manifest), "--out", str(tmp_path / "tr")]) == 0
        assert main(["diagnose", "--config", str(manifest),
                     "--refiners", str(tmp_path / "tr"),
                     "--out", str(tmp_path / "dg")]) == 0
        lines = (tmp_path / "dg" / "diagnostics.csv").read_text().splitlines()
        assert lines[0] == "iter,epsilon,delta,kappa"
        assert len(lines) == 4  # header + one row per trained refiner

    def test_identity_refiners_kappa_one(self, tmp_path, rng):
        manifest = _write_ct_training_set(tmp_path)
        base = manifest.parent
        op = read_operator(base / "A.txt")
        samples = []
        for i in range(3):
            truth = read_pgm(base / f"t{i}.pgm")
            y = read_vector_csv(base / f"y{i}.csv")
            w = read_vector_csv(base / f"w{i}.csv")
            samples.append(mn.TrainingSample(truth, mn.QuadraticDataFit(op, w, y)))
        cfg = mn.MomentumNetConfig(n_iter=6, rho=0.5, chi=10.0, record_fixed_point=False)
        res = mn.run_diagnostics([mn.IdentityRefiner()] * 3, samples, cfg,
                                 mn.FeasibleSet.nonneg(), seed=0)
        assert np.allclose(res.kappa, 1.0)
        assert np.all(res.epsilon[1:] == 0.0)

    def test_single_refiner_kappa_only(self, tmp_path):
        manifest = _write_ct_training_set(tmp_path, stages=1)
        assert main(["train", "--config", str(manifest), "--out", str(tmp_path / "tr")]) == 0
        assert main(["diagnose", "--config", str(manifest),
                     "--refiners", str(tmp_path / "tr"),
                     "--out", str(tmp_path / "dg")]) == 0
        lines = (tmp_path / "dg" / "diagnostics.csv").read_text().splitlines()
        assert lines[0] == "iter,kappa"

    @pytest.mark.parametrize("pairs", ["0", "-1"])
    def test_pair_count_below_one_is_config_error(self, tmp_path, capsys, pairs):
        manifest = _write_ct_training_set(tmp_path, stages=1, epochs=1)
        assert main(["train", "--config", str(manifest), "--out", str(tmp_path / "tr")]) == 0
        capsys.readouterr()
        assert main(["diagnose", "--config", str(manifest), "--refiners", str(tmp_path / "tr"),
                     "--out", str(tmp_path / "dg"), "--pairs", pairs]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert f"need at least one sample pair, got {pairs}" in err
        assert not (tmp_path / "dg" / "diagnostics.csv").exists()

    def test_fixed_seed_identical_csv(self, tmp_path):
        manifest = _write_ct_training_set(tmp_path)
        assert main(["train", "--config", str(manifest), "--out", str(tmp_path / "tr")]) == 0
        for d in ("d1", "d2"):
            assert main(["diagnose", "--config", str(manifest),
                         "--refiners", str(tmp_path / "tr"),
                         "--out", str(tmp_path / d), "--seed", "4"]) == 0
        a = (tmp_path / "d1" / "diagnostics.csv").read_bytes()
        b = (tmp_path / "d2" / "diagnostics.csv").read_bytes()
        assert a == b


def _ct_samples(count, n=16, n_views=8):
    """In-memory CT samples sharing one operator."""
    op = mn.build_radon(mn.CtGeometry(n, n_views))
    rng = np.random.default_rng(0)
    samples = []
    for i in range(count):
        truth = mn.random_ellipse_phantom(n, rng)
        y, w = mn.simulate_ct(truth, op, 1e5, 25.0, seed=i)
        samples.append(mn.TrainingSample(truth, mn.QuadraticDataFit(op, w, y)))
    return samples


def _diagnostics_from_traces(refiners, samples, config, feasible, n_pairs, seed):
    """kappa/epsilon/delta rows from whole `run_momentum_net` traces, one per sample,
    calling the refiners again on every pair member."""
    rng = np.random.default_rng(seed)
    shape = samples[0].truth.shape
    traces = [mn.run_momentum_net(config, refiners, s.datafit, feasible,
                                  mn.backprojection_init(s.datafit, shape)) for s in samples]
    n = len(samples)
    pairs = [(a, b) for a in range(n) for b in range(n) if a != b] if n > 1 else [(0, 0)]
    if len(pairs) > n_pairs:
        pairs = [pairs[i] for i in rng.choice(len(pairs), size=n_pairs, replace=False)]
    n_iter = min(len(t) - 1 for t in traces)
    rows = np.full((n_iter, 3), np.nan)
    for k in range(1, n_iter + 1):
        r_k = refiners[min(k - 1, len(refiners) - 1)]
        u = [t.records[k - 1].x.reshape(shape) for t in traces]
        lip = [((u[a], r_k(u[a])), (u[b], r_k(u[b]))) for a, b in pairs if a != b]
        if lip:
            rows[k - 1, 0] = mn.lipschitz_estimate(lip)
        if k >= 2 and len(refiners) >= 2:
            r_prev = refiners[min(k - 2, len(refiners) - 1)]
            v = [t.records[k - 2].x.reshape(shape) for t in traces]
            rows[k - 1, 1] = mn.paired_epsilon([((u[a], r_k(u[a])), (v[b], r_prev(v[b])))
                                                for a, b in pairs])
            rows[k - 1, 2] = max(mn.delta_measure(t.records[k].z, t.records[k - 1].z,
                                                  t.records[k - 1].x) for t in traces)
    return rows


class _CountingRefiner:
    def __init__(self):
        self.calls = 0

    def __call__(self, u):
        self.calls += 1
        return 0.5 * u


class TestDiagnosticsTrajectory:
    def test_each_refiner_runs_once_per_iteration(self):
        refiners = [_CountingRefiner() for _ in range(3)]
        cfg = mn.MomentumNetConfig(n_iter=4, rho=0.5, chi=10.0)
        res = mn.run_diagnostics(refiners, _ct_samples(3), cfg, mn.FeasibleSet.nonneg(),
                                 n_pairs=6)
        assert res.n_iter == 4
        # one call on the stack of all 3 samples per iteration; the last
        # refiner repeats at iteration 4
        assert [r.calls for r in refiners] == [1, 1, 2]

    @pytest.mark.parametrize("count,n_pairs", [(3, 4), (3, 100), (1, 100)])
    def test_matches_rows_from_whole_solver_traces(self, count, n_pairs):
        rng = np.random.default_rng(1)
        refiners = [dataclasses.replace(mn.ScnnRefiner.init_random(4, 9, rng),
                                        log_thresholds=np.full(4, math.log(0.05)))
                    for _ in range(3)]
        samples = _ct_samples(count)
        cfg = mn.MomentumNetConfig(n_iter=4, rho=0.5, chi=10.0)
        feasible = mn.FeasibleSet.nonneg()
        res = mn.run_diagnostics(refiners, samples, cfg, feasible, n_pairs=n_pairs, seed=5)
        want = _diagnostics_from_traces(refiners, samples, cfg, feasible, n_pairs, seed=5)
        got = np.column_stack([res.kappa, res.epsilon, res.delta])
        assert got.shape == (4, 3)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.all(np.isfinite(want[1:, 1:]))
        assert np.all(np.isfinite(want[:, 0])) == (count > 1)

    def test_non_finite_iterate_truncates_rows(self):
        def blow_up(u):
            return np.full_like(u, np.nan)

        refiners = [mn.IdentityRefiner(), mn.IdentityRefiner(), blow_up, mn.IdentityRefiner()]
        cfg = mn.MomentumNetConfig(n_iter=6, rho=0.5, chi=10.0)
        res = mn.run_diagnostics(refiners, _ct_samples(3), cfg, mn.FeasibleSet.nonneg())
        assert res.n_iter == 3  # iteration 3 yields the first non-finite iterate; its row stays
        assert np.allclose(res.kappa[:2], 1.0)
        assert res.epsilon.shape == res.delta.shape == (3,)


def _summary_table(t, monkeypatch):
    """`mbirnet compare`'s summary.csv over two runs with these traces, its
    header, and the rows it must hold."""
    def trace(objectives, walls):
        out = mn.IterateTrace((1, 1))
        for i, (objective, wall) in enumerate(zip(objectives, walls)):
            out.append(mn.IterateRecord(it=i, objective=objective, step_residual=0.0,
                                        x=np.zeros(1), z=np.zeros(1), wall_ms=wall))
        return out

    traces = {"blur": trace([1.0 / 3.0, -0.0], [0.0, 1.0 / 3.0]),
              "noext": trace([math.inf, 5e-324], [1e300, math.nan])}
    monkeypatch.setattr("mbirnet.cli._run_solver",
                        lambda cfg, refiners, datafit, label: traces[label])
    (t / "noext.yaml").write_text((t / "blur.yaml").read_text().replace(
        "kind: momentum", "kind: momentum-noextrap"))
    assert main(["compare", "--config", str(t / "blur.yaml"), str(t / "noext.yaml"),
                 "--refiners", str(t / "refs"), "--input", str(t / "sim"),
                 "--out", str(t / "cmp")]) == 0
    # the best final objective is -0.0, so the threshold is 0.0
    rows = [["blur", "momentum", 1, -0.0, 1, 1.0 / 3.0],
            ["noext", "momentum-noextrap", 1, 5e-324, -1, math.nan]]
    return t / "cmp" / "summary.csv", ("label", "solver", "n_iter", "final_objective",
                                       "iters_to_threshold", "wall_ms"), rows


class TestDiagnosticsCsv:
    """The diagnostics table, with and without pair columns, and `compare`'s
    summary: every float cell reads back with the same bits."""

    @pytest.mark.parametrize("table", ["pairs", "kappa", "summary"])
    def test_columns_and_exact_values(self, tmp_path, monkeypatch, request, table):
        if table == "summary":
            path, header, rows = _summary_table(request.getfixturevalue("blur_workspace"),
                                                monkeypatch)
        else:
            kappa = np.array([0.1, 1.0 / 3.0, math.inf])
            epsilon = np.array([math.nan, -0.0, 5e-324])
            delta = np.array([math.nan, 1e300, -math.inf])
            res = mn.DiagnosticsResult(kappa, epsilon, delta, table == "pairs")
            path = tmp_path / "d.csv"
            res.to_csv(path)
            columns = ("epsilon", "delta", "kappa") if table == "pairs" else ("kappa",)
            header = ("iter",) + columns
            rows = [[i + 1] + [getattr(res, c)[i] for c in columns] for i in range(res.n_iter)]
        lines = path.read_text().splitlines()
        assert lines[0] == ",".join(header)
        assert len(lines) == 1 + len(rows)
        for line, row in zip(lines[1:], rows):
            cells = line.split(",")
            assert len(cells) == len(row)
            for cell, want in zip(cells, row):
                if not isinstance(want, float):
                    assert cell == str(want)
                elif math.isnan(want):
                    assert cell == "nan"
                else:
                    assert np.float64(cell).tobytes() == np.float64(want).tobytes()


class TestOperatorParsedOnce:
    @pytest.mark.parametrize("files", [1, 2])
    def test_train_and_diagnose_parse_each_operator_file_once(self, tmp_path, monkeypatch,
                                                              files):
        manifest = _write_ct_training_set(tmp_path, stages=1, epochs=1)
        if files == 2:  # the first sample names a copy, the other two share A.txt
            shutil.copy(manifest.parent / "A.txt", manifest.parent / "B.txt")
            text = manifest.read_text()
            manifest.write_text(text.replace("operator: A.txt", "operator: B.txt", 1))
        calls = []

        def counting_read_operator(path, **kwargs):
            calls.append(path)
            return read_operator(path, **kwargs)
        monkeypatch.setattr("mbirnet.cli.read_operator", counting_read_operator)
        assert main(["train", "--config", str(manifest), "--out", str(tmp_path / "tr")]) == 0
        assert len(calls) == files
        calls.clear()
        assert main(["diagnose", "--config", str(manifest), "--refiners", str(tmp_path / "tr"),
                     "--out", str(tmp_path / "dg"), "--pairs", "2"]) == 0
        assert len(calls) == files


class TestManifestChecksums:
    def test_wall_clock_masked_in_trace_hash(self, blur_workspace):
        t = blur_workspace
        for d in ("r1", "r2"):
            assert main(["reconstruct", "--config", str(t / "blur.yaml"),
                         "--refiners", str(t / "refs"), "--input", str(t / "sim"),
                         "--out", str(t / d)]) == 0
        m1 = json.loads((t / "r1" / "manifest.json").read_text())["outputs"]
        m2 = json.loads((t / "r2" / "manifest.json").read_text())["outputs"]
        assert m1 == m2  # trace hashes equal even though wall times differ
        raw1 = (t / "r1" / "trace.csv").read_text()
        raw2 = (t / "r2" / "trace.csv").read_text()
        assert raw1 != raw2  # the wall_ms column itself does differ


@pytest.fixture
def fuzz_inputs(blur_workspace):
    """Per command: a valid config and the rest of its command line."""
    t = blur_workspace
    manifest = _write_ct_training_set(t, stages=1, epochs=1)
    return {
        "reconstruct": (t / "blur.yaml",
                        ["--refiners", str(t / "refs"), "--input", str(t / "sim")]),
        "diagnose": (manifest, ["--refiners", str(t / "refs"), "--pairs", "2"]),
        "train": (manifest, []),
    }


def _assert_one_line_never_a_traceback(capsys, argv):
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4)
    assert err.count("\n") <= 1 and "Traceback" not in err
    assert not caught, [str(w.message) for w in caught]


@pytest.mark.parametrize("command", ["reconstruct", "train", "diagnose"])
def test_overflowing_measurements_rejected_on_load(tmp_path, fuzz_inputs, capsys, command):
    # finite measurements whose 1/2 ||y||^2_W overflows exit 2 with one line
    # naming the file, before any solver or training step runs
    config, rest = fuzz_inputs[command]
    y = config.parent / ("sim/y.csv" if command == "reconstruct" else "y0.csv")
    lines = y.read_text().splitlines()
    y.write_text("\n".join(["1e300", *lines[1:]]) + "\n")
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--config", str(config), "--out", str(tmp_path / "out"), *rest])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1 and str(y) in err and "overflows" in err
    assert not caught, [str(w.message) for w in caught]
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("command", ["reconstruct", "train", "diagnose"])
def test_overflowing_majorizer_rejected_on_load(tmp_path, fuzz_inputs, capsys, command):
    # one operator entry of 1e200 keeps 1/2 ||y||^2_W finite, but the data-fit
    # majorizer |A|^T W |A| 1 overflows: exit 2 with one line naming the files
    config, rest = fuzz_inputs[command]
    sim = config.parent / "sim" if command == "reconstruct" else config.parent
    names = (("operator.txt", "y.csv", "weights.csv") if command == "reconstruct"
             else ("A.txt", "y0.csv", "w0.csv"))
    op_path = sim / names[0]
    header, first, *rest_lines = op_path.read_text().splitlines()
    op_path.write_text("\n".join([header, " ".join(first.split()[:2] + ["1e200"]),
                                   *rest_lines]) + "\n")
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--config", str(config), "--out", str(tmp_path / "out"), *rest])
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1 and "majorizer" in err
    assert all(str(sim / name) in err for name in names)
    assert not caught, [str(w.message) for w in caught]
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("command", ["train", "diagnose"])
def test_mixed_image_sizes_rejected_on_load(tmp_path, capsys, command):
    # sample 1 is a 20x20 image with its own operator; sample 0 is 16x16
    manifest = _write_ct_training_set(tmp_path, count=2, stages=1, epochs=1)
    base = manifest.parent
    op = mn.build_radon(mn.CtGeometry(20, 8))
    write_operator(base / "A20.txt", op)
    truth = mn.random_ellipse_phantom(20, np.random.default_rng(1))
    y, w = mn.simulate_ct(truth, op, 1e5, 25.0, seed=1)
    write_pgm(base / "t1.pgm", truth)
    write_vector_csv(base / "y1.csv", y)
    write_vector_csv(base / "w1.csv", w)
    manifest.write_text(manifest.read_text().replace("w1.csv, operator: A.txt",
                                                     "w1.csv, operator: A20.txt"))
    # the samples are checked before any refiner is read
    rest = ["--refiners", str(tmp_path / "refs")] if command == "diagnose" else []
    capsys.readouterr()
    assert main([command, "--config", str(manifest), "--out", str(tmp_path / "out"),
                 *rest]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "Traceback" not in err
    assert str(base / "t0.pgm") in err and str(base / "t1.pgm") in err
    assert "16x16" in err and "20x20" in err
    assert not (tmp_path / "out" / "manifest.json").exists()


class TestConfigFuzz:
    @pytest.mark.parametrize("command", ["reconstruct", "diagnose"])
    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_corrupt_config_gives_one_line_never_a_traceback(self, tmp_path, fuzz_inputs,
                                                               capsys, command, data):
        config, rest = fuzz_inputs[command]
        corrupt = config.with_name("corrupt.yaml")  # sample paths resolve beside it
        corrupt.write_bytes(data.draw(_overwritten(config.read_bytes())))
        _assert_one_line_never_a_traceback(
            capsys, [command, "--config", str(corrupt), "--out", str(tmp_path / "out"), *rest])

    # every artifact file the command reads, relative to its config's directory
    @pytest.mark.parametrize("command, artifact", [
        ("reconstruct", "sim/operator.txt"),
        ("reconstruct", "sim/y.csv"),
        ("reconstruct", "sim/weights.csv"),
        ("train", "A.txt"),
        ("train", "t0.pgm"),
        ("train", "y0.csv"),
        ("train", "w0.csv"),
    ], ids=lambda v: v.replace("sim/", ""))
    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_corrupt_artifact_gives_one_line_never_a_traceback(self, tmp_path, fuzz_inputs,
                                                               capsys, command, artifact, data):
        config, rest = fuzz_inputs[command]
        path = config.parent / artifact
        valid = path.read_bytes()
        path.write_bytes(data.draw(_overwritten(valid)))
        try:
            _assert_one_line_never_a_traceback(
                capsys, [command, "--config", str(config), "--out", str(tmp_path / "out"), *rest])
        finally:
            path.write_bytes(valid)
