"""Self-test of the benchmark.

Checks that the traced counts repeat exactly across two traced runs of every
workload, that the per-iteration counts match the seed program's structure,
and that the benchmark refuses to run without the package sources.  Run from
the repository root (takes a few minutes):

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import mbirnet as mn  # noqa: E402
from spans import COUNT_NAMES, Recorder  # noqa: E402
from workloads import _tied_refiners  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _calls(fn) -> dict:
    recorder = Recorder()
    recorder.install()
    try:
        fn()
    finally:
        recorder.uninstall()
    out = {name: agg["calls"] for name, agg in recorder.summary().items()}
    out.update(recorder.counts)
    return out


def _per_iteration(run) -> dict:
    """Counts of iteration n+1 alone: run(3) minus run(2)."""
    longer, shorter = _calls(lambda: run(3)), _calls(lambda: run(2))
    return {name: longer[name] - shorter[name] for name in longer}


@pytest.fixture(scope="module")
def ct64():
    op = mn.build_radon(mn.CtGeometry(64, 23))
    truth = mn.shepp_logan(64)
    y, w = mn.simulate_ct(truth, op, 1e5, 25.0, seed=0)
    fit = mn.QuadraticDataFit(op, w, y)
    return fit, mn.backprojection_init(fit, (64, 64)), _tied_refiners(np.random.default_rng(0), 1)


def test_momentum_iteration_counts(ct64):
    fit, x0, refiners = ct64

    def run(n_iter):
        cfg = mn.MomentumNetConfig(n_iter=n_iter, rho=0.5, chi=10.0)  # record on
        mn.run_momentum_net(cfg, refiners, fit, mn.FeasibleSet.nonneg(), x0)

    got = _per_iteration(run)
    assert got["linops.forward"] == 3
    assert got["linops.adjoint"] == 2
    assert got["refiners.forward"] == 2
    assert got["refiners.filter_fft"] == 4
    assert got["fft"] == 12
    assert got["solver.momentum_net_step"] == 1
    assert got["solver.fixed_point_residual"] == 1
    assert got["linops.nnz_touched"] == 5 * fit.op.matrix.nnz


def test_bcd_outer_iteration_counts(ct64):
    fit, x0, refiners = ct64

    def run(n_iter):
        cfg = mn.MomentumNetConfig(n_iter=n_iter, rho=0.5, chi=10.0)
        mn.run_bcd_net(cfg, refiners, fit, mn.FeasibleSet.nonneg(), x0, 10)

    got = _per_iteration(run)
    assert got["linops.forward"] == 11
    assert got["linops.adjoint"] == 10
    assert got["linops.diag_majorizer"] == 1
    assert got["refiners.forward"] == 1
    assert got["solver.apg_solve"] == 1


def test_fft_counted_at_numpy_and_scipy_entry_points():
    import scipy.fft

    image = np.ones((8, 8))
    got = _calls(lambda: (np.fft.irfft2(np.fft.rfft2(image), s=image.shape),
                          scipy.fft.irfft2(scipy.fft.rfft2(image), s=image.shape)))
    assert got["fft"] == 4
    assert got["fft.points"] == 4 * image.size


def _run(workload: str, trace: int = 1, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_counts_repeat(workload):
    runs = []
    for _ in range(2):
        proc = _run(workload)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        runs.append(result["metrics"])
    assert set(runs[0]) == {m["name"] for m in BENCHMARK["per_layer"]}
    counts = [name for name in runs[0] if name.endswith(".calls") or name in COUNT_NAMES]
    assert [runs[0][n]["value"] for n in counts] == [runs[1][n]["value"] for n in counts]
    assert runs[0]["cli.main.calls"]["value"] + runs[0]["solver.run_bcd_net.calls"]["value"] > 0


def test_untraced_reports_every_end_to_end_metric():
    proc = _run("recon_ct64", trace=0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 5
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_percentile_is_nearest_rank():
    from run import percentile

    assert percentile(range(1, 51), 80) == (40, 10)
    assert percentile([5.0], 80) == (5.0, 0)


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = _run(BENCHMARK["workloads"][0]["name"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
