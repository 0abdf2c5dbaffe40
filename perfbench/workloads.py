"""Benchmark workloads: seeded inputs, timed operations and output checks.

Every input (phantoms, noise seeds, refiner thresholds, the training seed) is
derived from the workload seed; the program receives only the generated files
or arrays.  A workload's timed phase repeats whole *units* of fixed work, each
made of *operations* (one CLI call or one library call).  Only the operations
are timed; their outputs are checked right after, outside the timing.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import mbirnet as mn
import mbirnet.cli
import mbirnet.solver
from mbirnet.fileio import read_pgm, write_operator, write_pgm, write_vector_csv

INCIDENT = 1e5
SIGMA2 = 25.0
CHI = 10.0        # from the criterion-10 chi grid
RHO = 0.5
N_SMALL = 64
VIEWS_SMALL = 23  # of the 180-view grid
N_LARGE = 256
VIEWS_LARGE = 180
TF_FILTERS = 25   # K = R = 25: 5x5 DCT tight frame

TRAIN_SAMPLES = 10
TRAIN_STAGES = 3
TRAIN_EPOCHS = 8
REFINER_STAGES = 5
RECON_IMAGES = 5
RECON_ITERS = 20
DIAG_SAMPLES = 3  # the first held-out images, diagnosed after their reconstruction
DIAG_PAIRS = 6
BCD_IMAGES = 2
BCD_OUTER = 2
BCD_INNER = 10


# ---------------------------------------------------------------------------
# operation ledger
# ---------------------------------------------------------------------------

@dataclass
class Ledger:
    """Attempted and failed operations plus the latency of each one-image operation."""

    attempted: int = 0
    failed: int = 0
    image_ms: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)

    def op(self, label: str, fn, check, image: bool = False):
        """Time fn(), then check its result; returns (result, seconds) or (None, seconds).

        `check(result)` returns a list of problems; an exception or any problem
        marks the operation failed, is printed, and the run continues.  An
        operation that reconstructs one image (`image`) records its latency.
        """
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                result = fn()
        except Exception:  # a failed operation is counted, never fatal
            elapsed = time.perf_counter() - t0
            self._fail(f"{label}: raised\n{traceback.format_exc()}")
            return None, elapsed
        elapsed = time.perf_counter() - t0
        if image:
            self.image_ms.append(elapsed * 1e3)
        problems = check(result)
        if problems:
            self._fail(f"{label}: " + "; ".join(problems))
            return None, elapsed
        return result, elapsed

    def _fail(self, message: str) -> None:
        self.failed += 1
        self.problems.append(message)
        print(f"check failed: {message}", flush=True)


def _exit_ok(code):
    return [] if code == 0 else [f"exit code {code}"]


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------

@dataclass
class Sample:
    truth: mn.ImageVector
    datafit: mn.QuadraticDataFit
    bp_rmse: float


def _simulate(op, n: int, count: int, rng: np.random.Generator, work: Path, tag: str):
    """Random ellipse phantoms and their noisy CT data.

    The truth is saved as PGM and read back, so the simulation and the check
    use the same quantized image the program will read.
    """
    samples = []
    for i in range(count):
        truth_path = work / f"{tag}{i}.pgm"
        write_pgm(truth_path, mn.random_ellipse_phantom(n, rng))
        truth = read_pgm(truth_path)
        y, w = mn.simulate_ct(truth, op, INCIDENT, SIGMA2, seed=int(rng.integers(2**31)))
        fit = mn.QuadraticDataFit(op, w, y)
        bp = mn.backprojection_init(fit, (n, n))
        samples.append(Sample(truth, fit, mn.rmse(bp, truth)))
    return samples


def _tied_refiners(rng: np.random.Generator, stages: int):
    """Tied tight-frame sCNN sequence with seeded thresholds decaying by stage."""
    bank = mn.make_tf_filterbank(TF_FILTERS)
    flipped = bank[:, ::-1, ::-1]
    thr0 = rng.uniform(2.5e-3, 3.5e-3)
    return [mn.ScnnRefiner(bank, flipped, np.full(TF_FILTERS, math.log(thr0 * 0.8 ** t)),
                           residual=False)
            for t in range(stages)]


def _save_refiners(refiners, out: Path) -> Path:
    out.mkdir()
    for i, refiner in enumerate(refiners):
        mn.save_refiner(out / f"refiner_{i:03d}.rfn", refiner)
    return out


def _write_manifest(samples, op, work: Path, seed: int, stages: int, epochs: int) -> Path:
    """Training-set manifest over shared operator text and per-sample files."""
    write_operator(work / "A.txt", op)
    entries = []
    for i, s in enumerate(samples):
        write_vector_csv(work / f"y{i}.csv", s.datafit.measurements)
        write_vector_csv(work / f"w{i}.csv", s.datafit.weights)
        entries.append(f"  - {{truth: t{i}.pgm, measurements: y{i}.csv, "
                       f"weights: w{i}.csv, operator: A.txt}}")
    text = "\n".join([
        "schema: 1",
        f"seed: {seed}",
        f"chi: {CHI}",
        f"solver: {{kind: momentum, rho: {RHO}, n_iter: {stages}, feasible: nonneg}}",
        "train:",
        f"  arch: {{type: scnn, n_filters: {TF_FILTERS}, filter_size: {TF_FILTERS}, "
        "residual: true}",
        f"  epochs: {epochs}",
        f"  batch_size: {TRAIN_SAMPLES}",
        # at 3e-3 full-batch Adam can end stage 0 above its starting loss
        "  lr_filters: 3.0e-4",
        "  lr_thresholds: 0.1",
        "  lr_decay: 0.1",
        f"  n_iter: {stages}",
        "samples:",
    ] + entries) + "\n"
    path = work / "manifest.yaml"
    path.write_text(text)
    return path


def _check_image(state, i: int, image: mn.ImageVector) -> list[str]:
    """Record the RMSE of held-out image i; it must beat the back-projection."""
    s = state["samples"][i]
    err = mn.rmse(image, s.truth)
    state["final"].setdefault(i, err)
    if not err < s.bp_rmse:
        return [f"image {i}: RMSE {err:.4g} not below back-projection {s.bp_rmse:.4g}"]
    return []


def _rmse_ratio(state, ledger: Ledger) -> dict[str, float]:
    """Mean final RMSE over mean back-projection RMSE of the distinct images."""
    samples = state["samples"]
    if len(state["final"]) != len(samples):
        return {}
    ledger.attempted += 1  # the ratio check counts as one operation
    ratio = (float(np.mean([state["final"][i] for i in range(len(samples))]))
             / float(np.mean([s.bp_rmse for s in samples])))
    if not ratio < 1.0:
        ledger._fail(f"rmse_ratio {ratio:.4g} is not below 1")
    return {"rmse_ratio": ratio}


def _read_column(path: Path, column: str) -> list[float]:
    with open(path, newline="") as fh:
        return [float(row[column]) for row in csv.DictReader(fh)]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

class Workload:
    """Fixed-size work on seeded inputs; subclasses define setup, unit and quality."""

    name = ""
    rounds = 5     # setups per untraced run, each followed by its share of the units
    min_units = 1  # units per untraced run at the least

    def setup(self, seed: int, work: Path):
        raise NotImplementedError

    def unit(self, state, ledger: Ledger) -> float:
        """Run one unit of operations; returns the seconds spent in them."""
        raise NotImplementedError

    def quality(self, state, ledger: Ledger) -> dict[str, float]:
        """Deterministic output-quality figures, checked; run after the timed phase."""
        return {}


class TrainCt64(Workload):
    """`mbirnet train` on a seeded 64x64, 23-view manifest: sCNN gradients and Adam."""

    name = "train_ct64"

    def setup(self, seed, work):
        rng = np.random.default_rng(seed)
        op = mn.build_radon(mn.CtGeometry(N_SMALL, VIEWS_SMALL))
        samples = _simulate(op, N_SMALL, TRAIN_SAMPLES, rng, work, "t")
        manifest = _write_manifest(samples, op, work, int(rng.integers(2**31)),
                                   TRAIN_STAGES, TRAIN_EPOCHS)
        return {"work": work, "manifest": manifest}

    def unit(self, state, ledger):
        out = state["work"] / "model"

        def check(code):
            problems = _exit_ok(code)
            if problems:
                return problems
            losses = [_read_column(out / f"loss_{i:03d}.csv", "loss")
                      for i in range(TRAIN_STAGES)]
            if not all(math.isfinite(v) for h in losses for v in h):
                problems.append("non-finite training loss")
            elif not losses[0][-1] < losses[0][0]:
                problems.append(f"stage-0 loss did not fall ({losses[0][0]} -> {losses[0][-1]})")
            state.setdefault("losses", losses)
            return problems

        argv = ["train", "--config", str(state["manifest"]), "--out", str(out)]
        _, seconds = ledger.op("train", lambda: mbirnet.cli.main(argv), check)
        shutil.rmtree(out, ignore_errors=True)
        return seconds

    def quality(self, state, ledger):
        return {"final_loss": state["losses"][-1][-1]} if "losses" in state else {}


class ReconCt64(Workload):
    """`mbirnet reconstruct` per held-out image, then `mbirnet diagnose` over the
    first of them: refiner forwards, fixed-point record, diagnostics, I/O."""

    name = "recon_ct64"
    min_units = 10  # >= 50 images, so ten lie beyond the 80th percentile

    def setup(self, seed, work):
        rng = np.random.default_rng(seed)
        op = mn.build_radon(mn.CtGeometry(N_SMALL, VIEWS_SMALL))
        samples = _simulate(op, N_SMALL, RECON_IMAGES, rng, work, "t")
        inputs = []
        for i, s in enumerate(samples):
            d = work / f"input{i}"
            d.mkdir()
            if i == 0:
                write_operator(d / "operator.txt", op)
            else:
                shutil.copyfile(inputs[0] / "operator.txt", d / "operator.txt")
            write_vector_csv(d / "y.csv", s.datafit.measurements)
            write_vector_csv(d / "weights.csv", s.datafit.weights)
            inputs.append(d)
        config = work / "config.yaml"
        config.write_text(
            "schema: 1\n"
            f"problem: {{kind: ct, n: {N_SMALL}, n_views: {VIEWS_SMALL}, "
            f"incident: {INCIDENT}, sigma2: {SIGMA2}}}\n"
            f"solver: {{kind: momentum, rho: {RHO}, chi: {CHI}, n_iter: {RECON_ITERS}, "
            "feasible: nonneg}\n")
        refdir = _save_refiners(_tied_refiners(rng, REFINER_STAGES), work / "refiners")
        manifest = _write_manifest(samples[:DIAG_SAMPLES], op, work, int(rng.integers(2**31)),
                                   REFINER_STAGES, 1)
        return {"work": work, "samples": samples, "inputs": inputs, "config": config,
                "refiners": refdir, "manifest": manifest, "final": {}}

    def unit(self, state, ledger):
        total = 0.0
        for i, input_dir in enumerate(state["inputs"]):
            out = state["work"] / f"recon{i}"

            def check(code, out=out, i=i):
                problems = _exit_ok(code)
                if problems:
                    return problems
                if not math.isfinite(_read_column(out / "trace.csv", "objective")[-1]):
                    return ["non-finite final objective"]
                # a non-finite iterate makes `reconstruct` exit non-zero (caught
                # above); the PGM read back is finite by construction
                return _check_image(state, i, read_pgm(out / "recon.pgm"))

            argv = ["reconstruct", "--config", str(state["config"]),
                    "--refiners", str(state["refiners"]), "--input", str(input_dir),
                    "--out", str(out)]
            _, seconds = ledger.op(f"reconstruct image {i}", lambda: mbirnet.cli.main(argv),
                                   check, image=True)
            total += seconds
        return total + self._diagnose(state, ledger)

    def _diagnose(self, state, ledger):
        out = state["work"] / "diagnostics"

        def check(code):
            problems = _exit_ok(code)
            if problems:
                return problems
            kappa = _read_column(out / "diagnostics.csv", "kappa")
            if len(kappa) != REFINER_STAGES:
                problems.append(f"{len(kappa)} diagnostics rows for {REFINER_STAGES} refiners")
            if not all(math.isfinite(k) for k in kappa):
                problems.append("non-finite kappa")
            return problems

        argv = ["diagnose", "--config", str(state["manifest"]), "--refiners",
                str(state["refiners"]), "--out", str(out), "--pairs", str(DIAG_PAIRS)]
        _, seconds = ledger.op("diagnose", lambda: mbirnet.cli.main(argv), check)
        return seconds

    def quality(self, state, ledger):
        return _rmse_ratio(state, ledger)


class BcdCt256(Workload):
    """Library `run_bcd_net` on 256x256, 180-view CT: projections and majorizer rebuilds."""

    name = "bcd_ct256"
    rounds = 2  # build_radon alone takes seconds here
    min_units = 4

    def setup(self, seed, work):
        rng = np.random.default_rng(seed)
        op = mn.build_radon(mn.CtGeometry(N_LARGE, VIEWS_LARGE))
        samples = _simulate(op, N_LARGE, BCD_IMAGES, rng, work, "t")
        return {"samples": samples, "refiners": _tied_refiners(rng, 1), "final": {}}

    def unit(self, state, ledger):
        total = 0.0
        cfg = mn.MomentumNetConfig(n_iter=BCD_OUTER, rho=RHO, chi=CHI, record_fixed_point=False)
        for i, s in enumerate(state["samples"]):

            def run(s=s):
                x0 = mn.backprojection_init(s.datafit, s.truth.shape)
                return mbirnet.solver.run_bcd_net(cfg, state["refiners"], s.datafit,
                                                  mn.FeasibleSet.nonneg(), x0, BCD_INNER)

            def check(trace, i=i):
                if trace.aborted or not np.all(np.isfinite(trace.final.x)):
                    return ["non-finite final image"]
                return _check_image(state, i, trace.final_image())

            _, seconds = ledger.op(f"bcd image {i}", run, check, image=True)
            total += seconds
        return total

    def quality(self, state, ledger):
        return _rmse_ratio(state, ledger)


WORKLOADS = {w.name: w for w in (TrainCt64(), ReconCt64(), BcdCt256())}
