"""Command-line front end.

Subcommands tie together simulation, training, reconstruction, comparison and
diagnostics; outputs are CSV traces and PGM images for external plotting.
Every run writes a manifest (command, config, seed, artifact checksums, peak
resident set size) that makes reruns checkable: with a fixed seed all
artifacts are byte-identical, except that the wall-clock column of trace CSVs
is masked before hashing.

Exit codes: 0 success, 2 config error, 3 numeric failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import json
import math
import platform
import resource
import sys
from pathlib import Path

import numpy as np
import scipy

from . import config as cfgmod
from .config import ConfigError
from .diagnostics import run_diagnostics
from .fileio import (read_operator, read_pgm, read_vector_csv, write_operator,
                     write_pgm, write_vector_csv)
from .imaging import simulate_ct, shepp_logan
from .linops import QuadraticDataFit, ShapeError, diag_majorizer, select_gamma, usable_cpus
from .refiners import load_refiner, save_refiner
from .solver import NumericFailure, run_bcd_net, run_momentum_net
from .training import TrainingSample, backprojection_init, greedy_train


# ---------------------------------------------------------------------------
# run manifest
# ---------------------------------------------------------------------------

def _masked_csv_bytes(path: Path) -> bytes:
    """CSV content with any wall-clock column zeroed (timings are not
    reproducible across runs; everything else must be)."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or "wall_ms" not in rows[0]:
        return path.read_bytes()
    col = rows[0].index("wall_ms")
    for row in rows[1:]:
        if len(row) > col:
            row[col] = "0"
    return ("\n".join(",".join(r) for r in rows) + "\n").encode()


def artifact_checksum(path: Path) -> str:
    data = _masked_csv_bytes(path) if path.suffix == ".csv" else path.read_bytes()
    return hashlib.sha256(data).hexdigest()


def _environment() -> dict:
    """Interpreter and library versions, and the CPUs a large sparse product splits over."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_fft": "pocketfft" if hasattr(np.fft, "_pocketfft") else "unknown",
        "cpus": usable_cpus(),
    }


class RunManifest:
    """Reproduction record for one command invocation."""

    def __init__(self, command: str, args: argparse.Namespace, out_dir: Path):
        self.out_dir = out_dir
        self.info = {
            "schema": 1,
            "command": command,
            "argv": sys.argv[1:],
            "config": getattr(args, "config", None),
            "seed": getattr(args, "seed", None),
            "started": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "outputs": {},
        }

    def add(self, path: Path) -> None:
        self.info["outputs"][str(path.relative_to(self.out_dir))] = artifact_checksum(path)

    def write(self) -> None:
        self.info["finished"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
        self.info["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self.info["environment"] = _environment()
        with open(self.out_dir / "manifest.json", "w") as fh:
            json.dump(self.info, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load(loader, path, args) -> dict:
    """Config or training manifest from `loader`, with the command-line
    settings that override it."""
    cfg = loader(path)
    if args.seed is not None:
        cfg["seed"] = args.seed
    # `reconstruct` names its solver options after the keys they override
    for key in ("kind", "rho", "chi", "n_iter", "inner_iters"):
        if getattr(args, key, None) is not None:
            cfg["solver"][key] = getattr(args, key)
    if getattr(args, "chi", None) is not None:
        cfg["solver"]["gamma"] = None
    return cfg


# ---------------------------------------------------------------------------
# subcommands: each returns the artifact paths it wrote, for the run manifest
# ---------------------------------------------------------------------------

def cmd_phantom(args) -> list[Path]:
    image = shepp_logan(args.n)
    path = _out_dir(args) / "phantom.pgm"
    write_pgm(path, image)
    print(f"wrote {path}")
    return [path]


def cmd_simulate(args) -> list[Path]:
    cfg = _load(cfgmod.load_config, args.config, args)
    problem = cfg["problem"]
    noiseless = problem["noiseless"] or args.noiseless
    out = _out_dir(args)

    op = cfgmod.build_operator(problem)
    # simulate from the truth as saved (PGM quantization included), so the
    # written artifacts are exactly consistent with each other
    truth_path = out / "truth.pgm"
    write_pgm(truth_path, shepp_logan(problem["n"]))
    truth = read_pgm(truth_path)
    if problem["kind"] == "ct":
        y, w = simulate_ct(truth, op, problem["incident"], problem["sigma2"],
                           seed=cfg["seed"], noiseless=noiseless)
    else:
        sigma = problem["noise_sigma"]
        if not (math.isfinite(sigma) and sigma >= 0):
            raise ConfigError(f"problem.noise_sigma must be finite and >= 0, got {sigma}")
        y = op.forward(truth.data)
        if sigma > 0 and not noiseless:
            rng = np.random.default_rng(cfg["seed"])
            y = y + rng.normal(0.0, sigma, size=y.shape)
        w = np.ones_like(y)

    paths = [truth_path, out / "operator.txt", out / "y.csv", out / "weights.csv"]
    write_operator(paths[1], op)
    write_vector_csv(paths[2], y)
    write_vector_csv(paths[3], w)
    print(f"simulated {problem['kind']} problem into {out}")
    return paths


def _load_datafit(base: Path, operator: str, measurements: str, weights: str,
                  operators: dict) -> QuadraticDataFit:
    """Data fit from files under `base`; `operators` maps resolved operator paths
    to parsed operators, so each file is parsed once per command and shared."""
    key = (base / operator).resolve()
    if key not in operators:
        operators[key] = read_operator(base / operator)
    return QuadraticDataFit(operators[key], read_vector_csv(base / weights),
                            read_vector_csv(base / measurements))


def _load_refiners(refiner_dir: Path):
    files = sorted(Path(refiner_dir).glob("*.rfn"))
    if not files:
        raise FileNotFoundError(f"no refiner files (*.rfn) under {refiner_dir}")
    return [load_refiner(f) for f in files]


def _run_solver(cfg: dict, refiners, datafit: QuadraticDataFit, label: str = ""):
    """Run the configured solver from the back-projection start; a non-finite
    iterate raises NumericFailure, prefixed with `label` when one is given."""
    solver = cfg["solver"]
    n = cfg["problem"]["n"]
    if datafit.n != n * n:
        raise ShapeError(f"operator input dim {datafit.n} does not match n={n}")
    feasible = cfgmod.build_feasible(solver)
    net_config = cfgmod.build_solver_config(solver)
    x0 = backprojection_init(datafit, (n, n))
    if solver["kind"] == "bcd":
        trace = run_bcd_net(net_config, refiners, datafit, feasible, x0, solver["inner_iters"])
    else:
        trace = run_momentum_net(net_config, refiners, datafit, feasible, x0)
    if trace.aborted:
        raise NumericFailure(f"{label}: non-finite iterate" if label else
                             f"non-finite iterate at iteration {trace.abort_iteration}")
    return trace


def cmd_reconstruct(args) -> list[Path]:
    cfg = _load(cfgmod.load_config, args.config, args)
    out = _out_dir(args)

    datafit = _load_datafit(Path(args.input), "operator.txt", "y.csv", "weights.csv", {})
    refiners = _load_refiners(Path(args.refiners))
    trace = _run_solver(cfg, refiners, datafit)

    recon = out / "recon.pgm"
    write_pgm(recon, trace.final_image())
    trace_path = out / "trace.csv"
    trace.to_csv(trace_path)
    print(f"reconstructed with {cfg['solver']['kind']} in {len(trace) - 1} iterations -> {recon}")
    return [recon, trace_path]


def _training_setup(args):
    """Training manifest (command-line seed applied), its samples and its
    feasible set."""
    cfg = _load(cfgmod.load_training_manifest, args.config, args)
    chi, gamma, lam = cfg["chi"], cfg["gamma"], cfg["solver"]["lam"]
    if (chi is None) == (gamma is None):
        raise ConfigError("training manifest must set exactly one of chi or gamma")
    for key, value in (("chi", chi), ("gamma", gamma)):
        if value is not None and not (math.isfinite(value) and value > 0):
            raise ConfigError(f"{key} must be finite and > 0, got {value}")
    base = Path(args.config).parent
    operators = {}
    samples = []
    for entry in cfg["samples"]:
        truth = read_pgm(base / entry["truth"])
        datafit = _load_datafit(base, entry["operator"], entry["measurements"],
                                entry["weights"], operators)
        m_f = diag_majorizer(datafit)
        g = select_gamma(m_f, chi) if gamma is None else gamma
        samples.append(TrainingSample(truth, datafit, g, m_f.shifted(g, lam=lam)))
    return cfg, samples, cfgmod.build_feasible(cfg["solver"])


def cmd_train(args) -> list[Path]:
    cfg, samples, feasible = _training_setup(args)
    out = _out_dir(args)

    net_config = cfgmod.build_solver_config(cfg["solver"], n_iter=cfg["train"]["n_iter"])
    arch = cfgmod.build_arch(cfg["train"])
    train_config = cfgmod.build_train_config(cfg["train"], cfg["seed"])

    refiners, histories = greedy_train(samples, arch, net_config, train_config, feasible)
    written = []
    for i, (refiner, history) in enumerate(zip(refiners, histories)):
        rpath = out / f"refiner_{i:03d}.rfn"
        save_refiner(rpath, refiner)
        lpath = out / f"loss_{i:03d}.csv"
        with open(lpath, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "loss"])
            for epoch, loss in enumerate(history):
                writer.writerow([epoch, f"{loss:.17g}"])
        written += [rpath, lpath]
    print(f"trained {len(refiners)} refiners -> {out}")
    return written


def cmd_diagnose(args) -> list[Path]:
    cfg, samples, feasible = _training_setup(args)
    out = _out_dir(args)

    refiners = _load_refiners(Path(args.refiners))
    # diagnostics are estimated over the trained depth: one refiner per iteration
    net_config = cfgmod.build_solver_config(cfg["solver"], n_iter=len(refiners))
    result = run_diagnostics(refiners, samples, net_config, feasible,
                             n_pairs=args.pairs, seed=cfg["seed"])
    path = out / "diagnostics.csv"
    result.to_csv(path)
    print(f"diagnostics over {result.n_iter} iterations -> {path}")
    return [path]


def cmd_compare(args) -> list[Path]:
    configs = [_load(cfgmod.load_config, p, args) for p in args.config]
    shapes = {(c["problem"]["kind"], c["problem"]["n"]) for c in configs}
    if len(shapes) > 1:
        raise ConfigError(f"configs describe different problems: {sorted(shapes)}")
    # each run is labelled by its config file name, which also names its trace file
    labels = [Path(p).stem for p in args.config]
    if len(set(labels)) < len(labels):
        raise ConfigError(f"config file names must differ, got labels {labels}")
    out = _out_dir(args)

    refiners = _load_refiners(Path(args.refiners))
    datafit = _load_datafit(Path(args.input), "operator.txt", "y.csv", "weights.csv", {})
    runs = []
    written = []
    for label, cfg in zip(labels, configs):
        trace = _run_solver(cfg, refiners, datafit, label)
        tpath = out / f"trace_{label}.csv"
        trace.to_csv(tpath)
        written.append(tpath)
        runs.append((label, cfg["solver"]["kind"], trace))

    # iterations until the objective is within 0.1% of the best final value
    ref = min(trace.final.objective for _, _, trace in runs)
    threshold = ref + 1e-3 * abs(ref)
    summary = out / "summary.csv"
    with open(summary, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "solver", "n_iter", "final_objective",
                         "iters_to_threshold", "wall_ms"])
        for label, kind, trace in runs:
            hit = np.nonzero(trace.objectives() <= threshold)[0]
            iters_to = int(hit[0]) if hit.size else -1
            wall_ms = sum(r.wall_ms for r in trace.records)
            writer.writerow([label, kind, len(trace) - 1, f"{trace.final.objective:.17g}",
                             iters_to, f"{wall_ms:.17g}"])
    print(f"compared {len(runs)} configurations -> {summary}")
    return written + [summary]


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mbirnet",
        description="Momentum-extrapolated model-based image reconstruction")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True, nargs=None):
        if config:
            p.add_argument("--config", required=True, nargs=nargs)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("phantom", help="write an ellipse phantom PGM")
    p.add_argument("--n", type=int, required=True)
    common(p, config=False)
    p.set_defaults(func=cmd_phantom)

    p = sub.add_parser("simulate", help="simulate measurements for a config")
    common(p)
    p.add_argument("--noiseless", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="greedy iteration-wise refiner training")
    common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("reconstruct", help="run a solver on simulated data")
    common(p)
    p.add_argument("--refiners", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--solver", dest="kind", choices=cfgmod.SOLVER_KINDS, default=None)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--chi", type=float, default=None)
    p.add_argument("--n-iter", dest="n_iter", type=int, default=None)
    p.add_argument("--inner-iters", dest="inner_iters", type=int, default=None)
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("diagnose", help="emit kappa/epsilon/delta sequences")
    common(p)
    p.add_argument("--refiners", required=True)
    p.add_argument("--pairs", type=int, default=100)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("compare", help="run several solver configs side by side")
    common(p, nargs="+")
    p.add_argument("--refiners", required=True)
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage message
        return int(exc.code or 0)
    manifest = RunManifest(args.command, args, Path(args.out))
    try:
        for path in args.func(args):
            manifest.add(path)
        manifest.write()  # only a run that succeeded gets a manifest
    except ValueError as exc:  # ConfigError, ShapeError and malformed artifacts
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
