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
from dataclasses import replace
from pathlib import Path

import numpy as np
import scipy
import scipy.fft

from . import config as cfgmod
from .config import ConfigError
from .diagnostics import run_diagnostics
from .fileio import (read_operator, read_pgm, read_vector_csv, write_operator,
                     write_pgm, write_table, write_vector_csv)
from .imaging import simulate_ct, shepp_logan
from .linops import QuadraticDataFit, usable_cpus
from .refiners import load_refiner, save_refiner
from .solver import NumericFailure, backprojection_init, run_bcd_net, run_momentum_net
from .training import TrainingSample, greedy_train


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


def _blas() -> str:
    """Name and version of the BLAS numpy was built against, or "unknown"."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):  # an older numpy or a build without that record
        return "unknown"


def _environment() -> dict:
    """Interpreter and library versions, and the CPUs a large sparse product splits over."""
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "numpy_fft": "pocketfft" if hasattr(np.fft, "_pocketfft") else "unknown",
        "scipy_fft": "pocketfft" if hasattr(scipy.fft, "_pocketfft") else "unknown",
        "cpus": usable_cpus(),
    }


class RunManifest:
    """Reproduction record for one command invocation, parsed from `argv`."""

    def __init__(self, argv: list[str], args: argparse.Namespace, out_dir: Path):
        self.out_dir = out_dir
        self.info = {
            "schema": 1,
            "command": args.command,
            "argv": argv,
            "config": getattr(args, "config", None),
            "seed": getattr(args, "seed", None),
            "started": datetime.datetime.now(datetime.timezone.utc).isoformat(),
            "outputs": {},
        }

    def add(self, path: Path) -> None:
        self.info["outputs"][str(path.relative_to(self.out_dir))] = artifact_checksum(path)

    def write(self) -> None:
        self.info["finished"] = datetime.datetime.now(datetime.timezone.utc).isoformat()
        usage = resource.getrusage(resource.RUSAGE_SELF)  # outside the checksummed outputs
        self.info["peak_rss_mb"] = usage.ru_maxrss / 1024
        self.info["minor_faults"] = usage.ru_minflt
        self.info["major_faults"] = usage.ru_majflt
        self.info["user_s"] = usage.ru_utime
        self.info["sys_s"] = usage.ru_stime
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
    try:
        image = shepp_logan(args.n)
    except MemoryError:
        raise ConfigError(f"--n {args.n}: cannot allocate a {args.n}x{args.n} image") from None
    path = _out_dir(args) / "phantom.pgm"
    write_pgm(path, image)
    print(f"wrote {path}")
    return [path]


def cmd_simulate(args) -> list[Path]:
    cfg = _load(cfgmod.load_config, args.config, args)
    problem = cfg["problem"]
    noiseless = problem["noiseless"] or args.noiseless
    out = _out_dir(args)

    n = problem["n"]
    try:
        op = cfgmod.build_operator(problem)
        phantom = shepp_logan(n)
    except MemoryError:
        raise ConfigError(f"problem.n = {n}: cannot allocate its image or {problem['kind']} "
                          "operator") from None
    # simulate from the truth as saved (PGM quantization included), so the
    # written artifacts are exactly consistent with each other
    truth_path = out / "truth.pgm"
    write_pgm(truth_path, phantom)
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
                  pixels: int, operators: dict) -> QuadraticDataFit:
    """Data fit over `pixels` unknowns from files under `base`; `operators` maps
    resolved operator paths to parsed operators, so each file is parsed once per
    command and shared.  The measurements are read first: an operator header
    declaring another row count, or other than `pixels` columns, is rejected
    before its matrix is allocated."""
    y = read_vector_csv(base / measurements)
    key = (base / operator).resolve()
    if key not in operators:
        operators[key] = read_operator(base / operator, expected_rows=y.size,
                                       expected_cols=pixels)
    w = read_vector_csv(base / weights)
    try:
        return QuadraticDataFit(operators[key], w, y)
    except ValueError as exc:  # negative weights, or a data fit or majorizer that overflows
        raise ValueError(f"{base / operator} with {base / measurements} and {base / weights}: "
                         f"{exc}") from None


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
    feasible = cfgmod.build_feasible(solver)
    net_config = cfgmod.build_solver_config(solver)
    x0 = backprojection_init(datafit, (n, n))
    if solver["kind"] == "bcd":
        trace = run_bcd_net(net_config, refiners, datafit, feasible, x0, solver["inner_iters"])
    else:
        trace = run_momentum_net(net_config, refiners, datafit, feasible, x0)
    if trace.aborted:
        raise NumericFailure(f"{label + ': ' if label else ''}non-finite iterate at "
                             f"iteration {trace.abort_iteration}")
    return trace


def cmd_reconstruct(args) -> list[Path]:
    cfg = _load(cfgmod.load_config, args.config, args)
    out = _out_dir(args)

    n = cfg["problem"]["n"]
    datafit = _load_datafit(Path(args.input), "operator.txt", "y.csv", "weights.csv",
                            n * n, {})
    refiners = _load_refiners(Path(args.refiners))
    trace = _run_solver(cfg, refiners, datafit)

    recon = out / "recon.pgm"
    write_pgm(recon, trace.final_image())
    trace_path = out / "trace.csv"
    trace.to_csv(trace_path)
    print(f"reconstructed with {cfg['solver']['kind']} in {len(trace) - 1} iterations -> {recon}")
    return [recon, trace_path]


def _training_setup(args):
    """Training manifest (command-line seed applied), its solver config, its
    samples and its feasible set.  The config is built, and so checked, before
    any sample file is read."""
    cfg = _load(cfgmod.load_training_manifest, args.config, args)
    net_config = cfgmod.build_solver_config(cfg["solver"])
    base = Path(args.config).parent
    operators = {}
    samples = []
    for entry in cfg["samples"]:
        truth = read_pgm(base / entry["truth"])
        if samples and truth.shape != samples[0].truth.shape:
            (h0, w0), (h, w) = samples[0].truth.shape, truth.shape
            raise ConfigError(f"samples must share one image size: {base / entry['truth']} is "
                              f"{h}x{w} but {base / cfg['samples'][0]['truth']} is {h0}x{w0}")
        datafit = _load_datafit(base, entry["operator"], entry["measurements"],
                                entry["weights"], truth.size, operators)
        samples.append(TrainingSample(truth, datafit))
    return cfg, net_config, samples, cfgmod.build_feasible(cfg["solver"])


def cmd_train(args) -> list[Path]:
    cfg, net_config, samples, feasible = _training_setup(args)
    out = _out_dir(args)

    net_config = replace(net_config, n_iter=cfg["train"]["n_iter"])
    arch = cfgmod.build_arch(cfg["train"])
    train_config = cfgmod.build_train_config(cfg["train"], cfg["seed"])

    # a diverging loss raises TrainingAborted (exit 3), not one warning per overflow
    with np.errstate(over="ignore", invalid="ignore"):
        refiners, histories = greedy_train(samples, arch, net_config, train_config, feasible)
    written = []
    for i, (refiner, history) in enumerate(zip(refiners, histories)):
        rpath = out / f"refiner_{i:03d}.rfn"
        save_refiner(rpath, refiner)
        lpath = out / f"loss_{i:03d}.csv"
        write_table(lpath, ("epoch", "loss"), enumerate(history))
        written += [rpath, lpath]
    print(f"trained {len(refiners)} refiners -> {out}")
    return written


def cmd_diagnose(args) -> list[Path]:
    cfg, net_config, samples, feasible = _training_setup(args)
    out = _out_dir(args)

    refiners = _load_refiners(Path(args.refiners))
    # diagnostics are estimated over the trained depth: one refiner per iteration
    result = run_diagnostics(refiners, samples, replace(net_config, n_iter=len(refiners)),
                             feasible, n_pairs=args.pairs, seed=cfg["seed"])
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
    n = configs[0]["problem"]["n"]
    datafit = _load_datafit(Path(args.input), "operator.txt", "y.csv", "weights.csv",
                            n * n, {})
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
    rows = []
    for label, kind, trace in runs:
        hit = np.nonzero(trace.objectives() <= threshold)[0]
        rows.append((label, kind, len(trace) - 1, trace.final.objective,
                     int(hit[0]) if hit.size else -1, sum(r.wall_ms for r in trace.records)))
    summary = out / "summary.csv"
    write_table(summary, ("label", "solver", "n_iter", "final_objective",
                          "iters_to_threshold", "wall_ms"), rows)
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
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the usage message
        return int(exc.code or 0)
    manifest = RunManifest(argv, args, Path(args.out))
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
