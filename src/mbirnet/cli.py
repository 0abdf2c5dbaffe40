"""Command-line front end.

Subcommands tie together simulation, training, reconstruction, comparison and
diagnostics; outputs are CSV traces and PGM images for external plotting.
Every run writes a manifest (command, config, seed, artifact checksums) that
makes reruns checkable: with a fixed seed all artifacts are byte-identical,
except that the wall-clock column of trace CSVs is masked before hashing.

Exit codes: 0 success, 2 config error, 3 numeric failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .config import ConfigError
from .diagnostics import run_diagnostics
from .fileio import (read_operator, read_pgm, read_vector_csv, write_operator,
                     write_pgm, write_vector_csv)
from .imaging import simulate_ct, shepp_logan
from .linops import QuadraticDataFit, ShapeError, diag_majorizer, select_gamma
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


class RunManifest:
    """Reproduction record for one command invocation."""

    def __init__(self, command: str, args: argparse.Namespace, out_dir: Path):
        self.command = command
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
        with open(self.out_dir / "manifest.json", "w") as fh:
            json.dump(self.info, fh, indent=2, sort_keys=True)
            fh.write("\n")


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _apply_overrides(cfg: dict, args) -> dict:
    solver = cfg["solver"]
    if getattr(args, "solver", None):
        solver["kind"] = args.solver
    if getattr(args, "rho", None) is not None:
        solver["rho"] = args.rho
    if getattr(args, "chi", None) is not None:
        solver["chi"] = args.chi
        solver["gamma"] = None
    if getattr(args, "n_iter", None) is not None:
        solver["n_iter"] = args.n_iter
    if getattr(args, "inner_iters", None) is not None:
        solver["inner_iters"] = args.inner_iters
    if getattr(args, "noiseless", False):
        cfg["problem"]["noiseless"] = True
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    return cfg


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_phantom(args) -> int:
    out = _out_dir(args)
    manifest = RunManifest("phantom", args, out)
    try:
        image = shepp_logan(args.n)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    path = out / "phantom.pgm"
    write_pgm(path, image)
    manifest.add(path)
    manifest.write()
    print(f"wrote {path}")
    return 0


def cmd_simulate(args) -> int:
    cfg = _apply_overrides(cfgmod.load_config(args.config), args)
    problem = cfg["problem"]
    out = _out_dir(args)
    manifest = RunManifest("simulate", args, out)

    truth = cfgmod.default_truth(problem)
    # simulate from the truth as saved (PGM quantization included), so the
    # written artifacts are exactly consistent with each other
    truth_path = out / "truth.pgm"
    write_pgm(truth_path, truth)
    truth = read_pgm(truth_path)
    op = cfgmod.build_operator(problem)
    if problem["kind"] == "ct":
        y, w = simulate_ct(truth, op, problem["incident"], problem["sigma2"],
                           seed=cfg["seed"], noiseless=problem["noiseless"])
    else:
        y = op.forward(truth.data)
        if problem["noise_sigma"] > 0 and not problem["noiseless"]:
            rng = np.random.default_rng(cfg["seed"])
            y = y + rng.normal(0.0, problem["noise_sigma"], size=y.shape)
        w = np.ones_like(y)

    manifest.add(truth_path)
    paths = {
        "operator.txt": lambda p: write_operator(p, op),
        "y.csv": lambda p: write_vector_csv(p, y),
        "weights.csv": lambda p: write_vector_csv(p, w),
    }
    for name, writer in paths.items():
        path = out / name
        writer(path)
        manifest.add(path)
    manifest.write()
    print(f"simulated {problem['kind']} problem into {out}")
    return 0


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


def _run_solver(cfg: dict, refiners, datafit: QuadraticDataFit):
    """Run the configured solver from the back-projection start."""
    solver = cfg["solver"]
    n = cfg["problem"]["n"]
    feasible = cfgmod.build_feasible(solver)
    net_config = cfgmod.build_solver_config(solver)
    x0 = backprojection_init(datafit, (n, n))
    if solver["kind"] == "bcd":
        return run_bcd_net(net_config, refiners, datafit, feasible, x0, solver["inner_iters"])
    return run_momentum_net(net_config, refiners, datafit, feasible, x0)


def cmd_reconstruct(args) -> int:
    cfg = _apply_overrides(cfgmod.load_config(args.config), args)
    out = _out_dir(args)
    manifest = RunManifest("reconstruct", args, out)

    datafit = _load_datafit(Path(args.input), "operator.txt", "y.csv", "weights.csv", {})
    refiners = _load_refiners(Path(args.refiners))
    n = cfg["problem"]["n"]
    if datafit.n != n * n:
        raise ShapeError(f"operator input dim {datafit.n} does not match n={n}")
    trace = _run_solver(cfg, refiners, datafit)
    if trace.aborted:
        raise NumericFailure(f"non-finite iterate at iteration {trace.abort_iteration}")

    recon = out / "recon.pgm"
    write_pgm(recon, trace.final_image())
    trace_path = out / "trace.csv"
    trace.to_csv(trace_path)
    manifest.add(recon)
    manifest.add(trace_path)
    manifest.write()
    print(f"reconstructed with {cfg['solver']['kind']} in {len(trace) - 1} iterations -> {recon}")
    return 0


def _load_samples(manifest_cfg: dict, base: Path, lam: float):
    chi = manifest_cfg["chi"]
    gamma = manifest_cfg["gamma"]
    if (chi is None) == (gamma is None):
        raise ConfigError("training manifest must set exactly one of chi or gamma")
    operators = {}
    samples = []
    for entry in manifest_cfg["samples"]:
        truth = read_pgm(base / entry["truth"])
        datafit = _load_datafit(base, entry["operator"], entry["measurements"],
                                entry["weights"], operators)
        m_f = diag_majorizer(datafit)
        g = select_gamma(m_f, chi) if gamma is None else gamma
        samples.append(TrainingSample(truth, datafit, g, m_f.shifted(g, lam=lam)))
    return samples


def cmd_train(args) -> int:
    manifest_cfg = cfgmod.load_training_manifest(args.config)
    if getattr(args, "seed", None) is not None:
        manifest_cfg["seed"] = args.seed
    out = _out_dir(args)
    manifest = RunManifest("train", args, out)

    solver = manifest_cfg["solver"]
    net_config = cfgmod.build_solver_config(solver, n_iter=manifest_cfg["train"]["n_iter"])
    samples = _load_samples(manifest_cfg, Path(args.config).parent, solver["lam"])
    arch = cfgmod.build_arch(manifest_cfg["train"])
    train_config = cfgmod.build_train_config(manifest_cfg["train"], manifest_cfg["seed"])
    feasible = cfgmod.build_feasible(solver)

    refiners, histories = greedy_train(samples, arch, net_config, train_config, feasible)
    for i, (refiner, history) in enumerate(zip(refiners, histories)):
        rpath = out / f"refiner_{i:03d}.rfn"
        save_refiner(rpath, refiner)
        manifest.add(rpath)
        lpath = out / f"loss_{i:03d}.csv"
        with open(lpath, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["epoch", "loss"])
            for epoch, loss in enumerate(history):
                writer.writerow([epoch, f"{loss:.17g}"])
        manifest.add(lpath)
    manifest.write()
    print(f"trained {len(refiners)} refiners -> {out}")
    return 0


def cmd_diagnose(args) -> int:
    manifest_cfg = cfgmod.load_training_manifest(args.config)
    if getattr(args, "seed", None) is not None:
        manifest_cfg["seed"] = args.seed
    out = _out_dir(args)
    manifest = RunManifest("diagnose", args, out)

    solver = manifest_cfg["solver"]
    refiners = _load_refiners(Path(args.refiners))
    # diagnostics are estimated over the trained depth: one refiner per iteration
    net_config = cfgmod.build_solver_config(solver, n_iter=len(refiners))
    samples = _load_samples(manifest_cfg, Path(args.config).parent, solver["lam"])
    feasible = cfgmod.build_feasible(solver)

    result = run_diagnostics(refiners, samples, net_config, feasible,
                             n_pairs=args.pairs, seed=manifest_cfg["seed"])
    path = out / "diagnostics.csv"
    result.to_csv(path)
    manifest.add(path)
    manifest.write()
    print(f"diagnostics over {result.n_iter} iterations -> {path}")
    return 0


def cmd_compare(args) -> int:
    out = _out_dir(args)
    manifest = RunManifest("compare", args, out)

    configs = [cfgmod.load_config(p) for p in args.config]
    shapes = {(c["problem"]["kind"], c["problem"]["n"]) for c in configs}
    if len(shapes) > 1:
        raise ConfigError(f"configs describe different problems: {sorted(shapes)}")
    if getattr(args, "seed", None) is not None:
        for c in configs:
            c["seed"] = args.seed

    refiners = _load_refiners(Path(args.refiners))
    datafit = _load_datafit(Path(args.input), "operator.txt", "y.csv", "weights.csv", {})
    rows = []
    traces = {}
    for path, cfg in zip(args.config, configs):
        label = Path(path).stem
        trace = _run_solver(cfg, refiners, datafit)
        if trace.aborted:
            raise NumericFailure(f"{label}: non-finite iterate")
        traces[label] = trace
        tpath = out / f"trace_{label}.csv"
        trace.to_csv(tpath)
        manifest.add(tpath)
        rows.append([label, cfg["solver"]["kind"], len(trace) - 1, trace.final.objective,
                     sum(r.wall_ms for r in trace.records)])

    # iterations until the objective is within 0.1% of the best final value
    ref = min(trace.final.objective for trace in traces.values())
    threshold = ref + 1e-3 * abs(ref)
    summary = out / "summary.csv"
    with open(summary, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "solver", "n_iter", "final_objective",
                         "iters_to_threshold", "wall_ms"])
        for row in rows:
            label = row[0]
            objectives = traces[label].objectives()
            hit = np.nonzero(objectives <= threshold)[0]
            iters_to = int(hit[0]) if hit.size else -1
            writer.writerow([label, row[1], row[2], f"{row[3]:.17g}", iters_to,
                             f"{row[4]:.17g}"])
    manifest.add(summary)
    manifest.write()
    print(f"compared {len(rows)} configurations -> {summary}")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mbirnet",
        description="Momentum-extrapolated model-based image reconstruction")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, config=True):
        if config:
            p.add_argument("--config", required=True)
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
    p.add_argument("--solver", choices=cfgmod.SOLVER_KINDS, default=None)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--chi", type=float, default=None)
    p.add_argument("--n-iter", dest="n_iter", type=int, default=None)
    p.add_argument("--inner-iters", dest="inner_iters", type=int, default=None)
    p.add_argument("--noiseless", action="store_true")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("diagnose", help="emit kappa/epsilon/delta sequences")
    common(p)
    p.add_argument("--refiners", required=True)
    p.add_argument("--pairs", type=int, default=100)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("compare", help="run several solver configs side by side")
    p.add_argument("--config", nargs="+", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
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
    try:
        return args.func(args)
    except (ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericFailure as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
