"""End-to-end and per-layer benchmark for mbirnet.

Usage (from the repository root):

    python3 perfbench/run.py --workload recon_ct64 --seed 1 --seconds 15 --trace 0

Workloads (see BENCHMARK.json for why each exists): train_ct64, recon_ct64 and
bcd_ct256.  Each runs closed-loop from this one process, with no extra
threads, on the package sources under `src/` of the same checkout.

Untraced run (`--trace 0`): a number of rounds, each of which sets up the
seeded inputs afresh and then, in a forked child process, repeats whole units
of fixed work for its share of `--seconds` (and at least the workload's
minimum number of units over the run).  Forking keeps the setups out of the
timed phase's memory peak; spreading setups and units over the run lets every
run see the host's quiet and busy spells alike.

On a shared host, other tenants' load only ever slows a unit down, in spells
of tens of seconds, so the median unit of a short run mostly reports how busy
the host was (its spread between runs exceeded a third).  The gated times are
therefore the fastest setup and the fastest unit of the run; the medians are
printed beside them.  Gated end-to-end metrics, on every workload:

* setup_s      fastest setup (phantoms, operator build, simulation, input
               artifacts, refiner construction)
* run_s        fastest unit: one `mbirnet train` call; one pass of `mbirnet
               reconstruct` over the held-out images followed by one `mbirnet
               diagnose` call; one pass of `run_bcd_net` over its images
* peak_rss_mb  largest peak resident set size of the timed child processes

Printed, not gated: `setup_s.median`, `run_s.median`, and over the operations
that reconstruct one image (recon_ct64, bcd_ct256) `image_ms_p50`, plus on
recon_ct64 `image_ms_tail`, always the 80th percentile, over at least 50
images so that ten or more lie beyond it.  The `info` line carries `rmse_ratio` (recon_ct64, bcd_ct256:
mean final RMSE / mean back-projection RMSE over the distinct images,
deterministic for a seed), `final_loss` (train_ct64: last stage's final-epoch
loss) and `fail_frac` (failed / attempted operations; the last line also
carries `attempted` and `failed`).  Output checks: every CLI exit code is 0,
final images and objectives are finite, every reconstruction beats its
back-projection and `rmse_ratio` < 1, training losses are finite and the
stage-0 loss falls, the diagnostics CSV has one finite kappa per refiner.  A
failed check is printed, counted, and the run continues.

Traced run (`--trace 1`): one traced setup, one untraced warm-up unit, one
untraced unit and one traced unit, all in this process.  Reports calls,
inclusive ms and self ms for every span in `spans.SPAN_NAMES`, the counts
`fft.points` and `linops.nnz_touched`, and `trace.overhead_s` (traced minus
untraced unit).  Counts cover the setup and the traced unit, so they repeat
exactly.

The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`.  Work files, span dumps and full results
go to `perfbench/.work/`.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"


TAIL_PERCENTILE = 80
TAIL_BEYOND = 10  # images that must lie beyond the tail percentile


def percentile(values, p):
    """Nearest-rank p-th percentile and the number of values beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _malloc_trim():
    """Hand freed heap memory back to the system, so a forked child starts lean."""
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):
        pass


def _openblas_threads():
    """Thread count of the loaded OpenBLAS, or None when it cannot be queried."""
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    import scipy
    import scipy.fft
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "fft_backend": {
            "numpy.fft": "pocketfft" if hasattr(np.fft, "_pocketfft") else "unknown",
            "scipy.fft": "pocketfft" if hasattr(scipy.fft, "_pocketfft") else "unknown",
            "scipy.fft.workers": scipy.fft.get_workers(),
        },
        "blas": blas,
        "blas_threads": _openblas_threads(),
        "thread_env": {k: os.environ.get(k) for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _setup(workload, seed, run_dir, index):
    work = run_dir / f"setup{index}"
    work.mkdir(parents=True)
    t0 = time.perf_counter()
    state = workload.setup(seed, work)
    return state, time.perf_counter() - t0, work


def _in_child(fn, out_path):
    """Run fn() in a forked child process and return the JSON value it wrote.

    The child's peak RSS starts from the parent's current RSS, not from its
    peak, so memory a setup freed again does not count.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            out_path.write_text(json.dumps(fn()))
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"timed child process ended with wait status {status}")
    return json.loads(out_path.read_text())


def _timed_units(workload, state, seconds, need):
    """Child body: at least `need` units, then more while they fit in `seconds`."""
    from workloads import Ledger
    ledger = Ledger()
    units = []
    start = time.perf_counter()
    while True:
        units.append(workload.unit(state, ledger))
        elapsed = time.perf_counter() - start
        if len(units) >= need and elapsed + statistics.median(units) > seconds:
            break
    quality = workload.quality(state, ledger)
    return {"units": units, "ledger": dataclasses.asdict(ledger), "quality": quality,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def run_untraced(workload, seed, seconds, run_dir):
    from workloads import Ledger
    ledger = Ledger()
    setup_s, units, peaks = [], [], []
    quality = {}
    state = work = None
    for r in range(workload.rounds):
        state = None  # release the previous inputs before building new ones
        if work is not None:
            shutil.rmtree(work)
        state, elapsed, work = _setup(workload, seed, run_dir, r)
        setup_s.append(elapsed)
        gc.collect()
        _malloc_trim()
        need = math.ceil((workload.min_units - len(units)) / (workload.rounds - r))
        out = _in_child(lambda: _timed_units(workload, state, seconds / workload.rounds, need),
                        run_dir / f"round{r}.json")
        units += out["units"]
        peaks.append(out["peak_rss_mb"])
        quality = out["quality"]  # the same inputs every round: the same figures
        for key in ("attempted", "failed"):
            setattr(ledger, key, getattr(ledger, key) + out["ledger"][key])
        ledger.image_ms += out["ledger"]["image_ms"]
        ledger.problems += out["ledger"]["problems"]

    metrics = {"setup_s": (min(setup_s), "s"),
               "run_s": (min(units), "s"),
               "peak_rss_mb": (max(peaks), "MB")}
    extra = {"setup_s.median": (statistics.median(setup_s), "s"),
             "run_s.median": (statistics.median(units), "s")}
    info = {"rounds": len(setup_s), "units": len(units), "operations": ledger.attempted,
            "fail_frac": ledger.failed / max(1, ledger.attempted),
            "setups_s": setup_s, "units_s": units}
    if ledger.image_ms:
        extra["image_ms_p50"] = (statistics.median(ledger.image_ms), "ms")
        value, beyond = percentile(ledger.image_ms, TAIL_PERCENTILE)
        if beyond >= TAIL_BEYOND:
            extra["image_ms_tail"] = (value, "ms")
            info.update(tail_percentile=TAIL_PERCENTILE, tail_beyond=beyond)
    info.update(quality)
    return ledger, metrics, extra, info


def run_traced(workload, seed, run_dir, tag):
    from spans import COUNT_NAMES, SPAN_NAMES, Recorder
    from workloads import Ledger
    ledger = Ledger()
    recorder = Recorder()
    recorder.install()
    try:
        state, _, _ = _setup(workload, seed, run_dir, 0)
    finally:
        recorder.uninstall()
    workload.unit(state, ledger)  # warm-up
    untraced = workload.unit(state, ledger)
    recorder.install()
    try:
        traced = workload.unit(state, ledger)
    finally:
        recorder.uninstall()
    recorder.write(WORK / f"spans-{tag}.json")

    summary = recorder.summary()
    metrics = {}
    for name in SPAN_NAMES:
        agg = summary[name]
        metrics[f"{name}.calls"] = (agg["calls"], "count")
        metrics[f"{name}.ms"] = (agg["ms"], "ms")
        metrics[f"{name}.self_ms"] = (agg["self_ms"], "ms")
    for name in COUNT_NAMES:
        metrics[name] = (recorder.counts[name], "count")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    info = {"traced_unit_s": traced, "untraced_unit_s": untraced,
            "overhead_pct": 100.0 * (traced - untraced) / untraced if untraced else None}
    return ledger, metrics, {}, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "mbirnet" / "__init__.py").is_file():
        print(f"perfbench: no mbirnet sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import mbirnet
    if Path(mbirnet.__file__).resolve().parent != (src / "mbirnet").resolve():
        print(f"perfbench: imported mbirnet from {mbirnet.__file__}, not {src}",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    env = environment()
    print(f"perfbench workload={workload.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    WORK.mkdir(exist_ok=True)
    run_dir = WORK / f"{tag}-pid{os.getpid()}"
    try:
        if args.trace:
            ledger, metrics, extra, info = run_traced(workload, args.seed, run_dir, tag)
        else:
            ledger, metrics, extra, info = run_untraced(workload, args.seed, args.seconds,
                                                        run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print("info " + json.dumps(info, sort_keys=True))
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(WORK / f"result-{tag}.json", "w") as fh:
        json.dump({"env": env, "info": info, "problems": ledger.problems,
                   "extra": {name: value for name, (value, _) in extra.items()}, **result},
                  fh, indent=1)
        fh.write("\n")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
