"""One-line mutants of `src/mbirnet` that the fast test tier must catch.

    python tests/mutants.py [--only LABEL]

Each mutant names a package module, one exact source line of it (without its
indentation) and the line that replaces it.  The script extracts a `git
archive` of the tracked files (the committed tree plus any uncommitted edits
to tracked files) into a temporary directory, applies one mutant at a time
there and runs `pytest -m "not slow" -x -q` on the copy, without the table
test below.  It prints, per mutant, caught or survived, the first failing test
and the seconds taken, and exits 1 if any mutant survived.

Pytest does not collect this file.  `test_mutant_table.py` checks that every
listed line occurs exactly once in `src/mbirnet`, so a change that rewrites a
listed line updates its mutant here.  A mutant that changes no result does not
belong in the table.
"""

from __future__ import annotations

import argparse
import io
import os
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# fails on every mutant, since the mutated line is then missing from the source
TABLE_TEST = "tests/test_mutant_table.py"


class Mutant(NamedTuple):
    label: str
    module: str  # file name under src/mbirnet
    line: str    # the exact source line, stripped
    replacement: str


# the one update of a trajectory's x_prev, x and momentum state
ADVANCE = "self.x_prev, self.x, self.state = self.x, x_new, momentum_update(self.state)"

MUTANTS = (
    # a rest of 1 to 7 columns becomes its own block (a gemv for one column)
    Mutant("caller-gemm-rest", "refiners.py",
           "stop = n if n - start < step + _GEMM_COLUMNS else start + step",
           "stop = min(n, start + step)"),
    # a threshold below the floor keeps a gradient (dthr = raw, import kept used)
    Mutant("threshold-floor", "training.py",
           "dthr = np.where(raw >= THRESHOLD_FLOOR, raw, 0.0)",
           "dthr = np.where(raw >= 0.0 * THRESHOLD_FLOOR, raw, 0.0)"),
    # every iteration extrapolates from the start image
    Mutant("trajectory-x-prev", "solver.py", ADVANCE,
           "self.x, self.state = x_new, momentum_update(self.state)"),
    # the momentum weight stays 0, so nothing extrapolates
    Mutant("trajectory-state", "solver.py", ADVANCE,
           "self.x_prev, self.x = self.x, x_new"),
    # training advances every stage with the first stage's refiner
    Mutant("train-advance-refiner", "training.py",
           "path.advance(current)",
           "path.advance(refiners[0])"),
    # reconstruction runs refiner i + 1 in iteration i
    Mutant("solver-refiner-index", "solver.py",
           "refiner = _refiner_at(refiners, i)",
           "refiner = _refiner_at(refiners, i + 1)"),
    # diagnostics run refiner k (1-based) in iteration k
    Mutant("diagnose-refiner-index", "diagnostics.py",
           "outs, zs, xs_new = path.advance(_refiner_at(refiners, k - 1))",
           "outs, zs, xs_new = path.advance(_refiner_at(refiners, k))"),
    # the stacked relaxation weighs x by rho and R(x) by 1 - rho
    Mutant("relaxation-rho", "solver.py",
           "z = (1.0 - config.rho) * x + config.rho * refined",
           "z = config.rho * x + (1.0 - config.rho) * refined"),
    # each sample's MBIR step takes another sample's refined image
    Mutant("mbir-step-pairing", "solver.py",
           "x_new = np.stack([mbir_step(xa, zi, obj) for xa, zi, obj in zip(x_acute, z, objs)])",
           "x_new = np.stack([mbir_step(xa, zi, obj) "
           "for xa, zi, obj in zip(x_acute, z[::-1], objs)])"),
    # a signed matrix's majorizer runs on A, not on |A|
    Mutant("majorizer-absolute", "linops.py",
           "if self.op._has_negative:  # |A| and its transpose share A's index arrays",
           "if False:"),
    # code-gradient signs from hidden >= 0, so a zero code passes the mask
    Mutant("code-signs", "training.py",
           'np.sign(hidden, out=signs, casting="unsafe")',
           'np.greater_equal(hidden, 0.0, out=signs, casting="unsafe")'),
    # the code gradient is masked by the positive codes only
    Mutant("code-mask", "training.py",
           "g_bits *= signs != 0",
           "g_bits *= signs > 0"),
    # thresholds sliced without the bank block's offset
    Mutant("bank-thresholds", "refiners.py",
           "hidden = soft_threshold(code, thresholds[at, None, None, None], out=out)",
           "hidden = soft_threshold(code, thresholds[ks, None, None, None], out=out)"),
    # the caller's codes written without the bank block's offset
    Mutant("bank-codes", "refiners.py",
           "if codes is None else codes[at])",
           "if codes is None else codes[ks])"),
    # bank blocks sized by all the code spectra, not by one image's
    Mutant("bank-step", "refiners.py",
           "bank_step = max(1, _BLOCK_BYTES // uhat[0].nbytes)",
           "bank_step = max(1, _BLOCK_BYTES // uhat.nbytes)"),
    # the tied decoder convolves instead of correlating
    Mutant("tied-conj", "refiners.py",
           "dhat = np.conj(ehat) if dec is None else filter_fft(dec[bank], shape)",
           "dhat = ehat if dec is None else filter_fft(dec[bank], shape)"),
    # a digit table as wide as its first value, not its largest
    Mutant("digit-width", "fileio.py",
           "width = len(str(int(values.max())))",
           "width = len(str(int(values[0])))"),
    # leading zeros written as 0, not left blank
    Mutant("digit-blank", "fileio.py",
           "digit *= rest > 0",
           "digit *= rest >= 0"),
    # a halfway value always rounds up, not to the even neighbour
    Mutant("g17-tie", "fileio.py",
           "up = (rem > half) | ((rem == half) & (digits & 1 == 1))",
           "up = rem >= half"),
    # a decimal exponent from log10 that is one off is kept
    Mutant("g17-decade", "fileio.py",
           "k[at] += step[at]",
           "pass"),
    # the decade read from the rounded digits: a value that rounds up onto
    # 10**16 keeps a decimal exponent one too high
    Mutant("g17-rounded-decade", "fileio.py",
           "step = (digits >= 10**17).astype(np.int64) - (digits < 10**16)",
           "step = (digits + up >= 10**17).astype(np.int64) - (digits + up < 10**16)"),
    # one trailing zero too many is kept
    Mutant("g17-zeros", "fileio.py",
           "shown = np.maximum(shown.max(axis=0), k + 1)",
           "shown = np.maximum(shown.max(axis=0) + 1, k + 1)"),
    # the lower bound clamps with the upper one
    Mutant("project-lo", "linops.py",
           "out = np.maximum(v, self.lo)",
           "out = np.maximum(v, self.hi)"),
    # the upper bound is never applied
    Mutant("project-hi", "linops.py",
           "np.minimum(out, self.hi, out=out)",
           "np.minimum(out, self.hi)"),
    # trace CSV rows numbered from 1
    Mutant("trace-csv-iter", "solver.py",
           "for i, r in enumerate(self.records)))",
           "for i, r in enumerate(self.records, 1)))"),
    # a non-finite iterate reported one iteration late
    Mutant("cli-abort-iteration", "cli.py",
           'f"iteration {len(trace) - 1}")',
           'f"iteration {len(trace)}")'),
)


def apply(source: str, mutant: Mutant) -> str:
    """`source` with the mutant's one line replaced, its indentation kept."""
    lines = source.splitlines(keepends=True)
    hits = [i for i, text in enumerate(lines) if text.strip() == mutant.line]
    if len(hits) != 1:
        raise ValueError(f"{mutant.label}: line found {len(hits)} times in {mutant.module}")
    text = lines[hits[0]]
    lines[hits[0]] = text[:len(text) - len(text.lstrip())] + mutant.replacement + "\n"
    return "".join(lines)


def _archive(dest: Path) -> None:
    rev = subprocess.run(["git", "stash", "create"], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.strip() or "HEAD"
    tar = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                         capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")


def _first_failure(output: str) -> str:
    for text in output.splitlines():
        if text.startswith(("FAILED ", "ERROR ")):
            return text.split(" - ")[0]
    return output.strip().splitlines()[-1] if output.strip() else "(no output)"


def run(mutant: Mutant, tree: Path) -> tuple[bool, str, float]:
    """(caught, first failing test, seconds) of the fast tier on the mutated tree."""
    path = tree / "src" / "mbirnet" / mutant.module
    original = path.read_text()
    path.write_text(apply(original, mutant))
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-m", "not slow", "-x", "-q",
             "-p", "no:cacheprovider", f"--ignore={TABLE_TEST}"],
            cwd=tree, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"})
    finally:
        path.write_text(original)
    caught = proc.returncode != 0
    return caught, _first_failure(proc.stdout) if caught else "", time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--only", metavar="LABEL", help="run only the mutant with this label")
    args = parser.parse_args(argv)
    mutants = [m for m in MUTANTS if args.only in (None, m.label)]
    if not mutants:
        parser.error(f"no mutant labelled {args.only!r}")
    survivors = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        _archive(tree)
        for mutant in mutants:
            caught, failure, seconds = run(mutant, tree)
            survivors += not caught
            print(f"{mutant.label}: {'caught' if caught else 'SURVIVED'} in {seconds:.1f} s"
                  + (f" by {failure}" if caught else ""), flush=True)
    print(f"{len(mutants) - survivors} of {len(mutants)} caught")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
