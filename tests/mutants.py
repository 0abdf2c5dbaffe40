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
ADVANCE = ("self.x_prev, self.x, self.state = "
           "self.x, np.stack(x_new).reshape(self.x.shape), states[0]")

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
           "self.x, self.state = np.stack(x_new).reshape(self.x.shape), states[0]"),
    # the momentum weight stays 0, so nothing extrapolates
    Mutant("trajectory-state", "solver.py", ADVANCE,
           "self.x_prev, self.x = self.x, np.stack(x_new).reshape(self.x.shape)"),
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
