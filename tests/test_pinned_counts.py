"""The per-iteration call counts that the benchmark pins hold.

`perfbench/test_perfbench.py` pins, per momentum and per BCD outer iteration,
the forward, adjoint, refiner, `filter_fft` and FFT calls and the CSR entries
touched.  Its two count tests run here, in a child pytest, so that a change
which moves a pinned count fails the test suite too.  The child writes no
bytecode, so nothing is added under `perfbench/`.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_iteration_counts_hold():
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         str(ROOT / "perfbench" / "test_perfbench.py"), "-k", "iteration_counts"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"})
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert "2 passed" in proc.stdout, proc.stdout[-4000:]
