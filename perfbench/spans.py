"""Span recorder for the traced benchmark run.

The recorder wraps public functions and methods of `mbirnet` from outside the
package: it replaces every module-level binding of a target function inside
`mbirnet.*` (so `mbirnet.training.momentum_net_step` is wrapped as well as
`mbirnet.solver.momentum_net_step`), the target methods on their classes, and
the FFT entry points of both `numpy.fft` and `scipy.fft`.  Each call records a
span (name, start, end, parent) in memory; `summary` derives per-name call
counts, inclusive time and self time from the spans, and `write` dumps them
when the run ends.  `uninstall` restores every original binding.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

import numpy as np
import scipy.fft

# (span name, module, function)
FUNCTIONS = (
    ("imaging.build_radon", "mbirnet.imaging", "build_radon"),
    ("fileio.read_operator", "mbirnet.fileio", "read_operator"),
    ("linops.diag_majorizer", "mbirnet.linops", "diag_majorizer"),
    ("prox.soft_threshold", "mbirnet.prox", "soft_threshold"),
    ("refiners.filter_fft", "mbirnet.refiners", "filter_fft"),
    ("refiners.lipschitz_estimate", "mbirnet.refiners", "lipschitz_estimate"),
    ("refiners.paired_epsilon", "mbirnet.refiners", "paired_epsilon"),
    ("solver.run_momentum_net", "mbirnet.solver", "run_momentum_net"),
    ("solver.momentum_net_step", "mbirnet.solver", "momentum_net_step"),
    ("solver.mbir_step", "mbirnet.solver", "mbir_step"),
    ("solver.fixed_point_residual", "mbirnet.solver", "fixed_point_residual"),
    ("solver.run_bcd_net", "mbirnet.solver", "run_bcd_net"),
    ("solver.apg_solve", "mbirnet.solver", "apg_solve"),
    ("training.greedy_train", "mbirnet.training", "greedy_train"),
    ("training.train_refiner", "mbirnet.training", "train_refiner"),
    ("training.scnn_value_and_grad", "mbirnet.training", "scnn_value_and_grad"),
    ("diagnostics.run_diagnostics", "mbirnet.diagnostics", "run_diagnostics"),
    ("cli.main", "mbirnet.cli", "main"),
)

# (span name, module, class, method)
METHODS = (
    ("linops.forward", "mbirnet.linops", "SparseMatrixOperator", "forward"),
    ("linops.adjoint", "mbirnet.linops", "SparseMatrixOperator", "adjoint"),
    ("linops.objective", "mbirnet.linops", "MbirObjective", "value"),
    ("refiners.forward", "mbirnet.refiners", "ScnnRefiner", "__call__"),
    ("training.adam_step", "mbirnet.training", "Adam", "step"),
    ("cli.manifest", "mbirnet.cli", "RunManifest", "add"),
)

FFT_SPAN = "fft"
FFT_FUNCTIONS = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "rfft2", "irfft2",
                 "fftn", "ifftn", "rfftn", "irfftn")

SPAN_NAMES = tuple(s[0] for s in FUNCTIONS) + tuple(s[0] for s in METHODS) + (FFT_SPAN,)
COUNT_NAMES = ("fft.points", "linops.nnz_touched")


def _projection_nnz(counts, args, result):
    # CSR entries read by one matrix-vector product (a computed count)
    counts["linops.nnz_touched"] += int(args[0].matrix.nnz)


def _fft_points(counts, args, result):
    # size of the real-space side of the transform
    counts["fft.points"] += max(int(np.size(args[0])), int(np.size(result)))


class Recorder:
    """In-memory span recorder that wraps `mbirnet` entry points while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent index or -1]
        self.counts = dict.fromkeys(COUNT_NAMES, 0)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _wrap(self, name, fn, count=None, nested=True):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = rec._stack
            # an FFT entry point that calls another one is a single transform
            if not nested and stack and rec.spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            entry = [name, 0, 0, stack[-1] if stack else -1]
            stack.append(len(rec.spans))
            rec.spans.append(entry)
            entry[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                entry[2] = time.perf_counter_ns()
                stack.pop()
            if count is not None:
                count(rec.counts, args, result)
            return result

        return wrapper

    # -- installation ---------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _rebind(self, original, wrapper, extra_owners=()):
        """Point every binding of `original` in mbirnet modules at `wrapper`."""
        owners = list(extra_owners) + [mod for key, mod in list(sys.modules.items())
                                       if key == "mbirnet" or key.startswith("mbirnet.")]
        for owner in owners:
            for key, value in list(vars(owner).items()):
                if value is original:
                    self._set(owner, key, wrapper)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("recorder already installed")
        for name, module, attr in FUNCTIONS:
            original = getattr(importlib.import_module(module), attr)
            self._rebind(original, self._wrap(name, original))
        for name, module, cls_name, attr in METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            count = _projection_nnz if name in ("linops.forward", "linops.adjoint") else None
            self._set(cls, attr, self._wrap(name, vars(cls)[attr], count))
        for fft_module in (np.fft, scipy.fft):
            for attr in FFT_FUNCTIONS:
                original = getattr(fft_module, attr)
                wrapper = self._wrap(FFT_SPAN, original, _fft_points, nested=False)
                self._rebind(original, wrapper, extra_owners=(fft_module,))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive ms and self ms (minus child spans)."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out = {name: {"calls": 0, "ms": 0.0, "self_ms": 0.0} for name in SPAN_NAMES}
        for i, (name, start, end, _) in enumerate(self.spans):
            agg = out[name]
            agg["calls"] += 1
            agg["ms"] += (end - start) / 1e6
            agg["self_ms"] += (end - start - child_ns[i]) / 1e6
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "start_ns", "end_ns", "parent"],
                       "spans": self.spans, "counts": self.counts}, fh)
            fh.write("\n")
