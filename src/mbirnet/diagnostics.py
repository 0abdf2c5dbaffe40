"""Empirical convergence diagnostics over a trained refiner sequence.

Runs the solver on a set of samples, then estimates per-iteration sequences:
kappa (Lipschitz constant of the refiner on its actual inputs), epsilon
(paired-nonexpansiveness slack across adjacent refiners), and delta
(block-coordinate-minimizer slack of the refined images).  All three are
clipped maxima over randomly selected sample pairs.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .linops import FeasibleSet
from .refiners import delta_measure, lipschitz_estimate, paired_epsilon
from .solver import (IterateTrace, MomentumNetConfig, Refiner, _fmt, _refiner_at,
                     run_momentum_net)
from .training import TrainingSample, backprojection_init


@dataclass
class DiagnosticsResult:
    """Sequences indexed by solver iteration (1-based, like the trace)."""

    kappa: np.ndarray    # defined for iterations 1..n_iter
    epsilon: np.ndarray  # nan at iteration 1
    delta: np.ndarray    # nan at iteration 1
    has_pairs: bool      # False when fewer than 2 refiners were provided

    @property
    def n_iter(self) -> int:
        return self.kappa.size

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            if self.has_pairs:
                writer.writerow(["iter", "epsilon", "delta", "kappa"])
                for i in range(self.n_iter):
                    writer.writerow([i + 1, _fmt(self.epsilon[i]), _fmt(self.delta[i]),
                                     _fmt(self.kappa[i])])
            else:
                writer.writerow(["iter", "kappa"])
                for i in range(self.n_iter):
                    writer.writerow([i + 1, _fmt(self.kappa[i])])


def _pair_indices(n_samples: int, n_pairs: int, rng: np.random.Generator):
    if n_samples < 2:
        return [(0, 0)]
    pairs = [(a, b) for a in range(n_samples) for b in range(n_samples) if a != b]
    if len(pairs) <= n_pairs:
        return pairs
    chosen = rng.choice(len(pairs), size=n_pairs, replace=False)
    return [pairs[i] for i in chosen]


def run_diagnostics(refiners: Sequence[Refiner], samples: Sequence[TrainingSample],
                    config: MomentumNetConfig, feasible: FeasibleSet,
                    n_pairs: int = 100, seed: int = 0) -> DiagnosticsResult:
    """Estimate kappa/epsilon/delta along the solver trajectory of each sample."""
    if len(refiners) == 0:
        raise ValueError("need at least one refiner")
    rng = np.random.default_rng(seed)
    shape = samples[0].truth.shape

    traces: list[IterateTrace] = []
    for s in samples:
        one_off = replace(config, gamma=s.gamma, chi=None, record_fixed_point=False)
        x0 = s.x0 if s.x0 is not None else backprojection_init(s.datafit, shape)
        traces.append(run_momentum_net(one_off, refiners, s.datafit, feasible, x0))

    n_iter = min(len(t) - 1 for t in traces)
    idx_pairs = _pair_indices(len(samples), n_pairs, rng)

    kappa = np.full(n_iter, math.nan)
    epsilon = np.full(n_iter, math.nan)
    delta = np.full(n_iter, math.nan)
    for k in range(1, n_iter + 1):
        # refiner k (1-based) consumes x^{(k-1)}
        inputs = [t.records[k - 1].x.reshape(shape) for t in traces]
        lip_pairs = [(inputs[a], inputs[b]) for a, b in idx_pairs if a != b]
        if lip_pairs:
            kappa[k - 1] = lipschitz_estimate(_refiner_at(refiners, k - 1), lip_pairs)
        if k >= 2 and len(refiners) >= 2:
            prev_inputs = [t.records[k - 2].x.reshape(shape) for t in traces]
            eps_pairs = [(inputs[a], prev_inputs[b]) for a, b in idx_pairs]
            epsilon[k - 1] = paired_epsilon(_refiner_at(refiners, k - 1),
                                          _refiner_at(refiners, k - 2), eps_pairs)
            delta[k - 1] = max(
                delta_measure(t.records[k].z, t.records[k - 1].z, t.records[k - 1].x)
                for t in traces)
    return DiagnosticsResult(kappa, epsilon, delta, has_pairs=len(refiners) >= 2)
