"""Empirical convergence diagnostics over a trained refiner sequence.

Advances the samples along the one trajectory that training and reconstruction
follow (`solver.Trajectory`: one refiner call and one momentum step per
iteration on the stack of all samples, only the MBIR step per sample), and
estimates from the refiner outputs kappa (Lipschitz constant of the refiner on
its actual inputs), epsilon (paired-nonexpansiveness slack across adjacent
refiners), and delta (block-coordinate-minimizer slack of the refined images).
All three are clipped maxima over randomly selected sample pairs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .fileio import write_table
from .linops import FeasibleSet
from .refiners import delta_measure, lipschitz_estimate, paired_epsilon
from .solver import MomentumNetConfig, Refiner, Trajectory, _refiner_at
from .training import TrainingSample


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
        columns = ("epsilon", "delta", "kappa") if self.has_pairs else ("kappa",)
        write_table(path, ("iter",) + columns,
                    zip(range(1, self.n_iter + 1), *(getattr(self, c) for c in columns)))


def _pair_indices(n_samples: int, n_pairs: int, rng: np.random.Generator):
    # one sample pairs with itself (epsilon only)
    pairs = [(a, b) for a in range(n_samples) for b in range(n_samples) if a != b] or [(0, 0)]
    if len(pairs) <= n_pairs:
        return pairs
    chosen = rng.choice(len(pairs), size=n_pairs, replace=False)
    return [pairs[i] for i in chosen]


def run_diagnostics(refiners: Sequence[Refiner], samples: Sequence[TrainingSample],
                    config: MomentumNetConfig, feasible: FeasibleSet,
                    n_pairs: int = 100, seed: int = 0) -> DiagnosticsResult:
    """Estimate kappa/epsilon/delta along the training trajectory of the samples,
    stopping after the first iteration with a non-finite iterate (its row is kept)."""
    if len(refiners) == 0:
        raise ValueError("need at least one refiner")
    if len(samples) == 0:
        raise ValueError("need at least one sample, got an empty sample list")
    if n_pairs < 1:
        raise ValueError(f"need at least one sample pair, got {n_pairs}")
    rng = np.random.default_rng(seed)
    idx_pairs = _pair_indices(len(samples), n_pairs, rng)
    has_pairs = len(refiners) >= 2

    path = Trajectory.from_starts(config, [s.datafit for s in samples], feasible,
                                  samples[0].truth.shape)
    rows = []
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite iterate ends the run
        for k in range(1, config.n_iter + 1):
            # refiner k (1-based) consumes x^{(k-1)}; io pairs each input with its output
            xs = path.x
            outs, zs, xs_new = path.advance(_refiner_at(refiners, k - 1))
            io = list(zip(xs, outs))
            lip_pairs = [(io[a], io[b]) for a, b in idx_pairs if a != b]
            kappa = lipschitz_estimate(lip_pairs) if lip_pairs else math.nan
            epsilon = delta = math.nan
            if k >= 2 and has_pairs:
                epsilon = paired_epsilon([(io[a], io_prev[b]) for a, b in idx_pairs])
                delta = max(delta_measure(z, z_prev, x) for z, z_prev, x in zip(zs, zs_prev, xs))
            rows.append((kappa, epsilon, delta))
            if not np.all(np.isfinite(xs_new)):
                break
            io_prev, zs_prev = io, zs
    kappa, epsilon, delta = np.array(rows, dtype=float).reshape(-1, 3).T
    return DiagnosticsResult(kappa, epsilon, delta, has_pairs)
