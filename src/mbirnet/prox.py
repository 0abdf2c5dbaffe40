"""Proximal maps under diagonal majorizer metrics.  The metric projection onto
a feasible set is `FeasibleSet.project`: a box clamp, whatever the diagonal."""

from __future__ import annotations

import numpy as np

from .linops import DiagonalMajorizer, _flat


def soft_threshold(u, alpha, out=None):
    """Entrywise shrinkage: u - alpha*sgn(u) where |u| > alpha, else 0.

    Ties |u| == alpha and NaN entries map to +0.0.  `alpha` may be a scalar or
    broadcastable array of nonnegative thresholds.  The result goes to `out`
    when one is given (float64, of the broadcast shape); `out` must not share
    memory with `u`, whose signs are read after `out` is written.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    if np.any(alpha < 0):
        raise ValueError("threshold must be nonnegative")
    u = np.asarray(u, dtype=np.float64)
    shape = np.broadcast_shapes(u.shape, alpha.shape)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64:
        raise ValueError(f"out must be float64 of shape {shape}, "
                         f"got {out.dtype} of shape {out.shape}")
    elif np.shares_memory(u, out):
        raise ValueError("out must not share memory with u")
    # sgn(u) * max(|u| - alpha, 0) in one buffer: fmax drops NaN lanes to 0,
    # and adding +0.0 turns the -0.0 that copysign gives them (and negative
    # ties) into +0.0, so the bits equal where(|u| > alpha, u - alpha*sgn(u), 0)
    np.abs(u, out=out)
    out -= alpha
    np.fmax(out, 0.0, out=out)
    np.copysign(out, u, out=out)
    out += 0.0
    return out


def prox_l1_metric(z, m: DiagonalMajorizer, beta: float):
    """Prox of beta*||.||_1 in the metric of m: entrywise shrink by beta / M_n."""
    if beta < 0:
        raise ValueError("beta must be nonnegative")
    return soft_threshold(_flat(z), beta / m.diag)
