"""Momentum-extrapolated reconstruction solvers.

`run_momentum_net` executes the three-module iteration (refine, extrapolate,
noniterative MBIR step: one gradient step in the diagonal metric
lam * (M_f + gamma I), then a clamp); `run_bcd_net` is the inner-solver baseline;
`run_caol_bpegm` is an independently-coded two-block majorized solver for the
convolutional sparse prior, used as an equivalence oracle for the tied
autoencoder configuration.

A data fit's MBIR objective is built once (`MomentumNetConfig.objective`) and
each iteration passes it the refined image z; reconstruction (a stack of one),
training and diagnostics advance one `Trajectory` of samples.  A run returns an
`IterateTrace` whose record i is iteration i; a non-finite iterate ends the run
with that record last and `aborted` set.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .fileio import write_table
from .linops import (DiagonalMajorizer, FeasibleSet, ImageVector, MbirObjective,
                     QuadraticDataFit, _flat, _norm, as_f64, datafit_gradient,
                     diag_majorizer, mbir_gradient, select_gamma)
from .prox import soft_threshold
from .refiners import embed_filters, tf_defect

Refiner = Callable[[np.ndarray], np.ndarray]


class NumericFailure(RuntimeError):
    """A solver produced a non-finite iterate."""


# ---------------------------------------------------------------------------
# momentum bookkeeping
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentumState:
    """Accelerated-gradient momentum coefficients.

    theta follows theta' = (1 + sqrt(1 + 4 theta^2)) / 2 from theta = 1 and the
    weight m' = (theta - 1) / theta' lives in [0, 1).  delta is `MomentumNetConfig`'s.
    """

    theta: float = 1.0
    m: float = 0.0

    def __post_init__(self):
        if self.theta < 1.0:
            raise ValueError("theta must be >= 1")
        if not 0.0 <= self.m <= 1.0:
            raise ValueError("momentum weight must lie in [0, 1]")


def momentum_update(state: MomentumState) -> MomentumState:
    """One step of the momentum recurrence."""
    theta_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * state.theta * state.theta))
    m_next = (state.theta - 1.0) / theta_next
    return replace(state, theta=theta_next, m=m_next)


def _extrapolation_scale(state: MomentumState, delta: float, lam: float) -> float:
    """delta^2 m, times (lam-1)/(2(lam+1)) in nonconvex mode (lam != 1)."""
    scale = delta ** 2 * state.m
    if lam != 1.0:
        scale *= (lam - 1.0) / (2.0 * (lam + 1.0))
    return scale


def extrapolation_matrix(m_prev: DiagonalMajorizer, m_cur: DiagonalMajorizer,
                         state: MomentumState, delta: float, lam: float) -> np.ndarray:
    """Diagonal extrapolation matrix delta^2 m * M_cur^{-1/2} M_prev^{1/2}
    (times the nonconvex factor when lam != 1), returned as the diagonal vector."""
    return _extrapolation_scale(state, delta, lam) * np.sqrt(m_prev.diag / m_cur.diag)


def check_extrapolation_condition(e_diag: np.ndarray, m_prev: DiagonalMajorizer,
                                  m_cur: DiagonalMajorizer, delta: float, lam: float,
                                  slack: float = 1e-12) -> bool:
    """Entrywise test of E^T M_cur E <= bound * M_prev, nonconvex bound if lam != 1."""
    bound = delta ** 2
    if lam != 1.0:
        bound *= (lam - 1.0) ** 2 / (4.0 * (lam + 1.0) ** 2)
    lhs = np.asarray(e_diag) ** 2 * m_cur.diag
    rhs = bound * m_prev.diag
    return bool(np.all(lhs <= rhs * (1.0 + slack) + slack * np.max(rhs, initial=0.0)))


# ---------------------------------------------------------------------------
# configuration and trace
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentumNetConfig:
    """Solver parameters; exactly one of gamma/chi selects the proximity weight.

    chi derives gamma from the spectral spread of the data-fit majorizer at
    run time (falling back to the majorizer maximum when the spread is zero up
    to rounding; see `select_gamma`).
    lam = 1 is convex mode; lam > 1 is nonconvex mode, whose extrapolation
    carries the factor (lam-1)/(2(lam+1)).  The relaxation weight rho defaults
    to 0.999 (nearly pure refining); problems with moderate regularization
    often do better around 0.5.
    """

    n_iter: int
    rho: float = 0.999
    gamma: Optional[float] = None
    chi: Optional[float] = None
    delta: float = 1.0 - 1e-9
    lam: float = 1.0
    extrapolate: bool = True
    record_fixed_point: bool = True

    def __post_init__(self):
        if self.n_iter < 0:
            raise ValueError("n_iter must be >= 0")
        if not 0.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (0, 1)")
        if not 0.0 <= self.delta < 1.0:
            raise ValueError("delta must lie in [0, 1)")
        if (self.gamma is None) == (self.chi is None):
            raise ValueError("provide exactly one of gamma or chi")
        for key, value in (("gamma", self.gamma), ("chi", self.chi)):
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ValueError(f"{key} must be finite and > 0, got {value}")
        if not (math.isfinite(self.lam) and self.lam >= 1.0):
            raise ValueError(f"lam must be finite and >= 1, got {self.lam}")

    def objective(self, datafit: QuadraticDataFit, feasible: FeasibleSet) -> MbirObjective:
        """The MBIR objective of this data fit over `feasible`, with gamma chosen
        from its diagonal majorizer M_f when chi is set."""
        gamma = select_gamma(diag_majorizer(datafit), self.chi) if self.gamma is None else self.gamma
        return MbirObjective(datafit, gamma, feasible, self.lam)


@dataclass
class IterateRecord:
    objective: float
    step_residual: float
    x: np.ndarray
    z: np.ndarray
    fixed_point_residual: float = math.nan
    wall_ms: float = 0.0


TRACE_COLUMNS = ("iter", "objective", "step_residual", "fixed_point_residual", "wall_ms")


@dataclass
class IterateTrace:
    """Per-iteration record of a solver run: record i holds iteration i, record 0
    the start point.  `aborted` marks a run whose final record is non-finite."""

    shape: tuple[int, int]
    records: list[IterateRecord] = field(default_factory=list)
    aborted: bool = False

    def __len__(self) -> int:
        return len(self.records)

    @property
    def final(self) -> IterateRecord:
        return self.records[-1]

    def final_image(self) -> ImageVector:
        return ImageVector(self.final.x, self.shape)

    def iterates(self) -> list[np.ndarray]:
        return [r.x for r in self.records]

    def objectives(self) -> np.ndarray:
        return np.array([r.objective for r in self.records])

    def relative_step_residuals(self) -> np.ndarray:
        """Step residuals scaled by max(1, ||x||) of the previous iterate."""
        return np.array([rec.step_residual / max(1.0, _norm(prev.x))
                         for prev, rec in zip(self.records, self.records[1:])])

    def to_csv(self, path) -> None:
        write_table(path, TRACE_COLUMNS, (
            (i, r.objective, r.step_residual, r.fixed_point_residual, r.wall_ms)
            for i, r in enumerate(self.records)))


# ---------------------------------------------------------------------------
# core steps
# ---------------------------------------------------------------------------

def mbir_step(x_acute, z, obj: MbirObjective):
    """Noniterative majorized MBIR update: gradient step in the M-metric, then projection."""
    xa = _flat(x_acute)
    step = xa - mbir_gradient(obj, xa, z) / obj.metric.diag
    # the sets are separable boxes and M is diagonal, so the M-metric
    # projection argmin_{u in set} 1/2||u - step||^2_M is the entrywise clamp
    return obj.feasible.project(step)


def fixed_point_residual(x: ImageVector, refiner: Refiner, config: MomentumNetConfig,
                         obj: MbirObjective) -> float:
    """Normalized distance of x from its own zero-momentum full iteration.

    Zero exactly when x reproduces itself through refine -> MBIR with no
    extrapolation, the empirical marker of a solver fixed point.
    """
    xf = x.data
    z_bar = (1.0 - config.rho) * xf + config.rho * refiner(x.as_2d()).ravel()
    x_next = mbir_step(xf, z_bar, obj)
    return _norm(xf - x_next) / max(1.0, _norm(xf))


def _refiner_at(refiners: Sequence[Refiner], i: int) -> Refiner:
    # the last refiner repeats past the trained depth
    return refiners[min(i, len(refiners) - 1)]


def momentum_net_step(x: np.ndarray, x_prev: np.ndarray, state: MomentumState,
                      refined: np.ndarray, obj: MbirObjective, config: MomentumNetConfig):
    """One full iteration from the refiner output R(x); returns (x_new, z, new state)."""
    z = (1.0 - config.rho) * x + config.rho * refined.ravel()
    if config.extrapolate:
        # the metric is fixed per data fit, so the M-ratio of E is 1
        x_acute = x + _extrapolation_scale(state, config.delta, config.lam) * (x - x_prev)
    else:
        x_acute = x
    return mbir_step(x_acute, z, obj), z, momentum_update(state)


def backprojection_init(datafit: QuadraticDataFit, shape: tuple[int, int]) -> ImageVector:
    """Weighted back-projection A^T W y rescaled into [0, 1]."""
    bp = datafit.op.adjoint(datafit.weights * datafit.measurements)
    top = float(np.max(bp))
    if top > 0:
        bp = np.clip(bp / top, 0.0, 1.0)
    else:
        bp = np.zeros_like(bp)
    return ImageVector(bp, shape)


class Trajectory:
    """Samples on one momentum trajectory, each with its own MBIR objective: the
    (B, h, w) stacks x and x_prev, and the momentum state, the same for all."""

    def __init__(self, config: MomentumNetConfig, objs: Sequence[MbirObjective], x: np.ndarray):
        self.config, self.objs, self.x, self.x_prev = config, objs, x, x
        self.state = MomentumState()

    @classmethod
    def from_starts(cls, config: MomentumNetConfig, datafits: Sequence[QuadraticDataFit],
                    feasible: FeasibleSet, shape: tuple[int, int]) -> "Trajectory":
        """The data fits' samples at their back-projection starts."""
        return cls(config, [config.objective(f, feasible) for f in datafits],
                   np.stack([backprojection_init(f, shape).as_2d() for f in datafits]))

    def advance(self, refiner: Refiner):
        """One refiner call on the stack, then each sample's step; returns R(x), z and x."""
        outs = refiner(self.x)
        steps = [momentum_net_step(x.ravel(), x_prev.ravel(), self.state, out, obj, self.config)
                 for obj, x, x_prev, out in zip(self.objs, self.x, self.x_prev, outs)]
        x_new, zs, states = zip(*steps)
        self.x_prev, self.x, self.state = self.x, np.stack(x_new).reshape(self.x.shape), states[0]
        return outs, np.stack(zs).reshape(self.x.shape), self.x


def _drive(config: MomentumNetConfig, refiners: Sequence[Refiner], obj: MbirObjective,
           x0: ImageVector, step, record_fixed_point: bool) -> IterateTrace:
    """Loop shared by the unrolled solvers.

    `step(refiner, x)` returns (x_new, z) for one iteration, as fresh arrays
    that nothing writes afterwards; the driver times it, records the MBIR
    objective F(x_new; y, z) and both images, uncopied, and aborts on a
    non-finite iterate.  With `record_fixed_point` it also records x_new's
    fixed-point residual.
    """
    if config.n_iter > 0 and len(refiners) == 0:
        raise ValueError("need at least one refiner")
    x = x0.data.copy()
    trace = IterateTrace(shape=x0.shape)
    trace.records.append(IterateRecord(objective=obj.datafit.value(x), step_residual=0.0,
                                       x=x.copy(), z=x.copy()))
    # non-finite values are an abort signal here, not an IEEE event worth warning on
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(config.n_iter):
            t0 = time.perf_counter()
            refiner = _refiner_at(refiners, i)
            x_new, z = step(refiner, x)
            wall = (time.perf_counter() - t0) * 1e3
            rec = IterateRecord(
                objective=obj.value(x_new, z),
                step_residual=_norm(x_new - x),
                wall_ms=wall,
                x=x_new,
                z=z,
            )
            if not np.all(np.isfinite(x_new)):
                rec.objective = math.nan
                trace.records.append(rec)
                trace.aborted = True
                return trace
            if record_fixed_point:
                rec.fixed_point_residual = fixed_point_residual(ImageVector(x_new, x0.shape),
                                                                refiner, config, obj)
            trace.records.append(rec)
            x = x_new
    return trace


def run_momentum_net(config: MomentumNetConfig, refiners: Sequence[Refiner],
                     datafit: QuadraticDataFit, feasible: FeasibleSet,
                     x0: ImageVector) -> IterateTrace:
    """Unrolled reconstruction with refining, extrapolation, and MBIR modules.

    The refiner list is indexed by iteration; if it is shorter than n_iter the
    last entry repeats.  A non-finite iterate aborts the run, leaving the
    offending iteration flagged on the trace.
    """
    obj = config.objective(datafit, feasible)
    path = Trajectory(config, [obj], x0.data.reshape(1, *x0.shape))

    def step(refiner, x):
        _, z, x_new = path.advance(refiner)
        return x_new.ravel(), z.ravel()

    return _drive(config, refiners, obj, x0, step, config.record_fixed_point)


# ---------------------------------------------------------------------------
# accelerated proximal gradient (inner solver)
# ---------------------------------------------------------------------------

def apg_solve(obj: MbirObjective, z, x0, iters: int):
    """Accelerated projected gradient on F(.; y, z) over the feasible set.

    The step metric is the diagonal majorizer of grad F; no monotone restart.
    """
    if iters < 1:
        raise ValueError("iters must be >= 1")
    x = _flat(x0).copy()
    md = diag_majorizer(obj.datafit).diag + obj.gamma
    v = x.copy()
    state = MomentumState()
    for _ in range(iters):
        u = obj.feasible.project(v - mbir_gradient(obj, v, z) / md)
        state = momentum_update(state)
        v = u + state.m * (u - x)
        x = u
    return x


def run_bcd_net(config: MomentumNetConfig, refiners: Sequence[Refiner],
                datafit: QuadraticDataFit, feasible: FeasibleSet, x0: ImageVector,
                inner_iters: int) -> IterateTrace:
    """Alternating refine / inner-solve baseline (no relaxation, no extrapolation).

    Each outer iteration refines z = R(x) and then approximately minimizes
    F(.; y, z) over the feasible set with `inner_iters` accelerated projected
    gradient steps warm-started at the previous outer iterate.
    """
    if inner_iters < 1:
        raise ValueError("inner_iters must be >= 1")
    shape = x0.shape
    obj = config.objective(datafit, feasible)

    def step(refiner, x):
        z = refiner(x.reshape(shape)).ravel()
        return apg_solve(obj, z, x, inner_iters), z

    return _drive(config, refiners, obj, x0, step, False)


# ---------------------------------------------------------------------------
# two-block majorized solver for the convolutional sparse prior (oracle)
# ---------------------------------------------------------------------------

def run_caol_bpegm(datafit: QuadraticDataFit, tf_filters: np.ndarray, beta,
                   gamma: float, feasible: FeasibleSet, x0: ImageVector,
                   n_iter: int, delta: float = 1.0 - 1e-9) -> IterateTrace:
    """Two-block extrapolated majorized descent on the sparse-coded objective

        f(x; y) + gamma * sum_k ( 1/2 ||h_k conv x - zeta_k||^2 + beta_k ||zeta_k||_1 ).

    The code block has a sharp majorizer and is solved exactly by thresholded
    analysis/synthesis with the tied tight-frame bank; the image block takes
    one extrapolated diagonal-majorized projected gradient step.  The loop is
    written independently of `run_momentum_net` so the two can cross-check
    each other.
    """
    if tf_defect(tf_filters) > 1e-8:
        raise ValueError("refusing to run oracle: filter bank is not a tight frame")
    beta_vec = np.ravel(as_f64(beta))
    if beta_vec.size == 1:
        beta_vec = np.full(len(tf_filters), float(beta_vec[0]))
    if gamma <= 0:
        raise ValueError("gamma must be > 0")

    shape = x0.shape
    x = x0.data.copy()
    x_prev = x.copy()
    m_f = diag_majorizer(datafit)
    md = m_f.diag + gamma  # lam = 1: the sparse-coded objective is convex in x
    hhat = np.fft.rfft2(embed_filters(tf_filters, shape), axes=(-2, -1))
    theta = 1.0
    m = 0.0

    def caol_objective(xv: np.ndarray, codes: np.ndarray) -> float:
        conv = np.fft.irfft2(hhat * np.fft.rfft2(xv.reshape(shape)), s=shape, axes=(-2, -1))
        quad = 0.5 * float(np.sum((conv - codes) ** 2))
        l1 = float(np.sum(beta_vec * np.sum(np.abs(codes), axis=(-2, -1))))
        return datafit.value(xv) + gamma * (quad + l1)

    trace = IterateTrace(shape=shape)
    trace.records.append(IterateRecord(objective=datafit.value(x), step_residual=0.0,
                                       x=x.copy(), z=x.copy()))

    for i in range(n_iter):
        t0 = time.perf_counter()
        # code block: exact thresholded analysis, then tied synthesis
        conv = np.fft.irfft2(hhat * np.fft.rfft2(x.reshape(shape)), s=shape, axes=(-2, -1))
        codes = soft_threshold(conv, beta_vec[:, None, None])
        z = np.fft.irfft2(np.sum(np.conj(hhat) * np.fft.rfft2(codes, axes=(-2, -1)), axis=0),
                          s=shape).ravel()
        # image block: extrapolate with the running momentum weight, then step
        e_scale = delta ** 2 * m  # fixed majorizer, so M-ratio is identity
        x_acute = x + e_scale * (x - x_prev)
        grad = datafit_gradient(datafit, x_acute) + gamma * (x_acute - z)
        x_new = feasible.project(x_acute - grad / md)
        theta_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * theta * theta))
        m = (theta - 1.0) / theta_next
        theta = theta_next
        wall = (time.perf_counter() - t0) * 1e3

        rec = IterateRecord(objective=caol_objective(x_new, codes),
                            step_residual=float(np.linalg.norm(x_new - x)), wall_ms=wall,
                            x=x_new.copy(), z=z.copy())
        if not np.all(np.isfinite(x_new)):
            rec.objective = math.nan
            trace.records.append(rec)
            trace.aborted = True
            return trace
        trace.records.append(rec)
        x_prev, x = x, x_new
    return trace
