"""Greedy stage-wise refiner training.

Each reconstruction iteration gets its own refiner, trained to map the current
sample states to the ground-truth images (mean squared residual loss), after
which every sample advances one solver iteration with the freshly trained
refiner (`solver._advance`, the one sample trajectory, which diagnostics follow
too: each refiner runs once per iteration, on the stack of all samples, and each
sample's MBIR objective is built once, before the first stage).  Gradients
through the networks are computed analytically (subgradient 0 at soft-threshold
kinks and at ReLU(0)) and fed to a built-in adaptive-moment optimizer.  The
forward half of each gradient is the refiner's own batched forward pass
(`refiners._scnn_forward`, `refiners._dcnn_forward`), so training fits exactly
the map that reconstruction runs; only the backward half is written here.  The
sCNN forward takes the filter banks and forms their spectra itself, one bank
block at a time, with `scipy.fft` transforms, as in reconstruction.  Both
backward passes work in the spatial domain, as GEMMs on stacks of the circular
shifts of the images over the filter taps (`refiners._shift_stack`, one
overlapping patch per column).  `train_refiner` gives the sCNN gradient one
workspace per stage (`_scnn_workspace`: the codes, which the code gradient
overwrites, and one shift stack, sized for the largest batch), which the
gradient fills in place instead of allocating and page-faulting them in again
on every call.  Training fits every array field of a refiner
(`refiners.parameters`), `log_thresholds` at `lr_thresholds` and every other
array at `lr_filters`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .linops import FeasibleSet, ImageVector, QuadraticDataFit, ShapeError, as_f64
from .prox import soft_threshold
from .refiners import (THRESHOLD_FLOOR, DcnnRefiner, ScnnRefiner, _dcnn_forward, _scnn_forward,
                       _shift_stack, _thresholds, filter_side, parameters)
from .solver import MomentumNetConfig, MomentumState, NumericFailure, _advance, _starts


class TrainingAborted(NumericFailure):
    """Loss became non-finite; `history` carries the per-epoch losses so far."""

    def __init__(self, message: str, history: list[float]):
        super().__init__(message)
        self.history = history


# ---------------------------------------------------------------------------
# configuration and sample container
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainConfig:
    """Mini-batch optimizer settings.

    Learning rates follow the two-group convention (filters vs. thresholds)
    and decay by `lr_decay` every 10 epochs.
    """

    batch_size: int
    epochs: int
    lr_filters: float = 1e-3
    lr_thresholds: float = 1e-1
    lr_decay: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("batch_size must be >= 1 and epochs >= 0")
        for key in ("lr_filters", "lr_thresholds"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{key} must be finite and >= 0, got {value}")
        if not 0.0 <= self.lr_decay < 1.0:
            raise ValueError("lr_decay is a fraction in [0, 1)")

    def lr_at(self, base: float, epoch: int) -> float:
        return base * (1.0 - self.lr_decay) ** (epoch // 10)


@dataclass(frozen=True)
class TrainingSample:
    """One supervised sample: truth image and its data fit; it starts from its
    back-projection.  The solver config builds the sample's MBIR objective, with
    its gamma and step metric, from the data fit (`MomentumNetConfig.objective`)."""

    truth: ImageVector
    datafit: QuadraticDataFit

    def __post_init__(self):
        if self.truth.size != self.datafit.n:
            raise ShapeError("truth size must match operator input dim")


# ---------------------------------------------------------------------------
# analytic gradients
# ---------------------------------------------------------------------------

def _scnn_workspace(k: int, r: int, n: int):
    """Buffers for `scnn_value_and_grad` on batches of up to n = B*h*w pixels,
    with K filters of R taps: the codes (K, n), which the code gradient
    overwrites, and one shift stack (R, n)."""
    return np.empty((k, n)), np.empty((r, n))


def scnn_value_and_grad(enc: np.ndarray, dec: np.ndarray, log_thr: np.ndarray,
                        residual: bool, inputs: np.ndarray, targets: np.ndarray,
                        work=None):
    """Batched loss and analytic parameter gradients for the sCNN refiner.

    inputs/targets have shape (B, h, w); the loss is (1/2B) of the summed
    squared residual, matching the per-sample training objective.  The
    backward pass runs in the spatial domain: with the shift stacks
    P[o, n] = u[n - o] of the inputs and Q[o, n] = g[n + o] of the loss
    gradient g over the R filter taps o, each parameter gradient is one GEMM.

    The codes and the shift stack (Q first, then P: Q is dead before P is
    built) are written into the leading rows*B*h*w entries of the two buffers
    of `work` (`_scnn_workspace`, sized for the largest batch), so a training
    stage does not allocate them per call; without `work` they are allocated
    here.  Once the decoder gradient is formed, the backward reads the codes
    only through their signs, so it keeps those as int8 and writes the code
    gradient over the codes.
    """
    b, h, w = inputs.shape
    n = b * h * w
    k, rh, rw = enc.shape
    if work is None:
        work = _scnn_workspace(k, rh * rw, n)
    hidden, stack = (buf.reshape(-1)[:rows * n].reshape(rows, n)
                     for buf, rows in zip(work, (k, rh * rw)))
    raw, thr = _thresholds(log_thr)
    # thresholds pinned at the floor no longer respond to their log-parameter
    dthr = np.where(raw >= THRESHOLD_FLOOR, raw, 0.0)

    out = _scnn_forward(enc, dec, thr, inputs, codes=hidden.reshape(k, b, h, w))
    if residual:
        out += inputs
    resid = out - targets
    loss = 0.5 * float(np.sum(resid * resid)) / b

    q = _shift_stack(resid / b, rh, rw, sign=-1, out=stack)
    g_dec = (hidden @ q.T).reshape(dec.shape)
    # a code passed its threshold exactly where it is nonzero, with the sign it
    # had; soft_threshold writes no -0.0 and no NaN, so int8 holds each sign
    # exactly, and the code gradient then goes over the codes
    signs = np.empty((k, n), np.int8)
    np.sign(hidden, out=signs, casting="unsafe")
    g_hidden = np.matmul(dec.reshape(k, -1), q, out=hidden)
    # row by row, each row reduces as the axis-1 sum does, bit for bit
    row = np.empty(n)
    g_thr = np.empty(k)
    for i in range(k):
        np.copyto(row, signs[i])
        row *= g_hidden[i]
        g_thr[i] = np.sum(row)
    g_thr *= -dthr
    # zero the code gradient where a code is zero: multiplying the bits by the
    # 0/1 mask gives +0.0 there and keeps every other entry's bits, inf and NaN
    # included (a `copyto(..., where=)` takes about five times as long)
    g_bits = g_hidden.view(np.int64)
    g_bits *= signs != 0
    g_enc = (g_hidden @ _shift_stack(inputs, rh, rw, out=stack).T).reshape(enc.shape)
    return loss, {"enc_filters": g_enc, "dec_filters": g_dec, "log_thresholds": g_thr}


def dcnn_value_and_grad(first: np.ndarray, mid: np.ndarray, last: np.ndarray,
                        inputs: np.ndarray, targets: np.ndarray):
    """Batched loss and analytic parameter gradients for the dCNN refiner.

    Backward over the banks from the last: with the shift stack
    Q_k[o, n] = g_k[n + o] of output channel k's gradient, row k of the bank
    gradient is (input maps) @ Q_kᵀ, and the input gradient gains bank[k] @ Q_k.
    The first bank's one input channel is the images, so the stack
    P[o, n] = u[n - o] of the images gives all its taps in one product.
    """
    b = inputs.shape[0]
    rh, rw = first.shape[1], first.shape[2]
    banks = [first[:, None], *mid, last[None]]

    out, feats = _dcnn_forward(first, mid, last, inputs, keep=True)
    resid = out - targets
    loss = 0.5 * float(np.sum(resid * resid)) / b

    g_out = -(resid / b)[None]
    grads = []
    for li in range(len(banks) - 1, -1, -1):
        bank, feat_in = banks[li], feats[li]
        kout, kin = bank.shape[:2]
        if li < len(banks) - 1:
            # a ReLU passes its gradient exactly where its output is positive
            g_out = np.where(feats[li + 1] > 0, g_out, 0.0)
        if li == 0:  # the input images need no gradient
            g_first = g_out.reshape(kout, -1) @ _shift_stack(inputs, rh, rw).T
            grads.append(g_first.reshape(bank.shape))
            break
        flat_in = feat_in.reshape(kin, -1)
        g_bank = np.empty_like(bank)
        g_in = np.zeros_like(flat_in)
        for k in range(kout):
            q = _shift_stack(g_out[k], rh, rw, sign=-1)
            g_bank[k] = (flat_in @ q.T).reshape(kin, rh, rw)
            g_in += bank[k].reshape(kin, -1) @ q
        grads.append(g_bank)
        g_out = g_in.reshape(feat_in.shape)
    grads.reverse()
    return loss, {"first_filters": grads[0][:, 0],
                  "mid_filters": np.reshape(grads[1:-1], mid.shape), "last_filters": grads[-1][0]}


# ---------------------------------------------------------------------------
# adaptive-moment optimizer
# ---------------------------------------------------------------------------

class Adam:
    """Plain adaptive-moment optimizer with the usual decays and epsilon."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: dict[str, np.ndarray]):
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray],
             lrs: dict[str, float]) -> None:
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for key, p in params.items():
            g = grads[key]
            self.m[key] = self.beta1 * self.m[key] + (1.0 - self.beta1) * g
            self.v[key] = self.beta2 * self.v[key] + (1.0 - self.beta2) * (g * g)
            m_hat = self.m[key] / bc1
            v_hat = self.v[key] / bc2
            p -= lrs[key] * m_hat / (np.sqrt(v_hat) + self.eps)


# ---------------------------------------------------------------------------
# training loops
# ---------------------------------------------------------------------------

def _stack_pairs(pairs):
    targets = np.stack([as_f64(t) for t, _ in pairs])
    inputs = np.stack([as_f64(u) for _, u in pairs])
    if targets.shape != inputs.shape:
        raise ShapeError("truth/input stacks must share one shape")
    return targets, inputs


def train_refiner(init, pairs, config: TrainConfig, rng: Optional[np.random.Generator] = None):
    """Fit one refiner to (truth, input) pairs; returns (refiner, loss history).

    The history holds the full-data loss after each epoch.  Mini-batches are
    reshuffled per epoch from the configured seed, so a fixed seed gives
    bit-reproducible parameters.
    """
    targets, inputs = _stack_pairs(pairs)
    n_samples = targets.shape[0]
    if rng is None:
        rng = np.random.default_rng(config.seed)

    if isinstance(init, ScnnRefiner):
        k, rh, rw = init.enc_filters.shape
        # one workspace for the stage, sized for its largest batch
        work = _scnn_workspace(k, rh * rw, min(config.batch_size, n_samples) * inputs[0].size)

        def value_and_grad(bi, bt):
            return scnn_value_and_grad(*params.values(), init.residual, bi, bt, work)
    elif isinstance(init, DcnnRefiner):
        def value_and_grad(bi, bt):
            return dcnn_value_and_grad(*params.values(), bi, bt)
    else:
        raise TypeError(f"cannot train refiner of type {type(init).__name__}")
    params = {name: np.array(value) for name, value in parameters(init).items()}

    opt = Adam(params)
    history: list[float] = []
    for epoch in range(config.epochs):
        lrs = {name: config.lr_at(config.lr_thresholds if name == "log_thresholds"
                                  else config.lr_filters, epoch) for name in params}
        order = rng.permutation(n_samples)
        batch_losses = []
        for start in range(0, n_samples, config.batch_size):
            # batch membership is random; in-batch order is sorted so that the
            # loss reduction has one fixed summation order
            idx = np.sort(order[start:start + config.batch_size])
            loss, grads = value_and_grad(inputs[idx], targets[idx])
            if not math.isfinite(loss):
                raise TrainingAborted(f"non-finite loss at epoch {epoch}", history)
            opt.step(params, grads, lrs)
            batch_losses.append(loss)
        # epoch loss = mean of the pre-update batch losses (one extra pass saved)
        history.append(float(np.mean(batch_losses)))
    return replace(init, **{name: p.copy() for name, p in params.items()}), history


@dataclass(frozen=True)
class RefinerArch:
    """Architecture request for greedy training."""

    kind: str  # "scnn" | "dcnn"
    n_filters: int
    filter_size: int
    n_layers: int = 2
    residual: bool = True

    def __post_init__(self):
        if self.kind not in ("scnn", "dcnn"):
            raise ValueError(f"unknown refiner architecture {self.kind!r}")
        filter_side(self.n_filters, self.filter_size)

    def build(self, rng: np.random.Generator):
        if self.kind == "scnn":
            return ScnnRefiner.init_random(self.n_filters, self.filter_size, rng,
                                           residual=self.residual)
        return DcnnRefiner.init_random(self.n_filters, self.filter_size, self.n_layers, rng)


def greedy_train(samples: Sequence[TrainingSample], arch: RefinerArch,
                 net_config: MomentumNetConfig, train_config: TrainConfig,
                 feasible=None):
    """Iteration-wise training: fit refiner i on the current sample states,
    then advance every sample one solver iteration with it (except after the
    last stage, whose advance nothing would train on).

    Stage 0 starts from fan-in-scaled random filters; later stages warm-start
    from the previous stage's parameters.  Returns (refiners, histories).
    """
    if feasible is None:
        feasible = FeasibleSet.nonneg()
    if net_config.n_iter < 1:
        raise ValueError("greedy training needs n_iter >= 1")
    if len(samples) == 0:
        raise ValueError("need at least one training sample")
    rng = np.random.default_rng(train_config.seed)

    objs = [net_config.objective(s.datafit, feasible) for s in samples]
    xs = xs_prev = _starts(objs, samples[0].truth.shape)
    state = MomentumState()

    refiners = []
    histories = []
    current = arch.build(rng)
    for stage in range(net_config.n_iter):
        pairs = [(s.truth.as_2d(), x) for s, x in zip(samples, xs)]
        stage_rng = np.random.default_rng(rng.integers(0, 2**63 - 1))
        current, history = train_refiner(current, pairs, train_config, rng=stage_rng)
        refiners.append(current)
        histories.append(history)
        if stage + 1 < net_config.n_iter:  # after the last stage nothing trains on it
            _, _, xs_new, state = _advance(objs, xs, xs_prev, state, current, net_config)
            xs_prev, xs = xs, xs_new
    return refiners, histories


# ---------------------------------------------------------------------------
# convolutional-loss vs patch-loss bound
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PatchBoundReport:
    trials: int
    violations: int
    max_gap: float

    @property
    def ok(self) -> bool:
        return self.violations == 0


def _patch_bound_sides(conv_loss_pairs, enc, dec, thr):
    """Both sides of the patch bound for one parameter draw."""
    k, rh, rw = enc.shape
    r = rh * rw
    e_mat = enc.reshape(k, r)
    d_mat = dec[:, ::-1, ::-1].reshape(k, r).T  # flipped decoder taps, (R, K)
    n_pairs = len(conv_loss_pairs)
    left = 0.0
    right = 0.0
    for residual_img, inp in conv_loss_pairs:
        recon = _scnn_forward(enc, dec, thr, inp)
        left += float(np.sum((residual_img - recon / r) ** 2))

        # every overlapping rh x rh patch (circular, stride 1), one per column
        patches = _shift_stack(inp[None], rh, rh)
        target_patches = _shift_stack(residual_img[None], rh, rh)
        codes = soft_threshold(e_mat @ patches, thr[:, None])
        right += float(np.sum((target_patches - d_mat @ codes) ** 2)) / r
    return 0.5 * left / n_pairs, 0.5 * right / n_pairs


def patch_loss_bound_check(refiner: ScnnRefiner, pairs, trials: int,
                           seed: int = 0, slack: float = 1e-10) -> PatchBoundReport:
    """Verify that the convolutional training loss (with the 1/R-scaled,
    non-residual decoder form) never exceeds the all-overlapping-patches loss.

    Each trial redraws filters and thresholds at the refiner's architecture
    size; when `pairs` is None, random (residual, input) images are drawn too.
    Violations are reported, not raised.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    k, rh = refiner.enc_filters.shape[:2]
    if rh % 2 == 0:
        raise ValueError("patch bound check requires odd filter side")
    rng = np.random.default_rng(seed)
    bound = math.sqrt(6.0 / (rh * rh))
    violations = 0
    worst = -math.inf
    for _ in range(trials):
        enc = rng.uniform(-bound, bound, size=(k, rh, rh))
        dec = rng.uniform(-bound, bound, size=(k, rh, rh))
        thr = np.abs(rng.normal(0.0, 0.1, size=k))
        if pairs is None:
            data = [(rng.standard_normal((12, 12)), rng.standard_normal((12, 12)))
                    for _ in range(2)]
        else:
            data = [(as_f64(t), as_f64(u)) for t, u in pairs]
        left, right = _patch_bound_sides(data, enc, dec, thr)
        gap = left - right
        if gap > slack * max(1.0, right):
            violations += 1
        worst = max(worst, gap)
    return PatchBoundReport(trials, violations, worst)
