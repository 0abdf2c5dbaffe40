"""Image-refining networks and their empirical convergence diagnostics.

Three refiner families operate on 2-D images via circular convolution:

* ``ScnnRefiner``   - residual single-hidden-layer convolutional autoencoder
                      with exp-parameterized soft thresholds,
* ``DcnnRefiner``   - residual multi-layer CNN with ReLU feature maps,
* ``TiedCaolRefiner`` - tied encoder/decoder autoencoder whose decoder
                      correlates with the encoder bank (rolls by -o; for an even
                      side that is not the flipped bank); with a tight-frame bank
                      this is the exact proximal update of the sparse prior.

All refiners are immutable value objects; calling one applies the forward map
to an (h, w) image or to each image of a (B, h, w) stack.  Each forward pass is
written once, on stacks (`_scnn_forward`, `_dcnn_forward`), and the training
gradients reuse it, so the trained network is the one that reconstructs.  The
dCNN forward and every training gradient are GEMMs on shift stacks
(`_shift_stack`); the sCNN and tied forward multiply spectra, with `scipy.fft`
transforms on the calling thread, and write the codes into a caller's buffer
when the training gradient asks for them.  It takes the filter banks and forms
their spectra (`filter_fft`) one bank block at a time: the filters whose
spectra fit in `_BLOCK_BYTES`, which run in code blocks of the filters whose
code spectra fit in it.  `filter_fft` builds them from the filters' r nonzero
rows, never from a (K, h, w) embedded stack, with GEMMs small enough that
OpenBLAS runs them on the calling thread, so an sCNN or tied refiner wakes
none of its workers; the shift-stack GEMMs use them.
`solver.run_caol_bpegm` keeps its own tied forward on `numpy.fft` of the
embedded filters (`embed_filters`) on purpose: it is the independent oracle.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np
import scipy.fft

from .linops import ShapeError, _frozen, as_f64
from .prox import soft_threshold

# exp(log_threshold) is floored here so that a requested exact-zero threshold
# still yields a strictly positive shrinkage parameter
THRESHOLD_FLOOR = 1e-12


def _thresholds(log_thr: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """exp(log_thr), and the shrinkage thresholds: exp(log_thr) floored at
    THRESHOLD_FLOOR."""
    raw = np.exp(log_thr)
    return raw, np.maximum(raw, THRESHOLD_FLOOR)


# ---------------------------------------------------------------------------
# circular convolution helpers
# ---------------------------------------------------------------------------

def _bank_shape(filters: np.ndarray) -> tuple[int, int, int]:
    """(K, rh, rw) of a filter stack; an array of any other rank is a ShapeError."""
    if np.ndim(filters) != 3:
        raise ShapeError(f"filters must be a (K, rh, rw) stack, got shape {np.shape(filters)}")
    return np.shape(filters)


def _fit(rh: int, rw: int, shape: tuple[int, int]) -> tuple[int, int]:
    """(h, w) of an image that rh x rw taps fit: the rule of every convolution here."""
    if rh > shape[0] or rw > shape[1]:
        raise ShapeError(f"filters ({rh}, {rw}) larger than image {tuple(shape)}")
    return shape


def embed_filters(filters: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Embed a (K, r, r) filter stack at centered offsets modulo `shape`."""
    k, rh, rw = _bank_shape(filters)
    h, w = _fit(rh, rw, shape)
    out = np.zeros((k, h, w))
    rows = (np.arange(rh) - rh // 2) % h
    cols = (np.arange(rw) - rw // 2) % w
    out[:, rows[:, None], cols[None, :]] = filters
    return out


# The most multiply-adds (rows x rh x spectrum columns) one complex GEMM of
# `filter_fft` may take.  OpenBLAS 0.3.31 ran (100, 5) @ (5, 129), 64,500 of
# them, on the calling thread but woke its worker pool from (104, 5) @ (5, 129)
# on, and a woken worker spins for about 0.1 s on another CPU, where it slows
# the solver's split products.  2^15 stays a factor of two below that switch.
_GEMM_MADDS = 1 << 15


def filter_fft(filters: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """rfft2 of the embedded filter stack, from the filters' rh nonzero rows.

    The filters are embedded along the width only, as a (K, rh, w) band, and
    transformed along it with one `rfft`; the rh-term DFT down the columns is
    a complex matmul with the (h, rh) twiddles exp(-2 pi i ((p y) mod h) / h)
    of the wrapped rows y.  This equals `rfft2(embed_filters(filters, shape))`
    to rounding, and never builds a (K, h, w) stack.  The matmul runs in about
    equal blocks of twiddle rows, each of at most `_GEMM_MADDS` multiply-adds
    (or two rows), so that BLAS keeps it on the calling thread; every output
    entry is the same rh-term sum as in one matmul, with the same bits.
    """
    k, rh, rw = _bank_shape(filters)
    h, w = _fit(rh, rw, shape)
    band = np.zeros((k, rh, w))
    band[:, :, (np.arange(rw) - rw // 2) % w] = filters
    rows = (np.arange(rh) - rh // 2) % h
    # the phase index is reduced mod h in integers, so every angle is exact
    twiddle = np.exp((-2j * np.pi / h) * (np.arange(h)[:, None] * rows % h))
    spec = scipy.fft.rfft(band, axis=-1)
    out = np.empty((k, h, spec.shape[-1]), dtype=spec.dtype)
    # numpy runs a one-row matmul as a gemv, whose sums differ from gemm's in
    # the last bits, so every block keeps two rows at least
    parts = max(1, min(h // 2, math.ceil(h * rh * spec.shape[-1] / _GEMM_MADDS)))
    for i in range(parts):
        block = slice(i * h // parts, (i + 1) * h // parts)
        np.matmul(twiddle[block], spec, out=out[:, block])
    return out


def tf_defect(filters: np.ndarray) -> float:
    """Deviation of the tap-level Gram sum_k h_k h_k^T from I/R.

    Zero defect is equivalent to the tight-frame identity
    sum_k ||h_k conv u||^2 = ||u||^2 under circular convolution.
    """
    v = np.reshape(filters, (_bank_shape(filters)[0], -1))
    r = v.shape[1]
    gram = v.T @ v
    return float(np.max(np.abs(gram - np.eye(r) / r)))


def filter_side(n_filters: int, filter_size: int) -> int:
    """The side r of a bank of n_filters >= 1 square filters of filter_size = r^2
    taps; any other bank is a ValueError naming both settings."""
    r = math.isqrt(max(filter_size, 0))
    if n_filters < 1 or filter_size < 1 or r * r != filter_size:
        raise ValueError(f"a filter bank needs n_filters >= 1 and filter_size a positive perfect "
                         f"square, got n_filters={n_filters}, filter_size={filter_size}")
    return r


def make_tf_filterbank(R: int) -> np.ndarray:
    """Tight-frame bank of K = R filters of size sqrt(R) x sqrt(R).

    The filters are the 2-D separable orthonormal DCT basis scaled by
    1/sqrt(R), so the tap Gram is exactly I/R.
    """
    r = filter_side(R, R)
    n = np.arange(r)
    basis = np.cos(np.pi * (2 * n[None, :] + 1) * n[:, None] / (2 * r))
    basis *= np.sqrt(2.0 / r)
    basis[0] = np.sqrt(1.0 / r)
    filters = np.einsum("ai,bj->abij", basis, basis).reshape(R, r, r)
    return filters / np.sqrt(R)


def _shift_stack(images: np.ndarray, rh: int, rw: int, sign: int = 1,
                 out: np.ndarray | None = None) -> np.ndarray:
    """(rh*rw, B*h*w) stack of the circular shifts of a (B, h, w) image stack.

    Row (i, j) holds x[b, n - sign*o] at the centered offset
    o = (i - rh//2, j - rw//2), the layout of the filter taps, so that
    filters.reshape(K, rh*rw) @ stack convolves (sign +1) or correlates
    (sign -1) every image with every filter.  The stack is written into `out`
    (C-contiguous float64 of that shape) when one is given.
    """
    b, h, w = images.shape
    _fit(rh, rw, (h, w))
    if out is None:
        out = np.empty((rh * rw, b * h * w))
    elif (out.shape != (rh * rw, b * h * w) or out.dtype != np.float64
          or not out.flags.c_contiguous):
        raise ValueError(f"out must be C-contiguous float64 of shape {(rh * rw, b * h * w)}")
    oy = sign * (np.arange(rh) - rh // 2)
    ox = sign * (np.arange(rw) - rw // 2)
    top, left = int(oy.max()), int(ox.max())
    padded = np.pad(images, ((0, 0), (top, -int(oy.min())), (left, -int(ox.min()))),
                    mode="wrap")
    taps = out.reshape(rh, rw, b, h, w)
    for i, dy in enumerate(oy):
        for j, dx in enumerate(ox):
            taps[i, j] = padded[:, top - dy:top - dy + h, left - dx:left - dx + w]
    return out


def _apply_bank(bank: np.ndarray, feats: np.ndarray) -> np.ndarray:
    """sum_c bank[:, c] conv feats[c]: a (Kout, Kin, r, r) bank on (Kin, B, h, w)
    maps, one (R, B*h*w) shift stack per input channel."""
    kout, kin, rh, rw = bank.shape
    out = bank[:, 0].reshape(kout, -1) @ _shift_stack(feats[0], rh, rw)
    for c in range(1, kin):
        out += bank[:, c].reshape(kout, -1) @ _shift_stack(feats[c], rh, rw)
    return out.reshape(kout, *feats.shape[1:])


# The sCNN forward forms its filter spectra in bank blocks of the filters whose
# spectra fit in this many bytes, and runs each bank block in code blocks of the
# filters whose code spectra fit in it.  All 25 filters of a 64x64 image (845 KB
# of spectra) are one bank block, so the momentum path keeps 6 FFTs and 2
# `filter_fft` calls per refiner call, and a (25, 10, 64, 64) training batch
# runs 3 filters per code block; at 256x256 each filter (528 KB) is its own.
_BLOCK_BYTES = 1 << 20


def _scnn_forward(enc: np.ndarray, dec: np.ndarray | None, thresholds: np.ndarray,
                  u: np.ndarray, codes: np.ndarray | None = None) -> np.ndarray:
    """sum_k d_k conv T_thr(e_k conv u) on an image or a (B, h, w) stack, without residual.

    The encoder and decoder come as (K, rh, rw) banks.  Without a decoder bank
    the decoder is the tied one, which correlates with the encoder bank: its
    spectra are conj of the encoder's.  The filter spectra are formed one bank
    block at a time, and each bank block runs in code blocks, in filter order;
    `_BLOCK_BYTES` bounds both.  `filter_fft` of a slice of a bank is that
    slice of the bank's spectra, bit for bit, and the decoded spectra are
    summed sequentially over the filters, so the bits depend on neither block
    size.  Every code block writes its code-spectra product into one buffer of
    the call, and then its codes over the product, unless the caller gives a
    (K, B, h, w) buffer for the thresholded codes; a code is nonzero exactly
    where it passed its threshold.
    """
    shape = u.shape[-2:]
    uhat = scipy.fft.rfft2(u.reshape(-1, *shape), axes=(-2, -1))
    bank_step = max(1, _BLOCK_BYTES // uhat[0].nbytes)
    step = max(1, _BLOCK_BYTES // uhat.nbytes)
    buf = np.empty((min(step, len(enc)), *uhat.shape), dtype=uhat.dtype)
    acc = None
    for first in range(0, len(enc), bank_step):
        bank = slice(first, first + bank_step)
        ehat = filter_fft(enc[bank], shape)
        # correlation with h in the spatial domain is conj(H) in Fourier
        dhat = np.conj(ehat) if dec is None else filter_fft(dec[bank], shape)
        for start in range(0, len(ehat), step):
            n = min(step, len(ehat) - start)
            ks = slice(start, start + n)  # in the bank block
            at = slice(first + start, first + start + n)  # in the whole bank
            code = scipy.fft.irfft2(np.multiply(ehat[ks, None], uhat[None], out=buf[:n]),
                                    s=shape, axes=(-2, -1), overwrite_x=True)
            # the product is spent: its buffer's leading float64 entries take the codes
            out = (buf.reshape(-1).view(np.float64)[:code.size].reshape(code.shape)
                   if codes is None else codes[at])
            hidden = soft_threshold(code, thresholds[at, None, None, None], out=out)
            del code
            hhat = scipy.fft.rfft2(hidden, axes=(-2, -1))
            # complex products are not bitwise commutative; codes-first is the
            # order single-image reconstruction has always used
            hhat *= dhat[ks, None]
            if acc is None:
                # numpy sums axis 0 one filter after another whenever a filter
                # has more than one spectrum entry, as the row-by-row adds below do
                acc = np.sum(hhat, axis=0)
            else:
                for row in hhat:
                    acc += row
            del hhat
    return scipy.fft.irfft2(acc, s=shape, axes=(-2, -1), overwrite_x=True).reshape(u.shape)


def _dcnn_forward(first: np.ndarray, mid: np.ndarray, last: np.ndarray, u: np.ndarray,
                  keep: bool = False):
    """u - last applied to the features, on a (B, h, w) stack, with ReLU between
    the banks [first[:, None], *mid, last[None]].  Returns (output, the input
    maps (Kin, B, h, w) of every bank from u[None] on; without `keep`, the last's).
    """
    feats = [u[None]]
    for bank in [first[:, None], *mid]:
        feat = np.maximum(_apply_bank(bank, feats[-1]), 0.0)
        if not keep:  # the forward alone needs only the current layer
            feats.clear()
        feats.append(feat)
    return u - _apply_bank(last[None], feats[-1])[0], feats


# ---------------------------------------------------------------------------
# refiners
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScnnRefiner:
    """Residual single-hidden-layer convolutional autoencoder.

    Forward map: sum_k d_k conv T_{exp(alpha_k)}(e_k conv u)  (+ u if residual).
    Thresholds are stored as log-values alpha_k and applied as exp(alpha_k),
    which keeps them positive throughout training.
    """

    enc_filters: np.ndarray   # (K, r, r)
    dec_filters: np.ndarray   # (K, r, r)
    log_thresholds: np.ndarray  # (K,)
    residual: bool = True

    def __post_init__(self):
        _freeze_payload(self, "scnn")

    @property
    def thresholds(self) -> np.ndarray:
        return _thresholds(self.log_thresholds)[1]

    def __call__(self, u: np.ndarray) -> np.ndarray:
        u = as_f64(u)
        out = _scnn_forward(self.enc_filters, self.dec_filters, self.thresholds, u)
        return out + u if self.residual else out

    @classmethod
    def init_random(cls, K: int, R: int, rng: np.random.Generator,
                    residual: bool = True) -> "ScnnRefiner":
        """Fan-in-scaled uniform filters, thresholds at 1e-2."""
        r = filter_side(K, R)
        bound = math.sqrt(6.0 / R)
        enc = rng.uniform(-bound, bound, size=(K, r, r))
        dec = rng.uniform(-bound, bound, size=(K, r, r))
        thr = np.full(K, math.log(1e-2))
        return cls(enc, dec, thr, residual)


@dataclass(frozen=True)
class DcnnRefiner:
    """Residual multi-layer CNN: u - sum_k e_k^[L] conv u_k^[L-1].

    Feature maps pass through ReLU between layers; no pooling, no
    normalization layers.  ``mid_filters`` is empty for L = 2.
    """

    first_filters: np.ndarray  # (K, r, r)
    mid_filters: np.ndarray    # (L-2, K, K, r, r)
    last_filters: np.ndarray   # (K, r, r)

    def __post_init__(self):
        _freeze_payload(self, "dcnn")

    @property
    def n_layers(self) -> int:
        return len(self.mid_filters) + 2

    def __call__(self, u: np.ndarray) -> np.ndarray:
        u = as_f64(u)
        return _dcnn_forward(self.first_filters, self.mid_filters, self.last_filters,
                             u.reshape(-1, *u.shape[-2:]))[0].reshape(u.shape)

    @classmethod
    def init_random(cls, K: int, R: int, L: int, rng: np.random.Generator) -> "DcnnRefiner":
        r = filter_side(K, R)
        if L < 2:
            raise ValueError("dCNN needs at least 2 layers")
        b1 = math.sqrt(6.0 / R)
        bm = math.sqrt(6.0 / (K * R))
        first = rng.uniform(-b1, b1, size=(K, r, r))
        mid = rng.uniform(-bm, bm, size=(L - 2, K, K, r, r))
        last = rng.uniform(-bm, bm, size=(K, r, r))
        return cls(first, mid, last)


@dataclass(frozen=True)
class TiedCaolRefiner:
    """Tied autoencoder sum_k h_k corr T_{beta_k}(h_k conv u).

    The decoder correlates with the bank, rolling by -o at each centered tap
    offset o; for an even side the flipped bank's offsets are not -o.  With a
    tight-frame bank and all-zero thresholds this is the identity map; the
    solver's sparse-prior oracle requires the tight-frame flag.
    """

    filters: np.ndarray      # (K, r, r)
    thresholds: np.ndarray   # (K,)
    tight_frame: bool = True

    def __post_init__(self):
        _freeze_payload(self, "tied")
        if np.any(self.thresholds < 0):
            raise ValueError("thresholds must be nonnegative")
        if self.tight_frame and tf_defect(self.filters) > 1e-10:
            raise ValueError("filter bank violates the tight-frame identity")

    def __call__(self, u: np.ndarray) -> np.ndarray:
        return _scnn_forward(self.filters, None, self.thresholds, as_f64(u))


class IdentityRefiner:
    """Refiner that returns its input; the refiner-free baseline."""

    def __call__(self, u: np.ndarray) -> np.ndarray:
        return as_f64(u).copy()


# ---------------------------------------------------------------------------
# empirical diagnostics
# ---------------------------------------------------------------------------

def paired_epsilon(pairs) -> float:
    """Empirical slack of the paired-nonexpansiveness bound over sample pairs.

    Returns max over ((u, r_next(u)), (v, r_prev(v))) of
    max(0, ||r_next(u) - r_prev(v)||^2 - ||u - v||^2).
    """
    if len(pairs) == 0:
        raise ValueError("need at least one (u, v) pair")
    worst = 0.0
    for (u, ru), (v, rv) in pairs:
        u = as_f64(u)
        v = as_f64(v)
        d_out = ru - rv
        gap = float(np.sum(d_out * d_out) - np.sum((u - v) ** 2))
        worst = max(worst, gap)
    return worst


def delta_measure(z_next, z_prev, x) -> float:
    """Empirical slack of the block-coordinate-minimizer bound."""
    z_next = as_f64(z_next)
    z_prev = as_f64(z_prev)
    x = as_f64(x)
    if z_next.shape != z_prev.shape or z_next.shape != x.shape:
        raise ShapeError("delta_measure arguments must share one shape")
    gap = float(np.sum((z_next - x) ** 2) - np.sum((z_prev - x) ** 2))
    return max(gap, 0.0)


def lipschitz_estimate(pairs) -> float:
    """Empirical Lipschitz constant max ||R(u) - R(v)|| / ||u - v|| over ((u, R(u)), (v, R(v)))."""
    if len(pairs) == 0:
        raise ValueError("need at least one (u, v) pair")
    worst = 0.0
    for (u, ru), (v, rv) in pairs:
        u = as_f64(u)
        v = as_f64(v)
        denom = float(np.linalg.norm(u - v))
        if denom == 0.0:
            raise ValueError("coincident sample pair")
        worst = max(worst, float(np.linalg.norm(ru - rv)) / denom)
    return worst


@dataclass(frozen=True)
class NonexpansiveReport:
    passes: bool
    enc_sigma_max: float
    dec_sigma_max: float
    bound: float


def scnn_nonexpansive_sufficient(refiner: ScnnRefiner) -> NonexpansiveReport:
    """Sufficient spectral condition for (asymptotic) non-expansiveness.

    Builds the (K+1)-column matrices [d_1 ... d_K delta] and [e_1 ... e_K delta]
    (delta = Kronecker-delta filter) and compares the top eigenvalue of each
    Gram matrix against 1/R.
    """
    r = refiner.enc_filters.shape[1]
    R = r * r
    delta_col = np.zeros(R)
    delta_col[(r // 2) * r + (r // 2)] = 1.0

    def top_eig(bank: np.ndarray) -> float:
        cols = np.column_stack([bank.reshape(-1, R).T, delta_col])
        return float(np.linalg.eigvalsh(cols.T @ cols)[-1])

    enc_top = top_eig(np.asarray(refiner.enc_filters))
    dec_top = top_eig(np.asarray(refiner.dec_filters))
    bound = 1.0 / R
    return NonexpansiveReport(enc_top <= bound and dec_top <= bound, enc_top, dec_top, bound)


# ---------------------------------------------------------------------------
# serialization (bit-exact round trip)
# ---------------------------------------------------------------------------

_MAGIC = b"MBIRNET-REFINER v1\n"


def parameters(refiner) -> dict[str, np.ndarray]:
    """A refiner's trained parameters: its array-valued dataclass fields, in field order."""
    return {f.name: getattr(refiner, f.name) for f in dataclasses.fields(refiner)
            if isinstance(getattr(refiner, f.name), np.ndarray)}


# tag -> (class, header flag, shapes of `parameters` from K, r, flag), which each class checks
_CONTAINER = {
    "scnn": (ScnnRefiner, "residual", lambda k, r, flag: [(k, r, r), (k, r, r), (k,)]),
    "dcnn": (DcnnRefiner, "n_layers",
             lambda k, r, flag: [(k, r, r), (flag - 2, k, k, r, r), (k, r, r)]),
    "tied": (TiedCaolRefiner, "tight_frame", lambda k, r, flag: [(k, r, r), (k,)]),
}


def _freeze_payload(refiner, tag: str) -> None:
    """Check each field of a refiner other than its header flag against `_CONTAINER[tag]`'s
    shapes for the first field's (K, r, r) bank and the flag, and freeze it."""
    _, flag_name, payload_shapes = _CONTAINER[tag]
    names = [f.name for f in dataclasses.fields(refiner) if f.name != flag_name]
    k, rh, rw = _bank_shape(getattr(refiner, names[0]))
    if rh != rw:  # the container stores one side
        raise ShapeError(f"filters must be square, got {rh}x{rw}")
    shapes = payload_shapes(k, filter_side(k, rh * rw), getattr(refiner, flag_name))
    for name, shape in zip(names, shapes):
        a = as_f64(getattr(refiner, name))
        a = np.ravel(a) if len(shape) == 1 else a  # thresholds: also (K, 1), as a view
        if a.size == 0 == math.prod(shape):  # an empty mid_filters: a two-layer dCNN
            a = np.zeros(shape)
        if a.shape != shape:
            raise ShapeError(f"{name} must have shape {shape}, got {a.shape}")
        object.__setattr__(refiner, name, _frozen(a))


def save_refiner(path, refiner) -> None:
    """Write a refiner to a small versioned binary container: the magic line, the
    line `tag K R flag`, then `parameters(refiner)` as little-endian float64."""
    tag = next((t for t, (cls, _, _) in _CONTAINER.items() if type(refiner) is cls), None)
    if tag is None:  # before the file is opened, so that none is left behind
        raise TypeError(f"cannot serialize refiner of type {type(refiner).__name__}")
    payload = parameters(refiner)
    k, rh, rw = next(iter(payload.values())).shape  # every kind's first array is its bank
    flag = int(getattr(refiner, _CONTAINER[tag][1]))
    with open(path, "wb") as fh:
        fh.write(_MAGIC + f"{tag} {k} {rh * rw} {flag}\n".encode())
        for arr in payload.values():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_refiner(path):
    """Read a refiner written by `save_refiner`; a malformed file is a ValueError naming it."""
    with open(path, "rb") as fh:
        if fh.read(len(_MAGIC)) != _MAGIC:
            raise ValueError(f"{path}: not a refiner container")
        header = fh.readline().decode(errors="replace").split()
        blob = fh.read()
    try:
        tag = header[0] if header else ""
        if tag not in _CONTAINER:
            raise ValueError(f"unknown refiner type tag {tag!r}")
        cls, flag_name, payload_shapes = _CONTAINER[tag]
        try:
            K, R, flag = (int(tok) for tok in header[1:])
            if [str(K), str(R), str(flag)] != header[1:]:  # the only form save_refiner writes
                raise ValueError
        except ValueError:
            raise ValueError(f"{tag} header needs three plain integers, "
                             f"got {' '.join(header[1:])!r}") from None
        r = filter_side(K, R)
        names = [f.name for f in dataclasses.fields(cls)]
        # a flag that is a field is a boolean; a dCNN's is its n_layers >= 2
        if flag not in (0, 1) if flag_name in names else flag < 2:
            raise ValueError(f"invalid {tag} header {' '.join(header)!r}")
        shapes = payload_shapes(K, r, flag)
        sizes = [math.prod(shape) for shape in shapes]
        if len(blob) != 8 * sum(sizes):
            raise ValueError(f"payload is {len(blob)} bytes, its header implies {8 * sum(sizes)}")
        values = np.frombuffer(blob, dtype="<f8").astype(np.float64)
        if not np.all(np.isfinite(values)):
            raise ValueError(f"non-finite {tag} parameters")
        arrays = np.split(values, np.cumsum(sizes)[:-1])
        fields = {name: a.reshape(shape) for name, a, shape in zip(names, arrays, shapes)}
        if flag_name in names:
            fields[flag_name] = bool(flag)
        return cls(**fields)
    except ValueError as exc:  # a bad header, payload, or parameters the class rejects
        raise ValueError(f"{path}: {exc}") from None
