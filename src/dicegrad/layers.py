"""Forward and hand-derived backward passes for the network's layer types.

Every operation follows the ``(y, cache) = op(x, ...)`` / ``dx = op_backward(cache, dy)``
convention: the cache carries exactly the intermediates the analytic backward
pass needs and must be consumed by one backward call.  All activations are
rank-4 ``(batch, channel, height, width)`` float64 tensors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SizeError, StateError

# 3x3 kernels with zero padding of 1 keep the spatial size, which the
# concatenation skip connections rely on.
KERNEL = 3
PAD = 1

# Batch-norm epsilon: added to the variance under the inverse square root.
BN_EPS = 1e-5


@dataclass
class LayerParams:
    """Parameter bundle for one convolution + batch-norm unit.

    Fields not used by a given layer stay None (e.g. a plain conv head has
    no batch-norm entries).
    """

    weights: np.ndarray | None = None        # [out_ch, in_ch, 3, 3]
    bias: np.ndarray | None = None           # [out_ch]
    bn_gamma: np.ndarray | None = None       # [channels]
    bn_beta: np.ndarray | None = None
    bn_running_mean: np.ndarray | None = None
    bn_running_var: np.ndarray | None = None
    bn_momentum: float = 0.1


# ---------------------------------------------------------------------------
# 3x3 convolution
# ---------------------------------------------------------------------------

def _corr3x3(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Same-size 3x3 cross-correlation of `x` [B,Cin,H,W] with `taps` [Cout,Cin,3,3].

    Computed per batch item as one GEMM per kernel tap (u,v) against a
    shifted window of the flattened, zero-padded plane xf [Cin, Hp*Wp + 2]:

        A[o, i*Wp + j] = sum_{u,v} sum_c taps[o,c,u,v] * xf[c, u*Wp + v + i*Wp + j]
        y[o,i,j]       = A[o, i*Wp + j]   for j < W

    Because a row of the window is Wp wide, output columns j >= W wrap into
    the next padded row; they are computed and cropped.  The two-element
    tail lets the last tap's window run past the final padded row.

    Each output element is the same BLAS dot product over Cin as in a single
    [9*Cout, Cin] x [Cin, Hp*Wp] GEMM, and the taps are summed in the same
    row-major order, so the result is bitwise that of the nine-shift form;
    the working set per GEMM is one [Cout, H*Wp] accumulator instead of the
    [9*Cout, Hp*Wp] product.
    """
    B, C, H, W = x.shape
    O = taps.shape[0]
    Hp, Wp = H + 2 * PAD, W + 2 * PAD
    n = H * Wp
    # Contiguous [rows, Cin] per tap, as a strided slice would not reach BLAS.
    # numpy sends a one-row product to gemv, whose dot order differs from
    # gemm's, so a zero second row keeps Cout = 1 on gemm too.
    rows = max(O, 2)
    tap_mats = np.zeros((3, 3, rows, C))
    tap_mats[:, :, :O] = taps.transpose(2, 3, 0, 1)
    xf = np.zeros((C, Hp * Wp + 2))
    interior = xf[:, :Hp * Wp].reshape(C, Hp, Wp)[:, PAD:PAD + H, PAD:PAD + W]
    acc = np.empty((rows, n))
    part = np.empty((rows, n))
    y = np.empty((B, O, H, W))
    for b in range(B):
        interior[:] = x[b]
        np.matmul(tap_mats[0, 0], xf[:, :n], out=acc)
        for u in range(3):
            for v in range(3):
                if u or v:
                    off = u * Wp + v
                    np.matmul(tap_mats[u, v], xf[:, off:off + n], out=part)
                    acc += part
        y[b] = acc[:O].reshape(O, H, Wp)[:, :, :W]
    return y


def conv2d(x: np.ndarray, p: LayerParams):
    """3x3 "same" convolution: y[b,o,i,j] = bias[o] + sum_{c,u,v} W[o,c,u,v]*xpad[b,c,i+u,j+v]."""
    w, bias = p.weights, p.bias
    if x.ndim != 4:
        raise SizeError(f"expected rank-4 input, got shape {x.shape}")
    if x.shape[1] != w.shape[1]:
        raise SizeError(f"input has {x.shape[1]} channels but kernel expects {w.shape[1]}")
    y = _corr3x3(x, w)
    y += bias[None, :, None, None]
    return y, (x, w)


def conv2d_backward(cache, dy: np.ndarray, need_dx: bool = True):
    """Gradients of conv2d with respect to input, weights, and bias.

    dx is the correlation of dy with the spatially flipped, channel-transposed
    kernel; dW accumulates, per tap (u,v), the inner product of dy with the
    correspondingly shifted padded input.  With `need_dx` false, dx is None
    and its correlation is skipped (the network input needs no gradient).
    """
    x, w = cache
    B, C, H, W = x.shape
    O = w.shape[0]
    Hp, Wp = H + 2 * PAD, W + 2 * PAD

    dx = _corr3x3(dy, w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)) if need_dx else None
    db = dy.sum(axis=(0, 2, 3))

    xpad = np.pad(x, ((0, 0), (0, 0), (PAD, PAD), (PAD, PAD)))
    dw_mat = np.zeros((9 * O, C))
    # The pad ring of each (u,v) pane is never written, so zero it once and
    # let the interior be overwritten per batch item.
    buf = np.zeros((3, 3, O, Hp, Wp))
    for b in range(B):
        dyb = dy[b]
        for u in range(3):
            for v in range(3):
                buf[u, v, :, u:u + H, v:v + W] = dyb
        dw_mat += buf.reshape(9 * O, Hp * Wp) @ xpad[b].reshape(C, Hp * Wp).T
    dw = dw_mat.reshape(3, 3, O, C).transpose(2, 3, 0, 1)
    return dx, dw, db


# ---------------------------------------------------------------------------
# Batch normalization
# ---------------------------------------------------------------------------

def batchnorm(x: np.ndarray, p: LayerParams, mode: str):
    """Per-channel batch normalization over the (batch, height, width) axes.

    Train mode normalizes with the biased batch statistics, scales by gamma
    and shifts by beta, and folds the batch statistics into the running
    averages: running <- (1 - momentum)*running + momentum*batch.  Eval mode
    normalizes with the stored running statistics (initialized to mean 0,
    var 1, so eval before any update is well defined).
    """
    if mode == "train":
        m = x.shape[0] * x.shape[2] * x.shape[3]
        if m < 2:
            raise SizeError(f"batch-norm needs >= 2 values per channel, got {m}")
        mean = x.mean(axis=(0, 2, 3))
        xhat = x - mean[None, :, None, None]
        y = np.square(xhat)
        # The same squares, sum and division as np.var: bitwise its result.
        var = y.sum(axis=(0, 2, 3)) / m
        ivar = 1.0 / np.sqrt(var + BN_EPS)
        xhat *= ivar[None, :, None, None]
        np.multiply(p.bn_gamma[None, :, None, None], xhat, out=y)
        y += p.bn_beta[None, :, None, None]
        p.bn_running_mean = (1.0 - p.bn_momentum) * p.bn_running_mean + p.bn_momentum * mean
        p.bn_running_var = (1.0 - p.bn_momentum) * p.bn_running_var + p.bn_momentum * var
        return y, (xhat, ivar, p.bn_gamma, m)
    if mode == "eval":
        ivar = 1.0 / np.sqrt(p.bn_running_var + BN_EPS)
        y = x - p.bn_running_mean[None, :, None, None]
        y *= ivar[None, :, None, None]
        y *= p.bn_gamma[None, :, None, None]
        y += p.bn_beta[None, :, None, None]
        return y, None
    raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")


def batchnorm_backward(cache, dy: np.ndarray):
    """Full analytic batch-norm gradient, including the dependence of the
    batch mean and variance on the input:

        dx = gamma*ivar/M * (M*dy - sum(dy) - xhat*sum(dy*xhat))

    with the sums taken per channel over (batch, height, width).
    """
    if cache is None:
        raise StateError("batchnorm_backward requires a train-mode cache")
    xhat, ivar, gamma, m = cache
    dbeta = dy.sum(axis=(0, 2, 3))
    t = dy * xhat
    dgamma = t.sum(axis=(0, 2, 3))
    np.multiply(xhat, dgamma[None, :, None, None], out=t)
    dx = m * dy
    dx -= dbeta[None, :, None, None]
    dx -= t
    dx *= (gamma * ivar / m)[None, :, None, None]
    return dx, dgamma, dbeta


# ---------------------------------------------------------------------------
# ReLU
# ---------------------------------------------------------------------------

def relu(x: np.ndarray):
    """y = max(x, 0); the gradient at exactly 0 is defined as 0."""
    mask = x > 0
    return np.where(mask, x, 0.0), mask


def relu_backward(cache, dy: np.ndarray):
    return np.where(cache, dy, 0.0)


# ---------------------------------------------------------------------------
# 2x2 max pooling
# ---------------------------------------------------------------------------

def maxpool2(x: np.ndarray):
    """2x2 max pooling with stride 2.

    Ties resolve to the first maximum in row-major window order, which is
    what the backward pass routes the gradient to.
    """
    B, C, H, W = x.shape
    if H % 2 or W % 2:
        raise SizeError(f"maxpool2 needs even spatial dims, got {H}x{W}")
    win = x.reshape(B, C, H // 2, 2, W // 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(
        B, C, H // 2, W // 2, 4
    )
    idx = win.argmax(axis=-1)
    y = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]
    return y, (idx, (B, C, H, W))


def maxpool2_backward(cache, dy: np.ndarray):
    idx, (B, C, H, W) = cache
    dwin = np.zeros((B, C, H // 2, W // 2, 4))
    np.put_along_axis(dwin, idx[..., None], dy[..., None], axis=-1)
    return dwin.reshape(B, C, H // 2, W // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(
        B, C, H, W
    )


# ---------------------------------------------------------------------------
# Bilinear 2x upsampling
# ---------------------------------------------------------------------------

_interp_cache: dict[int, np.ndarray] = {}


def _interp_matrix(n: int) -> np.ndarray:
    """Row-interpolation matrix [2n, n] for 2x upsampling.

    Output pixel centers sit at (i + 0.5)/2 - 0.5 in input coordinates
    (half-pixel alignment); coordinates outside the grid clamp to the edge,
    so constant inputs are reproduced exactly.
    """
    r = _interp_cache.get(n)
    if r is None:
        r = np.zeros((2 * n, n))
        for i in range(2 * n):
            c = min(max((i + 0.5) / 2.0 - 0.5, 0.0), n - 1.0)
            i0 = int(np.floor(c))
            f = c - i0
            r[i, i0] += 1.0 - f
            if f > 0.0:
                r[i, min(i0 + 1, n - 1)] += f
        _interp_cache[n] = r
    return r


def bilinear_up2(x: np.ndarray):
    """Upsample H x W to 2H x 2W; separable, so y = R_H @ x @ R_W^T per channel."""
    B, C, H, W = x.shape
    rh, rw = _interp_matrix(H), _interp_matrix(W)
    y = np.matmul(np.matmul(rh, x), rw.T)
    return y, (H, W)


def bilinear_up2_backward(cache, dy: np.ndarray):
    # Exact transpose of the forward linear map.
    H, W = cache
    rh, rw = _interp_matrix(H), _interp_matrix(W)
    return np.matmul(np.matmul(rh.T, dy), rw)


# ---------------------------------------------------------------------------
# Softmax over the channel (label) axis
# ---------------------------------------------------------------------------

def softmax(x: np.ndarray):
    """Per-pixel softmax over axis 1, shifted by the per-pixel max for stability."""
    e = np.exp(x - x.max(axis=1, keepdims=True))
    p = e / e.sum(axis=1, keepdims=True)
    return p, p


def softmax_backward(cache, dp: np.ndarray):
    """Apply the softmax Jacobian per pixel: dx = p * (dp - sum_l p_l*dp_l)."""
    p = cache
    return p * (dp - (p * dp).sum(axis=1, keepdims=True))
