"""Forward and hand-derived backward passes for the network's layer types.

Every operation follows the ``(y, cache) = op(x, ...)`` / ``dx = op_backward(cache, dy)``
convention: the cache carries exactly the intermediates the analytic backward
pass needs and must be consumed by one backward call.  All activations are
rank-4 ``(batch, channel, height, width)`` float64 tensors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

# 3x3 kernels with zero padding of 1 keep the spatial size, which the
# concatenation skip connections rely on.
PAD = 1

# Batch-norm epsilon: added to the variance under the inverse square root.
BN_EPS = 1e-5


@dataclass
class LayerParams:
    """Parameter bundle for one convolution + batch-norm unit.

    Fields not used by a given layer stay None: a plain conv head has no
    batch-norm entries, and a conv followed by a batch norm has no bias.
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

def _tap_windows(x: np.ndarray):
    """Yield (b, windows) for each batch item of `x` [B,C,H,W]: the item is
    copied into the interior of one zeroed flat padded plane xf
    [C, Hp*Wp + 2], and windows[k] is the view of tap (u,v), k = 3u + v.

    Row i, column j of the padded plane sits at xf[:, i*Wp + j], so the
    window of tap (u,v) is the contiguous run xf[:, u*Wp + v:][:, :H*Wp]:
    its column i*Wp + j holds padded pixel (i+u, j+v).  Columns j >= W of
    each window row wrap into the next padded row.  The two-element tail
    lets the last tap's window run past the final padded row.  The pad ring
    is never written, so the plane and its windows serve every item; a
    window is valid only until the next item is yielded.
    """
    B, C, H, W = x.shape
    Hp, Wp = H + 2 * PAD, W + 2 * PAD
    xf = np.zeros((C, Hp * Wp + 2))
    interior = xf[:, :Hp * Wp].reshape(C, Hp, Wp)[:, PAD:PAD + H, PAD:PAD + W]
    windows = [xf[:, u * Wp + v:][:, :H * Wp] for u in range(3) for v in range(3)]
    for b in range(B):
        interior[:] = x[b]
        yield b, windows


def _corr3x3(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """Same-size 3x3 cross-correlation of `x` [B,Cin,H,W] with `taps` [Cout,Cin,3,3].

    Computed per batch item as one GEMM per kernel tap k = 3u + v against
    that tap's window of the flat padded plane xf (`_tap_windows`):

        A[o, i*Wp + j] = sum_{u,v} sum_c taps[o,c,u,v] * xf[c, u*Wp + v + i*Wp + j]
        y[o,i,j]       = A[o, i*Wp + j]   for j < W

    The wrapped columns j >= W are computed and cropped.

    Each output element is the same BLAS dot product over Cin as in a single
    [9*Cout, Cin] x [Cin, Hp*Wp] GEMM, and the taps are summed in the same
    row-major order, so the result is bitwise that of the nine-shift form;
    the working set per GEMM is one [Cout, H*Wp] accumulator instead of the
    [9*Cout, Hp*Wp] product.
    """
    B, C, H, W = x.shape
    O = taps.shape[0]
    Wp = W + 2 * PAD
    # Contiguous [rows, Cin] per tap, as a strided slice would not reach BLAS.
    # numpy sends a one-row product to gemv, whose dot order differs from
    # gemm's, so a zero second row keeps Cout = 1 on gemm too.
    rows = max(O, 2)
    tap_mats = np.zeros((9, rows, C))
    tap_mats[:, :O] = taps.transpose(2, 3, 0, 1).reshape(9, O, C)
    acc = np.empty((rows, H * Wp))
    part = np.empty((rows, H * Wp))
    y = np.empty((B, O, H, W))
    for b, windows in _tap_windows(x):
        np.matmul(tap_mats[0], windows[0], out=acc)
        for k in range(1, 9):
            np.matmul(tap_mats[k], windows[k], out=part)
            acc += part
        y[b] = acc[:O].reshape(O, H, Wp)[:, :, :W]
    return y


def _corr3x3_one_channel(x: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """`_corr3x3` for a one-channel `x` [B,1,H,W]: per batch item, the first
    W columns of each window row (`_tap_windows`) are unfolded into cols
    [9, H*W] (im2col), and y[b] = taps [Cout, 9] @ cols is one GEMM.

    With Cin = 1 every per-tap GEMM of `_corr3x3` is an outer product, so
    the unfold replaces nine thin GEMMs and eight accumulations by one
    product with a dot of length 9; each output element is the same sum of
    nine products, rounded in BLAS order rather than tap order.
    """
    B, _, H, W = x.shape
    O = taps.shape[0]
    Wp = W + 2 * PAD
    cols = np.empty((9, H, W))
    w = taps.reshape(O, 9)
    y = np.empty((B, O, H, W))
    for b, windows in _tap_windows(x):
        for k, window in enumerate(windows):
            cols[k] = window.reshape(H, Wp)[:, :W]
        np.matmul(w, cols.reshape(9, H * W), out=y[b].reshape(O, H * W))
    return y


def conv2d(x: np.ndarray, p: LayerParams):
    """3x3 "same" convolution: y[b,o,i,j] = bias[o] + sum_{c,u,v} W[o,c,u,v]*xpad[b,c,i+u,j+v],
    with no bias term when `p.bias` is None."""
    w, bias = p.weights, p.bias
    if x.ndim != 4:
        raise ValidationError(f"expected rank-4 input, got shape {x.shape}")
    if x.shape[1] != w.shape[1]:
        raise ValidationError(f"input has {x.shape[1]} channels but kernel expects {w.shape[1]}")
    y = _corr3x3_one_channel(x, w) if x.shape[1] == 1 else _corr3x3(x, w)
    if bias is not None:
        y += bias[None, :, None, None]
    return y, (x, w)


def conv2d_backward(cache, dy: np.ndarray, need_dx: bool = True):
    """Gradients of conv2d with respect to input, weights, and bias.

    dx is the correlation of dy with the spatially flipped, channel-transposed
    kernel.  dW is formed per batch item and per tap k = 3u + v: the dy
    plane, zero-padded to the padded row width Wp and flattened to
    [Cout, H*Wp], times the transposed window of tap k of the input
    (`_tap_windows`), whose wrapped columns meet the zero pad of dy.  With
    `need_dx` false, dx is None and its correlation is skipped (the network
    input needs no gradient).
    """
    x, w = cache
    _, C, H, W = x.shape
    O = w.shape[0]
    Wp = W + 2 * PAD

    dx = _corr3x3(dy, w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)) if need_dx else None
    db = dy.sum(axis=(0, 2, 3))

    dyp = np.zeros((O, H, Wp))
    dy_plane = dyp[:, :, :W]
    dy_flat = dyp.reshape(O, H * Wp)
    dw_mat = np.zeros((9, O, C))
    part = np.empty((O, C))
    for b, windows in _tap_windows(x):
        dy_plane[:] = dy[b]
        for k, window in enumerate(windows):
            np.matmul(dy_flat, window.T, out=part)
            dw_mat[k] += part
    dw = dw_mat.reshape(3, 3, O, C).transpose(2, 3, 0, 1)
    return dx, dw, db


# ---------------------------------------------------------------------------
# Batch normalization
# ---------------------------------------------------------------------------

def batchnorm(x: np.ndarray, p: LayerParams):
    """Train-mode per-channel batch normalization over the (batch, height,
    width) axes.

    Normalizes with the biased batch statistics, scales by gamma and shifts
    by beta, and folds the batch statistics into the running averages:
    running <- (1 - momentum)*running + momentum*batch.  It applies
    gamma*ivar as one per-channel scale to the centred input xc = x - mean,
    which is what the cache keeps.  Inference uses `fold_batchnorm` instead.
    """
    m = x.shape[0] * x.shape[2] * x.shape[3]
    if m < 2:
        raise ValidationError(f"batch-norm needs >= 2 values per channel, got {m}")
    mean = x.mean(axis=(0, 2, 3))
    xc = x - mean[None, :, None, None]
    var = np.einsum("bchw,bchw->c", xc, xc) / m
    ivar = 1.0 / np.sqrt(var + BN_EPS)
    y = xc * (p.bn_gamma * ivar)[None, :, None, None]
    y += p.bn_beta[None, :, None, None]
    p.bn_running_mean = (1.0 - p.bn_momentum) * p.bn_running_mean + p.bn_momentum * mean
    p.bn_running_var = (1.0 - p.bn_momentum) * p.bn_running_var + p.bn_momentum * var
    return y, (xc, ivar, p.bn_gamma, m)


def fold_batchnorm(p: LayerParams) -> LayerParams:
    """The conv of unit `p` followed by its inference batch norm, as one conv.

    With the running statistics, batch norm is the per-channel affine map
    y = s*(z - running_mean) + beta, s = gamma/sqrt(running_var + eps), of
    the bias-free conv output z = W*x, so it equals the conv with weights
    W*s and bias beta - running_mean*s.  Built afresh on every call, since
    training and checkpoint loading change `p` in place; the result differs
    from the unfolded evaluation by rounding only.
    """
    s = p.bn_gamma * (1.0 / np.sqrt(p.bn_running_var + BN_EPS))
    return LayerParams(weights=p.weights * s[:, None, None, None],
                       bias=p.bn_beta - p.bn_running_mean * s)


def batchnorm_backward(cache, dy: np.ndarray):
    """Full analytic batch-norm gradient, including the dependence of the
    batch mean and variance on the input.  With xhat = xc*ivar,

        dx = gamma*ivar/M * (M*dy - sum(dy) - xhat*sum(dy*xhat))

    and the sums taken per channel over (batch, height, width).  With
    k = gamma*ivar per channel it is applied as one scale of dy, one of xc
    and one shift: dx = k*dy - (k*ivar*dgamma/M)*xc - k*dbeta/M.
    """
    xc, ivar, gamma, m = cache
    dbeta = np.einsum("bchw->c", dy)
    dgamma = np.einsum("bchw,bchw->c", dy, xc) * ivar
    k = gamma * ivar
    dx = dy * k[None, :, None, None]
    dx += xc * (-k * ivar * dgamma / m)[None, :, None, None]
    dx += (-k * dbeta / m)[None, :, None, None]
    return dx, dgamma, dbeta


# ---------------------------------------------------------------------------
# ReLU
# ---------------------------------------------------------------------------

def _keep(mask: np.ndarray, a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The select `where(mask, a, 0.0)` bit for bit, written to `out` if
    given: the float64 bits of `a` ANDed with all ones where `mask` holds
    and with all zeros (+0.0) elsewhere; numpy's `where` is several times
    slower on float64."""
    bits = mask.astype(np.uint64)
    np.negative(bits, out=bits)         # 1 -> all ones
    if out is None:
        out = bits.view(np.float64)
    np.bitwise_and(a.view(np.uint64), bits, out=out.view(np.uint64))
    return out


def relu(x: np.ndarray):
    """y = max(x, 0), with +0.0 for a NaN or a -0.0; the gradient at exactly
    0 is defined as 0.  The cache is the mask x > 0."""
    mask = x > 0
    y = np.fmax(x, 0.0)
    y += 0.0        # fmax passes some -0.0 through, by position in the array
    return y, mask


def relu_backward(cache, dy: np.ndarray):
    return _keep(cache, dy)


# ---------------------------------------------------------------------------
# 2x2 max pooling
# ---------------------------------------------------------------------------

# 2x2 window positions (u, v) in row-major order, indexed 0..3.
_WINDOW = ((0, 0), (0, 1), (1, 0), (1, 1))


def maxpool2(x: np.ndarray, need_index: bool = True):
    """2x2 max pooling with stride 2: the maximum of the four strided views
    x[:, :, u::2, v::2].

    Ties resolve to the first maximum in row-major window order, and a
    window holding a NaN to its first NaN, which is `argmax`'s rule.  The
    cache is that window index as uint8, so the backward routes without
    holding `x`.  With `need_index` false the cache is None and the index
    is not built (inference has no backward).
    """
    H, W = x.shape[2:]
    if H % 2 or W % 2:
        raise ValidationError(f"maxpool2 needs even spatial dims, got {H}x{W}")
    views = [x[:, :, u::2, v::2] for u, v in _WINDOW]
    y = np.maximum(views[0], views[1])
    np.maximum(y, views[2], out=y)
    np.maximum(y, views[3], out=y)
    if not need_index:
        return y, None
    # Position k misses (m_k = 1) when it is neither the maximum nor a NaN;
    # the index of the first that does not is m0*(1 + m1*(1 + m2)), built
    # from the inside out in uint8.
    idx = np.zeros(y.shape, dtype=np.uint8)
    for v in views[2::-1]:
        idx += 1
        idx *= (v != y) & (v == v)
    return y, idx


def maxpool2_backward(cache, dy: np.ndarray):
    idx = cache
    B, C, h, w = idx.shape
    dx = np.empty((B, C, 2 * h, 2 * w))
    for k, (u, v) in enumerate(_WINDOW):
        _keep(idx == k, dy, out=dx[:, :, u::2, v::2])
    return dx


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
    """Per-pixel softmax over axis 1, shifted by the per-pixel max for
    stability; one activation-sized array, exponentiated and normalized in
    place."""
    p = x - x.max(axis=1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=1, keepdims=True)
    return p, p


def softmax_backward(cache, dp: np.ndarray):
    """Apply the softmax Jacobian per pixel: dx = p * (dp - sum_l p_l*dp_l)."""
    p = cache
    return p * (dp - (p * dp).sum(axis=1, keepdims=True))
