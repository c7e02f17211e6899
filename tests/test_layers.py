"""Layer kernels against naive scalar-loop oracles, finite differences, and
bitwise against the reference kernels they replaced."""

import types

import numpy as np
import pytest

from dicegrad import gradcheck, layers
from dicegrad.errors import ValidationError
from dicegrad.tensor_core import Rng


def naive_conv3x3(x, w, b):
    """Direct 6-loop definition of same-padded 3x3 cross-correlation."""
    B, C, H, W = x.shape
    O = w.shape[0]
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    y = np.zeros((B, O, H, W))
    for bi in range(B):
        for o in range(O):
            for i in range(H):
                for j in range(W):
                    acc = b[o]
                    for c in range(C):
                        for u in range(3):
                            for v in range(3):
                                acc += w[o, c, u, v] * xp[bi, c, i + u, j + v]
                    y[bi, o, i, j] = acc
    return y


def _conv_params(rng, cin, cout):
    return layers.LayerParams(weights=rng.normal((cout, cin, 3, 3)),
                              bias=rng.normal((cout,)))


def test_conv_matches_naive_oracle():
    rng = Rng(11)
    x = rng.normal((2, 3, 5, 6))
    p = _conv_params(rng.child(1), 3, 4)
    y, _ = layers.conv2d(x, p)
    assert np.allclose(y, naive_conv3x3(x, p.weights, p.bias), atol=1e-12)
    p.bias = None                      # a conv in front of a batch norm
    y, _ = layers.conv2d(x, p)
    assert np.allclose(y, naive_conv3x3(x, p.weights, np.zeros(4)), atol=1e-12)


def test_conv_identity_kernel():
    rng = Rng(12)
    x = rng.normal((1, 2, 6, 6))
    w = np.zeros((2, 2, 3, 3))
    w[0, 0, 1, 1] = 1.0
    w[1, 1, 1, 1] = 1.0
    y, _ = layers.conv2d(x, layers.LayerParams(weights=w, bias=np.zeros(2)))
    assert np.allclose(y, x, atol=1e-14)


def test_conv_shape_checks():
    p = _conv_params(Rng(0), 3, 2)
    with pytest.raises(ValidationError):
        layers.conv2d(np.zeros((2, 4, 5, 5)), p)        # channel mismatch
    with pytest.raises(ValidationError):
        layers.conv2d(np.zeros((4, 5, 5)), p)           # wrong rank


def test_conv_gradients():
    res = gradcheck.check_conv()
    assert all(err < 1e-6 for err in res.values()), res


def test_batchnorm_train_normalizes():
    rng = Rng(21)
    x = rng.normal((6, 3, 7, 7), mean=3.0, std=2.0)
    p = layers.LayerParams(bn_gamma=np.ones(3), bn_beta=np.zeros(3),
                           bn_running_mean=np.zeros(3), bn_running_var=np.ones(3))
    y, _ = layers.batchnorm(x, p)
    assert np.allclose(y.mean(axis=(0, 2, 3)), 0.0, atol=1e-10)
    assert np.allclose(y.var(axis=(0, 2, 3)), 1.0, atol=1e-6)


def test_batchnorm_running_stats_update():
    rng = Rng(22)
    x = rng.normal((4, 2, 5, 5), mean=1.0)
    p = layers.LayerParams(bn_gamma=np.ones(2), bn_beta=np.zeros(2),
                           bn_running_mean=np.zeros(2), bn_running_var=np.ones(2),
                           bn_momentum=0.1)
    batch_mean = x.mean(axis=(0, 2, 3))
    batch_var = x.var(axis=(0, 2, 3))
    layers.batchnorm(x, p)
    assert np.allclose(p.bn_running_mean, 0.1 * batch_mean, atol=1e-12)
    assert np.allclose(p.bn_running_var, 0.9 + 0.1 * batch_var, atol=1e-12)


def _bn_params(rng, c):
    return layers.LayerParams(bn_gamma=rng.child(2).normal((c,)), bn_beta=rng.child(3).normal((c,)),
                              bn_running_mean=np.zeros(c), bn_running_var=np.ones(c))


def test_batchnorm_cancels_a_per_channel_shift():
    # Why a unit's conv needs no bias: adding a constant to a channel moves
    # its batch mean by that constant, so the output and the variance stay.
    rng = Rng(24)
    x = rng.child(0).normal((4, 3, 6, 5), mean=0.5, std=2.0)
    shift = rng.child(1).normal((3,), std=3.0)
    p, shifted = _bn_params(rng, 3), _bn_params(rng, 3)
    y, _ = layers.batchnorm(x, p)
    y_shifted, _ = layers.batchnorm(x + shift[None, :, None, None], shifted)
    assert np.max(np.abs(y_shifted - y)) <= 1e-12
    assert np.max(np.abs(shifted.bn_running_var - p.bn_running_var)) <= 1e-12


@pytest.mark.parametrize("shape", [(4, 3, 6, 5), (8, 9, 64, 64)])
def test_batchnorm_dx_sums_to_zero_per_channel(shape):
    # The per-channel sum of dx is the gradient a conv bias in front of the
    # batch norm would receive: zero, up to rounding.
    rng = Rng(25)
    x = rng.child(0).normal(shape, mean=0.5, std=2.0)
    dy = rng.child(1).normal(shape)
    _, cache = layers.batchnorm(x, _bn_params(rng, shape[1]))
    dx, _, _ = layers.batchnorm_backward(cache, dy)
    sums = dx.sum(axis=(0, 2, 3))
    assert np.all(np.abs(sums) <= 1e-12 * np.abs(dx).sum(axis=(0, 2, 3)))


def test_batchnorm_eval_uses_running_stats():
    # Inference batch norm is folded into the conv before it; behind an
    # identity kernel and a zero bias the folded conv is the batch norm alone.
    rng = Rng(23)
    x = rng.normal((2, 2, 4, 4))
    w = np.zeros((2, 2, 3, 3))
    w[0, 0, 1, 1] = w[1, 1, 1, 1] = 1.0
    p = layers.LayerParams(weights=w, bias=np.zeros(2),
                           bn_gamma=np.full(2, 2.0), bn_beta=np.full(2, 0.5),
                           bn_running_mean=np.array([1.0, -1.0]),
                           bn_running_var=np.array([4.0, 0.25]))
    y, _ = layers.conv2d(x, layers.fold_batchnorm(p))
    want = 2.0 * (x - p.bn_running_mean[None, :, None, None]) / np.sqrt(
        p.bn_running_var[None, :, None, None] + layers.BN_EPS) + 0.5
    assert np.allclose(y, want, atol=1e-12)


def test_batchnorm_gradients():
    res = gradcheck.check_batchnorm()
    assert all(err < 1e-5 for err in res.values()), res


def test_relu_forward_and_zero_gradient_at_zero():
    x = np.array([[-1.0, 0.0, 2.0]])
    y, cache = layers.relu(x)
    assert y.tolist() == [[0.0, 0.0, 2.0]]
    dx = layers.relu_backward(cache, np.ones_like(x))
    assert dx.tolist() == [[0.0, 0.0, 1.0]]


def test_maxpool_values_and_tie_break():
    x = np.zeros((1, 1, 2, 4))
    x[0, 0] = [[5.0, 5.0, 1.0, 2.0],
               [5.0, 5.0, 4.0, 3.0]]
    y, cache = layers.maxpool2(x)
    assert y[0, 0].tolist() == [[5.0, 4.0]]
    dx = layers.maxpool2_backward(cache, np.ones_like(y))
    # the 4-way tie routes all gradient to the first window position
    assert dx[0, 0].tolist() == [[1.0, 0.0, 0.0, 0.0],
                                 [0.0, 0.0, 1.0, 0.0]]


def test_maxpool_requires_even_dims():
    with pytest.raises(ValidationError):
        layers.maxpool2(np.zeros((1, 1, 3, 4)))


def test_maxpool_gradients():
    res = gradcheck.check_maxpool()
    assert all(err < 1e-6 for err in res.values()), res


def test_bilinear_constant_preserved():
    x = np.full((1, 1, 4, 4), 3.25)
    y, _ = layers.bilinear_up2(x)
    assert y.shape == (1, 1, 8, 8)
    assert np.allclose(y, 3.25, atol=1e-14)


def test_bilinear_is_linear_map():
    rng = Rng(31)
    a = rng.normal((2, 3, 4, 5))
    b = rng.normal((2, 3, 4, 5))
    ya, _ = layers.bilinear_up2(a)
    yb, _ = layers.bilinear_up2(b)
    yab, _ = layers.bilinear_up2(2.0 * a - 0.5 * b)
    assert np.allclose(yab, 2.0 * ya - 0.5 * yb, atol=1e-12)


def test_bilinear_backward_is_adjoint():
    # <up(x), g> == <x, up_backward(g)> for random pairs: the backward pass
    # is exactly the transpose of the forward linear map.
    rng = Rng(32)
    x = rng.normal((1, 2, 5, 6))
    g = rng.child(1).normal((1, 2, 10, 12))
    y, cache = layers.bilinear_up2(x)
    xt = layers.bilinear_up2_backward(cache, g)
    assert abs(float((y * g).sum()) - float((x * xt).sum())) < 1e-10


def test_bilinear_gradients():
    res = gradcheck.check_bilinear()
    assert all(err < 1e-6 for err in res.values()), res


def test_softmax_properties():
    rng = Rng(41)
    x = rng.normal((2, 5, 3, 3), std=3.0)
    p, _ = layers.softmax(x)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert p.min() > 0
    p_shift, _ = layers.softmax(x + 7.5)      # per-pixel constant shift
    assert np.allclose(p, p_shift, atol=1e-12)


def test_softmax_extreme_logits_stable():
    x = np.zeros((1, 3, 1, 1))
    x[0, :, 0, 0] = [800.0, -800.0, 0.0]
    p, _ = layers.softmax(x)
    assert np.isfinite(p).all()
    assert abs(p[0, 0, 0, 0] - 1.0) < 1e-12


def test_softmax_gradients():
    res = gradcheck.check_softmax()
    assert all(err < 1e-6 for err in res.values()), res


# ---------------------------------------------------------------------------
# Regression against the nine-shift conv, the temporary-heavy batch norm and
# the argmax max-pool: bitwise where the arithmetic is the same, within
# REL_TOL where the kernel rounds in another order
# ---------------------------------------------------------------------------

def nine_shift_corr3x3(x, taps):
    """Reference correlation: one [9*Cout, Cin] GEMM per batch item against
    the padded input, then nine shifted accumulations in row-major tap order."""
    B, C, H, W = x.shape
    O = taps.shape[0]
    Hp, Wp = H + 2, W + 2
    xpad = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    taps_mat = np.ascontiguousarray(taps.transpose(2, 3, 0, 1)).reshape(9 * O, C)
    y = np.empty((B, O, H, W))
    for b in range(B):
        p = (taps_mat @ xpad[b].reshape(C, Hp * Wp)).reshape(3, 3, O, Hp, Wp)
        yb = y[b]
        yb[:] = p[0, 0, :, 0:H, 0:W]
        for u in range(3):
            for v in range(3):
                if u or v:
                    yb += p[u, v, :, u:u + H, v:v + W]
    return y


def reference_conv_backward(x, w, dy):
    B, C, H, W = x.shape
    O = w.shape[0]
    dx = nine_shift_corr3x3(dy, w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
    xpad = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    dw_mat = np.zeros((9 * O, C))
    buf = np.zeros((3, 3, O, H + 2, W + 2))
    for b in range(B):
        for u in range(3):
            for v in range(3):
                buf[u, v, :, u:u + H, v:v + W] = dy[b]
        dw_mat += buf.reshape(9 * O, -1) @ xpad[b].reshape(C, -1).T
    return dx, dw_mat.reshape(3, 3, O, C).transpose(2, 3, 0, 1), dy.sum(axis=(0, 2, 3))


def reference_batchnorm_train(x, gamma, beta, eps):
    mean = x.mean(axis=(0, 2, 3))
    var = x.var(axis=(0, 2, 3))
    ivar = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean[None, :, None, None]) * ivar[None, :, None, None]
    return gamma[None, :, None, None] * xhat + beta[None, :, None, None], mean, var


def reference_batchnorm_eval(x, p):
    ivar = 1.0 / np.sqrt(p.bn_running_var + layers.BN_EPS)
    xhat = (x - p.bn_running_mean[None, :, None, None]) * ivar[None, :, None, None]
    return p.bn_gamma[None, :, None, None] * xhat + p.bn_beta[None, :, None, None]


def reference_batchnorm_backward(x, gamma, eps, dy):
    m = x.shape[0] * x.shape[2] * x.shape[3]
    ivar = 1.0 / np.sqrt(x.var(axis=(0, 2, 3)) + eps)
    xhat = (x - x.mean(axis=(0, 2, 3))[None, :, None, None]) * ivar[None, :, None, None]
    dbeta = dy.sum(axis=(0, 2, 3))
    dgamma = (dy * xhat).sum(axis=(0, 2, 3))
    coeff = (gamma * ivar / m)[None, :, None, None]
    dx = coeff * (m * dy - dbeta[None, :, None, None] - xhat * dgamma[None, :, None, None])
    return dx, dgamma, dbeta


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


# Largest difference from the reference, relative to the reference's largest
# magnitude: the one-channel unfold, the per-tap dW and the folded train-mode
# batch norm sum the same products in another order, and the inference batch
# norm folded into the conv rounds its scale and shift differently.
REL_TOL = 1e-12


def _rel_err(a, b):
    assert a.shape == b.shape and a.dtype == b.dtype
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


# (batch, in channels, out channels, height, width): one input channel, one
# output channel (each a one-row product in one of the two correlations),
# odd and non-square planes, batch 1, and the study's largest dX shape.
BITWISE_SHAPES = [(2, 1, 3, 8, 8), (2, 3, 1, 8, 8), (1, 1, 1, 5, 5), (2, 3, 4, 5, 5),
                  (3, 2, 5, 5, 7), (1, 4, 3, 6, 6), (2, 27, 9, 64, 64)]


@pytest.mark.parametrize("shape", BITWISE_SHAPES)
def test_conv_bitwise_equals_nine_shift_reference(shape):
    B, C, O, H, W = shape
    rng = Rng(51)
    x = rng.child(0).normal((B, C, H, W))
    p = _conv_params(rng.child(1), C, O)
    dy = rng.child(2).normal((B, O, H, W))
    y, cache = layers.conv2d(x, p)
    want_y = nine_shift_corr3x3(x, p.weights) + p.bias[None, :, None, None]
    if C == 1:      # one-channel unfold
        assert _rel_err(y, want_y) <= REL_TOL
    else:
        assert _same_bits(y, want_y)
    dx, dw, db = layers.conv2d_backward(cache, dy)
    want_dx, want_dw, want_db = reference_conv_backward(x, p.weights, dy)
    assert _same_bits(dx, want_dx) and _same_bits(db, want_db)
    assert _rel_err(dw, want_dw) <= REL_TOL
    # Without a bias, as in front of a batch norm, the add is skipped: the
    # zero-bias output value for value (a -0.0 is not turned into +0.0),
    # and the same backward bit for bit.
    y, cache = layers.conv2d(x, layers.LayerParams(weights=p.weights))
    y0, cache0 = layers.conv2d(x, layers.LayerParams(weights=p.weights, bias=np.zeros(O)))
    assert np.array_equal(y, y0)
    got, want = layers.conv2d_backward(cache, dy), layers.conv2d_backward(cache0, dy)
    assert all(_same_bits(g, r) for g, r in zip(got, want))


def unfold_one_channel_corr3x3(x, taps):
    """Reference correlation for a one-channel input: per batch item, the
    nine shifted windows of a 2-D zero-padded plane unfolded into
    cols [9, H*W], then one taps [Cout, 9] @ cols product."""
    B, _, H, W = x.shape
    O = taps.shape[0]
    y = np.empty((B, O, H, W))
    cols = np.empty((3, 3, H, W))
    for b in range(B):
        xp = np.pad(x[b, 0], 1)
        for u in range(3):
            for v in range(3):
                cols[u, v] = xp[u:u + H, v:v + W]
        y[b] = (taps.reshape(O, 9) @ cols.reshape(9, H * W)).reshape(O, H, W)
    return y


# (batch, out channels, height, width): the study's 1->9 @ 64 at its train
# and eval batch, Cout = 1 (a one-row product, which numpy sends to gemv),
# and an odd, non-square plane.
@pytest.mark.parametrize("shape", [(8, 9, 64, 64), (16, 9, 64, 64), (8, 1, 64, 64),
                                   (2, 3, 5, 7)])
def test_one_channel_conv_bitwise_equals_unfold_reference(shape):
    B, O, H, W = shape
    rng = Rng(53)
    x = rng.child(0).normal((B, 1, H, W))
    w = rng.child(1).normal((O, 1, 3, 3))
    y, _ = layers.conv2d(x, layers.LayerParams(weights=w))
    assert _same_bits(y, unfold_one_channel_corr3x3(x, w))


@pytest.mark.parametrize("shape", BITWISE_SHAPES)
def test_batchnorm_bitwise_equals_reference(shape):
    B, _, C, H, W = shape
    rng = Rng(52)
    x = rng.child(0).normal((B, C, H, W), mean=0.5, std=2.0)
    dy = rng.child(1).normal((B, C, H, W))
    p = layers.LayerParams(bn_gamma=rng.child(2).normal((C,)), bn_beta=rng.child(3).normal((C,)),
                           bn_running_mean=rng.child(4).normal((C,)),
                           bn_running_var=rng.child(5).uniform((C,), 0.5, 2.0))
    rm, rv = p.bn_running_mean, p.bn_running_var
    want_y, mean, var = reference_batchnorm_train(x, p.bn_gamma, p.bn_beta, layers.BN_EPS)
    y, cache = layers.batchnorm(x, p)
    assert _rel_err(y, want_y) <= REL_TOL
    mom = p.bn_momentum
    assert _same_bits(p.bn_running_mean, (1.0 - mom) * rm + mom * mean)
    assert _rel_err(p.bn_running_var, (1.0 - mom) * rv + mom * var) <= REL_TOL
    got = layers.batchnorm_backward(cache, dy)
    want = reference_batchnorm_backward(x, p.bn_gamma, layers.BN_EPS, dy)
    assert all(_rel_err(g, r) <= REL_TOL for g, r in zip(got, want))


@pytest.mark.parametrize("shape", BITWISE_SHAPES)
def test_folded_conv_matches_conv_then_eval_batchnorm(shape):
    B, C, O, H, W = shape
    rng = Rng(57)
    x = rng.child(0).normal((B, C, H, W))
    p = _conv_params(rng.child(1), C, O)
    p.bias = None                      # batch-norm units have no conv bias
    p.bn_gamma, p.bn_beta = rng.child(2).normal((O,)), rng.child(3).normal((O,))
    p.bn_running_mean = rng.child(4).normal((O,))
    p.bn_running_var = rng.child(5).uniform((O,), 0.5, 2.0)
    z, _ = layers.conv2d(x, p)
    y, _ = layers.conv2d(x, layers.fold_batchnorm(p))
    assert _rel_err(y, reference_batchnorm_eval(z, p)) <= REL_TOL


def reference_maxpool2(x):
    """Reference pool: argmax over each flattened 2x2 window (first maximum,
    or first NaN), with the gradient put back at that index."""
    B, C, H, W = x.shape
    win = x.reshape(B, C, H // 2, 2, W // 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(
        B, C, H // 2, W // 2, 4)
    idx = win.argmax(axis=-1)
    y = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]

    def backward(dy):
        dwin = np.zeros((B, C, H // 2, W // 2, 4))
        np.put_along_axis(dwin, idx[..., None], dy[..., None], axis=-1)
        return dwin.reshape(B, C, H // 2, W // 2, 2, 2).transpose(0, 1, 2, 4, 3, 5).reshape(
            B, C, H, W)
    return y, backward


def _relu_like(shape, seed):
    return np.maximum(Rng(seed).normal(shape), 0.0)     # +0.0 only, as ReLU emits


def _integer_ties(shape, seed):
    return Rng(seed).integers(0, 3, shape).astype(np.float64)


def _nan_windows(shape, seed):
    # Windows with one NaN, with two or more NaNs, and a NaN beside a tied
    # maximum; the rest are integer ties.
    x = _integer_ties(shape, seed)
    mask = Rng(seed).child(1).uniform(shape) < 0.3
    x[mask] = np.nan
    return x


# The study's two pools (batch 8, 9 and 18 channels) and small odd batches.
POOL_CASES = [(_relu_like, (8, 9, 64, 64)), (_relu_like, (8, 18, 32, 32)),
              (_integer_ties, (3, 2, 6, 8)), (_integer_ties, (8, 9, 64, 64)),
              (_nan_windows, (2, 3, 8, 6)), (_nan_windows, (8, 9, 64, 64))]


@pytest.mark.parametrize("make,shape", POOL_CASES)
def test_maxpool_bitwise_equals_argmax_reference(make, shape):
    x = make(shape, 55)
    dy = Rng(56).normal((shape[0], shape[1], shape[2] // 2, shape[3] // 2))
    want_y, want_backward = reference_maxpool2(x)
    y, cache = layers.maxpool2(x)
    assert _same_bits(y, want_y)
    assert _same_bits(layers.maxpool2_backward(cache, dy), want_backward(dy))


# ---------------------------------------------------------------------------
# ReLU, its backward and the pool index bit for bit against `np.where` and
# masked `np.copyto` forms, on special values
# ---------------------------------------------------------------------------

SPECIALS = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324,
                     2.225073858507201e-308, -2.225073858507201e-308, 1.5, -1.5])


def _specials(n, shift=0):
    """n values cycling through SPECIALS; 17 is coprime to their count, so
    each value sits at every position mod 16 within 16 * 12 values."""
    i = np.arange(n) + shift
    return SPECIALS[(i + i // 16) % len(SPECIALS)]


# Every tail length a 16-wide vector loop can leave.
SPECIAL_LENGTHS = range(16 * len(SPECIALS), 16 * len(SPECIALS) + 16)


@pytest.mark.parametrize("n", SPECIAL_LENGTHS)
def test_relu_bitwise_equals_where_on_special_values(n):
    for x in (_specials(n), _specials(n + 1)[1:], _specials(2 * n, 5)[::2]):
        y, mask = layers.relu(x)
        assert _same_bits(y, np.where(x > 0, x, 0.0))
        assert _same_bits(mask, x > 0)


@pytest.mark.parametrize("n", SPECIAL_LENGTHS)
def test_keep_bitwise_equals_where_on_special_values(n):
    a = _specials(n)
    mask = _specials(n, 7) > 0
    want = np.where(mask, a, 0.0)
    assert _same_bits(layers._keep(mask, a), want)
    assert _same_bits(layers._keep(mask[::-1], a[::-1]), want[::-1])
    base = np.full(2 * n + 1, 7.0)
    layers._keep(mask, a, out=base[1::2])
    assert _same_bits(base[1::2], want)
    assert (base[::2] == 7.0).all()


def copyto_pool_index(views, y):
    """Reference pool index by three masked copies: 3, then each earlier hit
    (a maximum or a NaN), the earliest written last."""
    idx = np.full(y.shape, 3, dtype=np.uint8)
    for k in (2, 1, 0):
        hit = views[k] == y
        hit |= views[k] != views[k]
        np.copyto(idx, k, where=hit)
    return idx


@pytest.mark.parametrize("shape", [(2, 5, 3, 3), (3, 4, 16, 12), (16, 7, 64, 64)])
def test_softmax_bitwise_equals_three_array_form(shape):
    # The in-place softmax against x - max, its exp and the quotient as
    # three arrays; the last shape is an eval-mode batch of the study.
    x = Rng(43).normal(shape, std=3.0)
    special = _specials(x.size).reshape(shape)
    mixed = np.where(Rng(44).uniform(shape) < 0.5, x, special)
    for xi in (x, 1e3 * x, -1e3 * x, special, mixed):
        with np.errstate(all="ignore"):      # inf - inf and 0/0 make NaNs here
            e = np.exp(xi - xi.max(axis=1, keepdims=True))
            want = e / e.sum(axis=1, keepdims=True)
            p, cache = layers.softmax(xi)
        assert _same_bits(p, want) and cache is p


@pytest.mark.parametrize("n", SPECIAL_LENGTHS)
def test_maxpool_index_bitwise_equals_copyto_on_special_values(n):
    # Rows of 2n values in windows of four: every special value at every
    # window position and every position mod 16 of the n-wide output.
    x = np.stack([_specials(4 * n, s).reshape(2, 2 * n) for s in (0, 3, 10)])[:, None]
    y, idx = layers.maxpool2(x)
    views = [x[:, :, u::2, v::2] for u, v in ((0, 0), (0, 1), (1, 0), (1, 1))]
    assert _same_bits(idx, copyto_pool_index(views, y))
    y2, none = layers.maxpool2(x, need_index=False)
    assert none is None and _same_bits(y2, y)
    dy = _specials(y.size, 1).reshape(y.shape)
    dx = layers.maxpool2_backward(idx, dy)
    for k, v in enumerate(views):
        assert _same_bits(np.ascontiguousarray(dx[:, :, k // 2::2, k % 2::2]),
                          np.where(idx == k, dy, 0.0))


def test_conv_backward_without_input_gradient():
    rng = Rng(53)
    x = rng.normal((2, 3, 6, 6))
    p = _conv_params(rng.child(1), 3, 4)
    dy = rng.child(2).normal((2, 4, 6, 6))
    _, cache = layers.conv2d(x, p)
    dx, dw, db = layers.conv2d_backward(cache, dy)
    no_dx, dw2, db2 = layers.conv2d_backward(cache, dy, need_dx=False)
    assert dx is not None and no_dx is None
    assert _same_bits(dw2, dw) and _same_bits(db2, db)


# ---------------------------------------------------------------------------
# Layers never write into the arrays they are given
# ---------------------------------------------------------------------------

def _arrays(obj):
    """Every array reachable from one argument: the array itself, the items
    of a cache tuple, or the fields of a LayerParams."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, tuple):
        return [a for item in obj for a in _arrays(item)]
    if isinstance(obj, layers.LayerParams):
        return [a for a in vars(obj).values() if isinstance(a, np.ndarray)]
    return []


def test_layers_never_write_their_inputs():
    called = set()

    def call(fn, *args, **kwargs):
        arrays = [a for arg in args for a in _arrays(arg)]
        before = [a.copy() for a in arrays]
        out = fn(*args, **kwargs)
        for a, b in zip(arrays, before):
            assert _same_bits(a, b), fn.__name__
        called.add(fn.__name__)
        return out

    rng = Rng(54)
    x = rng.child(0).normal((2, 3, 6, 6))
    dy = rng.child(1).normal((2, 3, 6, 6))
    p = layers.LayerParams(weights=rng.child(2).normal((3, 3, 3, 3)), bias=rng.child(3).normal((3,)),
                           bn_gamma=rng.child(4).normal((3,)), bn_beta=rng.child(5).normal((3,)),
                           bn_running_mean=np.zeros(3), bn_running_var=np.ones(3))
    _, cache = call(layers.conv2d, x, p)
    call(layers.conv2d_backward, cache, dy)
    _, cache = call(layers.conv2d, x, layers.LayerParams(weights=p.weights))     # no bias
    call(layers.conv2d_backward, cache, dy)
    call(layers.conv2d_backward, cache, dy, False)
    call(layers.fold_batchnorm, p)
    _, cache = call(layers.batchnorm, x, p)
    call(layers.batchnorm_backward, cache, dy)
    call(layers.maxpool2, x, need_index=False)
    for op in (layers.relu, layers.maxpool2, layers.bilinear_up2, layers.softmax):
        y, cache = call(op, x)
        call(getattr(layers, f"{op.__name__}_backward"), cache, np.ones_like(y))
    ops = {name for name, f in vars(layers).items() if isinstance(f, types.FunctionType)
           and f.__module__ == layers.__name__ and not name.startswith("_")}
    assert called == ops
