"""Layer kernels against naive scalar-loop oracles, finite differences, and
bitwise against the reference kernels they replaced."""

import types

import numpy as np
import pytest

from dicegrad import gradcheck, layers
from dicegrad.errors import SizeError, StateError
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
    with pytest.raises(SizeError):
        layers.conv2d(np.zeros((2, 4, 5, 5)), p)        # channel mismatch
    with pytest.raises(SizeError):
        layers.conv2d(np.zeros((4, 5, 5)), p)           # wrong rank


def test_conv_gradients():
    res = gradcheck.check_conv()
    assert all(err < 1e-6 for err in res.values()), res


def test_batchnorm_train_normalizes():
    rng = Rng(21)
    x = rng.normal((6, 3, 7, 7), mean=3.0, std=2.0)
    p = layers.LayerParams(bn_gamma=np.ones(3), bn_beta=np.zeros(3),
                           bn_running_mean=np.zeros(3), bn_running_var=np.ones(3))
    y, _ = layers.batchnorm(x, p, "train")
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
    layers.batchnorm(x, p, "train")
    assert np.allclose(p.bn_running_mean, 0.1 * batch_mean, atol=1e-12)
    assert np.allclose(p.bn_running_var, 0.9 + 0.1 * batch_var, atol=1e-12)


def test_batchnorm_eval_uses_running_stats():
    rng = Rng(23)
    x = rng.normal((2, 2, 4, 4))
    p = layers.LayerParams(bn_gamma=np.full(2, 2.0), bn_beta=np.full(2, 0.5),
                           bn_running_mean=np.array([1.0, -1.0]),
                           bn_running_var=np.array([4.0, 0.25]))
    y, cache = layers.batchnorm(x, p, "eval")
    want = 2.0 * (x - p.bn_running_mean[None, :, None, None]) / np.sqrt(
        p.bn_running_var[None, :, None, None] + layers.BN_EPS) + 0.5
    assert np.allclose(y, want, atol=1e-12)
    assert cache is None
    with pytest.raises(StateError):
        layers.batchnorm_backward(cache, np.zeros_like(x))


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
    with pytest.raises(SizeError):
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
# Bitwise regression: the nine-shift conv and the temporary-heavy batch norm
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
    assert _same_bits(y, nine_shift_corr3x3(x, p.weights) + p.bias[None, :, None, None])
    got = layers.conv2d_backward(cache, dy)
    want = reference_conv_backward(x, p.weights, dy)
    assert all(_same_bits(g, r) for g, r in zip(got, want))


@pytest.mark.parametrize("shape", BITWISE_SHAPES)
def test_batchnorm_bitwise_equals_reference(shape):
    B, _, C, H, W = shape
    rng = Rng(52)
    x = rng.child(0).normal((B, C, H, W), mean=0.5, std=2.0)
    dy = rng.child(1).normal((B, C, H, W))
    p = layers.LayerParams(bn_gamma=rng.child(2).normal((C,)), bn_beta=rng.child(3).normal((C,)),
                           bn_running_mean=rng.child(4).normal((C,)),
                           bn_running_var=rng.child(5).uniform((C,), 0.5, 2.0))
    want_eval = reference_batchnorm_eval(x, p)
    y, _ = layers.batchnorm(x, p, "eval")
    assert _same_bits(y, want_eval)
    rm, rv = p.bn_running_mean, p.bn_running_var
    want_y, mean, var = reference_batchnorm_train(x, p.bn_gamma, p.bn_beta, layers.BN_EPS)
    y, cache = layers.batchnorm(x, p, "train")
    assert _same_bits(y, want_y)
    mom = p.bn_momentum
    assert _same_bits(p.bn_running_mean, (1.0 - mom) * rm + mom * mean)
    assert _same_bits(p.bn_running_var, (1.0 - mom) * rv + mom * var)
    got = layers.batchnorm_backward(cache, dy)
    want = reference_batchnorm_backward(x, p.bn_gamma, layers.BN_EPS, dy)
    assert all(_same_bits(g, r) for g, r in zip(got, want))


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

    def call(fn, *args):
        arrays = [a for arg in args for a in _arrays(arg)]
        before = [a.copy() for a in arrays]
        out = fn(*args)
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
    call(layers.conv2d_backward, cache, dy, False)
    call(layers.batchnorm, x, p, "eval")
    _, cache = call(layers.batchnorm, x, p, "train")
    call(layers.batchnorm_backward, cache, dy)
    for op in (layers.relu, layers.maxpool2, layers.bilinear_up2, layers.softmax):
        y, cache = call(op, x)
        call(getattr(layers, f"{op.__name__}_backward"), cache, np.ones_like(y))
    ops = {name for name, f in vars(layers).items() if isinstance(f, types.FunctionType)
           and f.__module__ == layers.__name__ and not name.startswith("_")}
    assert called == ops
