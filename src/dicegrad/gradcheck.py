"""Central finite-difference checking for layers and losses.

The numerical gradient treats the checked function as a black box from a
raw float64 array to a scalar, so every analytic backward pass can be
compared against an independent oracle.
"""

from __future__ import annotations

import numpy as np

from . import layers, losses, model
from .tensor_core import Rng


def numerical_grad(f, x: np.ndarray) -> np.ndarray:
    """Central finite differences of scalar-valued `f` at `x`, step 1e-5."""
    h = 1e-5
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        orig = x[i]
        x[i] = orig + h
        fp = f(x)
        x[i] = orig - h
        fm = f(x)
        x[i] = orig
        g[i] = (fp - fm) / (2.0 * h)
    return g


def max_rel_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-8) -> float:
    """max |a-b| / max(floor, |a|+|b|), elementwise; 0 for two empty arrays."""
    if a.size == 0:
        return 0.0
    denom = np.maximum(floor, np.abs(a) + np.abs(b))
    return float(np.max(np.abs(a - b) / denom))


def _check_layer(fwd, bwd, args: dict, w_out: np.ndarray) -> dict:
    """Max relative error of each analytic gradient of a layer, by name.

    `fwd(*args.values())` returns (y, cache) and `bwd(cache, w_out)` the
    gradients in the order of `args` (a bare array when there is one).  A
    fixed random projection `w_out` of the output turns the layer into the
    scalar map sum(y * w_out), whose finite differences exercise every
    output element.
    """
    vals = list(args.values())
    grads = bwd(fwd(*vals)[1], w_out)
    if len(vals) == 1:
        grads = (grads,)
    errors = {}
    for k, name in enumerate(args):
        def f(v, k=k):
            return float((fwd(*vals[:k], v, *vals[k + 1:])[0] * w_out).sum())

        errors[name] = max_rel_error(grads[k], numerical_grad(f, vals[k].copy()))
    return errors


def check_conv() -> dict:
    rng = Rng(7)
    x = rng.normal((1, 2, 5, 5))
    prng = rng.child(1)
    w = prng.normal((3, 2, 3, 3), std=0.5)
    b = prng.normal((3,), std=0.5)
    w_out = rng.child(2).normal((1, 3, 5, 5))
    return _check_layer(
        lambda xv, wv, bv: layers.conv2d(xv, layers.LayerParams(weights=wv, bias=bv)),
        layers.conv2d_backward, {"input": x, "weights": w, "bias": b}, w_out)


def check_batchnorm() -> dict:
    rng = Rng(11)
    x = rng.normal((4, 3, 5, 5), std=1.5)
    prng = rng.child(1)
    gamma = prng.normal((3,), mean=1.0, std=0.2)
    beta = prng.normal((3,), std=0.2)
    w_out = rng.child(2).normal(x.shape)

    def fwd(xv, g, bt):
        return layers.batchnorm(xv, layers.LayerParams(
            bn_gamma=g, bn_beta=bt, bn_running_mean=np.zeros(3), bn_running_var=np.ones(3)))

    return _check_layer(fwd, layers.batchnorm_backward,
                        {"input": x, "gamma": gamma, "beta": beta}, w_out)


def check_relu() -> dict:
    rng = Rng(2)
    x = rng.normal((2, 3, 4, 4))
    # keep inputs away from the kink so finite differences are valid
    x = np.where(np.abs(x) < 0.1, 0.5, x)
    w_out = rng.child(1).normal(x.shape)
    return _check_layer(layers.relu, layers.relu_backward, {"input": x}, w_out)


def check_maxpool() -> dict:
    rng = Rng(3)
    x = rng.normal((2, 2, 6, 6))
    # perturb away from ties so the window maximum is stable under the FD step
    x += rng.child(1).uniform(x.shape, 0.0, 1e-3)
    w_out = rng.child(2).normal((2, 2, 3, 3))
    return _check_layer(layers.maxpool2, layers.maxpool2_backward, {"input": x}, w_out)


def check_bilinear() -> dict:
    rng = Rng(4)
    x = rng.normal((2, 2, 3, 3))
    w_out = rng.child(1).normal((2, 2, 6, 6))
    return _check_layer(layers.bilinear_up2, layers.bilinear_up2_backward, {"input": x}, w_out)


def check_softmax() -> dict:
    rng = Rng(5)
    x = rng.normal((2, 4, 3, 3))
    w_out = rng.child(1).normal(x.shape)
    return _check_layer(layers.softmax, layers.softmax_backward, {"input": x}, w_out)


def run_layer_checks() -> list[tuple[str, float]]:
    """All layer gradient checks as (name, max relative error) rows."""
    rows = []
    for layer, res in [
        ("conv2d", check_conv()),
        ("batchnorm", check_batchnorm()),
        ("relu", check_relu()),
        ("maxpool2", check_maxpool()),
        ("bilinear_up2", check_bilinear()),
        ("softmax", check_softmax()),
    ]:
        for part, err in res.items():
            rows.append((f"{layer}/{part}", err))
    return rows


def loss_gradcheck(cfg: losses.LossConfig, seed: int, absent_label: bool = False) -> float:
    """Max relative error of the analytic probability gradient against
    central finite differences on a random [2, 3, 4, 4] batch, perturbing
    raw p without renormalizing.

    With `absent_label` the last label is erased from the first image's
    ground truth, exercising the epsilon-guarded empty-mask branch.
    """
    shape = (2, 3, 4, 4)
    rng = Rng(seed)
    p, _ = layers.softmax(rng.normal(shape))
    labels = rng.child(1).integers(0, shape[1], (shape[0], shape[2], shape[3]))
    if absent_label:
        lab0 = labels[0]
        lab0[lab0 == shape[1] - 1] = 0
    r = losses.one_hot(labels, shape[1])

    analytic = losses.compute_loss(p, r, cfg).grad_p
    return max_rel_error(analytic, numerical_grad(
        lambda pv: losses.compute_loss(pv, r, cfg).value, p))


def run_loss_checks() -> list[tuple[str, float]]:
    """Gradient checks for every loss kind and Dice mode, including the
    zero-division-guarded degenerate case (a label absent from one image)."""
    rows = []
    seed = 0
    for kind in losses.LOSS_KINDS:
        dice = kind in ("sd", "bsd")
        for mode in losses.DICE_LABEL_MODES if dice else (None,):
            seed += 1
            cfg = (losses.LossConfig(kind=kind, dice_label_mode=mode) if dice
                   else losses.LossConfig(kind=kind))
            name = f"{kind}[{mode}]" if dice else kind
            rows.append((f"{name}/prob", loss_gradcheck(cfg, seed=seed)))
    for kind in ("sd", "bsd"):
        cfg = losses.LossConfig(kind=kind, dice_label_mode="per_label_mean")
        rows.append((f"{kind}[per_label_mean,absent]/prob",
                     loss_gradcheck(cfg, seed=17, absent_label=True)))
    return rows


def check_model_end_to_end() -> float:
    """Finite-difference check of the whole network: every trainable
    parameter of a tiny model (depth 1, 2 base channels, 8x8 patches,
    batch of 2) against the chained loss -> softmax -> layers backward."""
    cfg = model.ModelConfig(num_labels=3, depth=1, base_channels=2, patch_size=8)
    m = model.build_model(cfg, Rng(23))
    rng = Rng(24)
    x = rng.normal((2, 1, 8, 8))
    r = losses.one_hot(rng.child(1).integers(0, cfg.num_labels, (2, 8, 8)), cfg.num_labels)
    lcfg = losses.LossConfig(kind="bsd", dice_label_mode="per_label_mean")

    # Train-mode batch norm never reads the running statistics it updates.
    p, tape = model.forward(m, x, mode="train")
    res = losses.compute_loss(p, r, lcfg)
    grads = model.backward(m, tape, res.grad_p)

    def f(_v):
        pv, _ = model.forward(m, x, mode="train")
        return losses.compute_loss(pv, r, lcfg).value

    # np.max, unlike max(), propagates a NaN error, so it fails the check.
    return float(np.max([max_rel_error(grads[name], numerical_grad(f, arr), floor=1e-6)
                         for name, arr in m.param_table().items()]))
