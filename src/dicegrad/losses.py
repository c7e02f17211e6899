"""Training losses for multi-label segmentation, with analytic gradients.

Four loss kinds are implemented on a probability field p of shape
[I, L, H, W] (per-pixel label probabilities) against one-hot ground truth
r of identical shape, which `one_hot` builds from integer label maps:

  ce   pixel-averaged cross-entropy
  wce  cross-entropy with per-pixel weights 1/w_c, where w_c is the prior
       probability of pixel c's true label within the mini-batch
  sd   soft Dice averaged over the I images of the batch
  bsd  soft Dice pooled over all I*H*W pixels of the batch at once

ce and wce share one kernel that differs only in the pixel weight.  sd and
bsd share one kernel that differs only in the pooling group of its sums:
each image on its own, or the whole batch as one group.  With one image
there is nothing to pool, so sd and bsd agree bit for bit.

The Dice losses come in two label treatments: "joint" sums intersection
and union over all labels before forming the quotient; "per_label_mean"
forms one quotient per label and averages.  Under softmax-consistent p
and one-hot r the joint forms of sd and bsd are value-identical, so the
per-label form is what actually distinguishes per-image from batch-pooled
training.  A small epsilon in numerator and denominator keeps empty-mask
quotients finite (empty vs. empty counts as a perfect match); epsilon 0 is
accepted for exact-identity checks where every quotient is known nonzero.
The per-label mean runs over every label, background included.

Every loss returns the scalar value together with d(value)/dp, treating
the loss as a function of unconstrained p; composing with the softmax
backward pass yields logit gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

LOSS_KINDS = ("ce", "wce", "sd", "bsd")
DICE_LABEL_MODES = ("joint", "per_label_mean")
PROB_CLAMP = 1e-12


@dataclass
class LossConfig:
    kind: str = "bsd"
    epsilon: float = 1e-5
    dice_label_mode: str = "per_label_mean"

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValidationError(f"unknown loss kind {self.kind!r}")
        if self.dice_label_mode not in DICE_LABEL_MODES:
            raise ValidationError(f"unknown dice_label_mode {self.dice_label_mode!r}")
        if not 0 <= self.epsilon < np.inf:
            raise ValidationError(f"epsilon must be finite and >= 0, got {self.epsilon}")


@dataclass
class LossResult:
    value: float
    grad_p: np.ndarray


def _check_pair(p: np.ndarray, r: np.ndarray) -> None:
    if p.shape != r.shape:
        raise ValidationError(f"p shape {p.shape} != r shape {r.shape}")
    if p.ndim != 4:
        raise ValidationError(f"expected [I, L, H, W] fields, got shape {p.shape}")


def one_hot(labels: np.ndarray, num_labels: int) -> np.ndarray:
    """Integer label maps [I, H, W] -> float one-hot ground truth [I, L, H, W]."""
    r = np.zeros((labels.shape[0], num_labels) + labels.shape[1:])
    np.put_along_axis(r, labels[:, None], 1.0, axis=1)
    return r


def _check_onehot(r: np.ndarray) -> None:
    if not (np.isin(r, (0.0, 1.0)).all() and (r.sum(axis=1) == 1.0).all()):
        raise ValidationError("ground truth must be one-hot over the label axis")


def label_counts(r: np.ndarray) -> np.ndarray:
    """Per-label pixel counts over the whole mini-batch, shape [L]."""
    return np.sum(r, axis=(0, 2, 3))


def pixel_weights(r: np.ndarray) -> np.ndarray:
    """Per-pixel prior probability w_c of the pixel's own true label, [I, 1, H, W].

    Counts are taken over the mini-batch, so w_c is in (0, 1] for every
    pixel (each pixel's label occurs at least once: at that pixel).
    """
    counts = label_counts(r)
    n = float(r.shape[0] * r.shape[2] * r.shape[3])
    w = (r * (counts / n)[None, :, None, None]).sum(axis=1, keepdims=True)
    return w


def _cross_entropy(p: np.ndarray, r: np.ndarray, weighted: bool) -> LossResult:
    """Mean over all N pixels of -log p at the true label, each pixel
    weighted by 1, or by 1/w_c when `weighted` so that rare labels
    contribute on par with frequent ones.  p is floored at `PROB_CLAMP`
    before the log, and entries below it get no gradient."""
    _check_onehot(r)
    n = p.shape[0] * p.shape[2] * p.shape[3]
    w = 1.0 / pixel_weights(r) if weighted else 1.0
    safe = np.maximum(p, PROB_CLAMP)
    term = r * np.log(safe)
    grad = np.where(p < PROB_CLAMP, 0.0, r / safe)
    value = -float(np.sum(term * w)) / n
    return LossResult(value, -grad * w / n)


def _soft_dice(p: np.ndarray, r: np.ndarray, cfg: LossConfig, pooled: bool) -> LossResult:
    """Mean over quotients of 1 - (2*sum p r + eps) / (sum (p + r) + eps).

    The sums are taken per (image, label), giving a [G, L] table with G = I;
    `pooled` first adds the images together (G = 1).  Joint mode then adds
    the labels together, per_label_mean keeps one quotient per label.  The
    gradient of each quotient is constant over the pixels of its group.
    """
    # One activation-sized buffer holds p r, then p + r, then the gradient.
    buf = p * r
    inter = np.sum(buf, axis=(2, 3))                    # [I, L]
    mass = np.sum(np.add(p, r, out=buf), axis=(2, 3))
    if pooled:
        inter = np.sum(inter, axis=0)[None]             # [1, L]
        mass = np.sum(mass, axis=0)[None]
    if cfg.dice_label_mode == "joint":
        inter = np.sum(inter, axis=1)[:, None]          # [G, 1]
        mass = np.sum(mass, axis=1)[:, None]
    num = 2.0 * inter + cfg.epsilon
    den = mass + cfg.epsilon
    q = num.size
    value = float(np.sum(1.0 - num / den)) / q
    # d/dp of -(num/den) by the quotient rule: a - b r
    a = (num / den**2 / q)[:, :, None, None]
    b = (2.0 / den / q)[:, :, None, None]
    np.multiply(b, r, out=buf)
    np.subtract(a, buf, out=buf)
    return LossResult(value, buf)


def compute_loss(p: np.ndarray, r: np.ndarray, cfg: LossConfig) -> LossResult:
    """Value and d(value)/dp of the `cfg.kind` loss of probabilities `p`
    against one-hot ground truth `r`, both [I, L, H, W]."""
    _check_pair(p, r)
    if cfg.kind in ("ce", "wce"):
        return _cross_entropy(p, r, weighted=cfg.kind == "wce")
    return _soft_dice(p, r, cfg, pooled=cfg.kind == "bsd")
