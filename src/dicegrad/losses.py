"""Training losses for multi-label segmentation, with analytic gradients.

Four loss kinds are implemented on a probability field p of shape
[I, L, H, W] (per-pixel label probabilities) against one-hot ground truth
r of identical shape:

  ce   pixel-averaged cross-entropy
  wce  cross-entropy with per-pixel weights 1/w_c, where w_c is the prior
       probability of pixel c's true label within the mini-batch
  sd   soft Dice averaged over the I images of the batch
  bsd  soft Dice pooled over all I*H*W pixels of the batch at once

The Dice losses come in two label treatments: "joint" sums intersection
and union over all labels before forming the quotient; "per_label_mean"
forms one quotient per label and averages.  Under softmax-consistent p
and one-hot r the joint forms of sd and bsd are value-identical, so the
per-label form is what actually distinguishes per-image from batch-pooled
training.  A small epsilon in numerator and denominator keeps empty-mask
quotients finite (empty vs. empty counts as a perfect match); epsilon 0 is
accepted for exact-identity checks where every quotient is known nonzero.

Every loss returns the scalar value together with d(value)/dp, treating
the loss as a function of unconstrained p; composing with the softmax
backward pass yields logit gradients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .tensor_core import reduce_sum

LOSS_KINDS = ("ce", "wce", "sd", "bsd")
DICE_LABEL_MODES = ("joint", "per_label_mean")


@dataclass
class LossConfig:
    kind: str = "bsd"
    epsilon: float = 1e-5
    dice_label_mode: str = "per_label_mean"
    include_background: bool = True
    prob_clamp: float = 1e-12

    def __post_init__(self):
        if self.kind not in LOSS_KINDS:
            raise ValidationError(f"unknown loss kind {self.kind!r}")
        if self.dice_label_mode not in DICE_LABEL_MODES:
            raise ValidationError(f"unknown dice_label_mode {self.dice_label_mode!r}")
        if not self.epsilon >= 0:
            raise ValidationError(f"epsilon must be >= 0, got {self.epsilon}")
        if not 0 < self.prob_clamp <= 1e-3:
            raise ValidationError(f"prob_clamp must be in (0, 1e-3], got {self.prob_clamp}")


@dataclass
class LossResult:
    value: float
    grad_p: np.ndarray


def _check_pair(p: np.ndarray, r: np.ndarray) -> None:
    if p.shape != r.shape:
        raise ValidationError(f"p shape {p.shape} != r shape {r.shape}")
    if p.ndim != 4:
        raise ValidationError(f"expected [I, L, H, W] fields, got shape {p.shape}")


def _check_onehot(r: np.ndarray) -> None:
    if not (np.isin(r, (0.0, 1.0)).all() and (r.sum(axis=1) == 1.0).all()):
        raise ValidationError("ground truth must be one-hot over the label axis")


def label_counts(r: np.ndarray) -> np.ndarray:
    """Per-label pixel counts over the whole mini-batch, shape [L]."""
    return reduce_sum(r, axes=(0, 2, 3))


def pixel_weights(r: np.ndarray) -> np.ndarray:
    """Per-pixel prior probability w_c of the pixel's own true label, [I, 1, H, W].

    Counts are taken over the mini-batch, so w_c is in (0, 1] for every
    pixel (each pixel's label occurs at least once: at that pixel).
    """
    counts = label_counts(r)
    n = float(r.shape[0] * r.shape[2] * r.shape[3])
    w = (r * (counts / n)[None, :, None, None]).sum(axis=1, keepdims=True)
    return w


def _log_term(p: np.ndarray, r: np.ndarray, cfg: LossConfig):
    """r*log(max(p, clamp)) and the unclamped-entry gradient mask r/p."""
    clamped = p < cfg.prob_clamp
    logp = np.log(np.maximum(p, cfg.prob_clamp))
    grad = np.where(clamped, 0.0, r / np.maximum(p, cfg.prob_clamp))
    return r * logp, grad


def cross_entropy(p: np.ndarray, r: np.ndarray, cfg: LossConfig) -> LossResult:
    """Mean over all N pixels of -log p at the true label."""
    _check_pair(p, r)
    _check_onehot(r)
    n = p.shape[0] * p.shape[2] * p.shape[3]
    term, grad = _log_term(p, r, cfg)
    value = -float(reduce_sum(term)) / n
    return LossResult(value, -grad / n)


def weighted_cross_entropy(p: np.ndarray, r: np.ndarray, cfg: LossConfig) -> LossResult:
    """Cross-entropy with each pixel weighted by the reciprocal of its
    label's within-batch prior, so rare labels contribute on par with
    frequent ones."""
    _check_pair(p, r)
    _check_onehot(r)
    n = p.shape[0] * p.shape[2] * p.shape[3]
    inv_w = 1.0 / pixel_weights(r)
    term, grad = _log_term(p, r, cfg)
    value = -float(reduce_sum(term * inv_w)) / n
    return LossResult(value, -grad * inv_w / n)


def _dice_sums(p, r, pooled: bool):
    """Intersection and mass sums per (image, label), or per label pooled
    over the batch when `pooled`."""
    axes = (2, 3)
    inter = reduce_sum(p * r, axes=axes)
    mass = reduce_sum(p + r, axes=axes)
    if pooled:
        inter = reduce_sum(inter, axes=(0,))
        mass = reduce_sum(mass, axes=(0,))
    return inter, mass


def _label_slice(cfg: LossConfig, num_labels: int):
    start = 0 if cfg.include_background else 1
    if num_labels - start < 1:
        raise ValidationError("no labels left after excluding background")
    return slice(start, num_labels)


def soft_dice(p: np.ndarray, r: np.ndarray, cfg: LossConfig) -> LossResult:
    """Per-image soft Dice loss, averaged over the I images.

    joint mode:           1 - (2*sum_{l,c} p r + eps) / (sum_{l,c} (p + r) + eps)   per image
    per_label_mean mode:  mean over labels of the per-image per-label quotient
    """
    _check_pair(p, r)
    i_count, num_labels = p.shape[0], p.shape[1]
    eps = cfg.epsilon
    inter, mass = _dice_sums(p, r, pooled=False)      # [I, L]
    grad = np.empty_like(p)
    if cfg.dice_label_mode == "joint":
        num = 2.0 * reduce_sum(inter, axes=(1,)) + eps   # [I]
        den = reduce_sum(mass, axes=(1,)) + eps
        value = float(reduce_sum(1.0 - num / den)) / i_count
        # d/dp of -(num/den): quotient rule, constant within each image
        a = (num / den**2 / i_count)[:, None, None, None]
        b = (2.0 / den / i_count)[:, None, None, None]
        grad[:] = a - b * r
    else:
        ls = _label_slice(cfg, num_labels)
        num = 2.0 * inter[:, ls] + eps                   # [I, L']
        den = mass[:, ls] + eps
        l_count = num.shape[1]
        value = float(reduce_sum(1.0 - num / den)) / (i_count * l_count)
        grad[:] = 0.0
        a = num / den**2 / (i_count * l_count)
        b = 2.0 / den / (i_count * l_count)
        grad[:, ls] = a[:, :, None, None] - b[:, :, None, None] * r[:, ls]
    return LossResult(value, grad)


def batch_soft_dice(p: np.ndarray, r: np.ndarray, cfg: LossConfig) -> LossResult:
    """Soft Dice computed once over every pixel of the mini-batch.

    Identical to `soft_dice` when I == 1; for larger batches the pooling
    keeps every label's quotient well-populated as long as the label occurs
    somewhere in the batch.
    """
    _check_pair(p, r)
    num_labels = p.shape[1]
    eps = cfg.epsilon
    inter, mass = _dice_sums(p, r, pooled=True)       # [L]
    grad = np.empty_like(p)
    if cfg.dice_label_mode == "joint":
        num = 2.0 * float(reduce_sum(inter)) + eps
        den = float(reduce_sum(mass)) + eps
        value = 1.0 - num / den
        grad[:] = num / den**2
        grad -= (2.0 / den) * r
    else:
        ls = _label_slice(cfg, num_labels)
        num = 2.0 * inter[ls] + eps                   # [L']
        den = mass[ls] + eps
        l_count = num.shape[0]
        value = float(reduce_sum(1.0 - num / den)) / l_count
        grad[:] = 0.0
        a = num / den**2 / l_count
        b = 2.0 / den / l_count
        grad[:, ls] = a[None, :, None, None] - b[None, :, None, None] * r[:, ls]
    return LossResult(value, grad)


_DISPATCH = {
    "ce": cross_entropy,
    "wce": weighted_cross_entropy,
    "sd": soft_dice,
    "bsd": batch_soft_dice,
}


def compute_loss(p: np.ndarray, r: np.ndarray, cfg: LossConfig) -> LossResult:
    return _DISPATCH[cfg.kind](p, r, cfg)
