"""Encoder-decoder segmentation network assembled from the layer kernels.

Topology: `depth` encoder stages (two conv-BN-ReLU units, then 2x2 max
pooling), a two-unit bottleneck, and mirrored decoder stages (bilinear 2x
upsampling, channel concat with the matching encoder output, two units).
A final 3x3 convolution maps to `num_labels` channels and a per-pixel
softmax turns the scores into label probabilities.

A train-mode forward records a tape, one (kind, key, cache) entry per unit,
pooling, upsampling and the head, in execution order; an eval-mode forward
keeps no cache, only the live activation and the skips not yet concatenated.
The backward pass pops the entries and replays the matching layer backward
functions, so the topology is written once; it splits the gradient at each
skip concat between the upsampling path and the encoder output it was
joined with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import layers
from .errors import ValidationError
from .tensor_core import Rng

# Tiles per eval-mode forward in `segment_volume`.
MAX_BATCH = 16

# The `LayerParams` fields that are running statistics, not parameters.
_STATS = ("bn_running_mean", "bn_running_var")


@dataclass
class ModelConfig:
    num_labels: int
    depth: int = 2
    base_channels: int = 16
    patch_size: int = 64

    def __post_init__(self):
        if self.num_labels < 2:
            raise ValidationError(f"num_labels must be >= 2, got {self.num_labels}")
        if self.depth < 1:
            raise ValidationError(f"depth must be >= 1, got {self.depth}")
        # Shifted rather than divided by 1 << depth, which a checkpoint's
        # depth could make arbitrarily large.
        if self.patch_size < 1 or self.patch_size >> self.depth << self.depth != self.patch_size:
            raise ValidationError(f"patch_size {self.patch_size} is not a positive multiple "
                                  f"of 2^depth (depth {self.depth})")
        if self.base_channels < 1:
            raise ValidationError(f"base_channels must be >= 1, got {self.base_channels}")


@dataclass
class SegModel:
    cfg: ModelConfig
    units: dict[str, layers.LayerParams]     # conv-BN-ReLU units in execution order
    final: layers.LayerParams

    def _params(self, name: str) -> layers.LayerParams:
        unit = name.rpartition(".")[0]
        return self.final if unit == "head" else self.units[unit]

    def param_table(self) -> dict[str, np.ndarray]:
        """Trainable parameters, name -> array (live references)."""
        return {name: getattr(self._params(name), attr)
                for name, attr, _ in layout(self.cfg) if attr not in _STATS}

    def state_table(self) -> dict[str, np.ndarray]:
        """Everything a checkpoint must carry: parameters + running stats."""
        return {name: getattr(self._params(name), attr)
                for name, attr, _ in layout(self.cfg)}


def _unit_channels(cfg: ModelConfig) -> dict[str, tuple[int, int]]:
    """(in_ch, out_ch) per unit, walking the topology in forward execution
    order: encoder stages, bottleneck, decoder stages.  The input is one
    intensity channel."""
    base, depth = cfg.base_channels, cfg.depth
    ch = {}
    prev = 1
    for d in range(depth):
        out = base << d
        ch[f"enc{d}.u0"] = (prev, out)
        ch[f"enc{d}.u1"] = (out, out)
        prev = out
    mid = base << depth
    ch["mid.u0"] = (prev, mid)
    ch["mid.u1"] = (mid, mid)
    prev = mid
    for d in reversed(range(depth)):
        out = base << d
        ch[f"dec{d}.u0"] = (prev + out, out)   # upsampled + skip concat
        ch[f"dec{d}.u1"] = (out, out)
        prev = out
    return ch


def layout(cfg: ModelConfig) -> list[tuple[str, str, tuple[int, ...]]]:
    """The network's tensors as (name, `LayerParams` field, shape), in the
    order of `state_table`: each unit's conv weights, gamma and beta, the
    head's weights and bias, then each unit's running mean and variance.
    A conv followed by a batch norm has no bias, since the batch norm's
    mean subtraction would cancel it."""
    params, stats = [], []
    for name, (cin, cout) in _unit_channels(cfg).items():
        params += [(f"{name}.weights", "weights", (cout, cin, 3, 3)),
                   (f"{name}.gamma", "bn_gamma", (cout,)),
                   (f"{name}.beta", "bn_beta", (cout,))]
        stats += [(f"{name}.running_mean", "bn_running_mean", (cout,)),
                  (f"{name}.running_var", "bn_running_var", (cout,))]
    head = [("head.weights", "weights", (cfg.num_labels, cfg.base_channels, 3, 3)),
            ("head.bias", "bias", (cfg.num_labels,))]
    return params + head + stats


def assemble(cfg: ModelConfig, tensor) -> SegModel:
    """Build a SegModel whose every tensor is `tensor(name, shape)`, asked
    for once per `layout` entry in its order."""
    m = SegModel(cfg, {name: layers.LayerParams() for name in _unit_channels(cfg)},
                 layers.LayerParams())
    for name, attr, shape in layout(cfg):
        setattr(m._params(name), attr, tensor(name, shape))
    return m


def build_model(cfg: ModelConfig, rng: Rng) -> SegModel:
    """Construct the network with He-initialized conv weights, identity
    batch-norm scales and a zero head bias; unit i (in execution order)
    draws from rng.child(i) and the head from the next child, so it is
    deterministic for a given rng."""
    streams = [*_unit_channels(cfg), "head"]

    def init(name: str, shape: tuple[int, ...]) -> np.ndarray:
        unit, _, kind = name.rpartition(".")
        if kind == "weights":
            # He initialization: std = sqrt(2 / fan_in) with fan_in = in_ch * 3 * 3.
            return rng.child(streams.index(unit)).normal(shape, std=np.sqrt(2.0 / (shape[1] * 9)))
        return np.ones(shape) if kind in ("gamma", "running_var") else np.zeros(shape)

    return assemble(cfg, init)


def _unit_forward(m: SegModel, name: str, x, train: bool, record):
    """One conv-BN-ReLU unit; its cache goes straight to `record` and only
    the output is returned.  The conv has no bias, since the batch norm's
    mean subtraction would cancel it.  For inference the unit is one conv
    with the batch norm folded in (`layers.fold_batchnorm`) and a ReLU
    applied in place on the conv's own output, so nothing of the unit
    outlives it."""
    u = m.units[name]
    if not train:
        y, _ = layers.conv2d(x, layers.fold_batchnorm(u))
        return np.fmax(y, 0.0, out=y)
    y, c_conv = layers.conv2d(x, u)
    y, c_bn = layers.batchnorm(y, u)
    y, c_relu = layers.relu(y)
    record(("unit", name, (c_conv, c_bn, c_relu)))
    return y


def _unit_backward(cache, dy, grads: dict, name: str, need_dx: bool):
    c_conv, c_bn, c_relu = cache
    dy = layers.relu_backward(c_relu, dy)
    dy, dgamma, dbeta = layers.batchnorm_backward(c_bn, dy)
    dx, dw, _ = layers.conv2d_backward(c_conv, dy, need_dx=need_dx)
    grads[f"{name}.weights"] = dw
    grads[f"{name}.gamma"] = dgamma
    grads[f"{name}.beta"] = dbeta
    return dx


def forward(m: SegModel, x: np.ndarray, mode: str):
    """Run the network on a batch [I, 1, P, P] in mode "train" or "eval".

    Returns (probabilities [I, L, P, P], tape); the tape, the (kind, key,
    cache) entries in execution order, is None in eval mode and must be
    handed unchanged to `backward` in train mode.  Eval mode is the
    inference forward: each unit is its conv with the batch norm folded in
    and an in-place ReLU, pooling builds no routing index, nothing is
    recorded, and each skip and its concat are released once the decoder
    unit reading them has run, so only the live activation and the pending
    skips stay alive.  Its probabilities differ from an unfolded eval-mode
    batch norm by rounding only.
    """
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    cfg = m.cfg
    p_sz = cfg.patch_size
    if x.ndim != 4 or x.shape[1:] != (1, p_sz, p_sz):
        raise ValidationError(f"expected input [I, 1, {p_sz}, {p_sz}], got {x.shape}")
    train = mode == "train"
    tape = [] if train else None
    record = tape.append if train else (lambda entry: None)
    h = x
    skips = []
    for d in range(cfg.depth):
        h = _unit_forward(m, f"enc{d}.u0", h, train, record)
        h = _unit_forward(m, f"enc{d}.u1", h, train, record)
        skips.append(h)
        h, c = layers.maxpool2(h, need_index=train)
        record(("pool", d, c))
    h = _unit_forward(m, "mid.u0", h, train, record)
    h = _unit_forward(m, "mid.u1", h, train, record)
    for d in reversed(range(cfg.depth)):
        h, c = layers.bilinear_up2(h)
        record(("up", d, (c, h.shape[1])))     # where the concat's gradient splits
        # The skip is popped and the concat rebound after u0: neither is alive
        # while u1 runs, unless the tape holds it.
        h = np.concatenate([h, skips.pop()], axis=1)
        h = _unit_forward(m, f"dec{d}.u0", h, train, record)
        h = _unit_forward(m, f"dec{d}.u1", h, train, record)
    scores, c_head = layers.conv2d(h, m.final)
    p, c_soft = layers.softmax(scores)
    record(("head", "head", (c_head, c_soft)))
    return p, tape


def backward(m: SegModel, tape, grad_p: np.ndarray) -> dict[str, np.ndarray]:
    """Backpropagate d(loss)/d(probabilities) to every trainable parameter.

    Pops the tape's entries and replays them in reverse, so each cache is
    released once used; a second call with the emptied tape raises, since
    it no longer corresponds to the parameters after an optimizer step.
    """
    if tape is None:
        raise ValidationError("backward requires the tape of a train-mode forward")
    if not tape:
        raise ValidationError("tape already consumed by a previous backward")
    grads: dict[str, np.ndarray] = {}
    dskips = {}
    dy = grad_p
    try:
        while tape:
            kind, key, cache = tape.pop()
            if kind == "unit":
                # The unit popped last reads the network input: skip its dx.
                dy = _unit_backward(cache, dy, grads, key, need_dx=bool(tape))
            elif kind == "pool":
                dy = layers.maxpool2_backward(cache, dy) + dskips.pop(key)
            elif kind == "up":
                c_up, n_up = cache
                dskips[key] = dy[:, n_up:]
                dy = layers.bilinear_up2_backward(c_up, dy[:, :n_up])
            else:     # head: (conv, softmax) caches, indexed as a name would keep them alive
                dy = layers.softmax_backward(cache[1], dy)
                dy, grads["head.weights"], grads["head.bias"] = \
                    layers.conv2d_backward(cache[0], dy)
    finally:
        tape.clear()      # a replay that failed part way must not be retried
    return grads


def predict_labels(p: np.ndarray) -> np.ndarray:
    """Per-pixel argmax over the label axis; ties go to the lowest index."""
    return np.argmax(p, axis=1)


def _tile_starts(size: int, patch: int, stride: int) -> list[int]:
    starts = list(range(0, size - patch + 1, stride))
    if starts[-1] != size - patch:
        starts.append(size - patch)
    return starts


def segment_volume(m: SegModel, intensities: np.ndarray) -> np.ndarray:
    """Label a whole volume [D, H, W] slice by slice in eval mode.

    Slices larger than the patch size are covered with tiles at a stride of
    half a patch and the per-pixel probabilities averaged before the argmax;
    smaller slices are zero-padded symmetrically and cropped back.  Tiles
    never span slices, so the volume is streamed in groups of whole slices,
    as many as fill one batch of MAX_BATCH tiles (at least one slice): each
    group's probabilities are summed, averaged and turned into labels before
    the next group starts.  The inference forward keeps items separate
    (its batch norm is folded into the conv), so the grouping is only a
    memory and throughput detail.
    """
    cfg = m.cfg
    patch = cfg.patch_size
    stride = patch // 2
    if intensities.ndim != 3:
        raise ValidationError(f"expected volume [D, H, W], got {intensities.shape}")
    depth_z, height, width = intensities.shape
    pad_h = max(0, patch - height)
    pad_w = max(0, patch - width)
    pads = ((0, 0), (pad_h // 2, pad_h - pad_h // 2), (pad_w // 2, pad_w - pad_w // 2))
    hp, wp = height + pad_h, width + pad_w
    starts = [(y0, x0) for y0 in _tile_starts(hp, patch, stride)
              for x0 in _tile_starts(wp, patch, stride)]
    group = max(1, MAX_BATCH // len(starts))
    crop = (slice(None), slice(None), slice(pads[1][0], pads[1][0] + height),
            slice(pads[2][0], pads[2][0] + width))

    labels = np.empty((depth_z, height, width), dtype=np.intp)
    for z0 in range(0, depth_z, group):
        slab = np.pad(intensities[z0:z0 + group], pads)
        tiles = [(z, y0, x0) for z in range(len(slab)) for y0, x0 in starts]
        prob_sum = np.zeros((len(slab), cfg.num_labels, hp, wp))
        hits = np.zeros((len(slab), 1, hp, wp))
        for lo in range(0, len(tiles), MAX_BATCH):
            chunk = tiles[lo:lo + MAX_BATCH]
            batch = np.stack([slab[z, y0:y0 + patch, x0:x0 + patch]
                              for z, y0, x0 in chunk])[:, None]
            probs, _ = forward(m, batch, mode="eval")
            for (z, y0, x0), pr in zip(chunk, probs):
                prob_sum[z, :, y0:y0 + patch, x0:x0 + patch] += pr
                hits[z, :, y0:y0 + patch, x0:x0 + patch] += 1.0
            del probs, pr       # not alive through the next forward
        labels[z0:z0 + len(slab)] = predict_labels((prob_sum / hits)[crop])
    return labels
