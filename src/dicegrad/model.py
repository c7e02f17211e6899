"""Encoder-decoder segmentation network assembled from the layer kernels.

Topology: `depth` encoder stages (two conv-BN-ReLU units, then 2x2 max
pooling), a two-unit bottleneck, and mirrored decoder stages (bilinear 2x
upsampling, channel concat with the matching encoder output, two units).
A final 3x3 convolution maps to `num_labels` channels and a per-pixel
softmax turns the scores into label probabilities.

A train-mode forward records a tape, one (kind, key, cache) entry per unit,
pooling, upsampling and the head, in execution order; an eval-mode forward
keeps no cache, only the live activation and the skips.  The backward pass
pops the entries and replays the matching layer backward functions, so the
topology is written once; it splits the gradient at each skip concat
between the upsampling path and the encoder output it was joined with.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import layers
from .errors import ConfigError, SizeError, StateError
from .tensor_core import Rng

# Tiles per eval-mode forward in `segment_volume`.
MAX_BATCH = 16


@dataclass
class ModelConfig:
    num_labels: int
    in_channels: int = 1
    depth: int = 2
    base_channels: int = 16
    patch_size: int = 64

    def __post_init__(self):
        if self.num_labels < 2:
            raise ConfigError(f"num_labels must be >= 2, got {self.num_labels}")
        if self.depth < 1:
            raise ConfigError(f"depth must be >= 1, got {self.depth}")
        if self.patch_size % (1 << self.depth) != 0:
            raise ConfigError(
                f"patch_size {self.patch_size} not divisible by 2^depth = {1 << self.depth}"
            )
        if self.in_channels < 1 or self.base_channels < 1:
            raise ConfigError("in_channels and base_channels must be >= 1")


@dataclass
class SegModel:
    cfg: ModelConfig
    units: dict[str, layers.LayerParams] = field(default_factory=dict)
    final: layers.LayerParams | None = None

    def unit_names(self) -> list[str]:
        """Conv-BN-ReLU unit names in forward execution order."""
        return list(_unit_channels(self.cfg))

    def param_table(self) -> dict[str, np.ndarray]:
        """Trainable parameters, name -> array (live references)."""
        t = {}
        for name in self.unit_names():
            u = self.units[name]
            t[f"{name}.weights"] = u.weights
            t[f"{name}.bias"] = u.bias
            t[f"{name}.gamma"] = u.bn_gamma
            t[f"{name}.beta"] = u.bn_beta
        t["head.weights"] = self.final.weights
        t["head.bias"] = self.final.bias
        return t

    def state_table(self) -> dict[str, np.ndarray]:
        """Everything a checkpoint must carry: parameters + running stats."""
        t = self.param_table()
        for name in self.unit_names():
            u = self.units[name]
            t[f"{name}.running_mean"] = u.bn_running_mean
            t[f"{name}.running_var"] = u.bn_running_var
        return t


def _unit_channels(cfg: ModelConfig) -> dict[str, tuple[int, int]]:
    """(in_ch, out_ch) per unit, walking the topology in forward execution
    order: encoder stages, bottleneck, decoder stages."""
    base, depth = cfg.base_channels, cfg.depth
    ch = {}
    prev = cfg.in_channels
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


def _init_unit(cin: int, cout: int, rng: Rng, with_bn: bool = True) -> layers.LayerParams:
    # He initialization: std = sqrt(2 / fan_in) with fan_in = cin * 3 * 3.
    std = np.sqrt(2.0 / (cin * 9))
    p = layers.LayerParams(
        weights=rng.normal((cout, cin, 3, 3), std=std),
        bias=np.zeros(cout),
    )
    if with_bn:
        p.bn_gamma = np.ones(cout)
        p.bn_beta = np.zeros(cout)
        p.bn_running_mean = np.zeros(cout)
        p.bn_running_var = np.ones(cout)
    return p


def build_model(cfg: ModelConfig, rng: Rng) -> SegModel:
    """Construct the network with He-initialized conv weights, zero biases,
    and identity batch-norm scales; deterministic for a given rng."""
    m = SegModel(cfg=cfg)
    ch = _unit_channels(cfg)
    for i, (name, (cin, cout)) in enumerate(ch.items()):
        m.units[name] = _init_unit(cin, cout, rng.child(i))
    m.final = _init_unit(cfg.base_channels, cfg.num_labels, rng.child(len(ch)), with_bn=False)
    return m


def _unit_forward(x, u: layers.LayerParams, mode: str):
    y, c_conv = layers.conv2d(x, u)
    y, c_bn = layers.batchnorm(y, u, mode)
    y, c_relu = layers.relu(y)
    return y, (c_conv, c_bn, c_relu)


def _unit_backward(cache, dy, grads: dict, name: str, need_dx: bool = True):
    c_conv, c_bn, c_relu = cache
    dy = layers.relu_backward(c_relu, dy)
    dy, dgamma, dbeta = layers.batchnorm_backward(c_bn, dy)
    dx, dw, db = layers.conv2d_backward(c_conv, dy, need_dx=need_dx)
    grads[f"{name}.weights"] = dw
    grads[f"{name}.bias"] = db
    grads[f"{name}.gamma"] = dgamma
    grads[f"{name}.beta"] = dbeta
    return dx


def _stage(m: SegModel, stage: str, h, mode: str, record):
    """The stage's two units in order, each cache handed to `record`."""
    for un in (f"{stage}.u0", f"{stage}.u1"):
        h, cache = _unit_forward(h, m.units[un], mode)
        record(("unit", un, cache))
    return h


def forward(m: SegModel, x: np.ndarray, mode: str):
    """Run the network on a batch [I, in_channels, P, P] in mode "train" or "eval".

    Returns (probabilities [I, L, P, P], tape); the tape, the (kind, key,
    cache) entries in execution order, is None in eval mode and must be
    handed unchanged to `backward` in train mode.  Eval mode records
    nothing, so only the live activation and the skips stay alive.
    """
    cfg = m.cfg
    p_sz = cfg.patch_size
    if x.ndim != 4 or x.shape[1] != cfg.in_channels or x.shape[2:] != (p_sz, p_sz):
        raise SizeError(
            f"expected input [I, {cfg.in_channels}, {p_sz}, {p_sz}], got {x.shape}"
        )
    tape = [] if mode == "train" else None
    record = (lambda entry: None) if tape is None else tape.append
    h = x
    skips = []
    for d in range(cfg.depth):
        h = _stage(m, f"enc{d}", h, mode, record)
        skips.append(h)
        h, c = layers.maxpool2(h)
        record(("pool", d, c))
    h = _stage(m, "mid", h, mode, record)
    for d in reversed(range(cfg.depth)):
        h, c = layers.bilinear_up2(h)
        record(("up", d, (c, h.shape[1])))     # where the concat's gradient splits
        h = np.concatenate([h, skips[d]], axis=1)
        h = _stage(m, f"dec{d}", h, mode, record)
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
        raise StateError("backward requires the tape of a train-mode forward")
    if not tape:
        raise StateError("tape already consumed by a previous backward")
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
    smaller slices are zero-padded symmetrically and cropped back.  Each
    axial slice is processed independently; batching tiles across slices is
    only a throughput detail (eval-mode batch norm keeps items separate).
    """
    cfg = m.cfg
    patch = cfg.patch_size
    stride = patch // 2
    if intensities.ndim != 3:
        raise SizeError(f"expected volume [D, H, W], got {intensities.shape}")
    depth_z, height, width = intensities.shape
    pad_h = max(0, patch - height)
    pad_w = max(0, patch - width)
    pads = ((pad_h // 2, pad_h - pad_h // 2), (pad_w // 2, pad_w - pad_w // 2))
    hp, wp = height + pad_h, width + pad_w

    tiles = [
        (z, y0, x0)
        for z in range(depth_z)
        for y0 in _tile_starts(hp, patch, stride)
        for x0 in _tile_starts(wp, patch, stride)
    ]
    prob_sum = np.zeros((depth_z, cfg.num_labels, hp, wp))
    hits = np.zeros((depth_z, 1, hp, wp))
    for lo in range(0, len(tiles), MAX_BATCH):
        chunk = tiles[lo:lo + MAX_BATCH]
        batch = np.stack([
            np.pad(intensities[z], pads)[y0:y0 + patch, x0:x0 + patch]
            for z, y0, x0 in chunk
        ])[:, None]
        probs, _ = forward(m, batch, mode="eval")
        for (z, y0, x0), pr in zip(chunk, probs):
            prob_sum[z, :, y0:y0 + patch, x0:x0 + patch] += pr
            hits[z, :, y0:y0 + patch, x0:x0 + patch] += 1.0
    avg = prob_sum / hits
    avg = avg[:, :, pads[0][0]:pads[0][0] + height, pads[1][0]:pads[1][0] + width]
    return predict_labels(avg)
