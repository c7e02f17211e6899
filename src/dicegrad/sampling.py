"""Balanced patch sampling and data augmentation.

Mini-batches are balanced by construction: foreground labels are dealt to
batch slots round-robin over a global patch counter, so across any run of
batches every structure gets the same number of designated patches (within
one).  For each slot the sampler picks, uniformly, an axial slice that
actually contains the designated label, then crops a patch centered on the
label's in-slice centroid plus a uniform jitter, clamped to the slice.

Augmentation applies, in order: a horizontal flip (probability 0.5), an
integer-pixel translation (zero-padding the image, background-padding the
labels), and an elastic deformation by a Gaussian-smoothed random
displacement field shared between the image (bilinear resampling) and the
label map (nearest-neighbor resampling).  Labels travel as integer [P, P]
maps; the batch's [B, P, P] map is one-hot encoded once, by
`losses.one_hot`, into `MiniBatch.onehot`.

All randomness is drawn from per-patch child streams keyed by the global
patch index, so a batch depends only on (parent seed, its start index) and
never on worker scheduling or on how many batches came before it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import ValidationError
from .losses import one_hot
from .tensor_core import Rng
from .volume_io import LabeledVolume


@dataclass
class SamplerConfig:
    patch_size: int
    batch_size: int = 8
    center_jitter_px: int = 16
    flip_prob: float = 0.5
    max_translation_px: int = 8
    elastic_sigma: float = 6.0
    elastic_alpha: float = 4.0

    def __post_init__(self):
        if self.patch_size < 4 or self.batch_size < 1:
            raise ValidationError("patch_size >= 4 and batch_size >= 1 required")
        if not 0 <= self.flip_prob <= 1:
            raise ValidationError(f"flip_prob must be in [0, 1], got {self.flip_prob}")
        for name in ("center_jitter_px", "max_translation_px", "elastic_sigma", "elastic_alpha"):
            value = getattr(self, name)
            if not 0 <= value < np.inf:     # NaN too: it would act as 0
                raise ValidationError(f"{name} must be finite and >= 0, got {value}")
        if self.max_translation_px >= self.patch_size:
            raise ValidationError(f"max_translation_px must be < patch_size "
                                  f"{self.patch_size}, got {self.max_translation_px}")


@dataclass
class MiniBatch:
    """One balanced batch: images and the one-hot label maps."""
    images: np.ndarray        # [I, 1, P, P]
    onehot: np.ndarray        # [I, L, P, P]


class PatchDataset:
    """In-memory volumes plus one index: `slices[label]` lists, for every
    axial slice that holds the foreground label, `(case_index, z, cy, cx)`
    with (cy, cx) the label's in-slice centroid."""

    def __init__(self, cases: list[tuple[str, LabeledVolume]], num_labels: int):
        if not cases:
            raise ValidationError("dataset is empty")
        if num_labels < 2:
            raise ValidationError(f"num_labels must be >= 2, got {num_labels}")
        self.cases = cases
        self.num_labels = num_labels
        self.foreground = tuple(range(1, num_labels))
        self.slices: dict[int, list[tuple[int, int, float, float]]] = {
            l: [] for l in self.foreground}
        for ci, (_, vol) in enumerate(cases):
            if vol.labels.max(initial=0) >= num_labels:
                raise ValidationError(
                    f"case {ci} contains label {vol.labels.max()} >= {num_labels}"
                )
            for z in range(vol.labels.shape[0]):
                sl = vol.labels[z]
                for label in self.foreground:
                    ys, xs = np.nonzero(sl == label)
                    if ys.size:
                        self.slices[label].append((ci, z, float(ys.mean()), float(xs.mean())))
        for label in self.foreground:
            if not self.slices[label]:
                raise ValidationError(
                    f"label {label} does not occur in any slice of any case"
                )


def _crop_origin(center: float, patch: int, extent: int) -> int:
    return int(np.clip(round(center - patch / 2), 0, max(0, extent - patch)))


def _extract_patch(vol: LabeledVolume, z: int, y0: int, x0: int, patch: int):
    """Image and label map patch; slices smaller than the patch are
    zero-padded (image) / background-padded (labels) at the high side."""
    height, width = vol.labels.shape[1:]
    img = np.zeros((patch, patch))
    lab = np.zeros((patch, patch), dtype=np.int64)
    ys = slice(y0, min(y0 + patch, height))
    xs = slice(x0, min(x0 + patch, width))
    img[:ys.stop - y0, :xs.stop - x0] = vol.intensities[z, ys, xs]
    lab[:ys.stop - y0, :xs.stop - x0] = vol.labels[z, ys, xs]
    return img, lab


def _flip(img, lab):
    return img[:, ::-1].copy(), lab[:, ::-1].copy()


def _translate(img, lab, dy: int, dx: int):
    """Shift by (dy, dx); image and labels fill with 0 (background)."""
    patch = img.shape[0]
    out_img = np.zeros_like(img)
    out_lab = np.zeros_like(lab)
    src_y = slice(max(0, -dy), min(patch, patch - dy))
    src_x = slice(max(0, -dx), min(patch, patch - dx))
    dst_y = slice(max(0, dy), max(0, dy) + (src_y.stop - src_y.start))
    dst_x = slice(max(0, dx), max(0, dx) + (src_x.stop - src_x.start))
    out_img[dst_y, dst_x] = img[src_y, src_x]
    out_lab[dst_y, dst_x] = lab[src_y, src_x]
    return out_img, out_lab


def _elastic(img, lab, rng: Rng, sigma: float, alpha: float):
    patch = img.shape[0]
    # The y and x displacement fields, smoothed in-plane by one filter call,
    # then added to the pixel grid.
    coords = ndimage.gaussian_filter(rng.uniform((2, patch, patch), -1.0, 1.0),
                                     (0.0, sigma, sigma))
    coords *= alpha
    coords += np.indices((patch, patch), dtype=float)
    out_img = ndimage.map_coordinates(img, coords, order=1, mode="nearest")
    out_lab = ndimage.map_coordinates(lab, coords, order=0, mode="nearest")
    return out_img, out_lab


def augment(img: np.ndarray, lab: np.ndarray, rng: Rng, cfg: SamplerConfig):
    """Flip / translate / elastically deform one aligned image and label map;
    a step whose setting (flip_prob, max_translation_px, elastic_alpha) is 0
    is skipped."""
    if cfg.flip_prob > 0 and rng.child(0).random() < cfg.flip_prob:
        img, lab = _flip(img, lab)
    if cfg.max_translation_px > 0:
        t = cfg.max_translation_px
        dy, dx = (int(v) for v in rng.child(1).integers(-t, t + 1, (2,)))
        img, lab = _translate(img, lab, dy, dx)
    if cfg.elastic_alpha > 0:
        img, lab = _elastic(img, lab, rng.child(2), cfg.elastic_sigma, cfg.elastic_alpha)
    return img, lab


def sample_balanced_batch(dataset: PatchDataset, cfg: SamplerConfig, rng: Rng,
                          start_index: int = 0) -> MiniBatch:
    """Draw one balanced mini-batch; `start_index` is the global index of
    the batch's first patch (step * batch_size in a training loop)."""
    fg = dataset.foreground
    images = np.empty((cfg.batch_size, 1, cfg.patch_size, cfg.patch_size))
    labels = np.empty((cfg.batch_size, cfg.patch_size, cfg.patch_size), dtype=np.int64)
    for slot in range(cfg.batch_size):
        g = start_index + slot
        label = fg[g % len(fg)]
        prng = rng.child(g)
        entries = dataset.slices[label]
        ci, z, cy, cx = entries[int(prng.child(0).integers(0, len(entries), ()))]
        vol = dataset.cases[ci][1]
        j = cfg.center_jitter_px
        jy, jx = prng.child(1).uniform((2,), -j, j) if j > 0 else (0.0, 0.0)
        height, width = vol.labels.shape[1:]
        y0 = _crop_origin(cy + jy, cfg.patch_size, height)
        x0 = _crop_origin(cx + jx, cfg.patch_size, width)
        img, lab = _extract_patch(vol, z, y0, x0, cfg.patch_size)
        img, lab = augment(img, lab, prng.child(2), cfg)
        images[slot, 0] = img
        labels[slot] = lab
    return MiniBatch(images, one_hot(labels, dataset.num_labels))
