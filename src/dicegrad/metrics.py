"""Volumetric evaluation: Dice overlap and average surface distance.

Both metrics operate on binary masks extracted from integer label volumes.
The surface distance uses a fixed, documented definition so results are
reproducible:

  * a foreground voxel is a boundary voxel iff any of its six face
    neighbors is background or lies outside the volume (the volume border
    counts as background);
  * distances are Euclidean between voxel centers, scaled per-axis by the
    voxel spacing in millimeters (no sub-voxel surface model);
  * the reported value is the symmetric pooled mean: the distances from
    every pred-boundary voxel to the gt boundary and from every
    gt-boundary voxel to the pred boundary are pooled into one average.

The production path computes nearest-boundary distances with an exact
Euclidean distance transform; the test suite holds it to an O(n^2)
all-pairs oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import ValidationError
from .volume_io import LabeledVolume


def _binary_mask(volume: np.ndarray, label: int) -> np.ndarray:
    if not float(label).is_integer() or label < 0:
        raise ValidationError(f"label must be a nonnegative integer, got {label!r}")
    return volume == int(label)


def dice_coefficient(pred: np.ndarray, gt: np.ndarray, label: int) -> float:
    """2|A n B| / (|A| + |B|) for the masks of `label`; 1.0 when both are
    empty, 0.0 when exactly one is."""
    if pred.shape != gt.shape:
        raise ValidationError(f"shape mismatch {pred.shape} vs {gt.shape}")
    a = _binary_mask(pred, label)
    b = _binary_mask(gt, label)
    sa, sb = int(a.sum()), int(b.sum())
    if sa + sb == 0:
        return 1.0
    return 2.0 * int((a & b).sum()) / (sa + sb)


def boundary_mask(mask: np.ndarray) -> np.ndarray:
    """Foreground voxels with a background (or out-of-volume) face neighbor."""
    if mask.dtype != bool or mask.ndim != 3:
        raise ValidationError("boundary extraction expects a 3D boolean mask")
    padded = np.pad(mask, 1, constant_values=False)
    interior = np.ones_like(mask)
    for axis in range(3):
        for shift in (1, -1):
            interior &= np.roll(padded, shift, axis=axis)[1:-1, 1:-1, 1:-1]
    return mask & ~interior


def average_surface_distance(pred: np.ndarray, gt: np.ndarray, label: int,
                             spacing_mm) -> float:
    """Symmetric pooled mean surface distance in mm (both masks nonempty)."""
    if pred.shape != gt.shape:
        raise ValidationError(f"shape mismatch {pred.shape} vs {gt.shape}")
    a = _binary_mask(pred, label)
    b = _binary_mask(gt, label)
    if not a.any() or not b.any():
        raise ValidationError(f"surface distance undefined: empty mask for label {label}")
    bnd_a = boundary_mask(a)
    bnd_b = boundary_mask(b)
    spacing = tuple(float(s) for s in spacing_mm)
    # Exact EDT of the complement: at every voxel, distance to the nearest
    # boundary voxel of the other mask.
    dist_to_b = ndimage.distance_transform_edt(~bnd_b, sampling=spacing)
    dist_to_a = ndimage.distance_transform_edt(~bnd_a, sampling=spacing)
    pooled_sum = float(dist_to_b[bnd_a].sum() + dist_to_a[bnd_b].sum())
    pooled_n = int(bnd_a.sum() + bnd_b.sum())
    return pooled_sum / pooled_n


@dataclass
class LabelMetrics:
    label: int
    dsc: float
    asd_mm: float | None        # None when either mask is empty
    gt_voxels: int
    pred_voxels: int


@dataclass
class MetricsReport:
    per_label: dict[int, LabelMetrics]
    spacing_mm: tuple[float, float, float]


def evaluate_case(pred: np.ndarray, gt: LabeledVolume,
                  num_labels: int | None = None) -> MetricsReport:
    """Per-foreground-label DSC and ASD of a predicted label volume against
    the ground truth; labels with an empty mask on either side get a None
    ASD instead of a crash."""
    if pred.shape != gt.labels.shape:
        raise ValidationError(f"shape mismatch {pred.shape} vs {gt.labels.shape}")
    if num_labels is None:
        num_labels = int(max(pred.max(initial=0), gt.labels.max(initial=0))) + 1
    per_label = {}
    for label in range(1, num_labels):
        gt_n = int((gt.labels == label).sum())
        pred_n = int((pred == label).sum())
        dsc = dice_coefficient(pred, gt.labels, label)
        if gt_n and pred_n:
            asd = average_surface_distance(pred, gt.labels, label, gt.spacing_mm)
        else:
            asd = None
        per_label[label] = LabelMetrics(label, dsc, asd, gt_n, pred_n)
    return MetricsReport(per_label, tuple(gt.spacing_mm))
