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
Euclidean distance transform on the bounding box of the two boundaries
only: the crop holds every boundary voxel and keeps their row-major order,
so the result is bitwise that of the full-volume transform.  The test
suite holds it to an O(n^2) all-pairs oracle and to the full-volume
expression.
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
    p = np.pad(mask, 1, constant_values=False)
    interior = p[:-2, 1:-1, 1:-1] & p[2:, 1:-1, 1:-1]
    interior &= p[1:-1, :-2, 1:-1]
    interior &= p[1:-1, 2:, 1:-1]
    interior &= p[1:-1, 1:-1, :-2]
    interior &= p[1:-1, 1:-1, 2:]
    return mask & ~interior


def _bounding_box(mask: np.ndarray) -> tuple[slice, ...]:
    """Slices of the smallest box holding every True voxel of a nonempty mask."""
    box = []
    for axis in range(mask.ndim):
        others = tuple(a for a in range(mask.ndim) if a != axis)
        idx = np.flatnonzero(mask.any(axis=others))
        box.append(slice(int(idx[0]), int(idx[-1]) + 1))
    return tuple(box)


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
    # The box around both boundaries holds every feature and every queried
    # voxel; the voxels cropped away hold neither.  The crop keeps the
    # row-major order of the summed distances, so the sums are bitwise the
    # full volume's.
    box = _bounding_box(bnd_a | bnd_b)
    bnd_a, bnd_b = bnd_a[box], bnd_b[box]
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
    dsc: float
    asd_mm: float | None        # None when either mask is empty
    gt_voxels: int
    pred_voxels: int


@dataclass
class MetricsReport:
    per_label: dict[int, LabelMetrics]


def _label_counts(volume: np.ndarray, num_labels: int, what: str) -> np.ndarray:
    """Voxels per label; a label outside [0, num_labels) is an error.

    The range is checked before counting, so a stray huge label cannot make
    `bincount` allocate one bin per value up to it."""
    lo, hi = volume.min(initial=0), volume.max(initial=0)
    if lo < 0 or hi >= num_labels:
        raise ValidationError(f"{what} holds label {lo if lo < 0 else hi}, "
                              f"outside [0, {num_labels})")
    try:
        return np.bincount(volume.ravel(), minlength=num_labels)
    except TypeError:
        raise ValidationError(f"{what} must hold integer labels, "
                              f"not {volume.dtype}") from None


def evaluate_case(pred: np.ndarray, gt: LabeledVolume, num_labels: int) -> MetricsReport:
    """Per-foreground-label DSC and ASD of a predicted label volume against
    the ground truth; labels with an empty mask on either side get a None
    ASD instead of a crash.  A label outside [0, num_labels) on either side
    raises ValidationError."""
    if pred.shape != gt.labels.shape:
        raise ValidationError(f"shape mismatch {pred.shape} vs {gt.labels.shape}")
    gt_counts = _label_counts(gt.labels, num_labels, "ground truth")
    pred_counts = _label_counts(pred, num_labels, "prediction")
    per_label = {}
    for label in range(1, num_labels):
        gt_n = int(gt_counts[label])
        pred_n = int(pred_counts[label])
        dsc = dice_coefficient(pred, gt.labels, label)
        if gt_n and pred_n:
            asd = average_surface_distance(pred, gt.labels, label, gt.spacing_mm)
        else:
            asd = None
        per_label[label] = LabelMetrics(dsc, asd, gt_n, pred_n)
    return MetricsReport(per_label)
