"""Volumetric evaluation: Dice overlap and average surface distance.

Dice comes from one label-count table of the two integer label volumes:
the voxels per label on each side and the voxels where both agree, so
DSC = 2|A n B| / (|A| + |B|) per label, 1.0 when both masks are empty and
0.0 when exactly one is.  The surface distance works on the binary masks
of one label and uses a fixed, documented definition so results are
reproducible:

  * a foreground voxel is a boundary voxel iff any of its six face
    neighbors is background or lies outside the volume (the volume border
    counts as background);
  * distances are Euclidean between voxel centers, scaled per-axis by the
    voxel spacing in millimeters (no sub-voxel surface model);
  * the reported value is the symmetric pooled mean: the distances from
    every pred-boundary voxel to the gt boundary and from every
    gt-boundary voxel to the pred boundary are pooled into one average.

The production path takes the exact Euclidean feature transform (each
voxel's nearest boundary voxel) on the bounding box of the two boundaries
only, and forms distances at the boundary voxels it sums, not over the
whole box: the crop holds every boundary voxel and keeps their row-major
order, and the distances use the transform's own arithmetic, so the result
is bitwise that of the full-volume distance transform.  The test suite
holds it to an O(n^2) all-pairs oracle and to the full-volume expression.
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


def _distances_at(query: np.ndarray, features: np.ndarray, spacing) -> np.ndarray:
    """Distance from each `query` voxel, in row-major order, to its nearest
    `features` voxel.

    The exact EDT's feature transform gives every voxel's nearest feature;
    the distances are then formed at the queried voxels only, with the
    arithmetic `ndimage.distance_transform_edt` applies to the whole volume
    (int32 offset, float64 cast, scale, square, add.reduce over the axes,
    sqrt), so each value is bitwise the full distance map's.
    """
    ft = ndimage.distance_transform_edt(~features, sampling=spacing,
                                        return_distances=False, return_indices=True)
    nearest = ft[:, query]      # [ndim, n]: row-major order, as a mask index keeps it
    del ft
    dt = (nearest - np.array(np.nonzero(query), dtype=np.int32)).astype(np.float64)
    dt *= np.asarray(spacing, dtype=np.float64)[:, None]
    np.multiply(dt, dt, dt)
    return np.sqrt(np.add.reduce(dt, axis=0))


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
    pooled_sum = float(_distances_at(bnd_a, bnd_b, spacing).sum()
                       + _distances_at(bnd_b, bnd_a, spacing).sum())
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
    ASD instead of a crash.  Every DSC comes from the per-label counts of
    each side and of the voxels where the two agree.  A label outside
    [0, num_labels) on either side raises ValidationError."""
    if pred.shape != gt.labels.shape:
        raise ValidationError(f"shape mismatch {pred.shape} vs {gt.labels.shape}")
    gt_counts = _label_counts(gt.labels, num_labels, "ground truth")
    pred_counts = _label_counts(pred, num_labels, "prediction")
    inter = np.bincount(gt.labels[pred == gt.labels], minlength=num_labels)
    per_label = {}
    for label in range(1, num_labels):
        gt_n = int(gt_counts[label])
        pred_n = int(pred_counts[label])
        dsc = 2.0 * int(inter[label]) / (gt_n + pred_n) if gt_n + pred_n else 1.0
        asd = (average_surface_distance(pred, gt.labels, label, gt.spacing_mm)
               if gt_n and pred_n else None)
        per_label[label] = LabelMetrics(dsc, asd, gt_n, pred_n)
    return MetricsReport(per_label)
