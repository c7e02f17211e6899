"""Deterministic synthetic head phantoms with a controlled class-imbalance
profile.

Each case is a cubic volume holding seven labels: background plus six
structure analogs chosen to mirror a radiotherapy planning scan --

  1  stem analog            vertical cylinder, moderate contrast
  2  jaw analog             horseshoe arc in the lower slices, high contrast
  3  chiasm analog          tiny X-shaped cross, very low contrast
  4  nerve analog           two thin tubes joining the cross, very low contrast
  5  large gland analog     lateral ellipsoid pair
  6  small gland analog     smaller, lower ellipsoid pair

Geometry is evaluated analytically on a per-case affinely jittered
coordinate grid (translation, rotation about z, isotropic scale), so the
same (spec, seed) pair always reproduces the identical volume bit for bit.
Small structures are painted last and therefore never lose voxels to the
larger ones.  The label fractions land in the regime that motivates
balanced sampling: the cross occupies well under 0.2% of the volume while
background stays above 90%.

Only the volume size, noise and `low_contrast` are settable
(`PhantomSpec`).  Module constants fix the rest: the voxel spacing
`SPACING_MM`; the intensities `INTENSITY_AIR`, `INTENSITY_HEAD`,
`INTENSITY_STEM`, `INTENSITY_JAW`, `INTENSITY_GLANDS_BIG` and
`INTENSITY_GLANDS_SMALL`; the per-case jitter
ranges `MAX_SHIFT_VOX`, `MAX_ROT_RAD`, `SCALE_LOW` and `SCALE_HIGH`; and
`RETRIES`, the number of derived seeds tried per case.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .tensor_core import Rng
from .volume_io import LabeledVolume

NUM_LABELS = 7
FOREGROUND_LABELS = (1, 2, 3, 4, 5, 6)

STEM, JAW, CROSS, TUBES, GLANDS_BIG, GLANDS_SMALL = FOREGROUND_LABELS

SPACING_MM = (1.2, 1.0, 1.0)     # voxel spacing in mm, (z, y, x)


# Absolute intensities; the analogs of soft structures sit within
# `PhantomSpec.low_contrast` of the head tissue value.
INTENSITY_AIR = 0.05
INTENSITY_HEAD = 0.20
INTENSITY_STEM = 0.32
INTENSITY_JAW = 0.80
INTENSITY_GLANDS_BIG = 0.34
INTENSITY_GLANDS_SMALL = 0.30

# Per-case affine jitter ranges, and the seeds tried per case.
MAX_SHIFT_VOX = 3.0
MAX_ROT_RAD = 0.12
SCALE_LOW = 0.92
SCALE_HIGH = 1.08
RETRIES = 8


@dataclass
class PhantomSpec:
    volume_size: int = 64
    noise_std: float = 0.02
    low_contrast: float = 0.08

    def __post_init__(self):
        if self.volume_size < 32:
            raise ValidationError(f"volume_size must be >= 32, got {self.volume_size}")
        if not 0 <= self.noise_std < np.inf:
            raise ValidationError(f"noise_std must be finite and >= 0, got {self.noise_std}")
        if not np.isfinite(self.low_contrast):      # any sign; 0 is no contrast
            raise ValidationError(f"low_contrast must be finite, got {self.low_contrast}")


def _jittered_grid(spec: PhantomSpec, rng: Rng):
    """Voxel coordinates mapped through the inverse per-case affine, in
    canonical units where the volume spans [0, 64)."""
    n = spec.volume_size
    shift = rng.uniform((3,), -MAX_SHIFT_VOX, MAX_SHIFT_VOX)
    theta = float(rng.uniform((), -MAX_ROT_RAD, MAX_ROT_RAD))
    scale = float(rng.uniform((), SCALE_LOW, SCALE_HIGH))
    zs = np.arange(n, dtype=float)[:, None, None]
    ys = np.arange(n, dtype=float)[None, :, None]
    xs = np.arange(n, dtype=float)[None, None, :]
    unit = 64.0 / n
    z = (zs - shift[0]) / scale * unit
    yc = (ys - shift[1]) - (n - 1) / 2.0
    xc = (xs - shift[2]) - (n - 1) / 2.0
    cos_t, sin_t = np.cos(theta), np.sin(theta)
    y = (cos_t * yc + sin_t * xc) / scale * unit + 31.5
    x = (-sin_t * yc + cos_t * xc) / scale * unit + 31.5
    return np.broadcast_to(z, (n, n, n)), y, x


def _structure_masks(z, y, x) -> dict[int, np.ndarray]:
    """Implicit geometry in canonical [0, 64) coordinates."""
    masks = {}

    head = (((z - 32.0) / 30.0) ** 2 + ((y - 31.5) / 26.0) ** 2
            + ((x - 31.5) / 24.0) ** 2) <= 1.0
    masks[0] = head        # head tissue; label stays background

    masks[STEM] = (((y - 38.0) ** 2 + (x - 31.5) ** 2 <= 7.8 ** 2)
                   & (z >= 14.0) & (z <= 58.0))

    ring = (np.sqrt((y - 26.0) ** 2 + (x - 31.5) ** 2) - 17.0) ** 2 \
        + (z - 13.0) ** 2 <= 3.0 ** 2
    masks[JAW] = ring & (y <= 30.0)

    # X-shaped cross: two diagonal bars in the axial plane around (40, 26, 31.5)
    u = (y - 26.0) + (x - 31.5)
    v = (y - 26.0) - (x - 31.5)
    in_box = (np.abs(y - 26.0) <= 5.0) & (np.abs(x - 31.5) <= 5.0) \
        & (np.abs(z - 40.0) <= 1.2)
    masks[CROSS] = in_box & ((np.abs(u) <= 1.8) | (np.abs(v) <= 1.8))

    # two thin tubes running outward/backward from the cross ends
    tube_r = 1.3
    tubes = np.zeros_like(masks[CROSS])
    for sign in (-1.0, 1.0):
        # parametrize distance to a slanted line segment in the axial plane
        x0, y0 = 31.5 + sign * 5.0, 26.0
        dx_t, dy_t = sign * 0.85, -0.53     # unit direction, leaning forward
        t = np.clip((x - x0) * dx_t + (y - y0) * dy_t, 0.0, 13.0)
        d2 = (x - (x0 + t * dx_t)) ** 2 + (y - (y0 + t * dy_t)) ** 2
        tubes |= (d2 <= tube_r ** 2) & (np.abs(z - 40.0) <= 1.1)
    masks[TUBES] = tubes

    big = np.zeros_like(tubes)
    small = np.zeros_like(tubes)
    for sign in (-1.0, 1.0):
        big |= (((z - 34.0) / 9.0) ** 2 + ((y - 34.0) / 6.0) ** 2
                + ((x - (31.5 + sign * 21.0)) / 5.0) ** 2) <= 1.0
        small |= (((z - 12.0) / 4.5) ** 2 + ((y - 20.0) / 4.0) ** 2
                  + ((x - (31.5 + sign * 10.0)) / 3.5) ** 2) <= 1.0
    masks[GLANDS_BIG] = big
    masks[GLANDS_SMALL] = small
    return masks


# paint order: large structures first so the small ones keep their voxels
_PAINT_ORDER = (STEM, JAW, GLANDS_BIG, GLANDS_SMALL, TUBES, CROSS)


def generate_phantom(spec: PhantomSpec, case_seed: int) -> LabeledVolume:
    """Build one deterministic case; retries with derived seeds if the
    affine jitter pushes any structure fully outside the volume."""
    for attempt in range(RETRIES):
        rng = Rng(case_seed).child(attempt)
        z, y, x = _jittered_grid(spec, rng.child(0))
        masks = _structure_masks(z, y, x)
        labels = np.zeros((spec.volume_size,) * 3, dtype=np.int64)
        for label in _PAINT_ORDER:
            labels[masks[label]] = label
        if all((labels == lab).any() for lab in FOREGROUND_LABELS):
            break
    else:
        raise ValidationError(
            f"case seed {case_seed}: a structure fell outside the volume "
            f"in all {RETRIES} attempts"
        )

    intensity = {
        STEM: INTENSITY_STEM,
        JAW: INTENSITY_JAW,
        CROSS: INTENSITY_HEAD + spec.low_contrast,
        TUBES: INTENSITY_HEAD + spec.low_contrast * 0.85,
        GLANDS_BIG: INTENSITY_GLANDS_BIG,
        GLANDS_SMALL: INTENSITY_GLANDS_SMALL,
    }
    img = np.full(labels.shape, INTENSITY_AIR)
    img[masks[0]] = INTENSITY_HEAD
    for label in _PAINT_ORDER:
        img[labels == label] = intensity[label]
    img += rng.child(1).normal(labels.shape, std=spec.noise_std)
    return LabeledVolume(img, labels, SPACING_MM)


def case_seed_for(base_seed: int, index: int) -> int:
    # disjoint per-case seeds; the stride keeps independent datasets with
    # nearby base seeds from colliding
    return base_seed * 1_000_003 + index


def generate_dataset(spec: PhantomSpec, num_cases: int, base_seed: int):
    """An iterator of (case_id, seed, volume) for a reproducible ordered
    dataset; the arguments are checked on the call, before any case is built."""
    if num_cases < 1:
        raise ValidationError(f"num_cases must be >= 1, got {num_cases}")
    if base_seed < 0:               # numpy seeds only non-negative integers
        raise ValidationError(f"base seed must be >= 0, got {base_seed}")
    seeds = [case_seed_for(base_seed, idx) for idx in range(num_cases)]
    return ((f"case_{idx:03d}", seed, generate_phantom(spec, seed))
            for idx, seed in enumerate(seeds))
