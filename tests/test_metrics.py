"""Overlap and surface-distance metrics against all-pairs brute force."""

import numpy as np
import pytest

from dicegrad import metrics
from dicegrad.errors import ValidationError
from dicegrad.tensor_core import Rng
from dicegrad.volume_io import LabeledVolume


# ---------------------------------------------------------------------------
# oracles: plain-loop boundary extraction, all-pairs distance
# ---------------------------------------------------------------------------

def oracle_boundary(mask):
    """Loop over voxels and the six face neighbors directly."""
    d, h, w = mask.shape
    out = np.zeros_like(mask)
    for z in range(d):
        for y in range(h):
            for x in range(w):
                if not mask[z, y, x]:
                    continue
                for dz, dy, dx in ((1, 0, 0), (-1, 0, 0), (0, 1, 0),
                                   (0, -1, 0), (0, 0, 1), (0, 0, -1)):
                    zz, yy, xx = z + dz, y + dy, x + dx
                    if not (0 <= zz < d and 0 <= yy < h and 0 <= xx < w):
                        out[z, y, x] = True
                        break
                    if not mask[zz, yy, xx]:
                        out[z, y, x] = True
                        break
    return out


def oracle_asd(pred, gt, label, spacing):
    """Symmetric pooled mean over all boundary-voxel pairs, O(n^2)."""
    spacing = np.asarray(spacing, dtype=float)
    pa = np.argwhere(oracle_boundary(pred == label)) * spacing
    pb = np.argwhere(oracle_boundary(gt == label)) * spacing
    diff = pa[:, None, :] - pb[None, :, :]
    dmat = np.sqrt((diff ** 2).sum(axis=2))
    return float(dmat.min(axis=1).sum() + dmat.min(axis=0).sum()) / (len(pa) + len(pb))


def random_mask_pair(seed, size=12, p=0.15):
    rng = Rng(seed)
    a = rng.uniform((size,) * 3, 0.0, 1.0) < p
    b = rng.child(1).uniform((size,) * 3, 0.0, 1.0) < p
    return a.astype(np.int64), b.astype(np.int64)


# ---------------------------------------------------------------------------
# Dice
# ---------------------------------------------------------------------------

def test_dice_trivial_cases():
    a = np.zeros((4, 4, 4), dtype=np.int64)
    b = np.zeros((4, 4, 4), dtype=np.int64)
    assert metrics.dice_coefficient(a, b, 1) == 1.0      # both empty
    b[0, 0, 0] = 1
    assert metrics.dice_coefficient(a, b, 1) == 0.0      # one empty
    a[1, 1, 1] = 1
    assert metrics.dice_coefficient(a, b, 1) == 0.0      # disjoint
    assert metrics.dice_coefficient(b, b, 1) == 1.0      # identical


def test_dice_hand_case():
    # |A| = 4, |B| = 2, overlap 2 -> 2*2/(4+2) = 2/3
    a = np.zeros((1, 1, 6), dtype=np.int64)
    b = np.zeros((1, 1, 6), dtype=np.int64)
    a[0, 0, :4] = 1
    b[0, 0, 2:4] = 1
    assert metrics.dice_coefficient(a, b, 1) == 2.0 * 2 / 6


@pytest.mark.parametrize("seed", range(5))
def test_dice_matches_count_oracle(seed):
    pred, gt = random_mask_pair(seed)
    na = int((pred == 1).sum())
    nb = int((gt == 1).sum())
    ni = int(((pred == 1) & (gt == 1)).sum())
    assert metrics.dice_coefficient(pred, gt, 1) == 2.0 * ni / (na + nb)


def test_dice_validation():
    a = np.zeros((2, 2, 2), dtype=np.int64)
    with pytest.raises(ValidationError):
        metrics.dice_coefficient(a, np.zeros((2, 2, 3), dtype=np.int64), 1)
    with pytest.raises(ValidationError):
        metrics.dice_coefficient(a, a, -1)
    with pytest.raises(ValidationError):
        metrics.dice_coefficient(a, a, 0.5)


# ---------------------------------------------------------------------------
# boundary extraction
# ---------------------------------------------------------------------------

def test_boundary_solid_cube():
    mask = np.zeros((5, 5, 5), dtype=bool)
    mask[1:4, 1:4, 1:4] = True           # 27 voxels, 1 interior
    bnd = metrics.boundary_mask(mask)
    assert int(bnd.sum()) == 26
    assert not bnd[2, 2, 2]


def test_boundary_single_voxel_and_border():
    mask = np.zeros((3, 3, 3), dtype=bool)
    mask[1, 1, 1] = True
    assert np.array_equal(metrics.boundary_mask(mask), mask)
    # a mask touching the volume border is boundary there: outside counts
    # as background
    full = np.ones((2, 2, 2), dtype=bool)
    assert metrics.boundary_mask(full).all()


@pytest.mark.parametrize("seed", range(8))
def test_boundary_matches_loop_oracle(seed):
    mask = random_mask_pair(seed, size=9, p=0.4)[0] == 1
    assert np.array_equal(metrics.boundary_mask(mask), oracle_boundary(mask))


# ---------------------------------------------------------------------------
# average surface distance
# ---------------------------------------------------------------------------

def test_asd_identical_masks_zero():
    pred, _ = random_mask_pair(3, size=8, p=0.3)
    assert metrics.average_surface_distance(pred, pred.copy(), 1, (1.0, 1.0, 1.0)) == 0.0


def test_asd_single_voxel_pair():
    a = np.zeros((8, 4, 4), dtype=np.int64)
    b = np.zeros((8, 4, 4), dtype=np.int64)
    a[1, 1, 1] = 1
    b[4, 1, 1] = 1                       # 3 voxels apart along z
    got = metrics.average_surface_distance(a, b, 1, (1.2, 1.0, 1.0))
    assert abs(got - 3 * 1.2) < 1e-12


def test_asd_empty_mask_rejected():
    a = np.zeros((4, 4, 4), dtype=np.int64)
    b = np.zeros((4, 4, 4), dtype=np.int64)
    b[1, 1, 1] = 1
    with pytest.raises(ValidationError):
        metrics.average_surface_distance(a, b, 1, (1.0, 1.0, 1.0))


@pytest.mark.parametrize("seed", range(10))
def test_asd_matches_all_pairs_oracle(seed):
    pred, gt = random_mask_pair(seed + 100, size=10, p=0.2)
    if not (pred == 1).any() or not (gt == 1).any():
        pytest.skip("degenerate draw")
    spacing = (1.2, 1.0, 0.8)
    got = metrics.average_surface_distance(pred, gt, 1, spacing)
    assert abs(got - oracle_asd(pred, gt, 1, spacing)) < 1e-9


@pytest.mark.parametrize("seed", range(5))
def test_asd_symmetry(seed):
    pred, gt = random_mask_pair(seed + 200, size=10, p=0.2)
    s = (1.1, 0.9, 1.3)
    ab = metrics.average_surface_distance(pred, gt, 1, s)
    ba = metrics.average_surface_distance(gt, pred, 1, s)
    assert ab == ba


def test_asd_translation_invariance():
    pred, gt = random_mask_pair(7, size=8, p=0.25)
    big_a = np.zeros((14, 14, 14), dtype=np.int64)
    big_b = np.zeros((14, 14, 14), dtype=np.int64)
    big_a[1:9, 1:9, 1:9] = pred
    big_b[1:9, 1:9, 1:9] = gt
    base = metrics.average_surface_distance(big_a, big_b, 1, (1.0, 1.2, 0.7))
    shift_a = np.roll(big_a, (3, 2, 4), axis=(0, 1, 2))
    shift_b = np.roll(big_b, (3, 2, 4), axis=(0, 1, 2))
    moved = metrics.average_surface_distance(shift_a, shift_b, 1, (1.0, 1.2, 0.7))
    assert abs(base - moved) < 1e-12


def test_asd_spacing_linearity():
    pred, gt = random_mask_pair(8, size=10, p=0.2)
    one = metrics.average_surface_distance(pred, gt, 1, (1.0, 1.0, 1.0))
    two = metrics.average_surface_distance(pred, gt, 1, (2.0, 2.0, 2.0))
    assert abs(two - 2.0 * one) < 1e-12


# ---------------------------------------------------------------------------
# per-case report
# ---------------------------------------------------------------------------

def _volume(labels, spacing=(1.0, 1.0, 1.0)):
    return LabeledVolume(intensities=np.zeros(labels.shape),
                         labels=labels, spacing_mm=spacing)


def test_evaluate_case_self_comparison():
    rng = Rng(55)
    labels = rng.integers(0, 4, (6, 6, 6))
    rep = metrics.evaluate_case(labels.copy(), _volume(labels), num_labels=4)
    assert sorted(rep.per_label) == [1, 2, 3]
    for lm in rep.per_label.values():
        assert lm.dsc == 1.0
        assert lm.asd_mm == 0.0
        assert lm.gt_voxels == lm.pred_voxels > 0


def test_evaluate_case_absent_label():
    gt = np.zeros((4, 4, 4), dtype=np.int64)
    gt[1, 1, 1] = 1
    pred = np.zeros_like(gt)             # label 1 predicted nowhere
    rep = metrics.evaluate_case(pred, _volume(gt), num_labels=3)
    lm = rep.per_label[1]
    assert lm.dsc == 0.0 and lm.asd_mm is None and lm.pred_voxels == 0
    lm2 = rep.per_label[2]               # label 2 in neither volume
    assert lm2.dsc == 1.0 and lm2.asd_mm is None and lm2.gt_voxels == 0


def test_evaluate_case_shape_mismatch():
    with pytest.raises(ValidationError):
        metrics.evaluate_case(np.zeros((2, 2, 2), dtype=np.int64),
                              _volume(np.zeros((2, 2, 3), dtype=np.int64)))
