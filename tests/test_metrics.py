"""Overlap and surface-distance metrics against all-pairs brute force."""

import tracemalloc

import numpy as np
import pytest
from scipy import ndimage

from dicegrad import metrics, phantom
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


def full_volume_boundary(mask):
    """The six face neighbors as rolled copies of the padded mask."""
    padded = np.pad(mask, 1, constant_values=False)
    interior = np.ones_like(mask)
    for axis in range(3):
        for shift in (1, -1):
            interior &= np.roll(padded, shift, axis=axis)[1:-1, 1:-1, 1:-1]
    return mask & ~interior


def full_volume_asd(pred, gt, label, spacing_mm):
    """Both exact EDTs over the whole volume: the reference that the
    bounding-box crop must match bit for bit."""
    bnd_a = full_volume_boundary(pred == label)
    bnd_b = full_volume_boundary(gt == label)
    spacing = tuple(float(s) for s in spacing_mm)
    dist_to_b = ndimage.distance_transform_edt(~bnd_b, sampling=spacing)
    dist_to_a = ndimage.distance_transform_edt(~bnd_a, sampling=spacing)
    pooled_sum = float(dist_to_b[bnd_a].sum() + dist_to_a[bnd_b].sum())
    return pooled_sum / int(bnd_a.sum() + bnd_b.sum())


def random_mask_pair(seed, size=12, p=0.15):
    rng = Rng(seed)
    a = rng.uniform((size,) * 3, 0.0, 1.0) < p
    b = rng.child(1).uniform((size,) * 3, 0.0, 1.0) < p
    return a.astype(np.int64), b.astype(np.int64)


# ---------------------------------------------------------------------------
# Dice, from the per-case report's label-count table
# ---------------------------------------------------------------------------

def dsc(pred, gt):
    """Label 1's DSC of 0/1 label volumes, as `evaluate_case` reports it."""
    return metrics.evaluate_case(pred, _volume(gt), num_labels=2).per_label[1].dsc


def test_dice_trivial_cases():
    a = np.zeros((4, 4, 4), dtype=np.int64)
    b = np.zeros((4, 4, 4), dtype=np.int64)
    assert dsc(a, b) == 1.0      # both empty
    b[0, 0, 0] = 1
    assert dsc(a, b) == 0.0      # one empty
    a[1, 1, 1] = 1
    assert dsc(a, b) == 0.0      # disjoint
    assert dsc(b, b) == 1.0      # identical


def test_dice_hand_case():
    # |A| = 4, |B| = 2, overlap 2 -> 2*2/(4+2) = 2/3
    a = np.zeros((1, 1, 6), dtype=np.int64)
    b = np.zeros((1, 1, 6), dtype=np.int64)
    a[0, 0, :4] = 1
    b[0, 0, 2:4] = 1
    assert dsc(a, b) == 2.0 * 2 / 6


@pytest.mark.parametrize("seed", range(5))
def test_dice_matches_count_oracle(seed):
    pred, gt = random_mask_pair(seed)
    na = int((pred == 1).sum())
    nb = int((gt == 1).sum())
    ni = int(((pred == 1) & (gt == 1)).sum())
    assert dsc(pred, gt) == 2.0 * ni / (na + nb)


def reference_dice(pred, gt, label):
    """Dice from the two masks of `label`, scanned apart: the reference that
    `evaluate_case`'s label-count table must match bit for bit."""
    a = pred == label
    b = gt == label
    sa, sb = int(a.sum()), int(b.sum())
    if sa + sb == 0:
        return 1.0
    return 2.0 * int((a & b).sum()) / (sa + sb)


@pytest.mark.parametrize("seed", range(8))
def test_evaluate_case_dsc_is_bitwise_reference_dice(seed):
    # Labels 4 and 5 never appear in the ground truth, label 5 nowhere: absent
    # and both-empty labels are in every draw.
    rng = Rng(seed + 80)
    shape = tuple(int(s) for s in rng.integers(3, 12, 3))
    gt = rng.integers(0, 4, shape).astype(np.uint8 if seed % 2 else np.int64)
    pred = gt.copy() if seed == 0 else rng.child(1).integers(0, 5, shape)
    rep = metrics.evaluate_case(pred, _volume(gt), num_labels=6)
    assert rep.per_label[5].gt_voxels == rep.per_label[5].pred_voxels == 0
    for label, lm in rep.per_label.items():
        assert lm.dsc.hex() == reference_dice(pred, gt, label).hex()


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


def test_asd_label_validation():
    a = np.zeros((2, 2, 2), dtype=np.int64)
    with pytest.raises(ValidationError, match="nonnegative integer"):
        metrics.average_surface_distance(a, a, -1, (1.0, 1.0, 1.0))
    with pytest.raises(ValidationError, match="nonnegative integer"):
        metrics.average_surface_distance(a, a, 0.5, (1.0, 1.0, 1.0))


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
    assert base == moved


def test_asd_small_masks_in_corner_match_oracle():
    # a 24^3 volume whose masks fill a 6^3 corner: the EDTs run on a crop
    pred, gt = random_mask_pair(11, size=6, p=0.3)
    big_a = np.zeros((24, 24, 24), dtype=np.int64)
    big_b = np.zeros((24, 24, 24), dtype=np.int64)
    big_a[-6:, :6, -6:] = pred
    big_b[-6:, :6, -6:] = gt
    box = metrics._bounding_box(big_a.astype(bool) | big_b.astype(bool))
    assert all(s.stop - s.start <= 6 for s in box)
    spacing = (1.2, 1.0, 0.8)
    got = metrics.average_surface_distance(big_a, big_b, 1, spacing)
    assert abs(got - oracle_asd(big_a, big_b, 1, spacing)) < 1e-9
    assert got == full_volume_asd(big_a, big_b, 1, spacing)


def test_asd_spacing_linearity():
    pred, gt = random_mask_pair(8, size=10, p=0.2)
    one = metrics.average_surface_distance(pred, gt, 1, (1.0, 1.0, 1.0))
    two = metrics.average_surface_distance(pred, gt, 1, (2.0, 2.0, 2.0))
    assert abs(two - 2.0 * one) < 1e-12


# ---------------------------------------------------------------------------
# bounding-box crop: bitwise equal to the full-volume transform
# ---------------------------------------------------------------------------

SPACINGS = [(1.0, 1.0, 1.0), (1.2, 1.0, 1.0), (2.5, 0.7, 1.3)]


def assert_asd_bitwise(pred, gt, label=1, spacings=SPACINGS):
    for spacing in spacings:
        got = metrics.average_surface_distance(pred, gt, label, spacing)
        assert got == full_volume_asd(pred, gt, label, spacing), spacing


@pytest.mark.parametrize("axis", range(3))
@pytest.mark.parametrize("end", [0, -1])
def test_asd_crop_masks_touching_each_face(axis, end):
    shape = (9, 10, 11)
    a = np.zeros(shape, dtype=np.int64)
    b = np.zeros(shape, dtype=np.int64)
    a[3:6, 3:7, 4:8] = 1
    face = [slice(2, 7), slice(2, 8), slice(3, 9)]
    face[axis] = slice(0, 2) if end == 0 else slice(shape[axis] - 2, shape[axis])
    b[tuple(face)] = 1
    assert_asd_bitwise(a, b)
    assert_asd_bitwise(b, a)


def test_asd_crop_single_voxels_in_opposite_corners():
    a = np.zeros((7, 8, 9), dtype=np.int64)
    b = np.zeros_like(a)
    a[0, 0, 0] = 1
    b[-1, -1, -1] = 1
    box = metrics._bounding_box(a.astype(bool) | b.astype(bool))
    assert box == tuple(slice(0, n) for n in a.shape)
    assert_asd_bitwise(a, b)
    assert metrics.average_surface_distance(a, b, 1, (1.0, 1.0, 1.0)) == \
        float(np.sqrt(6 ** 2 + 7 ** 2 + 8 ** 2))


@pytest.mark.parametrize("seed", range(4))
def test_asd_crop_far_apart_pairs(seed):
    rng = Rng(seed + 300)
    a = np.zeros((20, 18, 22), dtype=np.int64)
    b = np.zeros_like(a)
    a[1:5, 2:6, 1:6] = rng.uniform((4, 4, 5), 0.0, 1.0) < 0.5
    b[13:19, 10:16, 15:21] = rng.child(1).uniform((6, 6, 6), 0.0, 1.0) < 0.5
    a[2, 3, 2] = b[15, 12, 17] = 1          # never empty
    assert_asd_bitwise(a, b)


@pytest.mark.parametrize("seed", range(4))
def test_asd_crop_dense_speckle(seed):
    pred, gt = random_mask_pair(seed + 400, size=16, p=0.5)
    assert_asd_bitwise(pred, gt)


def test_asd_speckle_memory_below_full_distance_arrays():
    # A 1-in-7 speckle fills the 64^3 box.  The full-volume distance
    # transform alone builds a float64 [3, 64, 64, 64] offset array; reading
    # distances at the boundary voxels only must peak below it.
    rng = Rng(21)
    pred = rng.integers(0, 7, (64, 64, 64))
    gt = rng.child(1).integers(0, 7, (64, 64, 64))
    spacing = (1.2, 1.0, 0.9)
    metrics.average_surface_distance(pred, gt, 3, spacing)
    tracemalloc.start()
    try:
        got = metrics.average_surface_distance(pred, gt, 3, spacing)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * pred.size * np.dtype(np.float64).itemsize, peak
    assert got == full_volume_asd(pred, gt, 3, spacing)


@pytest.fixture(scope="module")
def phantom_case():
    return phantom.generate_phantom(phantom.PhantomSpec(volume_size=32), 5)


@pytest.mark.parametrize("kind", ["self", "shifted", "dilated", "eroded", "speckled"])
def test_asd_crop_phantom_predictions(phantom_case, kind):
    gt = phantom_case.labels
    if kind == "self":
        pred = gt.copy()
    elif kind == "shifted":
        pred = np.roll(gt, (2, -1, 3), axis=(0, 1, 2))
    elif kind == "dilated":
        pred = ndimage.grey_dilation(gt, size=(3, 3, 3))
    elif kind == "eroded":
        pred = ndimage.grey_erosion(gt, size=(2, 2, 2))
    else:
        rng = Rng(9)
        noise = rng.integers(0, 7, gt.shape)
        pred = np.where(rng.child(1).uniform(gt.shape, 0.0, 1.0) < 0.1, noise, gt)
    labels = [l for l in range(1, 7) if (pred == l).any() and (gt == l).any()]
    assert len(labels) >= 4
    for label in labels:
        assert_asd_bitwise(pred, gt, label, [phantom_case.spacing_mm, (2.5, 0.7, 1.3)])


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


@pytest.mark.parametrize("seed", range(3))
def test_evaluate_case_counts_match_label_scans(seed):
    rng = Rng(seed + 60)
    gt = rng.integers(0, 5, (7, 6, 5))
    pred = rng.child(1).integers(0, 4, (7, 6, 5))     # label 4 never predicted
    rep = metrics.evaluate_case(pred, _volume(gt), num_labels=5)
    for label, lm in rep.per_label.items():
        assert lm.gt_voxels == int((gt == label).sum())
        assert lm.pred_voxels == int((pred == label).sum())
    assert rep.per_label[4].pred_voxels == 0


@pytest.mark.parametrize("bad", [-1, 3, 1000])
def test_evaluate_case_rejects_prediction_label_out_of_range(bad):
    gt = np.zeros((4, 4, 4), dtype=np.int64)
    gt[1, 1, 1] = 1
    pred = gt.copy()
    pred[2, 2, 2] = bad
    with pytest.raises(ValidationError, match="prediction"):
        metrics.evaluate_case(pred, _volume(gt), num_labels=3)


@pytest.mark.parametrize("bad", [-1, 3])
def test_evaluate_case_rejects_ground_truth_label_out_of_range(bad):
    gt = np.zeros((4, 4, 4), dtype=np.int64)
    vol = _volume(gt)
    vol.labels[0, 0, 0] = bad            # LabeledVolume checks only at build
    with pytest.raises(ValidationError, match="ground truth"):
        metrics.evaluate_case(gt.copy(), vol, num_labels=3)


def test_evaluate_case_rejects_non_integer_labels():
    gt = np.zeros((4, 4, 4), dtype=np.int64)
    with pytest.raises(ValidationError, match="integer"):
        metrics.evaluate_case(gt.astype(float), _volume(gt), num_labels=3)


def test_evaluate_case_shape_mismatch():
    with pytest.raises(ValidationError):
        metrics.evaluate_case(np.zeros((2, 2, 2), dtype=np.int64),
                              _volume(np.zeros((2, 2, 3), dtype=np.int64)), num_labels=2)
