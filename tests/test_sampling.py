"""Balanced patch sampler and augmentation pipeline."""

import numpy as np
import pytest
from scipy import ndimage

from dicegrad import sampling
from dicegrad.errors import ValidationError
from dicegrad.losses import one_hot
from dicegrad.phantom import PhantomSpec, generate_phantom
from dicegrad.sampling import (PatchDataset, SamplerConfig, augment,
                               sample_balanced_batch)
from dicegrad.tensor_core import Rng
from dicegrad.volume_io import LabeledVolume


@pytest.fixture(scope="module")
def dataset():
    spec = PhantomSpec()
    cases = [(f"case_{i:03d}", generate_phantom(spec, 100 + i)) for i in range(3)]
    return PatchDataset(cases, num_labels=7)


@pytest.fixture
def crops(dataset, monkeypatch):
    """Every crop the sampler takes, in order, as (case_index, z, y0, x0);
    the case index is found by identity in `dataset.cases`."""
    seen = []
    extract = sampling._extract_patch

    def recording(vol, z, y0, x0, patch):
        ci = next(i for i, (_, v) in enumerate(dataset.cases) if v is vol)
        seen.append((ci, z, y0, x0))
        return extract(vol, z, y0, x0, patch)

    monkeypatch.setattr(sampling, "_extract_patch", recording)
    return seen


def target(dataset, g):
    """The label designated for global patch index `g` (round-robin)."""
    return dataset.foreground[g % len(dataset.foreground)]


def small_cfg(**kw):
    defaults = dict(patch_size=32, batch_size=8, center_jitter_px=8,
                    elastic_sigma=4.0, elastic_alpha=2.0)
    defaults.update(kw)
    return SamplerConfig(**defaults)


def checkers_pair(patch=16, num_labels=3):
    img = np.indices((patch, patch)).sum(axis=0).astype(float)
    lab = (np.indices((patch, patch)).sum(axis=0) % num_labels)
    return img, lab


# ---------------------------------------------------------------------------
# batch structure
# ---------------------------------------------------------------------------

def test_batch_shapes_and_onehot(dataset):
    cfg = small_cfg()
    batch = sample_balanced_batch(dataset, cfg, Rng(1))
    assert batch.images.shape == (8, 1, 32, 32)
    assert batch.onehot.shape == (8, 7, 32, 32)
    assert np.isin(batch.onehot, (0.0, 1.0)).all()
    assert (batch.onehot.sum(axis=1) == 1.0).all()


def test_round_robin_pigeonhole(dataset, crops):
    # batch of 8 over 6 foreground labels: every label targeted at least
    # once, each from a slice that holds it
    sample_balanced_batch(dataset, small_cfg(), Rng(2))
    targets = [target(dataset, g) for g in range(len(crops))]
    assert set(targets) >= {1, 2, 3, 4, 5, 6}
    assert targets[:6] == [1, 2, 3, 4, 5, 6]
    for (ci, z, _, _), label in zip(crops, targets):
        assert (dataset.cases[ci][1].labels[z] == label).any(), (ci, z, label)


def test_target_label_visible_in_patch(dataset):
    # centroid-anchored crops contain their designated label whenever the
    # patch spans the structure's extent about its centroid (48 px covers
    # every default structure, including the ring arcs of the jaw analog)
    cfg = small_cfg(patch_size=48, center_jitter_px=0, flip_prob=0.0,
                    max_translation_px=0, elastic_alpha=0.0)     # no augmentation
    batch = sample_balanced_batch(dataset, cfg, Rng(3))
    for slot in range(cfg.batch_size):
        assert batch.onehot[slot, target(dataset, slot)].sum() > 0, slot


def test_determinism_and_stream_independence(dataset):
    cfg = small_cfg()
    a = sample_balanced_batch(dataset, cfg, Rng(7), start_index=40)
    b = sample_balanced_batch(dataset, cfg, Rng(7), start_index=40)
    assert np.array_equal(a.images, b.images)
    assert np.array_equal(a.onehot, b.onehot)
    c = sample_balanced_batch(dataset, cfg, Rng(7), start_index=48)
    assert not np.array_equal(a.images, c.images)


def test_batches_depend_only_on_start_index(dataset):
    # slot overlap across differently-sized batches: the same global index
    # yields the same patch, so resuming mid-run cannot change the stream
    cfg8 = small_cfg(batch_size=8)
    cfg4 = small_cfg(batch_size=4)
    full = sample_balanced_batch(dataset, cfg8, Rng(9), start_index=16)
    back = sample_balanced_batch(dataset, cfg4, Rng(9), start_index=20)
    assert np.array_equal(full.images[4:], back.images)
    assert np.array_equal(full.onehot[4:], back.onehot)


def test_presence_counts_over_100_batches(dataset, crops):
    # counting oracle over the recorded crops: round-robin dealing keeps
    # per-label designation counts within one of the ideal I*B/(L-1), and
    # every slot's slice holds its designated label
    cfg = small_cfg()
    rng = Rng(11)
    for step in range(100):
        sample_balanced_batch(dataset, cfg, rng, start_index=step * cfg.batch_size)
    assert len(crops) == 100 * cfg.batch_size
    counts = {lab: 0 for lab in dataset.foreground}
    for g, (ci, z, _, _) in enumerate(crops):
        label = target(dataset, g)
        assert (dataset.cases[ci][1].labels[z] == label).any(), (g, ci, z, label)
        counts[label] += 1
    assert [target(dataset, g) for g in range(6)] == [1, 2, 3, 4, 5, 6]
    ideal = 8 * 100 / 6.0
    for lab, n in counts.items():
        assert abs(n - ideal) <= 1.0, (lab, n)


def test_missing_label_raises_with_name():
    lab = np.zeros((4, 16, 16), dtype=np.int64)
    lab[:, 4:8, 4:8] = 1                 # label 2 never occurs
    vol = LabeledVolume(np.zeros((4, 16, 16)), lab, (1.0, 1.0, 1.0))
    with pytest.raises(ValidationError, match="label 2"):
        PatchDataset([("only", vol)], num_labels=3)


def test_dataset_validation():
    with pytest.raises(ValidationError):
        PatchDataset([], num_labels=7)
    lab = np.full((2, 8, 8), 9, dtype=np.int64)
    vol = LabeledVolume(np.zeros((2, 8, 8)), lab, (1.0, 1.0, 1.0))
    with pytest.raises(ValidationError):
        PatchDataset([("bad", vol)], num_labels=3)
    with pytest.raises(ValidationError, match="num_labels"):
        PatchDataset([("bad", vol)], num_labels=1)


def test_sampler_config_validation():
    with pytest.raises(ValidationError):
        SamplerConfig(patch_size=2)
    with pytest.raises(ValidationError):
        SamplerConfig(patch_size=64, batch_size=0)
    with pytest.raises(ValidationError):
        SamplerConfig(patch_size=64, flip_prob=1.5)
    for name in ("center_jitter_px", "max_translation_px", "elastic_sigma", "elastic_alpha"):
        with pytest.raises(ValidationError, match=name):
            SamplerConfig(patch_size=64, **{name: -1})
    with pytest.raises(ValidationError, match="elastic_alpha"):
        SamplerConfig(patch_size=64, elastic_alpha=float("nan"))
    for name in ("center_jitter_px", "max_translation_px", "elastic_sigma", "elastic_alpha"):
        with pytest.raises(ValidationError, match=name):
            SamplerConfig(patch_size=64, **{name: float("inf")})
    SamplerConfig(patch_size=16, max_translation_px=15)
    with pytest.raises(ValidationError, match="max_translation_px must be < patch_size"):
        SamplerConfig(patch_size=16, max_translation_px=16)


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------

def test_augment_disabled_is_identity():
    img, lab = checkers_pair()
    cfg = SamplerConfig(patch_size=16, flip_prob=0.0,
                        max_translation_px=0, elastic_alpha=0.0)
    out_img, out_lab = augment(img.copy(), lab.copy(), Rng(5), cfg)
    assert np.array_equal(out_img, img)
    assert np.array_equal(out_lab, lab)


def test_flip_is_involution():
    img, lab = checkers_pair()
    once = sampling._flip(img, lab)
    twice = sampling._flip(*once)
    assert np.array_equal(twice[0], img)
    assert np.array_equal(twice[1], lab)
    assert not np.array_equal(once[0], img)


def test_flip_probability_extremes():
    img, lab = checkers_pair()
    always = SamplerConfig(patch_size=16, flip_prob=1.0,
                           max_translation_px=0, elastic_alpha=0.0)
    out_img, _ = augment(img.copy(), lab.copy(), Rng(6), always)
    assert np.array_equal(out_img, img[:, ::-1])


def test_translate_pads_correctly():
    img, lab = checkers_pair(patch=8)
    out_img, out_lab = sampling._translate(img, lab, 2, -3)
    assert np.array_equal(out_img[2:, :5], img[:6, 3:])
    assert np.all(out_img[:2] == 0.0)
    assert np.all(out_img[:, 5:] == 0.0)
    # vacated label pixels become background, and the rest shift with the image
    assert np.all(out_lab[:2] == 0)
    assert np.all(out_lab[:, 5:] == 0)
    assert np.array_equal(out_lab[2:, :5], lab[:6, 3:])
    # identity at zero offset
    same = sampling._translate(img, lab, 0, 0)
    assert np.array_equal(same[0], img)
    assert np.array_equal(same[1], lab)


def test_elastic_zero_alpha_identity_and_labels_preserved():
    img, lab = checkers_pair()
    out_img, out_lab = sampling._elastic(img, lab, Rng(8), 4.0, 0.0)
    assert np.allclose(out_img, img, atol=1e-12)
    assert np.array_equal(out_lab, lab)
    warped_img, warped_lab = sampling._elastic(img, lab, Rng(8), 4.0, 3.0)
    assert not np.array_equal(warped_img, img)
    assert warped_lab.dtype == lab.dtype
    assert set(np.unique(warped_lab)) <= set(np.unique(lab))


def per_channel_elastic(img, onehot, rng, sigma, alpha):
    """Reference: the same displacement field, with each one-hot channel
    resampled by its own nearest-neighbour pass."""
    patch = img.shape[0]
    disp_y = ndimage.gaussian_filter(rng.uniform((patch, patch), -1.0, 1.0), sigma) * alpha
    disp_x = ndimage.gaussian_filter(rng.uniform((patch, patch), -1.0, 1.0), sigma) * alpha
    ys, xs = np.meshgrid(np.arange(patch, dtype=float),
                         np.arange(patch, dtype=float), indexing="ij")
    coords = np.stack([ys + disp_y, xs + disp_x])
    out_img = ndimage.map_coordinates(img, coords, order=1, mode="nearest")
    out_hot = np.stack([ndimage.map_coordinates(ch, coords, order=0, mode="nearest")
                        for ch in onehot])
    return out_img, out_hot


def test_elastic_bitwise_equals_per_channel_reference():
    for seed in range(50):
        rng = Rng(900 + seed)
        img = rng.child(0).normal((32, 32))
        lab = rng.child(1).integers(0, 7, (32, 32))
        lab[8:20, 10:24] = seed % 7          # a block, as organs are
        alpha = 1.0 + seed % 5
        got_img, got_lab = sampling._elastic(img, lab, rng.child(2), 4.0, alpha)
        got = (got_img, one_hot(got_lab[None], 7)[0])
        want = per_channel_elastic(img, one_hot(lab[None], 7)[0], rng.child(2), 4.0, alpha)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.tobytes() == w.tobytes(), seed


def test_elastic_bitwise_equals_two_filter_calls_at_default_config():
    # One gaussian_filter over both fields (sigma 0 across them) against the
    # reference's one call per field, at the default configuration.
    cfg = SamplerConfig(patch_size=64)
    shape = (cfg.patch_size, cfg.patch_size)
    for seed in range(3):
        rng = Rng(950 + seed)
        img = rng.child(0).normal(shape)
        lab = rng.child(1).integers(0, 7, shape)
        got = sampling._elastic(img, lab, rng.child(2), cfg.elastic_sigma, cfg.elastic_alpha)
        want_img, want_hot = per_channel_elastic(img, one_hot(lab[None], 7)[0], rng.child(2),
                                                 cfg.elastic_sigma, cfg.elastic_alpha)
        assert got[0].tobytes() == want_img.tobytes(), seed
        assert one_hot(got[1][None], 7)[0].tobytes() == want_hot.tobytes(), seed


def onehot_stack_augment(img, onehot, rng, cfg):
    """Reference augmentation that carries a per-patch [L, P, P] one-hot
    stack through the flip, the translation (vacated pixels one-hot
    background) and the per-channel elastic resampling."""
    if cfg.flip_prob > 0 and rng.child(0).random() < cfg.flip_prob:
        img, onehot = img[:, ::-1].copy(), onehot[:, :, ::-1].copy()
    if cfg.max_translation_px > 0:
        t = cfg.max_translation_px
        dy, dx = (int(v) for v in rng.child(1).integers(-t, t + 1, (2,)))
        patch = img.shape[0]
        src_y = slice(max(0, -dy), min(patch, patch - dy))
        src_x = slice(max(0, -dx), min(patch, patch - dx))
        dst_y = slice(max(0, dy), max(0, dy) + (src_y.stop - src_y.start))
        dst_x = slice(max(0, dx), max(0, dx) + (src_x.stop - src_x.start))
        out_img, out_hot = np.zeros_like(img), np.zeros_like(onehot)
        out_hot[0] = 1.0
        out_img[dst_y, dst_x] = img[src_y, src_x]
        out_hot[:, dst_y, dst_x] = onehot[:, src_y, src_x]
        img, onehot = out_img, out_hot
    if cfg.elastic_alpha > 0:
        img, onehot = per_channel_elastic(img, onehot, rng.child(2), cfg.elastic_sigma,
                                          cfg.elastic_alpha)
    return img, onehot


@pytest.mark.parametrize("cfg", [small_cfg(), SamplerConfig(patch_size=64)],
                         ids=["32px", "study"])
def test_batch_bitwise_equals_onehot_stack_reference(dataset, crops, cfg):
    # Each slot's crop, re-augmented as a one-hot stack on the slot's own
    # stream, must give the batch's image and one-hot bytes.
    rng = Rng(21)
    patch = cfg.patch_size
    for step in range(5):
        start = step * cfg.batch_size
        batch = sample_balanced_batch(dataset, cfg, rng, start_index=start)
        assert len(crops) == start + cfg.batch_size
        for slot in range(cfg.batch_size):
            ci, z, y0, x0 = crops[start + slot]
            vol = dataset.cases[ci][1]
            crop = np.s_[z, y0:y0 + patch, x0:x0 + patch]
            img, lab = np.zeros((patch, patch)), np.zeros((patch, patch), dtype=np.int64)
            h, w = vol.labels[crop].shape
            img[:h, :w], lab[:h, :w] = vol.intensities[crop], vol.labels[crop]
            onehot = np.zeros((dataset.num_labels, patch, patch))
            np.put_along_axis(onehot, lab[None], 1.0, axis=0)
            want_img, want_hot = onehot_stack_augment(
                img, onehot, rng.child(start + slot).child(2), cfg)
            assert batch.images[slot, 0].tobytes() == want_img.tobytes(), (step, slot)
            assert batch.onehot.dtype == want_hot.dtype
            assert batch.onehot[slot].tobytes() == want_hot.tobytes(), (step, slot)


def test_augment_deterministic_per_stream():
    img, lab = checkers_pair()
    cfg = SamplerConfig(patch_size=16)
    a = augment(img.copy(), lab.copy(), Rng(13).child(4), cfg)
    b = augment(img.copy(), lab.copy(), Rng(13).child(4), cfg)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])


def test_onehot_preserved_through_full_pipeline(dataset):
    # one-hot must survive the whole flip/translate/elastic chain
    cfg = small_cfg()
    rng = Rng(17)
    for step in range(5):
        batch = sample_balanced_batch(dataset, cfg, rng, start_index=step * 8)
        assert np.isin(batch.onehot, (0.0, 1.0)).all()
        assert (batch.onehot.sum(axis=1) == 1.0).all()
