"""Synthetic head-phantom generator: determinism, imbalance, contrast."""

import numpy as np
import pytest

from dicegrad import phantom
from dicegrad.errors import SamplingError, ValidationError
from dicegrad.phantom import (CROSS, FOREGROUND_LABELS, JAW, STEM, TUBES,
                              PhantomSpec, generate_phantom)


def fractions(labels):
    n = labels.size
    return {lab: float((labels == lab).sum()) / n
            for lab in range(phantom.NUM_LABELS)}


def test_deterministic_per_seed():
    spec = PhantomSpec()
    a = generate_phantom(spec, 42)
    b = generate_phantom(spec, 42)
    assert np.array_equal(a.intensities, b.intensities)
    assert np.array_equal(a.labels, b.labels)
    c = generate_phantom(spec, 43)
    assert not np.array_equal(a.labels, c.labels)


def test_all_labels_present():
    vol = generate_phantom(PhantomSpec(), 0)
    present = set(np.unique(vol.labels))
    assert present == set(range(phantom.NUM_LABELS))


@pytest.mark.parametrize("seed", [0, 1, 7, 19, 12345])
def test_imbalance_regime(seed):
    frac = fractions(generate_phantom(PhantomSpec(), seed).labels)
    assert frac[0] > 0.90                        # background dominates
    fg = {lab: frac[lab] for lab in FOREGROUND_LABELS}
    assert max(fg.values()) > 0.02               # largest class > 2%
    assert min(fg.values()) < 0.002              # smallest class < 0.2%
    # the two thin analogs are individually tiny
    assert frac[CROSS] < 0.002
    assert frac[TUBES] < 0.002


def test_structure_intensities_and_contrast():
    spec = PhantomSpec(noise_std=0.0)            # read off clean plateaus
    vol = generate_phantom(spec, 5)
    img, lab = vol.intensities, vol.labels
    assert abs(img[lab == STEM].mean() - phantom.INTENSITY_STEM) < 1e-12
    assert abs(img[lab == JAW].mean() - phantom.INTENSITY_JAW) < 1e-12
    # jaw analog is high contrast; cross/tube analogs sit within
    # low_contrast of head tissue
    assert img[lab == JAW].mean() - phantom.INTENSITY_HEAD > 0.5
    assert 0 < img[lab == CROSS].mean() - phantom.INTENSITY_HEAD <= 0.1
    assert 0 < img[lab == TUBES].mean() - phantom.INTENSITY_HEAD <= 0.1


def test_noise_statistics():
    spec = PhantomSpec()
    clean = generate_phantom(PhantomSpec(noise_std=0.0), 9)
    noisy = generate_phantom(spec, 9)
    assert np.array_equal(clean.labels, noisy.labels)
    resid = noisy.intensities - clean.intensities
    assert abs(resid.mean()) < 1e-3
    assert abs(resid.std() - spec.noise_std) < 2e-3


def test_volume_shape_and_spacing():
    spec = PhantomSpec(volume_size=48)
    vol = generate_phantom(spec, 3)
    assert vol.labels.shape == (48, 48, 48)
    assert vol.intensities.shape == (48, 48, 48)
    assert vol.spacing_mm == spec.spacing_mm
    assert vol.labels.dtype == np.int64


def test_retry_exhaustion_raises(monkeypatch):
    # a shift far beyond the volume throws every structure outside
    monkeypatch.setattr(phantom, "MAX_SHIFT_VOX", 500.0)
    monkeypatch.setattr(phantom, "RETRIES", 3)
    with pytest.raises(SamplingError, match="in all 3 attempts"):
        generate_phantom(PhantomSpec(), 0)


def test_spec_validation():
    with pytest.raises(ValidationError):
        PhantomSpec(volume_size=16)
    with pytest.raises(ValidationError):
        PhantomSpec(noise_std=-0.1)


def test_case_seeds_disjoint_across_bases():
    seeds = {phantom.case_seed_for(b, i) for b in range(4) for i in range(100)}
    assert len(seeds) == 400


def test_generate_dataset_ids_and_order():
    spec = PhantomSpec()
    out = list(phantom.generate_dataset(spec, 3, base_seed=1))
    assert [cid for cid, _, _ in out] == ["case_000", "case_001", "case_002"]
    assert [s for _, s, _ in out] == [phantom.case_seed_for(1, i) for i in range(3)]
    # regenerating a single case from its recorded seed matches the stream
    again = generate_phantom(spec, out[1][1])
    assert np.array_equal(again.labels, out[1][2].labels)
    with pytest.raises(ValidationError):
        list(phantom.generate_dataset(spec, 0, base_seed=1))
