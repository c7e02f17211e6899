"""Network topology, shapes, init, prediction, and sliding-window inference."""

import weakref

import numpy as np
import pytest

from dicegrad import layers, model
from dicegrad.errors import ConfigError, SizeError, StateError
from dicegrad.model import ModelConfig, build_model
from dicegrad.tensor_core import Rng


def tiny(num_labels=3, depth=1, base=2, patch=8, seed=0):
    cfg = ModelConfig(num_labels=num_labels, depth=depth,
                      base_channels=base, patch_size=patch)
    return build_model(cfg, Rng(seed))


def test_unit_channels_default_topology():
    cfg = ModelConfig(num_labels=7)      # depth 2, base 16
    ch = model._unit_channels(cfg)
    want = {
        "enc0.u0": (1, 16), "enc0.u1": (16, 16),
        "enc1.u0": (16, 32), "enc1.u1": (32, 32),
        "mid.u0": (32, 64), "mid.u1": (64, 64),
        "dec1.u0": (96, 32), "dec1.u1": (32, 32),
        "dec0.u0": (48, 16), "dec0.u1": (16, 16),
    }
    assert ch == want
    # forward execution order, which unit_names and build_model follow
    assert list(ch) == list(want) == build_model(cfg, Rng(0)).unit_names()


@pytest.mark.parametrize("depth,patch", [(1, 8), (2, 16), (3, 16)])
def test_forward_shape(depth, patch):
    m = tiny(num_labels=4, depth=depth, patch=patch)
    x = Rng(1).normal((2, 1, patch, patch))
    p, caches = model.forward(m, x, mode="train")
    assert p.shape == (2, 4, patch, patch)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert caches is not None


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(num_labels=1)
    with pytest.raises(ConfigError):
        ModelConfig(num_labels=3, depth=0)
    with pytest.raises(ConfigError):
        ModelConfig(num_labels=3, depth=3, patch_size=12)   # 12 % 8 != 0
    with pytest.raises(ConfigError):
        ModelConfig(num_labels=3, base_channels=0)


def test_init_statistics():
    m = build_model(ModelConfig(num_labels=5, base_channels=16), Rng(3))
    u = m.units["mid.u0"]       # largest fan-in: 32*9 inputs, 64*32*9 values
    want_std = np.sqrt(2.0 / (32 * 9))
    assert abs(u.weights.std() - want_std) / want_std < 0.05
    assert abs(u.weights.mean()) < 0.01
    assert np.all(u.bias == 0.0)
    assert np.all(u.bn_gamma == 1.0)
    assert np.all(u.bn_beta == 0.0)
    assert np.all(u.bn_running_mean == 0.0)
    assert np.all(u.bn_running_var == 1.0)
    # head conv has no batch norm
    assert m.final.bn_gamma is None


def test_init_deterministic_and_seed_sensitive():
    a = tiny(seed=5)
    b = tiny(seed=5)
    c = tiny(seed=6)
    for name in a.param_table():
        assert np.array_equal(a.param_table()[name], b.param_table()[name])
    assert not np.array_equal(a.units["enc0.u0"].weights,
                              c.units["enc0.u0"].weights)


def test_param_and_state_tables():
    m = tiny(depth=2, patch=8)
    params = m.param_table()
    # 2 units per stage, 2 enc + 1 mid + 2 dec stages, 4 arrays each + head
    assert len(params) == 10 * 4 + 2
    state = m.state_table()
    assert len(state) == len(params) + 10 * 2
    # live references: mutating the table entry mutates the model
    params["head.bias"][0] = 123.0
    assert m.final.bias[0] == 123.0


def test_eval_mode_and_backward_guards():
    m = tiny()
    x = Rng(2).normal((1, 1, 8, 8))
    p, caches = model.forward(m, x, mode="eval")
    assert caches is None
    with pytest.raises(StateError):
        model.backward(m, caches, np.zeros_like(p))
    p2, caches2 = model.forward(m, x, mode="train")
    model.backward(m, caches2, np.zeros_like(p2))
    with pytest.raises(StateError):
        model.backward(m, caches2, np.zeros_like(p2))   # caches consumed
    p3, caches3 = model.forward(m, x, mode="train")
    with pytest.raises(ValueError):
        model.backward(m, caches3, np.zeros((1, 3, 8, 9)))   # fails after the first pop
    with pytest.raises(StateError):
        model.backward(m, caches3, np.zeros_like(p3))   # not replayed from half way


def test_backward_covers_every_parameter():
    m = tiny(depth=2, patch=8)
    x = Rng(4).normal((2, 1, 8, 8))
    p, caches = model.forward(m, x, mode="train")
    grads = model.backward(m, caches, Rng(5).normal(p.shape, std=0.1))
    params = m.param_table()
    assert set(grads) == set(params)
    for name, g in grads.items():
        assert g.shape == params[name].shape, name
        assert np.isfinite(g).all(), name


def _arrays(obj):
    """Every array reachable through the tuples, lists and dict values of obj."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (tuple, list, dict)):
        for item in obj.values() if isinstance(obj, dict) else obj:
            yield from _arrays(item)


def test_backward_releases_the_tape(monkeypatch):
    # Each cache is freed once replayed, so a step's activations do not stay
    # alive through the next step's forward.  The input is referenced only
    # by the tape; the softmax cache is p itself.
    m = tiny(depth=2, patch=8)
    p, tape = model.forward(m, Rng(4).normal((2, 1, 8, 8)), mode="train")
    params = {id(a) for a in m.state_table().values()}
    refs = [weakref.ref(a) for a in _arrays(tape) if id(a) not in params]
    assert len(refs) == 44        # 10 units x 4, 2 poolings, head input, p
    inner = layers.conv2d_backward
    alive_at_input_unit = []

    def alive():
        return sum(r() is not None for r in refs)

    def counting(cache, dy, need_dx=True):
        if not need_dx:
            alive_at_input_unit.append(alive())
        return inner(cache, dy, need_dx=need_dx)

    monkeypatch.setattr(layers, "conv2d_backward", counting)
    model.backward(m, tape, Rng(5).normal(p.shape, std=0.1))
    # While the last entry replays, only its own cache (input, xhat, ivar,
    # ReLU mask) and p are left.
    assert alive_at_input_unit == [5]
    del p
    assert alive() == 0


def test_eval_forward_keeps_no_cache(monkeypatch):
    # Eval mode records no tape: when the head runs, no unit input is alive
    # but the network input, which the caller holds.  Train mode keeps all ten.
    m = tiny(depth=2, patch=8)
    x = Rng(4).normal((2, 1, 8, 8))
    inner = layers.conv2d
    inputs, alive_at_head = [], {}

    def recording(xv, params):
        if params is m.final:
            alive_at_head[mode] = sum(r() is not None for r in inputs)
        inputs.append(weakref.ref(xv))
        return inner(xv, params)

    monkeypatch.setattr(layers, "conv2d", recording)
    for mode in ("eval", "train"):
        inputs.clear()
        model.forward(m, x, mode=mode)
        assert len(inputs) == 11, mode
    assert alive_at_head == {"eval": 1, "train": 10}


def test_backward_skips_only_the_input_gradient(monkeypatch):
    # Only enc0.u0 (the last of the 11 conv backward calls) skips dx, and
    # every gradient is bitwise that of a backward computing every dx.
    x = Rng(6).normal((2, 1, 8, 8))
    g = Rng(7).normal((2, 3, 8, 8), std=0.1)
    inner = layers.conv2d_backward

    def grads_with(wrapper):
        monkeypatch.setattr(layers, "conv2d_backward", wrapper)
        m = tiny(depth=2, patch=8)
        _, caches = model.forward(m, x, mode="train")
        return model.backward(m, caches, g)

    asked = []

    def recording(cache, dy, need_dx=True):
        asked.append(need_dx)
        return inner(cache, dy, need_dx=need_dx)

    grads = grads_with(recording)
    assert asked == [True] * 10 + [False]
    full = grads_with(lambda cache, dy, need_dx=True: inner(cache, dy))
    assert grads.keys() == full.keys()
    for name, gr in grads.items():
        assert gr.tobytes() == full[name].tobytes(), name


def test_forward_rejects_wrong_shape():
    m = tiny()
    with pytest.raises(SizeError):
        model.forward(m, np.zeros((1, 1, 8, 9)), mode="train")
    with pytest.raises(SizeError):
        model.forward(m, np.zeros((1, 2, 8, 8)), mode="train")
    with pytest.raises(SizeError):
        model.forward(m, np.zeros((8, 8)), mode="train")


def test_predict_labels_argmax_and_ties():
    p = Rng(9).uniform((3, 5, 6, 6), 0.0, 1.0)
    assert np.array_equal(model.predict_labels(p), np.argmax(p, axis=1))
    tie = np.full((1, 4, 1, 1), 0.25)
    assert model.predict_labels(tie)[0, 0, 0] == 0
    tie[0, 2] = 0.25 + 1e-9
    assert model.predict_labels(tie)[0, 0, 0] == 2


def test_tile_starts():
    assert model._tile_starts(96, 64, 32) == [0, 32]
    assert model._tile_starts(64, 64, 32) == [0]
    assert model._tile_starts(70, 64, 32) == [0, 6]
    assert model._tile_starts(8, 8, 4) == [0]


def test_segment_volume_exact_fit_matches_forward():
    m = tiny(num_labels=4)
    vol = Rng(13).normal((3, 8, 8))
    got = model.segment_volume(m, vol)
    p, _ = model.forward(m, vol[:, None], mode="eval")
    assert np.array_equal(got, model.predict_labels(p))
    assert got.shape == (3, 8, 8)
    assert got.dtype.kind == "i"


def test_segment_volume_tiling_average_oracle():
    # 8x12 slice with patch 8, stride 4: tiles start at x = 0 and 4; the
    # overlap columns must carry the mean of the two tile probabilities
    m = tiny(num_labels=3)
    vol = Rng(14).normal((2, 8, 12))
    got = model.segment_volume(m, vol)
    pa, _ = model.forward(m, vol[:, :, 0:8][:, None], mode="eval")
    pb, _ = model.forward(m, vol[:, :, 4:12][:, None], mode="eval")
    prob = np.zeros((2, 3, 8, 12))
    hits = np.zeros((1, 1, 8, 12))
    prob[:, :, :, 0:8] += pa
    prob[:, :, :, 4:12] += pb
    hits[:, :, :, 0:8] += 1
    hits[:, :, :, 4:12] += 1
    want = model.predict_labels(prob / hits)
    assert np.array_equal(got, want)


def test_segment_volume_pads_small_slices():
    m = tiny(num_labels=3)
    vol = Rng(15).normal((2, 5, 6))
    got = model.segment_volume(m, vol)
    assert got.shape == (2, 5, 6)
    # oracle: pad symmetrically to 8x8, run directly, crop back
    padded = np.pad(vol, ((0, 0), (1, 2), (1, 1)))
    p, _ = model.forward(m, padded[:, None], mode="eval")
    want = model.predict_labels(p)[:, 1:6, 1:7]
    assert np.array_equal(got, want)


def test_segment_volume_rejects_non_volume():
    m = tiny()
    with pytest.raises(SizeError):
        model.segment_volume(m, np.zeros((8, 8)))


def test_segment_volume_batch_chunking_invariant(monkeypatch):
    # chunk size must not affect the result
    m = tiny(num_labels=3)
    vol = Rng(16).normal((4, 12, 12))
    monkeypatch.setattr(model, "MAX_BATCH", 2)
    a = model.segment_volume(m, vol)
    monkeypatch.setattr(model, "MAX_BATCH", 64)
    b = model.segment_volume(m, vol)
    assert np.array_equal(a, b)
