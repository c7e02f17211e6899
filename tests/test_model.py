"""Network topology, shapes, init, prediction, and sliding-window inference."""

import hashlib
import tracemalloc
import weakref

import numpy as np
import pytest

from dicegrad import config, layers, model
from dicegrad.errors import ValidationError
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
    # forward execution order, which build_model's units follow
    assert list(ch) == list(want) == list(build_model(cfg, Rng(0)).units)


@pytest.mark.parametrize("depth,patch", [(1, 8), (2, 16), (3, 16)])
def test_forward_shape(depth, patch):
    m = tiny(num_labels=4, depth=depth, patch=patch)
    x = Rng(1).normal((2, 1, patch, patch))
    p, caches = model.forward(m, x, mode="train")
    assert p.shape == (2, 4, patch, patch)
    assert np.allclose(p.sum(axis=1), 1.0, atol=1e-12)
    assert caches is not None


def test_config_validation():
    with pytest.raises(ValidationError):
        ModelConfig(num_labels=1)
    with pytest.raises(ValidationError):
        ModelConfig(num_labels=3, depth=0)
    with pytest.raises(ValidationError):
        ModelConfig(num_labels=3, depth=3, patch_size=12)   # 12 % 8 != 0
    with pytest.raises(ValidationError, match="patch_size 0 is not a positive multiple"):
        ModelConfig(num_labels=3, depth=1, patch_size=0)
    with pytest.raises(ValidationError, match=r"\(depth 100000\)"):
        ModelConfig(num_labels=3, depth=100_000, patch_size=64)   # 2^depth has 30,103 digits
    with pytest.raises(ValidationError):
        ModelConfig(num_labels=3, base_channels=0)


def test_init_statistics():
    m = build_model(ModelConfig(num_labels=5, base_channels=16), Rng(3))
    u = m.units["mid.u0"]       # largest fan-in: 32*9 inputs, 64*32*9 values
    want_std = np.sqrt(2.0 / (32 * 9))
    assert abs(u.weights.std() - want_std) / want_std < 0.05
    assert abs(u.weights.mean()) < 0.01
    assert np.all(u.bn_gamma == 1.0)
    assert np.all(u.bn_beta == 0.0)
    assert np.all(u.bn_running_mean == 0.0)
    assert np.all(u.bn_running_var == 1.0)
    # batch norm cancels a conv bias, so only the head conv has one
    assert all(v.bias is None for v in m.units.values())
    assert m.final.bn_gamma is None
    assert np.all(m.final.bias == 0.0)


def test_init_deterministic_and_seed_sensitive():
    a = tiny(seed=5)
    b = tiny(seed=5)
    c = tiny(seed=6)
    for name in a.param_table():
        assert np.array_equal(a.param_table()[name], b.param_table()[name])
    assert not np.array_equal(a.units["enc0.u0"].weights,
                              c.units["enc0.u0"].weights)


# sha256 over the names and bytes of the study configuration's initial
# state_table, in its order, as built by `train` for seeds 0, 1 and 2.
STUDY_INIT_SHA256 = {
    0: "c4492a04487a04812d03feb259c360cbefab815b14bf07789918fdee4d5032b0",
    1: "4312c4186223ed51334c04eceb6cbc5b2b17cfd1c93caa0c05720cb89eb74d62",
    2: "17f08f83a6096502434efb773a0063a2c31968559ec57936b725d0cb6f80a9bd",
}


@pytest.mark.parametrize("seed", sorted(STUDY_INIT_SHA256))
def test_study_initial_weights_pinned(seed):
    cfg = config.model_config(config.resolve(overrides=["model.base_channels=9"]))
    h = hashlib.sha256()
    for name, arr in build_model(cfg, Rng(seed).child(1)).state_table().items():
        h.update(name.encode())
        h.update(arr.tobytes())
    assert h.hexdigest() == STUDY_INIT_SHA256[seed]


def test_layout_names_fields_and_shapes():
    cfg = ModelConfig(num_labels=5, depth=1, base_channels=3)
    m = build_model(cfg, Rng(0))
    entries = model.layout(cfg)
    assert [name for name, _, _ in entries] == list(m.state_table())
    for name, attr, shape in entries:
        owner = m.final if name.startswith("head.") else m.units[name.rpartition(".")[0]]
        assert getattr(owner, attr) is m.state_table()[name]
        assert getattr(owner, attr).shape == shape, name
    # six units: their parameters, the head's, then their running stats
    assert [e for e in entries if e[0].startswith("mid.u0")] == [
        ("mid.u0.weights", "weights", (6, 3, 3, 3)), ("mid.u0.gamma", "bn_gamma", (6,)),
        ("mid.u0.beta", "bn_beta", (6,)), ("mid.u0.running_mean", "bn_running_mean", (6,)),
        ("mid.u0.running_var", "bn_running_var", (6,))]
    assert entries[18:20] == [("head.weights", "weights", (5, 3, 3, 3)),
                              ("head.bias", "bias", (5,))]
    assert len(entries) == 6 * 5 + 2


def test_param_and_state_tables():
    m = tiny(depth=2, patch=8)
    params = m.param_table()
    # 2 units per stage, 2 enc + 1 mid + 2 dec stages, 3 arrays each + head
    assert len(params) == 10 * 3 + 2 == 32
    assert [n for n in params if n.endswith(".bias")] == ["head.bias"]
    state = m.state_table()
    assert len(state) == len(params) + 10 * 2 == 52
    # live references: mutating the table entry mutates the model
    params["head.bias"][0] = 123.0
    assert m.final.bias[0] == 123.0


def test_eval_mode_and_backward_guards():
    m = tiny()
    x = Rng(2).normal((1, 1, 8, 8))
    p, caches = model.forward(m, x, mode="eval")
    assert caches is None
    with pytest.raises(ValidationError):
        model.backward(m, caches, np.zeros_like(p))
    p2, caches2 = model.forward(m, x, mode="train")
    model.backward(m, caches2, np.zeros_like(p2))
    with pytest.raises(ValidationError):
        model.backward(m, caches2, np.zeros_like(p2))   # caches consumed
    p3, caches3 = model.forward(m, x, mode="train")
    with pytest.raises(ValueError):
        model.backward(m, caches3, np.zeros((1, 3, 8, 9)))   # fails after the first pop
    with pytest.raises(ValidationError):
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
    # While the last entry replays, only its own cache (input, x - mean, ivar,
    # ReLU mask) and p are left.
    assert alive_at_input_unit == [5]
    del p
    assert alive() == 0


def test_eval_forward_keeps_no_cache(monkeypatch):
    # Eval mode records no tape: when the head runs, no unit input is alive
    # but the network input, which the caller holds.  Train mode keeps all ten.
    # While dec{d}.u1 runs in eval mode, its stage's skip (the pooled encoder
    # output) and concat (dec{d}.u0's input) are released as well.
    m = tiny(depth=2, patch=8)
    x = Rng(4).normal((2, 1, 8, 8))
    # Eval convs get folded params, so a conv is named by its call order.
    names = list(m.units) + ["head"]
    inner, inner_pool = layers.conv2d, layers.maxpool2
    inputs, alive_at_head = [], {}
    skips, concats, alive_at_dec_u1 = [], {}, {}

    def recording(xv, params):
        name = names[len(inputs)]
        if name == "head":
            alive_at_head[mode] = sum(r() is not None for r in inputs)
        elif name.startswith("dec") and mode == "eval":
            d = int(name[3])
            if name.endswith("u0"):
                concats[d] = weakref.ref(xv)
            else:
                alive_at_dec_u1[d] = (skips[d]() is not None, concats[d]() is not None)
        inputs.append(weakref.ref(xv))
        return inner(xv, params)

    def pooling(xv, need_index=True):
        skips.append(weakref.ref(xv))
        return inner_pool(xv, need_index=need_index)

    monkeypatch.setattr(layers, "conv2d", recording)
    monkeypatch.setattr(layers, "maxpool2", pooling)
    for mode in ("eval", "train"):
        inputs.clear()
        skips.clear()
        model.forward(m, x, mode=mode)
        assert len(inputs) == 11, mode
    assert alive_at_head == {"eval": 1, "train": 10}
    assert alive_at_dec_u1 == {0: (False, False), 1: (False, False)}


def unfolded_eval_forward(m, x):
    """Reference inference forward: each unit's conv, then batch norm with
    the running statistics as its own step, ReLU and pooling as selects."""
    def unit(name, h):
        u = m.units[name]
        z, _ = layers.conv2d(h, u)
        ivar = 1.0 / np.sqrt(u.bn_running_var + layers.BN_EPS)
        z = (z - u.bn_running_mean[None, :, None, None]) * ivar[None, :, None, None]
        z = u.bn_gamma[None, :, None, None] * z + u.bn_beta[None, :, None, None]
        return np.where(z > 0, z, 0.0)

    h, skips = x, []
    for d in range(m.cfg.depth):
        h = unit(f"enc{d}.u1", unit(f"enc{d}.u0", h))
        skips.append(h)
        B, C, H, W = h.shape
        h = h.reshape(B, C, H // 2, 2, W // 2, 2).max(axis=(3, 5))
    h = unit("mid.u1", unit("mid.u0", h))
    for d in reversed(range(m.cfg.depth)):
        h = np.concatenate([layers.bilinear_up2(h)[0], skips.pop()], axis=1)
        h = unit(f"dec{d}.u1", unit(f"dec{d}.u0", h))
    return layers.softmax(layers.conv2d(h, m.final)[0])[0]


def test_eval_forward_matches_unfolded_batchnorm():
    # Trained-looking batch-norm parameters, so the fold is far from identity.
    m = tiny(num_labels=4, depth=2, base=3, patch=16, seed=8)
    rng = Rng(9)
    for i, u in enumerate(m.units.values()):
        c = u.bn_gamma.shape[0]
        r = rng.child(i)
        u.bn_gamma = r.child(1).normal((c,), mean=1.0, std=0.5)
        u.bn_beta = r.child(2).normal((c,), std=0.5)
        u.bn_running_mean = r.child(3).normal((c,))
        u.bn_running_var = r.child(4).uniform((c,), 0.2, 3.0)
    x = rng.child(99).normal((5, 1, 16, 16))
    p, _ = model.forward(m, x, mode="eval")
    want = unfolded_eval_forward(m, x)
    assert np.max(np.abs(p - want)) <= 1e-12
    labels = model.predict_labels(p)
    assert np.array_equal(labels, model.predict_labels(want))
    assert len(np.unique(labels)) == 4


def test_forward_rejects_unknown_mode_before_any_layer(monkeypatch):
    m = tiny()
    calls = []
    monkeypatch.setattr(layers, "conv2d", lambda *a: calls.append(a))
    with pytest.raises(ValueError, match="mode"):
        model.forward(m, np.zeros((1, 1, 8, 8)), "test")
    assert calls == []


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
    with pytest.raises(ValidationError):
        model.forward(m, np.zeros((1, 1, 8, 9)), mode="train")
    with pytest.raises(ValidationError):
        model.forward(m, np.zeros((1, 2, 8, 8)), mode="train")
    with pytest.raises(ValidationError):
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
    with pytest.raises(ValidationError):
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


def whole_volume_segment(m, vol):
    """Reference: every tile of the volume in one list, cut into batches of
    MAX_BATCH across slices, summed into [D, L, H, W] before one argmax."""
    patch = m.cfg.patch_size
    depth_z, height, width = vol.shape
    pad_h, pad_w = max(0, patch - height), max(0, patch - width)
    pads = ((pad_h // 2, pad_h - pad_h // 2), (pad_w // 2, pad_w - pad_w // 2))
    hp, wp = height + pad_h, width + pad_w
    tiles = [(z, y0, x0) for z in range(depth_z)
             for y0 in model._tile_starts(hp, patch, patch // 2)
             for x0 in model._tile_starts(wp, patch, patch // 2)]
    prob_sum = np.zeros((depth_z, m.cfg.num_labels, hp, wp))
    hits = np.zeros((depth_z, 1, hp, wp))
    for lo in range(0, len(tiles), model.MAX_BATCH):
        chunk = tiles[lo:lo + model.MAX_BATCH]
        batch = np.stack([np.pad(vol[z], pads)[y0:y0 + patch, x0:x0 + patch]
                          for z, y0, x0 in chunk])[:, None]
        probs, _ = model.forward(m, batch, mode="eval")
        for (z, y0, x0), pr in zip(chunk, probs):
            prob_sum[z, :, y0:y0 + patch, x0:x0 + patch] += pr
            hits[z, :, y0:y0 + patch, x0:x0 + patch] += 1.0
    avg = (prob_sum / hits)[:, :, pads[0][0]:pads[0][0] + height,
                            pads[1][0]:pads[1][0] + width]
    return model.predict_labels(avg)


@pytest.mark.parametrize("max_batch", [2, 3, 64])
@pytest.mark.parametrize("hw", [(8, 8), (8, 12), (5, 6), (12, 12)])
def test_segment_volume_stream_matches_whole_volume(monkeypatch, max_batch, hw):
    # exact fit (1 tile a slice), 8x12 overlap (2), padded 5x6 (1) and 12x12
    # (4, more than a batch of 2 or 3): slice groups cut at different places
    m = tiny(num_labels=4)
    vol = Rng(18).normal((7,) + hw)
    monkeypatch.setattr(model, "MAX_BATCH", max_batch)
    got = model.segment_volume(m, vol)
    want = whole_volume_segment(m, vol)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def _traced_peak(fn, *args):
    fn(*args)        # warm caches (interpolation tables) outside the trace
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_segment_volume_memory_does_not_grow_with_depth():
    # 12x12 slices of 4 tiles: a group is 4 slices.  Eight groups must peak
    # within a few kB of one, apart from the larger returned label volume;
    # a [D, L, H, W] accumulation grows by 7 such volumes.
    m = tiny(num_labels=3)
    small, large = (Rng(19).normal((d, 12, 12)) for d in (4, 32))
    labels_growth = (32 - 4) * 12 * 12 * np.dtype(np.intp).itemsize
    peak_small = _traced_peak(model.segment_volume, m, small)
    peak_large = _traced_peak(model.segment_volume, m, large)
    assert peak_large - peak_small <= labels_growth + 8192, (peak_small, peak_large)
