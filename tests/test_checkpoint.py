"""Checkpoint serialization: byte-exact round trips and corruption rejection."""

import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from dicegrad import checkpoint, model, volume_io
from dicegrad.errors import IoError
from dicegrad.model import ModelConfig, build_model
from dicegrad.tensor_core import Rng
from dicegrad.training import AdamState
from dicegrad.checkpoint import load_checkpoint, save_checkpoint
from dicegrad.volume_io import read_arrays, write_arrays


def make_model(seed=3):
    cfg = ModelConfig(num_labels=4, depth=1, base_channels=2, patch_size=8)
    m = build_model(cfg, Rng(seed))
    # perturb running stats so they differ from the init values
    for u in m.units.values():
        u.bn_running_mean += 0.25
        u.bn_running_var *= 1.5
    return m


def make_state(m, seed=4):
    rng = Rng(seed)
    state = AdamState.fresh(m.param_table())
    state.step = 17
    for i, name in enumerate(state.m):
        state.m[name] += rng.child(i).normal(state.m[name].shape, std=0.01)
        state.v[name] += np.abs(rng.child(1000 + i).normal(state.v[name].shape, std=0.01))
    return state


def test_round_trip_with_optimizer(tmp_path):
    m = make_model()
    state = make_state(m)
    path = tmp_path / "opt.dgrd"
    save_checkpoint(m, state, path)
    back, st = load_checkpoint(path)
    assert back.cfg == m.cfg
    orig, rest = m.state_table(), back.state_table()
    assert set(orig) == set(rest)
    for name in orig:
        assert np.array_equal(orig[name], rest[name]), name
    assert st.step == 17
    for name in state.m:
        assert np.array_equal(st.m[name], state.m[name]), name
        assert np.array_equal(st.v[name], state.v[name]), name


def test_save_load_save_is_byte_identical(tmp_path):
    m = make_model()
    state = make_state(m)
    first = tmp_path / "a.dgrd"
    second = tmp_path / "b.dgrd"
    save_checkpoint(m, state, first)
    back, st = load_checkpoint(first)
    save_checkpoint(back, st, second)
    assert first.read_bytes() == second.read_bytes()


def test_header_magic_and_version(tmp_path):
    path = tmp_path / "m.dgrd"
    m = make_model()
    save_checkpoint(m, make_state(m), path)
    raw = path.read_bytes()
    assert raw[:4] == b"DGRD"
    assert struct.unpack("<I", raw[4:8])[0] == volume_io.VERSION == 3
    for version in (2, 4):
        path.write_bytes(raw[:4] + struct.pack("<I", version) + raw[8:])   # the CRC skips the header
        with pytest.raises(IoError, match=f"unsupported version {version}"):
            load_checkpoint(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "m.dgrd"
    m = make_model()
    save_checkpoint(m, make_state(m), path)
    raw = path.read_bytes()
    path.write_bytes(b"WHAT" + raw[4:])
    with pytest.raises(IoError, match="magic"):
        load_checkpoint(path)


def test_truncation_rejected(tmp_path):
    path = tmp_path / "m.dgrd"
    m = make_model()
    save_checkpoint(m, make_state(m), path)
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(IoError):
        load_checkpoint(path)
    path.write_bytes(raw[:6])
    with pytest.raises(IoError):
        load_checkpoint(path)


def test_flipped_payload_byte_fails_checksum(tmp_path):
    path = tmp_path / "m.dgrd"
    m = make_model()
    save_checkpoint(m, make_state(m), path)
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))
    with pytest.raises(IoError, match="checksum"):
        load_checkpoint(path)


def test_unknown_entry_rejected(tmp_path):
    path = tmp_path / "m.dgrd"
    m = make_model()
    save_checkpoint(m, make_state(m), path)
    write_arrays(path, [*read_arrays(path).items(), ("mystery.thing", np.zeros(3))])
    with pytest.raises(IoError, match="mystery.thing"):
        load_checkpoint(path)


def test_missing_tensor_rejected(tmp_path):
    m = make_model()
    path = tmp_path / "m.dgrd"
    # rewrite the file without one model tensor
    entries = [("cfg.in_channels", 1.0)]
    entries += [(f"cfg.{f}", float(getattr(m.cfg, f))) for f in checkpoint._CFG_FIELDS]
    entries += [(f"model.{name}", arr) for name, arr in m.state_table().items()][1:]
    write_arrays(path, entries)
    with pytest.raises(IoError, match="missing tensor"):
        load_checkpoint(path)


def test_non_f64_entry_rejected(tmp_path):
    # A CRC-valid file whose one u16 entry would load as a count: refused.
    m = make_model()
    path = tmp_path / "m.dgrd"
    entries = [(n, np.asarray(a, dtype="<u2") if n == "opt.step" else a)
               for n, a in _entries(m, make_state(m))]
    write_arrays(path, entries)
    with pytest.raises(IoError, match="entry 'opt.step' is uint16, checkpoint entries "
                                      "are float64"):
        load_checkpoint(path)


def test_loaded_model_predicts_identically(tmp_path):
    from dicegrad import model as model_mod

    m = make_model(seed=9)
    path = tmp_path / "m.dgrd"
    save_checkpoint(m, make_state(m), path)
    back, _ = load_checkpoint(path)
    x = Rng(11).normal((2, 1, 8, 8))
    pa, _ = model_mod.forward(m, x, mode="eval")
    pb, _ = model_mod.forward(back, x, mode="eval")
    assert np.array_equal(pa, pb)


def _entries(m, state):
    """(name, value) pairs in the order save_checkpoint writes them."""
    entries = [("cfg.in_channels", 1.0)]
    entries += [(f"cfg.{f}", float(getattr(m.cfg, f))) for f in checkpoint._CFG_FIELDS]
    entries += [(f"model.{n}", a) for n, a in m.state_table().items()]
    entries.append(("opt.step", float(state.step)))
    for n in m.param_table():
        entries += [(f"opt.m.{n}", state.m[n]), (f"opt.v.{n}", state.v[n])]
    return entries


@pytest.mark.parametrize("target, change, message", [
    ("opt.v.", "drop", "missing optimizer tensor 'opt.v."),
    ("opt.m.", "reshape", "tensor 'opt.m.[^']*' has shape"),
    ("model.", "reshape", "tensor 'model.[^']*' has shape"),
])
def test_bad_model_or_optimizer_tensor_rejected(tmp_path, target, change, message):
    m = make_model()
    state = make_state(m)
    path = tmp_path / "m.dgrd"
    entries = _entries(m, state)
    save_checkpoint(m, state, tmp_path / "saved.dgrd")
    write_arrays(path, entries)              # the real layout, before the change
    assert path.read_bytes() == (tmp_path / "saved.dgrd").read_bytes()
    i = next(i for i, (name, _) in enumerate(entries) if name.startswith(target))
    if change == "drop":
        del entries[i]
    else:
        entries[i] = (entries[i][0], np.zeros(np.asarray(entries[i][1]).size + 1))
    write_arrays(path, entries)
    with pytest.raises(IoError, match=message):
        load_checkpoint(path)


@pytest.mark.parametrize("key, value, message", [
    ("cfg.depth", np.nan, "'cfg.depth' must be a non-negative integer scalar, got nan"),
    ("cfg.depth", np.ones(1), r"'cfg.depth' must be .*, got shape \(1,\)"),
    ("cfg.depth", 1.4, "'cfg.depth' must be .*, got 1.4"),
    ("cfg.base_channels", np.inf, "'cfg.base_channels' must be .*, got inf"),
    ("cfg.num_labels", 1.0, "bad model configuration: num_labels must be >= 2"),
    ("cfg.patch_size", 0.0, "bad model configuration: patch_size 0 is not a positive multiple"),
    ("cfg.depth", 2.0 ** 20, r"bad model configuration: .* \(depth 1048576\)"),
    ("opt.step", -1.0, "'opt.step' must be .*, got -1.0"),
    ("opt.step", 2.5, "'opt.step' must be .*, got 2.5"),
    ("cfg.in_channels", 2.0, "'cfg.in_channels' must be 1, got 2"),
])
def test_bad_scalar_entry_rejected(tmp_path, key, value, message):
    # CRC-valid files whose config or step scalar is not a count.
    m = make_model()
    path = tmp_path / "m.dgrd"
    entries = [(n, value if n == key else a) for n, a in _entries(m, make_state(m))]
    write_arrays(path, entries)
    with pytest.raises(IoError, match=message) as err:
        load_checkpoint(path)
    assert str(err.value).startswith(f"{path}: ")


def test_model_only_file_rejected(tmp_path):
    # Every section is required: a file without the optimizer state would
    # resume with fresh Adam moments, so it is refused at its first opt entry.
    m = make_model()
    path = tmp_path / "m.dgrd"
    write_arrays(path, [(n, a) for n, a in _entries(m, make_state(m))
                        if not n.startswith("opt.")])
    with pytest.raises(IoError, match="missing entry 'opt.step'"):
        load_checkpoint(path)


def test_load_builds_no_random_model(tmp_path, monkeypatch):
    # The model is assembled from the file's own arrays: nothing is drawn.
    m = make_model()
    state = make_state(m)
    path = tmp_path / "m.dgrd"
    save_checkpoint(m, state, path)

    def no_draw(*args, **kwargs):
        raise AssertionError("load_checkpoint drew a random number")

    for name in ("normal", "uniform"):
        monkeypatch.setattr(Rng, name, no_draw)
    monkeypatch.setattr(model, "build_model", no_draw)
    assert not hasattr(checkpoint, "build_model") and not hasattr(checkpoint, "Rng")
    back, st = load_checkpoint(path)
    save_checkpoint(back, st, tmp_path / "again.dgrd")
    assert (tmp_path / "again.dgrd").read_bytes() == path.read_bytes()


def test_config_larger_than_tensors_rejected_before_allocating(tmp_path):
    # A saved depth-2, base-2 file whose cfg.base_channels says 128 (CRC
    # fixed): the first tensor's shape is refused before a model of that
    # size exists, which would take 62 MiB.
    m = build_model(ModelConfig(num_labels=7, depth=2, base_channels=2), Rng(0))
    path = tmp_path / "m.dgrd"
    save_checkpoint(m, AdamState.fresh(m.param_table()), path)
    raw = bytearray(path.read_bytes())
    at = raw.index(b"cfg.base_channels") + len(b"cfg.base_channels") + 8   # past dtype, rank
    raw[at:at + 8] = struct.pack("<d", 128.0)
    raw[-4:] = struct.pack("<I", zlib.crc32(bytes(raw[8:-4])))
    path.write_bytes(bytes(raw))
    tracemalloc.start()
    try:
        with pytest.raises(IoError, match=r"'model.enc0.u0.weights' has shape "
                                          r"\(2, 1, 3, 3\), expected \(128, 1, 3, 3\)"):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
