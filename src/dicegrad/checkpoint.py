"""Checkpoints: model parameters, running stats, and optimizer state.

A checkpoint is a `volume_io` array container (magic, version, entries,
CRC) whose entries are all f64; any other dtype is refused.  Entry names
carry the section: "cfg.*" holds the model configuration as rank-0
scalars so a checkpoint is self-describing, "model.*" the parameter and
running-statistic tensors, "opt.*" the Adam moments and step counter.
The first entry, "cfg.in_channels", is always 1: the network reads one
intensity channel.  Every section is required, so a resumed run always
continues the saved Adam arithmetic.  Round trips are byte-exact: float64
payloads are written bitwise and the entry order is fixed, so saving a
loaded checkpoint reproduces the file.
"""

from __future__ import annotations

import numpy as np

from .errors import IoError, ValidationError
from .model import ModelConfig, SegModel, assemble
from .optim import AdamState
from .volume_io import read_arrays, write_arrays

_CFG_FIELDS = ("num_labels", "depth", "base_channels", "patch_size")


def _pop_count(path, entries: dict, key: str) -> int:
    """Pop the required scalar entry `key`, a finite non-negative integer."""
    if key not in entries:
        raise IoError(f"{path}: missing entry {key!r}")
    v = entries.pop(key)
    if v.ndim or not (np.isfinite(v) and v >= 0 and v == np.floor(v)):
        shown = f"shape {v.shape}" if v.ndim else repr(float(v))
        raise IoError(f"{path}: entry {key!r} must be a non-negative "
                      f"integer scalar, got {shown}")
    return int(v)


def save_checkpoint(m: SegModel, state: AdamState, path) -> None:
    """Write the model and its Adam `state` atomically."""
    entries = [("cfg.in_channels", 1.0)]
    entries += [(f"cfg.{f}", float(getattr(m.cfg, f))) for f in _CFG_FIELDS]
    entries += [(f"model.{name}", arr) for name, arr in m.state_table().items()]
    entries.append(("opt.step", float(state.step)))
    for name in m.param_table():
        entries += [(f"opt.m.{name}", state.m[name]), (f"opt.v.{name}", state.v[name])]
    write_arrays(path, entries)


def load_checkpoint(path):
    """Read a checkpoint back into a fresh (SegModel, AdamState)."""
    entries = read_arrays(path)
    for name, arr in entries.items():
        if arr.dtype != np.float64:
            raise IoError(f"{path}: entry {name!r} is {arr.dtype}, "
                          "checkpoint entries are float64")

    in_channels = _pop_count(path, entries, "cfg.in_channels")
    if in_channels != 1:
        raise IoError(f"{path}: entry 'cfg.in_channels' must be 1, got {in_channels}")
    try:
        cfg = ModelConfig(**{f: _pop_count(path, entries, f"cfg.{f}") for f in _CFG_FIELDS})
    except ValidationError as exc:
        raise IoError(f"{path}: bad model configuration: {exc}") from None

    def pop_tensor(key: str, shape: tuple, what: str) -> np.ndarray:
        if key not in entries:
            raise IoError(f"{path}: missing {what} {key!r}")
        stored = entries.pop(key)
        if stored.shape != shape:
            raise IoError(f"{path}: tensor {key!r} has shape {stored.shape}, expected {shape}")
        return stored

    # Every stored tensor is checked against the shape the config implies
    # before it joins the model, and the model holds the file's arrays.
    m = assemble(cfg, lambda name, shape: pop_tensor(f"model.{name}", shape, "tensor"))

    step = _pop_count(path, entries, "opt.step")
    m_mom, v_mom = {}, {}
    for name, arr in m.param_table().items():
        m_mom[name] = pop_tensor(f"opt.m.{name}", arr.shape, "optimizer tensor")
        v_mom[name] = pop_tensor(f"opt.v.{name}", arr.shape, "optimizer tensor")

    if entries:
        raise IoError(f"{path}: unrecognized entries {sorted(entries)[:3]}")
    return m, AdamState(step=step, m=m_mom, v=v_mom)
