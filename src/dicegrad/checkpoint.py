"""Binary checkpoints: model parameters, running stats, and optimizer state.

Layout (little-endian throughout):

    magic   4 bytes  "DGRD"
    version u32      2
    entries          repeated until 4 bytes before EOF:
        name_len u32, name UTF-8, rank u32, dims rank*u64, data f64...
    crc32   u32      of everything between the version field and the CRC

Entry names carry the section: "cfg.*" holds the model configuration as
rank-0 scalars so a checkpoint is self-describing, "model.*" the parameter
and running-statistic tensors, "opt.*" the Adam moments and step counter.
The first entry, "cfg.in_channels", is always 1: the network reads one
intensity channel.  Every section is required, so a resumed run always
continues the saved Adam arithmetic.  Round trips are byte-exact: float64
payloads are written bitwise and the entry order is fixed, so saving a
loaded checkpoint reproduces the file.
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from .errors import IoError, ValidationError
from .model import ModelConfig, SegModel, assemble
from .optim import AdamState
from .volume_io import write_file

MAGIC = b"DGRD"
VERSION = 2

_CFG_FIELDS = ("num_labels", "depth", "base_channels", "patch_size")


def _pack_entry(name: str, arr) -> bytes:
    # np.asarray keeps python floats rank 0; tobytes() serializes row-major
    arr = np.asarray(arr, dtype="<f8")
    nb = name.encode("utf-8")
    parts = [struct.pack("<I", len(nb)), nb, struct.pack("<I", arr.ndim)]
    if arr.ndim:
        parts.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
    parts.append(arr.tobytes())
    return b"".join(parts)


class _Reader:
    def __init__(self, data: bytes, path):
        self.data = data
        self.pos = 0
        self.path = path

    def fail(self, why: str):
        raise IoError(f"{self.path}: {why} at offset {self.pos}")

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            self.fail(f"truncated (needed {n} bytes)")
        b = self.data[self.pos:self.pos + n]
        self.pos += n
        return b

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def entry(self):
        name_len = self.u32()
        if name_len > 4096:
            self.fail(f"implausible name length {name_len}")
        try:
            name = self.take(name_len).decode("utf-8")
        except UnicodeDecodeError:
            self.fail("entry name is not valid UTF-8")
        rank = self.u32()
        if rank > 8:
            self.fail(f"implausible rank {rank}")
        dims = struct.unpack(f"<{rank}Q", self.take(8 * rank)) if rank else ()
        count = 1
        for d in dims:
            if d == 0 or count * d > (1 << 33):
                self.fail(f"implausible dims {dims} for entry {name!r}")
            count *= d
        data = np.frombuffer(self.take(8 * count), dtype="<f8").reshape(dims)
        return name, data.copy()


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
    parts = [_pack_entry("cfg.in_channels", 1.0)]
    for f in _CFG_FIELDS:
        parts.append(_pack_entry(f"cfg.{f}", float(getattr(m.cfg, f))))
    for name, arr in m.state_table().items():
        parts.append(_pack_entry(f"model.{name}", arr))
    parts.append(_pack_entry("opt.step", float(state.step)))
    for name in m.param_table():
        parts.append(_pack_entry(f"opt.m.{name}", state.m[name]))
        parts.append(_pack_entry(f"opt.v.{name}", state.v[name]))
    body = b"".join(parts)
    write_file(path, MAGIC, struct.pack("<I", VERSION), body,
               struct.pack("<I", zlib.crc32(body)))


def load_checkpoint(path):
    """Read a checkpoint back into a fresh (SegModel, AdamState)."""
    with open(path, "rb") as fh:
        data = fh.read()
    r = _Reader(data, path)
    if r.take(4) != MAGIC:
        r.pos = 0
        r.fail("bad magic")
    version = r.u32()
    if version != VERSION:
        r.fail(f"unsupported version {version}")
    if len(data) < r.pos + 4:
        r.fail("missing checksum")
    stored_crc = struct.unpack("<I", data[-4:])[0]
    actual_crc = zlib.crc32(data[8:-4])
    if stored_crc != actual_crc:
        raise IoError(f"{path}: checksum mismatch "
                      f"(stored {stored_crc:#010x}, computed {actual_crc:#010x})")

    entries: dict[str, np.ndarray] = {}
    while r.pos < len(data) - 4:
        name, arr = r.entry()
        if name in entries:
            r.fail(f"duplicate entry {name!r}")
        entries[name] = arr

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
