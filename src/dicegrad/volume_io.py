"""Volume container type, the package's one binary file format, the
dataset manifest, and the package's one file writer.

Every binary file (a case or a checkpoint) is a list of named arrays,
written by `write_arrays` and read by `read_arrays`:

    magic   4 bytes  "DGRD"
    version u32      3
    entries          repeated until 4 bytes before EOF:
        name_len u32, name UTF-8, dtype u32 (0 = f64, 1 = u16),
        rank u32, dims rank*u64, data (row-major)
    crc32   u32      of everything between the version field and the CRC

Little-endian throughout.  A case is one `<case_id>.dgrd` file holding
exactly `spacing` (f64 [3], (z, y, x) in millimeters), `intensities`
(f64 [D, H, W]) and `labels` (u16 [D, H, W]).  A dataset directory holds
one such file per case and a `manifest.csv` with one case per line:

    case_id,path,seed

Every file the package writes goes through `write_file`: text as UTF-8
with the newlines as given, written to `<path>.tmp` and renamed over
`<path>`, so a file that exists is complete.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import IoError, ValidationError

MAGIC = b"DGRD"
VERSION = 3
_DTYPES = (np.dtype("<f8"), np.dtype("<u2"))     # indexed by the stored dtype code

MANIFEST_NAME = "manifest.csv"


@dataclass
class LabeledVolume:
    """A 3D scan with per-voxel integer labels and anisotropic spacing."""

    intensities: np.ndarray          # [D, H, W] float64
    labels: np.ndarray               # [D, H, W] integer, values in [0, L)
    spacing_mm: tuple[float, float, float]   # (z, y, x)

    def __post_init__(self):
        if self.intensities.shape != self.labels.shape:
            raise ValidationError(
                f"intensity shape {self.intensities.shape} != "
                f"label shape {self.labels.shape}"
            )
        if self.intensities.ndim != 3:
            raise ValidationError(f"expected [D, H, W], got {self.intensities.shape}")
        if len(self.spacing_mm) != 3 or not all(s > 0 for s in self.spacing_mm):
            raise ValidationError(f"spacing must be 3 positive reals, got {self.spacing_mm}")
        if self.labels.size and self.labels.min() < 0:
            raise ValidationError("labels must be nonnegative")


def write_file(path, *chunks) -> None:
    """Write `chunks` (str as UTF-8, bytes-like as is) to `path`, all or
    nothing: a failure part way leaves `path` as it was."""
    tmp = f"{path}.tmp"
    fh = open(tmp, "wb")
    try:
        with fh:
            for chunk in chunks:
                fh.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
    except BaseException:
        os.remove(tmp)
        raise
    os.replace(tmp, path)


def write_arrays(path, entries) -> None:
    """Write the (name, array) pairs `entries`, in order, as one container.
    Each array must be f64 or u16; it is stored bitwise."""
    chunks = []
    for name, arr in entries:
        arr = np.asarray(arr, order="C")
        if arr.dtype not in _DTYPES:
            raise ValidationError(f"entry {name!r} is {arr.dtype}, not f64 or u16")
        nb = name.encode("utf-8")
        chunks += [struct.pack(f"<I{len(nb)}sII{arr.ndim}Q", len(nb), nb,
                               _DTYPES.index(arr.dtype), arr.ndim, *arr.shape), arr]
    crc = 0
    for chunk in chunks:
        crc = zlib.crc32(chunk, crc)
    write_file(path, MAGIC, struct.pack("<I", VERSION), *chunks, struct.pack("<I", crc))


def read_arrays(path) -> dict[str, np.ndarray]:
    """The named arrays stored at `path`, in file order, each its own copy.

    Any fault raises `IoError` naming the byte offset.  The entries are
    parsed before the CRC is checked, so a short file reports where it ends.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    pos = 0
    end = len(data)

    def fail(why: str):
        raise IoError(f"{path}: {why} at offset {pos}")

    def take(n: int) -> int:
        """Advance past the next `n` bytes; return where they start."""
        nonlocal pos
        if pos + n > end:
            fail(f"truncated (needed {n} bytes)")
        pos += n
        return pos - n

    def u32() -> int:
        return struct.unpack_from("<I", data, take(4))[0]

    if data[:4] != MAGIC:
        fail("bad magic")
    pos = 4
    version = u32()
    if version != VERSION:
        fail(f"unsupported version {version}")
    end -= 4                         # the CRC follows the last entry
    if end < pos:
        fail("missing checksum")
    entries: dict[str, np.ndarray] = {}
    while pos < end:
        name_len = u32()
        if name_len > 4096:
            fail(f"implausible name length {name_len}")
        at = take(name_len)
        try:
            name = data[at:pos].decode("utf-8")
        except UnicodeDecodeError:
            fail("entry name is not valid UTF-8")
        if name in entries:
            fail(f"duplicate entry {name!r}")
        code = u32()
        if code >= len(_DTYPES):
            fail(f"unknown dtype code {code} for entry {name!r}")
        rank = u32()
        if rank > 8:
            fail(f"implausible rank {rank}")
        dims = struct.unpack_from(f"<{rank}Q", data, take(8 * rank))
        count = 1
        for d in dims:
            if d == 0 or count * d > (1 << 33):
                fail(f"implausible dims {dims} for entry {name!r}")
            count *= d
        dtype = _DTYPES[code]
        at = take(count * dtype.itemsize)
        entries[name] = np.frombuffer(data, dtype, count, at).reshape(dims).copy()
    stored_crc = struct.unpack_from("<I", data, end)[0]
    actual_crc = zlib.crc32(memoryview(data)[8:end])
    if stored_crc != actual_crc:
        raise IoError(f"{path}: checksum mismatch "
                      f"(stored {stored_crc:#010x}, computed {actual_crc:#010x})")
    return entries


@dataclass
class CaseRef:
    case_id: str
    path: str            # relative to the dataset directory
    seed: int


_CASE_DTYPES = {"spacing": _DTYPES[0], "intensities": _DTYPES[0], "labels": _DTYPES[1]}


def save_case(dataset_dir, case_id: str, vol: LabeledVolume, seed: int) -> CaseRef:
    labels = vol.labels
    if labels.size and (labels.min() < 0 or labels.max() > np.iinfo(np.uint16).max):
        raise ValidationError("label values out of uint16 range")
    name = f"{case_id}.dgrd"
    write_arrays(os.path.join(dataset_dir, name), [
        ("spacing", np.asarray(vol.spacing_mm, dtype="<f8")),
        ("intensities", np.asarray(vol.intensities, dtype="<f8")),
        ("labels", labels.astype("<u2")),
    ])
    return CaseRef(case_id, name, seed)


def load_case(dataset_dir, ref: CaseRef) -> LabeledVolume:
    """The case stored at `ref`; its labels come back as int64."""
    path = os.path.join(dataset_dir, ref.path)
    entries = read_arrays(path)
    if entries.keys() != _CASE_DTYPES.keys():
        missing = sorted(_CASE_DTYPES.keys() - entries.keys())
        unknown = sorted(entries.keys() - _CASE_DTYPES.keys())
        raise IoError(f"{path}: not a case: missing entries {missing}, "
                      f"unrecognized entries {unknown[:3]}")
    for name, dtype in _CASE_DTYPES.items():
        if entries[name].dtype != dtype:
            raise IoError(f"{path}: entry {name!r} is {entries[name].dtype}, expected {dtype}")
    spacing, img, lab = entries["spacing"], entries["intensities"], entries["labels"]
    if spacing.shape != (3,) or img.ndim != 3 or lab.shape != img.shape:
        raise IoError(f"{path}: entry shapes spacing {spacing.shape}, intensities "
                      f"{img.shape}, labels {lab.shape}; a case needs [3] and two "
                      "equal [D, H, W]")
    try:
        return LabeledVolume(img, lab.astype(np.int64), tuple(spacing.tolist()))
    except ValidationError as exc:             # a spacing that is not positive
        raise IoError(f"{path}: {exc}") from None


def write_manifest(dataset_dir, refs: list[CaseRef]) -> None:
    write_file(os.path.join(dataset_dir, MANIFEST_NAME),
               *(f"{ref.case_id},{ref.path},{ref.seed}\n" for ref in refs))


def read_manifest(dataset_dir) -> list[CaseRef]:
    path = os.path.join(dataset_dir, MANIFEST_NAME)
    if not os.path.exists(path):
        raise IoError(f"no dataset manifest at {path}")
    refs = []
    with open(path, encoding="utf-8") as fh:
        for ln, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != 3:
                raise IoError(f"{path}:{ln}: expected 3 fields, got {len(fields)}")
            try:
                seed = int(fields[2])
            except ValueError:
                raise IoError(f"{path}:{ln}: seed {fields[2]!r} is not an integer") from None
            refs.append(CaseRef(fields[0], fields[1], seed))
    return refs
