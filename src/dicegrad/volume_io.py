"""Volume container type and its on-disk binary format, the dataset
manifest, and the package's one file writer.

A stored volume file holds one field (intensities or labels):

    magic   4 bytes  "DVOL"
    version u32      currently 1
    dims    3x u64   (D, H, W)
    spacing 3x f64   (z, y, x) in millimeters
    dtype   u32      0 = float64 intensities, 1 = uint16 labels
    data             raw little-endian, row-major

A dataset directory holds one intensity file and one label file per case
and a `manifest.csv` with one case per line:

    case_id,image_relpath,label_relpath,seed

Every file the package writes goes through `write_file`: text as UTF-8
with the newlines as given, written to `<path>.tmp` and renamed over
`<path>`, so a file that exists is complete.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import IoError, ValidationError

MAGIC = b"DVOL"
VERSION = 1
DTYPE_F64 = 0
DTYPE_U16 = 1

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


def save_dvol(path, array: np.ndarray, spacing_mm) -> None:
    if array.ndim != 3:
        raise ValidationError(f"expected [D, H, W], got {array.shape}")
    if np.issubdtype(array.dtype, np.floating):
        code, payload = DTYPE_F64, np.ascontiguousarray(array, dtype="<f8")
    else:
        if array.size and (array.min() < 0 or array.max() > np.iinfo(np.uint16).max):
            raise ValidationError("label values out of uint16 range")
        code, payload = DTYPE_U16, np.ascontiguousarray(array, dtype="<u2")
    header = MAGIC + struct.pack(
        "<I3Q3dI", VERSION, *array.shape, *(float(s) for s in spacing_mm), code
    )
    write_file(path, header, payload)


def load_dvol(path):
    """Returns (array, spacing_mm); f64 for intensities, int64 for labels."""
    with open(path, "rb") as fh:
        data = fh.read()
    head_len = 4 + 4 + 24 + 24 + 4
    if len(data) < head_len:
        raise IoError(f"{path}: truncated header at offset {len(data)}")
    if data[:4] != MAGIC:
        raise IoError(f"{path}: bad magic at offset 0")
    version, d, h, w, sz, sy, sx, code = struct.unpack("<I3Q3dI", data[4:head_len])
    if version != VERSION:
        raise IoError(f"{path}: unsupported version {version} at offset 4")
    if code == DTYPE_F64:
        dtype, item = "<f8", 8
    elif code == DTYPE_U16:
        dtype, item = "<u2", 2
    else:
        raise IoError(f"{path}: unknown dtype code {code} at offset {head_len - 4}")
    expected = head_len + d * h * w * item
    if len(data) != expected:
        raise IoError(
            f"{path}: payload is {len(data) - head_len} bytes, expected "
            f"{expected - head_len} at offset {head_len}"
        )
    arr = np.frombuffer(data[head_len:], dtype=dtype).reshape(d, h, w)
    if code == DTYPE_U16:
        arr = arr.astype(np.int64)
    else:
        arr = arr.copy()
    return arr, (sz, sy, sx)


@dataclass
class CaseRef:
    case_id: str
    image_path: str      # relative to the dataset directory
    label_path: str
    seed: int


def case_filenames(case_id: str) -> tuple[str, str]:
    return f"{case_id}.img.dvol", f"{case_id}.lab.dvol"


def save_case(dataset_dir, case_id: str, vol: LabeledVolume, seed: int) -> CaseRef:
    img_name, lab_name = case_filenames(case_id)
    save_dvol(os.path.join(dataset_dir, img_name), vol.intensities, vol.spacing_mm)
    save_dvol(os.path.join(dataset_dir, lab_name), vol.labels, vol.spacing_mm)
    return CaseRef(case_id, img_name, lab_name, seed)


def load_case(dataset_dir, ref: CaseRef) -> LabeledVolume:
    img, spacing = load_dvol(os.path.join(dataset_dir, ref.image_path))
    lab, lab_spacing = load_dvol(os.path.join(dataset_dir, ref.label_path))
    if lab_spacing != spacing:
        raise ValidationError(
            f"{ref.case_id}: image spacing {spacing} != label spacing {lab_spacing}"
        )
    return LabeledVolume(img, lab, spacing)


def write_manifest(dataset_dir, refs: list[CaseRef]) -> None:
    write_file(os.path.join(dataset_dir, MANIFEST_NAME),
               *(f"{ref.case_id},{ref.image_path},{ref.label_path},{ref.seed}\n"
                 for ref in refs))


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
            if len(fields) != 4:
                raise IoError(f"{path}:{ln}: expected 4 fields, got {len(fields)}")
            try:
                seed = int(fields[3])
            except ValueError:
                raise IoError(f"{path}:{ln}: seed {fields[3]!r} is not an integer") from None
            refs.append(CaseRef(fields[0], fields[1], fields[2], seed))
    return refs
