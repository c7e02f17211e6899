"""On-disk volume format, dataset manifest round trips, and the one
all-or-nothing file writer."""

import ast
import pathlib
import struct

import numpy as np
import pytest

from dicegrad import volume_io
from dicegrad.errors import IoError, ValidationError
from dicegrad.tensor_core import Rng
from dicegrad.volume_io import (CaseRef, LabeledVolume, load_case, load_dvol,
                                read_manifest, save_case, save_dvol,
                                write_file, write_manifest)


def sample_volume(seed=0, size=6):
    rng = Rng(seed)
    img = rng.normal((size, size, size))
    lab = rng.child(1).integers(0, 5, (size, size, size))
    return LabeledVolume(img, lab, (1.2, 1.0, 0.9))


def test_intensity_round_trip(tmp_path):
    vol = sample_volume()
    path = tmp_path / "x.img.dvol"
    save_dvol(path, vol.intensities, vol.spacing_mm)
    arr, spacing = load_dvol(path)
    assert np.array_equal(arr, vol.intensities)
    assert arr.dtype == np.float64
    assert spacing == vol.spacing_mm


def test_label_round_trip(tmp_path):
    vol = sample_volume()
    path = tmp_path / "x.lab.dvol"
    save_dvol(path, vol.labels, vol.spacing_mm)
    arr, spacing = load_dvol(path)
    assert np.array_equal(arr, vol.labels)
    assert arr.dtype == np.int64
    assert spacing == vol.spacing_mm


def test_save_is_byte_deterministic(tmp_path):
    vol = sample_volume()
    a, b = tmp_path / "a.dvol", tmp_path / "b.dvol"
    save_dvol(a, vol.intensities, vol.spacing_mm)
    save_dvol(b, vol.intensities, vol.spacing_mm)
    assert a.read_bytes() == b.read_bytes()


def test_header_layout(tmp_path):
    path = tmp_path / "h.dvol"
    save_dvol(path, np.zeros((2, 3, 4)), (1.0, 2.0, 3.0))
    raw = path.read_bytes()
    assert raw[:4] == b"DVOL"
    version, d, h, w, sz, sy, sx, code = struct.unpack("<I3Q3dI", raw[4:60])
    assert (version, d, h, w) == (1, 2, 3, 4)
    assert (sz, sy, sx) == (1.0, 2.0, 3.0)
    assert code == volume_io.DTYPE_F64
    assert len(raw) == 60 + 2 * 3 * 4 * 8


def test_save_rejects_bad_input(tmp_path):
    with pytest.raises(ValidationError):
        save_dvol(tmp_path / "bad.dvol", np.zeros((4, 4)), (1, 1, 1))
    with pytest.raises(ValidationError):
        save_dvol(tmp_path / "bad.dvol", np.full((2, 2, 2), -1, dtype=np.int64),
                  (1, 1, 1))
    with pytest.raises(ValidationError):
        save_dvol(tmp_path / "bad.dvol", np.full((2, 2, 2), 1 << 17, dtype=np.int64),
                  (1, 1, 1))


def test_load_errors_name_offsets(tmp_path):
    path = tmp_path / "t.dvol"
    save_dvol(path, np.zeros((2, 2, 2)), (1, 1, 1))
    good = path.read_bytes()

    path.write_bytes(good[:10])
    with pytest.raises(IoError, match="truncated"):
        load_dvol(path)

    path.write_bytes(b"NOPE" + good[4:])
    with pytest.raises(IoError, match="magic"):
        load_dvol(path)

    path.write_bytes(good[:4] + struct.pack("<I", 99) + good[8:])
    with pytest.raises(IoError, match="version 99"):
        load_dvol(path)

    path.write_bytes(good[:56] + struct.pack("<I", 7) + good[60:])
    with pytest.raises(IoError, match="dtype code 7"):
        load_dvol(path)

    path.write_bytes(good + b"\x00")
    with pytest.raises(IoError, match="payload"):
        load_dvol(path)


def test_labeled_volume_validation():
    with pytest.raises(ValidationError):
        LabeledVolume(np.zeros((2, 2, 2)), np.zeros((2, 2, 3), dtype=np.int64),
                      (1, 1, 1))
    with pytest.raises(ValidationError):
        LabeledVolume(np.zeros((2, 2)), np.zeros((2, 2), dtype=np.int64), (1, 1, 1))
    with pytest.raises(ValidationError):
        LabeledVolume(np.zeros((2, 2, 2)), np.zeros((2, 2, 2), dtype=np.int64),
                      (1.0, 0.0, 1.0))
    with pytest.raises(ValidationError):
        LabeledVolume(np.zeros((2, 2, 2)),
                      np.full((2, 2, 2), -3, dtype=np.int64), (1, 1, 1))


def test_case_round_trip_and_manifest(tmp_path):
    vols = [sample_volume(seed=i) for i in range(3)]
    refs = [save_case(tmp_path, f"case_{i:03d}", v, seed=100 + i)
            for i, v in enumerate(vols)]
    write_manifest(tmp_path, refs)

    back = read_manifest(tmp_path)
    assert back == refs
    for ref, vol in zip(back, vols):
        loaded = load_case(tmp_path, ref)
        assert np.array_equal(loaded.intensities, vol.intensities)
        assert np.array_equal(loaded.labels, vol.labels)
        assert loaded.spacing_mm == vol.spacing_mm


def test_manifest_is_headerless_one_line_per_case(tmp_path):
    refs = [CaseRef("c0", "c0.img.dvol", "c0.lab.dvol", 5),
            CaseRef("c1", "c1.img.dvol", "c1.lab.dvol", 6)]
    write_manifest(tmp_path, refs)
    lines = (tmp_path / "manifest.csv").read_text().splitlines()
    assert lines == ["c0,c0.img.dvol,c0.lab.dvol,5", "c1,c1.img.dvol,c1.lab.dvol,6"]


def test_read_manifest_errors(tmp_path):
    with pytest.raises(IoError):
        read_manifest(tmp_path)
    (tmp_path / "manifest.csv").write_text("a,b,c\n")
    with pytest.raises(IoError, match="expected 4 fields"):
        read_manifest(tmp_path)
    (tmp_path / "manifest.csv").write_text("c0,c0_image.dvol,c0_label.dvol,3\n"
                                           "c1,c1_image.dvol,c1_label.dvol,x0\n")
    with pytest.raises(IoError, match=r"manifest\.csv:2: seed 'x0' is not an integer"):
        read_manifest(tmp_path)


def test_load_case_spacing_mismatch(tmp_path):
    vol = sample_volume()
    ref = save_case(tmp_path, "c", vol, seed=0)
    save_dvol(tmp_path / ref.label_path, vol.labels, (9.0, 9.0, 9.0))
    with pytest.raises(ValidationError, match="spacing"):
        load_case(tmp_path, ref)


def test_write_file_replaces_whole_and_leaves_no_tmp(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"old contents that are longer than the new ones\n")
    write_file(path, "a\u00b5\r\n", b"\x00\xff", np.array([1.5], dtype="<f8"), "z\n")
    assert path.read_bytes() == ("a\u00b5\r\n".encode("utf-8") + b"\x00\xff"
                                 + struct.pack("<d", 1.5) + b"z\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]


def test_write_file_failure_part_way_keeps_old_bytes(tmp_path):
    path = tmp_path / "out.txt"
    path.write_bytes(b"old\n")
    # the first chunks reach the temp file before the lone surrogate fails to encode
    with pytest.raises(UnicodeEncodeError):
        write_file(path, "new\n" * 1000, b"more", "\ud800", "never\n")
    assert path.read_bytes() == b"old\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.txt"]


def _opens_for_writing(call: ast.Call) -> bool:
    """A Path.write_text/write_bytes call, or an open()/x.open() call whose
    mode may write: a literal mode with w, a, x or +, or a mode that is not
    a literal (os.open flags)."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name != "open":
        return False
    mode = call.args[1] if len(call.args) > 1 else next(
        (kw.value for kw in call.keywords if kw.arg in ("mode", "flags")), None)
    if mode is None:
        return False
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return any(c in mode.value for c in "wax+")
    return True


def test_only_write_file_opens_files_for_writing():
    package = pathlib.Path(volume_io.__file__).parent
    offenders = []
    for source in sorted(package.rglob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        allowed = set()
        if source.name == "volume_io.py":
            writer = next(n for n in tree.body
                          if isinstance(n, ast.FunctionDef) and n.name == "write_file")
            allowed = {id(n) for n in ast.walk(writer)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Call) and _opens_for_writing(node)
                    and id(node) not in allowed):
                offenders.append(f"{source.name}:{node.lineno}")
    assert offenders == [], f"files opened for writing outside write_file: {offenders}"
