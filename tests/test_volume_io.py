"""The one array container, case files, dataset manifest round trips,
and the one all-or-nothing file writer."""

import ast
import pathlib
import struct
import zlib

import numpy as np
import pytest

from dicegrad import volume_io
from dicegrad.errors import IoError, ValidationError
from dicegrad.tensor_core import Rng
from dicegrad.volume_io import (CaseRef, LabeledVolume, load_case, read_arrays,
                                read_manifest, save_case, write_arrays,
                                write_file, write_manifest)


def sample_volume(seed=0, size=6):
    rng = Rng(seed)
    img = rng.normal((size, size, size))
    lab = rng.child(1).integers(0, 5, (size, size, size))
    return LabeledVolume(img, lab, (1.2, 1.0, 0.9))


def test_intensity_round_trip(tmp_path):
    vol = sample_volume()
    back = load_case(tmp_path, save_case(tmp_path, "x", vol, seed=0))
    assert np.array_equal(back.intensities, vol.intensities)
    assert back.intensities.dtype == np.float64
    assert back.intensities.flags.writeable and back.intensities.flags.aligned
    assert back.spacing_mm == vol.spacing_mm
    assert all(type(s) is float for s in back.spacing_mm)


def test_label_round_trip(tmp_path):
    vol = sample_volume()
    vol.labels[0, 0, 0] = np.iinfo(np.uint16).max
    back = load_case(tmp_path, save_case(tmp_path, "x", vol, seed=0))
    assert np.array_equal(back.labels, vol.labels)
    assert back.labels.dtype == np.int64
    assert read_arrays(tmp_path / "x.dgrd")["labels"].dtype == np.uint16


def test_arrays_round_trip_in_file_order(tmp_path):
    entries = [("z.scalar", np.float64(2.5)), ("a.vec", np.array([1.0, -0.0, np.inf])),
               ("m.vol", Rng(1).normal((2, 3, 4))),
               ("u", np.array([[0, 1], [65535, 7]], dtype="<u2"))]
    write_arrays(tmp_path / "a.dgrd", entries)
    back = read_arrays(tmp_path / "a.dgrd")
    assert list(back) == [name for name, _ in entries]
    for name, arr in entries:
        assert back[name].dtype == arr.dtype and back[name].shape == np.shape(arr), name
        assert back[name].tobytes() == np.asarray(arr).tobytes(), name
        assert back[name].flags.writeable, name


def test_save_is_byte_deterministic(tmp_path):
    vol = sample_volume()
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    save_case(tmp_path / "a", "x", vol, seed=0)
    save_case(tmp_path / "b", "x", vol, seed=0)
    assert (tmp_path / "a" / "x.dgrd").read_bytes() == (tmp_path / "b" / "x.dgrd").read_bytes()


def test_header_layout(tmp_path):
    path = tmp_path / "h.dgrd"
    write_arrays(path, [("x", np.zeros((2, 3, 4))), ("k", np.array(7, dtype="<u2"))])
    raw = path.read_bytes()
    assert raw[:4] == b"DGRD"
    assert struct.unpack("<I", raw[4:8])[0] == volume_io.VERSION == 3
    # name_len, name, dtype code (0 = f64), rank, dims, then the payload
    assert raw[8:45] == struct.pack("<I1sII3Q", 1, b"x", 0, 3, 2, 3, 4)
    assert raw[45:237] == bytes(2 * 3 * 4 * 8)
    # a u16 scalar: dtype code 1, rank 0, no dims, two payload bytes
    assert raw[237:252] == struct.pack("<I1sII", 1, b"k", 1, 0) + struct.pack("<H", 7)
    assert raw[252:] == struct.pack("<I", zlib.crc32(raw[8:252]))


def test_save_rejects_bad_input(tmp_path):
    vol = sample_volume()
    for bad in (-1, 1 << 17):
        vol.labels[0, 0, 0] = bad          # set after LabeledVolume checked it
        with pytest.raises(ValidationError, match="uint16 range"):
            save_case(tmp_path, "bad", vol, seed=0)
    with pytest.raises(ValidationError, match="int64, not f64 or u16"):
        write_arrays(tmp_path / "bad.dgrd", [("n", np.zeros(2, dtype=np.int64))])
    assert list(tmp_path.iterdir()) == []


def test_load_errors_name_offsets(tmp_path):
    # one f64 [2, 2, 2] entry "x": the header ends at 8, its dtype code sits
    # at 13, its payload at 45, the CRC at 109
    path = tmp_path / "t.dgrd"
    write_arrays(path, [("x", np.zeros((2, 2, 2)))])
    good = path.read_bytes()
    assert len(good) == 113

    def crc_fixed(raw):
        return raw[:-4] + struct.pack("<I", zlib.crc32(raw[8:-4]))

    for raw, message in [
        (good[:6], r"truncated \(needed 4 bytes\) at offset 4"),
        (good[:10], "missing checksum at offset 8"),
        (good[:-1], r"truncated \(needed 64 bytes\) at offset 45"),
        (good + b"\x00", r"truncated \(needed 4 bytes\) at offset 109"),
        (b"NOPE" + good[4:], "bad magic at offset 0"),
        (good[:4] + struct.pack("<I", 99) + good[8:], "unsupported version 99 at offset 8"),
        (good[:13] + struct.pack("<I", 7) + good[17:],
         "unknown dtype code 7 for entry 'x' at offset 17"),
        (good[:8] + struct.pack("<I", 5000) + good[12:], "implausible name length 5000"),
        (good[:17] + struct.pack("<I", 9) + good[21:], "implausible rank 9 at offset 21"),
        (good[:21] + struct.pack("<Q", 0) + good[29:],
         r"implausible dims \(0, 2, 2\) for entry 'x' at offset 45"),
        (crc_fixed(good[:12] + b"\xff" + good[13:]), "entry name is not valid UTF-8"),
        (good[:60] + bytes([good[60] ^ 0x01]) + good[61:], "checksum mismatch"),
    ]:
        path.write_bytes(raw)
        with pytest.raises(IoError, match=message):
            read_arrays(path)

    write_arrays(path, [("x", np.zeros(1)), ("x", np.ones(1))])     # 29 bytes each
    with pytest.raises(IoError, match="duplicate entry 'x' at offset 42"):
        read_arrays(path)


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
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "case_000.dgrd", "case_001.dgrd", "case_002.dgrd", "manifest.csv"]


def test_manifest_is_headerless_one_line_per_case(tmp_path):
    refs = [CaseRef("c0", "c0.dgrd", 5), CaseRef("c1", "sub/c1.dgrd", 6)]
    write_manifest(tmp_path, refs)
    lines = (tmp_path / "manifest.csv").read_text().splitlines()
    assert lines == ["c0,c0.dgrd,5", "c1,sub/c1.dgrd,6"]


def test_read_manifest_errors(tmp_path):
    with pytest.raises(IoError):
        read_manifest(tmp_path)
    (tmp_path / "manifest.csv").write_text("c0,c0.img,c0.lab,3\n")
    with pytest.raises(IoError, match="expected 3 fields, got 4"):
        read_manifest(tmp_path)
    (tmp_path / "manifest.csv").write_text("c0,c0.dgrd,3\nc1,c1.dgrd,x0\n")
    with pytest.raises(IoError, match=r"manifest\.csv:2: seed 'x0' is not an integer"):
        read_manifest(tmp_path)


def test_load_case_requires_the_case_entries(tmp_path):
    vol = sample_volume()
    ref = save_case(tmp_path, "c", vol, seed=0)
    path = tmp_path / ref.path
    case = read_arrays(path)
    for entries, message in [
        ([("cfg.depth", 1.0), ("model.w", np.zeros(2)), ("labels", case["labels"])],
         r"not a case: missing entries \['intensities', 'spacing'\], "
         r"unrecognized entries \['cfg.depth', 'model.w'\]"),
        ([*case.items(), ("extra", np.zeros(1))], r"unrecognized entries \['extra'\]"),
        ([*case.items()][:2] + [("labels", vol.labels.astype("<f8"))],
         "entry 'labels' is float64, expected uint16"),
        ([("spacing", case["spacing"][:2]), *[*case.items()][1:]], "entry shapes spacing"),
        ([*case.items()][:2] + [("labels", case["labels"][:, :, :5])], "entry shapes"),
        ([*case.items()][:1] + [("intensities", case["intensities"][0]),
                                ("labels", case["labels"][0])], "entry shapes"),
        ([("spacing", np.array([1.2, 0.0, 0.9])), *[*case.items()][1:]],
         r"c\.dgrd: spacing must be 3 positive reals, got \(1\.2, 0\.0, 0\.9\)"),
    ]:
        write_arrays(path, entries)
        with pytest.raises(IoError, match=message):
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
