"""Command-line behavior: outputs, determinism, exit codes."""

import os
import re
import struct
import warnings
import zlib
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from dicegrad import checkpoint, cli, gradcheck, model, optim, volume_io
from dicegrad.errors import IoError, NumericError, ValidationError
from dicegrad.tensor_core import Rng


TINY = [
    "--set", "model.depth=1",
    "--set", "model.base_channels=2",
    "--set", "model.patch_size=16",
    "--set", "sampler.batch_size=2",
    "--set", "train.steps=3",
    "--set", "train.holdout_cases=1",
]


def gen(tmp_path, name="data", cases=3):
    out = str(tmp_path / name)
    rc = cli.main(["gen-data", "--out", out,
                   "--set", f"data.num_cases={cases}"])
    assert rc == cli.EXIT_OK
    return out


def gen_bad_holdout(tmp_path):
    """A 3-case dataset whose last case, the holdout under TINY, has one
    voxel of label 7, which the default 7-label model does not know."""
    out = gen(tmp_path)
    path = os.path.join(out, volume_io.case_filenames("case_002")[1])
    labels, spacing = volume_io.load_dvol(path)
    labels[0, 0, 0] = 7
    volume_io.save_dvol(path, labels, spacing)
    return out


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------

def test_gen_data_outputs(tmp_path, capsys):
    out = gen(tmp_path)
    lines = open(os.path.join(out, "manifest.csv")).read().splitlines()
    assert len(lines) == 3
    case_id, img, lab, seed = lines[0].split(",")
    assert case_id == "case_000"
    assert os.path.exists(os.path.join(out, img))
    assert os.path.exists(os.path.join(out, lab))
    assert os.path.exists(os.path.join(out, "effective_config.cfg"))
    assert "wrote 3 cases" in capsys.readouterr().out


def test_gen_data_regeneration_is_byte_identical(tmp_path):
    a = gen(tmp_path, "a")
    b = gen(tmp_path, "b")
    for name in sorted(os.listdir(a)):
        with open(os.path.join(a, name), "rb") as fa, \
             open(os.path.join(b, name), "rb") as fb:
            assert fa.read() == fb.read(), name


def test_gen_data_requires_out(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main(["gen-data"])
    assert exc.value.code == 2
    assert list(tmp_path.iterdir()) == []


def test_unknown_config_key_is_config_error(tmp_path):
    rc = cli.main(["gen-data", "--out", str(tmp_path / "x"),
                   "--set", "data.cases=3"])
    assert rc == cli.EXIT_CONFIG


@pytest.mark.parametrize("setting", ["data.seed=-1", "data.num_cases=0",
                                     "phantom.noise_std=nan", "phantom.noise_std=inf",
                                     "phantom.low_contrast=nan",
                                     "phantom.low_contrast=-inf"])
def test_gen_data_bad_setting_is_config_error(tmp_path, capsys, setting):
    # rejected before the output directory is made
    rc = cli.main(["gen-data", "--out", str(tmp_path / "x"), "--set", setting])
    assert rc == cli.EXIT_CONFIG
    assert setting.split("=")[0].split(".")[1] in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("setting", ["sampler.augment=false", "model.in_channels=1",
                                     "train.adam_beta1=0.9", "train.adam_beta2=0.999",
                                     "train.adam_eps=1e-08", "phantom.spacing_z=1.2",
                                     "phantom.spacing_y=1.0", "phantom.spacing_x=1.0",
                                     "loss.prob_clamp=1e-12",
                                     "loss.include_background=true"])
def test_deleted_config_keys_are_unknown(tmp_path, capsys, setting):
    # Zero flip_prob, max_translation_px and elastic_alpha turn augmentation
    # off, and the network always reads one intensity channel.  The Adam
    # constants, the phantom spacing and the CE clamp are module constants,
    # and per-label Dice always averages over every label.
    rc = cli.main(["train", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "out"),
                   "--set", setting])
    assert rc == cli.EXIT_CONFIG
    assert f"unknown key {setting.split('=')[0]!r}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gen-data", "gradcheck"])
def test_data_option_only_where_read(tmp_path, command):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--out", str(tmp_path / "x"), "--data", str(tmp_path / "nope")])
    assert exc.value.code == 2
    assert not (tmp_path / "x").exists()


# ---------------------------------------------------------------------------
# gradcheck (check functions stubbed; the real run is acceptance-tested)
# ---------------------------------------------------------------------------

@pytest.fixture
def stub_checks(monkeypatch):
    monkeypatch.setattr(gradcheck, "run_layer_checks",
                        lambda: [("conv/input", 1e-9), ("relu/input", 3e-8)])
    monkeypatch.setattr(gradcheck, "run_loss_checks",
                        lambda: [("loss/bsd", 2e-7)])
    monkeypatch.setattr(gradcheck, "check_model_end_to_end", lambda: 5e-6)


def test_gradcheck_pass_output(stub_checks, tmp_path, capsys):
    rc = cli.main(["gradcheck", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_OK
    assert out.count("PASS") == 4
    assert "4/4 checks passed" in out
    assert (tmp_path / "gradcheck.txt").read_text() == out


def test_gradcheck_failure_exit_code(stub_checks, capsys):
    rc = cli.main(["gradcheck", "--set", "check.threshold=1e-8"])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_CHECK_FAILED
    assert "FAIL" in out
    assert "2/4 checks passed" in out


@pytest.mark.parametrize("setting", ["check.threshold=nan", "check.threshold=0",
                                     "check.end_to_end_threshold=inf",
                                     "check.end_to_end_threshold=-1e-4"])
def test_gradcheck_bad_threshold_is_config_error(stub_checks, tmp_path, capsys, setting):
    # a NaN threshold would fail every check, an infinite one pass any error
    rc = cli.main(["gradcheck", "--out", str(tmp_path / "g"), "--set", setting])
    captured = capsys.readouterr()
    assert rc == cli.EXIT_CONFIG
    assert setting.split("=")[0] in captured.err
    assert captured.out == ""
    assert not (tmp_path / "g").exists()


def test_gradcheck_nan_parameter_gradient_fails(monkeypatch, capsys):
    # The real end-to-end check with one parameter's analytic gradient NaN:
    # its error is NaN and must fail the row, not be folded away as 0.
    monkeypatch.setattr(gradcheck, "run_layer_checks", lambda: [("conv/input", 1e-9)])
    monkeypatch.setattr(gradcheck, "run_loss_checks", lambda: [("loss/bsd", 2e-7)])
    inner = model.backward

    def poisoned(m, tape, grad_p):
        grads = inner(m, tape, grad_p)
        grads["mid.u0.gamma"] = np.full_like(grads["mid.u0.gamma"], np.nan)
        return grads

    monkeypatch.setattr(model, "backward", poisoned)
    rc = cli.main(["gradcheck"])
    out = capsys.readouterr().out
    assert rc == cli.EXIT_CHECK_FAILED
    assert re.search(r"^FAIL  model/end_to_end +max_rel_err=nan$", out, re.M)
    assert "2/3 checks passed" in out


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def test_train_smoke_and_outputs(tmp_path, capsys):
    data = gen(tmp_path)
    out = str(tmp_path / "run")
    rc = cli.main(["train", "--data", data, "--out", out] + TINY)
    assert rc == cli.EXIT_OK
    for name in ("final.dgrd", "curve.csv", "summary.json", "timing.txt",
                 "effective_config.cfg"):
        assert os.path.exists(os.path.join(out, name)), name
    assert "trained 3 steps" in capsys.readouterr().out
    # the echoed config re-runs the identical training
    rc = cli.main(["train", "--data", data, "--out", str(tmp_path / "run2"),
                   "--config", os.path.join(out, "effective_config.cfg")])
    assert rc == cli.EXIT_OK
    assert (tmp_path / "run" / "final.dgrd").read_bytes() \
        == (tmp_path / "run2" / "final.dgrd").read_bytes()


def test_train_missing_dataset_is_io_error(tmp_path):
    rc = cli.main(["train", "--data", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "out")] + TINY)
    assert rc == cli.EXIT_IO


def test_train_requires_dirs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for given in ([], ["--data", "data"], ["--out", "out"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["train"] + given + TINY)
        assert exc.value.code == 2, given
        assert list(tmp_path.iterdir()) == [], given


@pytest.mark.parametrize("setting", ["sampler.max_translation_px=-3",
                                     "sampler.elastic_alpha=-4",
                                     "sampler.max_translation_px=40",
                                     "sampler.elastic_sigma=inf",
                                     "sampler.elastic_alpha=inf",
                                     "train.seed=-1"])
def test_train_negative_sampler_value_is_config_error(tmp_path, setting):
    # the config is validated before the (missing) dataset is read
    rc = cli.main(["train", "--data", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "out")] + TINY + ["--set", setting])
    assert rc == cli.EXIT_CONFIG


def test_train_non_finite_loss_is_numeric_error(tmp_path, capsys):
    data = gen(tmp_path)
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = cli.main(["train", "--data", data, "--out", str(tmp_path / "run")] + TINY
                      + ["--set", "train.learning_rate=1e300"])
    assert rc == cli.EXIT_NUMERIC
    # the error line alone: the layers' overflow warnings stay silent
    assert capsys.readouterr().err == "error: loss became non-finite at step 1\n"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_train_resume_matches_uninterrupted(tmp_path):
    data = gen(tmp_path)
    args = TINY + ["--set", "train.steps=4", "--set", "train.checkpoint_every=2"]
    full = str(tmp_path / "full")
    assert cli.main(["train", "--data", data, "--out", full] + args) == cli.EXIT_OK
    resumed = str(tmp_path / "resumed")
    rc = cli.main(["train", "--data", data, "--out", resumed,
                   "--resume", os.path.join(full, "ckpt_000002.dgrd")] + args)
    assert rc == cli.EXIT_OK
    with open(os.path.join(full, "final.dgrd"), "rb") as fa, \
         open(os.path.join(resumed, "final.dgrd"), "rb") as fb:
        assert fa.read() == fb.read()


def test_train_eval_every_without_holdout_is_config_error(tmp_path, capsys):
    # Checked before the (missing) dataset is read; nothing is written.
    out = tmp_path / "out"
    rc = cli.main(["train", "--data", str(tmp_path / "nope"), "--out", str(out)] + TINY
                  + ["--set", "train.holdout_cases=0", "--set", "train.eval_every=1"])
    assert rc == cli.EXIT_CONFIG
    assert "holdout_cases is 0" in capsys.readouterr().err
    assert not out.exists()


def test_train_bad_holdout_label_fails_before_any_step(tmp_path, capsys):
    # the held-out labels are checked when the dataset is read, not at the
    # first evaluation: nothing but the error is written
    data = gen_bad_holdout(tmp_path)
    capsys.readouterr()
    out = tmp_path / "out"
    rc = cli.main(["train", "--data", data, "--out", str(out)] + TINY
                  + ["--set", "train.eval_every=1"])
    assert rc == cli.EXIT_CONFIG
    captured = capsys.readouterr()
    assert "case case_002 has label 7" in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_train_resume_config_mismatch(tmp_path):
    data = gen(tmp_path)
    full = str(tmp_path / "full")
    assert cli.main(["train", "--data", data, "--out", full] + TINY) == cli.EXIT_OK
    rc = cli.main(["train", "--data", data, "--out", str(tmp_path / "bad"),
                   "--resume", os.path.join(full, "final.dgrd")]
                  + TINY + ["--set", "model.base_channels=4"])
    assert rc == cli.EXIT_CONFIG


def test_train_resume_past_configured_steps_is_config_error(tmp_path, capsys):
    # A step-3 checkpoint resumed with train.steps=1 has nothing to train:
    # refused before any curve, summary or checkpoint is written.
    data = gen(tmp_path)
    full = str(tmp_path / "full")
    assert cli.main(["train", "--data", data, "--out", full] + TINY) == cli.EXIT_OK
    out = tmp_path / "short"
    rc = cli.main(["train", "--data", data, "--out", str(out),
                   "--resume", os.path.join(full, "final.dgrd")]
                  + TINY + ["--set", "train.steps=1"])
    assert rc == cli.EXIT_CONFIG
    assert "at step 3, past train.steps=1" in capsys.readouterr().err
    assert not {"curve.csv", "summary.json", "final.dgrd"} & set(os.listdir(out))


def test_model_only_checkpoint_is_io_error(tmp_path, capsys):
    # A checkpoint stripped of its optimizer entries (CRC fixed) would
    # resume with fresh Adam moments; train and eval both refuse it.
    data = gen(tmp_path)
    run = str(tmp_path / "run")
    assert cli.main(["train", "--data", data, "--out", run] + TINY) == cli.EXIT_OK
    m, _ = checkpoint.load_checkpoint(os.path.join(run, "final.dgrd"))
    entries = [("cfg.in_channels", 1.0)]
    entries += [(f"cfg.{f}", float(getattr(m.cfg, f))) for f in checkpoint._CFG_FIELDS]
    entries += [(f"model.{n}", a) for n, a in m.state_table().items()]
    body = b"".join(checkpoint._pack_entry(n, a) for n, a in entries)
    ckpt = tmp_path / "model_only.dgrd"
    ckpt.write_bytes(checkpoint.MAGIC + struct.pack("<I", checkpoint.VERSION) + body
                     + struct.pack("<I", zlib.crc32(body)))
    capsys.readouterr()
    for argv in (["train", "--out", str(tmp_path / "resumed"), "--resume", str(ckpt)] + TINY,
                 ["eval", "--out", str(tmp_path / "eval"), "--checkpoint", str(ckpt)]):
        assert cli.main(argv + ["--data", data]) == cli.EXIT_IO
        assert "missing entry 'opt.step'" in capsys.readouterr().err
    assert not (tmp_path / "resumed" / "final.dgrd").exists()


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

def test_eval_self_test_is_perfect(tmp_path, capsys):
    data = gen(tmp_path)
    out = str(tmp_path / "eval")
    rc = cli.main(["eval", "--data", data, "--out", out,
                   "--set", "eval.oracle_self_test=true"])
    assert rc == cli.EXIT_OK
    rows = open(os.path.join(out, "metrics.csv")).read().splitlines()
    assert rows[0] == "case_id,label,dsc,asd_mm,flags"
    assert len(rows) == 1 + 3 * 6
    for row in rows[1:]:
        _, _, dsc, asd, flags = row.split(",")
        assert float(dsc) == 1.0
        assert float(asd) == 0.0
        assert flags == ""
    summary = open(os.path.join(out, "summary.csv")).read().splitlines()
    assert len(summary) == 1 + 6
    assert summary[0] == ("label,cases,dsc_mean,dsc_std,asd_mean,asd_std,"
                          "absent_cases,pred_empty_cases")
    for row in summary[1:]:
        (label, cases, dsc_mean, dsc_std, asd_mean, asd_std, absent,
         pred_empty) = row.split(",")
        assert (float(dsc_mean), float(dsc_std)) == (1.0, 0.0)
        assert (float(asd_mean), float(asd_std)) == (0.0, 0.0)
        assert (cases, absent, pred_empty) == ("3", "0", "0")
    out = capsys.readouterr().out
    assert "DSC  100.0 %" in out
    assert "0 predicted empty" in out


def test_eval_with_checkpoint(tmp_path):
    data = gen(tmp_path)
    run = str(tmp_path / "run")
    assert cli.main(["train", "--data", data, "--out", run] + TINY) == cli.EXIT_OK
    out = str(tmp_path / "eval")
    rc = cli.main(["eval", "--data", data, "--out", out,
                   "--checkpoint", os.path.join(run, "final.dgrd")] + TINY)
    assert rc == cli.EXIT_OK
    # the echo describes the evaluated model
    echo = open(os.path.join(out, "effective_config.cfg")).read().splitlines()
    assert "model.base_channels = 2" in echo
    rows = open(os.path.join(out, "metrics.csv")).read().splitlines()
    assert len(rows) == 1 + 3 * 6
    pred_empty = dict.fromkeys(range(1, 7), 0)
    for row in rows[1:]:
        _, label, dsc, _, flags = row.split(",")
        assert 0.0 <= float(dsc) <= 1.0
        pred_empty[int(label)] += "pred_empty" in flags.split(";")
    summary = open(os.path.join(out, "summary.csv")).read().splitlines()
    assert summary[0].endswith(",absent_cases,pred_empty_cases")
    got = {int(r.split(",")[0]): int(r.split(",")[-1]) for r in summary[1:]}
    assert got == pred_empty


def test_eval_counts_empty_predictions(tmp_path, capsys):
    data = gen(tmp_path)
    run = str(tmp_path / "run")
    assert cli.main(["train", "--data", data, "--out", run] + TINY) == cli.EXIT_OK
    m, state = checkpoint.load_checkpoint(os.path.join(run, "final.dgrd"))
    m.final.bias[0] = 1e6                # every voxel predicted background
    ckpt = os.path.join(run, "background.dgrd")
    checkpoint.save_checkpoint(m, state, ckpt)
    out = str(tmp_path / "eval")
    assert cli.main(["eval", "--data", data, "--out", out,
                     "--checkpoint", ckpt] + TINY) == cli.EXIT_OK
    summary = open(os.path.join(out, "summary.csv")).read().splitlines()
    assert [r.split(",")[-2:] for r in summary[1:]] == [["3", "3"]] * 6
    assert capsys.readouterr().out.count("3 flagged, 3 predicted empty") == 6


def test_eval_checkpoint_config_mismatch_is_config_error(tmp_path, capsys):
    # A base_channels=2 checkpoint evaluated under the default model config:
    # refused before any file is written, so no echo can misdescribe it.
    data = gen(tmp_path)
    run = str(tmp_path / "run")
    assert cli.main(["train", "--data", data, "--out", run] + TINY) == cli.EXIT_OK
    capsys.readouterr()
    out = tmp_path / "eval"
    rc = cli.main(["eval", "--data", data, "--out", str(out),
                   "--checkpoint", os.path.join(run, "final.dgrd")])
    assert rc == cli.EXIT_CONFIG
    assert "!= configured" in capsys.readouterr().err
    assert not out.exists()


def test_eval_corrupt_checkpoint_is_io_error(tmp_path, capsys):
    data = gen(tmp_path)
    ckpt = tmp_path / "corrupt.dgrd"
    ckpt.write_bytes(b"not a checkpoint")
    rc = cli.main(["eval", "--data", data, "--out", str(tmp_path / "eval"),
                   "--checkpoint", str(ckpt)])
    assert rc == cli.EXIT_IO
    assert "bad magic" in capsys.readouterr().err


def test_eval_malformed_checkpoint_scalar_is_io_error(tmp_path, capsys):
    # A CRC-valid checkpoint whose depth is NaN: one error line, exit 3.
    data = gen(tmp_path)
    m = model.build_model(model.ModelConfig(num_labels=7, depth=1, base_channels=2,
                                            patch_size=16), Rng(0))
    entries = [("cfg.in_channels", 1.0)]
    entries += [(f"cfg.{f}", np.nan if f == "depth" else float(getattr(m.cfg, f)))
                for f in checkpoint._CFG_FIELDS]
    entries += [(f"model.{n}", a) for n, a in m.state_table().items()]
    body = b"".join(checkpoint._pack_entry(n, a) for n, a in entries)
    ckpt = tmp_path / "nan_depth.dgrd"
    ckpt.write_bytes(checkpoint.MAGIC + struct.pack("<I", checkpoint.VERSION) + body
                     + struct.pack("<I", zlib.crc32(body)))
    rc = cli.main(["eval", "--data", data, "--out", str(tmp_path / "eval"),
                   "--checkpoint", str(ckpt)])
    assert rc == cli.EXIT_IO
    assert "'cfg.depth' must be a non-negative integer scalar, got nan" in capsys.readouterr().err


def test_eval_checkpoint_config_larger_than_its_tensors_is_io_error(tmp_path, capsys):
    # A saved checkpoint whose cfg.base_channels was rewritten (CRC fixed).
    data = gen(tmp_path)
    m = model.build_model(model.ModelConfig(num_labels=7, depth=1, base_channels=2,
                                            patch_size=16), Rng(0))
    ckpt = tmp_path / "base128.dgrd"
    checkpoint.save_checkpoint(m, optim.AdamState.fresh(m.param_table()), ckpt)
    raw = bytearray(ckpt.read_bytes())
    at = raw.index(b"cfg.base_channels") + len(b"cfg.base_channels") + 4
    raw[at:at + 8] = struct.pack("<d", 128.0)
    raw[-4:] = struct.pack("<I", zlib.crc32(bytes(raw[8:-4])))
    ckpt.write_bytes(bytes(raw))
    rc = cli.main(["eval", "--data", data, "--out", str(tmp_path / "eval"),
                   "--checkpoint", str(ckpt)])
    assert rc == cli.EXIT_IO
    assert "tensor 'model.enc0.u0.weights' has shape (2, 1, 3, 3)" in capsys.readouterr().err


def test_eval_needs_checkpoint_or_self_test(tmp_path):
    data = gen(tmp_path)
    rc = cli.main(["eval", "--data", data, "--out", str(tmp_path / "e")])
    assert rc == cli.EXIT_CONFIG


def test_eval_self_test_with_checkpoint_is_config_error(tmp_path, capsys):
    # Refused before anything is read: neither the dataset nor the
    # checkpoint exists, which would otherwise be an I/O error.
    rc = cli.main(["eval", "--data", str(tmp_path / "no_data"), "--out", str(tmp_path / "e"),
                   "--checkpoint", str(tmp_path / "no.dgrd"),
                   "--set", "eval.oracle_self_test=true"])
    assert rc == cli.EXIT_CONFIG
    assert "takes no --checkpoint" in capsys.readouterr().err
    assert not (tmp_path / "e").exists()


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def test_compare_outputs_and_svg(tmp_path, capsys):
    data = gen(tmp_path)
    out = str(tmp_path / "cmp")
    rc = cli.main(["compare", "--data", data, "--out", out] + TINY
                  + ["--set", "compare.losses=ce,bsd", "--set", "compare.seeds=0",
                     "--set", "train.steps=2"])
    assert rc == cli.EXIT_OK
    assert os.path.exists(os.path.join(out, "compare_results.csv"))
    verdicts = open(os.path.join(out, "verdicts.txt")).read().splitlines()
    assert len(verdicts) == 2                     # one per small label
    assert all("bsd>ce" in v for v in verdicts)
    assert os.path.exists(os.path.join(out, "ce_s0", "final.dgrd"))
    assert os.path.exists(os.path.join(out, "bsd_s0", "final.dgrd"))
    svgs = [n for n in os.listdir(out) if n.endswith(".svg")]
    assert sorted(svgs) == [f"dsc_label{l}.svg" for l in range(1, 7)]
    root = ET.parse(os.path.join(out, svgs[0])).getroot()
    assert root.tag.endswith("svg")
    boxes = [el for el in root.iter() if el.get("class") == "box"]
    assert len(boxes) == 2                        # one per loss kind
    assert "bsd>ce" in capsys.readouterr().out


@pytest.mark.parametrize("setting", ["compare.small_labels=9", "compare.seeds=0,0",
                                     "compare.losses=", "compare.seeds=",
                                     "compare.small_labels=", "train.holdout_cases=0"])
def test_compare_bad_config_is_config_error(tmp_path, capsys, setting):
    # rejected before any cell trains, so the missing dataset is never read;
    # a study with no cell or no holdout case has nothing to report
    out = tmp_path / "cmp"
    rc = cli.main(["compare", "--data", str(tmp_path / "nope"), "--out", str(out)]
                  + TINY + ["--set", setting])
    assert rc == cli.EXIT_CONFIG
    assert setting.split("=")[0] in capsys.readouterr().err
    assert not (out / "verdicts.txt").exists()
    assert not (out / "compare_results.csv").exists()


def test_compare_negative_seed_is_config_error(tmp_path, capsys):
    # each cell's config is built, and checked, before any cell trains
    out = tmp_path / "cmp"
    rc = cli.main(["compare", "--data", str(tmp_path / "nope"), "--out", str(out)]
                  + TINY + ["--set", "compare.seeds=0,-1"])
    assert rc == cli.EXIT_CONFIG
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == ["effective_config.cfg"]


@pytest.mark.parametrize("setting,code", [
    ("missing", cli.EXIT_IO),                       # no manifest.csv
    ("train.holdout_cases=3", cli.EXIT_CONFIG),     # the whole 3-case dataset
    ("model.num_labels=5", cli.EXIT_CONFIG),        # the phantoms have labels 0..6
    ("bad_holdout", cli.EXIT_CONFIG),               # label 7 in the held-out case
])
def test_compare_bad_dataset_fails_before_any_cell(tmp_path, capsys, setting, code):
    # checked once before any cell trains: no cell directory, CSV or verdicts
    if setting == "missing":
        data = str(tmp_path / "nope")
    elif setting == "bad_holdout":
        data = gen_bad_holdout(tmp_path)
    else:
        data = gen(tmp_path)
    capsys.readouterr()
    out = tmp_path / "cmp"
    rc = cli.main(["compare", "--data", data, "--out", str(out)] + TINY
                  + ["--set", "compare.losses=ce,bsd", "--set", "compare.seeds=0"]
                  + (["--set", setting] if "=" in setting else []))
    assert rc == code
    assert "error:" in capsys.readouterr().err
    assert sorted(os.listdir(out)) == ["effective_config.cfg"]


@pytest.mark.parametrize("setting,code,cls", [
    # a 1x1 bottleneck of one item: batch norm cannot normalize it
    ("model.depth=5,model.patch_size=32,sampler.batch_size=1", cli.EXIT_CONFIG,
     "ValidationError"),
    ("train.learning_rate=1e300", cli.EXIT_NUMERIC, "NumericError"),
])
def test_compare_whose_every_cell_fails_exits_by_the_cell_error(tmp_path, capsys, setting,
                                                                code, cls):
    data = str(tmp_path / "data")
    assert cli.main(["gen-data", "--out", data, "--set", "data.num_cases=3",
                     "--set", "phantom.volume_size=32"]) == cli.EXIT_OK
    sets = TINY + [arg for pair in setting.split(",") for arg in ("--set", pair)]
    capsys.readouterr()
    assert cli.main(["train", "--data", data, "--out", str(tmp_path / "run")] + sets) == code
    error = capsys.readouterr().err.splitlines()[-1]
    out = tmp_path / "cmp"
    rc = cli.main(["compare", "--data", data, "--out", str(out)] + sets
                  + ["--set", "compare.losses=ce,bsd", "--set", "compare.seeds=0"])
    # the reports are written, then the first cell's error decides the exit,
    # as it does for train
    assert rc == code
    why = error.removeprefix("error: ")
    assert capsys.readouterr().err.splitlines()[-3:] == [
        f"warning: cell (ce, seed 0) failed: {cls}: {why}",
        f"warning: cell (bsd, seed 0) failed: {cls}: {why}",
        error]
    assert (out / "compare_results.csv").read_text() == "loss,seed,case_id,label,dsc,asd_mm\n"
    assert (out / "verdicts.txt").exists()


@pytest.mark.parametrize("cls,code", [(ValidationError, cli.EXIT_CONFIG),
                                      (IoError, cli.EXIT_IO), (OSError, cli.EXIT_IO),
                                      (NumericError, cli.EXIT_NUMERIC)],
                         ids=["ValidationError", "IoError", "OSError", "NumericError"])
def test_main_exit_code_is_decided_by_error_class(monkeypatch, capsys, cls, code):
    def fail(args, cfg):
        raise cls("boom")

    monkeypatch.setattr(cli, "cmd_gradcheck", fail)
    assert cli.main(["gradcheck"]) == code
    assert capsys.readouterr().err == "error: boom\n"


@pytest.mark.parametrize("value", ["abc", "0"])
def test_bad_worker_count_is_config_error(tmp_path, monkeypatch, capsys, value):
    monkeypatch.setenv("DICEGRAD_THREADS", value)
    rc = cli.main(["compare", "--data", str(tmp_path / "data"),
                   "--out", str(tmp_path / "cmp")])
    assert rc == cli.EXIT_CONFIG
    assert "DICEGRAD_THREADS" in capsys.readouterr().err


def test_help_via_entry_point():
    import subprocess

    proc = subprocess.run(["dicegrad", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    for sub in ("gen-data", "gradcheck", "train", "eval", "compare"):
        assert sub in proc.stdout
