"""Command-line behavior: outputs, determinism, exit codes."""

import os
import warnings
import xml.etree.ElementTree as ET

import pytest

from dicegrad import checkpoint, cli, gradcheck


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


def test_gen_data_requires_out():
    assert cli.main(["gen-data"]) == cli.EXIT_CONFIG


def test_unknown_config_key_is_config_error(tmp_path):
    rc = cli.main(["gen-data", "--out", str(tmp_path / "x"),
                   "--set", "data.cases=3"])
    assert rc == cli.EXIT_CONFIG


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


def test_train_requires_dirs():
    assert cli.main(["train"] + TINY) == cli.EXIT_CONFIG


def test_train_bad_adam_eps_is_config_error(tmp_path):
    # the config is validated before the (missing) dataset is read
    rc = cli.main(["train", "--data", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "out")] + TINY + ["--set", "train.adam_eps=-1"])
    assert rc == cli.EXIT_CONFIG


@pytest.mark.parametrize("setting", ["sampler.max_translation_px=-3",
                                     "sampler.elastic_alpha=-4"])
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


def test_train_resume_config_mismatch(tmp_path):
    data = gen(tmp_path)
    full = str(tmp_path / "full")
    assert cli.main(["train", "--data", data, "--out", full] + TINY) == cli.EXIT_OK
    rc = cli.main(["train", "--data", data, "--out", str(tmp_path / "bad"),
                   "--resume", os.path.join(full, "final.dgrd")]
                  + TINY + ["--set", "model.base_channels=4"])
    assert rc == cli.EXIT_CONFIG


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
                   "--checkpoint", os.path.join(run, "final.dgrd")])
    assert rc == cli.EXIT_OK
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
                     "--checkpoint", ckpt]) == cli.EXIT_OK
    summary = open(os.path.join(out, "summary.csv")).read().splitlines()
    assert [r.split(",")[-2:] for r in summary[1:]] == [["3", "3"]] * 6
    assert capsys.readouterr().out.count("3 flagged, 3 predicted empty") == 6


def test_eval_corrupt_checkpoint_is_io_error(tmp_path, capsys):
    data = gen(tmp_path)
    ckpt = tmp_path / "corrupt.dgrd"
    ckpt.write_bytes(b"not a checkpoint")
    rc = cli.main(["eval", "--data", data, "--out", str(tmp_path / "eval"),
                   "--checkpoint", str(ckpt)])
    assert rc == cli.EXIT_IO
    assert "bad magic" in capsys.readouterr().err


def test_eval_needs_checkpoint_or_self_test(tmp_path):
    data = gen(tmp_path)
    rc = cli.main(["eval", "--data", data, "--out", str(tmp_path / "e")])
    assert rc == cli.EXIT_CONFIG


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


@pytest.mark.parametrize("setting", ["compare.small_labels=9", "compare.seeds=0,0"])
def test_compare_bad_config_is_config_error(tmp_path, capsys, setting):
    # rejected before any cell trains, so the missing dataset is never read
    rc = cli.main(["compare", "--data", str(tmp_path / "nope"),
                   "--out", str(tmp_path / "cmp")] + TINY + ["--set", setting])
    assert rc == cli.EXIT_CONFIG
    assert setting.split("=")[0] in capsys.readouterr().err


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
