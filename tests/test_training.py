"""Adam optimizer, training loop determinism, resume, and run records."""

import concurrent.futures
import json
import math
from dataclasses import replace

import numpy as np
import pytest

from dicegrad import checkpoint, optim, training
from dicegrad.errors import NumericError, ValidationError
from dicegrad.losses import LossConfig
from dicegrad.model import ModelConfig, build_model
from dicegrad.phantom import PhantomSpec, generate_phantom
from dicegrad.sampling import PatchDataset, SamplerConfig
from dicegrad.tensor_core import Rng
from dicegrad.training import (AdamState, TrainConfig, adam_step, train,
                               write_run_record)


@pytest.fixture(scope="module")
def tiny_world():
    """Three small phantom cases, a tiny model config, and a fast TrainConfig."""
    spec = PhantomSpec()
    cases = [(f"case_{i:03d}", generate_phantom(spec, 500 + i)) for i in range(3)]
    dataset = PatchDataset(cases[:2], num_labels=7)
    holdout = cases[2:]
    model_cfg = ModelConfig(num_labels=7, depth=1, base_channels=2, patch_size=16)
    return dataset, holdout, model_cfg


def fast_cfg(**kw):
    defaults = dict(
        steps=12,
        learning_rate=1e-3,
        seed=0,
        loss=LossConfig(kind="bsd", dice_label_mode="per_label_mean"),
        sampler=SamplerConfig(patch_size=16, batch_size=4, center_jitter_px=4,
                              elastic_sigma=3.0, elastic_alpha=1.0),
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


# ---------------------------------------------------------------------------
# Adam
# ---------------------------------------------------------------------------

def test_adam_zero_gradient_keeps_params():
    params = {"w": np.array([1.0, -2.0, 3.0])}
    state = AdamState.fresh(params)
    before = params["w"].copy()
    adam_step(params, {"w": np.zeros(3)}, state, 1e-3)
    assert np.array_equal(params["w"], before)
    assert state.step == 1


def test_adam_single_step_oracle():
    lr, g = 0.01, 0.7
    params = {"w": np.array([2.0])}
    state = AdamState.fresh(params)
    adam_step(params, {"w": np.array([g])}, state, lr)
    # bias-corrected first step: m_hat = g, v_hat = g^2
    want = 2.0 - lr * g / (math.sqrt(g * g) + optim.EPS)
    assert abs(params["w"][0] - want) < 1e-15


def test_adam_sequence_matches_scalar_reference():
    # five steps on one weight against a plain-float transcription of the
    # textbook recurrence
    lr, b1, b2 = 0.05, optim.BETA1, optim.BETA2
    grads = [0.3, -0.2, 0.11, 0.9, -0.5]
    params = {"w": np.array([1.0])}
    state = AdamState.fresh(params)
    w, m, v = 1.0, 0.0, 0.0
    for t, g in enumerate(grads, start=1):
        adam_step(params, {"w": np.array([g])}, state, lr)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** t)
        v_hat = v / (1 - b2 ** t)
        w -= lr * m_hat / (math.sqrt(v_hat) + optim.EPS)
        assert abs(params["w"][0] - w) < 1e-12, t


def test_adam_rejects_non_finite_gradient():
    params = {"w": np.array([1.0])}
    state = AdamState.fresh(params)
    with pytest.raises(NumericError, match="'w'"):
        adam_step(params, {"w": np.array([np.nan])}, state, 1e-3)


def test_adam_checks_every_gradient_before_any_update():
    # A NaN in the later parameter's gradient must leave the earlier one, its
    # moments and the step count bitwise as two clean steps left them.
    params = {"a": np.array([1.0, -2.0]), "b": np.array([0.5])}
    state = AdamState.fresh(params)
    for g in (0.3, -0.2):
        adam_step(params, {"a": np.full(2, g), "b": np.array([g])}, state, 0.05)
    kept = [arr.copy() for arr in (params["a"], state.m["a"], state.v["a"],
                                   params["b"], state.m["b"], state.v["b"])]
    with pytest.raises(NumericError, match="'b' at step 2$"):
        adam_step(params, {"a": np.full(2, 0.1), "b": np.array([np.nan])}, state, 0.05)
    assert state.step == 2
    after = (params["a"], state.m["a"], state.v["a"], params["b"], state.m["b"], state.v["b"])
    assert all(x.tobytes() == y.tobytes() for x, y in zip(after, kept))


def test_adam_numbers_a_non_finite_step_as_curve_csv_does(tiny_world, tmp_path, monkeypatch):
    # curve.csv numbers steps from 0, and so does Adam's error: on a fresh
    # state it is step 0, and after two clean steps (rows 0 and 1) step 2.
    params = {"w": np.array([1.0])}
    with pytest.raises(NumericError, match="'w' at step 0$"):
        adam_step(params, {"w": np.array([np.inf])}, AdamState.fresh(params), 1e-3)
    dataset, _, model_cfg = tiny_world
    train(build_model(model_cfg, Rng(1)), dataset, fast_cfg(steps=2), out_dir=str(tmp_path))
    rows = (tmp_path / "curve.csv").read_text().splitlines()
    assert [row.split(",")[0] for row in rows] == ["step", "0", "1"]
    inner = training.model_mod.backward
    calls = []

    def poisoned(m, tape, grad_p):
        grads = inner(m, tape, grad_p)
        calls.append(None)
        if len(calls) == 3:
            grads["head.bias"] = np.full_like(grads["head.bias"], np.nan)
        return grads

    monkeypatch.setattr(training.model_mod, "backward", poisoned)
    with pytest.raises(NumericError, match="'head.bias' at step 2$"):
        train(build_model(model_cfg, Rng(1)), dataset, fast_cfg(steps=3))


def test_train_config_validation():
    for bad in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValidationError):
            fast_cfg(learning_rate=bad)
    with pytest.raises(ValidationError):
        fast_cfg(steps=-1)
    with pytest.raises(ValidationError):
        fast_cfg(checkpoint_every=-5)
    with pytest.raises(ValidationError):
        fast_cfg(eval_every=-5)
    with pytest.raises(ValidationError, match="holdout_cases is 0"):
        fast_cfg(eval_every=1, holdout_cases=0)
    with pytest.raises(ValidationError, match="seed"):
        fast_cfg(seed=-1)


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def test_training_descends_and_is_deterministic(tiny_world):
    dataset, _, model_cfg = tiny_world
    cfg = fast_cfg(steps=25)

    def run():
        m = build_model(model_cfg, Rng(cfg.seed).child(1))
        return train(m, dataset, cfg)

    m1, rec1 = run()
    m2, rec2 = run()
    assert rec1.losses == rec2.losses
    for name, p in m1.param_table().items():
        assert np.array_equal(p, m2.param_table()[name]), name
    first = np.mean([v for _, v in rec1.losses[:5]])
    last = np.mean([v for _, v in rec1.losses[-5:]])
    assert last < first


def test_zero_steps_writes_empty_record(tiny_world, tmp_path):
    dataset, _, model_cfg = tiny_world
    m = build_model(model_cfg, Rng(0))
    _, rec = train(m, dataset, fast_cfg(steps=0), out_dir=tmp_path)
    assert rec.losses == []
    assert (tmp_path / "final.dgrd").exists()
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["final_loss"] is None
    assert summary["steps_recorded"] == 0


def test_periodic_eval_and_outputs(tiny_world, tmp_path):
    dataset, holdout, model_cfg = tiny_world
    cfg = fast_cfg(steps=4, eval_every=2, checkpoint_every=2)
    m = build_model(model_cfg, Rng(3))
    _, rec = train(m, dataset, cfg, out_dir=tmp_path, holdout=holdout)
    assert [step for step, _ in rec.evals] == [2, 4]
    for _, by_label in rec.evals:
        assert sorted(by_label) == [1, 2, 3, 4, 5, 6]
        assert all(0.0 <= v <= 1.0 for v in by_label.values())
    assert (tmp_path / "ckpt_000002.dgrd").exists()
    assert (tmp_path / "ckpt_000004.dgrd").exists()
    assert (tmp_path / "curve.csv").exists()
    lines = (tmp_path / "curve.csv").read_text().splitlines()
    assert lines[0] == "step,loss"
    assert len(lines) == 5
    step, value = lines[1].split(",")
    assert (int(step), float(value)) == rec.losses[0]


def test_holdout_label_out_of_range_is_rejected(tiny_world):
    dataset, holdout, model_cfg = tiny_world
    case_id, vol = holdout[0]
    labels = vol.labels.copy()
    labels[0, 0, 0] = model_cfg.num_labels
    bad = [(case_id, replace(vol, labels=labels))]
    m = build_model(model_cfg, Rng(3))
    with pytest.raises(ValidationError, match=f"has label {model_cfg.num_labels}"):
        train(m, dataset, fast_cfg(steps=1, eval_every=1), holdout=bad)


def test_resume_reproduces_uninterrupted_run(tiny_world, tmp_path):
    dataset, _, model_cfg = tiny_world
    cfg = fast_cfg(steps=10, checkpoint_every=5)

    full_dir = tmp_path / "full"
    m_full = build_model(model_cfg, Rng(cfg.seed).child(1))
    m_full, rec_full = train(m_full, dataset, cfg, out_dir=full_dir)

    m_back, state = checkpoint.load_checkpoint(full_dir / "ckpt_000005.dgrd")
    assert state is not None and state.step == 5
    resumed_dir = tmp_path / "resumed"
    m_back, rec_resumed = train(m_back, dataset, cfg, out_dir=resumed_dir,
                                state=state)
    # the resumed tail must be the exact bits of the uninterrupted run
    assert rec_resumed.losses == rec_full.losses[5:]
    for name, p in m_full.param_table().items():
        assert np.array_equal(p, m_back.param_table()[name]), name
    assert ((full_dir / "final.dgrd").read_bytes()
            == (resumed_dir / "final.dgrd").read_bytes())


def test_run_record_is_bitwise_reproducible(tiny_world, tmp_path):
    dataset, _, model_cfg = tiny_world
    cfg = fast_cfg(steps=6)
    dirs = []
    for tag in ("a", "b"):
        d = tmp_path / tag
        m = build_model(model_cfg, Rng(cfg.seed).child(1))
        train(m, dataset, cfg, out_dir=d)
        dirs.append(d)
    a, b = dirs
    assert (a / "curve.csv").read_bytes() == (b / "curve.csv").read_bytes()
    assert (a / "summary.json").read_bytes() == (b / "summary.json").read_bytes()
    assert (a / "final.dgrd").read_bytes() == (b / "final.dgrd").read_bytes()
    # timing may differ between runs; it lives outside the reproducible set
    assert (a / "timing.txt").exists()


def test_write_run_record_roundtrip(tmp_path):
    rec = training.RunRecord(
        losses=[(0, 1.5), (1, 1.25)],
        evals=[(2, {1: 0.5, 2: 0.75})],
        wall_clock=3.25,
    )
    write_run_record(tmp_path, rec)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["final_loss"] == 1.25
    assert summary["evals"] == [{"step": 2, "mean_dsc": {"1": 0.5, "2": 0.75}}]
    assert (tmp_path / "timing.txt").read_text() == "wall_clock_seconds=3.250\n"


# ---------------------------------------------------------------------------
# comparison driver
# ---------------------------------------------------------------------------

def synthetic_results():
    """bsd wins label 3 in 2 of 3 seeds and on the seed-mean over sd;
    label 4 goes to ce everywhere."""
    rows = []
    dsc = {
        ("bsd", 3): [0.70, 0.60, 0.20],
        ("ce", 3): [0.30, 0.20, 0.40],
        ("sd", 3): [0.40, 0.30, 0.35],
        ("bsd", 4): [0.10, 0.10, 0.10],
        ("ce", 4): [0.50, 0.50, 0.50],
        ("sd", 4): [0.20, 0.20, 0.20],
    }
    for (kind, label), vals in dsc.items():
        for seed, v in enumerate(vals):
            rows.append(training.CaseResult(kind, seed, "case_000", label, v, None))
    return rows


def test_label_stats_filters():
    rows = synthetic_results()

    def dsc_pairs(kind, seed=None):
        return [(r.label, r.dsc) for r in rows
                if r.loss_kind == kind and (seed is None or r.seed == seed)]

    assert training.label_stats(dsc_pairs("bsd", seed=0), (3,)) == {3: ([0.70], 0.70, 0.0)}
    vals, mean, _ = training.label_stats(dsc_pairs("bsd"), (3,))[3]
    assert vals == [0.70, 0.60, 0.20] and abs(mean - 0.5) < 1e-12
    vals, mean, std = training.label_stats(dsc_pairs("wce"), (3,))[3]
    assert vals == [] and math.isnan(mean) and math.isnan(std)
    # None values and labels outside `labels` are left out; `labels` sets the order
    stats = training.label_stats([(4, 1.0), (3, None), (9, 5.0), (4, 3.0)], (4, 3))
    assert list(stats) == [4, 3]
    assert stats[4] == ([1.0, 3.0], 2.0, 1.0)
    assert stats[3][0] == [] and math.isnan(stats[3][1])


def test_comparison_csv_roundtrip(tmp_path):
    rows = synthetic_results()
    cmp_cfg = training.CompareConfig(losses=("ce", "sd", "bsd"), seeds=(0, 1, 2),
                                     small_labels=(3, 4))
    verdicts = training.write_compare_reports(tmp_path, rows, cmp_cfg, num_labels=7)
    lines = (tmp_path / "compare_results.csv").read_text().splitlines()
    assert lines[0] == "loss,seed,case_id,label,dsc,asd_mm"
    assert len(lines) == len(rows) + 1
    kind, seed, case_id, label, dsc, asd = lines[1].split(",")
    assert (kind, int(seed), case_id, int(label)) == ("bsd", 0, "case_000", 3)
    assert float(dsc) == 0.70
    assert asd == ""                      # None serializes as empty
    assert verdicts == [
        "label 3: bsd>ce in 2/3 seeds (mean dsc bsd 0.500, sd 0.350, ce 0.300); "
        "bsd mean > sd mean: yes",
        "label 4: bsd>ce in 0/3 seeds (mean dsc bsd 0.100, sd 0.200, ce 0.500); "
        "bsd mean > sd mean: no",
    ]
    assert (tmp_path / "verdicts.txt").read_text() == "".join(v + "\n" for v in verdicts)
    # one box plot per label that has rows
    assert sorted(p.name for p in tmp_path.glob("*.svg")) == ["dsc_label3.svg",
                                                              "dsc_label4.svg"]


def test_compare_verdicts_for_losses_without_rows():
    rows = synthetic_results()
    cmp_cfg = training.CompareConfig(losses=("ce", "sd", "bsd"), seeds=(0, 1, 2),
                                     small_labels=(3, 4))
    # bsd lost its seed-1 cell; sd has no rows (a ce,bsd study); label 4 has
    # no bsd rows at all.
    kept = [r for r in rows if r.loss_kind != "sd"
            and not (r.loss_kind == "bsd" and (r.seed == 1 or r.label == 4))]
    assert training.compare_verdicts(kept, cmp_cfg) == [
        "label 3: bsd>ce in 1/2 seeds, 1 without bsd or ce rows "
        "(mean dsc bsd 0.450, sd n/a, ce 0.300); bsd mean > sd mean: n/a",
        "label 4: bsd>ce in 0/0 seeds, 3 without bsd or ce rows "
        "(mean dsc bsd n/a, sd n/a, ce 0.500); bsd mean > sd mean: n/a",
    ]
    assert training.compare_verdicts([], cmp_cfg)[0] == (
        "label 3: bsd>ce in 0/0 seeds, 3 without bsd or ce rows "
        "(mean dsc bsd n/a, sd n/a, ce n/a); bsd mean > sd mean: n/a")


def _dataset_dir(tmp_path):
    from dicegrad import volume_io

    tmp_path.mkdir(parents=True, exist_ok=True)
    spec = PhantomSpec()
    refs = []
    for i in range(3):
        vol = generate_phantom(spec, 900 + i)
        refs.append(volume_io.save_case(tmp_path, f"case_{i:03d}", vol, 900 + i))
    volume_io.write_manifest(tmp_path, refs)
    return tmp_path


def test_load_split(tmp_path):
    data_dir = _dataset_dir(tmp_path)
    ds, holdout = training.load_split(data_dir, 1, num_labels=7)
    assert len(ds.cases) == 2
    assert [cid for cid, _ in holdout] == ["case_002"]
    with pytest.raises(ValidationError):
        training.load_split(data_dir, 3, num_labels=7)


def test_run_loss_comparison_sequential_and_parallel(tmp_path):
    data_dir = _dataset_dir(tmp_path / "data")
    model_cfg = ModelConfig(num_labels=7, depth=1, base_channels=2, patch_size=16)
    base = fast_cfg(steps=2, holdout_cases=1)
    cmp_cfg = training.CompareConfig(losses=("ce", "bsd"), seeds=(0,),
                                     small_labels=(3, 4))

    seq = training.run_loss_comparison(data_dir, model_cfg, base, cmp_cfg,
                                       tmp_path / "seq", max_workers=1)
    assert seq.failed_cells == []
    # two cells x one holdout case x six foreground labels
    assert len(seq.results) == 2 * 1 * 6
    assert (tmp_path / "seq" / "ce_s0" / "final.dgrd").exists()
    assert (tmp_path / "seq" / "bsd_s0" / "final.dgrd").exists()
    verdicts = training.compare_verdicts(seq.results, cmp_cfg)
    assert [v.split(":")[0] for v in verdicts] == ["label 3", "label 4"]

    par = training.run_loss_comparison(data_dir, model_cfg, base, cmp_cfg,
                                       tmp_path / "par", max_workers=2)
    # worker scheduling must not change any result
    assert par.results == seq.results


def test_run_loss_comparison_starts_no_more_workers_than_cells(tmp_path, monkeypatch):
    # The pool forks all its workers at the first submit, so it is sized to
    # the cells; here it runs in-process and starts no processes.
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    def fake_cell(data_dir, model_cfg, cell_cfg, cell_dir):
        return [training.CaseResult(cell_cfg.loss.kind, cell_cfg.seed, "case_000", 3,
                                    0.5, None)]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(training, "_run_cell", fake_cell)
    model_cfg = ModelConfig(num_labels=7, depth=1, base_channels=2, patch_size=16)
    cmp_cfg = training.CompareConfig(losses=("ce", "bsd"), seeds=(0,), small_labels=(3,))
    report = training.run_loss_comparison(_dataset_dir(tmp_path / "data"), model_cfg,
                                          fast_cfg(steps=1, holdout_cases=1), cmp_cfg,
                                          tmp_path / "out", max_workers=8)
    assert sizes == [2]
    assert report.failed_cells == []
    assert [(r.loss_kind, r.seed) for r in report.results] == [("bsd", 0), ("ce", 0)]


@pytest.mark.parametrize("key,value", [
    ("compare.small_labels", (9,)), ("compare.small_labels", (0,)),
    ("compare.small_labels", (3, 7)), ("compare.small_labels", (3, 3)),
    ("compare.losses", ("ce", "ce")), ("compare.seeds", (0, 0)),
    ("compare.losses", ()), ("compare.seeds", ()), ("compare.small_labels", ()),
    ("train.holdout_cases", 0),
], ids=["label9", "label0", "label7", "label-repeat", "loss-repeat", "seed-repeat",
        "no-loss", "no-seed", "no-small-label", "no-holdout"])
def test_run_loss_comparison_rejects_bad_config(tmp_path, key, value):
    # Rejected before any cell trains; the dataset is never read.
    model_cfg = ModelConfig(num_labels=7, depth=1, base_channels=2, patch_size=16)
    cfgs = {"train": fast_cfg(steps=1),
            "compare": training.CompareConfig(losses=("ce", "bsd"), seeds=(0,),
                                              small_labels=(3,))}
    section, name = key.split(".")
    cfgs[section] = replace(cfgs[section], **{name: value})
    with pytest.raises(ValidationError, match=key):
        training.run_loss_comparison(tmp_path / "nope", model_cfg, cfgs["train"],
                                     cfgs["compare"], tmp_path / "out")
    assert not (tmp_path / "out").exists()


def test_run_loss_comparison_collects_cell_failures(tmp_path):
    data_dir = _dataset_dir(tmp_path / "data")
    model_cfg = ModelConfig(num_labels=7, depth=1, base_channels=2, patch_size=16)
    # A learning rate this large overflows the weights in the first Adam
    # step, so every cell fails on its second step with a non-finite value.
    base = fast_cfg(steps=2, holdout_cases=1, learning_rate=1e300)
    cmp_cfg = training.CompareConfig(losses=("ce",), seeds=(0, 1), small_labels=(3,))
    report = training.run_loss_comparison(data_dir, model_cfg, base, cmp_cfg,
                                          tmp_path / "out", max_workers=1)
    assert report.results == []
    assert {(k, s) for k, s, _ in report.failed_cells} == {("ce", 0), ("ce", 1)}
    assert all(isinstance(exc, NumericError) for _, _, exc in report.failed_cells)
