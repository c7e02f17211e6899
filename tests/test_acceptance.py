"""Acceptance gate: six release criteria, one printed verdict line each.

Each test prints `ACCEPTANCE <n> PASS|FAIL ...` through the capture
barrier so the verdicts are visible in any pytest run, then asserts.
Criterion 5 checks the committed loss-comparison artifacts under
results/compare/; regenerate them with

    DICEGRAD_THREADS=2 dicegrad compare --data <dataset> --out results/compare \
        --set model.base_channels=9

where <dataset> is a default `dicegrad gen-data` output directory. From a
checkout where the package is not installed, the same commands run as

    PYTHONPATH=src python -m dicegrad.cli gen-data --out <dataset>
    DICEGRAD_THREADS=2 PYTHONPATH=src python -m dicegrad.cli compare \
        --data <dataset> --out results/compare --set model.base_channels=9
"""

import csv
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from dicegrad import cli, config, gradcheck, losses, metrics, training
from dicegrad.volume_io import LabeledVolume

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results" / "compare"

THRESHOLD = 1e-5            # per-unit gradient checks
THRESHOLD_E2E = 1e-4        # whole-model gradient check
IDENTITY_TOL = 1e-9         # dice-pooling identity, uniform-prediction CE
EXACT_TOL = 1e-12           # scalar-oracle and frequency-weighting identities
ASD_TOL = 1e-9              # distance metric vs brute-force oracle
MIN_GAP = 1e-3              # SD vs BSD must differ on the constructed batch


def report(capsys, num: int, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {num} {'PASS' if ok else 'FAIL'}  {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("accept") / "data")
    assert cli.main(["gen-data", "--out", out,
                     "--set", "data.num_cases=3"]) == cli.EXIT_OK
    return out


# ---------------------------------------------------------------------------
# criterion 1: finite differences agree with every analytic gradient
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_checks(capsys):
    t0 = time.monotonic()
    rows = gradcheck.run_layer_checks() + gradcheck.run_loss_checks()
    e2e = gradcheck.check_model_end_to_end()
    elapsed = time.monotonic() - t0
    worst = max(err for _, err in rows)
    bad = [name for name, err in rows if not err < THRESHOLD]
    ok = not bad and e2e < THRESHOLD_E2E and elapsed < 120.0
    report(capsys, 1, ok,
           f"{len(rows) - len(bad)}/{len(rows)} unit checks < {THRESHOLD:g} "
           f"(worst {worst:.2e}), end-to-end {e2e:.2e} < {THRESHOLD_E2E:g}, "
           f"{elapsed:.0f}s" + (f"; failed: {bad}" if bad else ""))


# ---------------------------------------------------------------------------
# criterion 2: loss identities
# ---------------------------------------------------------------------------

def softmax_batch(rng, shape):
    z = rng.normal(0.0, 2.0, size=shape)
    e = np.exp(z - z.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def one_hot_batch(rng, shape):
    num, labs, h, w = shape
    labels = rng.integers(0, labs, size=(num, h, w))
    return (labels[:, None] == np.arange(labs)[None, :, None, None]).astype(float)


def scalar_sd(p, r, eps, kept):
    total = 0.0
    for i in range(p.shape[0]):
        for lab in kept:
            num = 2.0 * float(np.sum(p[i, lab] * r[i, lab])) + eps
            den = float(np.sum(p[i, lab])) + float(np.sum(r[i, lab])) + eps
            total += num / den
    return 1.0 - total / (p.shape[0] * len(kept))


def scalar_bsd(p, r, eps, kept):
    total = 0.0
    for lab in kept:
        num = 2.0 * float(np.sum(p[:, lab] * r[:, lab])) + eps
        den = float(np.sum(p[:, lab])) + float(np.sum(r[:, lab])) + eps
        total += num / den
    return 1.0 - total / len(kept)


def test_criterion_2_loss_identities(capsys):
    rng = np.random.default_rng(2)

    # (a) pooling over a single image is per-image averaging, bitwise
    n_configs = 0
    bitwise_ok = True
    for mode in ("joint", "per_label_mean"):
        for eps in (1e-5, 1e-9, 0.0):
            for absent in (False, True):
                p = rng.uniform(0.05, 1.0, size=(1, 3, 5, 5))
                r = one_hot_batch(rng, (1, 3, 5, 5))
                if absent:
                    r[:, 2] = 0.0
                    r[:, 0] = 1.0 - r[:, 1]
                kw = dict(epsilon=eps, dice_label_mode=mode)
                sd = losses.compute_loss(p, r, losses.LossConfig(kind="sd", **kw))
                bsd = losses.compute_loss(p, r, losses.LossConfig(kind="bsd", **kw))
                n_configs += 1
                if sd.value != bsd.value or not np.array_equal(sd.grad_p, bsd.grad_p):
                    bitwise_ok = False

    # (b) joint-mode pooling identity at epsilon 0 under softmax probabilities
    worst_joint = 0.0
    for _ in range(120):
        shape = (int(rng.integers(2, 5)), int(rng.integers(2, 5)),
                 int(rng.integers(3, 9)), int(rng.integers(3, 9)))
        p = softmax_batch(rng, shape)
        r = one_hot_batch(rng, shape)
        cfg = dict(epsilon=0.0, dice_label_mode="joint")
        sd = losses.compute_loss(p, r, losses.LossConfig(kind="sd", **cfg))
        bsd = losses.compute_loss(p, r, losses.LossConfig(kind="bsd", **cfg))
        worst_joint = max(worst_joint, abs(sd.value - bsd.value))

    # (c) per-label mean mode separates the pooling orders; scalar oracle
    # confirms both sides on a batch with an all-background image
    p = softmax_batch(np.random.default_rng(5), (2, 2, 4, 4))
    r = np.zeros((2, 2, 4, 4))
    r[0, 0] = 1.0
    r[1, 1, :2] = 1.0
    r[1, 0, 2:] = 1.0
    eps = 1e-5
    per = dict(epsilon=eps, dice_label_mode="per_label_mean")
    sd = losses.compute_loss(p, r, losses.LossConfig(kind="sd", **per))
    bsd = losses.compute_loss(p, r, losses.LossConfig(kind="bsd", **per))
    gap = abs(sd.value - bsd.value)
    oracle_dev = max(abs(sd.value - scalar_sd(p, r, eps, (0, 1))),
                     abs(bsd.value - scalar_bsd(p, r, eps, (0, 1))))

    # (d) class weights on an equal-frequency batch scale CE by num_labels
    worst_wce = 0.0
    for labs in (2, 3, 4):
        side = 2 * labs
        flat = np.repeat(np.arange(labs), 2 * side * side // labs)
        labels = rng.permutation(flat).reshape(2, side, side)
        r = (labels[:, None] == np.arange(labs)[None, :, None, None]).astype(float)
        p = softmax_batch(rng, r.shape)
        ce = losses.compute_loss(p, r, losses.LossConfig(kind="ce"))
        wce = losses.compute_loss(p, r, losses.LossConfig(kind="wce"))
        worst_wce = max(worst_wce, abs(wce.value - labs * ce.value))

    # (e) uniform predictions cost exactly ln num_labels
    worst_unif = 0.0
    for labs in (2, 3, 7):
        shape = (2, labs, 5, 5)
        p = np.full(shape, 1.0 / labs)
        r = one_hot_batch(rng, shape)
        ce = losses.compute_loss(p, r, losses.LossConfig(kind="ce"))
        worst_unif = max(worst_unif, abs(ce.value - math.log(labs)))

    ok = (bitwise_ok and worst_joint < IDENTITY_TOL and gap > MIN_GAP
          and oracle_dev < EXACT_TOL and worst_wce < EXACT_TOL
          and worst_unif < IDENTITY_TOL)
    report(capsys, 2, ok,
           f"single-image pooling bitwise on {n_configs} configs: {bitwise_ok}; "
           f"joint identity worst {worst_joint:.1e}; per-label gap {gap:.1e} "
           f"(oracle dev {oracle_dev:.1e}); weighted-CE dev {worst_wce:.1e}; "
           f"uniform-CE dev {worst_unif:.1e}")


# ---------------------------------------------------------------------------
# criterion 3: metrics against brute-force oracles
# ---------------------------------------------------------------------------

def oracle_boundary(mask):
    pad = np.pad(mask, 1)
    interior = np.ones_like(mask)
    for axis in range(3):
        lo = [slice(1, -1)] * 3
        hi = [slice(1, -1)] * 3
        lo[axis] = slice(0, -2)
        hi[axis] = slice(2, None)
        interior &= pad[tuple(lo)] & pad[tuple(hi)]
    return mask & ~interior


def oracle_asd(a, b, spacing):
    pa = np.argwhere(oracle_boundary(a)) * np.asarray(spacing)
    pb = np.argwhere(oracle_boundary(b)) * np.asarray(spacing)

    def mins(src, dst):
        out = np.empty(len(src))
        for i in range(0, len(src), 512):
            blk = src[i:i + 512]
            d2 = ((blk[:, None, :] - dst[None, :, :]) ** 2).sum(axis=2)
            out[i:i + 512] = np.sqrt(d2.min(axis=1))
        return out

    return float(np.mean(np.concatenate([mins(pa, pb), mins(pb, pa)])))


def random_blob(rng, shape):
    zz, yy, xx = np.indices(shape)
    mask = np.zeros(shape, dtype=bool)
    while not mask.any():
        for _ in range(int(rng.integers(1, 4))):
            c = [rng.uniform(0, s - 1) for s in shape]
            ax = [rng.uniform(1.5, s / 2 + 1) for s in shape]
            mask |= (((zz - c[0]) / ax[0]) ** 2 + ((yy - c[1]) / ax[1]) ** 2
                     + ((xx - c[2]) / ax[2]) ** 2) <= 1.0
    return mask


def test_criterion_3_metric_oracles(capsys):
    rng = np.random.default_rng(3)
    t0 = time.monotonic()
    worst_asd = 0.0
    worst_prop = 0.0
    dsc_exact = True
    for pair in range(200):
        shape = tuple(int(rng.integers(4, 33)) for _ in range(3))
        spacing = tuple(float(rng.uniform(0.5, 2.0)) for _ in range(3))
        a = random_blob(rng, shape)
        b = a.copy() if pair % 20 == 0 else random_blob(rng, shape)
        la, lb = a.astype(np.uint8), b.astype(np.uint8)

        ni = int(np.count_nonzero(a & b))
        na, nb = int(np.count_nonzero(a)), int(np.count_nonzero(b))
        lm = metrics.evaluate_case(la, LabeledVolume(np.zeros(shape), lb, spacing),
                                   num_labels=2).per_label[1]
        if lm.dsc != 2.0 * ni / (na + nb):
            dsc_exact = False

        got = lm.asd_mm
        worst_asd = max(worst_asd, abs(got - oracle_asd(a, b, spacing)))

        if pair < 25:
            sym = abs(got - metrics.average_surface_distance(lb, la, 1, spacing))
            doubled = metrics.average_surface_distance(
                la, lb, 1, tuple(2 * s for s in spacing))
            scale = abs(doubled - 2.0 * got)
            shifted_a = np.zeros(tuple(s + 3 for s in shape), dtype=np.uint8)
            shifted_b = np.zeros_like(shifted_a)
            shifted_a[2:-1, 1:-2, 2:-1] = la
            shifted_b[2:-1, 1:-2, 2:-1] = lb
            trans = abs(got - metrics.average_surface_distance(
                shifted_a, shifted_b, 1, spacing))
            worst_prop = max(worst_prop, sym, scale, trans)
    elapsed = time.monotonic() - t0
    ok = (dsc_exact and worst_asd < ASD_TOL and worst_prop < EXACT_TOL
          and elapsed < 120.0)
    report(capsys, 3, ok,
           f"200 pairs: DSC exact {dsc_exact}, ASD worst dev {worst_asd:.1e} "
           f"< {ASD_TOL:g}, invariance worst {worst_prop:.1e}, {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 4: training runs are bitwise reproducible and resumable
# ---------------------------------------------------------------------------

def test_criterion_4_bitwise_training(capsys, tiny_dataset, tmp_path):
    args = ["--set", "model.depth=2", "--set", "model.base_channels=4",
            "--set", "model.patch_size=32", "--set", "sampler.batch_size=4",
            "--set", "train.steps=50", "--set", "train.checkpoint_every=25",
            "--set", "train.holdout_cases=1"]

    dirs = {name: str(tmp_path / name) for name in ("a", "b", "resumed")}
    for name in ("a", "b"):
        rc = cli.main(["train", "--data", tiny_dataset, "--out", dirs[name]] + args)
        assert rc == cli.EXIT_OK
    rc = cli.main(["train", "--data", tiny_dataset, "--out", dirs["resumed"],
                   "--resume", os.path.join(dirs["a"], "ckpt_000025.dgrd")] + args)
    assert rc == cli.EXIT_OK

    def read(name, fname):
        with open(os.path.join(dirs[name], fname), "rb") as fh:
            return fh.read()

    rerun_same = read("a", "final.dgrd") == read("b", "final.dgrd") \
        and read("a", "curve.csv") == read("b", "curve.csv")
    resume_same = read("a", "final.dgrd") == read("resumed", "final.dgrd")
    full_curve = read("a", "curve.csv").decode().splitlines()
    tail_same = read("resumed", "curve.csv").decode().splitlines()[1:] \
        == full_curve[-25:]
    ok = rerun_same and resume_same and tail_same
    report(capsys, 4, ok,
           f"identical 50-step runs bitwise: {rerun_same}; resume from step 25 "
           f"bitwise: {resume_same}; curve tail match: {tail_same}")


# ---------------------------------------------------------------------------
# criterion 5: the committed loss-comparison reproduces the headline result
# ---------------------------------------------------------------------------

SMALL_LABELS = (3, 4)
SEEDS = (0, 1, 2)
# regression bounds on the crossing structure (label 3), calibrated once
# from the committed run and held fixed; at this scale CE partially finds
# the cross in two seeds (0.47 / 0.58 / miss), so its ceiling sits at 0.45
# rather than the full-scale 0.3 while BSD clears 0.5 with a wide margin
BSD_FLOOR = 0.5
CE_CEIL = 0.45
BUDGET_CORE_SECONDS = 4 * 45 * 60


def test_criterion_5_loss_comparison(capsys):
    csv_path = RESULTS_DIR / "compare_results.csv"
    if not csv_path.exists():
        report(capsys, 5, False,
               f"missing {csv_path}; regenerate per the module docstring")
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4 * 3 * 5 * 6, "expected 12 cells x 5 cases x 6 labels"

    def mean_dsc(kind, label, seed=None):
        vals = [float(r["dsc"]) for r in rows
                if r["loss"] == kind and int(r["label"]) == label
                and (seed is None or int(r["seed"]) == seed)]
        return float(np.mean(vals))

    parts = []
    ok = True
    for label in SMALL_LABELS:
        wins = sum(1 for s in SEEDS
                   if mean_dsc("bsd", label, s) > mean_dsc("ce", label, s))
        bsd, sd, ce = (mean_dsc(k, label) for k in ("bsd", "sd", "ce"))
        ok = ok and wins >= 2 and bsd > sd
        parts.append(f"label {label}: bsd>ce {wins}/3 seeds, "
                     f"means bsd {bsd:.3f} sd {sd:.3f} ce {ce:.3f}")
    bounds_ok = mean_dsc("bsd", 3) >= BSD_FLOOR and mean_dsc("ce", 3) <= CE_CEIL
    ok = ok and bounds_ok

    core_seconds = 0.0
    for cell in RESULTS_DIR.iterdir():
        timing = cell / "timing.txt"
        if timing.is_file():
            core_seconds += float(timing.read_text().split("=")[1])
    ok = ok and core_seconds < BUDGET_CORE_SECONDS

    report(capsys, 5, ok,
           "; ".join(parts) + f"; label-3 bounds bsd>={BSD_FLOOR} ce<={CE_CEIL}: "
           f"{bounds_ok}; {core_seconds / 60:.0f} core-min "
           f"< {BUDGET_CORE_SECONDS // 60}")


def test_committed_verdicts_rebuild_from_committed_rows(tmp_path):
    # compare_results.csv, verdicts.txt and the dsc_label<l>.svg box plots are
    # a function of the rows in compare_results.csv and the study's settings;
    # a report changed without re-running the study would leave the committed
    # files stale.
    with open(RESULTS_DIR / "compare_results.csv", newline="") as fh:
        rows = [training.CaseResult(r["loss"], int(r["seed"]), r["case_id"], int(r["label"]),
                                    float(r["dsc"]),
                                    float(r["asd_mm"]) if r["asd_mm"] else None)
                for r in csv.DictReader(fh)]
    cfg = config.resolve((RESULTS_DIR / "effective_config.cfg").read_text())
    training.write_compare_reports(tmp_path, rows, config.compare_config(cfg),
                                   cfg["model.num_labels"])
    names = sorted(p.name for p in tmp_path.iterdir())
    assert names == ["compare_results.csv"] + [f"dsc_label{label}.svg"
                                               for label in range(1, 7)] + ["verdicts.txt"]
    for name in names:
        assert (tmp_path / name).read_bytes() == (RESULTS_DIR / name).read_bytes(), name


# ---------------------------------------------------------------------------
# criterion 6: evaluator self-test is perfect and self-consistent
# ---------------------------------------------------------------------------

def test_criterion_6_eval_self_test(capsys, tiny_dataset, tmp_path):
    out = str(tmp_path / "eval")
    rc = cli.main(["eval", "--data", tiny_dataset, "--out", out,
                   "--set", "eval.oracle_self_test=true"])
    assert rc == cli.EXIT_OK

    with open(os.path.join(out, "metrics.csv"), newline="") as fh:
        per_case = list(csv.DictReader(fh))
    perfect = all(float(r["dsc"]) == 1.0 and float(r["asd_mm"]) == 0.0
                  for r in per_case)
    labels_seen = sorted({int(r["label"]) for r in per_case})

    worst = 0.0
    with open(os.path.join(out, "summary.csv"), newline="") as fh:
        for row in csv.DictReader(fh):
            sub = [r for r in per_case if r["label"] == row["label"]]
            dsc = [float(r["dsc"]) for r in sub]
            asd = [float(r["asd_mm"]) for r in sub]
            for got, want in ((row["dsc_mean"], np.mean(dsc)),
                              (row["dsc_std"], np.std(dsc)),
                              (row["asd_mean"], np.mean(asd)),
                              (row["asd_std"], np.std(asd))):
                worst = max(worst, abs(float(got) - float(want)))
            worst = max(worst, abs(int(row["cases"]) - len(sub)))

    ok = perfect and labels_seen == [1, 2, 3, 4, 5, 6] and worst < EXACT_TOL
    report(capsys, 6, ok,
           f"{len(per_case)} rows all DSC 1.0 / ASD 0.0: {perfect}; labels "
           f"{labels_seen}; summary recompute dev {worst:.1e} < {EXACT_TOL:g}")
