"""Adam training loop, run records, and the four-loss comparison driver.

The loop is built for bitwise reproducibility: the sampler stream of step
t is derived from (seed, t) rather than from loop history, parameters are
updated in place through the model's parameter table, and the optimizer
moments travel inside checkpoints.  Resuming from a checkpoint at step k
therefore continues the exact arithmetic of the uninterrupted run.

The comparison driver trains one model per (loss kind, seed) cell on a
shared dataset and evaluates every cell on the same held-out cases.
Evaluation yields one stream of (case, label, metrics) rows, `label_stats`
is the one per-label reduction of such rows, and `write_compare_reports`
turns the study's rows into its CSV, box plots and the qualitative verdict
of interest: whether batch-pooled soft Dice beats cross-entropy and
per-image soft Dice on the smallest structures.
"""

from __future__ import annotations

import concurrent.futures
import json
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import checkpoint, metrics, model as model_mod, sampling, volume_io
from .errors import NumericError, ValidationError
from .losses import LossConfig, compute_loss
# train() calls adam_step through this module's global, so wrapping
# training.adam_step (as the benchmark's step clock does) sees every step.
from .optim import AdamState, adam_step
from .sampling import PatchDataset, SamplerConfig
from .tensor_core import Rng


@dataclass
class TrainConfig:
    steps: int = 2000
    learning_rate: float = 1e-4
    seed: int = 0
    checkpoint_every: int = 0          # 0: only the final checkpoint
    eval_every: int = 0                # 0: no evaluation during training
    holdout_cases: int = 5
    loss: LossConfig = field(default_factory=LossConfig)
    sampler: SamplerConfig = field(kw_only=True)   # no default: built with model.patch_size

    def __post_init__(self):
        if not 0 < self.learning_rate < np.inf:
            raise ValidationError(
                f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.steps < 0 or self.holdout_cases < 0:
            raise ValidationError("steps and holdout_cases must be >= 0")
        if self.seed < 0:               # numpy seeds only non-negative integers
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.checkpoint_every < 0 or self.eval_every < 0:
            raise ValidationError("checkpoint_every and eval_every must be >= 0")
        if self.eval_every and not self.holdout_cases:
            raise ValidationError(f"eval_every={self.eval_every} evaluates on held-out "
                                  f"cases, but holdout_cases is 0")


@dataclass
class RunRecord:
    losses: list[tuple[int, float]] = field(default_factory=list)
    evals: list[tuple[int, dict[int, float]]] = field(default_factory=list)
    wall_clock: float = 0.0


def _check_labels(case_id: str, vol, num_labels: int) -> None:
    if vol.labels.max(initial=0) >= num_labels:
        raise ValidationError(f"case {case_id} has label {vol.labels.max()} but the "
                              f"model knows {num_labels} labels")


def evaluate_cases(cases, num_labels: int, m: model_mod.SegModel | None = None):
    """Score each (case_id, LabeledVolume) of `cases`, yielding one
    (case_id, label, LabelMetrics) row per foreground label, in case order
    and then label order.

    The model segments each volume; with `m` None the ground truth is
    scored against itself (the oracle self-test).  `cases` may be any
    iterable, so a caller can load one case at a time.
    """
    for case_id, vol in cases:
        _check_labels(case_id, vol, num_labels)
        if m is None:
            pred = vol.labels.copy()
        else:
            pred = model_mod.segment_volume(m, vol.intensities)
        report = metrics.evaluate_case(pred, vol, num_labels=num_labels)
        for label, lm in sorted(report.per_label.items()):
            yield case_id, label, lm


def label_stats(pairs, labels) -> dict[int, tuple[list, float, float]]:
    """Group (label, value) pairs by label and reduce each group:
    {label: (values, mean, std)} for each of `labels`, in that order, with
    the values in pair order.  A None value (an undefined ASD) and a pair
    whose label is not in `labels` are left out; a label left without
    values has NaN mean and std."""
    groups: dict[int, list] = {label: [] for label in labels}
    for label, value in pairs:
        if value is not None and label in groups:
            groups[label].append(value)
    return {label: (vals, float(np.mean(vals)), float(np.std(vals))) if vals
            else (vals, float("nan"), float("nan"))
            for label, vals in groups.items()}


def float_field(value) -> str:
    """Round-trip text for a float; an undefined value (None or NaN) is an
    empty field."""
    return "" if value is None or np.isnan(value) else f"{value:.17g}"


def train(m: model_mod.SegModel, dataset: PatchDataset, cfg: TrainConfig,
          out_dir=None, holdout=None, state: AdamState | None = None):
    """Run the optimization loop; returns (model, RunRecord).

    With `state` from a loaded checkpoint, training resumes at state.step
    and reproduces the uninterrupted run bitwise (sampler streams are
    keyed by absolute step); a state already past cfg.steps is refused
    before anything is written.  `out_dir`, when given, receives the loss
    curve, periodic checkpoints, and a final checkpoint.
    """
    params = m.param_table()
    if state is None:
        state = AdamState.fresh(params)
    elif state.step > cfg.steps:
        raise ValidationError(f"the checkpoint is at step {state.step}, past "
                              f"train.steps={cfg.steps}")
    sampler_rng = Rng(cfg.seed).child(0)
    record = RunRecord()
    started = time.monotonic()
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)

    batch_size = cfg.sampler.batch_size
    for t in range(state.step, cfg.steps):
        batch = sampling.sample_balanced_batch(dataset, cfg.sampler, sampler_rng,
                                               start_index=t * batch_size)
        # Divergence is reported by the loss check and adam_step, not numpy.
        with np.errstate(over="ignore", invalid="ignore"):
            p, tape = model_mod.forward(m, batch.images, "train")
            res = compute_loss(p, batch.onehot, cfg.loss)
            if not np.isfinite(res.value):
                raise NumericError(f"loss became non-finite at step {t}")
            grads = model_mod.backward(m, tape, res.grad_p)
            adam_step(params, grads, state, cfg.learning_rate)
        record.losses.append((t, res.value))
        done = t + 1
        if out_dir is not None and cfg.checkpoint_every and done % cfg.checkpoint_every == 0:
            checkpoint.save_checkpoint(
                m, state, os.path.join(out_dir, f"ckpt_{done:06d}.dgrd"))
        if holdout and cfg.eval_every and done % cfg.eval_every == 0:
            stats = label_stats(((label, lm.dsc) for _, label, lm
                                 in evaluate_cases(holdout, m.cfg.num_labels, m)),
                                range(1, m.cfg.num_labels))
            record.evals.append((done, {label: mean for label, (_, mean, _) in stats.items()}))

    record.wall_clock = time.monotonic() - started
    if out_dir is not None:
        checkpoint.save_checkpoint(m, state, os.path.join(out_dir, "final.dgrd"))
        write_run_record(out_dir, record)
    return m, record


def write_run_record(out_dir, record: RunRecord) -> None:
    """Loss curve as line-delimited records plus a deterministic summary;
    wall-clock goes to its own file so the rest is bitwise reproducible."""
    volume_io.write_file(os.path.join(out_dir, "curve.csv"), "step,loss\n",
                         *(f"{step},{value:.17g}\n" for step, value in record.losses))
    summary = {
        "steps_recorded": len(record.losses),
        "final_loss": record.losses[-1][1] if record.losses else None,
        "evals": [
            {"step": step, "mean_dsc": {str(k): v for k, v in by_label.items()}}
            for step, by_label in record.evals
        ],
    }
    volume_io.write_file(os.path.join(out_dir, "summary.json"),
                         json.dumps(summary, indent=2), "\n")
    volume_io.write_file(os.path.join(out_dir, "timing.txt"),
                         f"wall_clock_seconds={record.wall_clock:.3f}\n")


# ---------------------------------------------------------------------------
# four-loss comparison experiment
# ---------------------------------------------------------------------------

@dataclass
class CompareConfig:
    losses: tuple[str, ...] = ("ce", "wce", "sd", "bsd")
    seeds: tuple[int, ...] = (0, 1, 2)
    small_labels: tuple[int, ...] = (3, 4)     # cross and tube analogs


@dataclass
class CaseResult:
    loss_kind: str
    seed: int
    case_id: str
    label: int
    dsc: float
    asd_mm: float | None


@dataclass
class CompareReport:
    results: list[CaseResult]
    failed_cells: list[tuple[str, int, Exception]]     # (loss, seed, error)


def load_split(data_dir, holdout_cases: int, num_labels: int):
    """Dataset split: all but the last `holdout_cases` manifest entries
    train; the tail is held out for evaluation.  Every case's labels are
    checked against `num_labels` here, the held-out ones included."""
    refs = volume_io.read_manifest(data_dir)
    if holdout_cases >= len(refs):
        raise ValidationError(
            f"holdout_cases {holdout_cases} >= dataset size {len(refs)}"
        )
    cases = [(r.case_id, volume_io.load_case(data_dir, r)) for r in refs]
    for case_id, vol in cases:
        _check_labels(case_id, vol, num_labels)
    split = len(cases) - holdout_cases
    train_ds = PatchDataset(cases[:split], num_labels)
    return train_ds, cases[split:]


def _run_cell(data_dir, model_cfg: model_mod.ModelConfig, cell_cfg: TrainConfig,
              cell_dir) -> list[CaseResult]:
    train_ds, holdout = load_split(data_dir, cell_cfg.holdout_cases,
                                   model_cfg.num_labels)
    m = model_mod.build_model(model_cfg, Rng(cell_cfg.seed).child(1))
    m, _ = train(m, train_ds, cell_cfg, out_dir=cell_dir, holdout=holdout)
    return [CaseResult(cell_cfg.loss.kind, cell_cfg.seed, case_id, label, lm.dsc, lm.asd_mm)
            for case_id, label, lm in evaluate_cases(holdout, model_cfg.num_labels, m)]


def run_loss_comparison(data_dir, model_cfg: model_mod.ModelConfig,
                        base_cfg: TrainConfig, cmp_cfg: CompareConfig,
                        out_dir, max_workers: int = 1) -> CompareReport:
    """Train every (loss, seed) cell and evaluate it on the shared holdout,
    each cell in a worker process, at most `max_workers` at a time;
    `write_compare_reports` turns the rows into the study's reports."""
    # Checked before any cell trains: a study without a loss, a seed, a small
    # label or a holdout case has no verdict to give, a repeat would train one
    # cell but count it twice, and a label outside the foreground has no DSC
    # to average.
    if base_cfg.holdout_cases == 0:
        raise ValidationError("train.holdout_cases is 0: the study would score no case")
    for key in ("losses", "seeds", "small_labels"):
        values = getattr(cmp_cfg, key)
        if not values:
            raise ValidationError(f"compare.{key} is empty: the study would give no verdict")
        if len(set(values)) != len(values):
            raise ValidationError(f"compare.{key} repeats an entry: {values}")
    for label in cmp_cfg.small_labels:
        if not 1 <= label < model_cfg.num_labels:
            raise ValidationError(f"compare.small_labels entry {label} is outside the "
                                  f"foreground labels [1, {model_cfg.num_labels})")
    jobs = {}
    for kind in cmp_cfg.losses:
        for seed in cmp_cfg.seeds:
            cell_cfg = replace(base_cfg, seed=seed, loss=replace(base_cfg.loss, kind=kind))
            jobs[(kind, seed)] = (data_dir, model_cfg, cell_cfg,
                                  os.path.join(out_dir, f"{kind}_s{seed}"))
    # The dataset every cell will load, checked once here: a missing
    # manifest, a holdout as large as the dataset or a label the model does
    # not know would otherwise fail every cell and leave empty reports.
    load_split(data_dir, base_cfg.holdout_cases, model_cfg.num_labels)
    os.makedirs(out_dir, exist_ok=True)

    results: list[CaseResult] = []
    failed: list[tuple[str, int, Exception]] = []
    # The pool forks all its workers at the first submit, so more workers
    # than cells would only idle.
    with concurrent.futures.ProcessPoolExecutor(max_workers=min(max_workers, len(jobs))) as pool:
        cells = {key: pool.submit(_run_cell, *args) for key, args in jobs.items()}
        for (kind, seed), cell in cells.items():
            try:
                results.extend(cell.result())
            except Exception as exc:       # a failed cell must not sink the rest
                failed.append((kind, seed, exc))
    results.sort(key=lambda r: (r.loss_kind, r.seed, r.case_id, r.label))
    return CompareReport(results, failed)


def compare_verdicts(results: list[CaseResult], cmp_cfg: CompareConfig) -> list[str]:
    """One line per small label: in how many seeds batch-pooled Dice beats
    cross-entropy on mean DSC, the three mean DSCs, and whether bsd's mean
    exceeds sd's.  A function of the rows alone, so the committed
    verdicts can be rebuilt from the committed CSV.  A mean without rows
    reads n/a, the bsd>ce count runs over the seeds with rows for both
    losses and counts the seeds without, and the sd comparison reads n/a
    when either mean does."""
    def mean_dsc(kind, label, seed=None):
        rows = (r for r in results
                if r.loss_kind == kind and (seed is None or r.seed == seed))
        values, mean, _ = label_stats(((r.label, r.dsc) for r in rows), (label,))[label]
        return mean if values else None

    def text(mean):
        return "n/a" if mean is None else f"{mean:.3f}"

    verdicts = []
    for label in cmp_cfg.small_labels:
        pairs = [(mean_dsc("bsd", label, seed), mean_dsc("ce", label, seed))
                 for seed in cmp_cfg.seeds]
        pairs = [(b, c) for b, c in pairs if b is not None and c is not None]
        n_win = sum(1 for b, c in pairs if b > c)
        lacking = len(cmp_cfg.seeds) - len(pairs)
        bsd_mean, sd_mean, ce_mean = (mean_dsc(kind, label) for kind in ("bsd", "sd", "ce"))
        vs_sd = ("n/a" if bsd_mean is None or sd_mean is None
                 else "yes" if bsd_mean > sd_mean else "no")
        verdicts.append(
            f"label {label}: bsd>ce in {n_win}/{len(pairs)} seeds"
            + (f", {lacking} without bsd or ce rows" if lacking else "")
            + f" (mean dsc bsd {text(bsd_mean)}, sd {text(sd_mean)}, ce {text(ce_mean)}); "
            f"bsd mean > sd mean: {vs_sd}"
        )
    return verdicts


def write_compare_reports(out_dir, results: list[CaseResult], cmp_cfg: CompareConfig,
                          num_labels: int) -> list[str]:
    """Write the study's reports from its rows: `compare_results.csv`,
    `verdicts.txt`, and a `dsc_label<l>.svg` box plot of the per-case DSC
    by loss for each foreground label with rows.  Returns the verdicts."""
    from . import svgplot       # loads xml.etree, which no training run needs
    volume_io.write_file(
        os.path.join(out_dir, "compare_results.csv"), "loss,seed,case_id,label,dsc,asd_mm\n",
        *(f"{r.loss_kind},{r.seed},{r.case_id},{r.label},{float_field(r.dsc)},"
          f"{float_field(r.asd_mm)}\n" for r in results))
    verdicts = compare_verdicts(results, cmp_cfg)
    volume_io.write_file(os.path.join(out_dir, "verdicts.txt"),
                         *(line + "\n" for line in verdicts))
    labels = range(1, num_labels)
    by_kind = {kind: label_stats(((r.label, r.dsc) for r in results if r.loss_kind == kind),
                                 labels) for kind in cmp_cfg.losses}
    for label in labels:
        groups = {kind: stats[label][0] for kind, stats in by_kind.items() if stats[label][0]}
        if groups:
            svgplot.box_plot(os.path.join(out_dir, f"dsc_label{label}.svg"), groups,
                             title=f"Test Dice, label {label}", y_label="DSC")
    return verdicts
