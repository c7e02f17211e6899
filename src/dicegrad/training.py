"""Adam training loop, run records, and the four-loss comparison driver.

The loop is built for bitwise reproducibility: the sampler stream of step
t is derived from (seed, t) rather than from loop history, parameters are
updated in place through the model's parameter table, and the optimizer
moments travel inside checkpoints.  Resuming from a checkpoint at step k
therefore continues the exact arithmetic of the uninterrupted run.

The comparison driver trains one model per (loss kind, seed) cell on a
shared dataset, evaluates every cell on the same held-out cases, and
reduces the per-case Dice scores to the qualitative verdict of interest:
whether batch-pooled soft Dice beats cross-entropy and per-image soft
Dice on the smallest structures.
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
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    checkpoint_every: int = 0          # 0: only the final checkpoint
    eval_every: int = 0                # 0: no evaluation during training
    holdout_cases: int = 5
    loss: LossConfig = field(default_factory=LossConfig)
    sampler: SamplerConfig = field(default_factory=SamplerConfig)

    def __post_init__(self):
        if not (0 < self.learning_rate < np.inf and 0 < self.adam_eps < np.inf):
            raise ValidationError(f"learning_rate and adam_eps must be finite and > 0, "
                                  f"got {self.learning_rate} and {self.adam_eps}")
        if not (0 < self.adam_beta1 < 1 and 0 < self.adam_beta2 < 1):
            raise ValidationError("adam betas must lie in (0, 1)")
        if self.steps < 0 or self.holdout_cases < 0:
            raise ValidationError("steps and holdout_cases must be >= 0")
        if self.checkpoint_every < 0 or self.eval_every < 0:
            raise ValidationError("checkpoint_every and eval_every must be >= 0")


@dataclass
class RunRecord:
    losses: list[tuple[int, float]] = field(default_factory=list)
    evals: list[tuple[int, dict[int, float]]] = field(default_factory=list)
    wall_clock: float = 0.0


def evaluate_cases(cases, num_labels: int, m: model_mod.SegModel | None = None):
    """Score each (case_id, LabeledVolume) of `cases`, yielding
    (case_id, MetricsReport) in order.

    The model segments each volume; with `m` None the ground truth is
    scored against itself (the oracle self-test).  `cases` may be any
    iterable, so a caller can load one case at a time.
    """
    for case_id, vol in cases:
        if vol.labels.max(initial=0) >= num_labels:
            raise ValidationError(
                f"case {case_id} has label {vol.labels.max()} but the model "
                f"knows {num_labels} labels"
            )
        if m is None:
            pred = vol.labels.copy()
        else:
            pred = model_mod.segment_volume(m, vol.intensities)
        yield case_id, metrics.evaluate_case(pred, vol, num_labels=num_labels)


def _mean_dsc_by_label(m: model_mod.SegModel,
                       holdout: list[tuple[str, volume_io.LabeledVolume]]):
    sums: dict[int, list[float]] = {}
    for _, report in evaluate_cases(holdout, m.cfg.num_labels, m):
        for label, lm in report.per_label.items():
            sums.setdefault(label, []).append(lm.dsc)
    return {label: float(np.mean(vals)) for label, vals in sorted(sums.items())}


def train(m: model_mod.SegModel, dataset: PatchDataset, cfg: TrainConfig,
          out_dir=None, holdout=None, state: AdamState | None = None):
    """Run the optimization loop; returns (model, RunRecord).

    With `state` from a loaded checkpoint, training resumes at state.step
    and reproduces the uninterrupted run bitwise (sampler streams are
    keyed by absolute step).  `out_dir`, when given, receives the loss
    curve, periodic checkpoints, and a final checkpoint.
    """
    params = m.param_table()
    if state is None:
        state = AdamState.fresh(params)
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
            adam_step(params, grads, state, cfg)
        record.losses.append((t, res.value))
        done = t + 1
        if out_dir is not None and cfg.checkpoint_every and done % cfg.checkpoint_every == 0:
            checkpoint.save_checkpoint(
                m, state, os.path.join(out_dir, f"ckpt_{done:06d}.dgrd"))
        if holdout and cfg.eval_every and done % cfg.eval_every == 0:
            record.evals.append((done, _mean_dsc_by_label(m, holdout)))

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
    failed_cells: list[tuple[str, int, str]]
    verdicts: list[str]


def load_split(data_dir, holdout_cases: int, num_labels: int):
    """Dataset split: all but the last `holdout_cases` manifest entries
    train; the tail is held out for evaluation."""
    refs = volume_io.read_manifest(data_dir)
    if holdout_cases >= len(refs):
        raise ValidationError(
            f"holdout_cases {holdout_cases} >= dataset size {len(refs)}"
        )
    cases = [(r.case_id, volume_io.load_case(data_dir, r)) for r in refs]
    split = len(cases) - holdout_cases
    train_ds = PatchDataset(cases[:split], num_labels)
    return train_ds, cases[split:]


def _run_cell(data_dir, model_cfg: model_mod.ModelConfig, cell_cfg: TrainConfig,
              cell_dir) -> list[CaseResult]:
    train_ds, holdout = load_split(data_dir, cell_cfg.holdout_cases,
                                   model_cfg.num_labels)
    m = model_mod.build_model(model_cfg, Rng(cell_cfg.seed).child(1))
    m, _ = train(m, train_ds, cell_cfg, out_dir=cell_dir, holdout=holdout)
    rows = []
    for case_id, report in evaluate_cases(holdout, model_cfg.num_labels, m):
        for label, lm in sorted(report.per_label.items()):
            rows.append(CaseResult(cell_cfg.loss.kind, cell_cfg.seed, case_id,
                                   label, lm.dsc, lm.asd_mm))
    return rows


def _mean_dsc(results, loss_kind: str, label: int, seed: int | None = None):
    vals = [r.dsc for r in results
            if r.loss_kind == loss_kind and r.label == label
            and (seed is None or r.seed == seed)]
    return float(np.mean(vals)) if vals else float("nan")


def run_loss_comparison(data_dir, model_cfg: model_mod.ModelConfig,
                        base_cfg: TrainConfig, cmp_cfg: CompareConfig,
                        out_dir, max_workers: int = 1) -> CompareReport:
    """Train every (loss, seed) cell, evaluate on the shared holdout, and
    summarize whether batch-pooled Dice wins on the small structures."""
    # Checked before any cell trains: a repeat would train one cell but count
    # it twice, and a label outside the foreground has no DSC to average.
    for key in ("losses", "seeds", "small_labels"):
        values = getattr(cmp_cfg, key)
        if len(set(values)) != len(values):
            raise ValidationError(f"compare.{key} repeats an entry: {values}")
    for label in cmp_cfg.small_labels:
        if not 1 <= label < model_cfg.num_labels:
            raise ValidationError(f"compare.small_labels entry {label} is outside the "
                                  f"foreground labels [1, {model_cfg.num_labels})")
    os.makedirs(out_dir, exist_ok=True)
    cells = [(kind, seed) for kind in cmp_cfg.losses for seed in cmp_cfg.seeds]
    jobs = {}
    for kind, seed in cells:
        cell_cfg = replace(base_cfg, seed=seed, loss=replace(base_cfg.loss, kind=kind))
        cell_dir = os.path.join(out_dir, f"{kind}_s{seed}")
        jobs[(kind, seed)] = (data_dir, model_cfg, cell_cfg, cell_dir)

    results: list[CaseResult] = []
    failed: list[tuple[str, int, str]] = []
    if max_workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=max_workers) as pool:
            futures = {key: pool.submit(_run_cell, *args) for key, args in jobs.items()}
            for (kind, seed), fut in futures.items():
                try:
                    results.extend(fut.result())
                except Exception as exc:       # a failed cell must not sink the rest
                    failed.append((kind, seed, f"{type(exc).__name__}: {exc}"))
    else:
        for (kind, seed), args in jobs.items():
            try:
                results.extend(_run_cell(*args))
            except Exception as exc:
                failed.append((kind, seed, f"{type(exc).__name__}: {exc}"))
    results.sort(key=lambda r: (r.loss_kind, r.seed, r.case_id, r.label))

    verdicts = []
    for label in cmp_cfg.small_labels:
        n_win = sum(
            1 for seed in cmp_cfg.seeds
            if _mean_dsc(results, "bsd", label, seed) > _mean_dsc(results, "ce", label, seed)
        )
        bsd_mean = _mean_dsc(results, "bsd", label)
        sd_mean = _mean_dsc(results, "sd", label)
        ce_mean = _mean_dsc(results, "ce", label)
        verdicts.append(
            f"label {label}: bsd>ce in {n_win}/{len(cmp_cfg.seeds)} seeds "
            f"(mean dsc bsd {bsd_mean:.3f}, sd {sd_mean:.3f}, ce {ce_mean:.3f}); "
            f"bsd mean > sd mean: {'yes' if bsd_mean > sd_mean else 'no'}"
        )
    return CompareReport(results, failed, verdicts)


def write_comparison_csv(path, results: list[CaseResult]) -> None:
    lines = ["loss,seed,case_id,label,dsc,asd_mm\n"]
    for r in results:
        asd = "" if r.asd_mm is None else f"{r.asd_mm:.17g}"
        lines.append(f"{r.loss_kind},{r.seed},{r.case_id},{r.label},{r.dsc:.17g},{asd}\n")
    volume_io.write_file(path, *lines)
