"""Command-line surface: dataset generation, gradient checking, training,
evaluation, and the four-loss comparison.

Exit codes: 0 success, 1 failed numeric checks, 2 configuration problems,
3 I/O problems, 4 numeric aborts during training.

DICEGRAD_THREADS caps worker parallelism for the comparison command
(default 1, which keeps every output bitwise reproducible); a value that
is not a positive integer is a configuration error.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import (checkpoint, config, gradcheck, model as model_mod, phantom,
               svgplot, training, volume_io)
from .errors import (ConfigError, DicegradError, FormatError, IoError,
                     NumericError, ValidationError)
from .tensor_core import Rng

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


def _load_cfg(args) -> dict:
    text = None
    source = "<defaults>"
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise IoError(f"cannot read config {args.config}: {exc}") from exc
        source = args.config
    return config.resolve(text, args.set or [], source)


def _echo_config(cfg: dict, out_dir) -> None:
    os.makedirs(out_dir, exist_ok=True)
    volume_io.write_file(os.path.join(out_dir, "effective_config.cfg"),
                         config.render(cfg))


def _workers() -> int:
    raw = os.environ.get("DICEGRAD_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"DICEGRAD_THREADS must be a positive integer, got {raw!r}")
    return workers


def cmd_gen_data(args) -> int:
    cfg = _load_cfg(args)
    if args.out is None:
        raise ConfigError("gen-data requires --out DIR")
    spec = config.phantom_spec(cfg)
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {args.out}: {exc}") from exc
    written: list[str] = []
    refs = []
    try:
        for case_id, seed, vol in phantom.generate_dataset(
                spec, cfg["data.num_cases"], cfg["data.seed"]):
            ref = volume_io.save_case(args.out, case_id, vol, seed)
            written += [os.path.join(args.out, ref.image_path),
                        os.path.join(args.out, ref.label_path)]
            refs.append(ref)
        volume_io.write_manifest(args.out, refs)
    except Exception:
        for path in written:        # do not leave a half-written dataset
            if os.path.exists(path):
                os.remove(path)
        raise
    _echo_config(cfg, args.out)
    print(f"wrote {len(refs)} cases ({2 * len(refs)} volume files) to {args.out}")
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    cfg = _load_cfg(args)
    threshold = cfg["check.threshold"]
    e2e_threshold = cfg["check.end_to_end_threshold"]
    rows = gradcheck.run_layer_checks() + gradcheck.run_loss_checks()
    lines = []
    failures = 0
    for name, err in rows:
        ok = err < threshold
        failures += 0 if ok else 1
        lines.append(f"{'PASS' if ok else 'FAIL'}  {name:40s} max_rel_err={err:.3e}")
    e2e = gradcheck.check_model_end_to_end()
    ok = e2e < e2e_threshold
    failures += 0 if ok else 1
    lines.append(f"{'PASS' if ok else 'FAIL'}  {'model/end_to_end':40s} max_rel_err={e2e:.3e}")
    lines.append(f"{len(rows) + 1 - failures}/{len(rows) + 1} checks passed "
                 f"(threshold {threshold:g}, end-to-end {e2e_threshold:g})")
    report = "\n".join(lines) + "\n"
    print(report, end="")
    if args.out is not None:
        _echo_config(cfg, args.out)
        volume_io.write_file(os.path.join(args.out, "gradcheck.txt"), report)
    return EXIT_OK if failures == 0 else EXIT_CHECK_FAILED


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    if args.data is None or args.out is None:
        raise ConfigError("train requires --data DIR and --out DIR")
    model_cfg = config.model_config(cfg)
    train_cfg = config.train_config(cfg)
    train_ds, holdout = training.load_split(args.data, train_cfg.holdout_cases,
                                            model_cfg.num_labels)
    if args.resume:
        m, state = checkpoint.load_checkpoint(args.resume)
        if m.cfg != model_cfg:
            raise ValidationError(
                f"checkpoint model config {m.cfg} != configured {model_cfg}"
            )
    else:
        m = model_mod.build_model(model_cfg, Rng(train_cfg.seed).child(1))
        state = None
    _echo_config(cfg, args.out)
    m, record = training.train(m, train_ds, train_cfg, out_dir=args.out,
                               holdout=holdout, state=state)
    final = record.losses[-1][1] if record.losses else float("nan")
    print(f"trained {len(record.losses)} steps; final loss {final:.6f}; "
          f"outputs in {args.out}")
    return EXIT_OK


def _mean_std(values):
    """(mean, std) of the values that are not None, or (None, None)."""
    defined = [v for v in values if v is not None]
    if not defined:
        return None, None
    return float(np.mean(defined)), float(np.std(defined))


def _g17(value) -> str:
    """Round-trip text for a float; an undefined value is an empty field."""
    return "" if value is None else f"{value:.17g}"


def cmd_eval(args) -> int:
    cfg = _load_cfg(args)
    if args.data is None or args.out is None:
        raise ConfigError("eval requires --data DIR and --out DIR")
    num_labels = cfg["model.num_labels"]
    m = None
    if not cfg["eval.oracle_self_test"]:
        if args.checkpoint is None:
            raise ConfigError("eval requires --checkpoint (or eval.oracle_self_test=true)")
        m, _ = checkpoint.load_checkpoint(args.checkpoint)
        num_labels = m.cfg.num_labels

    refs = volume_io.read_manifest(args.data)
    cases = ((ref.case_id, volume_io.load_case(args.data, ref)) for ref in refs)
    rows = [(case_id, label, lm)
            for case_id, report in training.evaluate_cases(cases, num_labels, m)
            for label, lm in sorted(report.per_label.items())]

    _echo_config(cfg, args.out)
    metrics_lines = ["case_id,label,dsc,asd_mm,flags\n"]
    for case_id, label, lm in rows:
        flags = [f for f, empty in (("gt_empty", lm.gt_voxels == 0),
                                    ("pred_empty", lm.pred_voxels == 0)) if empty]
        metrics_lines.append(f"{case_id},{label},{lm.dsc:.17g},{_g17(lm.asd_mm)},"
                             f"{';'.join(flags)}\n")
    volume_io.write_file(os.path.join(args.out, "metrics.csv"), *metrics_lines)
    summary_lines = ["label,cases,dsc_mean,dsc_std,asd_mean,asd_std,absent_cases,"
                     "pred_empty_cases\n"]
    for label in range(1, num_labels):
        sub = [lm for _, row_label, lm in rows if row_label == label]
        dsc_mean, dsc_std = _mean_std([lm.dsc for lm in sub])
        asd_mean, asd_std = _mean_std([lm.asd_mm for lm in sub])
        absent = sum(1 for lm in sub if lm.gt_voxels == 0 or lm.pred_voxels == 0)
        pred_empty = sum(1 for lm in sub if lm.pred_voxels == 0)
        summary_lines.append(f"{label},{len(sub)},{_g17(dsc_mean)},{_g17(dsc_std)},"
                             f"{_g17(asd_mean)},{_g17(asd_std)},{absent},{pred_empty}\n")
        dm = float("nan") if dsc_mean is None else dsc_mean
        am = float("nan") if asd_mean is None else asd_mean
        print(f"label {label}: DSC {100 * dm:6.1f} %   ASD {am:7.3f} mm   "
              f"({len(sub)} cases, {absent} flagged, {pred_empty} predicted empty)")
    volume_io.write_file(os.path.join(args.out, "summary.csv"), *summary_lines)
    print(f"wrote metrics for {len(refs)} cases to {args.out}")
    return EXIT_OK


def cmd_compare(args) -> int:
    cfg = _load_cfg(args)
    if args.data is None or args.out is None:
        raise ConfigError("compare requires --data DIR and --out DIR")
    workers = _workers()
    model_cfg = config.model_config(cfg)
    base_cfg = config.train_config(cfg)
    cmp_cfg = config.compare_config(cfg)
    _echo_config(cfg, args.out)
    report = training.run_loss_comparison(args.data, model_cfg, base_cfg,
                                          cmp_cfg, args.out,
                                          max_workers=workers)
    training.write_comparison_csv(os.path.join(args.out, "compare_results.csv"),
                                  report.results)
    volume_io.write_file(os.path.join(args.out, "verdicts.txt"),
                         *(line + "\n" for line in report.verdicts))
    for label in range(1, model_cfg.num_labels):
        groups = {}
        for kind in cmp_cfg.losses:
            vals = [r.dsc for r in report.results
                    if r.loss_kind == kind and r.label == label]
            if vals:
                groups[kind] = vals
        if groups:
            svgplot.box_plot(
                os.path.join(args.out, f"dsc_label{label}.svg"), groups,
                title=f"Test Dice, label {label}", y_label="DSC")
    for line in report.verdicts:
        print(line)
    for kind, seed, why in report.failed_cells:
        print(f"warning: cell ({kind}, seed {seed}) failed: {why}", file=sys.stderr)
    if report.failed_cells and not report.results:
        return EXIT_NUMERIC
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dicegrad",
        description="From-scratch differentiable segmentation workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    specs = {
        "gen-data": (cmd_gen_data, "generate a synthetic phantom dataset"),
        "gradcheck": (cmd_gradcheck, "finite-difference checks for layers and losses"),
        "train": (cmd_train, "train a segmentation model"),
        "eval": (cmd_eval, "evaluate a checkpoint (or ground truth) on a dataset"),
        "compare": (cmd_compare, "train and compare the four losses"),
    }
    for name, (fn, help_text) in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="path to a key = value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key (repeatable)")
        p.add_argument("--out", help="output directory")
        p.add_argument("--data", help="dataset directory (with manifest.csv)")
        if name == "train":
            p.add_argument("--resume", help="checkpoint to resume from")
        if name == "eval":
            p.add_argument("--checkpoint", help="checkpoint to evaluate")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (FormatError, OSError) as exc:       # IoError is an OSError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except DicegradError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
