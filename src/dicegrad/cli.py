"""Command-line surface: dataset generation, gradient checking, training,
evaluation, and the four-loss comparison.

Exit codes: 0 success, 1 failed gradient checks; otherwise the class of the
error decides: 2 `ValidationError` (bad settings or input), 3 `IoError` or
any other `OSError` (unreadable, unwritable or corrupt files), 4
`NumericError` (non-finite values in training).  A `compare` whose every
cell failed writes its reports, then re-raises the first failed cell's
error in (loss, seed) order, and so exits as that cell's `train` would.

DICEGRAD_THREADS caps the number of worker processes the comparison command
runs its cells in (default 1; never more workers than cells); the outputs
are bitwise the same at any count.  A value that is not a positive integer
is a configuration error.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter

from . import (checkpoint, config, gradcheck, model as model_mod, phantom,
               training, volume_io)
from .errors import IoError, NumericError, ValidationError
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
        raise ValidationError(f"DICEGRAD_THREADS must be a positive integer, got {raw!r}")
    return workers


def _load_checkpoint(path, model_cfg: model_mod.ModelConfig):
    """The (model, Adam state) saved at `path`, refused unless its model
    config is the configured one, so the echoed config describes it."""
    m, state = checkpoint.load_checkpoint(path)
    if m.cfg != model_cfg:
        raise ValidationError(f"checkpoint model config {m.cfg} != configured {model_cfg}")
    return m, state


def cmd_gen_data(args, cfg: dict) -> int:
    cases = phantom.generate_dataset(config.phantom_spec(cfg), cfg["data.num_cases"],
                                     cfg["data.seed"])
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {args.out}: {exc}") from exc
    written: list[str] = []
    refs = []
    try:
        for case_id, seed, vol in cases:
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


def cmd_gradcheck(args, cfg: dict) -> int:
    threshold = cfg["check.threshold"]
    e2e_threshold = cfg["check.end_to_end_threshold"]
    for key in ("check.threshold", "check.end_to_end_threshold"):
        if not 0 < cfg[key] < float("inf"):     # NaN too: no error is below it
            raise ValidationError(f"{key} must be finite and > 0, got {cfg[key]}")
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


def cmd_train(args, cfg: dict) -> int:
    model_cfg = config.model_config(cfg)
    train_cfg = config.train_config(cfg)
    train_ds, holdout = training.load_split(args.data, train_cfg.holdout_cases,
                                            model_cfg.num_labels)
    if args.resume:
        m, state = _load_checkpoint(args.resume, model_cfg)
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


def cmd_eval(args, cfg: dict) -> int:
    num_labels = cfg["model.num_labels"]
    m = None
    if cfg["eval.oracle_self_test"]:
        if args.checkpoint is not None:
            raise ValidationError("eval.oracle_self_test=true evaluates the ground truth "
                                  "against itself and takes no --checkpoint")
    else:
        if args.checkpoint is None:
            raise ValidationError("eval requires --checkpoint (or eval.oracle_self_test=true)")
        m, _ = _load_checkpoint(args.checkpoint, config.model_config(cfg))

    refs = volume_io.read_manifest(args.data)
    cases = ((ref.case_id, volume_io.load_case(args.data, ref)) for ref in refs)
    rows = list(training.evaluate_cases(cases, num_labels, m))

    _echo_config(cfg, args.out)
    field = training.float_field
    metrics_lines = ["case_id,label,dsc,asd_mm,flags\n"]
    for case_id, label, lm in rows:
        flags = [f for f, empty in (("gt_empty", lm.gt_voxels == 0),
                                    ("pred_empty", lm.pred_voxels == 0)) if empty]
        metrics_lines.append(f"{case_id},{label},{field(lm.dsc)},{field(lm.asd_mm)},"
                             f"{';'.join(flags)}\n")
    volume_io.write_file(os.path.join(args.out, "metrics.csv"), *metrics_lines)
    labels = range(1, num_labels)
    dsc = training.label_stats(((label, lm.dsc) for _, label, lm in rows), labels)
    asd = training.label_stats(((label, lm.asd_mm) for _, label, lm in rows), labels)
    absent = Counter(label for _, label, lm in rows
                     if lm.gt_voxels == 0 or lm.pred_voxels == 0)
    pred_empty = Counter(label for _, label, lm in rows if lm.pred_voxels == 0)
    summary_lines = ["label,cases,dsc_mean,dsc_std,asd_mean,asd_std,absent_cases,"
                     "pred_empty_cases\n"]
    for label in labels:
        dsc_vals, dsc_mean, dsc_std = dsc[label]
        _, asd_mean, asd_std = asd[label]
        cases = len(dsc_vals)           # every row has a DSC
        summary_lines.append(f"{label},{cases},{field(dsc_mean)},{field(dsc_std)},"
                             f"{field(asd_mean)},{field(asd_std)},{absent[label]},"
                             f"{pred_empty[label]}\n")
        print(f"label {label}: DSC {100 * dsc_mean:6.1f} %   ASD {asd_mean:7.3f} mm   "
              f"({cases} cases, {absent[label]} flagged, {pred_empty[label]} predicted empty)")
    volume_io.write_file(os.path.join(args.out, "summary.csv"), *summary_lines)
    print(f"wrote metrics for {len(refs)} cases to {args.out}")
    return EXIT_OK


def cmd_compare(args, cfg: dict) -> int:
    workers = _workers()
    model_cfg = config.model_config(cfg)
    base_cfg = config.train_config(cfg)
    cmp_cfg = config.compare_config(cfg)
    _echo_config(cfg, args.out)
    report = training.run_loss_comparison(args.data, model_cfg, base_cfg,
                                          cmp_cfg, args.out,
                                          max_workers=workers)
    for line in training.write_compare_reports(args.out, report.results, cmp_cfg,
                                               model_cfg.num_labels):
        print(line)
    for kind, seed, exc in report.failed_cells:
        print(f"warning: cell ({kind}, seed {seed}) failed: {type(exc).__name__}: {exc}",
              file=sys.stderr)
    if report.failed_cells and not report.results:
        raise report.failed_cells[0][2]     # main exits by its class
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dicegrad",
        description="From-scratch differentiable segmentation workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # name -> (handler, help, the directory options the command requires)
    specs = {
        "gen-data": (cmd_gen_data, "generate a synthetic phantom dataset", ("out",)),
        "gradcheck": (cmd_gradcheck, "finite-difference checks for layers and losses", ()),
        "train": (cmd_train, "train a segmentation model", ("data", "out")),
        "eval": (cmd_eval, "evaluate a checkpoint (or ground truth) on a dataset",
                 ("data", "out")),
        "compare": (cmd_compare, "train and compare the four losses", ("data", "out")),
    }
    for name, (fn, help_text, dirs) in specs.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="path to a key = value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key (repeatable)")
        p.add_argument("--out", required="out" in dirs, help="output directory")
        if "data" in dirs:
            p.add_argument("--data", required=True,
                           help="dataset directory (with manifest.csv)")
        if name == "train":
            p.add_argument("--resume", help="checkpoint to resume from")
        if name == "eval":
            p.add_argument("--checkpoint", help="checkpoint to evaluate")
        p.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(args, _load_cfg(args))
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:              # IoError is an OSError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
