"""The benchmark's three workloads, their correctness gates, and the
per-layer metrics derived from a traced run.

Each workload is one client in a closed loop: the next operation starts
when the previous one has returned.  Operations are

  train_step       one Adam step of `training.train` (sample, forward,
                   loss, backward, update) on the committed study config;
  eval_volume      one held-out 64^3 case: `model.segment_volume`, then
                   `metrics.evaluate_case` on the prediction and on the
                   ground-truth self-test;
  gradcheck_suite  the full `dicegrad gradcheck` set.

Every input comes from the workload seed: it is passed as `data.seed` and
`train.seed` to the package's own config, so the phantoms, the initial
weights and the sampler stream are the program's, never the benchmark's.
The gradcheck functions take no seed from the command line (the CLI calls
them with their built-in seeds), so gradcheck_suite does the same work for
every seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np

from dicegrad import (checkpoint, config, gradcheck, layers, losses, metrics,
                      model, phantom, sampling, training, volume_io)
from dicegrad.tensor_core import Rng

import spans as sp

N_TRAIN_CASES = 3        # phantoms behind the train_step patch sampler
N_EVAL_CASES = 3         # held-out cases eval_volume cycles through
TRAIN_CHUNK = 4          # steps per `training.train` call
FINGERPRINT_STEPS = 8    # loss-curve prefix hashed by train_step

LAYER_OPS = ("conv2d", "batchnorm", "relu", "maxpool2", "bilinear_up2", "softmax")


def study_config(seed: int) -> dict:
    """The committed study's resolved config with the workload seed."""
    return config.resolve(None, ["model.base_channels=9", f"data.seed={seed}",
                                 f"train.seed={seed}"], "<benchmark>")


def _mode_of(args, kwargs) -> str:
    mode = args[2] if len(args) > 2 else kwargs.get("mode")
    return args[0].mode if mode is None else mode


def _conv_shape(x, w):
    # (cin, cout, hw, batch): the key of the per-shape conv metrics
    return (int(x.shape[1]), int(w.shape[0]), int(x.shape[2]), int(x.shape[0]))


def trace_targets() -> list[sp.Target]:
    """Every layer boundary the traced run records."""
    T, fixed = sp.Target, sp.fixed
    targets = [
        T(layers, "conv2d", lambda a, k: ("layers.conv2d", _conv_shape(a[0], a[1].weights))),
        T(layers, "conv2d_backward", lambda a, k: ("layers.conv2d_backward", _conv_shape(*a[0]))),
    ]
    for op in LAYER_OPS[1:]:
        targets += [T(layers, op, fixed(f"layers.{op}")),
                    T(layers, f"{op}_backward", fixed(f"layers.{op}_backward"))]
    targets += [
        T(model, "forward", lambda a, k: (f"model.forward_{_mode_of(a, k)}", None)),
        T(model, "backward", fixed("model.backward")),
        T(model, "segment_volume", fixed("model.segment_volume")),
        T(sampling, "sample_balanced_batch", fixed("sampling.batch")),
        T(sampling, "augment", fixed("sampling.augment")),
        T(training, "PatchDataset", fixed("sampling.index")),
        # training binds compute_loss at import; gradcheck goes through losses
        T(training, "compute_loss", fixed("losses.compute_loss")),
        T(losses, "compute_loss", fixed("losses.compute_loss")),
        T(training, "adam_step", fixed("training.adam_step")),
        T(metrics, "evaluate_case", fixed("metrics.evaluate_case")),
        T(metrics, "average_surface_distance", fixed("metrics.average_surface_distance")),
        T(gradcheck, "numerical_grad",
          lambda a, k: ("gradcheck.numerical_grad", int(a[1].size))),
        T(losses, "_numerical_loss_grad",
          lambda a, k: ("gradcheck.numerical_grad", int(a[0].size))),
        T(gradcheck, "run_layer_checks", fixed("gradcheck.layer_checks")),
        T(gradcheck, "run_loss_checks", fixed("gradcheck.loss_checks")),
        T(gradcheck, "check_model_end_to_end", fixed("gradcheck.model_e2e")),
        T(checkpoint, "save_checkpoint", fixed("checkpoint.save")),
        T(checkpoint, "load_checkpoint", fixed("checkpoint.load")),
        T(phantom, "generate_phantom", fixed("phantom.generate")),
        T(volume_io, "save_case", fixed("volume_io.save_case")),
        T(volume_io, "load_case", fixed("volume_io.load_case")),
    ]
    return targets


@contextlib.contextmanager
def step_clock(stamps: list, tracer):
    """Timestamp every return of `training.adam_step`: the end of one train
    step.  With a tracer, also advance its operation id to the next step."""
    inner = training.adam_step

    def clocked(*args, **kwargs):
        out = inner(*args, **kwargs)
        stamps.append(time.perf_counter())
        if tracer is not None:
            tracer.op += 1
        return out

    training.adam_step = clocked
    try:
        yield
    finally:
        training.adam_step = inner


def _bitwise(got: dict, want: dict) -> bool:
    return got.keys() == want.keys() and all(
        got[k].shape == want[k].shape and got[k].tobytes() == want[k].tobytes()
        for k in want)


class Workload:
    """Set-up, timed operations and post-run gates of one workload.

    `measure` returns the latency of every completed operation; failures
    (an exception or a broken gate inside an operation) go to `self.failed`,
    gates checked once after the loop to `self.gate_errors`.
    """

    unit = "operations"    # what throughput_per_s counts
    units_per_op = 1

    def __init__(self, seed: int, workdir: str, tracer):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.cfg = study_config(seed)
        self.attempted = 0
        self.failed: list[str] = []
        self.gate_errors: list[str] = []
        self.counts: dict[str, float] = {}

    def span(self, name):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def _set_op(self, op):
        if self.tracer is not None:
            self.tracer.op = op

    def _write_dataset(self, n_cases: int) -> str:
        """Phantoms from the workload seed, written and manifested the way
        `dicegrad gen-data` does."""
        data_dir = os.path.join(self.workdir, "data")
        shutil.rmtree(data_dir, ignore_errors=True)
        os.makedirs(data_dir)
        refs = [volume_io.save_case(data_dir, case_id, vol, case_seed)
                for case_id, case_seed, vol in phantom.generate_dataset(
                    config.phantom_spec(self.cfg), n_cases, self.cfg["data.seed"])]
        volume_io.write_manifest(data_dir, refs)
        return data_dir

    def setup(self) -> None:
        raise NotImplementedError

    def measure(self, seconds: float) -> list[float]:
        raise NotImplementedError

    def check(self) -> None:
        pass

    def fingerprint(self) -> str | None:
        return None


class TrainStep(Workload):
    unit = "64x64 patches"

    def setup(self):
        data_dir = self._write_dataset(N_TRAIN_CASES)
        self.train_cfg = config.train_config(self.cfg)
        self.units_per_op = self.train_cfg.sampler.batch_size
        self.dataset, _ = training.load_split(data_dir, 0, self.cfg["model.num_labels"])
        self.model = model.build_model(config.model_config(self.cfg),
                                       Rng(self.train_cfg.seed).child(1))
        self.state = training.AdamState.fresh(self.model.param_table())
        # Warm-up: one batch from a stream the training run never draws
        # from, through an eval-mode forward, which leaves the model as built.
        batch = sampling.sample_balanced_batch(self.dataset, self.train_cfg.sampler,
                                               Rng(self.seed).child(99))
        model.forward(self.model, batch.images, "eval")
        self.losses: list[float] = []

    def measure(self, seconds):
        latencies = []
        stamps: list[float] = []
        start = time.perf_counter()
        with step_clock(stamps, self.tracer):
            while (time.perf_counter() - start < seconds
                   or len(self.losses) < FINGERPRINT_STEPS):
                done = self.state.step
                cfg = replace(self.train_cfg, steps=done + TRAIN_CHUNK)
                self._set_op(done)
                stamps.clear()
                t0 = time.perf_counter()
                try:
                    _, record = training.train(self.model, self.dataset, cfg,
                                               state=self.state)
                except Exception as exc:   # a failed step ends the run
                    self.attempted += len(stamps) + 1
                    self.failed.append(f"step {done + len(stamps)}: {type(exc).__name__}: {exc}")
                    break
                self.attempted += len(stamps)
                marks = [t0] + stamps
                latencies += [b - a for a, b in zip(marks, marks[1:])]
                for step, value in record.losses:
                    if not np.isfinite(value):
                        self.failed.append(f"step {step}: non-finite loss {value}")
                    self.losses.append(value)
        self._set_op(None)
        return latencies

    def check(self):
        """Save and reload a checkpoint; the state must come back bitwise."""
        path = os.path.join(self.workdir, "bench.dgrd")
        checkpoint.save_checkpoint(self.model, self.state, path)
        self.counts["checkpoint.bytes"] = os.path.getsize(path)
        m2, s2 = checkpoint.load_checkpoint(path)
        if not (m2.cfg == self.model.cfg and s2 is not None and s2.step == self.state.step
                and _bitwise(m2.state_table(), self.model.state_table())
                and _bitwise(s2.m, self.state.m) and _bitwise(s2.v, self.state.v)):
            self.gate_errors.append("checkpoint save/reload did not return bitwise-identical state")

    def fingerprint(self):
        """sha256 of the first FINGERPRINT_STEPS losses in curve.csv format."""
        text = "step,loss\n" + "".join(
            f"{t},{v:.17g}\n" for t, v in enumerate(self.losses[:FINGERPRINT_STEPS]))
        return hashlib.sha256(text.encode()).hexdigest()


class EvalVolume(Workload):
    unit = "64^3 cases"

    def setup(self):
        num_labels = self.cfg["model.num_labels"]
        data_dir = self._write_dataset(1 + N_EVAL_CASES)
        calib, self.holdout = training.load_split(data_dir, N_EVAL_CASES, num_labels)
        self.model = model.build_model(config.model_config(self.cfg),
                                       Rng(self.cfg["train.seed"]).child(1))
        # Fresh batch-norm running statistics (mean 0, var 1) do not match the
        # activations, and the prediction then collapses to a few labels.
        # One train-mode forward at momentum 1 sets them to one training
        # batch's statistics; the prediction is then a dense speckle of
        # every label, so the ASD path runs for each.
        batch = sampling.sample_balanced_batch(calib, config.sampler_config(self.cfg),
                                               Rng(self.seed).child(0))
        momenta = {name: u.bn_momentum for name, u in self.model.units.items()}
        for u in self.model.units.values():
            u.bn_momentum = 1.0
        model.forward(self.model, batch.images, "train")
        for name, u in self.model.units.items():
            u.bn_momentum = momenta[name]
        model.forward(self.model, self.holdout[0][1].intensities[:16, None], "eval")
        self.pred_digests: list[bytes] = []
        self.counts = {"metrics.labels_evaluated": 0, "metrics.asd_computed": 0}

    def _evaluate(self, pred, vol) -> list[str]:
        num_labels = self.cfg["model.num_labels"]
        errors = []
        with self.span("case.predicted"):
            report = metrics.evaluate_case(pred, vol, num_labels=num_labels)
        empty = [l for l, lm in report.per_label.items() if lm.pred_voxels == 0]
        if empty:
            errors.append(f"prediction empty for labels {empty}: the ASD path would not run")
        with self.span("case.selftest"):
            selftest = metrics.evaluate_case(vol.labels.copy(), vol, num_labels=num_labels)
        wrong = [l for l, lm in selftest.per_label.items()
                 if lm.dsc != 1.0 or lm.asd_mm != 0.0]
        if wrong:
            errors.append(f"self-test not DSC 1.0 / ASD 0.0 for labels {wrong}")
        for rep in (report, selftest):
            self.counts["metrics.labels_evaluated"] += len(rep.per_label)
            self.counts["metrics.asd_computed"] += sum(
                lm.asd_mm is not None for lm in rep.per_label.values())
        return errors

    def measure(self, seconds):
        latencies = []
        start = time.perf_counter()
        i = 0
        while time.perf_counter() - start < seconds or i < N_EVAL_CASES:
            case_id, vol = self.holdout[i % N_EVAL_CASES]
            self._set_op(i)
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                pred = model.segment_volume(self.model, vol.intensities)
                errors = self._evaluate(pred, vol)
            except Exception as exc:
                self.failed.append(f"case {case_id}: {type(exc).__name__}: {exc}")
                break
            latencies.append(time.perf_counter() - t0)
            if errors:
                self.failed.append(f"case {case_id}: " + "; ".join(errors))
            if i < N_EVAL_CASES:
                self.pred_digests.append(
                    np.ascontiguousarray(pred, dtype="<u2").tobytes())
            i += 1
        self._set_op(None)
        return latencies

    def fingerprint(self):
        """sha256 of the first pass's predicted label volumes, as uint16."""
        h = hashlib.sha256()
        for digest in self.pred_digests:
            h.update(digest)
        return h.hexdigest()


class GradcheckSuite(Workload):
    unit = "suites"

    def setup(self):
        # What `dicegrad gradcheck` pays before checking: a fresh interpreter
        # importing the package.  Then an in-process warm-up of the layer
        # checks (bilinear interpolation tables, allocator).
        src = os.path.dirname(os.path.dirname(gradcheck.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        subprocess.run([sys.executable, "-c", "import dicegrad.gradcheck, dicegrad.model"],
                       env=env, check=True, timeout=120)
        gradcheck.run_layer_checks()
        self.threshold = self.cfg["check.threshold"]
        self.e2e_threshold = self.cfg["check.end_to_end_threshold"]

    def measure(self, seconds):
        latencies = []
        start = time.perf_counter()
        i = 0
        while time.perf_counter() - start < seconds or i < 1:
            self._set_op(i)
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                rows = gradcheck.run_layer_checks() + gradcheck.run_loss_checks()
                e2e = gradcheck.check_model_end_to_end()
            except Exception as exc:
                self.failed.append(f"suite {i}: {type(exc).__name__}: {exc}")
                break
            latencies.append(time.perf_counter() - t0)
            bad = [f"{name}={err:.3e}" for name, err in rows if not err < self.threshold]
            if not e2e < self.e2e_threshold:
                bad.append(f"model/end_to_end={e2e:.3e}")
            if bad:
                self.failed.append(f"suite {i}: above threshold: {', '.join(bad)}")
            i += 1
        self._set_op(None)
        return latencies


WORKLOADS = {
    "train_step": TrainStep,
    "eval_volume": EvalVolume,
    "gradcheck_suite": GradcheckSuite,
}


# ---------------------------------------------------------------------------
# per-layer metrics from a traced run
# ---------------------------------------------------------------------------

def _conv_flops(shape) -> int:
    cin, cout, hw, batch = shape
    return 2 * batch * cin * cout * 9 * hw * hw


def layer_metrics(tracer: sp.Tracer, n_ops: int, counts: dict) -> dict:
    """name -> (value, unit, what it is), from the spans of one run.

    Spans inside timed operations are divided by the number of operations
    (per step, per case or per suite); set-up and post-run spans are
    averaged per call.
    """
    self_t = sp.self_times(tracer.spans)
    win: dict[str, list] = {}       # name -> [calls, total_s, self_s]
    other: dict[str, list] = {}
    conv: dict[tuple, list] = {}    # (name, shape) -> [calls, self_s]
    fd_evals = 0
    selftest_s, predicted_s, n_pred, n_self = 0.0, 0.0, 0, 0
    n_spans = 0
    for i, rec in enumerate(tracer.spans):
        name = rec[sp.NAME]
        dur = rec[sp.END] - rec[sp.START]
        if rec[sp.OP] is None:
            acc = other.setdefault(name, [0, 0.0, 0.0])
        else:
            n_spans += 1
            acc = win.setdefault(name, [0, 0.0, 0.0])
            if name in ("layers.conv2d", "layers.conv2d_backward"):
                c = conv.setdefault((name, rec[sp.ATTRS]), [0, 0.0])
                c[0] += 1
                c[1] += self_t[i]
            elif name == "gradcheck.numerical_grad":
                fd_evals += 2 * rec[sp.ATTRS]
            elif name == "metrics.evaluate_case":
                parent = tracer.spans[rec[sp.PARENT]][sp.NAME] if rec[sp.PARENT] >= 0 else ""
                if parent == "case.selftest":
                    selftest_s, n_self = selftest_s + dur, n_self + 1
                else:
                    predicted_s, n_pred = predicted_s + dur, n_pred + 1
        acc[0] += 1
        acc[1] += dur
        acc[2] += self_t[i]

    n = max(n_ops, 1)

    def per_call_ms(table, name):
        calls, total, _ = table.get(name, (0, 0.0, 0.0))
        return 1e3 * total / calls if calls else 0.0

    def per_op(name, idx):
        return win.get(name, (0, 0.0, 0.0))[idx] / n

    out = {}
    for op in LAYER_OPS:
        fwd, bwd = f"layers.{op}", f"layers.{op}_backward"
        out[f"{fwd}.fwd_bwd_self_ms"] = (
            1e3 * (per_op(fwd, 2) + per_op(bwd, 2)), "ms",
            "forward + backward self time per operation")
        out[f"{fwd}.self_ms"] = (1e3 * per_op(fwd, 2), "ms", "self time per operation")
        out[f"{bwd}.self_ms"] = (1e3 * per_op(bwd, 2), "ms", "self time per operation")
        out[f"{fwd}.calls"] = (per_op(fwd, 0), "count", "calls per operation")
        out[f"{bwd}.calls"] = (per_op(bwd, 0), "count", "calls per operation")
    for (name, shape), (calls, self_s) in sorted(conv.items()):
        cin, cout, hw, batch = shape
        key = f"{name}.{cin}to{cout}_{hw}"
        flops = _conv_flops(shape) * (2 if name.endswith("backward") else 1)
        out[f"{key}.ms"] = (1e3 * self_s / calls, "ms", f"self time per call, batch {batch}")
        out[f"{key}.gflops_per_s"] = (
            flops * calls / self_s / 1e9 if self_s else 0.0, "GFLOP/s",
            "nominal count 2*B*Cin*Cout*9*H*W per pass, backward 2x (dx + dW), over self time")

    forwards = [win.get(f"model.forward_{m}", (0, 0.0, 0.0)) for m in ("train", "eval")]
    calls = sum(f[0] for f in forwards)
    out["model.forward_ms"] = (1e3 * sum(f[1] for f in forwards) / calls if calls else 0.0,
                               "ms", "per forward call, either mode")
    out["model.forward.calls"] = (calls / n, "count", "forward calls per operation")
    table = [
        ("sampling.batch_ms", 1e3 * per_op("sampling.batch", 1), "ms", "per step"),
        ("sampling.augment_ms", 1e3 * per_op("sampling.augment", 1), "ms", "per step"),
        ("model.forward_train_ms", per_call_ms(win, "model.forward_train"), "ms", "per call"),
        ("model.forward_eval_ms", per_call_ms(win, "model.forward_eval"), "ms",
         "per call (16-tile batch in segment_volume)"),
        ("model.backward_ms", per_call_ms(win, "model.backward"), "ms", "per call"),
        ("model.segment_volume_s", per_call_ms(win, "model.segment_volume") / 1e3, "s",
         "per 64^3 case"),
        ("losses.compute_loss_ms", per_call_ms(win, "losses.compute_loss"), "ms", "per call"),
        ("losses.compute_loss.calls", per_op("losses.compute_loss", 0), "count",
         "calls per operation"),
        ("training.adam_step_ms", per_call_ms(win, "training.adam_step"), "ms", "per call"),
        ("metrics.evaluate_case_ms", 1e3 * predicted_s / n_pred if n_pred else 0.0, "ms",
         "per call, on the model's prediction"),
        ("metrics.evaluate_case_selftest_ms", 1e3 * selftest_s / n_self if n_self else 0.0,
         "ms", "per call, ground truth against itself"),
        ("metrics.average_surface_distance_ms",
         per_call_ms(win, "metrics.average_surface_distance"), "ms", "per call"),
        ("gradcheck.numerical_grad_ms", per_call_ms(win, "gradcheck.numerical_grad"), "ms",
         "per call, layer, loss and model checks"),
        ("gradcheck.fd_evals", fd_evals / n, "count",
         "finite-difference function evaluations per suite (2 per element)"),
        ("gradcheck.model_e2e_s", per_op("gradcheck.model_e2e", 1), "s", "per suite"),
        ("gradcheck.layer_checks_s", per_op("gradcheck.layer_checks", 1), "s", "per suite"),
        ("gradcheck.loss_checks_s", per_op("gradcheck.loss_checks", 1), "s", "per suite"),
        ("checkpoint.save_ms", per_call_ms(other, "checkpoint.save"), "ms", "per call"),
        ("checkpoint.load_ms", per_call_ms(other, "checkpoint.load"), "ms", "per call"),
        ("checkpoint.bytes", counts.get("checkpoint.bytes", 0), "B", "one checkpoint file"),
        ("phantom.generate_ms", per_call_ms(other, "phantom.generate"), "ms", "per case"),
        ("volume_io.save_case_ms", per_call_ms(other, "volume_io.save_case"), "ms", "per case"),
        ("volume_io.load_case_ms", per_call_ms(other, "volume_io.load_case"), "ms", "per case"),
        ("sampling.index_ms", per_call_ms(other, "sampling.index"), "ms",
         "per PatchDataset build"),
        ("trace.spans", n_spans / n, "count", "spans recorded per operation"),
    ]
    out.update((name, (value, unit, what)) for name, value, unit, what in table)
    asd, labels = counts.get("metrics.asd_computed", 0), counts.get("metrics.labels_evaluated", 0)
    out["metrics.asd_computed"] = (asd / n, "count",
                                    "ASDs computed per case, prediction and self-test")
    if labels:
        out["metrics.asd_computed_ratio"] = (asd / labels, "ratio",
                                             "ASDs computed over labels evaluated")
    return out


def p90(values):
    """90th percentile, or None when fewer than 10 samples lie beyond it."""
    if len(values) < 100:
        return None
    return statistics.quantiles(values, n=10)[-1]
