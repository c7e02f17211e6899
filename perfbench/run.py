"""dicegrad benchmark.

    python3 perfbench/run.py --workload train_step --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

Run from anywhere; the package is imported from `src/` next to this
directory, never from an installed copy.  One run sets its workload up
three times (the median is `setup_s`), measures operations in a closed
loop for `--seconds`, checks the outputs, prints one `metric` line per
figure with its unit, and ends with one JSON line: `correct`, `attempted`,
`failed` and `metrics`, where the metrics are the end-to-end ones of
BENCHMARK.json with `--trace 0` and its per-layer ones with `--trace 1`.
The traced run records spans around the package's module functions and
prints per-layer figures that apply to the workload beyond those.

`--workload all` runs every workload untraced and traced, each in its own
process, and reports the tracing overhead as the difference between the
two runs' median operation times.

Everything is written under `.bench_out/` (results, spans) and
`.bench_work/` (phantom files, removed after the run) in the checkout.
"""

import os

# BLAS results depend on the thread count, so pin every pool before numpy
# is imported anywhere in this process; a caller's setting is overridden.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import glob
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORK_DIR = os.path.join(ROOT, ".bench_work")
SETUP_REPS = 5
RUN_TIMEOUT_S = 900


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def load_package() -> None:
    """Put the checkout's `src/` first on the path and import dicegrad from it."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "dicegrad", "__init__.py")):
        raise SystemExit(f"perfbench: no dicegrad package under {src}")
    sys.path.insert(0, src)
    import dicegrad
    if os.path.dirname(os.path.dirname(os.path.abspath(dicegrad.__file__))) != src:
        raise SystemExit(f"perfbench: dicegrad imported from {dicegrad.__file__}, not {src}")


def blas_environment() -> dict:
    """Effective thread count and versions of numpy's bundled OpenBLAS;
    refuses to go on unless the library runs one thread."""
    import numpy
    import scipy

    libs = sorted(glob.glob(os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)),
                                         "numpy.libs", "libscipy_openblas64_*")))
    if not libs:
        raise SystemExit("perfbench: numpy's bundled scipy-openblas library not found; "
                         "cannot verify the BLAS thread count")
    lib = ctypes.CDLL(libs[0])    # already loaded by numpy: same handle
    get_threads = lib.scipy_openblas_get_num_threads64_
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    get_config = lib.scipy_openblas_get_config64_
    get_config.argtypes, get_config.restype = [], ctypes.c_char_p
    env = {
        "blas_threads": get_threads(),
        "openblas": get_config().decode(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "cpu": platform.processor() or platform.machine(),
    }
    if env["blas_threads"] != 1:
        raise SystemExit(f"perfbench: OpenBLAS runs {env['blas_threads']} threads, need 1")
    return env


def reference_fingerprint(workload: str, seed: int):
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def run_one(spec: dict, args) -> int:
    load_package()
    env = blas_environment()
    import spans as sp
    import workloads as wl

    name = args.workload
    tracer = sp.Tracer(name) if args.trace else None
    workdir = os.path.join(WORK_DIR, f"{name}-{os.getpid()}")
    os.makedirs(OUT_DIR, exist_ok=True)
    setups = []
    try:
        instrumented = (sp.instrument(tracer, wl.trace_targets()) if tracer
                        else contextlib.nullcontext([]))
        with instrumented as missing:
            for _ in range(SETUP_REPS):
                w = wl.WORKLOADS[name](args.seed, workdir, tracer)
                t0 = time.perf_counter()
                w.setup()
                setups.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            latencies = w.measure(args.seconds)
            window = time.perf_counter() - t0
            w.check()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_DIR)

    n = len(latencies)
    median_ms = 1e3 * statistics.median(latencies) if n else float("nan")
    tail = wl.p90(latencies)
    report = {
        "failed_ratio": (len(w.failed) / max(w.attempted, 1), "ratio",
                         f"{len(w.failed)} failed of {w.attempted} attempted"),
    }
    if tracer is None:
        report.update({
            "setup_s": (statistics.median(setups), "s", f"median of {SETUP_REPS} set-ups"),
            "op_p50_ms": (median_ms, "ms", f"median of {n} operations"),
            "throughput_per_s": (w.units_per_op * n / window, "1/s", f"{w.unit} per second"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB", "peak resident set size of the run"),
        })
        if tail is not None:
            report["op_p90_ms"] = (1e3 * tail, "ms", f"90th percentile of {n} operations")
    else:
        report.update(wl.layer_metrics(tracer, n, w.counts))
        report["trace.op_p50_ms"] = (median_ms, "ms", f"median of {n} operations, traced")

    fingerprint = w.fingerprint()
    reference = reference_fingerprint(name, args.seed)
    if fingerprint is None:
        fp_status = "none for this workload"
    elif reference is None:
        fp_status = f"{fingerprint} (no reference for seed {args.seed})"
    else:
        fp_status = f"{fingerprint} ({'matches' if reference == fingerprint else 'DIFFERS from'}" \
                    f" perfbench/reference.json)"

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    result_metrics = {}
    for m in wanted:
        value, unit, _ = report[m["name"]]
        if unit != m["unit"]:
            raise SystemExit(f"perfbench: {m['name']} measured in {unit}, "
                             f"BENCHMARK.json says {m['unit']}")
        result_metrics[m["name"]] = {"value": value, "unit": unit}
    errors = w.failed + w.gate_errors
    result = {
        "correct": not errors and n > 0,
        "attempted": w.attempted,
        "failed": len(w.failed),
        "metrics": result_metrics,
    }

    print(f"perfbench {name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + " ".join(f"{k}={v!r}" for k, v in env.items()))
    print(f"fingerprint {name} seed={args.seed}: {fp_status}")
    for target in missing:
        print(f"note: {target} not found; not traced")
    for err in errors:
        print(f"FAILED {err}")
    listed = {m["name"] for m in wanted}
    for key, (value, unit, what) in sorted(report.items()):
        if value or key in listed:      # figures of layers this workload never runs are 0
            print(f"metric {key} = {value:.6g} {unit}  ({what})")

    stem = os.path.join(OUT_DIR, f"{name}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"result": result, "env": env, "fingerprint": fingerprint,
                   "errors": errors, "latencies_s": latencies,
                   "figures": {k: {"value": v[0], "unit": v[1], "what": v[2]}
                               for k, v in report.items()}},
                  fh, indent=1)
    if tracer is not None:
        tracer.write(stem + ".spans.jsonl.gz")
    print(json.dumps(result))
    return 0


def run_all(spec: dict, args) -> int:
    """Every workload untraced then traced, each in its own process."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    p50 = {}
    for wl in spec["workloads"]:
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", wl["name"],
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            sys.stderr.write(proc.stderr)
            if proc.returncode != 0 or not lines:
                raise SystemExit(f"perfbench: {wl['name']} trace={trace} "
                                 f"exited with {proc.returncode}")
            res = json.loads(lines[-1])
            summary["correct"] &= res["correct"]
            summary["attempted"] += res["attempted"]
            summary["failed"] += res["failed"]
            for key, val in res["metrics"].items():
                summary["metrics"][f"{wl['name']}/{key}"] = val
            p50[trace] = res["metrics"]["op_p50_ms" if trace == 0 else "trace.op_p50_ms"]["value"]
        print(f"trace overhead {wl['name']}: op p50 {p50[1]:.6g} ms traced vs "
              f"{p50[0]:.6g} ms untraced ({100 * (p50[1] / p50[0] - 1):+.1f}%)")
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(spec, args)
    return run_one(spec, args)


if __name__ == "__main__":
    sys.exit(main())
