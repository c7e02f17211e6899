"""The benchmark still runs against the package: each workload's traced
run exits 0, reports no failed operation and ends `"correct": true`.

The runner reaches into the package beyond its public calls (the conv
cache `(x, w)`, the `training.adam_step` global, `LayerParams.bn_momentum`,
the checkpoint save and load in the train-step check), so a change there
fails here first.  A short run: this checks couplings, not speed.
"""

import json
import os
import subprocess
import sys

import pytest

RUNNER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "run.py")


@pytest.mark.parametrize("workload", ["train_step", "eval_volume", "gradcheck_suite"])
def test_traced_benchmark_run_is_correct(workload):
    proc = subprocess.run([sys.executable, RUNNER, "--workload", workload,
                           "--seconds", "0.2", "--trace", "1"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert not [line for line in lines if line.startswith("FAILED")], proc.stdout
    result = json.loads(lines[-1])
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
