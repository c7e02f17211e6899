"""Import graph: the loss and checkpoint modules load without the modules
that use them; the test process runs BLAS on one thread."""

import ctypes
import glob
import os
import subprocess
import sys

import numpy as np
import pytest

import dicegrad
from dicegrad.checkpoint import save_checkpoint
from dicegrad.model import ModelConfig, build_model
from dicegrad.optim import AdamState
from dicegrad.tensor_core import Rng

SRC = os.path.dirname(os.path.dirname(os.path.abspath(dicegrad.__file__)))


def run_fresh(code: str, *args: str) -> None:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_leaf_modules_do_not_load_their_users(tmp_path):
    run_fresh("import sys, dicegrad.losses\n"
              "assert 'dicegrad.gradcheck' not in sys.modules")

    m = build_model(ModelConfig(num_labels=3, depth=1, base_channels=2, patch_size=8), Rng(0))
    state = AdamState.fresh(m.param_table())
    state.step = 5
    path = str(tmp_path / "opt.dgrd")
    save_checkpoint(m, state, path)
    run_fresh("import sys\n"
              "from dicegrad.checkpoint import load_checkpoint\n"
              "assert 'dicegrad.training' not in sys.modules\n"
              "_, state = load_checkpoint(sys.argv[1])\n"
              "assert state is not None and state.step == 5\n"
              "assert 'dicegrad.training' not in sys.modules", path)


def test_blas_runs_one_thread():
    # tests/conftest.py pins the pools before numpy loads; read the count the
    # library actually uses, through numpy's bundled scipy-openblas.
    libs = sorted(glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                         "numpy.libs", "libscipy_openblas64_*")))
    if not libs:
        pytest.skip("numpy does not bundle scipy-openblas here")
    get_threads = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    assert get_threads() == 1
