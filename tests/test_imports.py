"""Import graph: the loss and checkpoint modules load without the modules
that use them, the gradient checks without scipy; importing the package
runs BLAS on one thread."""

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


def run_fresh(code: str, *args: str, env: dict | None = None) -> str:
    env = dict(os.environ if env is None else env, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def openblas_library() -> str:
    """numpy's bundled scipy-openblas, or skip where numpy has none."""
    libs = sorted(glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                         "numpy.libs", "libscipy_openblas64_*")))
    if not libs:
        pytest.skip("numpy does not bundle scipy-openblas here")
    return libs[0]


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


def test_gradcheck_and_model_do_not_load_scipy():
    # The gradient-check suite's start-up is this import; scipy.ndimage alone
    # would add several times its cost.
    run_fresh("import sys, dicegrad.gradcheck, dicegrad.model\n"
              "loaded = sorted(n for n in sys.modules if n.split('.')[0] == 'scipy')\n"
              "assert not loaded, loaded")


def test_blas_runs_one_thread():
    # Importing dicegrad pins the pool; read the count the library actually
    # uses, through numpy's bundled scipy-openblas.
    get_threads = ctypes.CDLL(openblas_library()).scipy_openblas_get_num_threads64_
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    assert get_threads() == 1


# numpy is imported before dicegrad, so nothing can set the thread
# variables ahead of OpenBLAS's start; the study-width step differs in its
# last bits between one and two BLAS threads.
FORWARD_BACKWARD = """
import ctypes, hashlib, sys
import numpy as np
from dicegrad import model
from dicegrad.tensor_core import Rng

m = model.build_model(model.ModelConfig(num_labels=7, base_channels=9, patch_size=64), Rng(0))
p, tape = model.forward(m, Rng(1).normal((2, 1, 64, 64)), "train")
grads = model.backward(m, tape, Rng(2).normal(p.shape, std=0.1))
digest = hashlib.sha256(p.tobytes())
for name in sorted(grads):
    digest.update(grads[name].tobytes())
get_threads = ctypes.CDLL(sys.argv[1]).scipy_openblas_get_num_threads64_
get_threads.argtypes, get_threads.restype = [], ctypes.c_int
print(get_threads(), digest.hexdigest())
"""


def test_blas_pin_holds_whatever_the_thread_variables():
    lib = openblas_library()
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")}
    runs = {setting: run_fresh(FORWARD_BACKWARD, lib, env=base if setting is None
                               else dict(base, OPENBLAS_NUM_THREADS=setting)).split()
            for setting in ("1", "2", None)}
    assert {threads for threads, _ in runs.values()} == {"1"}, runs
    assert len({digest for _, digest in runs.values()}) == 1, runs


def test_missing_openblas_warns(monkeypatch):
    monkeypatch.setattr(glob, "glob", lambda pattern: [])
    with pytest.warns(RuntimeWarning, match="cannot pin BLAS"):
        dicegrad._pin_blas_to_one_thread()
