"""Differentiable 2D segmentation engine with batch-pooled Dice losses.

Everything runs on CPU in double precision with hand-derived backward
passes; no autodiff framework is involved.

Importing the package sets numpy's bundled OpenBLAS to one thread: BLAS
results depend on the thread count, so every entry point (the CLI, library
calls, the tests) runs the same arithmetic whatever the thread variables or
the import order.
"""

import ctypes
import glob
import os
import warnings

import numpy as np

__version__ = "0.1.0"


def _bundled_openblas() -> ctypes.CDLL | None:
    """numpy's bundled scipy-openblas, or None for a numpy without it."""
    libs = sorted(glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                         "numpy.libs", "libscipy_openblas64_*")))
    return ctypes.CDLL(libs[0]) if libs else None


def _pin_blas_to_one_thread() -> None:
    lib = _bundled_openblas()
    if lib is None:
        warnings.warn("numpy does not bundle scipy-openblas, so dicegrad cannot pin "
                      "BLAS to one thread; results may depend on the thread count",
                      RuntimeWarning, stacklevel=2)
        return
    set_threads = lib.scipy_openblas_set_num_threads64_
    set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
    set_threads(1)


_pin_blas_to_one_thread()
