"""Pin every BLAS thread pool to one thread before numpy is first imported.

BLAS results depend on the thread count, so this makes pytest run the same
floating-point arithmetic as the CLI and the benchmark, which pin the same
variables; a caller's setting is overridden.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
