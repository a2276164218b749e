"""Test-session setup.

One BLAS thread per process: the acceptance sweeps run two worker processes,
and on a two-core host two workers of two BLAS threads each run slower than
one serial worker.  OpenBLAS reads this variable when numpy is first
imported, which happens after pytest loads this file.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
