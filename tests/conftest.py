"""Test-session setup.

One BLAS thread for the test process itself, and for the subprocesses that
inherit its environment: the tests' matrices are small, and extra BLAS
threads only contend for the host's cores.  Sweep workers pin their own
thread either way.  OpenBLAS reads this variable when numpy is first
imported, which happens after pytest loads this file.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
