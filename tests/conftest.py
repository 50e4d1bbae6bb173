"""Test-session set-up: one BLAS thread unless the caller sets a count.

OpenBLAS reads its thread count once, when numpy or scipy first loads
it, so the variables are set here, before any test module imports numpy.
Wall-time gates such as criterion 3's (< 10 s) assume one thread: on a
shared 2-CPU host that test took 10.2 s with the default thread count
and 1.4 s with one.  setdefault keeps a count chosen in the environment.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
