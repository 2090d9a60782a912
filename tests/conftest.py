"""Run the suite at one BLAS thread.

The test operators are small (orders in the hundreds), where a BLAS
thread pool costs more in synchronization than it gains; on a 2-core
host the suite runs about a third faster at one thread.  The variables
must be set before numpy loads its BLAS, so this file imports nothing
that imports numpy, and a value already set in the environment wins.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
