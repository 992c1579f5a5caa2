"""Test-session setup for tests/ and perfbench/.

The sampler's matrices are at most about 20x20, so a multi-threaded BLAS
pool gains nothing on them: its extra threads spin between the small calls,
and when another process competes for the cores each call waits for a
descheduled thread. On two cores, two p=10 fits run at once took 2.8 times
as long per fit as one alone with the default OpenBLAS pool, and no longer
than alone with one thread per process; the chains were bit-identical.
The pool size is read when numpy is first imported, which happens after
this file is loaded. A value already set in the environment is kept.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
