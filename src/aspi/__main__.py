"""`python -m aspi` and the `aspi` script: run one command line.

When numpy loads, OpenBLAS starts a pool of threads, one per CPU, which
aspi has little use for: its matrix products are tiles of 16 rows, and its
own worker threads (errors.run_ahead) already keep the CPUs busy. The
pool's threads spin while they wait for work, which costs every process
CPU time, and wall time when no CPU is free for them, and where the pool
takes a product it contends with those workers. So, before any module
imports numpy, it is pinned to one thread, unless the caller has set a
count in one of the variables BLAS libraries read.
"""

import os

# the variables numpy's BLAS libraries take their thread count from
_BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

if not any(name in os.environ for name in _BLAS_THREADS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

# after the pin: the command imports numpy
from .cli import main

if __name__ == "__main__":
    main()
