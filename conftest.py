"""Pin BLAS to one thread for every test under this root.

Many tests compare GEMM output byte for byte (index-vs-model parity,
gateway-vs-sync parity, the blocked generator, the k-means kernel), and
OpenBLAS splits a product differently across 1 and 2 threads, which moves
the last bit.  The variables are only read when the BLAS library loads,
so they are set here — pytest imports the root ``conftest.py`` before any
test module, hence before numpy — and ``setdefault`` leaves an explicit
setting alone.  Covers ``tests/`` and ``benchmarks/e2e/tests/``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
