"""Entry point for ``python -m repro``.

BLAS runs on one thread unless the environment says otherwise: OpenBLAS
splits a product differently across threads, and a row's score bits would
then depend on its batch (docs/serving.md, "CLI and CI").  The variables
are read when NumPy loads, so they are set before the CLI imports it; a
value already set wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from .cli import main  # noqa: E402

if __name__ == "__main__":
    raise SystemExit(main())
