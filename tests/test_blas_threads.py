"""``python -m repro`` runs BLAS on one thread unless told otherwise.

Score bits hold at one BLAS thread: the import probe in ``repro.scoring``
finds no row multiple that reproduces under a multi-threaded OpenBLAS,
falls back to the largest and warns.  ``repro/__main__.py`` therefore sets
the three BLAS variables before NumPy loads, and a value already set wins.
The warning names the variable and the multiple it fell back to.  Each
command runs in a fresh interpreter, with the variables this suite's
``conftest.py`` set removed.
"""

import os
import subprocess
import sys

import pytest

import repro
from repro import scoring

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_python(*args, **variables):
    env = {name: value for name, value in os.environ.items() if name not in BLAS_VARIABLES}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=300,
        env={**env, "PYTHONPATH": SRC, **variables},
    )


def test_the_probe_warning_names_the_variable_and_the_fallback():
    with pytest.warns(RuntimeWarning) as caught:
        multiple = scoring._first_multiple((24, 48, 96), lambda multiple: False, "scores may move")
    assert multiple == 96
    message = str(caught[0].message)
    assert "96 is used" in message
    assert "OPENBLAS_NUM_THREADS=1" in message


def test_python_m_repro_pins_blas_before_numpy_loads():
    result = run_python("-W", "error::RuntimeWarning", "-m", "repro", "list")
    assert result.returncode == 0, result.stderr
    code = "import os, repro.__main__; print(*(os.environ[name] for name in %r))" % (BLAS_VARIABLES,)
    assert run_python("-c", code).stdout.split() == ["1", "1", "1"]


def test_a_blas_variable_the_user_set_wins():
    code = "import os, repro.__main__; print(os.environ['OPENBLAS_NUM_THREADS'])"
    assert run_python("-c", code, OPENBLAS_NUM_THREADS="2").stdout.strip() == "2"
