"""The test lane runs BLAS on one thread, as the CLI does.

conftest.py pins the thread count before numpy loads; set any later, OpenBLAS
has already started one thread per core, and threaded reductions make
results (acceptance criterion 8's among them) vary with the machine.
"""

import ctypes
from pathlib import Path

import numpy as np
import pytest


def _numpy_openblas():
    """numpy's bundled scipy-openblas, or a skip when numpy uses another BLAS."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    if blas.get("name") != "scipy-openblas":
        pytest.skip(f"numpy is linked to {blas.get('name')!r}, not a bundled scipy-openblas")
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*.so"))
    assert libs, "numpy reports scipy-openblas, but numpy.libs holds no libscipy_openblas64_*.so"
    return ctypes.CDLL(str(libs[0]))


def test_numpy_openblas_runs_on_one_thread():
    get_threads = _numpy_openblas().scipy_openblas_get_num_threads64_
    get_threads.argtypes, get_threads.restype = [], ctypes.c_int
    assert get_threads() == 1
