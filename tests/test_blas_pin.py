"""Importing fedsim pins numpy's bundled OpenBLAS to one thread."""
import ctypes
from pathlib import Path

import numpy as np
import pytest

import fedsim  # noqa: F401


def openblas_thread_getter():
    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"):
        try:
            getter = ctypes.CDLL(str(lib)).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        getter.argtypes, getter.restype = [], ctypes.c_int
        return getter
    return None


def test_openblas_runs_one_thread():
    getter = openblas_thread_getter()
    if getter is None:
        pytest.skip("numpy does not bundle scipy-openblas here")
    assert getter() == 1
