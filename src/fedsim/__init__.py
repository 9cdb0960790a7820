"""Deterministic federated-learning simulator with goal/path-synergy
training, classical baselines, and a robustness-evaluation harness."""

import ctypes
from contextlib import suppress
from pathlib import Path

import numpy as np

from . import algorithms, data, diag, eval, nn, protocol, runner  # noqa: F401

__version__ = "0.1.0"

# OpenBLAS threads only spin and stall on fedsim's few-dozen-row products:
# pin numpy's bundled OpenBLAS to one (a no-op where it is not bundled).
for _lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"):
    with suppress(OSError, AttributeError):
        _set_threads = ctypes.CDLL(str(_lib)).scipy_openblas_set_num_threads64_
        _set_threads.argtypes, _set_threads.restype = [ctypes.c_int], None
        _set_threads(1)

# glibc returns freed heap to the kernel after each forward of a few hundred
# rows, and the next one faults it in again: keep it (a no-op off glibc).
with suppress(OSError, AttributeError):
    _mallopt = ctypes.CDLL("libc.so.6").mallopt
    _mallopt.argtypes, _mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    _mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    _mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
