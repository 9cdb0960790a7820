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
