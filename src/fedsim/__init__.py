"""Deterministic federated-learning simulator with goal/path-synergy
training, classical baselines, and a robustness-evaluation harness."""

import ctypes
import os
import sys
from contextlib import suppress
from pathlib import Path

# OpenBLAS threads only spin and stall on fedsim's few-dozen-row products,
# so numpy's bundled OpenBLAS runs one thread. Where fedsim is the first to
# import numpy, the thread count is set before numpy loads OpenBLAS: the
# library starts its helper thread at load, and that thread competes with
# the rest of start-up (skipping it took a desk-fedgps benchmark pass's
# median `setup_s` from 0.215 to 0.146 s on two vCPUs). The environment is
# restored right after, so child processes and other BLAS libraries see
# the user's settings unchanged.
if "numpy" not in sys.modules and "OPENBLAS_NUM_THREADS" not in os.environ:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        import numpy as np
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]
else:
    import numpy as np

from . import algorithms, data, diag, eval, nn, protocol, runner  # noqa: F401

__version__ = "0.1.0"

# Where numpy was imported first, or the user set the variable, this pin
# through the loaded library's own call holds the one thread (a no-op
# where numpy does not bundle scipy-openblas).
for _lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"):
    with suppress(OSError, AttributeError):
        _set_threads = ctypes.CDLL(str(_lib)).scipy_openblas_set_num_threads64_
        _set_threads.argtypes, _set_threads.restype = [ctypes.c_int], None
        _set_threads(1)
