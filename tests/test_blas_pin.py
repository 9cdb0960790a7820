"""Importing fedsim pins numpy's bundled OpenBLAS to one thread."""
import ctypes
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fedsim  # noqa: F401

SRC = Path(__file__).resolve().parent.parent / "src"


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


def fresh_import(imports: str, **env) -> tuple[int, int, str | None]:
    """In a fresh interpreter with `OPENBLAS_NUM_THREADS` unset unless given
    in `env`, run `imports` and return the OS thread count, the OpenBLAS
    thread count and the variable's value afterwards."""
    if not Path("/proc/self/task").is_dir():
        pytest.skip("no /proc/self/task to count threads")
    if openblas_thread_getter() is None:
        pytest.skip("numpy does not bundle scipy-openblas here")
    script = (f"{imports}\nimport os, sys\n"
              "threads, value = len(os.listdir('/proc/self/task')), "
              "os.environ.get('OPENBLAS_NUM_THREADS')\n"
              f"sys.path.insert(0, {str(Path(__file__).resolve().parent)!r})\n"
              "from test_blas_pin import openblas_thread_getter\n"
              "print(threads, openblas_thread_getter()(), value)\n")
    child_env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    child_env.update(env, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", script], env=child_env, capture_output=True,
                         text=True, check=True, timeout=60).stdout.split()
    return int(out[0]), int(out[1]), None if out[2] == "None" else out[2]


def test_fedsim_first_starts_openblas_without_a_helper_thread():
    assert fresh_import("import fedsim") == (1, 1, None)


def test_numpy_first_is_pinned_through_ctypes():
    assert fresh_import("import numpy\nimport fedsim")[1:] == (1, None)


def test_users_thread_variable_is_left_as_set():
    assert fresh_import("import fedsim", OPENBLAS_NUM_THREADS="2")[1:] == (1, "2")
