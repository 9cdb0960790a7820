"""Importing fedsim stops glibc from handing freed heap pages back to the
kernel after every large forward, so later forwards reuse them."""
import ctypes
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fedsim

# A fresh process, because how far glibc has already raised its dynamic
# thresholds depends on everything the process allocated before.
SCRIPT = """
import resource
import numpy as np
from fedsim import algorithms as alg, data as dat, nn
rng = np.random.default_rng(0)
model = nn.init_mlp(16, (64, 32), 10, rng)
surrogate = dat.LabeledDataset(rng.standard_normal((640, 16)),
                               np.repeat(np.arange(10), 64), 10)
for _ in range(5):
    alg.compute_local_prototypes(model, surrogate)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    alg.compute_local_prototypes(model, surrogate)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


def test_prototype_forward_reuses_heap_pages():
    try:
        ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        pytest.skip("no glibc mallopt here")
    src = str(Path(fedsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout) < 10
