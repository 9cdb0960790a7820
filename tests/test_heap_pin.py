"""Heap pages: a forward reuses its kernel's pages, and importing fedsim
leaves glibc's heap thresholds at their defaults, so freed memory goes
back to the kernel."""
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import fedsim

# Fresh processes, because how far glibc has already raised its dynamic
# thresholds depends on everything the process allocated before.
FAULTS_SCRIPT = """
import resource
import numpy as np
from fedsim import algorithms as alg, data as dat, nn, runner
rng = np.random.default_rng(0)
model = nn.init_mlp(16, (64, 32), 10, rng)
theta = nn.flatten(model)
surrogate = dat.LabeledDataset(rng.standard_normal((640, 16)),
                               np.repeat(np.arange(10), 64), 10)
test = dat.LabeledDataset(rng.standard_normal((1000, 16)), rng.integers(0, 10, 1000), 10)
def forwards():
    alg.compute_local_prototypes(model, surrogate)
    runner.accuracy(model, theta, test)
for _ in range(5):
    forwards()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(20):
    forwards()
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""

RSS_SCRIPT = """
import os
import numpy as np
import fedsim  # noqa: F401
def resident():
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * os.sysconf("SC_PAGE_SIZE")
before = resident()
block = np.ones(20 << 20, dtype=np.uint8)
del block
print(resident() - before)
"""


def run_fresh(script):
    if platform.libc_ver()[0] != "glibc":
        pytest.skip("not on glibc")
    src = str(Path(fedsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return float(proc.stdout)


def test_prototype_forward_reuses_heap_pages():
    """The prototype and test-accuracy forwards run on the template's kept
    kernel, which allocates no array of their size per call, so a warm
    forward faults in no fresh pages."""
    assert run_fresh(FAULTS_SCRIPT) < 10


def test_import_leaves_freed_memory_to_the_kernel():
    """A freed 20 MB array leaves the resident set where it was: importing
    fedsim does not keep freed heap mapped."""
    if not Path("/proc/self/statm").exists():
        pytest.skip("no /proc/self/statm")
    assert abs(run_fresh(RSS_SCRIPT)) < 1 << 20
