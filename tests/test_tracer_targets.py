"""The traced benchmark mode wraps fedsim functions by name and silently
skips a name that no longer exists, so a rename would make its phase
split read 0 without failing. Every name it relies on must resolve."""
import sys
from pathlib import Path

import pytest

import fedsim

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "fedbench"))
import tracing  # noqa: E402

NAMES = sorted({name for members in tracing.PHASES.values() for name in members}
               | {"runner.run_one", "protocol.sample_clients"})


@pytest.mark.parametrize("name", NAMES)
def test_traced_name_resolves(name):
    module, attr = name.split(".")
    assert callable(getattr(getattr(fedsim, module), attr))
