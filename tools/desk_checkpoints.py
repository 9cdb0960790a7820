"""Print the checkpoint sha256 of the six desk runs, one per algorithm.

    python tools/desk_checkpoints.py

Each run is criterion 8's desk config (`tests/test_acceptance.py`'s
`desk_comparison`), scenario seed 0 and training seed 0, with fedgps and
fedgps_cf at lambda_g = 0.2 and nsg_sign = -1. A change that claims to
keep every number keeps these six values. The runs go to a temporary
directory and take about ten seconds in all.
"""
from __future__ import annotations

import hashlib
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fedsim import protocol, runner  # noqa: E402

DESK = dict(num_classes=10, input_dim=16, n_per_class=500, separation=0.8, noise_std=1.0,
            num_clients=10, sample_rate=0.5, rounds=150, local_epochs=1, alpha=0.1,
            eval_cadence=1)
RECTIFIED = dict(lambda_g=0.2, nsg_sign=-1.0)


def desk_config(algo: str) -> runner.ExperimentConfig:
    extra = RECTIFIED if protocol.ALGORITHMS[algo].rectified else {}
    return runner.ExperimentConfig(algo=algo, **DESK, **extra)


def checkpoint_sha256(config: runner.ExperimentConfig) -> str:
    """sha256 of the `checkpoint.bin` of `config`'s run at scenario and training seed 0."""
    with tempfile.TemporaryDirectory() as tmp:
        result = runner.run_one(replace(config, out_dir=tmp), 0, 0)
        return hashlib.sha256((Path(result.run_dir) / "checkpoint.bin").read_bytes()).hexdigest()


def main() -> int:
    for algo in runner.ALGORITHMS:
        print(f"{algo:<10} {checkpoint_sha256(desk_config(algo))}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
