"""Golden trajectories: each algorithm's run on a small config must match
the committed `golden.json` exactly.

Criterion 10 compares a run with itself; this compares the code with the
commit that wrote the file, so a refactor that changes any bit of any
algorithm's trajectory fails here. For each algorithm the file holds the
per-round test accuracy, the sha256 of the final checkpoint and the
sha256 of `rounds.jsonl` with the wallclock field dropped.

A change that alters numbers on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

and reports the diff.
"""
import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from fedsim import runner

GOLDEN = Path(__file__).with_name("golden.json")

# Criterion 10's config for 8 rounds: 2 of 4 clients per round, so
# fedgps_cf meets both re-selected and fresh clients.
CONFIG = runner.ExperimentConfig(
    num_classes=4, input_dim=6, n_per_class=50, separation=1.5, noise_std=0.8,
    rounds=8, num_clients=4, sample_rate=0.5, alpha=0.5,
    scenario_seeds=(0,), training_seeds=(0,), hidden=(12, 6),
    surrogate_n_per_class=12, divergence_cadence=2)


def trajectory(algo: str, out_dir: Path) -> dict:
    result = runner.run_one(dataclasses.replace(CONFIG, algo=algo, out_dir=str(out_dir)), 0, 0)
    run_dir = Path(result.run_dir)
    rows = []
    for line in (run_dir / "rounds.jsonl").read_text().splitlines():
        rec = json.loads(line)
        rec.pop("wallclock_ms")
        rows.append(json.dumps(rec, sort_keys=True))
    return {
        "test_acc": result.accuracy_series,
        "checkpoint_sha256": hashlib.sha256((run_dir / "checkpoint.bin").read_bytes()).hexdigest(),
        "rounds_sha256": hashlib.sha256("\n".join(rows).encode()).hexdigest(),
    }


@pytest.mark.parametrize("algo", runner.ALGORITHMS)
def test_matches_golden(algo, tmp_path):
    golden = json.loads(GOLDEN.read_text())
    assert trajectory(algo, tmp_path) == golden["algorithms"][algo]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        algos = {a: trajectory(a, Path(tmp)) for a in runner.ALGORITHMS}
    GOLDEN.write_text(json.dumps({"numpy": np.__version__, "algorithms": algos},
                                 indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
