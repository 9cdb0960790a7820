"""Golden trajectories: each algorithm's run on a small config must match
the committed `golden.json` exactly.

Criterion 10 compares a run with itself; this compares the code with the
commit that wrote the file, so a refactor that changes any bit of any
algorithm's trajectory fails here. For each algorithm the file holds the
per-round test accuracy, the sha256 of the final checkpoint and the
sha256 of `rounds.jsonl` with the wallclock field dropped.

A change that alters numbers on purpose regenerates the file with

    PYTHONPATH=src python tests/test_golden.py

which prints, per algorithm, the fields that changed against the file it
replaces; the change reports that diff.
"""
import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from fedsim import diag, nn, runner

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


@pytest.mark.parametrize("algo", runner.ALGORITHMS)
def test_metered_units_match_the_audit_table(algo, tmp_path):
    # diag writes each algorithm's closed form out apart from protocol.ALGORITHMS
    run_dir = Path(runner.run_one(dataclasses.replace(CONFIG, algo=algo, out_dir=str(tmp_path)),
                                  0, 0).run_dir)
    model = nn.load_checkpoint(run_dir / "checkpoint.bin")
    audit = diag.comm_audit_report(cases=[(model.num_params, CONFIG.num_classes, model.embed_dim)])
    (row,) = [row for row in audit["rows"] if row["algo"] == algo]
    assert row["match"]
    units = (row["down"], row["up"])
    records = [json.loads(line) for line in (run_dir / "rounds.jsonl").read_text().splitlines()]
    assert [(r["comm_down"], r["comm_up"]) for r in records] == [units] * CONFIG.rounds
    meta = json.loads((run_dir / "checkpoint.meta.json").read_text())
    assert (meta["total_down"], meta["total_up"]) == tuple(CONFIG.rounds * u for u in units)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_fedgps_matches_fedgps_cf_with_the_sign_flipped(sign, tmp_path):
    # both non-self gradients are positive multiples of the other clients'
    # summed deltas, with opposite signs, and rectification normalises the
    # direction: only rounding may tell the two runs apart
    runs = [runner.run_one(dataclasses.replace(CONFIG, algo=algo, nsg_sign=s,
                                               out_dir=str(tmp_path)), 0, 0)
            for algo, s in [("fedgps", sign), ("fedgps_cf", -sign)]]
    gps, cf = (nn.load_checkpoint(Path(r.run_dir) / "checkpoint.bin").theta for r in runs)
    np.testing.assert_allclose(gps, cf, rtol=1e-12, atol=0)
    assert runs[0].accuracy_series == runs[1].accuracy_series


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        algos = {a: trajectory(a, Path(tmp)) for a in runner.ALGORITHMS}
    old = json.loads(GOLDEN.read_text())["algorithms"] if GOLDEN.exists() else {}
    for algo, new in algos.items():
        changed = [field for field in new if old.get(algo, {}).get(field) != new[field]]
        print(f"{algo}: {', '.join(changed) if changed else 'unchanged'}")
    GOLDEN.write_text(json.dumps({"numpy": np.__version__, "algorithms": algos},
                                 indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
