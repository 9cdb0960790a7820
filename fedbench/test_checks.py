"""Each output check of the benchmark must fail on a corrupted input.

    python3 -m pytest fedbench -q

A tiny real federated run supplies a clean run directory; every test
corrupts one artifact and expects the check to raise.
"""
import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run as bench
import tracing

sys.path.insert(0, str(bench.ROOT / "src"))
import fedsim  # noqa: E402

WIDTHS = [6, 16, 8, 4]


@pytest.fixture(scope="module")
def clean_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("runs")
    cfg = fedsim.runner.ExperimentConfig(
        num_classes=4, input_dim=6, n_per_class=60, separation=3.0, noise_std=0.8,
        rounds=6, num_clients=4, sample_rate=1.0, alpha=0.5, eta_l=0.1, local_epochs=3,
        scenario_seeds=(0,), training_seeds=(0,), hidden=(16, 8), surrogate_n_per_class=16,
        algo="fedgps", divergence_cadence=2, out_dir=str(out))
    dataset = fedsim.runner.build_dataset(cfg)
    split_seed = int(fedsim.runner.stream(cfg.data_seed, "split").integers(2 ** 31))
    train, test = fedsim.data.stratified_split(dataset, cfg.test_fraction, split_seed)
    tracer = tracing.Tracer()
    tracer.install(fedsim)
    try:
        result = fedsim.runner.run_one(cfg, 0, 0)
    finally:
        tracer.uninstall()
    return cfg, train, test, result, tracer


@pytest.fixture
def run_dir(clean_run, tmp_path):
    return Path(shutil.copytree(clean_run[3].run_dir, tmp_path / "run"))


def check(clean_run, run_dir, **changes):
    cfg, train, test, result, _ = clean_run
    kwargs = dict(algo="fedgps", rounds=cfg.rounds, widths=WIDTHS, num_classes=4,
                  train_labels=train.labels, test_x=test.features, test_y=test.labels,
                  batch_size=cfg.batch_size, epochs=cfg.local_epochs, classes_per_shard=None,
                  reported_final_acc=result.final_acc, monitor_every=2)
    kwargs.update(changes)
    return checks.check_run(run_dir, **kwargs)


def test_clean_run_passes(clean_run, run_dir):
    assert check(clean_run, run_dir)["final_acc"] == clean_run[3].final_acc


@pytest.mark.parametrize("offset", [0, -1])
def test_flipped_checkpoint_byte_fails(clean_run, run_dir, offset):
    # byte 0 is the magic; the last byte is the sign and exponent of the
    # final classifier bias, which then dominates every prediction
    path = run_dir / "checkpoint.bin"
    blob = bytearray(path.read_bytes())
    blob[offset] ^= 0x40
    path.write_bytes(bytes(blob))
    with pytest.raises(checks.CheckError):
        check(clean_run, run_dir)


def test_wrong_accuracy_fails(clean_run, run_dir):
    with pytest.raises(checks.CheckError):
        check(clean_run, run_dir, reported_final_acc=clean_run[3].final_acc - 1e-3)
    meta_path = run_dir / "checkpoint.meta.json"
    meta = json.loads(meta_path.read_text())
    meta["final_acc"] += 1e-3
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(checks.CheckError):
        check(clean_run, run_dir)


def test_accuracy_at_chance_fails():
    with pytest.raises(checks.CheckError):
        checks.check_accuracy(0.25, [0.25], num_classes=4)


def test_overlapping_shard_fails(clean_run, run_dir):
    path = run_dir / "partition.jsonl"
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    rows[1]["indices"].append(rows[0]["indices"][0])
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    with pytest.raises(checks.CheckError):
        check(clean_run, run_dir)


def test_wrong_class_count_per_shard_fails(clean_run, run_dir):
    with pytest.raises(checks.CheckError):
        check(clean_run, run_dir, classes_per_shard=1)


def test_wrong_comm_total_fails(clean_run, run_dir):
    meta_path = run_dir / "checkpoint.meta.json"
    meta = json.loads(meta_path.read_text())
    meta["total_up"] += 1
    meta_path.write_text(json.dumps(meta))
    with pytest.raises(checks.CheckError):
        check(clean_run, run_dir)


@pytest.mark.parametrize("corruption", ["drop_round", "nan"])
def test_incomplete_or_non_finite_rounds_fail(clean_run, run_dir, corruption):
    path = run_dir / "rounds.jsonl"
    lines = path.read_text().splitlines()
    if corruption == "drop_round":
        lines = lines[:-1]
    else:
        lines[2] = lines[2].replace('"test_acc": ', '"test_acc": NaN, "was": ')
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(checks.CheckError):
        check(clean_run, run_dir)


def test_trace_phases_add_up_and_count_every_step(clean_run, run_dir):
    cfg, _, _, _, tracer = clean_run
    runs = [i for i, n in enumerate(tracer.names) if n == "runner.run_one"]
    wall = tracer.ends[runs[0]] - tracer.starts[runs[0]]
    metrics = tracing.analyse(tracer, wall, cfg.divergence_cadence)["metrics"]
    phases = [v for k, v in metrics.items() if k.startswith("phase.")]
    assert sum(phases) == pytest.approx(wall, abs=1e-9)
    assert check(clean_run, run_dir)["steps"] == tracing.per_step_gradient_calls(tracer)


def test_faulty_aggregate_is_caught():
    server = fedsim.protocol.ServerState(global_params=np.zeros(5))
    deltas = {k: np.full(5, float(k)) for k in (3, 1, 2)}
    tracer, failures = tracing.Tracer(), []
    original = fedsim.protocol.aggregate
    tracer.patch(fedsim.protocol, "aggregate",
                 lambda s, d: original(s, {**d, 3: d[3] + 1e-9}))
    tracing.install_protocol_checks(fedsim, tracer, failures)
    try:
        fedsim.protocol.aggregate(server, deltas)
    finally:
        tracer.uninstall()
    assert failures and fedsim.protocol.aggregate is original


def test_per_layer_metrics_match_benchmark_json():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
