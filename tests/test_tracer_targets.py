"""The traced benchmark mode wraps fedsim functions by name and silently
skips a name that no longer exists, so a rename would make its phase
split read 0 without failing. Every name it relies on must resolve,
including the two sweeps whose self time it counts as artifacts time.

Its correctness check also counts one gradient call per local step: a
`rectified_gradient` call, or a `ce_loss_and_grad` call made directly by a
trainer. A local step that reaches neither name fails the traced run.
Every trainer's step goes through `rectified_gradient`.

Its phase split credits a trainer or server rule's span only if `run_one`
looks the function up on its module at each call, so each algorithm must
reach its own trainer and server rule through those names.

Its microbenchmarks call the model and layer API directly (`init_mlp`,
`forward`, `backward`, `unflatten_like`, the gradients, prototypes and
`runner.accuracy`), so a change to that API must keep them running."""
import contextlib
import json
import math
import sys
from pathlib import Path
from unittest import mock

import pytest

import fedsim
from fedsim import algorithms as alg, runner

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "fedbench"))
import run as fedbench_run  # noqa: E402
import tracing  # noqa: E402

NAMES = sorted({name for members in tracing.PHASES.values() for name in members}
               | {"runner.run_one", "runner.run", "runner.compare", "protocol.sample_clients"})
TRAINERS = sorted({name.split(".")[1] for name in tracing.PHASES["local_train"]})


def tiny_config(algo, tmp_path):
    return runner.ExperimentConfig(
        algo=algo, num_classes=3, input_dim=4, n_per_class=20, hidden=(8, 4), rounds=3,
        num_clients=4, sample_rate=0.5, alpha=0.5, batch_size=8, local_epochs=2,
        surrogate_n_per_class=8, scenario_seeds=(0,), training_seeds=(0,),
        out_dir=str(tmp_path))


@pytest.mark.parametrize("name", NAMES)
def test_traced_name_resolves(name):
    module, attr = name.split(".")
    assert callable(getattr(getattr(fedsim, module), attr))


@pytest.mark.parametrize("algo", runner.ALGORITHMS)
def test_one_traced_step_gradient_per_local_step(tmp_path, algo):
    cfg = tiny_config(algo, tmp_path)
    stack, counted = [], []

    def wrap(name, fn):
        def counting(*args, **kwargs):
            if name == "rectified_gradient" or (name == "ce_loss_and_grad" and stack
                                                and stack[-1] in TRAINERS):
                counted.append(name)
            stack.append(name)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
        return counting

    names = TRAINERS + ["ce_loss_and_grad", "rectified_gradient"]
    with mock.patch.multiple(alg, **{n: wrap(n, getattr(alg, n)) for n in names}):
        result = runner.run_one(cfg, 0, 0)
    assert not result.diverged
    run_dir = Path(result.run_dir)
    sizes = [len(json.loads(line)["indices"]) for line in open(run_dir / "partition.jsonl")]
    selected = [json.loads(line)["selected"] for line in open(run_dir / "rounds.jsonl")]
    expected = sum(cfg.local_epochs * math.ceil(sizes[k] / min(cfg.batch_size, sizes[k]))
                   for ks in selected for k in ks)
    assert len(selected) == cfg.rounds and expected > 0
    assert len(counted) == expected
    assert set(counted) == {"rectified_gradient"}


@pytest.mark.parametrize("algo", runner.ALGORITHMS)
def test_each_algorithm_calls_its_trainer_and_server_rule_by_name(tmp_path, algo):
    trainer = {"fedprox": "fedprox_local_train", "scaffold": "scaffold_local_train",
               "fedgps": "fedgps_local_train", "fedgps_cf": "fedgps_local_train"}.get(
        algo, "fedavg_local_train")
    server_rule = "algorithms.fedavgm_server_update" if algo == "fedavgm" else "protocol.aggregate"
    names = tracing.PHASES["local_train"] | {"protocol.aggregate",
                                             "algorithms.fedavgm_server_update"}
    with contextlib.ExitStack() as patches:
        spies = {}
        for name in names:
            module, attr = name.split(".")
            target = getattr(fedsim, module)
            spies[name] = patches.enter_context(
                mock.patch.object(target, attr, wraps=getattr(target, attr)))
        result = runner.run_one(tiny_config(algo, tmp_path), 0, 0)
    rounds = (Path(result.run_dir) / "rounds.jsonl").read_text().splitlines()
    selected = [json.loads(line)["selected"] for line in rounds]
    want = dict.fromkeys(names, 0)
    want[f"algorithms.{trainer}"] = sum(map(len, selected))
    want[server_rule] += len(selected)
    assert {name: spy.call_count for name, spy in spies.items()} == want


def test_microbenchmarks_pass_their_checks(tmp_path):
    # the fewest rows that leave the 32-row batches they draw: 48 train, 36 surrogate
    workload = fedbench_run.Workload(("fedgps",), dict(
        num_classes=3, input_dim=4, n_per_class=20, hidden=(8, 4), num_clients=4,
        surrogate_n_per_class=12), 1)
    inputs = fedbench_run.build_inputs(fedsim, workload, 0, tmp_path)
    failures = []
    metrics = tracing.microbenchmarks(fedsim, inputs, failures)
    assert failures == []
    assert metrics and all(math.isfinite(v) and v > 0 for v in metrics.values()), metrics
