"""The traced benchmark mode wraps fedsim functions by name and silently
skips a name that no longer exists, so a rename would make its phase
split read 0 without failing. Every name it relies on must resolve,
including the two sweeps whose self time it counts as artifacts time.

Its correctness check also counts one gradient call per local step: a
`rectified_gradient` call, or a `ce_loss_and_grad` call made directly by a
trainer. A local step that reaches neither name fails the traced run."""
import json
import math
import sys
from pathlib import Path
from unittest import mock

import pytest

import fedsim
from fedsim import algorithms as alg, runner

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "fedbench"))
import tracing  # noqa: E402

NAMES = sorted({name for members in tracing.PHASES.values() for name in members}
               | {"runner.run_one", "runner.run", "runner.compare", "protocol.sample_clients"})
TRAINERS = sorted({name.split(".")[1] for name in tracing.PHASES["local_train"]})


@pytest.mark.parametrize("name", NAMES)
def test_traced_name_resolves(name):
    module, attr = name.split(".")
    assert callable(getattr(getattr(fedsim, module), attr))


@pytest.mark.parametrize("algo", runner.ALGORITHMS)
def test_one_traced_step_gradient_per_local_step(tmp_path, algo):
    cfg = runner.ExperimentConfig(
        algo=algo, num_classes=3, input_dim=4, n_per_class=20, hidden=(8, 4), rounds=3,
        num_clients=4, sample_rate=0.5, alpha=0.5, batch_size=8, local_epochs=2,
        surrogate_n_per_class=8, scenario_seeds=(0,), training_seeds=(0,),
        out_dir=str(tmp_path))
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
    assert set(counted) == ({"rectified_gradient"} if algo in runner.RECTIFIED
                            else {"ce_loss_and_grad"})
