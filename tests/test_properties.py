"""Properties of the round loop and the config loader over drawn configs.

Each draw is a tiny run: a few dozen rows, one hidden layer, two or three
rounds. Hypothesis shrinks a failing draw to the smallest config that
still breaks the property.
"""
import dataclasses
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from fedsim import data as dat
from fedsim import nn, runner
from fedsim import protocol as proto


@st.composite
def tiny_configs(draw):
    num_clients = draw(st.integers(2, 8))
    # fedgps is rectified, so a round samples at least two clients
    rates = [r for r in (0.25, 0.4, 0.5, 0.75, 1.0) if round(r * num_clients) >= 2]
    num_classes = draw(st.integers(2, 4))
    partition = {"partition_kind": "dirichlet", "alpha": draw(st.floats(0.05, 10.0))}
    if draw(st.booleans()):
        partition = {"partition_kind": "cn",
                     "classes_per_client": draw(st.integers(1, num_classes))}
    return runner.ExperimentConfig(
        algo="fedavg", num_classes=num_classes, input_dim=draw(st.integers(2, 5)),
        n_per_class=30, num_clients=num_clients, sample_rate=draw(st.sampled_from(rates)),
        rounds=draw(st.integers(2, 3)), hidden=(draw(st.integers(2, 6)),),
        batch_size=draw(st.sampled_from([4, 16, 64, 256])),  # 256 exceeds every shard
        local_epochs=draw(st.integers(1, 2)), eta_l=draw(st.floats(0.001, 0.5)),
        eval_cadence=draw(st.integers(1, 3)), divergence_cadence=draw(st.integers(1, 3)),
        surrogate_n_per_class=4, scenario_seeds=(0,), training_seeds=(0,), **partition)


def outcome(config, scenario_seed):
    """The run's checkpoint bytes, accuracy series and divergence flag, or
    the partition error that stopped it (a draw can leave a shard empty)."""
    with tempfile.TemporaryDirectory() as tmp:
        try:
            run = runner.run_one(dataclasses.replace(config, out_dir=tmp), scenario_seed, 0)
        except dat.PartitionError as err:
            return repr(err)
        return ((Path(run.run_dir) / "checkpoint.bin").read_bytes(), run.accuracy_series,
                run.diverged)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(config=tiny_configs(), scenario_seed=st.integers(0, 3))
def test_fedgps_with_every_feature_off_is_fedavg(config, scenario_seed):
    # criterion 2 over drawn configs
    off = dataclasses.replace(config, algo="fedgps", lambda1=0.0, lambda2=0.0,
                              surrogate_ce=0.0, lambda_g=0.0)
    assert outcome(off, scenario_seed) == outcome(config, scenario_seed)


def artifacts(config, scenario_seed):
    """The numeric artifacts of a run in a fresh directory, `rounds.jsonl`
    without its wallclock field, or the partition error that stopped it."""
    with tempfile.TemporaryDirectory() as tmp:
        try:
            run = runner.run_one(dataclasses.replace(config, out_dir=tmp), scenario_seed, 0)
        except dat.PartitionError as err:
            return repr(err)
        run_dir = Path(run.run_dir)
        files = {name: (run_dir / name).read_bytes() for name in (
            "checkpoint.bin", "partition.jsonl", "checkpoint.meta.json")}
        rounds = [json.loads(line) for line in (run_dir / "rounds.jsonl").read_text().splitlines()]
        for record in rounds:
            del record["wallclock_ms"]
        return files, rounds


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(config=tiny_configs(), algo=st.sampled_from(runner.ALGORITHMS),
       scenario_seed=st.integers(0, 3))
def test_identical_configs_write_identical_artifacts(config, algo, scenario_seed):
    config = dataclasses.replace(config, algo=algo)
    assert artifacts(config, scenario_seed) == artifacts(config, scenario_seed)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(config=tiny_configs(), scenario_seed=st.integers(0, 3),
       lambda_g=st.sampled_from([0.2, 0.5, 2.0]), sign=st.sampled_from([1.0, -1.0]))
def test_fedgps_matches_fedgps_cf_with_the_sign_flipped(config, scenario_seed, lambda_g, sign):
    """fedgps at `nsg_sign = s` reaches fedgps_cf's θ at `-s` up to rounding
    that grows with the local steps taken one after another.

    Both non-self gradients are positive multiples of the other clients'
    summed deltas with opposite signs: fedgps sums those deltas, fedgps_cf
    takes the client's own share from the global change. Normalised, the
    two shifts agree to a few ulps of λ_g, more where the own share nearly
    cancels the change. Every local step takes its gradient at θ + shift,
    so it adds a fresh difference of that size, and carries the earlier
    ones forward, each grown by at most 1 + η_l·L; at these step sizes and
    run lengths that growth stays small. The difference is then bounded by
    the chain of sequential steps, rounds × epochs × the largest shard's
    steps per epoch, times a per-step allowance. 1e-12 of ‖θ‖∞ per step
    sits two orders of magnitude above the worst seen in a targeted search
    (about 30 ulps per step) and many orders below what a wrong vector
    (the sign not flipped, the own share kept) makes. Argmax accuracy
    does not see differences this small.
    """
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        try:
            for algo, nsg_sign in [("fedgps", sign), ("fedgps_cf", -sign)]:
                run = runner.run_one(dataclasses.replace(
                    config, algo=algo, nsg_sign=nsg_sign, lambda_g=lambda_g, out_dir=tmp),
                    scenario_seed, 0)
                theta = nn.load_checkpoint(Path(run.run_dir) / "checkpoint.bin").theta
                runs.append((theta, run.accuracy_series, run.diverged))
        except dat.PartitionError:
            return  # the partition fails the same way for both: it sees no algorithm
        shards = dat.Partition.load_jsonl(Path(run.run_dir) / "partition.jsonl").shards
    (gps, gps_series, gps_diverged), (cf, cf_series, cf_diverged) = runs
    assert (gps_series, gps_diverged) == (cf_series, cf_diverged)
    steps = config.rounds * config.local_epochs * max(
        -(-len(shard) // min(config.batch_size, len(shard))) for shard in shards)
    np.testing.assert_allclose(gps, cf, rtol=0, atol=1e-12 * steps * np.abs(cf).max())


def refuse(token):
    raise ValueError(f"not strict JSON: {token}")


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(config=tiny_configs(), algo=st.sampled_from(runner.ALGORITHMS),
       log_eta=st.floats(-3.0, 200.0), scenario_seed=st.integers(0, 3))
def test_any_step_size_finishes_with_strict_complete_logs(config, algo, log_eta, scenario_seed):
    """Up to eta_l = 1e200 a run returns, diverged or not, and every line of
    its rounds.jsonl is strict JSON. A run not flagged diverged logs every
    round, with a finite test accuracy on each evaluation round. The one
    exception allowed is the partitioner's, raised before round 0 when a
    draw leaves a shard empty."""
    config = dataclasses.replace(config, algo=algo, eta_l=10.0 ** log_eta)
    with tempfile.TemporaryDirectory() as tmp:
        try:
            run = runner.run_one(dataclasses.replace(config, out_dir=tmp), scenario_seed, 0)
        except dat.PartitionError:
            return
        lines = (Path(run.run_dir) / "rounds.jsonl").read_text().splitlines()
        records = [json.loads(line, parse_constant=refuse) for line in lines]
    if run.diverged:
        return
    assert [r["round"] for r in records] == list(range(config.rounds))
    evaluated = [(t + 1) % config.eval_cadence == 0 or t == config.rounds - 1
                 for t in range(config.rounds)]
    assert [r["test_acc"] is not None for r in records] == evaluated
    assert all(math.isfinite(r["test_acc"]) for r in records if r["test_acc"] is not None)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(config=tiny_configs(), algo=st.sampled_from(runner.ALGORITHMS),
       scenario_seed=st.integers(0, 3))
def test_client_state_is_built_at_first_selection(config, algo, scenario_seed):
    """Each client's state is built once, in the round that first selects
    it, in selection order (a diverged round builds a prefix of its own)."""
    selections, built = [], []
    sample, state = proto.sample_clients, proto.ClientState

    def sampling(*args, **kwargs):
        selections.append(sample(*args, **kwargs))
        return selections[-1]

    def building(*args, **kwargs):
        made = state(*args, **kwargs)
        built.append((len(selections) - 1, made.id))
        return made

    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(proto, "sample_clients", sampling), \
            mock.patch.object(proto, "ClientState", building):
        try:
            run = runner.run_one(dataclasses.replace(config, algo=algo, out_dir=tmp),
                                 scenario_seed, 0)
        except dat.PartitionError:
            return
    seen, expected = set(), []
    for t, selected in enumerate(selections):
        expected += [(t, k) for k in selected if k not in seen]
        seen.update(selected)
    assert built == (expected[:len(built)] if run.diverged else expected)


# (field, out-of-range value, what the error says about it)
BAD_VALUES = [
    ("eta_l", 0.0, "eta_l must be > 0"),
    ("eta_l", float("nan"), "eta_l must be finite"),
    ("momentum", 1.0, "momentum must be in [0, 1)"),
    ("momentum", -0.5, "momentum must be in [0, 1)"),
    ("prox_mu", -1.0, "prox_mu must be >= 0"),
    ("prox_mu", float("inf"), "prox_mu must be finite"),
    ("fedavgm_beta", 1.5, "fedavgm_beta must be in [0, 1)"),
    ("lambda1", -0.1, "lambda weights must be >= 0"),
    ("nsg_sign", 0.5, "nsg_sign must be +1 or -1"),
    ("sample_rate", 0.0, "sample_rate must be in (0, 1]"),
    ("sample_rate", 1.5, "sample_rate must be in (0, 1]"),
    ("rounds", 0, "rounds must be >= 1"),
    ("eval_cadence", 0, "cadences must be >= 1"),
    ("alpha", -2.0, "alpha must be > 0"),
    ("test_fraction", 1.0, "test_fraction must be in (0, 1)"),
    ("noise_std", -1.0, "noise_std must be >= 0"),
    ("surrogate_std", -1.0, "surrogate_std must be >= 0"),
    ("surrogate_n_per_class", 0, "surrogate_n_per_class must be >= 1"),
    ("workers", 0, "workers must be >= 1"),
    ("data_seed", -1, "data_seed must be >= 0"),
    ("eta_g", 0.0, "eta_g must be > 0"),
    ("eta_g", -1.0, "eta_g must be > 0"),
    ("scenario_seeds", "0,0", "scenario_seeds must not repeat a seed"),
    ("training_seeds", "1 1", "training_seeds must not repeat a seed"),
]


@settings(max_examples=60, deadline=None)
@given(bad=st.lists(st.sampled_from(BAD_VALUES), min_size=1, max_size=8,
                    unique_by=lambda case: case[0]))
def test_load_config_names_every_out_of_range_value(bad):
    # passed as flag strings, so each value is parsed as its field's type first
    with pytest.raises(runner.ConfigError) as err:
        runner.load_config(overrides={name: str(value) for name, value, _ in bad})
    missing = [said for _, _, said in bad if said not in str(err.value)]
    assert not missing, str(err.value)
