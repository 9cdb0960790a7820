"""Experiment orchestration: config parsing/validation, deterministic
seed streams, the federated round loop, persistence, and sweeps across
heterogeneity and training seeds.

Determinism contract: identical configs (seeds included) produce byte-
identical numeric artifacts; only wallclock fields vary. One master seed
per concern fans out through named `SeedSequence` keys, so toggling one
component (say, the algorithm) never perturbs another's stream.

A run lays out its constants once. `run_one` splits the dataset where it
builds it, so only the train and test sets reach the rounds. The
surrogate keeps its class indicator from first use. Every pass of a run,
a local step, a prototype forward or test accuracy, runs on the template's
one kernel, which grows only when a pass needs more rows; each hands it
plain features, and the kernel adds the ones column.
The round loop computes each distinct rectification shift once
(`_round_shift`) and hands the FedGPS trainer the shift itself. A round
leaves its state in the `ServerState` (FedAvgM's `velocity` and
SCAFFOLD's `control`, each made only for its algorithm), the
`ClientState`s (SCAFFOLD's c_k, which its trainer updates) and its
record, which the accuracy series is read from. A trainer's
`DivergedError` ends the loop, and the run records the round and the
client it was training as `RunResult.diverged_at`, which the run's
`checkpoint.meta.json` keeps and `scan_results` reads back.
The algorithm's `protocol.ALGORITHMS` record sets the participant floor
and the rectified trainer; trainers and server rules are
looked up on their modules at call time.
"""
from __future__ import annotations

import configparser
import hashlib
import json
import math
import os
import time
import zlib
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import algorithms as alg
from . import data as dat
from . import eval as ev
from . import nn
from . import protocol as proto

ALGORITHMS = tuple(proto.ALGORITHMS)
ENV_OUTPUT_ROOT = "FEDSIM_OUT_ROOT"


class ConfigError(ValueError):
    """Raised with every validation violation listed at once."""


@dataclass
class ExperimentConfig(alg.FedGpsHyper):
    """One experiment's settings; the local-training fields come first,
    declared with their defaults once, on `FedGpsHyper`."""

    # dataset
    dataset_kind: str = "blobs"
    num_classes: int = 10
    input_dim: int = 16
    n_per_class: int = 500
    separation: float = 1.0
    noise_std: float = 1.0
    data_seed: int = 7
    images_path: str = ""
    labels_path: str = ""
    csv_path: str = ""
    test_fraction: float = 0.2
    # federation
    num_clients: int = 10
    sample_rate: float = 0.5
    rounds: int = 150
    partition_kind: str = "dirichlet"
    alpha: float = 0.1
    classes_per_client: int = 2
    scenario_seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    training_seeds: tuple[int, ...] = (0,)
    # algorithm, beside the local-training fields
    algo: str = "fedgps"
    eta_g: float = 1.0
    fedavgm_beta: float = 0.9
    # surrogate
    surrogate_n_per_class: int = 64
    surrogate_mean_scale: float = 3.0
    surrogate_std: float = 1.0
    surrogate_seed: int = 11
    # model / bookkeeping
    hidden: tuple[int, ...] = (64, 32)
    eval_cadence: int = 1
    divergence_cadence: int = 5
    out_dir: str = "runs"
    workers: int = 1

    def __post_init__(self):
        """No check on construction: `validate` reports every problem at once."""

    def hyper(self) -> alg.FedGpsHyper:
        return alg.FedGpsHyper(**{f.name: getattr(self, f.name) for f in fields(alg.FedGpsHyper)})

    def validate(self) -> None:
        problems = []
        if self.dataset_kind not in ("blobs", "idx", "csv"):
            problems.append(f"dataset_kind must be blobs/idx/csv, got {self.dataset_kind!r}")
        if self.dataset_kind == "idx":
            for p in (self.images_path, self.labels_path):
                if not p or not Path(p).exists():
                    problems.append(f"idx file not found: {p!r}")
        if self.dataset_kind == "csv" and (not self.csv_path or not Path(self.csv_path).exists()):
            problems.append(f"csv file not found: {self.csv_path!r}")
        if self.dataset_kind == "blobs":
            problems += dat.blob_problems(self.num_classes, self.input_dim, self.n_per_class,
                                          self.noise_std)
        problems += dat.split_problems(self.test_fraction)
        if self.num_clients < 2:
            problems.append("num_clients must be >= 2")
        if not 0 < self.sample_rate <= 1:
            problems.append("sample_rate must be in (0, 1]")
        if self.eta_g <= 0:
            problems.append("eta_g must be > 0")
        if self.rounds < 1:
            problems.append("rounds must be >= 1")
        if self.eval_cadence < 1 or self.divergence_cadence < 1:
            problems.append("cadences must be >= 1")
        problems += alg.hyper_problems(self)
        if not 0 <= self.fedavgm_beta < 1:
            problems.append("fedavgm_beta must be in [0, 1)")
        if self.partition_kind not in ("dirichlet", "cn"):
            problems.append(f"partition_kind must be dirichlet/cn, got {self.partition_kind!r}")
        if self.partition_kind == "dirichlet":
            problems += dat.dirichlet_problems(self.alpha)
        if self.partition_kind == "cn":
            # a file's class count is known once it is read; the partitioner checks it there
            known = self.num_classes if self.dataset_kind == "blobs" else None
            problems += dat.cn_problems(self.classes_per_client, self.num_clients, known)
        if not self.scenario_seeds or not self.training_seeds:
            problems.append("scenario_seeds and training_seeds must be non-empty")
        seeds = {"data_seed": [self.data_seed], "surrogate_seed": [self.surrogate_seed],
                 "scenario_seeds": self.scenario_seeds, "training_seeds": self.training_seeds}
        problems += [f"{name} must be >= 0" for name, v in seeds.items() if min(v, default=0) < 0]
        problems += [f"{name} must not repeat a seed" for name, v in seeds.items()
                     if len(set(v)) < len(v)]
        rule = proto.ALGORITHMS.get(self.algo)
        if rule is None:
            problems.append(f"algo must be one of {ALGORITHMS}, got {self.algo!r}")
        elif rule.rectified and round(self.sample_rate * self.num_clients) < 2:
            problems.append("path rectification needs at least 2 sampled clients per round")
        problems += dat.surrogate_problems(self.surrogate_n_per_class, self.surrogate_std,
                                           names=("surrogate_n_per_class", "surrogate_std"))
        if not self.hidden or min(self.hidden) < 1:
            problems.append("hidden must list one or more widths, each >= 1")
        if self.workers < 1:
            problems.append("workers must be >= 1")
        if problems:
            raise ConfigError("invalid config:\n  - " + "\n  - ".join(problems))


def _parse_value(name: str, raw: str, target_type):
    """A flag or INI value as its field's type; tuples of integers split at commas or spaces."""
    try:
        if target_type is tuple:
            return tuple(int(v) for v in raw.replace(",", " ").split())
        return target_type(raw)
    except ValueError:
        kind = "integers" if target_type is tuple else target_type.__name__
        raise ConfigError(f"cannot parse {name} = {raw!r} as {kind}") from None


def load_config(path=None, overrides: dict | None = None) -> ExperimentConfig:
    """Build a config from an INI-style file plus overrides (flags win)."""
    cfg = ExperimentConfig()
    types = {f.name: type(getattr(cfg, f.name)) for f in fields(cfg)}
    values = {}
    if path is not None:
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ConfigError(f"config file not found: {path}")
        for section in parser.sections():
            for key, raw in parser.items(section):
                if key not in types:
                    raise ConfigError(f"unknown config key: [{section}] {key}")
                values[key] = _parse_value(key, raw, types[key])
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if key not in types:
            raise ConfigError(f"unknown config key: {key}")
        if isinstance(val, str):
            val = _parse_value(key, val, types[key])
        values[key] = val
    cfg = replace(cfg, **values)
    cfg.validate()
    return cfg


def config_sha1(config: ExperimentConfig) -> str:
    blob = json.dumps(asdict(config), sort_keys=True).encode()
    return hashlib.sha1(blob).hexdigest()


def stream(master_seed: int, name: str, *key: int) -> np.random.Generator:
    """Named RNG stream: a keyed split of the master seed."""
    ident = zlib.crc32(name.encode())
    return np.random.default_rng(np.random.SeedSequence([int(master_seed), ident, *map(int, key)]))


def build_dataset(config: ExperimentConfig) -> dat.LabeledDataset:
    if config.dataset_kind == "blobs":
        return dat.gen_blobs(config.num_classes, config.input_dim, config.n_per_class,
                             config.separation, config.noise_std, config.data_seed)
    if config.dataset_kind == "idx":
        return dat.load_idx(config.images_path, config.labels_path)
    return dat.load_csv(config.csv_path)


def build_partition(config: ExperimentConfig, labels, scenario_seed: int) -> dat.Partition:
    rng_seed = int(stream(scenario_seed, "partition").integers(2 ** 31))
    if config.partition_kind == "dirichlet":
        return dat.dirichlet_partition(labels, config.num_clients, config.alpha, rng_seed)
    return dat.cn_partition(labels, config.num_clients, config.classes_per_client, rng_seed)


def accuracy(template: nn.MlpModel, theta: np.ndarray, dataset: dat.LabeledDataset) -> float:
    """Accuracy of theta on the dataset, on the template's shared kernel."""
    kernel = template.shared_kernel(len(dataset))
    logits = kernel.forward(nn.unflatten_like(template, theta), dataset.features).logits
    return float(np.mean(logits.argmax(axis=1) == dataset.labels))


@dataclass
class RunResult:
    algo: str
    scenario_seed: int
    training_seed: int
    accuracy_series: list
    run_dir: str
    diverged_at: tuple[int, int] | None = None  # (round, client) whose training raised

    @property
    def diverged(self) -> bool:
        return self.diverged_at is not None

    @property
    def best_acc(self) -> float:
        return max((a for a in self.accuracy_series if a is not None), default=0.0)

    @property
    def final_acc(self) -> float:
        return next((a for a in reversed(self.accuracy_series) if a is not None), 0.0)

    def dense_series(self, length: int = 0) -> list[float]:
        """Accuracy series with off-cadence gaps carried forward, padded to
        `length` with its last value (0.0 when it has none)."""
        out, last = [], 0.0
        for a in self.accuracy_series:
            if a is not None:
                last = a
            out.append(last)
        return out + [last] * (length - len(out))


def _round_shift(config: ExperimentConfig, server: proto.ServerState,
                 client: proto.ClientState, shared: dict) -> np.ndarray | None:
    """The shift `client` steps at this round, `rectification_shift` of
    nsg_sign times its non-self gradient, or None while there is none.
    The vector is `protocol.non_self_gradient` for `fedgps` and
    `protocol.non_self_gradient_cf` for `fedgps_cf`. Every client that sat
    out the last round gets one shift, from all of the last round's deltas
    or the whole global change, computed for the first of them and kept in
    the round's `shared`. Counted as hits times the cost of a miss, sharing
    it saves about 1% of a desk fedgps run and 7-9% of a 100-client run,
    where most of a round's clients sat out the last.
    """
    absent = client.id not in server.prev_deltas
    if server.prev_global_delta is None:
        return None
    if absent and "absent" in shared:
        return shared["absent"]
    if config.algo == "fedgps":
        nsg = proto.non_self_gradient(server, client.id, config.eta_g, config.eta_l)
    else:
        nsg = proto.non_self_gradient_cf(server, client.id, config.eta_g)
    shift = alg.rectification_shift(config.nsg_sign * nsg, config.lambda_g)
    if absent:
        shared["absent"] = shift
    return shift


@np.errstate(over="ignore", invalid="ignore")
def run_one(config: ExperimentConfig, scenario_seed: int, training_seed: int,
            write_artifacts: bool = True) -> RunResult:
    """One (scenario seed, training seed) unit: T rounds of config.algo.
    Non-finite values raise no numpy warnings: a training loss that goes
    non-finite ends the run, which records the round and the client whose
    trainer raised as `diverged_at`."""
    split_seed = int(stream(config.data_seed, "split").integers(2 ** 31))
    train, test = dat.stratified_split(build_dataset(config), config.test_fraction, split_seed)
    partition = build_partition(config, train.labels, scenario_seed)

    surr_spec = dat.make_surrogate_spec(
        train.num_classes, train.input_dim, config.surrogate_seed,
        mean_scale=config.surrogate_mean_scale, class_std=config.surrogate_std,
        n_per_class=config.surrogate_n_per_class)
    surrogate = dat.gen_surrogate(surr_spec)

    rule = proto.ALGORITHMS[config.algo]
    template = nn.init_mlp(train.input_dim, tuple(config.hidden), train.num_classes,
                           stream(training_seed, "init"))
    theta = nn.flatten(template)
    server = proto.ServerState(
        global_params=theta, eta_g=config.eta_g,
        global_prototypes=np.zeros((train.num_classes, template.embed_dim)),
        velocity=np.zeros_like(theta) if config.algo == "fedavgm" else None,
        control=np.zeros_like(theta) if config.algo == "scaffold" else None)
    # Per-client state starts at a client's first selection, so memory
    # follows the clients sampled so far, not all K: its streams are keyed
    # by client id and so begin the same whenever they are made.
    clients: dict[int, proto.ClientState] = {}
    selection_rng = stream(training_seed, "selection")
    hyper = config.hyper()
    meter = proto.CommMeter()

    records = []
    diverged_at = None
    run_dir = Path(_output_root(config)) / f"{config.algo}_s{scenario_seed}_t{training_seed}"

    for t in range(config.rounds):
        tic = time.perf_counter()
        selected = proto.sample_clients(config.num_clients, config.sample_rate,
                                        selection_rng, min_size=2 if rule.rectified else 1)
        deltas: dict[int, np.ndarray] = {}
        uploads: dict[int, np.ndarray] = {}
        control_changes: dict[int, np.ndarray] = {}
        shared_shift = {}  # the round's shift of the clients absent last round
        try:
            for k in selected:
                if k not in clients:
                    clients[k] = proto.ClientState(
                        id=k, shard=partition.shards[k],
                        data_rng=stream(training_seed, "client-data", k),
                        surrogate_rng=stream(training_seed, "client-surrogate", k),
                        control=None if server.control is None
                        else np.zeros_like(server.control))
                client = clients[k]
                if rule.rectified:
                    shift = _round_shift(config, server, client, shared_shift)
                    deltas[k], protos = alg.fedgps_local_train(
                        client, template, server.global_params, shift, train, surrogate,
                        server.global_prototypes, hyper)
                    uploads[k] = proto.upload_prototypes(server, k, protos)
                elif config.algo == "fedprox":
                    deltas[k] = alg.fedprox_local_train(client, template, server.global_params,
                                                        train, hyper)
                elif config.algo == "scaffold":
                    deltas[k], control_changes[k] = alg.scaffold_local_train(
                        client, template, server.global_params, train, hyper, server.control)
                else:  # fedavg, fedavgm
                    deltas[k] = alg.fedavg_local_train(client, template, server.global_params,
                                                       train, hyper)
        except alg.DivergedError:
            diverged_at = (t, k)
            break

        if config.algo == "fedavgm":
            alg.fedavgm_server_update(server, deltas, beta=config.fedavgm_beta)
        else:
            proto.aggregate(server, deltas)
        if control_changes:  # scaffold: c <- c + (sum of the clients' changes) / K
            server.control += proto.ordered_sum(control_changes) / config.num_clients
        if uploads:
            proto.aggregate_prototypes(server, uploads)

        down, up = proto.meter_round(meter, config.algo, template.num_params,
                                     train.num_classes, template.embed_dim)
        test_acc = None
        if (t + 1) % config.eval_cadence == 0 or t == config.rounds - 1:
            test_acc = accuracy(template, server.global_params, test)

        record = {"round": t, "selected": selected, "test_acc": test_acc,
                  "comm_down": down, "comm_up": up, "divergence": None}
        if uploads and (t + 1) % config.divergence_cadence == 0:
            record["divergence"] = float(np.mean(
                [ev.prototype_divergence(uploads[k], server.global_prototypes) for k in selected]))
        record["wallclock_ms"] = (time.perf_counter() - tic) * 1000.0
        records.append(record)

    result = RunResult(
        algo=config.algo, scenario_seed=scenario_seed, training_seed=training_seed,
        accuracy_series=[rec["test_acc"] for rec in records], run_dir=str(run_dir),
        diverged_at=diverged_at)

    if write_artifacts:
        run_dir.mkdir(parents=True, exist_ok=True)
        with open(run_dir / "rounds.jsonl", "w") as fh:
            for rec in records:
                fh.write(_json_line(rec) + "\n")
        echo = asdict(config)
        echo["scenario_seed"] = scenario_seed
        echo["training_seed"] = training_seed
        with open(run_dir / "config.json", "w") as fh:
            json.dump(echo, fh, indent=2, sort_keys=True)
        (run_dir / "config.sha1").write_text(config_sha1(config) + "\n")
        partition.save_jsonl(run_dir / "partition.jsonl")
        nn.save_checkpoint(run_dir / "checkpoint.bin",
                           nn.unflatten_like(template, server.global_params))
        sidecar = {"round": server.round, "eta_g": server.eta_g,
                   "prev_selected": list(server.prev_selected),
                   "algo": config.algo, "best_acc": result.best_acc,
                   "final_acc": result.final_acc, "diverged": result.diverged,
                   "diverged_at": diverged_at,
                   "total_down": meter.total_down, "total_up": meter.total_up}
        with open(run_dir / "checkpoint.meta.json", "w") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)
    return result


def _json_line(record: dict) -> str:
    """`record` as one line of strict JSON: a non-finite float, which a
    diverging run can log, is written as null."""
    return json.dumps({k: None if isinstance(v, float) and not math.isfinite(v) else v
                       for k, v in record.items()}, sort_keys=True)


def _output_root(config: ExperimentConfig) -> Path:
    root = os.environ.get(ENV_OUTPUT_ROOT)
    if root:
        return Path(root) / config.out_dir
    return Path(config.out_dir)


def run(config: ExperimentConfig) -> list[RunResult]:
    """All (scenario seed x training seed) units for config.algo."""
    return compare(config, [config.algo])[config.algo]


def compare(config: ExperimentConfig, algos: list[str]) -> dict[str, list[RunResult]]:
    """Run several algorithms under identical data/partition/seed streams:
    every (algo x scenario seed x training seed) unit, through one worker
    pool when config.workers > 1, then one sweep summary over them all."""
    configs = [replace(config, algo=algo) for algo in algos]
    for cfg in configs:
        cfg.validate()
    units = [(cfg, ss, ts) for cfg in configs
             for ss in config.scenario_seeds for ts in config.training_seeds]
    if config.workers > 1 and len(units) > 1:
        from concurrent.futures import ProcessPoolExecutor  # 2 MB of imports a serial run skips
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(run_one, *zip(*units)))
    else:
        results = [run_one(*unit) for unit in units]
    out = {algo: [r for r in results if r.algo == algo] for algo in algos}
    _write_sweep_summary(config, out)
    return out


def results_to_scenarios(results_by_algo: dict[str, list[RunResult]]) -> list[ev.ScenarioResult]:
    """Collapse run results into per-scenario ACC/ROUND/SpeedUp records.

    Multiple training seeds per scenario are averaged pointwise first.
    A run that diverged early has a shorter series: each series is padded
    to the longest one (at least 1 round) with its last value.
    """
    length = max([1] + [len(r.accuracy_series) for rs in results_by_algo.values() for r in rs])
    scenarios = sorted({r.scenario_seed for rs in results_by_algo.values() for r in rs})
    out = []
    for ss in scenarios:
        series_by_algo = {}
        for algo, rs in results_by_algo.items():
            matched = [r.dense_series(length) for r in rs if r.scenario_seed == ss]
            if matched:
                series_by_algo[algo] = np.mean(np.array(matched), axis=0).tolist()
        out.append(ev.build_scenario_result(f"scenario{ss}", series_by_algo))
    return out


def _write_sweep_summary(config: ExperimentConfig, results_by_algo) -> None:
    root = _output_root(config)
    root.mkdir(parents=True, exist_ok=True)
    scenarios = results_to_scenarios(results_by_algo)
    ev.write_summary_csv(root / "summary.csv", scenarios)
    ranks, _ = ev.rank_matrix(scenarios)
    if ranks.num_algorithms >= 2 and ranks.num_scenarios >= 2:
        ev.write_nemenyi_csv(root / "nemenyi.csv", ranks)


def scan_results(root) -> dict[str, list[RunResult]]:
    """Rebuild RunResults from run directories under `root` (for the
    summarize/nemenyi subcommands): the series from `rounds.jsonl`, the
    round and client a run diverged at from `checkpoint.meta.json`."""
    root = Path(root)
    out: dict[str, list[RunResult]] = {}
    for cfg_path in sorted(root.glob("*/config.json")):
        run_dir = cfg_path.parent
        with open(cfg_path) as fh:
            echo = json.load(fh)
        series = []
        with open(run_dir / "rounds.jsonl") as fh:
            for line in fh:
                series.append(json.loads(line)["test_acc"])
        with open(run_dir / "checkpoint.meta.json") as fh:
            # a sidecar written before the key existed reads as not diverged
            diverged_at = json.load(fh).get("diverged_at")
        result = RunResult(
            algo=echo["algo"], scenario_seed=echo["scenario_seed"],
            training_seed=echo["training_seed"], accuracy_series=series,
            run_dir=str(run_dir), diverged_at=tuple(diverged_at) if diverged_at else None)
        out.setdefault(echo["algo"], []).append(result)
    return out
