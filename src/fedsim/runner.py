"""Experiment orchestration: config parsing/validation, deterministic
seed streams, the federated round loop, persistence, and sweeps across
heterogeneity and training seeds.

Determinism contract: identical configs (seeds included) produce byte-
identical numeric artifacts; only wallclock fields vary. One master seed
per concern fans out through named `SeedSequence` keys, so toggling one
component (say, the algorithm) never perturbs another's stream.
"""
from __future__ import annotations

import configparser
import hashlib
import json
import os
import time
import zlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from . import algorithms as alg
from . import data as dat
from . import eval as ev
from . import nn
from . import protocol as proto

ALGORITHMS = ("fedavg", "fedavgm", "fedprox", "scaffold", "fedgps", "fedgps_cf")
# Path rectification: local training needs a non-self gradient, so each
# round needs at least two participants.
RECTIFIED = ("fedgps", "fedgps_cf")
ENV_OUTPUT_ROOT = "FEDSIM_OUT_ROOT"


class ConfigError(ValueError):
    """Raised with every validation violation listed at once."""


@dataclass
class ExperimentConfig:
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
    local_epochs: int = 1
    batch_size: int = 32
    partition_kind: str = "dirichlet"
    alpha: float = 0.1
    classes_per_client: int = 2
    scenario_seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    training_seeds: tuple[int, ...] = (0,)
    # algorithm
    algo: str = "fedgps"
    eta_g: float = 1.0
    eta_l: float = 0.01
    momentum: float = 0.9
    lambda1: float = 0.1
    lambda2: float = 0.2
    lambda3: float = 1e-5
    lambda_g: float = 0.5
    surrogate_ce: float = 1.0
    nsg_sign: float = 1.0
    prox_mu: float = 0.125
    fedavgm_beta: float = 0.9
    prototype_agg: str = "mean"
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

    def hyper(self) -> alg.FedGpsHyper:
        return alg.FedGpsHyper(
            lambda1=self.lambda1, lambda2=self.lambda2, lambda3=self.lambda3,
            lambda_g=self.lambda_g, eta_l=self.eta_l, momentum=self.momentum,
            local_epochs=self.local_epochs, batch_size=self.batch_size,
            surrogate_ce=self.surrogate_ce, nsg_sign=self.nsg_sign,
            prox_mu=self.prox_mu)

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
            if min(self.num_classes, self.input_dim, self.n_per_class) < 1:
                problems.append("blob counts must be >= 1")
            if self.noise_std < 0:
                problems.append("noise_std must be >= 0")
        if not 0 < self.test_fraction < 1:
            problems.append("test_fraction must be in (0, 1)")
        if self.num_clients < 2:
            problems.append("num_clients must be >= 2")
        if not 0 < self.sample_rate <= 1:
            problems.append("sample_rate must be in (0, 1]")
        if self.rounds < 1:
            problems.append("rounds must be >= 1")
        if self.eval_cadence < 1 or self.divergence_cadence < 1:
            problems.append("cadences must be >= 1")
        if self.local_epochs < 1 or self.batch_size < 1:
            problems.append("local_epochs and batch_size must be >= 1")
        if self.partition_kind not in ("dirichlet", "cn"):
            problems.append(f"partition_kind must be dirichlet/cn, got {self.partition_kind!r}")
        if self.partition_kind == "dirichlet" and self.alpha <= 0:
            problems.append("alpha must be > 0")
        if self.partition_kind == "cn" and not 1 <= self.classes_per_client <= self.num_classes:
            problems.append("classes_per_client must be in [1, num_classes]")
        if not self.scenario_seeds or not self.training_seeds:
            problems.append("scenario_seeds and training_seeds must be non-empty")
        if self.algo not in ALGORITHMS:
            problems.append(f"algo must be one of {ALGORITHMS}, got {self.algo!r}")
        if self.algo in RECTIFIED and round(self.sample_rate * self.num_clients) < 2:
            problems.append("path rectification needs at least 2 sampled clients per round")
        if min(self.lambda1, self.lambda2, self.lambda3, self.lambda_g) < 0:
            problems.append("lambda weights must be >= 0")
        if self.eta_l <= 0:
            problems.append("eta_l must be > 0")
        if self.nsg_sign not in (1.0, -1.0, 1, -1):
            problems.append("nsg_sign must be +1 or -1")
        if self.prototype_agg not in ("mean", "sum"):
            problems.append("prototype_agg must be mean or sum")
        if self.surrogate_n_per_class < 1:
            problems.append("surrogate_n_per_class must be >= 1")
        if self.surrogate_std < 0:
            problems.append("surrogate_std must be >= 0")
        if not self.hidden:
            problems.append("hidden layer list must be non-empty")
        if self.workers < 1:
            problems.append("workers must be >= 1")
        if problems:
            raise ConfigError("invalid config:\n  - " + "\n  - ".join(problems))


_LIST_FIELDS = {"scenario_seeds", "training_seeds", "hidden"}


def _parse_value(name: str, raw: str, target_type):
    if name in _LIST_FIELDS:
        return tuple(int(v) for v in raw.replace(",", " ").split())
    if target_type is bool:
        return raw.strip().lower() in ("1", "true", "yes", "on")
    return target_type(raw)


def load_config(path=None, overrides: dict | None = None) -> ExperimentConfig:
    """Build a config from an INI-style file plus overrides (flags win)."""
    cfg = ExperimentConfig()
    fields = {f.name: type(getattr(cfg, f.name)) for f in cfg.__dataclass_fields__.values()}
    values = {}
    if path is not None:
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ConfigError(f"config file not found: {path}")
        for section in parser.sections():
            for key, raw in parser.items(section):
                if key not in fields:
                    raise ConfigError(f"unknown config key: [{section}] {key}")
                values[key] = _parse_value(key, raw, fields[key])
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if key not in fields:
            raise ConfigError(f"unknown config key: {key}")
        if isinstance(val, str):
            val = _parse_value(key, val, fields[key])
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
    model = nn.unflatten_like(template, theta)
    with np.errstate(over="ignore", invalid="ignore"):  # divergence is DivergedError's to report
        trace = nn.forward(model, dataset.features)
    return float(np.mean(trace.logits.argmax(axis=1) == dataset.labels))


@dataclass
class RunResult:
    algo: str
    scenario_seed: int
    training_seed: int
    accuracy_series: list
    best_acc: float
    final_acc: float
    run_dir: str
    diverged: bool = False

    def dense_series(self) -> list[float]:
        """Accuracy series with off-cadence gaps carried forward."""
        out, last = [], 0.0
        for a in self.accuracy_series:
            if a is not None:
                last = a
            out.append(last)
        return out


def _triangle_fields(template, server, selected, client_end_params, uploads,
                     train, partition, probe: dat.LabeledDataset) -> dict:
    """Empirical transport-bound monitor: checks whether the global
    features' distance to the global prototypes is covered by the two
    alignment stages plus the measured extractor discrepancy. `uploads`
    holds the prototype sets the clients uploaded this round."""
    global_model = nn.unflatten_like(template, server.global_params)
    probe_trace = nn.forward(global_model, probe.features)
    g_means, g_counts = alg._class_means(probe_trace.embeddings, probe.labels,
                                         probe.num_classes)
    proto_counts = np.ones(probe.num_classes, dtype=np.int64)
    lhs = ev.class_mean_distance(g_means, g_counts, server.global_prototypes, proto_counts)

    eps1, eps2, kappas = [], [], []
    for k in selected:
        local_model = nn.unflatten_like(template, client_end_params[k])
        shard = partition.shards[k]
        local_trace = nn.forward(local_model, train.features[shard])
        l_means, l_counts = alg._class_means(local_trace.embeddings,
                                             train.labels[shard], train.num_classes)
        protos = uploads[k]
        eps1.append(ev.class_mean_distance(l_means, l_counts, protos.means, protos.counts))
        eps2.append(ev.class_mean_distance(protos.means, protos.counts,
                                           server.global_prototypes, proto_counts))
        k_trace = nn.forward(local_model, probe.features)
        k_means, k_counts = alg._class_means(k_trace.embeddings, probe.labels,
                                             probe.num_classes)
        kappas.append(ev.class_mean_distance(k_means, k_counts, g_means, g_counts))
    rhs = max(eps1) + max(eps2) + max(kappas)
    return {"triangle_lhs": lhs, "triangle_rhs": rhs,
            "triangle_kappa": max(kappas), "triangle_holds": bool(lhs <= rhs)}


def _non_self_gradient(config: ExperimentConfig, server: proto.ServerState,
                       client: proto.ClientState) -> np.ndarray | None:
    """The non-self gradient `client` trains against this round, or None
    while there is none: `fedgps` builds it on the server from the other
    clients' last deltas, `fedgps_cf` from the last global change."""
    if config.algo == "fedgps":
        if any(j != client.id for j in server.prev_selected):
            return proto.non_self_gradient(server, client.id, config.eta_g, config.eta_l)
        return None
    if server.prev_global_delta is None:
        return None
    was_selected = client.id in server.prev_selected
    own = None
    if was_selected and client.last_delta is not None:
        # remove this client's contribution to the applied global change:
        # eta_g * Delta_k / |S_{t-1}|
        own = config.eta_g * client.last_delta / len(server.prev_selected)
    return proto.non_self_gradient_cf(server.prev_global_delta, own, was_selected)


def run_one(config: ExperimentConfig, scenario_seed: int, training_seed: int,
            write_artifacts: bool = True) -> RunResult:
    """One (scenario seed, training seed) unit: T rounds of config.algo."""
    dataset = build_dataset(config)
    split_seed = int(stream(config.data_seed, "split").integers(2 ** 31))
    train, test = dat.stratified_split(dataset, config.test_fraction, split_seed)
    partition = build_partition(config, train.labels, scenario_seed)
    partition.validate(len(train))

    surr_spec = dat.make_surrogate_spec(
        train.num_classes, train.input_dim, config.surrogate_seed,
        mean_scale=config.surrogate_mean_scale, class_std=config.surrogate_std,
        n_per_class=config.surrogate_n_per_class)
    surrogate = dat.gen_surrogate(surr_spec)

    template = nn.init_mlp(train.input_dim, tuple(config.hidden), train.num_classes,
                           stream(training_seed, "init"))
    theta0 = nn.flatten(template)
    server = proto.ServerState(
        global_params=theta0.copy(), eta_g=config.eta_g,
        global_prototypes=np.zeros((train.num_classes, template.embed_dim)))
    clients = [
        proto.ClientState(
            id=k, shard=partition.shards[k],
            data_rng=stream(training_seed, "client-data", k),
            surrogate_rng=stream(training_seed, "client-surrogate", k))
        for k in range(config.num_clients)
    ]
    selection_rng = stream(training_seed, "selection")
    hyper = config.hyper()
    probe = test.subset(np.arange(min(256, len(test))))

    velocity = np.zeros_like(theta0)  # fedavgm server momentum
    server_control = np.zeros_like(theta0)  # scaffold
    client_controls = {k: np.zeros_like(theta0) for k in range(config.num_clients)}
    meter = proto.CommMeter()
    min_sel = 2 if config.algo in RECTIFIED else 1

    records = []
    series = []
    diverged = False
    run_dir = Path(_output_root(config)) / f"{config.algo}_s{scenario_seed}_t{training_seed}"

    for t in range(config.rounds):
        tic = time.perf_counter()
        selected = proto.sample_clients(config.num_clients, config.sample_rate,
                                        selection_rng, min_size=min_sel)
        deltas: dict[int, np.ndarray] = {}
        proto_uploads: dict[int, alg.PrototypeSet] = {}
        control_updates = {}
        try:
            for k in selected:
                client = clients[k]
                if config.algo in RECTIFIED:
                    deltas[k], protos = alg.fedgps_local_train(
                        client, template, server.global_params,
                        _non_self_gradient(config, server, client), train, surrogate,
                        server.global_prototypes, hyper, round_index=t)
                    proto.upload_prototypes(server, k, protos.means)
                    proto_uploads[k] = protos
                elif config.algo == "fedprox":
                    deltas[k] = alg.fedprox_local_train(client, template, server.global_params,
                                                        train, hyper, round_index=t)
                elif config.algo == "scaffold":
                    deltas[k], control_updates[k] = alg.scaffold_local_train(
                        client, template, server.global_params, train, hyper,
                        server_control, client_controls[k], round_index=t)
                else:  # fedavg, fedavgm
                    deltas[k] = alg.fedavg_local_train(client, template, server.global_params,
                                                       train, hyper, round_index=t)
        except alg.DivergedError:
            diverged = True
            break

        client_end = {k: server.global_params + deltas[k] for k in selected}
        if config.algo == "fedavgm":
            velocity = alg.fedavgm_server_update(server, deltas, velocity,
                                                 beta=config.fedavgm_beta)
        else:
            proto.aggregate(server, deltas)
        if config.algo == "scaffold":
            shift = np.zeros_like(server_control)
            for k, new_control in control_updates.items():
                shift += new_control - client_controls[k]
                client_controls[k] = new_control
            server_control = server_control + shift / config.num_clients
        if proto_uploads:
            proto.aggregate_prototypes(server, mode=config.prototype_agg)

        down, up = proto.meter_round(meter, config.algo, template.num_params,
                                     train.num_classes, template.embed_dim)
        test_acc = None
        if (t + 1) % config.eval_cadence == 0 or t == config.rounds - 1:
            test_acc = accuracy(template, server.global_params, test)
        series.append(test_acc)

        record = {"round": t, "selected": selected, "test_acc": test_acc,
                  "comm_down": down, "comm_up": up, "divergence": None}
        if proto_uploads and (t + 1) % config.divergence_cadence == 0:
            record["divergence"] = float(np.mean(
                [ev.prototype_divergence(proto_uploads[k].means, server.global_prototypes)
                 for k in selected]))
            record.update(_triangle_fields(template, server, selected, client_end,
                                           proto_uploads, train, partition, probe))
        record["wallclock_ms"] = (time.perf_counter() - tic) * 1000.0
        records.append(record)

    evaluated = [a for a in series if a is not None]
    result = RunResult(
        algo=config.algo, scenario_seed=scenario_seed, training_seed=training_seed,
        accuracy_series=series,
        best_acc=max(evaluated) if evaluated else 0.0,
        final_acc=evaluated[-1] if evaluated else 0.0,
        run_dir=str(run_dir), diverged=diverged)

    if write_artifacts:
        run_dir.mkdir(parents=True, exist_ok=True)
        with open(run_dir / "rounds.jsonl", "w") as fh:
            for rec in records:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
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
                   "final_acc": result.final_acc, "diverged": diverged,
                   "total_down": meter.total_down, "total_up": meter.total_up}
        with open(run_dir / "checkpoint.meta.json", "w") as fh:
            json.dump(sidecar, fh, indent=2, sort_keys=True)
    return result


def _output_root(config: ExperimentConfig) -> Path:
    root = os.environ.get(ENV_OUTPUT_ROOT)
    if root:
        return Path(root) / config.out_dir
    return Path(config.out_dir)


def _run_unit(args) -> RunResult:
    config_dict, ss, ts = args
    config = ExperimentConfig(**config_dict)
    return run_one(config, ss, ts)


def run(config: ExperimentConfig) -> list[RunResult]:
    """All (scenario seed x training seed) units for config.algo."""
    config.validate()
    units = [(asdict(config), ss, ts)
             for ss in config.scenario_seeds for ts in config.training_seeds]
    if config.workers > 1 and len(units) > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(_run_unit, units))
    else:
        results = [_run_unit(u) for u in units]
    _write_sweep_summary(config, {config.algo: results})
    return results


def compare(config: ExperimentConfig, algos: list[str]) -> dict[str, list[RunResult]]:
    """Run several algorithms under identical data/partition/seed streams."""
    out = {}
    for algo in algos:
        out[algo] = run(replace(config, algo=algo))
    _write_sweep_summary(config, out)
    return out


def results_to_scenarios(results_by_algo: dict[str, list[RunResult]]) -> list[ev.ScenarioResult]:
    """Collapse run results into per-scenario ACC/ROUND/SpeedUp records.

    Multiple training seeds per scenario are averaged pointwise first.
    """
    scenarios = sorted({r.scenario_seed for rs in results_by_algo.values() for r in rs})
    out = []
    for ss in scenarios:
        series_by_algo = {}
        for algo, rs in results_by_algo.items():
            matched = [r.dense_series() for r in rs if r.scenario_seed == ss]
            if matched:
                series_by_algo[algo] = np.mean(np.array(matched), axis=0).tolist()
        out.append(ev.build_scenario_result(f"scenario{ss}", series_by_algo))
    return out


def _write_sweep_summary(config: ExperimentConfig, results_by_algo) -> None:
    root = _output_root(config)
    root.mkdir(parents=True, exist_ok=True)
    scenarios = results_to_scenarios(results_by_algo)
    ev.write_summary_csv(root / "summary.csv", scenarios)
    if len(results_by_algo) >= 2 and len(scenarios) >= 2:
        algos = sorted(results_by_algo)
        acc = np.array([[s.acc[a] for a in algos] for s in scenarios])
        ranks = ev.RankMatrix(acc, algos)
        ev.write_nemenyi_csv(root / "nemenyi.csv", ranks)


def scan_results(root) -> dict[str, list[RunResult]]:
    """Rebuild RunResults from run directories under `root` (for the
    summarize/nemenyi subcommands)."""
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
        evaluated = [a for a in series if a is not None]
        result = RunResult(
            algo=echo["algo"], scenario_seed=echo["scenario_seed"],
            training_seed=echo["training_seed"], accuracy_series=series,
            best_acc=max(evaluated) if evaluated else 0.0,
            final_acc=evaluated[-1] if evaluated else 0.0,
            run_dir=str(run_dir))
        out.setdefault(echo["algo"], []).append(result)
    return out
