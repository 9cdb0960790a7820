#!/usr/bin/env python3
"""fedsim benchmark: end-to-end and per-layer metrics of federated runs.

    python3 fedbench/run.py --workload desk-fedgps --seed 3 --seconds 25 --trace 0

Run from the root of a fedsim checkout; fedsim is imported from its
`src/`. The untraced mode (`--trace 0`) runs whole passes of the
workload's federated runs, each in a fresh process, until `--seconds`
of passes have elapsed, checks every run's artifacts, and reports
medians over passes. The
traced mode (`--trace 1`) microbenchmarks the layers, makes a traced
pass between two untraced ones, and reports the per-layer metrics. The
last line of standard output is one JSON object: correct, attempted,
failed (federated runs) and metrics.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".fedbench_runs"

# Acceptance criterion 8's desk config: 10-class blobs, 10 clients at
# sample rate 0.5, Dirichlet alpha 0.1, 150 rounds, evaluation every
# round and the transport monitor every 5th.
DESK = dict(num_classes=10, input_dim=16, n_per_class=500, separation=0.8,
            noise_std=1.0, num_clients=10, sample_rate=0.5, rounds=150,
            local_epochs=1, alpha=0.1, eval_cadence=1, divergence_cadence=5)
# Desk-scale rectification used by criterion 8 for the synergy method.
GPS = dict(lambda_g=0.2, nsg_sign=-1.0)
# 100 clients holding 2 classes each, 10 per round: about 2 local steps
# per client, so per-client costs dominate. eta_l = 0.05 brings accuracy
# well above chance within 60 rounds.
XDEV = dict(DESK, **GPS, num_clients=100, sample_rate=0.1, rounds=60,
            partition_kind="cn", classes_per_client=2, eta_l=0.05)


@dataclass(frozen=True)
class Workload:
    algos: tuple[str, ...]
    overrides: dict
    scenarios_per_seed: int

    def config(self, runner, seed: int, out_dir: Path):
        first = self.scenarios_per_seed * seed
        return runner.ExperimentConfig(
            **self.overrides, algo=self.algos[0], out_dir=str(out_dir),
            scenario_seeds=tuple(range(first, first + self.scenarios_per_seed)),
            training_seeds=(seed,))


WORKLOADS = {
    "desk-fedgps": Workload(("fedgps",), dict(DESK, **GPS), 1),
    "desk-baselines": Workload(("fedavg", "fedavgm", "fedprox", "scaffold"), DESK, 1),
    "xdev-sweep": Workload(("fedgps", "fedgps_cf"), XDEV, 2),
}


@dataclass
class Inputs:
    """A workload's inputs; partitions and model are built only because
    set-up time covers them (each run rebuilds its own)."""

    config: object
    train: object
    test: object
    partitions: dict
    surrogate: object
    model: object


def build_inputs(fedsim, workload: Workload, seed: int, out_dir: Path) -> Inputs:
    """Dataset, split, partitions, surrogate and model, through the same
    public builders a run uses."""
    data, nn, runner = fedsim.data, fedsim.nn, fedsim.runner
    cfg = workload.config(runner, seed, out_dir)
    cfg.validate()
    dataset = runner.build_dataset(cfg)
    split_seed = int(runner.stream(cfg.data_seed, "split").integers(2 ** 31))
    train, test = data.stratified_split(dataset, cfg.test_fraction, split_seed)
    partitions = {ss: runner.build_partition(cfg, train.labels, ss) for ss in cfg.scenario_seeds}
    surrogate = data.gen_surrogate(data.make_surrogate_spec(
        train.num_classes, train.input_dim, cfg.surrogate_seed,
        mean_scale=cfg.surrogate_mean_scale, class_std=cfg.surrogate_std,
        n_per_class=cfg.surrogate_n_per_class))
    model = nn.init_mlp(train.input_dim, tuple(cfg.hidden), train.num_classes,
                        runner.stream(seed, "init"))
    return Inputs(cfg, train, test, partitions, surrogate, model)


def import_fedsim():
    sys.path.insert(0, str(ROOT / "src"))
    import fedsim
    if Path(fedsim.__file__).resolve().parent != ROOT / "src" / "fedsim":
        raise ImportError(f"fedsim imported from {fedsim.__file__}, not this checkout")
    return fedsim


def spawn_pass(workload: str, seed: int) -> dict:
    """One pass in a fresh interpreter, started as a user would start it.

    Set-up runs from starting the interpreter until it reports that fedsim
    is imported and the inputs are built. The child then times the pass,
    checks its runs and reports its peak memory. A fresh process per pass
    also draws OpenBLAS's thread placement anew, which otherwise persists
    through the passes of one process.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child",
           "--workload", workload, "--seed", str(seed)]
    tic = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - tic
        report = proc.stdout.read()
        code = proc.wait()
    if ready.strip() != "ready" or code != 0:
        raise RuntimeError(f"pass process failed with exit code {code}")
    return {**json.loads(report), "setup_s": setup_s}


def run_child(workload_name: str, seed: int) -> dict:
    """The child's side of `spawn_pass`."""
    fedsim = import_fedsim()
    out_dir = OUT_ROOT / f"{workload_name}-s{seed}-{os.getpid()}"
    workload = WORKLOADS[workload_name]
    inputs = build_inputs(fedsim, workload, seed, out_dir)
    print("ready", flush=True)
    try:
        result = Pass(fedsim, workload, inputs).execute()
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    result["runs"] = {"/".join(map(str, key)): run for key, run in result["runs"].items()}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


class Pass:
    """One pass: the workload's federated runs, timed, then checked."""

    def __init__(self, fedsim, workload: Workload, inputs: Inputs):
        self.fedsim, self.workload, self.inputs = fedsim, workload, inputs

    def execute(self) -> dict:
        cfg, runner = self.inputs.config, self.fedsim.runner
        units = len(self.workload.algos) * len(cfg.scenario_seeds) * len(cfg.training_seeds)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            if len(self.workload.algos) == 1:
                results = {cfg.algo: runner.run(cfg)}
            else:
                results = runner.compare(cfg, list(self.workload.algos))
        except Exception:
            traceback.print_exc(file=sys.stderr)
            results = {}
        out = {"attempted": units, "wrong": 0, "runs": {},
               "wall_s": time.perf_counter() - wall0, "cpu_s": time.process_time() - cpu0}
        for algo, rs in results.items():
            for r in rs:
                if r.diverged:
                    print(f"run {algo} s{r.scenario_seed} diverged", file=sys.stderr)
                    continue
                try:
                    out["runs"][(algo, r.scenario_seed, r.training_seed)] = self.check(algo, r)
                except (AssertionError, OSError, KeyError, ValueError) as err:
                    print(f"run {algo} s{r.scenario_seed}: check failed: {err}", file=sys.stderr)
                    out["wrong"] += 1
        out["failed"] = units - len(out["runs"])
        return out

    def check(self, algo: str, result) -> dict:
        import checks  # imports numpy, so only after fedsim's import is timed
        cfg, inp = self.inputs.config, self.inputs
        gps = algo in ("fedgps", "fedgps_cf")
        return checks.check_run(
            result.run_dir, algo=algo, rounds=cfg.rounds,
            widths=[inp.train.input_dim, *cfg.hidden, inp.train.num_classes],
            num_classes=inp.train.num_classes, train_labels=inp.train.labels,
            test_x=inp.test.features, test_y=inp.test.labels,
            batch_size=cfg.batch_size, epochs=cfg.local_epochs,
            classes_per_shard=cfg.classes_per_client if cfg.partition_kind == "cn" else None,
            reported_final_acc=result.final_acc,
            monitor_every=cfg.divergence_cadence if gps else None)


def check_repeats(passes: list[dict]) -> int:
    """Identical configs must give byte-identical checkpoints: every pass
    repeats the same runs. Returns the number of runs that differ from
    their first occurrence."""
    first: dict = {}
    differing = 0
    for p in passes:
        for key, run in p["runs"].items():
            seen = first.setdefault(key, run["checkpoint_sha1"])
            if seen != run["checkpoint_sha1"]:
                print(f"run {key} is not deterministic across passes", file=sys.stderr)
                differing += 1
    return differing


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    """Whole passes, each in a fresh process, until `seconds` of them have
    run; medians over passes."""
    passes = []
    while sum(p["wall_s"] for p in passes) < seconds:
        passes.append(spawn_pass(workload, seed))
    print("pass wall_s: " + " ".join(f"{p['wall_s']:.3f}" for p in passes), file=sys.stderr)
    differing = check_repeats(passes)
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    good = [p for p in passes if p["runs"]]
    steps = [sum(r["steps"] for r in p["runs"].values()) for p in good]
    accs = [statistics.fmean(r["final_acc"] for r in p["runs"].values()) for p in good]
    metrics = {
        "setup_s": (statistics.median(p["setup_s"] for p in passes), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "cpu_s": (statistics.median(p["cpu_s"] for p in passes), "s"),
        "steps_per_s": (statistics.median(s / p["wall_s"] for s, p in zip(steps, good))
                        if good else 0.0, "1/s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "final_acc": (statistics.median(accs) if accs else 0.0, "fraction"),
    }
    wrong = sum(p["wrong"] for p in passes) + differing
    return {"correct": wrong == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def traced(fedsim, workload_pass: Pass, inputs: Inputs, out_dir: Path, import_s: float,
           build_s: float) -> dict:
    """Microbenchmarks, then a traced pass between two untraced ones."""
    import tracing
    failures: list[str] = []
    metrics = tracing.microbenchmarks(fedsim, inputs, failures)
    before = workload_pass.execute()
    tracer = tracing.Tracer()
    tracer.install(fedsim)
    tracing.install_protocol_checks(fedsim, tracer, failures)
    try:
        traced_pass = workload_pass.execute()
    finally:
        tracer.uninstall()
    after = workload_pass.execute()
    tracer.write(out_dir / "spans.tsv")

    cfg = inputs.config
    analysis = tracing.analyse(tracer, traced_pass["wall_s"], cfg.divergence_cadence)
    totals = analysis["totals"]
    steps = sum(r["steps"] for r in traced_pass["runs"].values())
    if steps != tracing.per_step_gradient_calls(tracer):
        failures.append(f"{steps} local steps in the artifacts, "
                        f"{tracing.per_step_gradient_calls(tracer)} traced step gradients")
    logged_s = sum(sum(r["wallclock_ms"]) for r in traced_pass["runs"].values()) / 1e3
    rounds_s = analysis["metrics"].pop("trace.rounds_s")
    if abs(rounds_s - logged_s) > 0.02 * logged_s + 1e-3 * cfg.rounds * len(traced_pass["runs"]):
        failures.append(f"traced rounds take {rounds_s:.3f}s, rounds.jsonl logs {logged_s:.3f}s")

    def total(name, key):
        return totals.get(name, {key: 0})[key]

    metrics.update(analysis["metrics"])
    metrics.update({
        "nn.forward.calls": total("nn.forward", "calls"),
        "nn.backward.calls": total("nn.backward", "calls"),
        "nn.forward.self_s": total("nn.forward", "self_s"),
        "nn.backward.self_s": total("nn.backward", "self_s"),
        "nn.unflatten_like.calls": total("nn.unflatten_like", "calls"),
        "nn.flatten.calls": total("nn.flatten", "calls"),
        "algorithms.compute_local_prototypes.s": total("algorithms.compute_local_prototypes", "s"),
        "algorithms.local_steps": steps,
        "algorithms.step_us": analysis["metrics"]["phase.local_train_s"] / max(steps, 1) * 1e6,
        "protocol.non_self_gradient.calls": total("protocol.non_self_gradient", "calls"),
        "eval.rank_stats_ms": 1e3 * (total("eval.write_summary_csv", "s")
                                     + total("eval.write_nemenyi_csv", "s")),
        "setup.import_s": import_s,
        "data.build_s": build_s,
        "trace.wall_s": traced_pass["wall_s"],
        # untraced passes on both sides, so that drift in machine speed
        # during the run cancels to first order
        "trace.overhead_s": traced_pass["wall_s"] - (before["wall_s"] + after["wall_s"]) / 2,
    })
    for failure in failures:
        print(f"traced check failed: {failure}", file=sys.stderr)
    passes = [before, traced_pass, after]
    wrong = sum(p["wrong"] for p in passes) + check_repeats(passes) + len(failures)
    if set(metrics) != set(PER_LAYER_UNITS):
        raise RuntimeError(f"per-layer metrics differ: {set(metrics) ^ set(PER_LAYER_UNITS)}")
    return {"correct": wrong == 0, "attempted": sum(p["attempted"] for p in passes),
            "failed": sum(p["failed"] for p in passes),
            "metrics": {k: (metrics[k], u) for k, u in PER_LAYER_UNITS.items()}}


# Every per-layer metric of the traced mode, with its unit.
PER_LAYER_UNITS = {
    **dict.fromkeys(["nn.forward.us", "nn.backward.us", "nn.unflatten_like.us",
                     "algorithms.ce_loss_and_grad.us", "algorithms.fedgps_loss_and_grad.us",
                     "algorithms.rectified_gradient.us",
                     "algorithms.compute_local_prototypes.us", "algorithms.step_us",
                     "protocol.aggregate.us", "protocol.non_self_gradient.us",
                     "protocol.aggregate_prototypes.us", "runner.accuracy.us"], "us"),
    **dict.fromkeys(["nn.forward.calls", "nn.backward.calls", "nn.unflatten_like.calls",
                     "nn.flatten.calls", "algorithms.local_steps",
                     "protocol.non_self_gradient.calls"], "count"),
    **dict.fromkeys(["runner.round_ms_p50", "runner.round_ms_p90",
                     "runner.monitor_round_ms_p50", "runner.plain_round_ms_p50",
                     "eval.rank_stats_ms"], "ms"),
    **dict.fromkeys(["nn.forward.self_s", "nn.backward.self_s",
                     "algorithms.compute_local_prototypes.s", "phase.local_train_s",
                     "phase.aggregate_s", "phase.proto_agg_s", "phase.monitor_s",
                     "phase.eval_s", "phase.artifacts_s", "phase.other_s",
                     "setup.import_s", "data.build_s", "trace.wall_s",
                     "trace.overhead_s"], "s"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "fedsim" / "__init__.py").is_file():
        print(f"no fedsim source tree at {ROOT / 'src' / 'fedsim'}", file=sys.stderr)
        return 2
    if args.child:
        print(json.dumps(run_child(args.workload, args.seed)))
        return 0
    if args.trace:
        tic = time.perf_counter()
        fedsim = import_fedsim()
        import_s = time.perf_counter() - tic
        out_dir = OUT_ROOT / f"{args.workload}-s{args.seed}-trace"
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        tic = time.perf_counter()
        inputs = build_inputs(fedsim, WORKLOADS[args.workload], args.seed, out_dir)
        build_s = time.perf_counter() - tic
        workload_pass = Pass(fedsim, WORKLOADS[args.workload], inputs)
        result = traced(fedsim, workload_pass, inputs, out_dir, import_s, build_s)
    else:
        result = end_to_end(args.workload, args.seed, args.seconds)
    result["metrics"] = {k: {"value": float(v), "unit": u}
                         for k, (v, u) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
