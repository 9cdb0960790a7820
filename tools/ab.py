"""Paired A/B of two fedsim checkouts on fedbench's end-to-end metrics.

    python tools/ab.py BASE CHANGE --seed 7 [--pairs 10] [--workload W ...] [--out FILE]

BASE and CHANGE are the roots of two checkouts, for example a `git
worktree add` of the parent commit and this one; their `fedbench/` and
`BENCHMARK.json` must be byte-identical. Each pair runs one single-pass
`fedbench/run.py --workload W --seed S --seconds 1e-9 --trace 0` per
tree, from that tree's root, flipping which tree goes first every pair.
Every pass is a fresh process, so `setup_s` and `peak_rss_mb`, which
exist only per process, are compared too.

Per metric it prints each side's median and quartiles, the median of the
per-pair ratios change/base with its 95% percentile bootstrap interval
(Kalibera & Jones, ISMM 2013: the pairs resampled with replacement, 2000
times, from `random.Random` seeded with `--seed`), and the pairs the
change wins and loses by
`BENCHMARK.json`'s `better` direction (ties count for neither). `gain`
holds where the change wins at least nine tenths of the pairs and the
medians differ, its way, by more than the base's interquartile range;
`within_bound` where the change's median is no worse than the base's by
more than the metric's relative bound. `--out` writes the record, with
the machine, the Python, numpy and OpenBLAS versions and each tree's
`tools/desk_checkpoints.py` values. The exit code is 1 if any pass is
not `correct` or has a failed run, and 2 if the trees' benchmarks differ.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from pathlib import Path


def benchmark_files(tree: Path) -> dict[str, bytes]:
    """The files that define the benchmark, by path relative to `tree`."""
    files = [tree / "BENCHMARK.json", *(tree / "fedbench").rglob("*")]
    return {str(f.relative_to(tree)): f.read_bytes() for f in files
            if f.is_file() and "__pycache__" not in f.parts}


def run_pass(tree: Path, workload: str, seed: int) -> dict:
    """One single-pass fedbench run from `tree`'s root: its last JSON line,
    with metrics reduced to their values."""
    cmd = [sys.executable, "fedbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "1e-9", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        return {"correct": False, "attempted": 0, "failed": 0, "metrics": {},
                "error": f"exit code {proc.returncode}"}
    result = json.loads(lines[-1])
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {k: m["value"] for k, m in result["metrics"].items()}}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, linearly interpolated."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, statistics.median(values), q3


RESAMPLES = 2000


def bootstrap_interval(ratios: list[float], seed: int) -> tuple[float, float] | None:
    """95% percentile bootstrap interval of the median of `ratios`: the
    medians of RESAMPLES draws of len(ratios) pairs with replacement, from
    `random.Random(seed)`, cut at 2.5% in each tail."""
    if not ratios:
        return None
    rng = random.Random(seed)
    medians = sorted(statistics.median(rng.choices(ratios, k=len(ratios)))
                     for _ in range(RESAMPLES))
    tail = RESAMPLES // 40
    return medians[tail], medians[-1 - tail]


def compare(pairs: list[dict], metric: dict, seed: int = 0) -> dict:
    """The paired statistics of one `BENCHMARK.json` end-to-end metric."""
    name, lower = metric["name"], metric["better"] == "lower"
    base = [p["base"]["metrics"][name] for p in pairs]
    change = [p["change"]["metrics"][name] for p in pairs]
    gains = [(b - c) if lower else (c - b) for b, c in zip(base, change)]
    ratios = [c / b for b, c in zip(base, change) if b]
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    wins, losses = sum(g > 0 for g in gains), sum(g < 0 for g in gains)
    median_gain = (bmed - cmed) if lower else (cmed - bmed)
    return {
        "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
        "base": {"q1": bq1, "median": bmed, "q3": bq3},
        "change": {"q1": cq1, "median": cmed, "q3": cq3},
        "median_ratio": statistics.median(ratios) if ratios else None,
        "ratio_interval": bootstrap_interval(ratios, seed),
        "wins": wins, "losses": losses, "ties": len(pairs) - wins - losses,
        "gain": wins >= 0.9 * len(pairs) and median_gain > bq3 - bq1,
        "within_bound": (-median_gain <= metric["bound"] * abs(bmed)) if bmed
                        else median_gain >= 0,
    }


def summary_line(s: dict) -> str:
    b, c, ratio, interval = s["base"], s["change"], s["median_ratio"], s["ratio_interval"]
    return (f"base {b['median']:.4g} [{b['q1']:.4g}, {b['q3']:.4g}]  "
            f"change {c['median']:.4g} [{c['q1']:.4g}, {c['q3']:.4g}]  "
            f"ratio {'-' if ratio is None else f'{ratio:.3f}'}"
            f"{'' if interval is None else ' [{:.3f}, {:.3f}]'.format(*interval)}  "
            f"wins {s['wins']} losses {s['losses']} ties {s['ties']}  "
            f"gain {s['gain']}  within_bound {s['within_bound']}")


def failures(pairs: list[dict]) -> list[str]:
    """One line per pass that is not `correct` or has a failed run."""
    return [f"pair {i} {side}: correct={p[side]['correct']} failed={p[side]['failed']}"
            f"{' ' + p[side]['error'] if 'error' in p[side] else ''}"
            for i, p in enumerate(pairs) for side in ("base", "change")
            if not p[side]["correct"] or p[side]["failed"]]


def desk_checkpoints(tree: Path) -> dict | None:
    """The six desk checkpoint sha256 values `tree`'s own tool prints."""
    if not (tree / "tools" / "desk_checkpoints.py").is_file():
        return None
    out = subprocess.run([sys.executable, "tools/desk_checkpoints.py"], cwd=tree,
                         capture_output=True, text=True, check=True).stdout
    return dict(line.split() for line in out.splitlines() if line.strip())


def git_commit(tree: Path) -> str | None:
    proc = subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=12"],
                          cwd=tree, capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment() -> dict:
    import numpy as np
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    cpu = None
    if Path("/proc/cpuinfo").is_file():
        cpu = next((line.split(":", 1)[1].strip() for line in
                    Path("/proc/cpuinfo").read_text().splitlines()
                    if line.startswith("model name")), None)
    return {"machine": {"platform": platform.platform(), "cpu": cpu, "cpus": os.cpu_count()},
            "python": platform.python_version(), "numpy": np.__version__,
            "openblas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        help="a BENCHMARK.json workload (repeatable; default: all)")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seed < 0:
        parser.error("--pairs must be >= 1 and --seed >= 0")
    trees = {"base": args.base.resolve(), "change": args.change.resolve()}
    if benchmark_files(trees["base"]) != benchmark_files(trees["change"]):
        print("the trees' fedbench/ or BENCHMARK.json differ", file=sys.stderr)
        return 2
    spec = json.loads((trees["base"] / "BENCHMARK.json").read_text())
    known = [w["name"] for w in spec["workloads"]]
    workloads = args.workload or known
    if set(workloads) - set(known):
        parser.error(f"unknown workload; choose from {known}")

    record = {"command": "python3 fedbench/run.py --workload <w> --seed <s> --seconds 1e-9"
                         " --trace 0, one pass per tree per pair, order flipped every pair",
              "seed": args.seed, "pairs": args.pairs, **environment(),
              "commits": {side: git_commit(tree) for side, tree in trees.items()},
              "workloads": {}}
    bad = []
    for workload in workloads:
        pairs = []
        for i in range(args.pairs):
            order = ("base", "change") if i % 2 == 0 else ("change", "base")
            pair = {"first": order[0]}
            for side in order:
                pair[side] = run_pass(trees[side], workload, args.seed)
            pairs.append(pair)
        bad += [f"{workload} {line}" for line in failures(pairs)]
        ok = [p for p in pairs if not failures([p])]
        stats = {m["name"]: compare(ok, m, args.seed) for m in spec["end_to_end"]} if ok else {}
        record["workloads"][workload] = {"metrics": stats, "passes": pairs}
        for name, s in stats.items():
            print(f"{workload:<15} {name:<12} {summary_line(s)}", flush=True)
    record["desk_checkpoints"] = {side: desk_checkpoints(tree) for side, tree in trees.items()}
    for side, values in record["desk_checkpoints"].items():
        print(f"{side} desk checkpoints: {values}")
    record["failures"] = bad
    for line in bad:
        print(f"not correct: {line}", file=sys.stderr)
    if args.out:
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
