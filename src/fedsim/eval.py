"""Metrics, distribution-divergence diagnostics, and nonparametric rank
statistics for robustness comparisons across heterogeneity scenarios.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np


def round_to_target(accuracy_series, target: float) -> int | None:
    """First round index whose accuracy reaches `target`, else None."""
    if not 0 < target < 1:
        raise ValueError("target accuracy must be in (0, 1)")
    for i, acc in enumerate(accuracy_series):
        if acc is not None and acc >= target:
            return i
    return None


def speedup(baseline_round: int | None, algo_round: int | None) -> float | None:
    """Round-count ratio vs. the baseline; None when either never arrived."""
    if baseline_round is None or algo_round is None:
        return None
    return baseline_round / algo_round


def prototype_divergence(local, global_) -> float:
    """Mean over classes of the L2 distance between class prototypes."""
    a = np.asarray(local, dtype=np.float64)
    b = np.asarray(global_, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"prototype shapes differ: {a.shape} vs {b.shape}")
    return float(np.mean(np.linalg.norm(a - b, axis=1)))


@dataclass
class RankMatrix:
    """Accuracies for N scenarios x k algorithms, with tie-averaged ranks."""

    accuracies: np.ndarray
    algorithms: list[str]

    def __post_init__(self):
        self.accuracies = np.asarray(self.accuracies, dtype=np.float64)
        if self.accuracies.ndim != 2:
            raise ValueError("accuracies must be a 2-D scenario x algorithm array")
        if self.accuracies.shape[1] != len(self.algorithms):
            raise ValueError("one algorithm name per column required")

    @property
    def num_scenarios(self) -> int:
        return self.accuracies.shape[0]

    @property
    def num_algorithms(self) -> int:
        return self.accuracies.shape[1]

    def ranks(self) -> np.ndarray:
        """Rank 1 = best accuracy per scenario; ties get averaged ranks,
        so every row sums to k(k+1)/2."""
        mine, other = self.accuracies[:, :, None], self.accuracies[:, None, :]
        higher = (other > mine).sum(axis=2)
        tied = (other == mine).sum(axis=2)
        return 1.0 + higher + (tied - 1) / 2.0

    def average_ranks(self) -> np.ndarray:
        return self.ranks().mean(axis=0)


def chi2_sf(x: float, df: int) -> float:
    """Chi-square survival function for an integer df >= 1, in closed form:
    Q(x; 1) = erfc(sqrt(x/2)), Q(x; 2) = exp(-x/2), and
    Q(x; v+2) = Q(x; v) + (x/2)^(v/2) exp(-x/2) / Gamma(v/2 + 1)."""
    h = x / 2.0
    if df % 2:
        q, start = math.erfc(math.sqrt(h)), 1
    else:
        q, start = math.exp(-h), 2
    for v in range(start, df, 2):
        q += h ** (v / 2) * math.exp(-h) / math.gamma(v / 2 + 1)
    return q


def friedman_statistic(ranks: RankMatrix, alpha: float = 0.05) -> tuple[float, bool]:
    """Friedman chi-square over the rank matrix and its significance flag.

        chi2_F = 12N/(k(k+1)) * [sum_j Rbar_j^2 - k(k+1)^2/4]

    significant when its chi-square p-value with k-1 degrees of freedom
    is below alpha. An all-tied matrix gives (0.0, False).
    """
    n, k = ranks.num_scenarios, ranks.num_algorithms
    if n < 2 or k < 2:
        raise ValueError("need at least 2 scenarios and 2 algorithms")
    avg = ranks.average_ranks()
    chi2 = 12.0 * n / (k * (k + 1)) * (float((avg ** 2).sum()) - k * (k + 1) ** 2 / 4.0)
    chi2 = max(chi2, 0.0)
    return chi2, chi2_sf(chi2, k - 1) < alpha


# Critical constants q_alpha(k) for the rank post-hoc test, derived from
# the studentized range distribution at infinite degrees of freedom
# (q_{alpha,inf,k} / sqrt(2)), k = 2..20.
NEMENYI_Q = {
    0.05: [1.960, 2.343, 2.569, 2.728, 2.850, 2.949, 3.031, 3.102, 3.164,
           3.219, 3.268, 3.313, 3.354, 3.391, 3.426, 3.458, 3.489, 3.517, 3.544],
    0.10: [1.645, 2.052, 2.291, 2.459, 2.589, 2.693, 2.780, 2.855, 2.920,
           2.978, 3.030, 3.077, 3.120, 3.159, 3.196, 3.230, 3.261, 3.291, 3.319],
}


def nemenyi_cd(k: int, n: int, alpha: float = 0.05) -> float:
    """Critical distance q_alpha(k) * sqrt(k(k+1)/(6N)) for average-rank
    differences; pairs further apart differ significantly."""
    if alpha not in NEMENYI_Q:
        raise ValueError(f"no critical-constant table for alpha={alpha}")
    if not 2 <= k <= 20:
        raise ValueError("k must be in [2, 20] (table-backed)")
    if n < 2:
        raise ValueError("need at least 2 scenarios")
    q = NEMENYI_Q[alpha][k - 2]
    return q * float(np.sqrt(k * (k + 1) / (6.0 * n)))


def nemenyi_pairwise(ranks: RankMatrix, alpha: float = 0.05):
    """Bool matrix of significantly-different pairs plus (avg ranks, CD)."""
    avg = ranks.average_ranks()
    cd = nemenyi_cd(ranks.num_algorithms, ranks.num_scenarios, alpha)
    diff = np.abs(avg[:, None] - avg[None, :])
    significant = diff > cd
    np.fill_diagonal(significant, False)
    return significant, avg, cd


@dataclass
class ScenarioResult:
    """Per-scenario outcome: best accuracy (and optionally round-to-target
    and speedup vs. the FedAvg baseline) for each algorithm."""

    scenario: str
    acc: dict[str, float]
    rounds: dict[str, int | None] = field(default_factory=dict)
    speedups: dict[str, float | None] = field(default_factory=dict)


def build_scenario_result(scenario: str, series_by_algo: dict[str, list]) -> ScenarioResult:
    """Derive ACC / ROUND / SpeedUp from per-round accuracy series.

    The baseline is FedAvg, and the target is its best accuracy rounded
    down to a whole percent; with no FedAvg series there is no target, so
    only ACC is filled. Speedup is defined only when both the algorithm and
    FedAvg reached the target.
    """
    acc = {a: float(np.max(s)) for a, s in series_by_algo.items()}
    target = np.floor(acc["fedavg"] * 100.0) / 100.0 if "fedavg" in acc else None
    rounds, speeds = {}, {}
    if target is not None and 0 < target < 1:
        for a, s in series_by_algo.items():
            rounds[a] = round_to_target(s, target)
        base_round = rounds.get("fedavg")
        for a in series_by_algo:
            # speedup compares 1-based round counts, round_to_target
            # yields 0-based indices
            if base_round is None or rounds[a] is None:
                speeds[a] = None
            else:
                speeds[a] = speedup(base_round + 1, rounds[a] + 1)
    return ScenarioResult(scenario, acc, rounds, speeds)


def summarize(results: list[ScenarioResult]) -> list[dict]:
    """Mean +- std of best accuracy per algorithm across scenarios.

    Uses the sample standard deviation (N-1 denominator); a single
    scenario reports std 0.
    """
    if not results:
        raise ValueError("no scenario results")
    algos = sorted({a for r in results for a in r.acc})
    rows = []
    for algo in algos:
        vals = np.array([r.acc[algo] for r in results if algo in r.acc])
        std = float(vals.std(ddof=1)) if len(vals) > 1 else 0.0
        rows.append({"algorithm": algo, "mean_acc": float(vals.mean()),
                     "std_acc": std, "num_scenarios": len(vals)})
    return rows


def write_summary_csv(path, results: list[ScenarioResult]) -> None:
    """Benchmark-table layout: one scenario block per column set, then the
    mean +- std column; std convention noted in a leading comment row."""
    rows = summarize(results)
    scenarios = [r.scenario for r in results]
    with open(path, "w", newline="") as fh:
        fh.write("# std convention: sample standard deviation (ddof=1)\n")
        writer = csv.writer(fh)
        header = ["algorithm"]
        for s in scenarios:
            header += [f"{s}_acc", f"{s}_round", f"{s}_speedup"]
        header += ["mean_acc", "std_acc"]
        writer.writerow(header)
        for row in rows:
            algo = row["algorithm"]
            line = [algo]
            for res in results:
                if algo not in res.acc:
                    line += ["", "", ""]
                    continue
                r = res.rounds.get(algo)
                sp = res.speedups.get(algo)
                line += [f"{res.acc[algo]:.6f}",
                         "None" if r is None else r,
                         "None" if sp is None else f"{sp:.1f}x"]
            line += [f"{row['mean_acc']:.6f}", f"{row['std_acc']:.6f}"]
            writer.writerow(line)


def rank_matrix(results: list[ScenarioResult]) -> tuple[RankMatrix, list[str]]:
    """Accuracies over the scenarios every algorithm covers; the names of the others."""
    algos = sorted({a for r in results for a in r.acc})
    common = [r for r in results if len(r.acc) == len(algos)]
    acc = np.array([[r.acc[a] for a in algos] for r in common]).reshape(len(common), len(algos))
    return RankMatrix(acc, algos), [r.scenario for r in results if len(r.acc) < len(algos)]


def write_nemenyi_csv(path, ranks: RankMatrix, alpha: float = 0.05) -> tuple:
    """Pairwise significance matrix with average ranks and the CD. Returns
    the statistics it wrote: (friedman chi2, its significance, the average
    ranks, the critical distance)."""
    significant, avg, cd = nemenyi_pairwise(ranks, alpha)
    chi2, sig = friedman_statistic(ranks, alpha)
    with open(path, "w", newline="") as fh:
        fh.write(f"# friedman_chi2={chi2:.9f} significant={sig} cd={cd:.9f} alpha={alpha}\n")
        writer = csv.writer(fh)
        writer.writerow(["algorithm", "avg_rank"] + ranks.algorithms)
        for i, name in enumerate(ranks.algorithms):
            writer.writerow([name, f"{avg[i]:.6f}"] +
                            [str(bool(v)) for v in significant[i]])
    return chi2, sig, avg, cd
