"""Metrics, distribution-divergence diagnostics, and nonparametric rank
statistics for robustness comparisons across heterogeneity scenarios.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .algorithms import PrototypeSet


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


def w1_empirical_1d(a, b) -> float:
    """Exact 1-D order-statistic transport distance between two samples.

    For equal sample counts this is the mean absolute difference of order
    statistics, which is the exact 1-Wasserstein distance between the two
    empirical measures. Unequal counts are first resampled onto a common
    midpoint-quantile grid of the larger size (an approximation, noted
    here because this function is a diagnostic, not a training loss).
    """
    a = np.sort(np.asarray(a, dtype=np.float64).ravel())
    b = np.sort(np.asarray(b, dtype=np.float64).ravel())
    if len(a) == 0 or len(b) == 0:
        raise ValueError("empty sample")
    if len(a) != len(b):
        m = max(len(a), len(b))
        grid = (np.arange(m) + 0.5) / m
        a = np.quantile(a, grid)
        b = np.quantile(b, grid)
    return float(np.mean(np.abs(a - b)))


def _proto_means(p) -> np.ndarray:
    return p.means if isinstance(p, PrototypeSet) else np.asarray(p, dtype=np.float64)


def prototype_divergence(local, global_) -> float:
    """Mean over classes of the L2 distance between class prototypes."""
    a = _proto_means(local)
    b = _proto_means(global_)
    if a.shape != b.shape:
        raise ValueError(f"prototype shapes differ: {a.shape} vs {b.shape}")
    return float(np.mean(np.linalg.norm(a - b, axis=1)))


def class_mean_distance(means_a: np.ndarray, counts_a, means_b: np.ndarray,
                        counts_b) -> float:
    """Prototype distance restricted to classes present on both sides."""
    shared = np.flatnonzero((np.asarray(counts_a) > 0) & (np.asarray(counts_b) > 0))
    if len(shared) == 0:
        raise ValueError("no class present on both sides")
    return float(np.mean(np.linalg.norm(means_a[shared] - means_b[shared], axis=1)))


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
        from scipy import stats  # deferred: importing scipy costs about 1 s
        return stats.rankdata(-self.accuracies, method="average", axis=1)

    def average_ranks(self) -> np.ndarray:
        return self.ranks().mean(axis=0)


def friedman_statistic(ranks: RankMatrix, alpha: float = 0.05) -> tuple[float, bool]:
    """Friedman chi-square over the rank matrix and its significance flag.

        chi2_F = 12N/(k(k+1)) * [sum_j Rbar_j^2 - k(k+1)^2/4]

    compared against the chi-square critical value with k-1 degrees of
    freedom. An all-tied matrix gives (0.0, False).
    """
    from scipy import stats  # deferred: importing scipy costs about 1 s
    n, k = ranks.num_scenarios, ranks.num_algorithms
    if n < 2 or k < 2:
        raise ValueError("need at least 2 scenarios and 2 algorithms")
    avg = ranks.average_ranks()
    chi2 = 12.0 * n / (k * (k + 1)) * (float((avg ** 2).sum()) - k * (k + 1) ** 2 / 4.0)
    chi2 = max(chi2, 0.0)
    critical = stats.chi2.ppf(1.0 - alpha, k - 1)
    return chi2, bool(chi2 > critical)


# Critical constants q_alpha(k) for the rank post-hoc test, derived from
# the studentized range distribution at infinite degrees of freedom
# (q_{alpha,inf,k} / sqrt(2)), k = 2..20.
_NEMENYI_Q = {
    0.05: [1.960, 2.343, 2.569, 2.728, 2.850, 2.949, 3.031, 3.102, 3.164,
           3.219, 3.268, 3.313, 3.354, 3.391, 3.426, 3.458, 3.489, 3.517, 3.544],
    0.10: [1.645, 2.052, 2.291, 2.459, 2.589, 2.693, 2.780, 2.855, 2.920,
           2.978, 3.030, 3.077, 3.120, 3.159, 3.196, 3.230, 3.261, 3.291, 3.319],
}


def nemenyi_cd(k: int, n: int, alpha: float = 0.05) -> float:
    """Critical distance q_alpha(k) * sqrt(k(k+1)/(6N)) for average-rank
    differences; pairs further apart differ significantly."""
    if alpha not in _NEMENYI_Q:
        raise ValueError(f"no critical-constant table for alpha={alpha}")
    if not 2 <= k <= 20:
        raise ValueError("k must be in [2, 20] (table-backed)")
    if n < 2:
        raise ValueError("need at least 2 scenarios")
    q = _NEMENYI_Q[alpha][k - 2]
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


def build_scenario_result(scenario: str, series_by_algo: dict[str, list],
                          target: float | None = None,
                          baseline: str = "fedavg") -> ScenarioResult:
    """Derive ACC / ROUND / SpeedUp from per-round accuracy series.

    The target defaults to the baseline's best accuracy rounded down to
    an integer percent; speedup is defined only when both the algorithm
    and the baseline reached the target.
    """
    acc = {a: float(np.max(s)) for a, s in series_by_algo.items()}
    if target is None and baseline in acc:
        target = np.floor(acc[baseline] * 100.0) / 100.0
    rounds, speeds = {}, {}
    if target is not None and 0 < target < 1:
        for a, s in series_by_algo.items():
            rounds[a] = round_to_target(s, target)
        base_round = rounds.get(baseline)
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


def write_nemenyi_csv(path, ranks: RankMatrix, alpha: float = 0.05) -> None:
    """Pairwise significance matrix with average ranks and the CD."""
    significant, avg, cd = nemenyi_pairwise(ranks, alpha)
    chi2, sig = friedman_statistic(ranks, alpha)
    with open(path, "w", newline="") as fh:
        fh.write(f"# friedman_chi2={chi2:.9f} significant={sig} cd={cd:.9f} alpha={alpha}\n")
        writer = csv.writer(fh)
        writer.writerow(["algorithm", "avg_rank"] + ranks.algorithms)
        for i, name in enumerate(ranks.algorithms):
            writer.writerow([name, f"{avg[i]:.6f}"] +
                            [str(bool(v)) for v in significant[i]])
