"""Metrics, prototype distances, and the rank statistics, each checked
against an independently coded oracle."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as sps

from fedsim import eval as ev


class TestRoundToTarget:
    def test_first_crossing(self):
        assert ev.round_to_target([0.1, 0.5, 0.9], 0.5) == 1

    def test_never_reached_is_none(self):
        assert ev.round_to_target([0.1, 0.2, 0.3], 0.9) is None

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError):
            ev.round_to_target([0.5], 1.5)

    def test_published_speedup_arithmetic(self):
        # a method hitting the target at round 139 vs the baseline's 340
        # reports a 2.4x speedup after one-decimal rounding
        assert round(ev.speedup(340, 139), 1) == 2.4
        assert ev.speedup(None, 100) is None
        assert ev.speedup(100, None) is None


class TestPrototypeDivergence:
    def test_identical_sets_zero(self):
        p = np.random.default_rng(1).standard_normal((4, 3))
        assert ev.prototype_divergence(p, p.copy()) == 0.0

    def test_unit_offset(self):
        local = np.zeros((3, 4))
        local[:, 0] = 1.0
        assert ev.prototype_divergence(local, np.zeros((3, 4))) == 1.0

    def test_hand_built_two_class(self):
        # distances: class 0 -> 5 (3-4-5 triangle), class 1 -> 1; mean = 3
        local = np.array([[3.0, 4.0], [1.0, 0.0]])
        other = np.array([[0.0, 0.0], [0.0, 0.0]])
        assert ev.prototype_divergence(local, other) == 3.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ev.prototype_divergence(np.zeros((2, 2)), np.zeros((3, 2)))


def rank_rows_by_hand(acc_rows):
    """Independent tie-averaged ranker (1 = best) using sorted positions."""
    out = []
    for row in acc_rows:
        ordered = sorted(row, reverse=True)
        out.append([ordered.index(v) + 1 + (ordered.count(v) - 1) / 2.0 for v in row])
    return out


class TestRankMatrix:
    def test_row_sums(self):
        acc = np.array([[0.9, 0.8, 0.7], [0.5, 0.5, 0.4], [0.2, 0.2, 0.2]])
        ranks = ev.RankMatrix(acc, ["a", "b", "c"]).ranks()
        assert np.allclose(ranks.sum(axis=1), 6.0)

    @given(st.lists(st.lists(st.integers(0, 5), min_size=3, max_size=3),
                    min_size=2, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_row_sums_under_arbitrary_ties(self, rows):
        acc = np.array(rows, dtype=float)
        ranks = ev.RankMatrix(acc, ["a", "b", "c"]).ranks()
        k = acc.shape[1]
        assert np.allclose(ranks.sum(axis=1), k * (k + 1) / 2)
        assert np.allclose(ranks, rank_rows_by_hand(rows))
        oracle = sps.rankdata(-acc, method="average", axis=1)
        assert ranks.dtype == oracle.dtype and ranks.tobytes() == oracle.tobytes()


class TestFriedman:
    def test_two_algorithms_five_scenarios_dominance(self):
        # one method strictly better everywhere: chi2 = 12*5/(2*3) *
        # ((1^2 + 2^2) - 2*9/4) = 10 * 0.5 = 5, by direct substitution
        acc = np.column_stack([np.full(5, 0.9), np.full(5, 0.1)])
        chi2, _ = ev.friedman_statistic(ev.RankMatrix(acc, ["a", "b"]))
        assert chi2 == pytest.approx(5.0, abs=1e-12)

    def test_identical_columns_zero_not_significant(self):
        acc = np.ones((4, 3))
        chi2, sig = ev.friedman_statistic(ev.RankMatrix(acc, ["a", "b", "c"]))
        assert chi2 == 0.0 and sig is False

    def test_three_by_three_hand_oracle(self):
        acc = [[0.9, 0.8, 0.7],
               [0.6, 0.9, 0.3],
               [0.5, 0.7, 0.6]]
        ranks = rank_rows_by_hand(acc)
        n, k = 3, 3
        avg = [sum(r[j] for r in ranks) / n for j in range(k)]
        chi2_hand = 12.0 * n / (k * (k + 1)) * (sum(a * a for a in avg)
                                                - k * (k + 1) ** 2 / 4.0)
        chi2, _ = ev.friedman_statistic(ev.RankMatrix(np.array(acc), list("abc")))
        assert chi2 == pytest.approx(chi2_hand, abs=1e-12)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            ev.friedman_statistic(ev.RankMatrix(np.ones((1, 3)), list("abc")))

    @pytest.mark.parametrize("df", range(1, 20))
    def test_survival_function_against_scipy(self, df):
        x = np.linspace(0.0, 100.0, 1001)
        ours = [ev.chi2_sf(float(v), df) for v in x]
        np.testing.assert_allclose(ours, sps.chi2.sf(x, df), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("alpha", [0.05, 0.10])
    def test_flag_matches_scipy_critical_value(self, alpha):
        rng = np.random.default_rng(0)
        flags = []
        for _ in range(300):
            k, n = int(rng.integers(2, 7)), int(rng.integers(2, 11))
            acc = rng.integers(0, 4, size=(n, k)).astype(float)
            chi2, significant = ev.friedman_statistic(ev.RankMatrix(acc, list("abcdef")[:k]),
                                                      alpha)
            assert significant == bool(chi2 > sps.chi2.ppf(1.0 - alpha, k - 1))
            flags.append(significant)
        assert any(flags) and not all(flags)


class TestNemenyi:
    def test_single_pair_six_scenarios(self):
        # q(2) = 1.960 so CD = 1.960 * sqrt(2*3/(6*6)) ~= 0.800
        assert ev.nemenyi_cd(2, 6) == pytest.approx(1.960 * np.sqrt(6 / 36.0), abs=1e-12)
        assert ev.nemenyi_cd(2, 6) == pytest.approx(0.800, abs=2e-3)

    def test_monotone_decreasing_in_scenarios(self):
        cds = [ev.nemenyi_cd(4, n) for n in (2, 5, 10, 100, 10_000)]
        assert all(a > b for a, b in zip(cds, cds[1:]))

    def test_doubling_scenarios_divides_by_sqrt2(self):
        assert ev.nemenyi_cd(5, 20) == pytest.approx(ev.nemenyi_cd(5, 10) / np.sqrt(2),
                                                     abs=1e-12)

    def test_k_out_of_table_rejected(self):
        with pytest.raises(ValueError):
            ev.nemenyi_cd(25, 5)
        with pytest.raises(ValueError):
            ev.nemenyi_cd(1, 5)

    @pytest.mark.parametrize("alpha", [0.05, 0.10])
    def test_table_against_studentized_range(self, alpha):
        # the embedded constants are q_{alpha,inf,k}/sqrt(2); cross-check
        # against scipy's studentized range at large df
        for k in (2, 3, 5, 10, 20):
            expected = sps.studentized_range.ppf(1 - alpha, k, 1e6) / np.sqrt(2)
            table_q = ev.nemenyi_cd(k, 6, alpha) / np.sqrt(k * (k + 1) / 36.0)
            assert table_q == pytest.approx(expected, abs=2e-3)

    def test_pairwise_flags(self):
        acc = np.column_stack([np.full(10, 0.9), np.full(10, 0.5),
                               np.linspace(0.49, 0.51, 10)])
        ranks = ev.RankMatrix(acc, list("abc"))
        sig, avg, cd = ev.nemenyi_pairwise(ranks)
        assert sig[0, 1] and sig[1, 0]
        assert not sig.diagonal().any()


class TestSummarize:
    def test_single_scenario_std_zero(self):
        rows = ev.summarize([ev.ScenarioResult("s0", {"a": 0.7})])
        assert rows[0]["std_acc"] == 0.0

    def test_constant_accuracies_std_zero(self):
        results = [ev.ScenarioResult(f"s{i}", {"a": 0.5}) for i in range(4)]
        assert ev.summarize(results)[0]["std_acc"] == 0.0

    def test_published_mean_and_std_convention(self):
        # five per-scenario accuracies whose published summary is
        # 86.73 +- 3.23; reproducing the 3.23 requires the sample (N-1) std
        vals = [90.31, 88.45, 87.78, 85.06, 82.04]
        results = [ev.ScenarioResult(f"s{i}", {"m": v}) for i, v in enumerate(vals)]
        row = ev.summarize(results)[0]
        assert row["mean_acc"] == pytest.approx(86.73, abs=5e-3)
        assert row["std_acc"] == pytest.approx(3.23, abs=5e-3)

    def test_csv_layout(self, tmp_path):
        results = [
            ev.ScenarioResult("s0", {"a": 0.8, "b": 0.7}, {"a": 3, "b": None},
                              {"a": 1.0, "b": None}),
            ev.ScenarioResult("s1", {"a": 0.9, "b": 0.6}, {"a": 2, "b": 5},
                              {"a": 1.0, "b": 0.4}),
        ]
        path = tmp_path / "summary.csv"
        ev.write_summary_csv(path, results)
        text = path.read_text()
        assert "sample standard deviation" in text
        assert "s0_acc" in text and "mean_acc" in text
        assert "None" in text  # never-reached targets visible


class TestScenarioBuilder:
    def test_target_defaults_to_baseline_floor(self):
        series = {"fedavg": [0.1, 0.43, 0.435], "other": [0.2, 0.3, 0.5]}
        res = ev.build_scenario_result("s0", series)
        # baseline best 0.435 floors to 0.43; first crossings follow
        assert res.rounds["fedavg"] == 1
        assert res.rounds["other"] == 2
        assert res.speedups["fedavg"] == 1.0
        assert res.speedups["other"] == pytest.approx(2 / 3)

    def test_speedup_undefined_when_target_missed(self):
        series = {"fedavg": [0.5, 0.6], "weak": [0.1, 0.2]}
        res = ev.build_scenario_result("s0", series)
        assert res.rounds["weak"] is None
        assert res.speedups["weak"] is None
