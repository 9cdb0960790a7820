"""tools/ab.py's paired statistics, fed canned pass results."""
import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab.py"
spec = importlib.util.spec_from_file_location("ab", TOOL)
ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab)

SETUP = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
ACC = {"name": "final_acc", "unit": "fraction", "better": "higher", "bound": 0.2}


def canned(correct=True, failed=0, **metrics):
    return {"correct": correct, "attempted": 1, "failed": failed, "metrics": metrics}


def pairs_of(base, change):
    return [{"first": "base" if i % 2 == 0 else "change",
             "base": canned(setup_s=b, final_acc=0.8), "change": canned(setup_s=c, final_acc=0.8)}
            for i, (b, c) in enumerate(zip(base, change))]


def test_quartiles_interpolate_linearly():
    assert ab.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert ab.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert ab.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_lower_is_better_counts_wins_losses_and_ties():
    s = ab.compare(pairs_of([0.20, 0.22, 0.24, 0.20, 0.21], [0.10, 0.11, 0.24, 0.30, 0.105]),
                   SETUP)
    assert (s["wins"], s["losses"], s["ties"]) == (3, 1, 1)
    assert s["base"] == {"q1": 0.2, "median": 0.21, "q3": 0.22}
    assert s["change"]["median"] == 0.11
    assert s["median_ratio"] == pytest.approx(0.5)  # ratios 0.5 0.5 1 1.5 0.5
    assert not s["gain"]  # 3/5 wins is under nine tenths
    assert s["within_bound"]


def test_gain_needs_nine_tenths_of_wins_and_a_gap_beyond_the_base_iqr():
    base = [0.20, 0.21, 0.22, 0.23, 0.24, 0.20, 0.21, 0.22, 0.23, 0.24]
    assert ab.compare(pairs_of(base, [b - 0.07 for b in base]), SETUP)["gain"]
    # every pair won, but by less than the base's interquartile range of 0.02
    narrow = ab.compare(pairs_of(base, [b - 0.01 for b in base]), SETUP)
    assert narrow["wins"] == 10 and not narrow["gain"]
    # nine wins and one tie still clear nine tenths
    almost = [b - 0.07 for b in base[:9]] + [base[9]]
    assert ab.compare(pairs_of(base, almost), SETUP)["gain"]


def test_higher_is_better_and_all_ties():
    pairs = pairs_of([0.2] * 4, [0.3] * 4)
    s = ab.compare(pairs, ACC)
    assert (s["wins"], s["losses"], s["ties"]) == (0, 0, 4)
    assert s["median_ratio"] == 1.0 and not s["gain"] and s["within_bound"]
    pairs[0]["change"]["metrics"]["final_acc"] = 0.9
    pairs[1]["change"]["metrics"]["final_acc"] = 0.5
    s = ab.compare(pairs, ACC)
    assert (s["wins"], s["losses"], s["ties"]) == (1, 1, 2)


def test_bootstrap_interval_of_the_median_ratio():
    # identical ratios leave nothing to resample: a zero-width interval
    s = ab.compare(pairs_of([0.2] * 6, [0.1] * 6), SETUP, seed=3)
    assert s["median_ratio"] == 0.5 and s["ratio_interval"] == (0.5, 0.5)
    ratios = [0.9, 1.1, 0.95, 1.02, 0.98, 1.3, 0.99, 1.01]
    low, high = ab.bootstrap_interval(ratios, seed=7)
    assert min(ratios) <= low <= 1.0 <= high <= max(ratios) and low < high
    assert ab.bootstrap_interval(ratios, seed=7) == (low, high)  # the seed fixes it
    assert ab.bootstrap_interval([], seed=7) is None
    assert "ratio 0.500 [0.500, 0.500]" in ab.summary_line(s)


def test_within_bound_is_relative_to_the_base_median():
    assert ab.compare(pairs_of([1.0] * 3, [1.24] * 3), SETUP)["within_bound"]
    assert not ab.compare(pairs_of([1.0] * 3, [1.26] * 3), SETUP)["within_bound"]


def test_failures_name_every_incorrect_or_failed_pass():
    pairs = pairs_of([0.2] * 3, [0.1] * 3)
    pairs[1]["change"]["correct"] = False
    pairs[2]["base"]["failed"] = 1
    assert ab.failures(pairs) == ["pair 1 change: correct=False failed=0",
                                  "pair 2 base: correct=True failed=1"]


def make_tree(root: Path, bench: str) -> Path:
    (root / "fedbench").mkdir(parents=True)
    (root / "fedbench" / "run.py").write_text("# the same harness\n")
    (root / "BENCHMARK.json").write_text(bench)
    return root


@pytest.fixture
def trees(tmp_path, monkeypatch):
    bench = json.dumps({"workloads": [{"name": "w"}], "end_to_end": [SETUP, ACC]})
    base, change = make_tree(tmp_path / "base", bench), make_tree(tmp_path / "change", bench)
    monkeypatch.setattr(ab, "desk_checkpoints", lambda tree: {"fedavg": tree.name})
    monkeypatch.setattr(ab, "git_commit", lambda tree: None)
    return base, change


def test_main_alternates_order_and_writes_the_record(trees, monkeypatch, tmp_path):
    base, change = trees
    calls = []

    def fake_run(tree, workload, seed):
        calls.append(tree.name)
        return canned(setup_s=0.2 if tree.name == "base" else 0.1, final_acc=0.8)

    monkeypatch.setattr(ab, "run_pass", fake_run)
    out = tmp_path / "ab.json"
    assert ab.main([str(base), str(change), "--seed", "5", "--pairs", "3", "--out", str(out)]) == 0
    assert calls == ["base", "change", "change", "base", "base", "change"]
    record = json.loads(out.read_text())
    assert record["desk_checkpoints"] == {"base": {"fedavg": "base"},
                                          "change": {"fedavg": "change"}}
    assert record["workloads"]["w"]["metrics"]["setup_s"]["wins"] == 3
    assert record["workloads"]["w"]["metrics"]["setup_s"]["ratio_interval"] == [0.5, 0.5]
    assert record["failures"] == []


def test_main_exits_nonzero_on_an_incorrect_pass(trees, monkeypatch):
    monkeypatch.setattr(ab, "run_pass", lambda tree, workload, seed: canned(
        correct=tree.name == "base", setup_s=0.2, final_acc=0.8))
    assert ab.main([str(t) for t in trees] + ["--seed", "5", "--pairs", "2"]) == 1


def test_main_refuses_trees_whose_benchmarks_differ(trees, monkeypatch):
    base, change = trees
    (change / "fedbench" / "run.py").write_text("# an edited harness\n")
    monkeypatch.setattr(ab, "run_pass", lambda *a: pytest.fail("ran a pass"))
    assert ab.main([str(base), str(change), "--seed", "5"]) == 2
