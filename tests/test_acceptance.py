"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line with the measured quantity next to its pinned tolerance.

Run with `pytest -s tests/test_acceptance.py` to see every line.

The desk-scale robustness comparison (criterion 8) runs FedAvg, FedProx,
and the full synergy method over five heterogeneity seeds; criterion 9
consumes the same accuracy table, so the runs are shared via a module
fixture, which spreads its 15 independent runs over the machine's cores.
"""
import dataclasses
import json
import multiprocessing
import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from fedsim import algorithms as alg
from fedsim import data as dat
from fedsim import eval as ev
from fedsim import nn
from fedsim import protocol as proto
from fedsim import runner
from fedsim.diag import comm_audit_report, grad_check_report, quadratic_oracle_report


def report(criterion, ok, detail):
    print(f"[criterion {criterion:>2}] {'PASS' if ok else 'FAIL'}  {detail}")
    return ok


# ---------------------------------------------------------------- 1
def test_criterion_1_gradient_correctness():
    tic = time.perf_counter()
    rep = grad_check_report(tolerance=1e-4, epsilon=1e-5, num_coords=64)
    elapsed = time.perf_counter() - tic
    ok = rep["passed"] and elapsed < 10.0
    assert report(1, ok, f"max rel error {rep['max_rel_error']:.2e} < 1e-4 over "
                         f"{len(rep['combos'])} lambda combos in {elapsed:.1f}s"), rep


# ---------------------------------------------------------------- 2
def test_criterion_2_reduction_identity(tmp_path):
    tic = time.perf_counter()
    base = runner.ExperimentConfig(
        num_classes=4, input_dim=6, n_per_class=60, separation=1.5, noise_std=0.8,
        rounds=20, num_clients=4, sample_rate=1.0, alpha=0.5,
        scenario_seeds=(0,), training_seeds=(0,), hidden=(16, 8),
        surrogate_n_per_class=16, out_dir=str(tmp_path))
    avg = runner.run_one(dataclasses.replace(base, algo="fedavg"),
                         0, 0, write_artifacts=False)
    ablated = runner.run_one(dataclasses.replace(
        base, algo="fedgps", lambda1=0.0, lambda2=0.0, lambda_g=0.0,
        surrogate_ce=0.0), 0, 0, write_artifacts=False)
    elapsed = time.perf_counter() - tic
    identical = avg.accuracy_series == ablated.accuracy_series
    ok = identical and elapsed < 30.0
    assert report(2, ok, f"20-round accuracy trajectories bit-exact={identical} "
                         f"in {elapsed:.1f}s")


# ---------------------------------------------------------------- 3
def test_criterion_3_quadratic_rectification_oracle():
    tic = time.perf_counter()
    rep = quadratic_oracle_report(dim=5, num_functions=6, lambda_g=0.5,
                                  seed=11, tolerance=1e-10)
    elapsed = time.perf_counter() - tic
    contracts = all(r["d_new"] < r["d0"] for r in rep["rows"] if r["d0"] > 0)
    ok = (rep["max_identity_err"] <= 1e-10 and rep["contraction_norm"] < 1.0
          and contracts and elapsed < 1.0)
    assert report(3, ok, f"identity err {rep['max_identity_err']:.2e} <= 1e-10, "
                         f"||I - lambda_g H||_2 = {rep['contraction_norm']:.3f} < 1, "
                         f"deviation shrinks for all clients, {elapsed:.2f}s"), rep


# ---------------------------------------------------------------- 4
def test_criterion_4_scale_invariance():
    model = nn.init_mlp(4, (6, 5), 3, np.random.default_rng(0))
    rng = np.random.default_rng(1)
    x = rng.standard_normal((6, 4))
    y = rng.integers(0, 3, size=6)

    def closure(m):
        return alg.ce_loss_and_grad(m, x, y, 1e-4)

    # entries carry power-of-two magnitudes so each tested scaling is
    # itself lossless; the normalization must then be bit-stable
    delta = np.ldexp(rng.choice([-1.0, 1.0], model.num_params),
                     rng.integers(-3, 9, model.num_params))
    base = alg.rectified_gradient(model, delta, 0.5, closure)
    scales = (0.1, 1.0, 10.0, 1e6)
    ok = all(np.array_equal(base, alg.rectified_gradient(model, s * delta, 0.5, closure))
             for s in scales)
    assert report(4, ok, f"rectified gradient bit-identical under scalings {scales}")


# ---------------------------------------------------------------- 5
def test_criterion_5_communication_audit():
    cases = [(1000, 10, 512), (3498, 10, 32), (25000, 100, 512)]
    ok = True
    for m, c, d in cases:
        p = c * d
        meter = proto.CommMeter()
        ok &= proto.meter_round(meter, "fedgps", m, c, d) == (2 * m + p, m + p)
        ok &= proto.meter_round(meter, "fedgps_cf", m, c, d) == (m + p, m + p)
        ok &= proto.meter_round(meter, "fedavg", m, c, d) == (m, m)
    assert report(5, ok, f"metered units match the closed forms for {cases}")


# ---------------------------------------------------------------- 6
def test_criterion_6_partition_invariants():
    rng = np.random.default_rng(5)
    labels = np.repeat(np.arange(10), 120)
    checked = 0
    for _ in range(50):
        alpha = float(rng.choice([0.05, 0.1, 0.5, 1.0, 10.0, 100.0]))
        k = int(rng.integers(2, 12))
        part = dat.dirichlet_partition(labels, k, alpha, int(rng.integers(1 << 30)))
        part.validate(len(labels))
        checked += 1

    entropies = {}
    for alpha in (0.05, 0.1, 100.0):
        vals = [dat.mean_client_entropy(
            dat.dirichlet_partition(labels, 10, alpha, seed), labels, 10)
            for seed in range(10)]
        entropies[alpha] = float(np.mean(vals))
    ordered = entropies[0.05] <= entropies[0.1] <= entropies[100.0]
    ok = checked == 50 and ordered
    assert report(6, ok, f"50/50 disjoint-cover, mean entropy "
                         f"{entropies[0.05]:.3f} <= {entropies[0.1]:.3f} "
                         f"<= {entropies[100.0]:.3f}")


# ---------------------------------------------------------------- 7
def test_criterion_7_non_self_exclusion():
    rng = np.random.default_rng(6)
    histories = 0
    for _ in range(20):
        server = proto.ServerState(global_params=np.zeros(12), eta_g=1.0)
        ids = sorted(int(v) for v in rng.choice(10, size=rng.integers(2, 7),
                                                replace=False))
        proto.aggregate(server, {k: rng.standard_normal(12) for k in ids})
        i = int(rng.choice(ids))
        before = {k: proto.non_self_gradient(server, k, 1.0, 0.01) for k in ids}
        server.prev_deltas[i] = server.prev_deltas[i] + rng.standard_normal(12)
        after = {k: proto.non_self_gradient(server, k, 1.0, 0.01) for k in ids}
        assert np.array_equal(before[i], after[i])
        for k in ids:
            if k != i:
                assert not np.array_equal(before[k], after[k])
        histories += 1
    assert report(7, histories == 20,
                  f"{histories}/20 histories: perturbing a client's delta never "
                  f"moves its own non-self gradient, always moves the others'")


# ------------------------------------------------------------- 8 & 9
SCENARIOS = (0, 1, 2, 3, 4)


def _desk_final(unit):
    cfg, scenario_seed = unit
    return runner.run_one(cfg, scenario_seed, 0, write_artifacts=False).final_acc


@pytest.fixture(scope="module")
def desk_comparison(tmp_path_factory):
    """Five-scenario desk benchmark shared by criteria 8 and 9.

    The synergy method runs with the published objective weights and a
    desk-recalibrated rectification: lambda_g = 0.2 (the published 0.5
    was tuned for models four orders of magnitude larger, where a fixed
    unit-norm offset is relatively tiny) and the sign convention of the
    communication-friendly formulas (the two published definitions of the
    non-self gradient disagree in sign; the config exposes the choice).
    """
    out = tmp_path_factory.mktemp("desk")
    base = runner.ExperimentConfig(
        num_classes=10, input_dim=16, n_per_class=500,  # 4000 train after holdout
        separation=0.8, noise_std=1.0,
        num_clients=10, sample_rate=0.5, rounds=150, local_epochs=1,
        alpha=0.1, scenario_seeds=SCENARIOS, training_seeds=(0,),
        eval_cadence=1, out_dir=str(out))
    configs = {algo: dataclasses.replace(base, algo=algo, **extra) for algo, extra in {
        "fedavg": {},
        "fedprox": {},
        "fedgps": dict(lambda_g=0.2, nsg_sign=-1.0),
    }.items()}
    units = [(cfg, ss) for cfg in configs.values() for ss in SCENARIOS]
    tic = time.perf_counter()
    with ProcessPoolExecutor(max_workers=min(os.cpu_count() or 1, len(units)),
                             mp_context=multiprocessing.get_context("spawn")) as pool:
        accs = list(pool.map(_desk_final, units))
    finals = {algo: np.array(accs[i * len(SCENARIOS):(i + 1) * len(SCENARIOS)])
              for i, algo in enumerate(configs)}
    return finals, time.perf_counter() - tic


def test_criterion_8_desk_scale_robustness(desk_comparison):
    finals, elapsed = desk_comparison
    gps, avg = finals["fedgps"], finals["fedavg"]
    mean_margin = gps.mean() - avg.mean()
    std_ok = gps.std(ddof=1) <= avg.std(ddof=1)
    mean_ok = mean_margin >= 0.01
    detail = (f"fedgps {gps.mean():.4f}+-{gps.std(ddof=1):.4f} vs "
              f"fedavg {avg.mean():.4f}+-{avg.std(ddof=1):.4f}; "
              f"margin {100 * mean_margin:+.2f}pt (need >= +1.00), "
              f"std ratio {gps.std(ddof=1) / avg.std(ddof=1):.2f} (need <= 1), "
              f"{elapsed:.0f}s (budget 600s)")
    ok = mean_ok and std_ok and elapsed < 600
    assert report(8, ok, detail), detail


def test_criterion_9_nemenyi_pipeline(desk_comparison):
    finals, _ = desk_comparison
    algos = sorted(finals)
    acc = np.column_stack([finals[a] for a in algos])
    ranks = ev.RankMatrix(acc, algos)

    # independent by-hand computation: explicit tie-averaged ranks and
    # direct formula substitution
    hand_rows = []
    for row in acc:
        ordered = sorted(row, reverse=True)
        hand_rows.append([ordered.index(v) + 1 + (ordered.count(v) - 1) / 2.0
                          for v in row])
    n, k = acc.shape
    hand_avg = [sum(r[j] for r in hand_rows) / n for j in range(k)]
    hand_chi2 = 12.0 * n / (k * (k + 1)) * (sum(a * a for a in hand_avg)
                                            - k * (k + 1) ** 2 / 4.0)
    hand_cd = 2.343 * np.sqrt(k * (k + 1) / (6.0 * n))  # q_0.05(3) = 2.343

    chi2, _ = ev.friedman_statistic(ranks)
    cd = ev.nemenyi_cd(k, n)
    row_sums_ok = np.allclose(ranks.ranks().sum(axis=1), k * (k + 1) / 2)
    ok = (abs(chi2 - hand_chi2) < 1e-9 and abs(cd - hand_cd) < 1e-9 and row_sums_ok)
    assert report(9, ok, f"chi2 {chi2:.6f} (hand {hand_chi2:.6f}), "
                         f"CD {cd:.6f} (hand {hand_cd:.6f}), rank rows sum to "
                         f"{k * (k + 1) / 2:.0f}")


# ---------------------------------------------------------------- 10
def test_criterion_10_run_determinism(tmp_path):
    cfg = runner.ExperimentConfig(
        num_classes=4, input_dim=6, n_per_class=50, separation=1.5, noise_std=0.8,
        rounds=5, num_clients=4, sample_rate=0.5, alpha=0.5,
        scenario_seeds=(0,), training_seeds=(0,), hidden=(12, 6),
        surrogate_n_per_class=12, algo="fedgps", divergence_cadence=2,
        out_dir=str(tmp_path / "runs"))

    def numeric_bytes():
        runner.run_one(cfg, 0, 0)
        rows = []
        path = tmp_path / "runs" / "fedgps_s0_t0" / "rounds.jsonl"
        for line in path.read_text().splitlines():
            rec = json.loads(line)
            rec.pop("wallclock_ms")
            rows.append(json.dumps(rec, sort_keys=True))
        return "\n".join(rows).encode()

    first = numeric_bytes()
    second = numeric_bytes()
    ok = first == second
    assert report(10, ok, f"two invocations, {len(first)} numeric-field bytes, "
                          f"byte-identical={ok}")
