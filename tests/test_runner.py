"""Config handling, seed-stream isolation, run artifacts, determinism,
and the command-line surface."""
import dataclasses
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from fedsim import cli, nn, runner
from fedsim import protocol as proto


def write_csv(tmp_path):
    """A 3-class CSV dataset of 90 rows, 3 features each."""
    rows = ["f0,f1,f2,label"]
    rng = np.random.default_rng(0)
    for c in range(3):
        for _ in range(30):
            feats = rng.standard_normal(3) + 3 * c
            rows.append(",".join(f"{v:.5f}" for v in feats) + f",{c}")
    path = tmp_path / "ds.csv"
    path.write_text("\n".join(rows) + "\n")
    return path


def small_config(tmp_path, **overrides):
    base = dict(num_classes=4, input_dim=6, n_per_class=40, separation=2.0,
                noise_std=0.8, rounds=3, num_clients=4, sample_rate=0.5,
                alpha=0.5, scenario_seeds=(0,), training_seeds=(0,),
                hidden=(12, 6), surrogate_n_per_class=8, algo="fedavg",
                out_dir=str(tmp_path / "runs"))
    base.update(overrides)
    return runner.ExperimentConfig(**base)


class TestConfigValidation:
    def test_all_violations_reported_at_once(self, tmp_path):
        cfg = small_config(tmp_path)
        cfg.rounds = 0
        cfg.algo = "fedmagic"
        cfg.sample_rate = 2.0
        cfg.test_fraction = 1.5
        cfg.eta_l = 0
        cfg.nsg_sign = 2
        with pytest.raises(runner.ConfigError) as err:
            cfg.validate()
        msg = str(err.value)
        for fragment in ("rounds", "algo", "sample_rate", "test_fraction",
                         "eta_l must be > 0", "nsg_sign must be +1 or -1"):
            assert fragment in msg

    def test_hyper_carries_every_hyper_field(self, tmp_path):
        cfg = small_config(tmp_path, lambda1=0.3, lambda_g=0.2, nsg_sign=-1.0, prox_mu=0.4,
                           batch_size=16, local_epochs=2, momentum=0.5, surrogate_ce=0.0)
        hyper = cfg.hyper()
        for f in dataclasses.fields(hyper):
            assert getattr(hyper, f.name) == getattr(cfg, f.name)

    def test_rectification_needs_two_clients(self, tmp_path):
        cfg = small_config(tmp_path, algo="fedgps", sample_rate=0.25)
        with pytest.raises(runner.ConfigError, match="rectification"):
            cfg.validate()

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(runner.ExperimentConfig)
                                       if f.type == "float"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_float_field_rejected(self, tmp_path, field, value):
        cfg = small_config(tmp_path, **{field: value})
        with pytest.raises(runner.ConfigError, match=f"{field} must be finite"):
            cfg.validate()

    @pytest.mark.parametrize("field,value,message", [
        ("momentum", -0.1, "momentum must be in [0, 1)"),
        ("momentum", 1.0, "momentum must be in [0, 1)"),
        ("momentum", 1.5, "momentum must be in [0, 1)"),
        ("prox_mu", -1.0, "prox_mu must be >= 0"),
        ("fedavgm_beta", -0.5, "fedavgm_beta must be in [0, 1)"),
        ("fedavgm_beta", 1.0, "fedavgm_beta must be in [0, 1)"),
        ("fedavgm_beta", 2.0, "fedavgm_beta must be in [0, 1)")])
    def test_training_knob_out_of_range_rejected(self, tmp_path, field, value, message):
        cfg = small_config(tmp_path, **{field: value})
        with pytest.raises(runner.ConfigError) as err:
            cfg.validate()
        assert message in str(err.value)

    def test_training_knob_edges_accepted(self, tmp_path):
        small_config(tmp_path, momentum=0.0, prox_mu=0.0, fedavgm_beta=0.0).validate()

    def test_load_config_rejects_every_knob_at_once(self):
        with pytest.raises(runner.ConfigError) as err:
            runner.load_config(None, {"prox_mu": "-1", "momentum": "1.5", "fedavgm_beta": "2",
                                      "eta_g": "0", "scenario_seeds": "0,0",
                                      "training_seeds": "1 1"})
        for message in ("prox_mu must be >= 0", "momentum must be in [0, 1)",
                        "fedavgm_beta must be in [0, 1)", "eta_g must be > 0",
                        "scenario_seeds must not repeat a seed",
                        "training_seeds must not repeat a seed"):
            assert message in str(err.value)

    def test_training_fields_declared_once(self):
        from fedsim.algorithms import FedGpsHyper
        own = set(runner.ExperimentConfig.__annotations__)
        assert own.isdisjoint(f.name for f in dataclasses.fields(FedGpsHyper))
        # an added or removed option shows here by name
        assert sorted(own) == [
            "algo", "alpha", "classes_per_client", "csv_path", "data_seed", "dataset_kind",
            "divergence_cadence", "eta_g", "eval_cadence", "fedavgm_beta", "hidden",
            "images_path", "input_dim", "labels_path", "n_per_class", "noise_std",
            "num_classes", "num_clients", "out_dir", "partition_kind", "rounds",
            "sample_rate", "scenario_seeds", "separation", "surrogate_mean_scale",
            "surrogate_n_per_class", "surrogate_seed", "surrogate_std", "test_fraction",
            "training_seeds", "workers"]
        assert runner.ExperimentConfig().hyper() == FedGpsHyper()

    def test_default_config_hash_pinned(self):
        # run directories echo this hash; a reordered or re-declared field must not move it
        assert (runner.config_sha1(runner.ExperimentConfig())
                == "161f518fb2f05ebabd067a99af4417b799f31570")

    def test_removed_prototype_agg_key_is_unknown(self):
        with pytest.raises(runner.ConfigError, match="unknown config key: prototype_agg"):
            runner.load_config(None, {"prototype_agg": "mean"})

    def test_cn_clients_must_cover_every_class(self):
        # the rule cn_partition raises, reported before any data is built
        with pytest.raises(runner.ConfigError,
                           match="cannot cover 4 classes with 2 clients holding 1 each"):
            runner.load_config(None, {"partition_kind": "cn", "num_classes": "4",
                                      "num_clients": "2", "classes_per_client": "1"})

    def test_missing_files_reported(self, tmp_path):
        cfg = small_config(tmp_path, dataset_kind="idx",
                           images_path=str(tmp_path / "nope.idx"),
                           labels_path=str(tmp_path / "nope2.idx"))
        with pytest.raises(runner.ConfigError, match="not found"):
            cfg.validate()


class TestConfigFile:
    def test_file_plus_override_precedence(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(
            "[experiment]\nrounds = 7\nalgo = fedprox\n"
            "[dataset]\nnum_classes = 3\nseparation = 1.5\n"
            "[sweep]\nscenario_seeds = 1, 2\n")
        cfg = runner.load_config(path, {"rounds": "9"})
        assert cfg.rounds == 9  # flag wins
        assert cfg.algo == "fedprox"
        assert cfg.num_classes == 3
        assert cfg.scenario_seeds == (1, 2)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[experiment]\nwat = 1\n")
        with pytest.raises(runner.ConfigError, match="unknown config key"):
            runner.load_config(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(runner.ConfigError, match="not found"):
            runner.load_config(tmp_path / "ghost.ini")


class TestSeedStreams:
    def test_named_streams_are_independent(self):
        a = runner.stream(5, "partition").standard_normal(4)
        b = runner.stream(5, "selection").standard_normal(4)
        assert not np.array_equal(a, b)

    def test_same_name_same_draws(self):
        assert np.array_equal(runner.stream(5, "init").standard_normal(4),
                              runner.stream(5, "init").standard_normal(4))

    def test_partition_unchanged_by_algorithm_choice(self, tmp_path):
        af = small_config(tmp_path, algo="fedavg")
        ag = small_config(tmp_path, algo="fedgps")
        pa = runner.build_partition(af, np.repeat(np.arange(4), 30), 3)
        pb = runner.build_partition(ag, np.repeat(np.arange(4), 30), 3)
        for s1, s2 in zip(pa.shards, pb.shards):
            assert np.array_equal(s1, s2)


class TestRunArtifacts:
    def test_single_round_smoke(self, tmp_path):
        cfg = small_config(tmp_path, rounds=1, num_clients=2, sample_rate=1.0)
        result = runner.run_one(cfg, 0, 0)
        run_dir = tmp_path / "runs" / "fedavg_s0_t0"
        lines = (run_dir / "rounds.jsonl").read_text().splitlines()
        assert len(lines) == 1
        record = json.loads(lines[0])
        for key in ("round", "selected", "test_acc", "comm_down", "comm_up",
                    "divergence", "wallclock_ms"):
            assert key in record
        model = nn.load_checkpoint(run_dir / "checkpoint.bin")
        assert model.num_params > 0
        assert (run_dir / "config.json").exists()
        assert (run_dir / "config.sha1").exists()
        assert (run_dir / "partition.jsonl").exists()
        meta = json.loads((run_dir / "checkpoint.meta.json").read_text())
        assert meta["round"] == 1 and meta["algo"] == "fedavg"
        assert not result.diverged

    def test_repeat_invocation_byte_identical_minus_wallclock(self, tmp_path):
        cfg = small_config(tmp_path, rounds=4, algo="fedgps", sample_rate=0.5)
        runner.run_one(cfg, 0, 0)
        first = (tmp_path / "runs" / "fedgps_s0_t0" / "rounds.jsonl").read_text()
        runner.run_one(cfg, 0, 0)
        second = (tmp_path / "runs" / "fedgps_s0_t0" / "rounds.jsonl").read_text()

        def strip(text):
            rows = []
            for line in text.splitlines():
                rec = json.loads(line)
                rec.pop("wallclock_ms")
                rows.append(json.dumps(rec, sort_keys=True))
            return "\n".join(rows)

        assert strip(first) == strip(second)

    def test_env_var_moves_output_root(self, tmp_path, monkeypatch):
        root = tmp_path / "elsewhere"
        monkeypatch.setenv(runner.ENV_OUTPUT_ROOT, str(root))
        cfg = small_config(tmp_path, out_dir="named")
        runner.run_one(cfg, 0, 0)
        assert (root / "named" / "fedavg_s0_t0" / "rounds.jsonl").exists()

    def test_run_sweep_and_scan(self, tmp_path):
        cfg = small_config(tmp_path, scenario_seeds=(0, 1))
        results = runner.run(cfg)
        assert len(results) == 2
        assert (tmp_path / "runs" / "summary.csv").exists()
        scanned = runner.scan_results(tmp_path / "runs")
        assert set(scanned) == {"fedavg"}
        assert len(scanned["fedavg"]) == 2
        by_seed = {r.scenario_seed: r for r in scanned["fedavg"]}
        for r in results:
            again = by_seed[r.scenario_seed]
            assert again.accuracy_series == r.accuracy_series
            assert (again.best_acc, again.final_acc) == (r.best_acc, r.final_acc)
            assert again.diverged_at is None

    def test_accuracies_derived_from_series(self):
        def result(series):
            return runner.RunResult("fedavg", 0, 0, series, "x")
        assert (result([0.2, None, 0.5, 0.4, None]).best_acc,
                result([0.2, None, 0.5, 0.4, None]).final_acc) == (0.5, 0.4)
        assert (result([None, None]).best_acc, result([]).final_acc) == (0.0, 0.0)

    def test_ragged_series_summarized(self):
        """A run that diverged in round 0 and training seeds that stopped at
        different rounds are padded with their last value, or 0.0."""
        def result(algo, ts, series):
            return runner.RunResult(algo, 0, ts, series, "x")
        scenarios = runner.results_to_scenarios({
            "fedavg": [result("fedavg", 0, [0.4, 0.6, 0.5]), result("fedavg", 1, [0.2])],
            "fedprox": [result("fedprox", 0, [])]})
        assert scenarios[0].acc == {"fedavg": 0.4, "fedprox": 0.0}
        assert scenarios[0].rounds == {"fedavg": 1, "fedprox": None}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_flagged(self, tmp_path):
        cfg = small_config(tmp_path, eta_l=1e154, rounds=2)
        result = runner.run_one(cfg, 0, 0)
        assert result.diverged

    @pytest.mark.parametrize("algo", ["fedgps", "fedgps_cf"])
    @pytest.mark.parametrize("eta_l", [1e5, 1e50, 1e300])
    def test_diverging_monitored_run_writes_strict_json(self, tmp_path, algo, eta_l):
        # the last record's divergence comes from non-finite prototypes
        cfg = runner.ExperimentConfig(
            num_classes=3, input_dim=3, n_per_class=20, num_clients=4, hidden=(8, 4),
            divergence_cadence=1, rounds=5, eta_l=eta_l, algo=algo, out_dir=str(tmp_path))
        result = runner.run_one(cfg, 0, 0)
        lines = (Path(result.run_dir) / "rounds.jsonl").read_text().splitlines()
        records = [strict_json(line) for line in lines]
        assert result.diverged
        last = records[-1]
        assert last["divergence"] is None

    @pytest.mark.parametrize("algo", runner.ALGORITHMS)
    def test_every_record_has_the_same_fields(self, tmp_path, algo):
        cfg = small_config(tmp_path, algo=algo, divergence_cadence=1)
        result = runner.run_one(cfg, 0, 0)
        lines = (Path(result.run_dir) / "rounds.jsonl").read_text().splitlines()
        assert len(lines) == cfg.rounds
        for line in lines:
            assert json.loads(line).keys() == {"round", "selected", "test_acc", "comm_down",
                                               "comm_up", "divergence", "wallclock_ms"}

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_scan_reads_back_where_a_run_diverged(self, tmp_path):
        cfg = runner.ExperimentConfig(
            algo="fedavg", num_classes=3, input_dim=4, n_per_class=20, hidden=(8, 4),
            rounds=3, num_clients=4, sample_rate=0.5, alpha=0.5, batch_size=16, eta_l=1e154,
            surrogate_n_per_class=8, out_dir=str(tmp_path))
        result = runner.run_one(cfg, 0, 0)
        assert result.diverged_at == (1, 2)
        [scanned] = runner.scan_results(tmp_path)["fedavg"]
        assert scanned.diverged_at == result.diverged_at and scanned.diverged
        meta = json.loads((Path(result.run_dir) / "checkpoint.meta.json").read_text())
        assert meta["diverged"] and meta["diverged_at"] == [1, 2]

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 4")
    def test_last_round_that_overflows_the_loss_is_flagged(self, tmp_path):
        # The one round leaves a finite checkpoint (max |theta| about 2.6e294)
        # at which cross-entropy on the training set overflows and raises. A
        # step checks the loss only at its own start, so the last step's end
        # point goes unchecked and the run ends with diverged_at None.
        cfg = runner.ExperimentConfig(
            algo="fedavg", num_classes=3, input_dim=4, n_per_class=20, hidden=(8, 4),
            rounds=1, num_clients=4, sample_rate=0.5, alpha=0.5, batch_size=16, eta_l=1e150,
            surrogate_n_per_class=8, out_dir=str(tmp_path))
        assert runner.run_one(cfg, 0, 0).diverged_at is not None


def strict_json(line):
    """`json.loads`, refusing the NaN and Infinity tokens that strict JSON lacks."""
    def refuse(token):
        raise ValueError(f"not strict JSON: {token}")
    return json.loads(line, parse_constant=refuse)


class TestCli:
    def test_run_subcommand_smoke(self, tmp_path, capsys):
        code = cli.main(["run", "--rounds", "1", "--num-clients", "2",
                         "--sample-rate", "1.0", "--num-classes", "3",
                         "--input-dim", "4", "--n-per-class", "20",
                         "--hidden", "8 4", "--scenario-seeds", "0",
                         "--algo", "fedavg", "--out-dir", str(tmp_path / "o")])
        assert code == 0
        assert "best_acc" in capsys.readouterr().out

    def test_removed_prototype_agg_flag_is_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--prototype-agg", "mean", "--out-dir", str(tmp_path / "o")])
        assert exc.value.code == cli.EXIT_CONFIG
        assert "--prototype-agg" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_run_rejects_bad_config(self, tmp_path, capsys):
        code = cli.main(["run", "--rounds", "0", "--out-dir", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG

    @pytest.mark.parametrize("flag,raw", [("--rounds", "abc"), ("--hidden", "64,x"),
                                          ("--eta-l", "fast")])
    def test_unparsable_flag_is_config_error(self, tmp_path, capsys, flag, raw):
        code = cli.main(["run", flag, raw, "--out-dir", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert flag[2:].replace("-", "_") in err and repr(raw) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag", ["--eta-l", "--lambda2", "--noise-std", "--separation",
                                      "--surrogate-mean-scale", "--surrogate-std"])
    def test_nan_hyperparameter_is_config_error(self, tmp_path, capsys, flag):
        code = cli.main(["run", flag, "nan", "--out-dir", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG
        assert f"{flag[2:].replace('-', '_')} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag,raw,message", [
        ("--prox-mu", "-1", "prox_mu must be >= 0"),
        ("--momentum", "1.5", "momentum must be in [0, 1)"),
        ("--momentum", "-0.5", "momentum must be in [0, 1)"),
        ("--fedavgm-beta", "2", "fedavgm_beta must be in [0, 1)"),
        ("--fedavgm-beta", "1", "fedavgm_beta must be in [0, 1)"),
        ("--eta-g", "0", "eta_g must be > 0"),
        ("--scenario-seeds", "0,0", "scenario_seeds must not repeat a seed")])
    def test_training_knob_out_of_range_is_config_error(self, tmp_path, capsys, flag, raw,
                                                        message):
        code = cli.main(["run", f"{flag}={raw}", "--out-dir", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_cn_clients_short_of_the_classes_is_config_error(self, tmp_path, capsys):
        code = cli.main(["run", "--partition-kind", "cn", "--num-classes", "4",
                         "--num-clients", "2", "--classes-per-client", "1",
                         "--out-dir", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("invalid config") and "cannot cover 4 classes" in err
        assert not (tmp_path / "o").exists()

    def test_csv_without_a_feature_column_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "labels.csv"
        path.write_text("label\n" + "\n".join("0 1 2".split() * 10) + "\n")
        code = cli.main(["run", "--dataset-kind", "csv", "--csv-path", str(path),
                         "--num-clients", "4", "--rounds", "1", "--scenario-seeds", "0",
                         "--algo", "fedavg", "--out-dir", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "no feature column" in err and str(path) in err
        assert "class means" not in err and "Traceback" not in err

    @pytest.mark.parametrize("flag,raw", [
        ("--hidden", "0"), ("--hidden", "8,-3"), ("--data-seed", "-1"),
        ("--surrogate-seed", "-1"), ("--scenario-seeds", "0,-1"), ("--training-seeds", "-2")])
    def test_width_or_seed_out_of_range_is_config_error(self, tmp_path, capsys, flag, raw):
        code = cli.main(["run", f"{flag}={raw}", "--out-dir", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert flag[2:].replace("-", "_") in err and "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("bad", ["1.7", "nan"])
    def test_bad_csv_row_is_data_error(self, tmp_path, bad, capsys):
        path = write_csv(tmp_path)
        lines = path.read_text().splitlines()
        fields = lines[5].split(",")
        fields[-1 if bad == "1.7" else 0] = bad  # a fractional label or a NaN feature
        lines[5] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        code = cli.main(["run", "--dataset-kind", "csv", "--csv-path", str(path),
                         "--num-clients", "4", "--rounds", "1", "--scenario-seeds", "0",
                         "--algo", "fedavg", "--out-dir", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "line 6" in err and "Traceback" not in err

    def test_classes_per_client_beyond_file_classes_is_config_error(self, tmp_path, capsys):
        # checked against the file's 3 classes, not num_classes (10), which only blobs use
        code = cli.main(["run", "--dataset-kind", "csv", "--csv-path", str(write_csv(tmp_path)),
                         "--partition-kind", "cn", "--classes-per-client", "15",
                         "--num-clients", "4", "--rounds", "1", "--scenario-seeds", "0",
                         "--algo", "fedavg", "--out-dir", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG
        assert "classes_per_client must be in [1, 3]" in capsys.readouterr().err

    def test_unparsable_ini_value_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "exp.ini"
        path.write_text("[sweep]\nscenario_seeds = 0, one\n")
        code = cli.main(["run", "--config", str(path), "--out-dir", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "scenario_seeds" in err and "'0, one'" in err

    def test_diag_comm_audit_prints_expected_units(self, capsys):
        code = cli.main(["diag", "comm-audit", "--M", "1000", "--C", "10",
                         "--embed-dim", "512"])
        out = capsys.readouterr().out
        assert code == 0
        assert "down=7120" in out and "up=6120" in out

    def test_diag_quadratic_oracle(self, capsys):
        assert cli.main(["diag", "quadratic-oracle"]) == 0
        assert "identity err" in capsys.readouterr().out
        # the parser offers exactly the suites the table runs
        assert list(cli.DIAG_SUITES) == ["grad-check", "quadratic-oracle", "comm-audit"]
        with pytest.raises(SystemExit) as exc:
            cli.main(["diag", "triangle"])
        assert exc.value.code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "usage:" in err and "invalid choice" in err and "triangle" in err

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_diag_non_finite_lambda_g_is_usage_error(self, value, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["diag", "quadratic-oracle", f"--lambda-g={value}"])
        assert exc.value.code == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert "usage:" in captured.err and "--lambda-g" in captured.err
        assert "Traceback" not in captured.err and captured.out == ""

    def test_diag_failure_exit_code(self, monkeypatch, capsys):
        monkeypatch.setattr("fedsim.diag.quadratic_oracle_report",
                            lambda **kw: {"passed": False, "max_identity_err": 1.0,
                                          "tolerance": 0.0, "contraction_norm": 2.0,
                                          "rows": []})
        assert cli.main(["diag", "quadratic-oracle"]) == cli.EXIT_DIAG_FAIL

    def test_summarize_and_nemenyi_over_sweep(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        for algo in ("fedavg", "fedprox"):
            cfg = small_config(tmp_path, algo=algo, scenario_seeds=(0, 1),
                               out_dir=str(out))
            runner.run(cfg)
        assert cli.main(["summarize", str(out)]) == 0
        assert (out / "summary.csv").exists()
        assert cli.main(["nemenyi", str(out)]) == 0
        text = capsys.readouterr().out
        assert "friedman chi2=" in text and "critical distance=" in text
        assert (out / "nemenyi.csv").exists()
        assert cli.main(["nemenyi", str(out), "--alpha", "0.1"]) == 0
        assert "alpha=0.1" in capsys.readouterr().out
        # the Nemenyi table holds only these two levels
        with pytest.raises(SystemExit) as exc:
            cli.main(["nemenyi", str(out), "--alpha", "0.2"])
        assert exc.value.code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "usage:" in err and "invalid choice" in err

    def test_nemenyi_keeps_scenarios_every_algorithm_ran(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        for algo, seeds in (("fedavg", (0, 1, 2)), ("fedprox", (0, 1))):
            runner.run(small_config(tmp_path, algo=algo, scenario_seeds=seeds,
                                    out_dir=str(out)))
        capsys.readouterr()
        assert cli.main(["nemenyi", str(out)]) == 0
        captured = capsys.readouterr()
        assert "scenario2" in captured.err and "scenario0" not in captured.err
        assert "N=2, k=2" in captured.out
        # two algorithms sharing one scenario is too few to rank
        lone = tmp_path / "lone"
        for algo, seeds in (("fedavg", (0, 1)), ("fedprox", (0,))):
            runner.run(small_config(tmp_path, algo=algo, scenario_seeds=seeds,
                                    out_dir=str(lone)))
        capsys.readouterr()
        assert cli.main(["nemenyi", str(lone)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "scenario1" in err and "need at least 2" in err
        assert not (lone / "nemenyi.csv").exists()

    @pytest.mark.parametrize("flag,value", [("--M", "0"), ("--M", "-5"), ("--C", "0"),
                                            ("--embed-dim", "-1"), ("--M", "many")])
    def test_diag_comm_audit_rejects_non_positive_sizes(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["diag", "comm-audit", flag, value])
        assert exc.value.code == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "usage:" in err and flag in err and "Traceback" not in err

    @pytest.mark.parametrize("flags", [["--C", "7"], ["--embed-dim", "3"],
                                       ["--C", "7", "--embed-dim", "3"]])
    def test_diag_comm_audit_sizes_need_model_size(self, flags, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["diag", "comm-audit", *flags])
        assert exc.value.code == cli.EXIT_CONFIG
        captured = capsys.readouterr()
        assert "usage:" in captured.err and "need --M" in captured.err
        assert captured.out == ""

    def test_diag_comm_audit_sizes_default_with_model_size(self, capsys):
        assert cli.main(["diag", "comm-audit", "--M", "5", "--C", "7"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 6 and all("C=7 " in row and "d=512 " in row for row in rows)

    def test_diag_comm_audit_custom_case_only(self, capsys):
        assert cli.main(["diag", "comm-audit", "--M", "1", "--C", "1",
                         "--embed-dim", "1"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert len(rows) == 6 and all("M=1 " in row for row in rows)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("eta_l", ["1e154", "1e200"])
    # one local step a round, diverging in round 1, or two, diverging in round 0
    @pytest.mark.parametrize("n_per_class", ["20", "40"])
    def test_run_diverged_exit_code(self, tmp_path, capsys, eta_l, n_per_class):
        code = cli.main(["run", "--rounds", "2", "--num-clients", "2",
                         "--sample-rate", "1.0", "--num-classes", "3",
                         "--input-dim", "4", "--n-per-class", n_per_class,
                         "--hidden", "8 4", "--scenario-seeds", "0",
                         "--eta-l", eta_l, "--algo", "fedavg",
                         "--out-dir", str(tmp_path / "o")])
        assert code == cli.EXIT_DIVERGED
        assert (tmp_path / "o" / "summary.csv").exists()
        round_index = {"20": 1, "40": 0}[n_per_class]
        assert f" DIVERGED at round {round_index}, client 0 -> " in capsys.readouterr().out

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("algo", ["fedgps", "fedgps_cf"])
    def test_rectified_run_diverges_without_warnings(self, tmp_path, algo):
        # diverges after round 0: the shift, the non-self gradient and the
        # prototypes all meet non-finite values first
        code = cli.main(["run", "--algo", algo, "--eta-l", "1e200", "--rounds", "3",
                         "--num-clients", "2", "--sample-rate", "1.0", "--num-classes", "3",
                         "--input-dim", "4", "--n-per-class", "20", "--hidden", "8 4",
                         "--scenario-seeds", "0", "--out-dir", str(tmp_path / "o")])
        assert code == cli.EXIT_DIVERGED
        meta = json.loads((tmp_path / "o" / f"{algo}_s0_t0" / "checkpoint.meta.json").read_text())
        assert meta["diverged"] and meta["round"] >= 1


class TestSpecSurfaces:
    def test_published_hyperparameters_accepted_as_defaults(self, tmp_path):
        from fedsim.algorithms import FedGpsHyper
        hyper = FedGpsHyper()
        assert (hyper.lambda1, hyper.lambda2, hyper.lambda_g) == (0.1, 0.2, 0.5)
        assert hyper.lambda3 == 1e-5 and hyper.momentum == 0.9
        assert hyper.prox_mu == 0.125
        cfg = small_config(tmp_path)
        assert cfg.eta_g == 1.0 and cfg.fedavgm_beta == 0.9

    def test_worker_pool_matches_sequential(self, tmp_path):
        """One pool over every (algo x scenario) unit gives the serial sweep's
        series and byte-identical summary and rank files."""
        out = {}
        for workers in (1, 2):
            root = tmp_path / f"w{workers}"
            results = runner.compare(small_config(tmp_path, scenario_seeds=(0, 1),
                                                  workers=workers, out_dir=str(root)),
                                     ["fedavg", "fedprox"])
            out[workers] = ({a: [r.accuracy_series for r in rs] for a, rs in results.items()},
                            (root / "summary.csv").read_bytes(),
                            (root / "nemenyi.csv").read_bytes())
        assert out[1] == out[2]

    def test_worker_pool_same_finals_and_checkpoints(self, tmp_path):
        # criterion 2's config, two scenarios: the pool must not move a bit
        cfg = runner.ExperimentConfig(
            num_classes=4, input_dim=6, n_per_class=60, separation=1.5, noise_std=0.8,
            rounds=20, num_clients=4, sample_rate=1.0, alpha=0.5,
            scenario_seeds=(0, 1), training_seeds=(0,), hidden=(16, 8),
            surrogate_n_per_class=16, algo="fedgps")
        out = {}
        for workers in (1, 2):
            results = runner.run(dataclasses.replace(
                cfg, workers=workers, out_dir=str(tmp_path / f"w{workers}")))
            out[workers] = [(r.final_acc, (Path(r.run_dir) / "checkpoint.bin").read_bytes())
                            for r in results]
        assert out[1] == out[2]

    def test_csv_dataset_end_to_end(self, tmp_path):
        cfg = small_config(tmp_path, dataset_kind="csv", csv_path=str(write_csv(tmp_path)),
                           rounds=2, hidden=(8, 4))
        result = runner.run_one(cfg, 0, 0, write_artifacts=False)
        assert not result.diverged and result.best_acc > 0.0

    def test_idx_dataset_end_to_end(self, tmp_path):
        import struct
        rng = np.random.default_rng(1)
        images = rng.integers(0, 256, size=(90, 2, 3), dtype=np.uint8)
        labels = np.repeat(np.arange(3), 30).astype(np.uint8)
        img, lab = tmp_path / "im.idx", tmp_path / "lb.idx"
        with open(img, "wb") as fh:
            fh.write(struct.pack(">IIII", 0x00000803, 90, 2, 3))
            fh.write(images.tobytes())
        with open(lab, "wb") as fh:
            fh.write(struct.pack(">II", 0x00000801, 90))
            fh.write(labels.tobytes())
        cfg = small_config(tmp_path, dataset_kind="idx", images_path=str(img),
                           labels_path=str(lab), rounds=2, hidden=(8, 4))
        result = runner.run_one(cfg, 0, 0, write_artifacts=False)
        assert not result.diverged


def test_compare_never_imports_scipy(tmp_path):
    """The rank statistics a sweep ends with run without scipy, and a serial
    sweep loads neither the worker pool nor numpy's masked arrays."""
    script = f"""
import json, sys
from fedsim import runner
cfg = runner.ExperimentConfig(
    num_classes=4, input_dim=6, n_per_class=40, separation=2.0, noise_std=0.8,
    rounds=2, num_clients=4, sample_rate=0.5, alpha=0.5, scenario_seeds=(0, 1),
    hidden=(12, 6), surrogate_n_per_class=8, workers=1, out_dir={str(tmp_path / "runs")!r})
runner.compare(cfg, ["fedavg", "fedprox"])
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
print(json.dumps(sorted(m for m in sys.modules if m in ("numpy.ma", "multiprocessing",
                                                        "concurrent.futures.process"))))
"""
    src = Path(runner.__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k != runner.ENV_OUTPUT_ROOT}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    scipy_modules, heavy_modules = map(json.loads, proc.stdout.splitlines()[-2:])
    assert scipy_modules == []
    assert heavy_modules == []
    assert (tmp_path / "runs" / "nemenyi.csv").exists()


@pytest.mark.parametrize("algo", ["fedavg", "fedgps_cf"])
def test_peak_memory_does_not_grow_with_idle_clients(tmp_path, algo):
    """Per-client state is held only for clients a round samples: ten times
    the clients at the same clients per round and rounds adds far less than
    one parameter vector per added client to the run's peak allocation."""
    def peak(num_clients):
        cfg = small_config(tmp_path, algo=algo, input_dim=16, n_per_class=100,
                           hidden=(64, 32), num_clients=num_clients,
                           sample_rate=4 / num_clients, partition_kind="cn",
                           classes_per_client=1)
        tracemalloc.start()
        try:
            runner.run_one(cfg, 0, 0, write_artifacts=False)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(20)  # first-call allocations (lazy imports, caches) stay out of the comparison
    growth = (peak(200) - peak(20)) / 180
    vector_bytes = 8 * nn.init_mlp(16, (64, 32), 4, np.random.default_rng(0)).num_params
    assert growth < vector_bytes / 4


@pytest.mark.parametrize("algo", runner.ALGORITHMS)
def test_server_state_holds_only_its_algorithms_state(tmp_path, algo):
    """FedAvgM's server momentum and SCAFFOLD's server control live on the
    run's one `ServerState`, each made only for its own algorithm."""
    made, state = [], proto.ServerState

    def building(*args, **kwargs):
        made.append(state(*args, **kwargs))
        return made[-1]

    with mock.patch.object(proto, "ServerState", building):
        runner.run_one(small_config(tmp_path, algo=algo), 0, 0, write_artifacts=False)
    (server,) = made
    assert (server.velocity is not None) == (algo == "fedavgm")
    assert (server.control is not None) == (algo == "scaffold")
    assert all(np.any(v) for v in (server.velocity, server.control) if v is not None)


def test_pre_split_dataset_is_freed_before_training(tmp_path, monkeypatch):
    """Only the train and test splits outlive the split: the dataset
    `build_dataset` returns is gone by the first local step."""
    built, alive_at_first_call = [], []
    build_dataset, train = runner.build_dataset, runner.alg.fedavg_local_train

    def recording_build(config):
        dataset = build_dataset(config)
        built.append(weakref.ref(dataset))
        return dataset

    def checking_train(*args, **kwargs):
        if not alive_at_first_call:
            alive_at_first_call.append(built[0]() is not None)
        return train(*args, **kwargs)

    monkeypatch.setattr(runner, "build_dataset", recording_build)
    monkeypatch.setattr(runner.alg, "fedavg_local_train", checking_train)
    runner.run_one(small_config(tmp_path), 0, 0, write_artifacts=False)
    assert alive_at_first_call == [False]


def test_accuracy_matches_forward_logits(tmp_path):
    """The trace-free evaluation gives the reference forward's accuracy, bit for bit."""
    ds = runner.build_dataset(small_config(tmp_path, n_per_class=200))
    for seed in range(3):
        template = nn.init_mlp(ds.input_dim, (12, 6), ds.num_classes,
                               np.random.default_rng(seed))
        theta = 3.0 * np.random.default_rng(10 + seed).standard_normal(template.num_params)
        logits = nn.forward(nn.unflatten_like(template, theta), ds.features).logits
        want = float(np.mean(logits.argmax(axis=1) == ds.labels))
        assert runner.accuracy(template, theta, ds) == want
