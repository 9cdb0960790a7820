"""Config handling, seed-stream isolation, run artifacts, determinism,
and the command-line surface."""
import json

import numpy as np
import pytest

from fedsim import cli, nn, runner


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
        with pytest.raises(runner.ConfigError) as err:
            cfg.validate()
        msg = str(err.value)
        for fragment in ("rounds", "algo", "sample_rate", "test_fraction"):
            assert fragment in msg

    def test_rectification_needs_two_clients(self, tmp_path):
        cfg = small_config(tmp_path, algo="fedgps", sample_rate=0.25)
        with pytest.raises(runner.ConfigError, match="rectification"):
            cfg.validate()

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_divergence_flagged(self, tmp_path):
        cfg = small_config(tmp_path, eta_l=1e154, rounds=2)
        result = runner.run_one(cfg, 0, 0)
        assert result.diverged


class TestCli:
    def test_run_subcommand_smoke(self, tmp_path, capsys):
        code = cli.main(["run", "--rounds", "1", "--num-clients", "2",
                         "--sample-rate", "1.0", "--num-classes", "3",
                         "--input-dim", "4", "--n-per-class", "20",
                         "--hidden", "8 4", "--scenario-seeds", "0",
                         "--algo", "fedavg", "--out-dir", str(tmp_path / "o")])
        assert code == 0
        assert "best_acc" in capsys.readouterr().out

    def test_run_rejects_bad_config(self, tmp_path, capsys):
        code = cli.main(["run", "--rounds", "0", "--out-dir", str(tmp_path / "o")])
        assert code == cli.EXIT_CONFIG

    def test_diag_comm_audit_prints_expected_units(self, capsys):
        code = cli.main(["diag", "comm-audit", "--M", "1000", "--C", "10",
                         "--embed-dim", "512"])
        out = capsys.readouterr().out
        assert code == 0
        assert "down=7120" in out and "up=6120" in out

    def test_diag_quadratic_oracle(self, capsys):
        assert cli.main(["diag", "quadratic-oracle"]) == 0
        assert "identity err" in capsys.readouterr().out

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

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_run_diverged_exit_code(self, tmp_path):
        code = cli.main(["run", "--rounds", "2", "--num-clients", "2",
                         "--sample-rate", "1.0", "--num-classes", "3",
                         "--input-dim", "4", "--n-per-class", "20",
                         "--hidden", "8 4", "--scenario-seeds", "0",
                         "--eta-l", "1e154", "--algo", "fedavg",
                         "--out-dir", str(tmp_path / "o")])
        assert code == cli.EXIT_DIVERGED


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
        seq = runner.run(small_config(tmp_path, scenario_seeds=(0, 1), workers=1,
                                      out_dir=str(tmp_path / "seq")))
        par = runner.run(small_config(tmp_path, scenario_seeds=(0, 1), workers=2,
                                      out_dir=str(tmp_path / "par")))
        for a, b in zip(seq, par):
            assert a.accuracy_series == b.accuracy_series

    def test_csv_dataset_end_to_end(self, tmp_path):
        rows = ["f0,f1,f2,label"]
        rng = np.random.default_rng(0)
        for c in range(3):
            for _ in range(30):
                feats = rng.standard_normal(3) + 3 * c
                rows.append(",".join(f"{v:.5f}" for v in feats) + f",{c}")
        path = tmp_path / "ds.csv"
        path.write_text("\n".join(rows) + "\n")
        cfg = small_config(tmp_path, dataset_kind="csv", csv_path=str(path),
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
