"""tools/desk_checkpoints.py, the checkpoint sha256 of the six desk runs."""
import hashlib
import importlib.util
from dataclasses import replace
from pathlib import Path

from fedsim import runner

TOOL = Path(__file__).resolve().parent.parent / "tools" / "desk_checkpoints.py"
spec = importlib.util.spec_from_file_location("desk_checkpoints", TOOL)
desk_checkpoints = importlib.util.module_from_spec(spec)
spec.loader.exec_module(desk_checkpoints)

TINY = dict(num_classes=3, input_dim=4, n_per_class=20, hidden=(8, 4), rounds=2,
            num_clients=4, sample_rate=0.5, alpha=0.5, batch_size=8, surrogate_n_per_class=8)


def test_prints_each_algorithms_checkpoint_sha256(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(desk_checkpoints, "DESK", TINY)
    assert desk_checkpoints.main() == 0
    printed = dict(line.split() for line in capsys.readouterr().out.splitlines())
    expected = {}
    for algo in runner.ALGORITHMS:
        cfg = replace(desk_checkpoints.desk_config(algo), out_dir=str(tmp_path))
        run_dir = Path(runner.run_one(cfg, 0, 0).run_dir)
        expected[algo] = hashlib.sha256((run_dir / "checkpoint.bin").read_bytes()).hexdigest()
    assert printed == expected


def test_rectified_runs_take_the_desk_shift():
    for algo in runner.ALGORITHMS:
        cfg = desk_checkpoints.desk_config(algo)
        rectified = algo in ("fedgps", "fedgps_cf")
        assert (cfg.lambda_g, cfg.nsg_sign) == ((0.2, -1.0) if rectified else (0.5, 1.0))
        assert (cfg.rounds, cfg.num_clients, cfg.separation) == (150, 10, 0.8)
