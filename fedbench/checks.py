"""Output checks for one federated run directory.

Every check here recomputes its expectation from first principles (the
binary checkpoint layout, a plain numpy forward pass, the closed-form
communication table, set properties of the partition) rather than from
fedsim itself or from a stored copy of earlier output, so a fault in the
program cannot make its own check pass. Only numpy and the standard
library are used.
"""
from __future__ import annotations

import hashlib
import json
import math
import struct
from pathlib import Path

import numpy as np

CHECKPOINT_MAGIC = b"FGPS"
CHECKPOINT_VERSION = 1


class CheckError(AssertionError):
    """A run's outputs contradict an independent computation."""


def read_checkpoint(path) -> list[tuple[np.ndarray, np.ndarray]]:
    """Parse the little-endian checkpoint: magic, version, layer count,
    (rows, cols) per layer, then each layer's f64 weights and biases."""
    blob = Path(path).read_bytes()
    if len(blob) < 12 or blob[:4] != CHECKPOINT_MAGIC:
        raise CheckError(f"{path}: bad magic {blob[:4]!r}")
    version, n_layers = struct.unpack_from("<II", blob, 4)
    if version != CHECKPOINT_VERSION:
        raise CheckError(f"{path}: version {version}")
    if not 1 <= n_layers <= 64 or len(blob) < 12 + 8 * n_layers:
        raise CheckError(f"{path}: implausible layer count {n_layers}")
    offset = 12
    shapes = []
    for _ in range(n_layers):
        shapes.append(struct.unpack_from("<II", blob, offset))
        offset += 8
    expected = offset + 8 * sum(r * c + c for r, c in shapes)
    if len(blob) != expected:
        raise CheckError(f"{path}: {len(blob)} bytes, layout needs {expected}")
    layers = []
    for (rows, cols), (next_rows, _) in zip(shapes, shapes[1:] + [(None, None)]):
        if next_rows is not None and next_rows != cols:
            raise CheckError(f"{path}: layer widths do not chain")
        w = np.frombuffer(blob, "<f8", rows * cols, offset).reshape(rows, cols)
        offset += 8 * rows * cols
        b = np.frombuffer(blob, "<f8", cols, offset)
        offset += 8 * cols
        layers.append((w.astype(np.float64), b.astype(np.float64)))
    if not all(np.isfinite(w).all() and np.isfinite(b).all() for w, b in layers):
        raise CheckError(f"{path}: non-finite parameter")
    return layers


def mlp_logits(layers, x: np.ndarray) -> np.ndarray:
    """Rectified dense layers, then a linear classifier."""
    h = x
    for w, b in layers[:-1]:
        h = np.maximum(h @ w + b, 0.0)
    w, b = layers[-1]
    return h @ w + b


def layers_from_flat(widths, theta: np.ndarray):
    layers, offset = [], 0
    for fan_in, fan_out in zip(widths, widths[1:]):
        w = theta[offset:offset + fan_in * fan_out].reshape(fan_in, fan_out)
        offset += fan_in * fan_out
        layers.append((w, theta[offset:offset + fan_out]))
        offset += fan_out
    return layers


def checkpoint_accuracy(path, test_x, test_y, widths) -> float:
    layers = read_checkpoint(path)
    shapes = [w.shape for w, _ in layers]
    if shapes != list(zip(widths, widths[1:])):
        raise CheckError(f"{path}: layer shapes {shapes} != widths {widths}")
    return float(np.mean(mlp_logits(layers, test_x).argmax(axis=1) == test_y))


def check_accuracy(recomputed: float, reported: list[float], num_classes: int) -> None:
    """Reported accuracies must equal the recomputed one and sit well above
    chance (three times 1/C)."""
    for value in reported:
        if value != recomputed:
            raise CheckError(f"reported accuracy {value} != recomputed {recomputed}")
    if not recomputed >= 3.0 / num_classes:
        raise CheckError(f"accuracy {recomputed} is not well above chance 1/{num_classes}")


def check_partition(shards: list[np.ndarray], train_labels: np.ndarray,
                    classes_per_shard: int | None) -> None:
    """Shards cover 0..n-1 of the train split exactly once, none is empty,
    and under the limited-classes scheme each holds exactly that many
    classes."""
    n = len(train_labels)
    hits = np.zeros(n, dtype=np.int64)
    for k, shard in enumerate(shards):
        if len(shard) == 0:
            raise CheckError(f"shard {k} is empty")
        if shard.min() < 0 or shard.max() >= n:
            raise CheckError(f"shard {k} indexes outside the train split")
        np.add.at(hits, shard, 1)
        if classes_per_shard is not None:
            held = len(np.unique(train_labels[shard]))
            if held != classes_per_shard:
                raise CheckError(f"shard {k} holds {held} classes, not {classes_per_shard}")
    if (hits != 1).any():
        raise CheckError(f"{int((hits == 0).sum())} train rows uncovered, "
                         f"{int((hits > 1).sum())} in more than one shard")


def comm_units(algo: str, widths, num_classes: int) -> tuple[int, int]:
    """(down, up) units per round: M = sum (fan_in+1)*fan_out parameters,
    P = C*embed for one prototype matrix."""
    m = sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(widths, widths[1:]))
    p = num_classes * widths[-2]
    table = {"fedavg": (m, m), "fedavgm": (m, m), "fedprox": (m, m),
             "scaffold": (2 * m, 2 * m), "fedgps": (2 * m + p, m + p),
             "fedgps_cf": (m + p, m + p)}
    return table[algo]


def _finite_numbers(value, where: str) -> None:
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return
    if isinstance(value, (int, float)):
        if not math.isfinite(value):
            raise CheckError(f"non-finite number in {where}")
        return
    if isinstance(value, dict):
        for key, item in value.items():
            _finite_numbers(item, f"{where}.{key}")
        return
    if isinstance(value, list):
        for item in value:
            _finite_numbers(item, where)
        return
    raise CheckError(f"unexpected value {value!r} in {where}")


def read_rounds(path, rounds: int) -> list[dict]:
    """rounds.jsonl must log every round 0..R-1 in order with finite numbers."""
    records = [json.loads(line) for line in Path(path).read_text().splitlines()]
    if [r.get("round") for r in records] != list(range(rounds)):
        raise CheckError(f"{path}: {len(records)} rounds logged, expected {rounds}")
    for rec in records:
        _finite_numbers(rec, f"round {rec['round']}")
    return records


def read_partition(path) -> list[np.ndarray]:
    rows = [json.loads(line) for line in Path(path).read_text().splitlines()]
    if [r["client"] for r in rows] != list(range(len(rows))):
        raise CheckError(f"{path}: clients out of order")
    return [np.asarray(r["indices"], dtype=np.int64) for r in rows]


def count_steps(records: list[dict], shards: list[np.ndarray], batch_size: int,
                epochs: int) -> int:
    """Local SGD steps: sum over rounds and selected clients of
    ceil(shard / batch) * epochs."""
    per_client = [epochs * math.ceil(len(s) / min(batch_size, len(s))) for s in shards]
    return sum(per_client[k] for rec in records for k in rec["selected"])


def check_run(run_dir, *, algo: str, rounds: int, widths, num_classes: int,
              train_labels, test_x, test_y, batch_size: int, epochs: int,
              classes_per_shard: int | None, reported_final_acc: float,
              monitor_every: int | None) -> dict:
    """Every check on one run directory; returns the run's local step
    count, its recomputed accuracy and the checkpoint digest."""
    run_dir = Path(run_dir)
    meta = json.loads((run_dir / "checkpoint.meta.json").read_text())
    _finite_numbers(meta, "checkpoint.meta.json")
    if meta["diverged"] or meta["round"] != rounds:
        raise CheckError(f"{run_dir}: diverged={meta['diverged']} after "
                         f"{meta['round']} of {rounds} rounds")
    records = read_rounds(run_dir / "rounds.jsonl", rounds)
    down, up = comm_units(algo, widths, num_classes)
    if any((r["comm_down"], r["comm_up"]) != (down, up) for r in records):
        raise CheckError(f"{run_dir}: per-round units differ from ({down}, {up})")
    if (meta["total_down"], meta["total_up"]) != (rounds * down, rounds * up):
        raise CheckError(f"{run_dir}: totals ({meta['total_down']}, {meta['total_up']}) "
                         f"!= {rounds} x ({down}, {up})")
    if monitor_every:
        missing = [r["round"] for r in records
                   if (r["round"] + 1) % monitor_every == 0 and r["divergence"] is None]
        if missing:
            raise CheckError(f"{run_dir}: monitor fields missing on rounds {missing}")
    shards = read_partition(run_dir / "partition.jsonl")
    check_partition(shards, train_labels, classes_per_shard)
    acc = checkpoint_accuracy(run_dir / "checkpoint.bin", test_x, test_y, widths)
    check_accuracy(acc, [reported_final_acc, meta["final_acc"], records[-1]["test_acc"]],
                   num_classes)
    return {"steps": count_steps(records, shards, batch_size, epochs),
            "final_acc": acc,
            "checkpoint_sha1": hashlib.sha1((run_dir / "checkpoint.bin").read_bytes()).hexdigest(),
            "wallclock_ms": [r["wallclock_ms"] for r in records]}
