"""Dataset synthesis, ingestion, heterogeneous partitioning, and the
shared surrogate dataset.

All generators are pure functions of their seed: the same arguments give
bit-identical arrays. Partitions index into a parent dataset and always
satisfy the disjoint-cover invariant (pairwise disjoint shards whose
union is the full index range, no shard empty).

A `LabeledDataset` holds plain (n, input_dim) features: `nn.Kernel` adds
the ones column of its input layout itself, so a dataset keeps no
augmented copy, only its class indicator once asked for it.
"""
from __future__ import annotations

import csv
import json
import struct
from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


class DataError(Exception):
    """Base class for dataset ingestion/partitioning failures."""


class FormatError(DataError):
    """File does not carry the expected magic/layout."""


class TruncatedError(DataError):
    """File ended before the declared payload."""


class CountMismatchError(DataError):
    """Image and label counts disagree."""


class PartitionError(DataError):
    """No valid partition could be drawn."""


@dataclass
class LabeledDataset:
    """Feature matrix (n, input_dim) with integer class labels in [0, C)."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2 or len(self.features) != len(self.labels):
            raise DataError("features must be (n, d) with one label per row")
        if len(self.labels) < 1:
            raise DataError("dataset must contain at least one sample")
        if self.labels.min() < 0 or self.labels.max() >= self.num_classes:
            raise DataError("labels must lie in [0, num_classes)")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "LabeledDataset":
        idx = np.asarray(indices, dtype=np.int64)
        return LabeledDataset(self.features[idx], self.labels[idx], self.num_classes)

    @cached_property
    def indicator(self) -> tuple[np.ndarray, np.ndarray]:
        """`class_indicator` of the labels, made at first use and kept."""
        return class_indicator(self.labels, self.num_classes)


def class_indicator(labels: np.ndarray, num_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """The (num_classes, n) one-hot matrix of `labels` and each class's count,
    so (onehot @ rows) sums each class's rows."""
    return (np.equal.outer(np.arange(num_classes), labels).astype(np.float64),
            np.bincount(labels, minlength=num_classes))


@dataclass
class SurrogateSpec:
    """Class-conditional Gaussian generators shared by every client."""

    num_classes: int
    input_dim: int
    class_means: np.ndarray
    class_std: float
    n_per_class: int
    seed: int

    def __post_init__(self):
        self.class_means = np.asarray(self.class_means, dtype=np.float64)
        if self.class_means.shape != (self.num_classes, self.input_dim):
            raise DataError("class_means must be (num_classes, input_dim)")
        _raise_any(surrogate_problems(self.n_per_class, self.class_std), DataError)
        rows = self.class_means
        if any((rows[c + 1:] == rows[c]).all(axis=1).any() for c in range(len(rows))):
            raise DataError("class means must be pairwise distinct")


def _raise_any(problems: list[str], error: type[Exception]) -> None:
    """Raise `error` naming every problem of a `*_problems` list, if any."""
    if problems:
        raise error("; ".join(problems))


def surrogate_problems(n_per_class: int, class_std: float,
                       names=("n_per_class", "class_std")) -> list[str]:
    """The rules on a surrogate's size and spread that these values break,
    each named as the caller calls the field."""
    problems = [f"{names[0]} must be >= 1"] if n_per_class < 1 else []
    return problems + ([f"{names[1]} must be >= 0"] if class_std < 0 else [])


def blob_problems(num_classes: int, input_dim: int, n_per_class: int,
                  noise_std: float) -> list[str]:
    """The rules on `gen_blobs`' counts and noise that these values break."""
    problems = ["blob counts must be >= 1"] if min(num_classes, input_dim, n_per_class) < 1 else []
    return problems + (["noise_std must be >= 0"] if noise_std < 0 else [])


def split_problems(test_fraction: float) -> list[str]:
    """The rule on `stratified_split`'s holdout fraction, if it is broken."""
    return [] if 0 < test_fraction < 1 else ["test_fraction must be in (0, 1)"]


def dirichlet_problems(alpha: float) -> list[str]:
    """The rule on `dirichlet_partition`'s concentration, if it is broken."""
    return ["alpha must be > 0"] if alpha <= 0 else []


def cn_problems(classes_per_client: int, num_clients: int,
                num_classes: int | None = None) -> list[str]:
    """The rules on `cn_partition`'s classes per client, where broken; the
    upper bound, and the clients' cover of every class, apply once the
    labels' class count is known."""
    if num_classes is None:
        return [] if classes_per_client >= 1 else ["classes_per_client must be >= 1"]
    if not 1 <= classes_per_client <= num_classes:
        return [f"classes_per_client must be in [1, {num_classes}], the classes the labels hold"]
    if num_clients * classes_per_client < num_classes:
        return [f"cannot cover {num_classes} classes with {num_clients} clients "
                f"holding {classes_per_client} each"]
    return []


def make_surrogate_spec(num_classes: int, input_dim: int, seed: int,
                        mean_scale: float = 3.0, class_std: float = 1.0,
                        n_per_class: int = 64) -> SurrogateSpec:
    """Draw one distinct Gaussian center per class from a seeded generator."""
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((num_classes, input_dim)) * mean_scale
    return SurrogateSpec(num_classes, input_dim, means, class_std, n_per_class, seed)


def _gaussian_classes(centers: np.ndarray, std: float, n_per_class: int,
                      rng: np.random.Generator) -> LabeledDataset:
    """n_per_class points center_c + std * N(0, I) per class, drawn class by class."""
    feats = [center + std * rng.standard_normal((n_per_class, len(center)))
             for center in centers]
    return LabeledDataset(np.vstack(feats), np.repeat(np.arange(len(centers)), n_per_class),
                          len(centers))


def gen_surrogate(spec: SurrogateSpec) -> LabeledDataset:
    """Sample n_per_class points per class around its center, from a stream
    apart from the centers', so no point's noise replays a center.

    Client-agnostic by construction: no client identity enters the
    generator, so "every client holds the same surrogate set" is realized
    by sharing the one generated instance.
    """
    return _gaussian_classes(spec.class_means, spec.class_std, spec.n_per_class,
                             np.random.default_rng([spec.seed, 1]))


def gen_blobs(num_classes: int, input_dim: int, n_per_class: int,
              separation: float, noise_std: float, seed: int) -> LabeledDataset:
    """Isotropic Gaussian blobs around seeded random centers.

    Centers are standard normal draws scaled by `separation`; class c's
    points are center_c + noise_std * N(0, I). Deterministic per seed.
    """
    _raise_any(blob_problems(num_classes, input_dim, n_per_class, noise_std), DataError)
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((num_classes, input_dim)) * separation
    return _gaussian_classes(centers, noise_std, n_per_class, rng)


def _read_idx_header(fh, path, expected_magic, n_dims):
    head = fh.read(4 + 4 * n_dims)
    if len(head) < 4 + 4 * n_dims:
        raise TruncatedError(f"{path}: truncated IDX header")
    (magic,) = struct.unpack(">I", head[:4])
    if magic != expected_magic:
        raise FormatError(f"{path}: bad IDX magic 0x{magic:08x}, "
                          f"expected 0x{expected_magic:08x}")
    return struct.unpack(f">{n_dims}I", head[4:])


def load_idx(images_path, labels_path) -> LabeledDataset:
    """Load an IDX image/label file pair; pixels are scaled to [0, 1]."""
    with open(images_path, "rb") as fh:
        n_img, rows, cols = _read_idx_header(fh, images_path, IDX_IMAGES_MAGIC, 3)
        payload = fh.read(n_img * rows * cols)
        if len(payload) < n_img * rows * cols:
            raise TruncatedError(f"{images_path}: truncated pixel payload")
        pixels = np.frombuffer(payload, dtype=np.uint8)
    with open(labels_path, "rb") as fh:
        (n_lab,) = _read_idx_header(fh, labels_path, IDX_LABELS_MAGIC, 1)
        payload = fh.read(n_lab)
        if len(payload) < n_lab:
            raise TruncatedError(f"{labels_path}: truncated label payload")
        labels = np.frombuffer(payload, dtype=np.uint8)
    if n_img != n_lab:
        raise CountMismatchError(f"{n_img} images but {n_lab} labels")
    feats = pixels.astype(np.float64).reshape(n_img, rows * cols) / 255.0
    labels = labels.astype(np.int64)
    return LabeledDataset(feats, labels, int(labels.max()) + 1)


def load_csv(path) -> LabeledDataset:
    """Load a dataset from CSV with header row f0..fD,label. Each row holds
    one finite number per column and a whole-number label >= 0; the first
    row that does not raises `FormatError` naming its line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[-1] != "label":
            raise FormatError(f"{path}: last CSV column must be 'label'")
        if len(header) < 2:
            raise FormatError(f"{path}: the header names no feature column before 'label'")
        rows = list(reader)
    if not rows:
        raise DataError(f"{path}: no data rows")
    mat = np.full((len(rows), len(header)), np.nan)
    for i, row in enumerate(rows):
        if len(row) == len(header):
            with suppress(ValueError):  # a field that does not parse leaves a NaN
                mat[i] = row
    labels = mat[:, -1]
    bad = ~(np.isfinite(mat).all(axis=1) & (labels >= 0) & (labels == np.floor(labels)))
    if bad.any():
        i = int(np.argmax(bad))
        raise FormatError(f"{path}: line {i + 2}: expected {len(header) - 1} finite features "
                          f"and a whole-number label >= 0, got {','.join(rows[i])!r}")
    labels = labels.astype(np.int64)
    return LabeledDataset(mat[:, :-1], labels, int(labels.max()) + 1)


@dataclass
class Partition:
    """Disjoint index shards over a parent dataset, one per client."""

    shards: list[np.ndarray]

    def __post_init__(self):
        self.shards = [np.asarray(s, dtype=np.int64) for s in self.shards]

    @property
    def num_clients(self) -> int:
        return len(self.shards)

    def validate(self, n: int) -> None:
        """Check pairwise disjointness, full coverage of 0..n-1, no empties."""
        if not self.shards:
            raise PartitionError("partition has no shards")
        seen = np.sort(np.concatenate(self.shards))
        if len(seen) != n or (seen[1:] == seen[:-1]).any():
            raise PartitionError("shards must disjointly cover the dataset")
        if seen.size and (seen[0] < 0 or seen[-1] >= n):
            raise PartitionError("shard indices out of range")
        if any(len(s) == 0 for s in self.shards):
            raise PartitionError("empty shard")

    def save_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for k, shard in enumerate(self.shards):
                fh.write(json.dumps({"client": k, "indices": shard.tolist()}) + "\n")

    @staticmethod
    def load_jsonl(path) -> "Partition":
        rows = {}
        with open(path) as fh:
            for line in fh:
                rec = json.loads(line)
                rows[rec["client"]] = np.asarray(rec["indices"], dtype=np.int64)
        return Partition([rows[k] for k in sorted(rows)])


def dirichlet_partition(labels, num_clients: int, alpha: float, seed: int,
                        max_retries: int = 100) -> Partition:
    """Label-skew partition: per class, client proportions ~ Dir(alpha * 1_K).

    Proportions come from seeded Gamma draws normalized per class, and
    each class's (shuffled) indices are assigned by cumulative proportion.
    The whole partition is re-drawn (up to `max_retries`) whenever a shard
    ends up empty, which small alpha makes likely.
    """
    _raise_any(dirichlet_problems(alpha), ValueError)
    if num_clients < 2:
        raise ValueError("need at least 2 clients")
    labels = np.asarray(labels, dtype=np.int64)
    if (labels < 0).any():
        raise ValueError("labels must be >= 0")
    classes = np.flatnonzero(np.bincount(labels))  # ascending, as np.unique gives them
    rng = np.random.default_rng(seed)
    for _ in range(max_retries):
        shards = [[] for _ in range(num_clients)]
        ok = True
        for c in classes:
            idx = np.flatnonzero(labels == c)
            rng.shuffle(idx)
            gammas = rng.gamma(alpha, 1.0, size=num_clients)
            total = gammas.sum()
            if total <= 0:  # all draws underflowed; treat as a failed draw
                ok = False
                break
            props = gammas / total
            cuts = (np.cumsum(props)[:-1] * len(idx)).astype(np.int64)
            for k, part in enumerate(np.split(idx, cuts)):
                shards[k].append(part)
        if not ok:
            continue
        shards = [np.concatenate(parts) for parts in shards]
        if all(len(s) > 0 for s in shards):
            part = Partition(shards)
            part.validate(len(labels))
            return part
    raise PartitionError(
        f"no non-empty partition in {max_retries} draws (alpha={alpha}, K={num_clients})")


def cn_partition(labels, num_clients: int, classes_per_client: int, seed: int) -> Partition:
    """Limited-classes label skew: every client holds exactly N classes.

    Class ownership follows a round-robin over a seeded class permutation,
    so each class is held by roughly K*N/C clients; each class's shuffled
    samples are then split evenly among its owners.
    """
    labels = np.asarray(labels, dtype=np.int64)
    num_classes = int(labels.max()) + 1
    n_cls = classes_per_client
    _raise_any(cn_problems(n_cls, num_clients, num_classes), PartitionError)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(num_classes)
    owners = [[] for _ in range(num_classes)]
    for k in range(num_clients):
        for j in range(n_cls):
            c = perm[(k * n_cls + j) % num_classes]
            owners[c].append(k)
    shards = [[] for _ in range(num_clients)]
    for c in range(num_classes):
        idx = np.flatnonzero(labels == c)
        rng.shuffle(idx)
        for k, part in zip(owners[c], np.array_split(idx, len(owners[c]))):
            if len(part) == 0:
                raise PartitionError(
                    f"class {c} has too few samples for {len(owners[c])} owners")
            shards[k].append(part)
    part = Partition([np.concatenate(s) for s in shards])
    part.validate(len(labels))
    return part


def stratified_split(dataset: LabeledDataset, test_fraction: float,
                     seed: int) -> tuple[LabeledDataset, LabeledDataset]:
    """Per-class seeded holdout; returns (train, test)."""
    _raise_any(split_problems(test_fraction), ValueError)
    rng = np.random.default_rng(seed)
    train_idx, test_idx = [], []
    for c in range(dataset.num_classes):
        idx = np.flatnonzero(dataset.labels == c)
        rng.shuffle(idx)
        n_test = max(1, int(round(len(idx) * test_fraction)))
        test_idx.append(idx[:n_test])
        train_idx.append(idx[n_test:])
    train_idx = np.sort(np.concatenate(train_idx))
    test_idx = np.sort(np.concatenate(test_idx))
    return dataset.subset(train_idx), dataset.subset(test_idx)


def label_entropy(labels, num_classes: int) -> float:
    """Shannon entropy (nats) of a label histogram."""
    counts = np.bincount(np.asarray(labels), minlength=num_classes).astype(np.float64)
    p = counts / counts.sum()
    p = p[p > 0]
    return float(-(p * np.log(p)).sum())


def mean_client_entropy(partition: Partition, labels, num_classes: int) -> float:
    """Average per-shard label entropy; low values mean heavy skew."""
    labels = np.asarray(labels)
    return float(np.mean([label_entropy(labels[s], num_classes) for s in partition.shards]))
