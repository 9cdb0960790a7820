"""Dataset generators, IDX/CSV ingestion, and partition invariants."""
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fedsim import data as dat


class TestBlobs:
    def test_zero_noise_collapses_to_centers(self):
        ds = dat.gen_blobs(3, 4, 5, separation=2.0, noise_std=0.0, seed=0)
        for c in range(3):
            pts = ds.features[ds.labels == c]
            assert np.allclose(pts, pts[0], atol=0)

    def test_same_seed_bit_identical(self):
        a = dat.gen_blobs(4, 6, 10, 1.5, 0.7, seed=42)
        b = dat.gen_blobs(4, 6, 10, 1.5, 0.7, seed=42)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_nearest_centroid_oracle_on_separated_blobs(self):
        # independent 1-nearest-centroid classifier scores > 99% on the
        # training set when classes are far apart
        ds = dat.gen_blobs(10, 8, 100, separation=10.0, noise_std=1.0, seed=7)
        centroids = np.array([ds.features[ds.labels == c].mean(axis=0)
                              for c in range(10)])
        d2 = ((ds.features[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        acc = np.mean(d2.argmin(axis=1) == ds.labels)
        assert acc > 0.99

    def test_bad_args_rejected(self):
        with pytest.raises(dat.DataError):
            dat.gen_blobs(0, 4, 5, 1.0, 1.0, 0)
        with pytest.raises(dat.DataError):
            dat.gen_blobs(3, 4, 5, 1.0, -0.1, 0)


def write_idx_pair(tmp_path, images, labels):
    """Build IDX files byte-by-byte, independent of the loader."""
    n, rows, cols = images.shape
    img_path = tmp_path / "images.idx"
    lab_path = tmp_path / "labels.idx"
    with open(img_path, "wb") as fh:
        fh.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        fh.write(images.astype(np.uint8).tobytes())
    with open(lab_path, "wb") as fh:
        fh.write(struct.pack(">II", 0x00000801, len(labels)))
        fh.write(np.asarray(labels, dtype=np.uint8).tobytes())
    return img_path, lab_path


class TestIdx:
    def test_four_image_fixture(self, tmp_path):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(4, 3, 2), dtype=np.uint8)
        img, lab = write_idx_pair(tmp_path, images, [0, 1, 2, 1])
        ds = dat.load_idx(img, lab)
        assert ds.features.shape == (4, 6)
        assert np.array_equal(ds.labels, [0, 1, 2, 1])
        assert np.allclose(ds.features, images.reshape(4, 6) / 255.0)
        assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0

    def test_count_mismatch(self, tmp_path):
        images = np.zeros((4, 2, 2), dtype=np.uint8)
        img, _ = write_idx_pair(tmp_path, images, [0, 1, 0, 1])
        lab = tmp_path / "short_labels.idx"
        with open(lab, "wb") as fh:
            fh.write(struct.pack(">II", 0x00000801, 3))
            fh.write(bytes([0, 1, 0]))
        with pytest.raises(dat.CountMismatchError):
            dat.load_idx(img, lab)

    def test_wrong_magic(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [0, 1])
        bad = tmp_path / "bad.idx"
        payload = img.read_bytes()
        bad.write_bytes(b"\x00\x00\x09\x99" + payload[4:])
        with pytest.raises(dat.FormatError):
            dat.load_idx(bad, lab)

    def test_truncated(self, tmp_path):
        img, lab = write_idx_pair(tmp_path, np.zeros((4, 2, 2), dtype=np.uint8),
                                  [0, 1, 0, 1])
        cut = tmp_path / "cut.idx"
        cut.write_bytes(img.read_bytes()[:-5])
        with pytest.raises(dat.TruncatedError):
            dat.load_idx(cut, lab)


class TestCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text("f0,f1,label\n0.5,1.5,0\n2.0,-1.0,1\n0.0,0.0,1\n")
        ds = dat.load_csv(path)
        assert ds.features.shape == (3, 2)
        assert np.array_equal(ds.labels, [0, 1, 1])

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("f0,f1\n1,2\n")
        with pytest.raises(dat.FormatError):
            dat.load_csv(path)

    def test_header_without_a_feature_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label\n0\n1\n")
        with pytest.raises(dat.FormatError, match="no feature column") as err:
            dat.load_csv(path)
        assert str(path) in str(err.value)

    @pytest.mark.parametrize("bad_row", ["0.5,1.5,1.7", "nan,1.5,0", "0.5,inf,1", "0.5,1.5,-1",
                                         "0.5,1.5,nan", "0.5,x,1", "0.5,1", "0.5,1.5,1,2", ""])
    def test_bad_row_rejected_by_line(self, tmp_path, bad_row):
        path = tmp_path / "bad.csv"
        path.write_text(f"f0,f1,label\n0.5,1.5,0\n2.0,-1.0,1\n{bad_row}\n0.0,0.0,1\n")
        with pytest.raises(dat.FormatError, match="line 4"):
            dat.load_csv(path)

    def test_whole_number_label_written_as_float_accepted(self, tmp_path):
        path = tmp_path / "ds.csv"
        path.write_text("f0,label\n0.5,0.0\n1e3,2\n")
        ds = dat.load_csv(path)
        assert np.array_equal(ds.labels, [0, 2]) and ds.num_classes == 3


class TestDirichletPartition:
    def test_huge_alpha_is_nearly_uniform(self):
        labels = np.repeat(np.arange(5), 200)
        part = dat.dirichlet_partition(labels, 4, alpha=1e6, seed=0)
        for shard in part.shards:
            hist = np.bincount(labels[shard], minlength=5)
            assert np.all(np.abs(hist - hist.mean()) / hist.mean() < 0.10)

    def test_fixed_seed_identical(self):
        labels = np.repeat(np.arange(4), 50)
        a = dat.dirichlet_partition(labels, 5, 0.3, seed=9)
        b = dat.dirichlet_partition(labels, 5, 0.3, seed=9)
        for s1, s2 in zip(a.shards, b.shards):
            assert np.array_equal(s1, s2)

    def test_low_alpha_lowers_client_entropy(self):
        labels = np.repeat(np.arange(10), 100)
        skewed = dat.dirichlet_partition(labels, 10, 0.1, seed=3)
        uniform = dat.dirichlet_partition(labels, 10, 100.0, seed=3)
        assert (dat.mean_client_entropy(skewed, labels, 10)
                < dat.mean_client_entropy(uniform, labels, 10))

    def test_retry_exhaustion(self):
        # more clients than samples: some shard is empty in every draw
        with pytest.raises(dat.PartitionError):
            dat.dirichlet_partition(np.array([0, 0, 1]), 4, 0.5, seed=0)

    @given(alpha=st.sampled_from([0.05, 0.1, 0.5, 1.0, 10.0]),
           num_clients=st.integers(2, 8), seed=st.integers(0, 999))
    @settings(max_examples=25, deadline=None)
    def test_disjoint_cover_property(self, alpha, num_clients, seed):
        labels = np.repeat(np.arange(6), 40)
        part = dat.dirichlet_partition(labels, num_clients, alpha, seed)
        part.validate(len(labels))  # raises on violation

    def test_negative_labels_rejected(self):
        with pytest.raises(ValueError, match="labels must be >= 0"):
            dat.dirichlet_partition(np.array([0, -1, 1, 1]), 2, 1.0, seed=0)

    def test_absent_classes_skipped(self):
        labels = np.repeat([1, 3, 4], 30)
        part = dat.dirichlet_partition(labels, 3, 1.0, seed=5)
        part.validate(len(labels))


def unique_validate(shards, n):
    """`Partition.validate` as first written, over `np.unique`."""
    seen = np.concatenate(shards)
    if len(seen) != n or len(np.unique(seen)) != n:
        return "shards must disjointly cover the dataset"
    if seen.min() < 0 or seen.max() >= n:
        return "shard indices out of range"
    if any(len(s) == 0 for s in shards):
        return "empty shard"
    return None


class TestPartitionValidate:
    @pytest.mark.parametrize("shards", [
        [[0, 2], [1, 3]],     # valid
        [[0, 1], [2]],        # too few indices
        [[0, 1], [1, 2]],     # duplicate
        [[0, 1], [2, 4]],     # out of range above
        [[0, -1], [2, 3]],    # out of range below
        [[0, 4], [4, 2]],     # duplicate and out of range
        [[0, 1, 2, 3], []],   # empty shard
    ])
    def test_same_verdict_as_unique_reference(self, shards):
        part = dat.Partition(shards)
        want = unique_validate(part.shards, 4)
        if want is None:
            part.validate(4)
        else:
            with pytest.raises(dat.PartitionError, match=want):
                part.validate(4)

    def test_no_shards_rejected(self):
        with pytest.raises(dat.PartitionError, match="no shards"):
            dat.Partition([]).validate(0)

    def test_empty_file_loads_to_rejected_partition(self, tmp_path):
        path = tmp_path / "partition.jsonl"
        path.write_text("")
        with pytest.raises(dat.PartitionError, match="no shards"):
            dat.Partition.load_jsonl(path).validate(0)

    def test_only_empty_shards_rejected(self):
        with pytest.raises(dat.PartitionError, match="empty shard"):
            dat.Partition([[], []]).validate(0)


class TestCnPartition:
    def test_full_class_count_is_even_iid_split(self):
        labels = np.repeat(np.arange(5), 40)
        part = dat.cn_partition(labels, 4, classes_per_client=5, seed=0)
        part.validate(len(labels))
        for shard in part.shards:
            assert set(labels[shard]) == set(range(5))
            assert len(shard) == 50

    def test_two_classes_per_client(self):
        labels = np.repeat(np.arange(10), 30)
        part = dat.cn_partition(labels, 10, classes_per_client=2, seed=1)
        part.validate(len(labels))
        for shard in part.shards:
            assert len(set(labels[shard])) == 2

    def test_diagonal_case(self):
        labels = np.repeat(np.arange(6), 10)
        part = dat.cn_partition(labels, 6, classes_per_client=1, seed=2)
        for shard in part.shards:
            classes = set(labels[shard])
            assert len(classes) == 1 and len(shard) == 10

    def test_infeasible_coverage_rejected(self):
        labels = np.repeat(np.arange(10), 5)
        with pytest.raises(dat.PartitionError):
            dat.cn_partition(labels, 3, classes_per_client=2, seed=0)


class TestSurrogate:
    def test_zero_std_equals_means(self):
        spec = dat.make_surrogate_spec(3, 4, seed=0, class_std=0.0, n_per_class=5)
        ds = dat.gen_surrogate(spec)
        for c in range(3):
            assert np.allclose(ds.features[ds.labels == c], spec.class_means[c], atol=0)

    def test_same_spec_bit_identical(self):
        spec = dat.make_surrogate_spec(4, 6, seed=12)
        a, b = dat.gen_surrogate(spec), dat.gen_surrogate(spec)
        assert np.array_equal(a.features, b.features)

    def test_noise_does_not_replay_the_centers(self):
        # the run defaults: the points' noise once came from the centers' stream
        spec = dat.make_surrogate_spec(10, 16, seed=11, mean_scale=3.0, class_std=1.0)
        ds = dat.gen_surrogate(spec)
        noise = (ds.features - spec.class_means[ds.labels]) / spec.class_std
        draws = spec.class_means / 3.0
        close = np.isclose(noise[:, None, :], draws[None, :, :]).all(axis=2)
        assert not close.any()

    def test_law_of_large_numbers(self):
        spec = dat.make_surrogate_spec(3, 5, seed=5, class_std=1.0, n_per_class=1000)
        ds = dat.gen_surrogate(spec)
        for c in range(3):
            emp = ds.features[ds.labels == c].mean(axis=0)
            assert np.all(np.abs(emp - spec.class_means[c]) < 0.1)

    def test_duplicate_means_rejected(self):
        means = np.zeros((2, 3))
        with pytest.raises(dat.DataError):
            dat.SurrogateSpec(2, 3, means, 1.0, 4, 0)
        means = np.arange(12.0).reshape(4, 3)
        dat.SurrogateSpec(4, 3, means, 1.0, 4, 0)
        means[3] = means[1]
        with pytest.raises(dat.DataError, match="pairwise distinct"):
            dat.SurrogateSpec(4, 3, means, 1.0, 4, 0)


class TestSplitsAndExport:
    def test_stratified_split_disjoint_and_sized(self):
        ds = dat.gen_blobs(5, 4, 100, 2.0, 1.0, seed=0)
        train, test = dat.stratified_split(ds, 0.2, seed=1)
        assert len(train) + len(test) == len(ds)
        for c in range(5):
            assert (test.labels == c).sum() == 20

    def test_partition_jsonl_round_trip(self, tmp_path):
        labels = np.repeat(np.arange(4), 25)
        part = dat.dirichlet_partition(labels, 3, 1.0, seed=4)
        path = tmp_path / "partition.jsonl"
        part.save_jsonl(path)
        loaded = dat.Partition.load_jsonl(path)
        for s1, s2 in zip(part.shards, loaded.shards):
            assert np.array_equal(s1, s2)


class TestDataRules:
    """Each data rule lives in one `*_problems` function, which both the
    builder and `ExperimentConfig.validate` call."""

    RULES = {  # helper: (config overrides that break it, the builder call it guards)
        "blob_problems": (dict(n_per_class=0), lambda: dat.gen_blobs(3, 4, 5, 1.0, 1.0, 0)),
        "split_problems": (dict(test_fraction=1.5), lambda: dat.stratified_split(
            dat.gen_blobs(3, 4, 5, 1.0, 1.0, 0), 0.2, 0)),
        "dirichlet_problems": (dict(alpha=0.0), lambda: dat.dirichlet_partition(
            np.repeat(np.arange(3), 10), 3, 1.0, 0)),
        "cn_problems": (dict(partition_kind="cn", classes_per_client=0), lambda: dat.cn_partition(
            np.repeat(np.arange(3), 10), 3, 1, 0)),
        "surrogate_problems": (dict(surrogate_std=-1.0), lambda: dat.make_surrogate_spec(3, 4, 0)),
    }

    @pytest.mark.parametrize("helper", sorted(RULES))
    def test_builder_and_validate_share_the_rule(self, helper, monkeypatch):
        from fedsim import runner
        overrides, build = self.RULES[helper]
        build()  # the builder accepts good values
        monkeypatch.setattr(dat, helper, lambda *args, **kwargs: ["the one rule broke"])
        with pytest.raises((ValueError, dat.DataError), match="the one rule broke"):
            build()
        with pytest.raises(runner.ConfigError, match="the one rule broke"):
            runner.ExperimentConfig(**overrides).validate()

    def test_messages(self):
        assert dat.blob_problems(0, 4, 5, -1.0) == ["blob counts must be >= 1",
                                                     "noise_std must be >= 0"]
        assert dat.split_problems(0.0) == ["test_fraction must be in (0, 1)"]
        assert dat.dirichlet_problems(0.0) == ["alpha must be > 0"]
        assert dat.cn_problems(0, 2) == ["classes_per_client must be >= 1"]
        assert dat.cn_problems(4, 2, 3) == [
            "classes_per_client must be in [1, 3], the classes the labels hold"]
        assert dat.surrogate_problems(0, -1.0) == ["n_per_class must be >= 1",
                                                   "class_std must be >= 0"]
        assert dat.cn_problems(1, 2, 4) == ["cannot cover 4 classes with 2 clients holding 1 each"]
        assert dat.surrogate_problems(1, 0.0) == dat.cn_problems(3, 1, 3) == []
        assert dat.cn_problems(2, 2, 4) == []
