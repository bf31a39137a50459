import numpy as np
import pytest

from protoplace.data import (
    AttributeTable,
    SplitDataset,
    SynthConfig,
    generate_synthetic,
    load_dataset,
    load_dataset_dir,
    load_matrix,
    sample_episode,
    save_dataset,
    save_matrix,
)
from protoplace.errors import CapacityError, FormatError, ParameterError, \
    ValidationError
from protoplace.rng import RngStream


def tiny_dataset():
    """4 samples, 2 seen classes + 1 unseen."""
    features = np.array([
        [1.0, 0.0, 0.0],
        [0.9, 0.1, 0.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
    ])
    labels = np.array([0, 0, 1, 2])
    attrs = np.array([[1.0, 0.0], [0.0, 1.0], [0.7, 0.7]])
    return SplitDataset(
        features=features, labels=labels, attributes=AttributeTable(attrs),
        seen_classes=[0, 1], unseen_classes=[2],
        train_idx=[0, 2], test_seen_idx=[1], test_unseen_idx=[3],
    )


class TestBinaryFormat:
    def test_round_trip_is_byte_identical(self, tmp_path):
        mat = np.random.default_rng(0).normal(size=(7, 5))
        p1 = tmp_path / "a.bin"
        p2 = tmp_path / "b.bin"
        save_matrix(p1, mat)
        save_matrix(p2, load_matrix(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_header_layout(self, tmp_path):
        p = tmp_path / "m.bin"
        save_matrix(p, np.zeros((2, 3)))
        raw = p.read_bytes()
        assert raw[:4] == b"LPLF"
        assert raw[4:12] == (2).to_bytes(4, "little") + (3).to_bytes(4, "little")
        assert len(raw) == 12 + 2 * 3 * 4

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "m.bin"
        p.write_bytes(b"XXXX" + bytes(8))
        with pytest.raises(FormatError):
            load_matrix(p)

    def test_truncated_body(self, tmp_path):
        p = tmp_path / "m.bin"
        save_matrix(p, np.zeros((2, 2)))
        p.write_bytes(p.read_bytes()[:-2])
        with pytest.raises(FormatError):
            load_matrix(p)


class TestDatasetIO:
    def test_csv_fixture_counts(self, tmp_path):
        ds = tiny_dataset()
        paths = save_dataset(ds, tmp_path, format="csv")
        loaded = load_dataset(paths["features"], paths["attributes"],
                              paths["split"], format="csv")
        assert loaded.train_idx.size == 2
        assert loaded.test_seen_idx.size == 1
        assert loaded.test_unseen_idx.size == 1
        assert set(loaded.seen_classes.tolist()) == {0, 1}

    def test_binary_save_load_save_byte_identical(self, tmp_path):
        ds = generate_synthetic(SynthConfig(seen_count=4, unseen_count=2,
                                            attr_dim=3, feat_dim=5,
                                            train_per_class=6, test_per_class=2,
                                            noise_scale=0.1, seed=3))
        d1 = tmp_path / "one"
        d2 = tmp_path / "two"
        save_dataset(ds, d1, format="binary")
        save_dataset(load_dataset_dir(d1), d2, format="binary")
        for name in ("features.bin", "features.labels.bin", "attributes.bin",
                     "split.txt"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name

    def test_csv_precision(self, tmp_path):
        ds = tiny_dataset()
        ds.features[0, 0] = 0.123456789123
        paths = save_dataset(ds, tmp_path, format="csv")
        loaded = load_dataset(paths["features"], paths["attributes"],
                              paths["split"], format="csv")
        assert np.max(np.abs(loaded.features - ds.features)) < 1e-7

    def test_split_naming_out_of_range_class(self, tmp_path):
        ds = tiny_dataset()
        paths = save_dataset(ds, tmp_path, format="csv")
        split = paths["split"].read_text().replace("unseen: 2", "unseen: 3")
        paths["split"].write_text(split)
        with pytest.raises(ValidationError, match="3"):
            load_dataset(paths["features"], paths["attributes"], paths["split"],
                         format="csv")

    def test_empty_test_unseen_round_trips(self, tmp_path):
        ds = tiny_dataset()
        ds2 = SplitDataset(
            features=ds.features, labels=ds.labels, attributes=ds.attributes,
            seen_classes=ds.seen_classes, unseen_classes=ds.unseen_classes,
            train_idx=ds.train_idx, test_seen_idx=ds.test_seen_idx,
            test_unseen_idx=[],
        )
        paths = save_dataset(ds2, tmp_path, format="csv")
        loaded = load_dataset(paths["features"], paths["attributes"],
                              paths["split"], format="csv")
        assert loaded.test_unseen_idx.size == 0

    def test_malformed_row_names_location(self, tmp_path):
        ds = tiny_dataset()
        paths = save_dataset(ds, tmp_path, format="csv")
        lines = paths["features"].read_text().splitlines()
        lines[2] = lines[2] + ",999"
        paths["features"].write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="row 3"):
            load_dataset(paths["features"], paths["attributes"], paths["split"],
                         format="csv")

    @pytest.mark.parametrize("bad_id", ["999", "abc", "1", ""])
    def test_features_csv_ids_are_row_numbers(self, tmp_path, bad_id):
        paths = save_dataset(tiny_dataset(), tmp_path, format="csv")
        lines = paths["features"].read_text().splitlines()
        lines[1] = bad_id + "," + lines[1].split(",", 1)[1]
        paths["features"].write_text("\n".join(lines) + "\n")
        with pytest.raises(FormatError, match="row 2 has id"):
            load_dataset(paths["features"], paths["attributes"], paths["split"],
                         format="csv")

    def test_label_past_float32_precision_rejected_on_save(self, tmp_path):
        ds = tiny_dataset()
        # float32 rounds 2**24 + 1 to 2**24; the dataset checks run at
        # construction only, so the label is set afterwards
        ds.labels[3] = 2**24 + 1
        with pytest.raises(FormatError, match="16777217"):
            save_dataset(ds, tmp_path / "out")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("row,bad", [(3, 2.7), (2, 1.5), (2, -1.0),
                                         (2, float("nan")), (2, float("inf"))])
    def test_label_that_is_not_a_class_id_rejected_on_load(self, tmp_path, row,
                                                           bad):
        ds = tiny_dataset()
        save_dataset(ds, tmp_path)
        labels = ds.labels.astype(np.float64)
        labels[row] = bad
        save_matrix(tmp_path / "features.labels.bin", labels[:, None])
        with pytest.raises(FormatError, match="not a nonnegative integer"):
            load_dataset_dir(tmp_path)


class TestValidation:
    def test_overlapping_splits_rejected(self):
        ds = tiny_dataset()
        with pytest.raises(ValidationError):
            SplitDataset(features=ds.features, labels=ds.labels,
                         attributes=ds.attributes, seen_classes=[0, 1],
                         unseen_classes=[2], train_idx=[0, 2],
                         test_seen_idx=[0], test_unseen_idx=[3])

    def test_seen_unseen_disjoint(self):
        ds = tiny_dataset()
        with pytest.raises(ValidationError):
            SplitDataset(features=ds.features, labels=ds.labels,
                         attributes=ds.attributes, seen_classes=[0, 1],
                         unseen_classes=[1, 2], train_idx=[0, 2],
                         test_seen_idx=[1], test_unseen_idx=[3])

    def test_zero_norm_attribute_row_rejected(self):
        with pytest.raises(ValidationError):
            AttributeTable([[1.0, 0.0], [0.0, 0.0]])

    def test_attribute_rows_are_normalized(self):
        table = AttributeTable([[3.0, 4.0], [0.0, 2.0]])
        assert np.allclose(np.linalg.norm(table.values, axis=1), 1.0, atol=1e-12)


class TestSampleEpisode:
    @pytest.fixture(scope="class")
    @staticmethod
    def bench():
        return generate_synthetic(SynthConfig())

    def test_default_episode_shape(self, bench):
        ep = sample_episode(bench, 20, 4, RngStream(0))
        assert ep.visual.shape == (80, bench.feat_dim)
        assert ep.semantic.shape == (20, bench.attr_dim)
        assert np.unique(ep.class_ids).size == 20
        # every sample carries its class's global label
        for row, c in enumerate(ep.class_ids):
            assert np.all(bench.labels[ep.sample_idx[row]] == c)
        # semantic rows match attribute rows of the chosen classes
        assert np.array_equal(ep.semantic, bench.attributes.rows(ep.class_ids))

    def test_exhaustive_draw_is_permutation(self, bench):
        ep = sample_episode(bench, bench.seen_classes.size, 4, RngStream(1))
        assert sorted(ep.class_ids.tolist()) == bench.seen_classes.tolist()

    def test_fixed_seed_reproduces_episode(self, bench):
        e1 = sample_episode(bench, 10, 3, RngStream(9))
        e2 = sample_episode(bench, 10, 3, RngStream(9))
        assert np.array_equal(e1.class_ids, e2.class_ids)
        assert np.array_equal(e1.sample_idx, e2.sample_idx)
        assert np.array_equal(e1.visual, e2.visual)

    def test_capacity_error_states_deficit(self, bench):
        with pytest.raises(CapacityError, match="short by 2"):
            sample_episode(bench, bench.seen_classes.size + 2, 4, RngStream(0))

    def test_coverage_over_many_draws(self):
        ds = generate_synthetic(SynthConfig(seen_count=5, unseen_count=2,
                                            attr_dim=3, feat_dim=4,
                                            train_per_class=4, test_per_class=2,
                                            noise_scale=0.1, seed=8))
        rng = RngStream(4)
        seen = set()
        for _ in range(10_000):
            seen.update(sample_episode(ds, 2, 2, rng).class_ids.tolist())
            if len(seen) == 5:
                break
        assert seen == set(ds.seen_classes.tolist())


class TestGenerateSynthetic:
    def test_zero_noise_samples_equal_class_means(self):
        cfg = SynthConfig(seen_count=3, unseen_count=2, attr_dim=4, feat_dim=6,
                          train_per_class=5, test_per_class=2, noise_scale=0.0,
                          seed=2)
        ds = generate_synthetic(cfg)
        for c in range(5):
            rows = ds.features[ds.labels == c]
            assert np.all(rows == rows[0])

    def test_default_shape_contract(self):
        ds = generate_synthetic(SynthConfig())
        assert ds.features.shape == (40 * 130 + 10 * 30, 32)
        assert ds.train_idx.size == 40 * 100
        assert ds.test_seen_idx.size == 40 * 30
        assert ds.test_unseen_idx.size == 10 * 30
        assert ds.attributes.num_classes == 50

    def test_least_squares_recovers_hidden_map(self):
        cfg = SynthConfig(seen_count=30, unseen_count=5, attr_dim=6, feat_dim=10,
                          train_per_class=3, test_per_class=1, noise_scale=0.0,
                          seed=5)
        ds = generate_synthetic(cfg)
        # class means from the data, then attributes -> means least squares
        means = np.stack([ds.features[ds.labels == c][0]
                          for c in range(ds.attributes.num_classes)])
        g, *_ = np.linalg.lstsq(ds.attributes.values, means, rcond=None)
        recon = ds.attributes.values @ g
        rel = np.linalg.norm(recon - means) / np.linalg.norm(means)
        assert rel < 1e-6

    def test_equal_seeds_bitwise_reproducible(self):
        cfg = SynthConfig(seen_count=4, unseen_count=2, attr_dim=3, feat_dim=5,
                          train_per_class=4, test_per_class=2, noise_scale=0.3,
                          seed=6)
        a = generate_synthetic(cfg)
        b = generate_synthetic(cfg)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.attributes.values, b.attributes.values)

    def test_different_seeds_differ(self):
        base = dict(seen_count=4, unseen_count=2, attr_dim=3, feat_dim=5,
                    train_per_class=4, test_per_class=2, noise_scale=0.3)
        a = generate_synthetic(SynthConfig(seed=1, **base))
        b = generate_synthetic(SynthConfig(seed=2, **base))
        assert not np.array_equal(a.features, b.features)

    def test_invalid_counts_rejected(self):
        with pytest.raises(ParameterError):
            SynthConfig(seen_count=0)
        with pytest.raises(ParameterError):
            SynthConfig(noise_scale=-0.1)

    def test_narrow_feature_space_warns(self):
        with pytest.warns(UserWarning):
            SynthConfig(attr_dim=8, feat_dim=4)
