"""tools/compare_outputs.py's relabelled and one-row copies of the CSV
dataset.

The tool is a script, not a module of the package, so it is loaded by path.
"""
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from protoplace.data import SynthConfig, generate_synthetic, load_dataset_dir, \
    save_dataset

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"


@pytest.fixture(scope="module")
def compare_outputs():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def save_csv_data(tmp_path):
    save_dataset(generate_synthetic(SynthConfig(
        seen_count=5, unseen_count=3, attr_dim=4, feat_dim=6, train_per_class=3,
        test_per_class=2, seed=3)), tmp_path / "data_csv", format="csv")


def test_relabelled_copy_renames_every_class(compare_outputs, tmp_path):
    # class k of L becomes L-1-k: the unseen ids then lie below the seen ones
    save_csv_data(tmp_path)
    ds, _ = load_dataset_dir(tmp_path / "data_csv")
    compare_outputs.copy_csv_data_relabelled(tmp_path)
    got, _ = load_dataset_dir(tmp_path / compare_outputs.RELABELLED)
    last = ds.attributes.num_classes - 1
    assert got.labels.tolist() == (last - ds.labels).tolist()
    assert got.seen_classes.tolist() == [3, 4, 5, 6, 7]
    assert got.unseen_classes.tolist() == [0, 1, 2]
    assert np.array_equal(got.attributes.values, ds.attributes.values[::-1])
    assert np.array_equal(got.features, ds.features)
    for name in ("train_idx", "test_seen_idx", "test_unseen_idx"):
        assert np.array_equal(getattr(got, name), getattr(ds, name)), name


def test_one_row_copy_cuts_test_unseen(compare_outputs, tmp_path):
    # test_unseen keeps its first row; everything else loads unchanged
    save_csv_data(tmp_path)
    ds, _ = load_dataset_dir(tmp_path / "data_csv")
    assert ds.test_unseen_idx.size > 1
    compare_outputs.copy_csv_data_one_unseen_row(tmp_path)
    got, _ = load_dataset_dir(tmp_path / compare_outputs.ONE_ROW)
    assert got.test_unseen_idx.tolist() == ds.test_unseen_idx[:1].tolist()
    assert np.array_equal(got.features, ds.features)
    assert np.array_equal(got.labels, ds.labels)
    assert np.array_equal(got.attributes.values, ds.attributes.values)
    for name in ("seen_classes", "unseen_classes", "train_idx", "test_seen_idx"):
        assert np.array_equal(getattr(got, name), getattr(ds, name)), name


def test_no_csv_data_no_copy(compare_outputs, tmp_path):
    # without synth_csv's data each leg fails on a missing dataset
    compare_outputs.copy_csv_data_relabelled(tmp_path)
    compare_outputs.copy_csv_data_one_unseen_row(tmp_path)
    assert list(tmp_path.iterdir()) == []
