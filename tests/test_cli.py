import json

import numpy as np
import pytest

from protoplace.cli import main
from protoplace.config import DEFAULTS, load_config
from protoplace.data import load_dataset_dir, load_matrix, save_dataset, \
    save_matrix
from protoplace.errors import ConfigError

TINY = {
    "seed": 0,
    "synth": {
        "seen_count": 8,
        "unseen_count": 3,
        "attr_dim": 4,
        "feat_dim": 6,
        "train_per_class": 8,
        "test_per_class": 3,
        "noise_scale": 0.3,
    },
    "sof": {"epochs": 2},
    "train": {
        "epochs": 2,
        "episodes_per_epoch": 3,
        "m_classes": 4,
        "n_samples": 2,
    },
    "hallucination": {"n_neighbors": 2},
    "eval": {"delta_step": 0.25},
}


@pytest.fixture
def workdir(tmp_path):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(TINY))
    return tmp_path, cfg_path


def run(*argv):
    return main([str(a) for a in argv])


def make_data(tmp_path, cfg_path):
    data = tmp_path / "data"
    assert run("synth", "--config", cfg_path, "--out", data) == 0
    return data


class TestConfig:
    def test_defaults_round_trip(self, tmp_path):
        p = tmp_path / "empty.json"
        p.write_text("{}")
        assert load_config(p) == DEFAULTS

    def test_unknown_key_named(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"hallucination": {"sigmaa": 0.1}}))
        with pytest.raises(ConfigError, match="hallucination.sigmaa"):
            load_config(p)

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"hallucination": {"sigmaa": 0.1}}))
        assert run("synth", "--config", p, "--out", tmp_path / "d") == 2
        assert "sigmaa" in capsys.readouterr().err

    def test_out_of_range_value_exits_2(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"hallucination": {"sigma": -1.0}}))
        assert run("synth", "--config", p, "--out", tmp_path / "d") == 2

    def test_train_mode_is_not_a_config_key(self, tmp_path):
        # the mode comes from --mode only
        p = tmp_path / "mode.json"
        p.write_text(json.dumps({"train": {"mode": "s2v_baseline"}}))
        with pytest.raises(ConfigError, match="train.mode"):
            load_config(p)

    def test_wrong_value_type_exits_2(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"train": {"epochs": "3"}}))
        assert run("synth", "--config", p, "--out", tmp_path / "d") == 2


class TestSynth:
    def test_writes_dataset_and_manifest(self, workdir):
        tmp_path, cfg = workdir
        data = make_data(tmp_path, cfg)
        for name in ("features.bin", "features.labels.bin", "attributes.bin",
                     "split.txt", "manifest.json"):
            assert (data / name).exists(), name
        manifest = json.loads((data / "manifest.json").read_text())
        assert manifest["seed"] == 0
        assert manifest["metrics"]["samples"] == 8 * 11 + 3 * 3

    def test_rerun_is_byte_identical(self, workdir):
        tmp_path, cfg = workdir
        d1 = tmp_path / "d1"
        d2 = tmp_path / "d2"
        assert run("synth", "--config", cfg, "--out", d1) == 0
        assert run("synth", "--config", cfg, "--out", d2) == 0
        assert (d1 / "features.bin").read_bytes() == (d2 / "features.bin").read_bytes()
        m1 = json.loads((d1 / "manifest.json").read_text())
        m2 = json.loads((d2 / "manifest.json").read_text())
        assert m1["metrics"]["fingerprint"] == m2["metrics"]["fingerprint"]


class TestTrain:
    @pytest.mark.parametrize("mode", ["s2v", "ep", "ep-ei", "full"])
    def test_each_mode_writes_model(self, workdir, mode):
        tmp_path, cfg = workdir
        data = make_data(tmp_path, cfg)
        out = tmp_path / f"run_{mode}"
        assert run("train", "--config", cfg, "--data", data, "--out", out,
                   "--mode", mode) == 0
        model_dir = out / "model"
        for name in ("net_w1.bin", "net_b1.bin", "net_w2.bin", "net_b2.bin",
                     "model.json"):
            assert (model_dir / name).exists(), name
        # refiner artifacts appear exactly when the mode uses stage one
        assert (model_dir / "refiner.json").exists() == (mode == "full")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["metrics"]["final_loss"] is not None

    def test_rerun_reproduces_model_bytes(self, workdir):
        tmp_path, cfg = workdir
        data = make_data(tmp_path, cfg)
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert run("train", "--config", cfg, "--data", data, "--out", out,
                       "--mode", "ep-ei") == 0
            outs.append(out)
        for f in ("net_w1.bin", "net_b2.bin", "model.json"):
            assert (outs[0] / "model" / f).read_bytes() == \
                (outs[1] / "model" / f).read_bytes(), f

    def test_zero_norm_train_row_exits_4(self, workdir, capsys):
        # a zero feature row reaching the loss is a numeric failure, not a
        # configuration error
        tmp_path, cfg = workdir
        ds = load_dataset_dir(make_data(tmp_path, cfg))
        ds.features[ds.train_idx] = 0.0
        zero = tmp_path / "zero_data"
        save_dataset(ds, zero)
        rc = run("train", "--config", cfg, "--data", zero,
                 "--out", tmp_path / "out", "--mode", "s2v")
        assert rc == 4
        assert "numeric failure" in capsys.readouterr().err

    def test_missing_data_exits_3(self, workdir, capsys):
        tmp_path, cfg = workdir
        rc = run("train", "--config", cfg, "--data", tmp_path / "nope",
                 "--out", tmp_path / "out", "--mode", "s2v")
        assert rc == 3
        assert "missing input" in capsys.readouterr().err


class TestEval:
    @pytest.fixture
    def trained(self, workdir):
        tmp_path, cfg = workdir
        data = make_data(tmp_path, cfg)
        out = tmp_path / "run_s2v"
        assert run("train", "--config", cfg, "--data", data, "--out", out,
                   "--mode", "s2v") == 0
        return tmp_path, cfg, data, out / "model"

    def test_default_grid_has_51_rows(self, trained):
        tmp_path, cfg, data, model = trained
        out = tmp_path / "eval"
        assert run("eval", "--model", model, "--data", data, "--out", out) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "delta,U,S,H"
        assert len(lines) == 52
        deltas = [float(l.split(",")[0]) for l in lines[1:]]
        assert deltas[0] == 0.0 and deltas[-1] == 1.0
        assert (out / "report.csv").exists()
        assert (out / "report.txt").exists()
        assert (out / "similarity_seen.csv").exists()
        assert (out / "similarity_unseen.csv").exists()

    def test_singleton_grid(self, trained):
        tmp_path, cfg, data, model = trained
        out = tmp_path / "eval1"
        assert run("eval", "--model", model, "--data", data, "--out", out,
                   "--delta-grid", "0.3") == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 2 and lines[1].startswith("0.3,")

    def test_unparsable_grid_exits_2(self, trained):
        tmp_path, cfg, data, model = trained
        for spec in ("0:1", "0.1,x", "1:0:0.1", "nan,0.5", "0:inf:0.1"):
            assert run("eval", "--model", model, "--data", data,
                       "--out", tmp_path / "e", "--delta-grid", spec) == 2, spec

    def test_two_models_get_paired_files(self, trained):
        tmp_path, cfg, data, model = trained
        out2 = tmp_path / "run_ep"
        assert run("train", "--config", cfg, "--data", data, "--out", out2,
                   "--mode", "ep") == 0
        out = tmp_path / "eval2"
        assert run("eval", "--model", model, "--model", out2 / "model",
                   "--data", data, "--out", out, "--delta-grid", "0,0.5") == 0
        assert (out / "report_run_s2v.csv").exists()
        assert (out / "report_run_ep.csv").exists()
        assert (out / "similarity_unseen_run_s2v.csv").exists()
        assert (out / "similarity_unseen_run_ep.csv").exists()

    def test_rerun_metric_files_byte_identical(self, trained):
        tmp_path, cfg, data, model = trained
        e1 = tmp_path / "e1"
        e2 = tmp_path / "e2"
        for out in (e1, e2):
            assert run("eval", "--model", model, "--data", data,
                       "--out", out, "--delta-grid", "0:0.2:0.1") == 0
        for f in ("sweep.csv", "report.csv", "similarity_seen.csv"):
            assert (e1 / f).read_bytes() == (e2 / f).read_bytes(), f

    @pytest.mark.parametrize("edit", [
        lambda m: m.pop("lambda_real"),
        lambda m: m.update(bogus=1),
        lambda m: m.pop("format_version"),
    ], ids=["missing key", "unknown key", "no version"])
    def test_malformed_model_json_exits_5(self, trained, edit, capsys):
        tmp_path, cfg, data, model = trained
        manifest = json.loads((model / "model.json").read_text())
        edit(manifest)
        (model / "model.json").write_text(json.dumps(manifest))
        rc = run("eval", "--model", model, "--data", data, "--out", tmp_path / "e")
        assert rc == 5
        assert "model.json" in capsys.readouterr().err

    def test_non_integral_label_exits_5(self, trained):
        tmp_path, cfg, data, model = trained
        labels = load_matrix(data / "features.labels.bin")
        labels[-1, 0] += 0.7  # an unseen test row: truncation would hide it
        save_matrix(data / "features.labels.bin", labels)
        rc = run("eval", "--model", model, "--data", data, "--out", tmp_path / "e")
        assert rc == 5

    def test_missing_model_exits_3(self, trained):
        tmp_path, cfg, data, model = trained
        rc = run("eval", "--model", tmp_path / "ghost", "--data", data,
                 "--out", tmp_path / "e")
        assert rc == 3

    def test_mismatched_model_exits_5(self, trained, tmp_path_factory):
        tmp_path, cfg, data, model = trained
        other_root = tmp_path_factory.mktemp("other")
        cfg2 = dict(TINY, synth=dict(TINY["synth"], attr_dim=5, feat_dim=7))
        cfg2_path = other_root / "cfg.json"
        cfg2_path.write_text(json.dumps(cfg2))
        other_data = other_root / "data"
        assert run("synth", "--config", cfg2_path, "--out", other_data) == 0
        rc = run("eval", "--model", model, "--data", other_data,
                 "--out", other_root / "e")
        assert rc == 5


class TestAblate:
    def test_ladder_rows_and_stats(self, workdir):
        tmp_path, cfg = workdir
        data = make_data(tmp_path, cfg)
        out = tmp_path / "ablation"
        assert run("ablate", "--config", cfg, "--data", data, "--out", out,
                   "--seeds", "2") == 0
        lines = (out / "ablation.csv").read_text().splitlines()
        assert lines[0] == "config,T,U,S,H"
        names = [l.split(",")[0] for l in lines[1:]]
        assert names == ["s2v", "s2v+ep_ei", "s2v+sof", "s2v+sof+ep",
                         "s2v+sof+ep_ei"]
        for line in lines[1:]:
            cells = line.split(",")[1:]
            assert len(cells) == 4
            for cell in cells:
                mean, std = cell.split("±")
                assert 0.0 <= float(mean) <= 1.0
                assert float(std) >= 0.0
        assert (out / "ablation.txt").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest["metrics"]) == set(names) | {"dataset_fingerprint"}


class TestSweep:
    def test_neighbor_sweep_with_range_and_zero(self, workdir):
        tmp_path, cfg = workdir
        data = make_data(tmp_path, cfg)
        out = tmp_path / "sweep_n"
        assert run("sweep", "--config", cfg, "--data", data, "--out", out,
                   "--param", "n", "--values", "0..2", "--mode", "ep-ei") == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "value,T,H"
        assert [l.split(",")[0] for l in lines[1:]] == ["0", "1", "2"]

    def test_config_key_name_is_accepted(self, workdir):
        # README documents `--param n_neighbors`; `n` stays an alias of it
        tmp_path, cfg = workdir
        data = make_data(tmp_path, cfg)
        outs = []
        for param in ("n_neighbors", "n"):
            out = tmp_path / f"sweep_{param}"
            assert run("sweep", "--config", cfg, "--data", data, "--out", out,
                       "--param", param, "--values", "0,2", "--mode",
                       "ep-ei") == 0
            outs.append((out / "sweep.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_sigma_sweep(self, workdir):
        tmp_path, cfg = workdir
        data = make_data(tmp_path, cfg)
        out = tmp_path / "sweep_s"
        assert run("sweep", "--config", cfg, "--data", data, "--out", out,
                   "--param", "sigma", "--values", "0.1,0.5", "--mode",
                   "ep-ei") == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert [l.split(",")[0] for l in lines[1:]] == ["0.1", "0.5"]

    @pytest.mark.parametrize("values", ["x", "1..2..3", "a..3"])
    def test_unparsable_values_exit_2(self, workdir, values, capsys):
        tmp_path, cfg = workdir
        data = make_data(tmp_path, cfg)
        rc = run("sweep", "--config", cfg, "--data", data, "--out",
                 tmp_path / "s", "--param", "n", "--values", values)
        assert rc == 2
        assert "--values" in capsys.readouterr().err

    def test_unknown_param_exits_2(self, workdir):
        tmp_path, cfg = workdir
        data = make_data(tmp_path, cfg)
        rc = run("sweep", "--config", cfg, "--data", data,
                 "--out", tmp_path / "s", "--param", "beta", "--values", "1")
        assert rc == 2
