import builtins
import dataclasses
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from protoplace import cli, metrics
from protoplace import config as cfgmod
from protoplace.cli import main
from protoplace.config import DEFAULTS, delta_grid, load_config
from protoplace.data import AttributeTable, SplitDataset, SynthConfig, \
    generate_synthetic, load_dataset_dir, load_matrix, save_dataset, save_matrix, \
    write_csv
from protoplace.errors import ConfigError
from protoplace.metrics import prototype_similarity
from protoplace.prototypes import PIPELINES, TrainConfig, load_model, \
    project_prototypes, train_prototypes
from protoplace.refine import SofConfig, refine_features, train_sof

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


# Every config key that takes a whole number.
INTEGER_KEYS = [
    "seed",
    "synth.seen_count", "synth.unseen_count", "synth.attr_dim", "synth.feat_dim",
    "synth.train_per_class", "synth.test_per_class",
    "sof.epochs", "sof.batch_size",
    "train.epochs", "train.episodes_per_epoch", "train.m_classes",
    "train.n_samples", "train.hidden_dim",
    "hallucination.n_neighbors",
]

# Every float config key whose rule is a range, besides the eval section's.
FLOAT_KEYS = [
    "synth.noise_scale",
    "sof.learning_rate", "sof.logit_scale", "sof.momentum",
    "train.learning_rate", "train.logit_scale", "train.lambda_real",
    "hallucination.sigma", "hallucination.alpha1", "hallucination.alpha2",
]


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


def write_config(path, **sections):
    """TINY with the given sections' keys (or top-level values) overridden,
    written to path."""
    path.write_text(json.dumps({**TINY, **{
        name: {**TINY.get(name, {}), **keys} if isinstance(keys, dict) else keys
        for name, keys in sections.items()}}))
    return path


@pytest.fixture
def training_calls(monkeypatch):
    """The number of calls the CLI makes to train_sof and train_prototypes."""
    calls = {"train_sof": 0, "train_prototypes": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(cli, name), **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)
        monkeypatch.setattr(cli, name, counted)
    return calls


# What `protoplace --help` and each `protoplace <command> --help` print at 80
# columns.
HELP = {
    None: """\
usage: protoplace [-h] {synth,train,eval,ablate,sweep} ...

Placeholder-based prototype learning for zero-shot recognition on embedding-
level benchmarks.

positional arguments:
  {synth,train,eval,ablate,sweep}
    synth               generate a synthetic benchmark dataset
    train               train a prototype model
    eval                evaluate trained model(s)
    ablate              run the five-configuration ablation ladder
    sweep               sweep a hallucination hyper-parameter

options:
  -h, --help            show this help message and exit
""",
    "synth": """\
usage: protoplace synth [-h] --config CONFIG --out OUT [--format {binary,csv}]

options:
  -h, --help            show this help message and exit
  --config CONFIG
  --out OUT
  --format {binary,csv}
""",
    "train": """\
usage: protoplace train [-h] --config CONFIG --data DATA --out OUT
                        [--mode {s2v,ep,ep-ei,full}]

options:
  -h, --help            show this help message and exit
  --config CONFIG
  --data DATA
  --out OUT
  --mode {s2v,ep,ep-ei,full}
""",
    "eval": """\
usage: protoplace eval [-h] --data DATA --out OUT --model MODEL
                       [--delta-grid DELTA_GRID]

options:
  -h, --help            show this help message and exit
  --data DATA
  --out OUT
  --model MODEL         model directory; pass twice for paired similarity
                        output
  --delta-grid DELTA_GRID
                        start:stop:step or comma-separated deltas (default:
                        the config default, 0:1:0.02)
""",
    "ablate": """\
usage: protoplace ablate [-h] --config CONFIG --data DATA --out OUT
                         [--seeds SEEDS]

options:
  -h, --help       show this help message and exit
  --config CONFIG
  --data DATA
  --out OUT
  --seeds SEEDS
""",
    "sweep": """\
usage: protoplace sweep [-h] --config CONFIG --data DATA --out OUT --param
                        PARAM --values VALUES [--mode {s2v,ep,ep-ei,full}]

options:
  -h, --help            show this help message and exit
  --config CONFIG
  --data DATA
  --out OUT
  --param PARAM         n_neighbors (alias n) or sigma
  --values VALUES       comma-separated values and inclusive integer ranges
                        a..b, such as 0..8
  --mode {s2v,ep,ep-ei,full}
""",
}
TOP_USAGE = "usage: protoplace [-h] {synth,train,eval,ablate,sweep} ...\n"


class TestUsage:
    @pytest.fixture(autouse=True)
    def columns(self, monkeypatch):
        # argparse wraps its text to the terminal's width, read from COLUMNS
        monkeypatch.setenv("COLUMNS", "80")

    def exit_and_output(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        return exc.value.code, *capsys.readouterr()

    @pytest.mark.parametrize("command", HELP)
    def test_help(self, capsys, command):
        argv = ["--help"] if command is None else [command, "--help"]
        code, out, err = self.exit_and_output(capsys, argv)
        # Python 3.10 heads the options "optional arguments:"
        assert (code, out.replace("optional arguments:", "options:"), err) == \
            (0, HELP[command], "")

    @pytest.mark.parametrize("argv,stderr", [
        (["bogus"], TOP_USAGE + "protoplace: error: argument command: invalid "
         "choice: 'bogus' (choose from 'synth', 'train', 'eval', 'ablate', "
         "'sweep')\n"),
        ([], TOP_USAGE + "protoplace: error: the following arguments are "
         "required: command\n"),
        (["eval", "--data", "d", "--out", "o"],
         HELP["eval"].split("\n\n")[0] + "\nprotoplace eval: error: the "
         "following arguments are required: --model\n"),
        (["train", "--config", "c", "--data", "d", "--out", "o", "--mode", "x"],
         HELP["train"].split("\n\n")[0] + "\nprotoplace train: error: argument "
         "--mode: invalid choice: 'x' (choose from 's2v', 'ep', 'ep-ei', "
         "'full')\n"),
        # an argument no parser knows is the whole program's usage error
        (["eval", "--model", "m", "--data", "d", "--out", "o", "--bogus", "1"],
         TOP_USAGE + "protoplace: error: unrecognized arguments: --bogus 1\n"),
    ], ids=["unknown command", "no command", "eval without --model",
            "unknown mode", "unknown flag"])
    def test_usage_errors_exit_2(self, capsys, argv, stderr):
        assert self.exit_and_output(capsys, argv) == (2, "", stderr)


class TestConfig:
    def test_defaults_round_trip(self, tmp_path):
        p = tmp_path / "empty.json"
        p.write_text("{}")
        assert load_config(p).record == DEFAULTS

    def test_typed_sections_of_the_defaults(self, tmp_path):
        # each section is built once, at load; train in s2v_baseline mode
        p = tmp_path / "empty.json"
        p.write_text("{}")
        cfg = load_config(p)
        assert cfg.synth == SynthConfig()
        assert cfg.sof == SofConfig()
        assert cfg.train == TrainConfig(mode="s2v_baseline")
        assert cfg.grid == delta_grid(DEFAULTS)

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

    @pytest.mark.parametrize("text", ['{"seed": 1, "seed": 2}',
                                      '{"train": {"epochs": 1, "epochs": 1}}'],
                             ids=["top level", "in a section"])
    def test_repeated_key_exits_2(self, tmp_path, capsys, text):
        # neither copy silently wins, even where both agree
        p = tmp_path / "bad.json"
        p.write_text(text)
        assert run("synth", "--config", p, "--out", tmp_path / "d") == 2
        assert "repeated key" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

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

    @pytest.mark.parametrize("value", [1.5, 2.0, True], ids=["1.5", "2.0", "true"])
    @pytest.mark.parametrize("key", INTEGER_KEYS)
    def test_integer_key_rejects_non_integer(self, tmp_path, capsys, key, value):
        # neither truncated (seed 1.5 -> 1) nor left to fail in training
        section, _, name = key.rpartition(".")
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({section: {name: value}} if section
                                else {name: value}))
        assert run("synth", "--config", p, "--out", tmp_path / "d") == 2
        assert "must be an integer" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_float_key_rejects_nan(self, tmp_path, capsys, key):
        # NaN fails every comparison, so only a rule that NaN must pass (not
        # one that it must fail) rejects it
        section, _, name = key.rpartition(".")
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({section: {name: float("nan")}}))
        assert run("synth", "--config", p, "--out", tmp_path / "d") == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_float_key_rejects_bool(self, tmp_path, capsys, key):
        # Python counts true as the int 1, which every range rule but the
        # momentum's admits
        section, _, name = key.rpartition(".")
        p = write_config(tmp_path / "bad.json", **{section: {name: True}})
        assert run("synth", "--config", p, "--out", tmp_path / "d") == 2
        assert "must be a real number" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("key", [
        "synth.noise_scale", "sof.learning_rate", "sof.logit_scale",
        "train.learning_rate", "train.logit_scale", "train.lambda_real",
    ])
    def test_float_key_rejects_infinity(self, tmp_path, capsys, key):
        # a lower bound alone admits Infinity, which then ends as a divergence
        # (exit 4), not as a configuration error
        section, _, name = key.rpartition(".")
        p = write_config(tmp_path / "bad.json", **{section: {name: float("inf")}})
        assert run("synth", "--config", p, "--out", tmp_path / "d") == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("value", [float("inf"), 1.5e300, 1e308],
                             ids=["Infinity", "1.5e300", "1e308"])
    @pytest.mark.parametrize("name", ["alpha1", "alpha2"])
    def test_beta_shape_bounded(self, tmp_path, capsys, name, value):
        # an infinite shape makes every Beta inf / inf, and two shapes near
        # the largest float overflow the Gamma sum: a configuration error,
        # not a divergence (exit 4) or Betas of 0 (exit 0)
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({**TINY, "hallucination": {"n_neighbors": 2,
                                                           name: value}}))
        assert run("synth", "--config", p, "--out", tmp_path / "d") == 2
        assert "Beta shapes" in capsys.readouterr().err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("key,value", [
        ("delta_step", float("nan")), ("delta_start", float("nan")),
        ("delta_stop", float("inf")), ("delta_step", "0.1"), ("delta_step", True),
        ("delta_start", None),
    ], ids=["step NaN", "start NaN", "stop Infinity", "step string", "step true",
            "start null"])
    def test_eval_numbers_checked_at_load(self, tmp_path, key, value):
        # NaN and Infinity are what Python's json module reads and writes for
        # the non-finite floats
        p = write_config(tmp_path / "bad.json", eval={key: value})
        with pytest.raises(ConfigError, match="delta grid"):
            load_config(p)

    @pytest.mark.parametrize("section,key,value", [
        ("train", "optimizer", "sgd"), ("sof", "optimizer", "rmsprop"),
        ("sof", "momentum", 1.5),
    ])
    def test_optimizer_settings_checked_at_load(self, tmp_path, section, key,
                                                value):
        p = write_config(tmp_path / "bad.json", **{section: {key: value}})
        with pytest.raises(ConfigError, match=key):
            load_config(p)


class TestRunConfigsBuiltFirst:
    """Each command builds the configs of all its runs before the first one
    trains, so a bad value exits 2 before any work."""

    @pytest.mark.parametrize("sections,argv", [
        ({"eval": {"delta_step": float("nan")}}, ["train", "--mode", "s2v"]),
        ({"sof": {"optimizer": "rmsprop"}}, ["train", "--mode", "s2v"]),
        ({"sof": {"momentum": 1.5}}, ["train", "--mode", "s2v"]),
        ({"train": {"optimizer": "sgd"}}, ["train", "--mode", "full"]),
        ({"train": {"m_classes": 5}, "hallucination": {"n_neighbors": 5}},
         ["train", "--mode", "full"]),
        ({"train": {"m_classes": 5}, "hallucination": {"n_neighbors": 5}},
         ["ablate", "--seeds", "1"]),
        ({}, ["sweep", "--param", "sigma", "--values", "0.1,1e-310",
              "--mode", "full"]),
        ({}, ["sweep", "--param", "n", "--values", "1,4", "--mode", "ep"]),
        ({"train": {"learning_rate": True}}, ["train", "--mode", "full"]),
        ({"train": {"lambda_real": True}}, ["train", "--mode", "full"]),
        ({"hallucination": {"sigma": True}}, ["train", "--mode", "full"]),
        ({"synth": {"noise_scale": True}}, ["train", "--mode", "full"]),
        ({}, ["ablate", "--seeds", "0"]),
        ({}, ["ablate", "--seeds", "-3"]),
        # the second seed is 2**64: rejected with the configs, not after the
        # first seed's runs
        ({"seed": 2**64 - 1}, ["ablate", "--seeds", "2"]),
        ({"seed": -1}, ["train", "--mode", "full"]),
        # a range ending below its start holds no value, not an empty sweep
        ({}, ["sweep", "--param", "n", "--values", "5..2", "--mode", "full"]),
        # a hidden layer of no units: 1/sqrt(0) or a negative size in training
        ({"train": {"hidden_dim": 0}}, ["train", "--mode", "full"]),
        ({"train": {"hidden_dim": -1}}, ["train", "--mode", "full"]),
        # the 8 seen classes cannot fill an episode of 9: rejected before
        # stage one, not after it
        ({"train": {"m_classes": 9}}, ["train", "--mode", "full"]),
        ({"train": {"m_classes": 9}}, ["ablate", "--seeds", "3"]),
        ({"train": {"m_classes": 9}}, ["sweep", "--param", "n", "--values", "1,2",
                                       "--mode", "full"]),
        # a repeated value would train twice and keep one manifest entry
        ({}, ["sweep", "--param", "n", "--values", "1,1..2", "--mode", "ep"]),
        ({}, ["sweep", "--param", "sigma", "--values", "0.1,1e-1", "--mode", "ep"]),
        # s2v never hallucinates: every run would ignore the swept value
        ({}, ["sweep", "--param", "sigma", "--values", "0.05,0.2,1", "--mode", "s2v"]),
    ], ids=["eval NaN", "sof optimizer", "sof momentum", "train optimizer",
            "train neighbours", "ablate neighbours", "sweep sigma",
            "sweep neighbours", "learning_rate true", "lambda_real true",
            "sigma true", "noise_scale true", "ablate no seeds",
            "ablate negative seeds", "ablate seed past 64 bits", "seed -1",
            "sweep descending range", "hidden_dim 0", "hidden_dim -1",
            "train capacity", "ablate capacity", "sweep capacity",
            "sweep repeated n", "sweep repeated sigma", "sweep s2v"])
    def test_bad_value_exits_2_before_training(self, workdir, training_calls,
                                               capsys, sections, argv):
        tmp_path, cfg = workdir
        data = make_data(tmp_path, cfg)
        bad = write_config(tmp_path / "bad.json", **sections)
        rc = run(argv[0], "--config", bad, "--data", data,
                 "--out", tmp_path / "out", *argv[1:])
        assert rc == 2
        assert "configuration error" in capsys.readouterr().err
        assert training_calls == {"train_sof": 0, "train_prototypes": 0}

    def test_neighbours_unbounded_where_nothing_hallucinates(self, workdir,
                                                             training_calls):
        # `train --mode s2v` and a sweep's n_neighbors = 0 run (s2v_baseline,
        # with the config's own n_neighbors) never draw neighbours
        tmp_path, cfg = workdir
        data = make_data(tmp_path, cfg)
        big = write_config(tmp_path / "big.json", hallucination={"n_neighbors": 9})
        assert run("train", "--config", big, "--data", data,
                   "--out", tmp_path / "t", "--mode", "s2v") == 0
        assert run("sweep", "--config", big, "--data", data, "--out", tmp_path / "s",
                   "--param", "n", "--values", "0,3", "--mode", "ep-ei") == 0
        assert training_calls == {"train_sof": 0, "train_prototypes": 3}


    def test_seeds_past_the_bound_exit_2_before_any_config(self, workdir,
                                                           monkeypatch, capsys):
        # each seed builds five run configs: past the bound, none is built
        tmp_path, cfg = workdir
        data = make_data(tmp_path, cfg)

        def built(*args, **kwargs):
            raise AssertionError("a run config was built")

        monkeypatch.setattr(cli, "replace", built)
        bound = cfgmod.MAX_SERIES
        assert run("ablate", "--config", cfg, "--data", data, "--out",
                   tmp_path / "out", "--seeds", bound + 1) == 2
        assert f"--seeds must be at most {bound}, got {bound + 1}" in \
            capsys.readouterr().err


class TestStageOnePerSeed:
    """Stage one reads only the data, the `sof` section and the seed, so
    each seed trains one refiner, whatever the number of its models, and a
    mode without stage one trains none."""

    @pytest.mark.parametrize("argv,calls", [
        # 5 ladder rows per seed, 3 of them behind the refiner
        (["ablate", "--seeds", "2"], (2, 10)),
        (["sweep", "--param", "n", "--values", "1,2,3", "--mode", "full"], (1, 3)),
        (["train", "--mode", "full"], (1, 1)),
        (["train", "--mode", "s2v"], (0, 1)),
    ], ids=["ablate", "sweep", "train-full", "train-s2v"])
    def test_refiners_trained(self, workdir, training_calls, argv, calls):
        tmp_path, cfg = workdir
        data = make_data(tmp_path, cfg)
        assert run(argv[0], "--config", cfg, "--data", data,
                   "--out", tmp_path / "out", *argv[1:]) == 0
        assert training_calls == dict(zip(("train_sof", "train_prototypes"), calls))


class TestStageTwoData:
    """Stage one trains on the whole dataset; a model behind it trains on
    the refined train rows alone, no test row among them."""

    # each command's models in training order, whether each runs behind
    # stage one, and its refiners
    @pytest.mark.parametrize("argv,sof_rows,refiners", [
        (["train", "--mode", "full"], [True], 1),
        (["ablate", "--seeds", "2"],
         [sof for _, row, _, sof in PIPELINES if row is not None] * 2, 2),
    ], ids=["train-full", "ablate"])
    def test_no_test_row_behind_stage_one(self, workdir, monkeypatch, argv,
                                          sof_rows, refiners):
        tmp_path, cfg = workdir
        data = make_data(tmp_path, cfg)
        ds, _ = load_dataset_dir(data)
        seen = {"train_sof": [], "train_prototypes": []}
        for name, got in seen.items():
            def wrapped(d, *args, _got=got, _original=getattr(cli, name)):
                _got.append(d)
                return _original(d, *args)
            monkeypatch.setattr(cli, name, wrapped)
        assert run(argv[0], "--config", cfg, "--data", data,
                   "--out", tmp_path / "out", *argv[1:]) == 0
        assert len(seen["train_sof"]) == refiners
        for d in seen["train_sof"]:
            assert np.array_equal(d.features, ds.features)
            assert np.array_equal(d.test_unseen_idx, ds.test_unseen_idx)
        assert len(seen["train_prototypes"]) == len(sof_rows)
        for d, sof in zip(seen["train_prototypes"], sof_rows):
            if sof:
                assert d.features.shape[0] == ds.train_idx.size
                assert d.test_seen_idx.size == d.test_unseen_idx.size == 0
                assert np.array_equal(d.labels, ds.labels[np.sort(ds.train_idx)])


class TestRunGrid:
    """What the run grid hands each row: the model `train` would train for
    that row's pipeline and seed, scored as `eval` scores it.  With ten test
    rows per class, the rows, the seeds and the swept values score apart."""

    SYNTH = {"test_per_class": 10}

    def train_and_eval(self, tmp_path, data, mode, **sections):
        """eval's manifest metrics of `train --mode mode` under the config
        with these sections, on the config's grid."""
        cfg = write_config(tmp_path / "run.json", synth=self.SYNTH, **sections)
        shutil.rmtree(tmp_path / "run", ignore_errors=True)
        assert run("train", "--config", cfg, "--data", data,
                   "--out", tmp_path / "run", "--mode", mode) == 0
        grid = ",".join(map(str, load_config(cfg).grid))
        assert run("eval", "--model", tmp_path / "run" / "model", "--data", data,
                   "--out", tmp_path / "run", f"--delta-grid={grid}") == 0
        return json.loads((tmp_path / "run" / "manifest.json").read_text()
                          )["metrics"]["model"]

    def test_ablation_rows_are_seed_major_pipelines(self, tmp_path):
        seed = 3
        cfg = write_config(tmp_path / "config.json", synth=self.SYNTH, seed=seed)
        data = make_data(tmp_path, cfg)
        out = tmp_path / "ablate"
        assert run("ablate", "--config", cfg, "--data", data, "--out", out,
                   "--seeds", "2") == 0
        cells = {line.split(",")[0]: line.split(",")[1:] for line in
                 (out / "ablation.csv").read_text().splitlines()[1:]}
        assert cells["s2v"] != cells["s2v+sof+ep_ei"]
        for row, mode in (("s2v", "s2v"), ("s2v+sof+ep_ei", "full")):
            per_seed = [self.train_and_eval(tmp_path, data, mode, seed=s)
                        for s in (seed, seed + 1)]
            assert per_seed[0] != per_seed[1]
            want = [f"{np.mean(v):.4f}±{np.std(v):.4f}" for v in
                    ([m[k] for m in per_seed] for k in ("T", "U", "S", "H"))]
            assert cells[row] == want, row

    def test_sweep_rows_are_their_train_runs(self, tmp_path):
        cfg = write_config(tmp_path / "config.json", synth=self.SYNTH)
        data = make_data(tmp_path, cfg)
        out = tmp_path / "sweep"
        assert run("sweep", "--config", cfg, "--data", data, "--out", out,
                   "--param", "n", "--values", "1,2", "--mode", "ep-ei") == 0
        swept = json.loads((out / "manifest.json").read_text())["metrics"]
        assert swept["1"] != swept["2"]
        for n in (1, 2):
            got = self.train_and_eval(tmp_path, data, "ep-ei",
                                      hallucination={"n_neighbors": n})
            assert swept[str(n)] == {"T": got["T"], "H": got["H"]}, n


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


    @pytest.mark.parametrize("first,second", [("binary", "csv"), ("csv", "binary")])
    def test_other_format_over_a_dataset_exits_2(self, workdir, capsys, first,
                                                 second):
        # the reader would mix the first dataset's features with the second's
        # split; nothing of the second is written
        tmp_path, cfg = workdir
        data = tmp_path / "data"
        assert run("synth", "--config", cfg, "--out", data, "--format", first) == 0
        before = {p.name: p.read_bytes() for p in data.iterdir()}
        other = write_config(tmp_path / "seed1.json", seed=1)
        assert run("synth", "--config", other, "--out", data,
                   "--format", second) == 2
        assert "would mix" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in data.iterdir()} == before

    @pytest.mark.parametrize("format,rc", [("binary", 4), ("csv", 0)])
    def test_features_past_float32_exit_4_before_any_file(self, workdir, capsys,
                                                          format, rc):
        # noise of 1e39 leaves finite features that float32 would hold as
        # infinities, which no reader takes; the CSV cells hold them as they are
        tmp_path, _ = workdir
        cfg = write_config(tmp_path / "loud.json", synth={"noise_scale": 1e39})
        data = tmp_path / "data"
        assert run("synth", "--config", cfg, "--out", data, "--format", format) == rc
        if rc:
            assert "numeric failure: features: " in capsys.readouterr().err
            assert list(data.iterdir()) == []
        else:
            assert np.all(np.abs(load_dataset_dir(data)[0].features) < np.inf)

    @pytest.mark.parametrize("under", [(), ("sub",)], ids=["a file", "under a file"])
    def test_out_not_a_directory_exits_2(self, workdir, capsys, under):
        # --out naming a regular file, or a path below one: a configuration
        # error before the command runs, and the file is left as it was
        tmp_path, cfg = workdir
        notadir = tmp_path / "notadir"
        notadir.write_bytes(b"kept\n")
        out = notadir.joinpath(*under)
        assert run("synth", "--config", cfg, "--out", out) == 2
        assert capsys.readouterr() == \
            ("", f"configuration error: --out {out} is not a directory\n")
        assert notadir.read_bytes() == b"kept\n"


class TestDatasetReads:
    """synth opens each dataset file once, to write it, and reads none; train
    and eval read each once.  Each fingerprints the bytes it wrote or read:
    sha256 over each file's name and bytes, in name order."""

    NAMES = {"binary": ["attributes.bin", "features.bin", "features.labels.bin",
                        "split.txt"],
             "csv": ["attributes.csv", "features.csv", "split.txt"]}

    @staticmethod
    def oracle(data, names) -> str:
        h = hashlib.sha256()
        for name in names:
            h.update(name.encode())
            h.update((data / name).read_bytes())
        return h.hexdigest()

    @pytest.fixture
    def opened(self, workdir, monkeypatch):
        """The (name, mode) of each file opened in the workdir's data."""
        data = workdir[0] / "data"
        opened = []
        real_open = io.open

        def counting_open(file, *args, **kwargs):
            if isinstance(file, (str, os.PathLike)) and Path(file).parent == data:
                opened.append((Path(file).name, args[0] if args
                               else kwargs.get("mode", "r")))
            return real_open(file, *args, **kwargs)

        # pathlib opens through io.open, the rest through builtins.open
        monkeypatch.setattr(io, "open", counting_open)
        monkeypatch.setattr(builtins, "open", counting_open)
        return opened

    @pytest.mark.parametrize("format", ["binary", "csv"])
    def test_synth_writes_each_file_once_and_reads_none(self, workdir, opened,
                                                        format):
        tmp_path, cfg = workdir
        data = tmp_path / "data"
        assert run("synth", "--config", cfg, "--out", data, "--format", format) == 0
        assert sorted(opened) == sorted([(name, "wb") for name in self.NAMES[format]]
                                        + [("manifest.json", "w")])
        manifest = json.loads((data / "manifest.json").read_text())
        assert manifest["metrics"]["fingerprint"] == \
            self.oracle(data, self.NAMES[format])

    @pytest.mark.parametrize("format", ["binary", "csv"])
    def test_each_file_read_once_and_fingerprinted(self, workdir, opened, format):
        tmp_path, cfg = workdir
        data = tmp_path / "data"
        assert run("synth", "--config", cfg, "--out", data, "--format", format) == 0
        oracle = self.oracle(data, self.NAMES[format])
        steps = {"train": ["train", "--config", cfg, "--mode", "full"],
                 "eval": ["eval", "--model", tmp_path / "train" / "model"]}
        for name, argv in steps.items():
            opened.clear()
            assert run(*argv, "--data", data, "--out", tmp_path / name) == 0
            assert sorted(opened) == [(n, "rb") for n in self.NAMES[format]], name
            manifest = json.loads((tmp_path / name / "manifest.json").read_text())
            assert manifest["metrics"]["dataset_fingerprint"] == oracle


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
        ds, _ = load_dataset_dir(make_data(tmp_path, cfg))
        ds.features[ds.train_idx] = 0.0
        zero = tmp_path / "zero_data"
        save_dataset(ds, zero)
        rc = run("train", "--config", cfg, "--data", zero,
                 "--out", tmp_path / "out", "--mode", "s2v")
        assert rc == 4
        assert "numeric failure" in capsys.readouterr().err

    @pytest.mark.parametrize("section,mode", [("train", "s2v"), ("train", "full"),
                                              ("sof", "full")])
    def test_divergence_exits_4(self, workdir, capsys, section, mode):
        # a learning rate of 1e300 overflows the weights within a few steps;
        # the training loop's loss check reports it as a numeric failure
        tmp_path, cfg = workdir
        data = make_data(tmp_path, cfg)
        bad = tmp_path / "diverge.json"
        bad.write_text(json.dumps({**TINY, section: {**TINY[section],
                                                     "learning_rate": 1e300}}))
        rc = run("train", "--config", bad, "--data", data,
                 "--out", tmp_path / "out", "--mode", mode)
        assert rc == 4
        assert "numeric failure" in capsys.readouterr().err

    @pytest.mark.parametrize("section,mode,name", [("train", "s2v", "w1"),
                                                   ("sof", "full", "f_lin")])
    def test_weights_past_float32_exit_4_before_any_file(self, workdir, capsys,
                                                         section, mode, name):
        # a learning rate of 3e38 leaves finite weights past float32's range,
        # which a weight file would hold as infinities.  Every weight is
        # checked before the first is written: the refiner's f_lin would be
        # written after the net's weights and model.json
        tmp_path, cfg = workdir
        data = make_data(tmp_path, cfg)
        steep = write_config(tmp_path / "steep.json",
                             **{section: {"learning_rate": 3e38}})
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run("train", "--config", steep, "--data", data, "--out", out,
                     "--mode", mode)
        assert rc == 4
        assert f"numeric failure: parameter {name}: " in capsys.readouterr().err
        assert not any("cast" in str(w.message) for w in caught)
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("section,mode", [("train", "s2v"), ("train", "full"),
                                              ("sof", "full")])
    def test_divergence_prints_no_warnings(self, workdir, capsys, section, mode):
        # one "numeric failure" line names the stage and epoch; numpy's
        # overflow and invalid-value warnings on the way are not printed
        stage = {"sof": "refinement", "train": "prototype"}[section]
        tmp_path, cfg = workdir
        data = make_data(tmp_path, cfg)
        bad = write_config(tmp_path / "diverge.json",
                           **{section: {"learning_rate": 1e300}})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = run("train", "--config", bad, "--data", data,
                     "--out", tmp_path / "out", "--mode", mode)
        assert rc == 4
        assert f"{stage} loss diverged at epoch 0" in capsys.readouterr().err
        assert [str(w.message) for w in caught] == []

    def test_zero_episodes_per_epoch_exits_2(self, workdir, capsys):
        # no episode would run, leaving a NaN final loss
        tmp_path, cfg = workdir
        data = make_data(tmp_path, cfg)
        bad = tmp_path / "zero_episodes.json"
        bad.write_text(json.dumps({**TINY, "train": {**TINY["train"],
                                                     "episodes_per_epoch": 0}}))
        rc = run("train", "--config", bad, "--data", data,
                 "--out", tmp_path / "out", "--mode", "s2v")
        assert rc == 2
        assert "episodes_per_epoch" in capsys.readouterr().err
        assert not (tmp_path / "out" / "manifest.json").exists()

    def test_dir_without_dataset_files_exits_3(self, workdir, capsys):
        tmp_path, cfg = workdir
        data = make_data(tmp_path, cfg)
        for name in ("features.bin", "features.labels.bin"):
            (data / name).unlink()
        rc = run("train", "--config", cfg, "--data", data,
                 "--out", tmp_path / "out", "--mode", "s2v")
        assert rc == 3
        assert "no dataset files" in capsys.readouterr().err

    def test_dir_with_both_formats_exits_5(self, workdir, capsys):
        tmp_path, cfg = workdir
        data = make_data(tmp_path, cfg)
        csv = tmp_path / "csv"
        assert run("synth", "--config", cfg, "--out", csv, "--format", "csv") == 0
        (data / "features.csv").write_bytes((csv / "features.csv").read_bytes())
        rc = run("train", "--config", cfg, "--data", data,
                 "--out", tmp_path / "out", "--mode", "s2v")
        assert rc == 5
        assert "more than one dataset format" in capsys.readouterr().err

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

    def test_no_unseen_class_writes_no_unseen_files(self, trained):
        # an empty class set is skipped, not projected: no T, no unseen
        # similarity file
        tmp_path, cfg, data, model = trained
        split = data / "split.txt"
        split.write_text("".join(f"{line.split(':')[0]}:\n"
                                 if line.startswith(("unseen:", "test_unseen:"))
                                 else line for line in
                                 split.read_text().splitlines(keepends=True)))
        out = tmp_path / "eval"
        assert run("eval", "--model", model, "--data", data, "--out", out) == 0
        assert (out / "report.csv").read_text().splitlines()[1].startswith(",,")
        assert (out / "similarity_seen.csv").exists()
        assert not (out / "similarity_unseen.csv").exists()

    def test_full_model_projected_twice(self, workdir, monkeypatch):
        # once for the sweep and once for both similarity_* files, each
        # time the union of the seen, then the unseen classes
        tmp_path, cfg = workdir
        data = make_data(tmp_path, cfg)
        model = tmp_path / "run" / "model"
        assert run("train", "--config", cfg, "--data", data,
                   "--out", model.parent, "--mode", "full") == 0
        projected = []

        def counted(model, attributes, class_ids):
            projected.append(np.asarray(class_ids).tolist())
            return project_prototypes(model, attributes, class_ids)
        monkeypatch.setattr(cli, "project_prototypes", counted)
        monkeypatch.setattr(metrics, "project_prototypes", counted)
        assert run("eval", "--model", model, "--data", data,
                   "--out", tmp_path / "eval") == 0
        ds = load_dataset_dir(data)[0]
        union = [*ds.seen_classes.tolist(), *ds.unseen_classes.tolist()]
        assert projected == [union, union]

    def test_similarity_cut_from_the_union_projection(self, trained):
        # on data whose class k is renamed L-1-k, so that the unseen ids lie
        # below the seen ones, each similarity_* file holds the cosines of
        # its class set's rows of the seen-then-unseen projection
        tmp_path, cfg, data, model = trained
        ds = load_dataset_dir(data)[0]
        last = ds.attributes.num_classes - 1
        relabelled = SplitDataset(
            features=ds.features, labels=last - ds.labels,
            attributes=AttributeTable(ds.attributes.values[::-1]),
            seen_classes=last - ds.seen_classes,
            unseen_classes=last - ds.unseen_classes, train_idx=ds.train_idx,
            test_seen_idx=ds.test_seen_idx, test_unseen_idx=ds.test_unseen_idx)
        assert relabelled.unseen_classes.max() < relabelled.seen_classes.min()
        save_dataset(relabelled, tmp_path / "relabelled")
        out = tmp_path / "eval"
        assert run("eval", "--model", model, "--data", tmp_path / "relabelled",
                   "--out", out) == 0
        seen, unseen = relabelled.seen_classes, relabelled.unseen_classes
        protos = project_prototypes(load_model(model)[0], relabelled.attributes,
                                    np.concatenate([seen, unseen]))
        for block, ids, rows in (("seen", seen, protos[:seen.size]),
                                 ("unseen", unseen, protos[seen.size:])):
            sim = prototype_similarity(rows).matrix.tolist()
            expected = write_csv(tmp_path / f"{block}.csv",
                                 ["class_id", *map(str, ids.tolist())],
                                 ([str(i), *row] for i, row in
                                  zip(ids.tolist(), sim)))
            assert (out / f"similarity_{block}.csv").read_bytes() == expected

    def test_singleton_grid(self, trained):
        tmp_path, cfg, data, model = trained
        out = tmp_path / "eval1"
        assert run("eval", "--model", model, "--data", data, "--out", out,
                   "--delta-grid", "0.3") == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 2 and lines[1].startswith("0.3,")

    def test_close_deltas_keep_their_cells(self, trained, capsys):
        # %g would write all three as 0.123457; each is written as %g where
        # float() reads it back, else as repr()
        tmp_path, cfg, data, model = trained
        out = tmp_path / "eval_close"
        assert run("eval", "--model", model, "--data", data, "--out", out,
                   "--delta-grid", "0.1234567,0.1234568,0.12345671,0.5") == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == \
            ["0.1234567", "0.1234568", "0.12345671", "0.5"]
        best = json.loads((out / "manifest.json").read_text())["metrics"][
            "model"]["delta"]
        cell = (out / "report.csv").read_text().splitlines()[1].split(",")[-1]
        assert float(cell) == best and cell in lines[1 + [
            0.1234567, 0.1234568, 0.12345671, 0.5].index(best)]
        assert (out / "report.txt").read_text().endswith(f"(delta = {cell})\n")
        assert capsys.readouterr().out.rstrip().endswith(f"at delta={cell}")

    def test_unparsable_grid_exits_2(self, trained):
        tmp_path, cfg, data, model = trained
        for spec in ("0:1", "0.1,x", "1:0:0.1", "nan,0.5", "0:inf:0.1",
                     # empty tokens, and no delta at all
                     "0,,0.5", "0,0.5,", ":0:1:0.1", "0:1:0.1:", "",
                     # float() reads '_' and surrounding spaces: 0_5 as 5
                     "0_5,1", "0:1_0:0.5", " 1 ,2", "0:1:0.5 "):
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

    def test_two_models_of_one_name_get_numbered_files(self, trained):
        # a/m and b/m would both be labelled m
        tmp_path, cfg, data, model = trained
        dirs = [tmp_path / side / "m" for side in ("a", "b")]
        for d in dirs:
            shutil.copytree(model, d)
        out = tmp_path / "eval2"
        assert run("eval", "--model", dirs[0], "--model", dirs[1],
                   "--data", data, "--out", out, "--delta-grid", "0,0.5") == 0
        for name in ("sweep", "report", "similarity_seen", "similarity_unseen"):
            assert (out / f"{name}_model1.csv").read_bytes() == \
                (out / f"{name}_model2.csv").read_bytes(), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == {"model1": str(dirs[0]),
                                       "model2": str(dirs[1])}
        assert set(manifest["metrics"]) == {"model1", "model2",
                                            "dataset_fingerprint"}

    def test_empty_label_is_numbered(self, trained, monkeypatch):
        # `model` is labelled "" (its parent is `.`) and `model/model` is
        # labelled `model`: two labels, yet "" would share the key `model`
        tmp_path, cfg, data, model = trained
        shutil.copytree(model, tmp_path / "model")
        shutil.copytree(model, tmp_path / "model" / "model")
        monkeypatch.chdir(tmp_path)
        assert run("eval", "--model", "model", "--model", "model/model",
                   "--data", data, "--out", "eval2", "--delta-grid", "0,0.5") == 0
        out = tmp_path / "eval2"
        assert (out / "report_model1.csv").read_bytes() == \
            (out / "report_model2.csv").read_bytes()
        assert not (out / "report.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["outputs"] == {"model1": "model", "model2": "model/model"}
        assert set(manifest["metrics"]) == {"model1", "model2",
                                            "dataset_fingerprint"}

    @pytest.mark.parametrize("second,code", [("missing", 3), ("other_dims", 5),
                                             ("refiner_dims", 5)])
    def test_failing_second_model_writes_no_file(self, trained, tmp_path_factory,
                                                 second, code):
        # every model is loaded and checked before the first one's files
        tmp_path, cfg, data, model = trained
        other = tmp_path / "ghost" / "model"
        if second != "missing":
            # other_dims: a model of 5 attributes and 7 feature dimensions;
            # refiner_dims: a full model of this data, with the refiner of
            # a full model of 7 feature dimensions
            root = tmp_path_factory.mktemp("other")
            cfg2 = root / "cfg.json"
            cfg2.write_text(json.dumps(dict(TINY, synth=dict(
                TINY["synth"], attr_dim=5, feat_dim=7))))
            assert run("synth", "--config", cfg2, "--out", root / "data") == 0
            mode = "s2v" if second == "other_dims" else "full"
            assert run("train", "--config", cfg2, "--data", root / "data",
                       "--out", root / "run", "--mode", mode) == 0
            other = root / "run" / "model"
        if second == "refiner_dims":
            fit = tmp_path / "fit" / "model"
            assert run("train", "--config", cfg, "--data", data,
                       "--out", fit.parent, "--mode", "full") == 0
            for path in other.glob("refiner*"):
                shutil.copy(path, fit / path.name)
            other = fit
        out = tmp_path / "e"
        assert run("eval", "--model", model, "--model", other, "--data", data,
                   "--out", out) == code
        assert list(out.iterdir()) == []

    def test_full_model_reads_only_test_rows(self, workdir, monkeypatch):
        # stage one's map is applied to the test rows alone: train rows that
        # are not finite change no output
        tmp_path, cfg = workdir
        data = make_data(tmp_path, cfg)
        model = tmp_path / "run" / "model"
        assert run("train", "--config", cfg, "--data", data,
                   "--out", model.parent, "--mode", "full") == 0
        assert run("eval", "--model", model, "--data", data,
                   "--out", tmp_path / "clean") == 0

        def poisoned(data_dir):
            ds, fingerprint = load_dataset_dir(data_dir)
            ds.features[ds.train_idx] = np.nan
            return ds, fingerprint
        monkeypatch.setattr(cli, "load_dataset_dir", poisoned)
        assert run("eval", "--model", model, "--data", data,
                   "--out", tmp_path / "poisoned") == 0
        names = sorted(p.name for p in (tmp_path / "clean").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "poisoned").iterdir())
        for name in names:
            clean, dirty = (tmp_path / side / name for side in ("clean", "poisoned"))
            if name == "manifest.json":
                assert json.loads(clean.read_text())["metrics"] == \
                    json.loads(dirty.read_text())["metrics"]
            else:
                assert clean.read_bytes() == dirty.read_bytes(), name

    def test_full_model_holds_no_refined_copy(self, tmp_path):
        # on the benchmark's data (6,500 rows, 2,500 of them test rows) eval
        # of a full model peaks above eval of an s2v model by far less than
        # a copy of the features, which mapping every row would hold
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synth": {"test_per_class": 50},
                                   "train": {"epochs": 2}, "sof": {"epochs": 1}}))
        data = make_data(tmp_path, cfg)
        peaks = {}
        for mode in ("s2v", "full"):
            model = tmp_path / mode / "model"
            assert run("train", "--config", cfg, "--data", data,
                       "--out", model.parent, "--mode", mode) == 0
            argv = ("eval", "--model", model, "--data", data,
                    "--out", tmp_path / f"eval_{mode}")
            assert run(*argv) == 0  # the first call's one-off allocations
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                assert run(*argv) == 0
                peaks[mode] = tracemalloc.get_traced_memory()[1] - before
            finally:
                tracemalloc.stop()
        features = load_dataset_dir(data)[0].features
        assert features.shape[0] == 6500
        assert peaks["full"] - peaks["s2v"] < features.nbytes / 2

    @pytest.mark.parametrize("test_per_class", [50, 200])
    def test_scoring_memory_does_not_grow_with_the_test_set(self, tmp_path,
                                                            test_per_class):
        # cs_sweep of a full model on the benchmark's data, 2,500 or 10,000
        # test rows, maps and scores them in row blocks: it peaks below 2 MB
        # above what is live at the call, where holding the mapped test rows
        # and each split's scores took 2.8 and 11.2 MB
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({
            "synth": {"test_per_class": test_per_class},
            "train": {"epochs": 2}, "sof": {"epochs": 1}}))
        cfg = load_config(cfg_path)
        ds = generate_synthetic(cfg.synth)
        assert ds.test_seen_idx.size + ds.test_unseen_idx.size == 50 * test_per_class
        refiner, _ = train_sof(ds, cfg.sof)
        model = train_prototypes(refine_features(ds, refiner),
                                 dataclasses.replace(cfg.train, mode="full"))
        sweep = metrics.cs_sweep(model, ds, cfg.grid, refiner.f_lin)
        tracemalloc.start()  # after a first call's one-off allocations
        try:
            before = tracemalloc.get_traced_memory()[0]
            assert metrics.cs_sweep(model, ds, cfg.grid, refiner.f_lin) == sweep
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

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
        lambda m: m.update(used_sof="yes"),
        # neither coerced to the version 1 nor to a loss trace of floats
        lambda m: m.update(format_version=True),
        lambda m: m.update(format_version=1.0),
        lambda m: m.update(loss_trace="123"),
        lambda m: m.update(loss_trace=[True, False]),
        lambda m: m.update(loss_trace=["1.5", "nan"]),
        lambda m: m.update(loss_trace={"1": 2}),
        # cli_mode names the pipeline, whose mode and stage one the record
        # repeats; this s2v model is neither `full` nor `ep`
        lambda m: m.update(cli_mode="full"),
        lambda m: m.update(cli_mode="ep"),
        lambda m: m.pop("cli_mode"),
        lambda m: m.update(cli_mode=["s2v"]),
        lambda m: m.update(cli_mode="s2v_baseline"),
        lambda m: m.pop("used_sof"),
    ], ids=["missing key", "unknown key", "no version", "used_sof string",
            "version true", "version 1.0", "trace string", "trace bools",
            "trace strings", "trace object", "cli_mode full", "cli_mode ep",
            "no cli_mode", "cli_mode list", "cli_mode training mode",
            "no used_sof"])
    def test_malformed_model_json_exits_5(self, trained, edit, capsys):
        tmp_path, cfg, data, model = trained
        manifest = json.loads((model / "model.json").read_text())
        edit(manifest)
        (model / "model.json").write_text(json.dumps(manifest))
        rc = run("eval", "--model", model, "--data", data, "--out", tmp_path / "e")
        assert rc == 5
        assert "model.json" in capsys.readouterr().err

    def test_model_json_repeated_key_exits_5(self, trained, capsys):
        # json.loads keeps the last of two equal keys; the reader rejects them
        tmp_path, cfg, data, model = trained
        text = (model / "model.json").read_text()
        (model / "model.json").write_text(text.replace(
            '"seed": 0', '"seed": 0, "seed": 1', 1))
        rc = run("eval", "--model", model, "--data", data, "--out", tmp_path / "e")
        assert rc == 5
        assert "repeated key 'seed'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["sgd", "rmsprop"])
    def test_model_json_with_unknown_optimizer_exits_5(self, trained, value,
                                                       capsys):
        # model.json is read through TrainConfig, which checks the optimizer
        tmp_path, cfg, data, model = trained
        manifest = json.loads((model / "model.json").read_text())
        manifest["optimizer"] = value
        (model / "model.json").write_text(json.dumps(manifest))
        rc = run("eval", "--model", model, "--data", data, "--out", tmp_path / "e")
        assert rc == 5
        assert "optimizer" in capsys.readouterr().err

    def test_non_integral_label_exits_5(self, trained):
        tmp_path, cfg, data, model = trained
        labels = load_matrix(data / "features.labels.bin")
        labels[-1, 0] += 0.7  # an unseen test row: truncation would hide it
        save_matrix(data / "features.labels.bin", labels)
        rc = run("eval", "--model", model, "--data", data, "--out", tmp_path / "e")
        assert rc == 5

    @pytest.mark.parametrize("name", ["split.txt", "features.csv", "attributes.csv"])
    def test_byte_not_utf8_exits_5(self, trained, capsys, name):
        # a text file that does not decode is a format error naming the file,
        # not a traceback
        tmp_path, cfg, _, model = trained
        data = tmp_path / "csv"
        assert run("synth", "--config", cfg, "--out", data, "--format", "csv") == 0
        with open(data / name, "ab") as f:
            f.write(b"\xff")
        capsys.readouterr()
        rc = run("eval", "--model", model, "--data", data, "--out", tmp_path / "e")
        assert rc == 5
        assert f"{name}: not UTF-8 text" in capsys.readouterr().err

    def test_sof_model_without_refiner_exits_3(self, workdir, capsys):
        # model.json records used_sof, so scoring unrefined features would
        # report another model's numbers
        tmp_path, cfg = workdir
        data = make_data(tmp_path, cfg)
        out = tmp_path / "run_full"
        assert run("train", "--config", cfg, "--data", data, "--out", out,
                   "--mode", "full") == 0
        (out / "model" / "refiner.json").unlink()
        rc = run("eval", "--model", out / "model", "--data", data,
                 "--out", tmp_path / "e")
        assert rc == 3
        assert "refiner.json" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        {"used_sof": False},
        {"used_sof": False, "cli_mode": "ep-ei"},
        {"cli_mode": "s2v"},
    ], ids=["used_sof false", "ep-ei without stage one", "s2v"])
    def test_full_model_recorded_as_other_pipeline_exits_5(self, workdir, capsys,
                                                           edit):
        # the weights are the full model's: scoring them on unrefined
        # features would report numbers of no pipeline
        tmp_path, cfg = workdir
        data = make_data(tmp_path, cfg)
        out = tmp_path / "run_full"
        assert run("train", "--config", cfg, "--data", data, "--out", out,
                   "--mode", "full") == 0
        path = out / "model" / "model.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), **edit}))
        rc = run("eval", "--model", out / "model", "--data", data,
                 "--out", tmp_path / "e")
        assert rc == 5
        assert "model.json" in capsys.readouterr().err

    def test_sof_model_with_malformed_refiner_json_exits_5(self, workdir, capsys):
        # test_refine.py checks each malformed record; here, the exit code
        tmp_path, cfg = workdir
        data = make_data(tmp_path, cfg)
        out = tmp_path / "run_full"
        assert run("train", "--config", cfg, "--data", data, "--out", out,
                   "--mode", "full") == 0
        (out / "model" / "refiner.json").write_text("not json at all")
        rc = run("eval", "--model", out / "model", "--data", data,
                 "--out", tmp_path / "e")
        assert rc == 5
        assert "refiner.json" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["f_lin", "w_proj"])
    def test_non_finite_refiner_weight_exits_4(self, workdir, capsys, name):
        # named as the parameter it is, not left to fail (or pass) later
        tmp_path, cfg = workdir
        data = make_data(tmp_path, cfg)
        out = tmp_path / "run_full"
        assert run("train", "--config", cfg, "--data", data, "--out", out,
                   "--mode", "full") == 0
        path = out / "model" / f"refiner_{name}.bin"
        weights = load_matrix(path)
        weights[0, 0] = np.nan
        save_matrix(path, weights)
        rc = run("eval", "--model", out / "model", "--data", data,
                 "--out", tmp_path / "e")
        assert rc == 4
        assert f"non-finite values in parameter {name}" in capsys.readouterr().err

    def test_eval_into_data_dir_keeps_fingerprint(self, trained):
        # the eval's own CSV files beside the dataset are not dataset files
        tmp_path, cfg, data, model = trained
        synth = json.loads((data / "manifest.json").read_text())
        train = json.loads((model.parent / "manifest.json").read_text())
        assert run("eval", "--model", model, "--data", data, "--out", data) == 0
        assert (data / "sweep.csv").exists()
        ev = json.loads((data / "manifest.json").read_text())
        assert ev["metrics"]["dataset_fingerprint"] == \
            train["metrics"]["dataset_fingerprint"] == synth["metrics"]["fingerprint"]

    def test_stray_file_beside_dataset_not_fingerprinted(self, trained):
        tmp_path, cfg, data, model = trained
        synth = json.loads((data / "manifest.json").read_text())
        (data / "notes.csv").write_text("note\nkept beside the data\n")
        out = tmp_path / "e"
        assert run("eval", "--model", model, "--data", data, "--out", out) == 0
        ev = json.loads((out / "manifest.json").read_text())
        assert ev["metrics"]["dataset_fingerprint"] == synth["metrics"]["fingerprint"]

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


def set_first_csv_label(label):
    """An edit of features.csv text: its first row's label set to label."""
    def edit(text):
        head, row, rest = text.split("\n", 2)
        cells = row.split(",")
        cells[1] = str(label)
        return "\n".join([head, ",".join(cells), rest])
    return edit


class TestRejections:
    """Input rules that no other test breaks, each broken once through main."""

    @pytest.fixture
    def inputs(self, workdir):
        """A directory of config.json, the binary dataset `data`, the CSV
        dataset `csv` and the full model `run/model` trained on `data`."""
        tmp_path, cfg = workdir
        data = make_data(tmp_path, cfg)
        assert run("synth", "--config", cfg, "--out", tmp_path / "csv",
                   "--format", "csv") == 0
        assert run("train", "--config", cfg, "--data", data,
                   "--out", tmp_path / "run", "--mode", "full") == 0
        return tmp_path

    # Per case: the file edited, the edit (of a .bin file's matrix, else of
    # the text), the dataset that `eval` of run/model reads (None: `synth`
    # on config.json), the exit code and a fragment of the message.
    @pytest.mark.parametrize("name,edit,data,code,message", [
        ("config.json", lambda _: "[]", None, 2,
         "config root must be a JSON object"),
        ("config.json", lambda _: '{"synth": 5}', None, 2,
         "config key 'synth' must be a section"),
        ("data/split.txt", lambda t: t[:t.index("test_unseen:")], "data", 5,
         "missing sections ['test_unseen']"),
        ("data/features.labels.bin", lambda a: a[:-1], "data", 5,
         "one label per feature row required"),
        ("csv/features.csv", set_first_csv_label(-1), "csv", 5,
         "negative class label"),
        ("csv/features.csv", set_first_csv_label(11), "csv", 5,
         "label 11 has no attribute row (L = 11)"),
        ("run/model/refiner_w_proj.bin", lambda a: a[:-1], "data", 5,
         "w_proj rows must match the feature dimension"),
        ("run/model/net_b2.bin", lambda a: a[:, :-1], "data", 5,
         "output dimensions disagree between w2, b2"),
        ("run/model/net_w1.bin", lambda a: a[:0], "data", 5,
         "hidden width must be at least 1"),
    ], ids=["config root a list", "section a number", "no test_unseen line",
            "one label short", "csv label -1", "csv label past the classes",
            "w_proj rows", "b2 length", "hidden width 0"])
    def test_exit_code_and_message(self, inputs, capsys, name, edit, data,
                                   code, message):
        path = inputs / name
        if path.suffix == ".bin":
            save_matrix(path, edit(load_matrix(path)))
        else:
            path.write_text(edit(path.read_text()))
        capsys.readouterr()
        out = inputs / "e"
        if data is None:
            assert run("synth", "--config", path, "--out", out) == code
        else:
            assert run("eval", "--model", inputs / "run" / "model",
                       "--data", inputs / data, "--out", out) == code
        assert message in capsys.readouterr().err


def drop_test_seen(data):
    """Empty the test_seen section of the dataset's split: S and H become
    undefined."""
    split = data / "split.txt"
    split.write_text("".join("test_seen:\n" if line.startswith("test_seen:") else line
                             for line in split.read_text().splitlines(keepends=True)))


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

    @pytest.mark.parametrize("empty_test_seen", [False, True],
                             ids=["every cell", "S and H undefined"])
    def test_table_names_end_over_their_means(self, workdir, empty_test_seen):
        # each header name ends in the column where its values' means (or
        # their `--`) end
        tmp_path, cfg = workdir
        data = make_data(tmp_path, cfg)
        if empty_test_seen:
            drop_test_seen(data)
        out = tmp_path / "ablation"
        assert run("ablate", "--config", cfg, "--data", data, "--out", out,
                   "--seeds", "1") == 0
        header, *lines = (out / "ablation.txt").read_text().splitlines()
        ends = [m.end() for m in re.finditer(r"\S+", header)]
        assert header.split() == ["config", "T", "U", "S", "H"]
        for line in lines:
            assert [m.end() for m in re.finditer(r"[\d.]+(?=±)|--", line)] \
                == ends[1:], line

    @pytest.mark.parametrize("empty_test_seen", [False, True],
                             ids=["every cell", "S and H undefined"])
    def test_no_line_ends_in_a_space(self, workdir, empty_test_seen):
        # the criterion-8 ablation, whose last std (0.0 with one seed) is
        # shorter than its column, and whose last cell may be `--`
        tmp_path, cfg = workdir
        data = make_data(tmp_path, cfg)
        if empty_test_seen:
            drop_test_seen(data)
        out = tmp_path / "ablation"
        assert run("ablate", "--config", cfg, "--data", data, "--out", out,
                   "--seeds", "1") == 0
        for line in (out / "ablation.txt").read_text().splitlines():
            assert line == line.rstrip(), repr(line)

    def test_ascii_locale(self, workdir):
        # the tables hold '±': they are written as UTF-8 whatever the locale,
        # and a console that cannot encode it shows '+/-'
        tmp_path, cfg = workdir
        data = make_data(tmp_path, cfg)
        out = tmp_path / "ablation"
        env = {**os.environ, "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0",
               "LC_ALL": "POSIX", "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "protoplace.cli", "ablate", "--config", str(cfg),
             "--data", str(data), "--out", str(out), "--seeds", "1"],
            env=env, capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr.decode(errors="replace")
        assert "±" in (out / "ablation.csv").read_text(encoding="utf-8")
        assert "±" in (out / "ablation.txt").read_text(encoding="utf-8")
        assert b"+/-" in proc.stdout

    def test_no_seen_test_rows_leaves_cells_empty(self, workdir):
        # with no seen test row S and H are undefined: empty cells, as in
        # eval's report.csv, `--` in the table and null in the manifest
        tmp_path, cfg = workdir
        data = make_data(tmp_path, cfg)
        drop_test_seen(data)
        out = tmp_path / "ablation"
        assert run("ablate", "--config", cfg, "--data", data, "--out", out,
                   "--seeds", "1") == 0
        for line in (out / "ablation.csv").read_text().splitlines()[1:]:
            _, t, u, s, h = line.split(",")
            assert t and u and s == h == "", line
        for line in (out / "ablation.txt").read_text().splitlines()[1:]:
            assert line.split()[-2:] == ["--", "--"], line
        manifest = json.loads((out / "manifest.json").read_text(),
                              parse_constant=pytest.fail)
        for name, metrics in manifest["metrics"].items():
            if name != "dataset_fingerprint":
                assert metrics["S"] is None and metrics["H"] is None
                assert 0.0 <= metrics["T"] <= 1.0


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

    def test_small_sigma_trains(self, workdir):
        # at sigma 1e-4 every chosen neighbour's weight underflows to 0 in
        # some rows; those rows come from log space, not from 0 / 0
        tmp_path, cfg = workdir
        data = make_data(tmp_path, cfg)
        out = tmp_path / "sweep_small"
        assert run("sweep", "--config", cfg, "--data", data, "--out", out,
                   "--param", "sigma", "--values", "0.0001", "--mode",
                   "ep-ei") == 0
        value, t, h = (out / "sweep.csv").read_text().splitlines()[1].split(",")
        assert value == "0.0001"
        assert 0.0 <= float(t) <= 1.0 and 0.0 <= float(h) <= 1.0

    def test_subnormal_sigma_exits_2(self, workdir, capsys):
        # below 1 / the largest float, similarities / sigma overflow to inf
        tmp_path, cfg = workdir
        data = make_data(tmp_path, cfg)
        out = tmp_path / "sweep_tiny"
        rc = run("sweep", "--config", cfg, "--data", data, "--out", out,
                 "--param", "sigma", "--values", "0.1,1e-310", "--mode", "ep-ei")
        assert rc == 2
        assert "sigma must be at least" in capsys.readouterr().err
        assert not (out / "sweep.csv").exists()

        bad = tmp_path / "tiny_sigma.json"
        bad.write_text(json.dumps({**TINY, "hallucination": {
            **TINY["hallucination"], "sigma": 1e-310}}))
        rc = run("train", "--config", bad, "--data", data,
                 "--out", tmp_path / "out", "--mode", "ep-ei")
        assert rc == 2
        assert "sigma must be at least" in capsys.readouterr().err

    def test_values_apart_below_g_precision_keep_their_cells(self, workdir):
        # %g writes both as 1: such a value is written as repr() writes it
        tmp_path, cfg = workdir
        data = make_data(tmp_path, cfg)
        out = tmp_path / "s"
        assert run("sweep", "--config", cfg, "--data", data, "--out", out,
                   "--param", "sigma", "--values", "1.0000001,1.0000002",
                   "--mode", "ep-ei") == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert [l.split(",")[0] for l in lines[1:]] == ["1.0000001", "1.0000002"]

    @pytest.mark.parametrize("value,cell", [
        # the swept values of tests/golden/ and tools/compare_outputs.py keep
        # their %g bytes
        *((n, str(n)) for n in (0, 1, 2, 3, 4, 8)),
        *((float(v), v) for v in ("1e-310", "1e-308", "0.0001", "0.001", "0.05",
                                  "0.2", "1")),
        # %g would write 1.23457e+08 and 0.3
        (123456789, "123456789"), (0.1 + 0.2, "0.30000000000000004")])
    def test_value_cell(self, value, cell):
        assert cli._value_cell(value) == cell
        assert float(cell) == value

    def test_smallest_normal_sigma_trains(self, workdir):
        tmp_path, cfg = workdir
        data = make_data(tmp_path, cfg)
        assert run("sweep", "--config", cfg, "--data", data, "--out",
                   tmp_path / "s", "--param", "sigma", "--values", "1e-308",
                   "--mode", "ep-ei") == 0

    @pytest.mark.parametrize("values", [
        "x", "1..2..3", "a..3", "1,,2", "0..2,", "..2",
        # int() and float() read '_', a sign and spaces: 1_0..1_1 as 10..11
        "1_0..1_1", "+1..2", "1..02", " 1 ,2", "1, 2", "1_0"])
    def test_unparsable_values_exit_2(self, workdir, values, capsys):
        tmp_path, cfg = workdir
        data = make_data(tmp_path, cfg)
        rc = run("sweep", "--config", cfg, "--data", data, "--out",
                 tmp_path / "s", "--param", "n", "--values", values)
        assert rc == 2
        assert "--values" in capsys.readouterr().err

    def test_range_past_the_bound_exits_2_unexpanded(self):
        # the values are counted before a range is expanded, so a huge range
        # costs nothing (it comes last: a parser that expands first fails on
        # the small ones); a sweep of exactly the bound is expanded
        bound = cfgmod.MAX_SERIES
        assert len(cli._parse_sweep_values(f"1..{bound}", "sigma")) == bound
        for spec in (f"0..{bound}", f"0,1..{bound}", "0..999999999999999999"):
            with pytest.raises(ConfigError, match=f"{bound} values") as info:
                cli._parse_sweep_values(spec, "n_neighbors")
            assert repr(spec.split(",")[-1]) in str(info.value)

    @pytest.mark.parametrize("values", ["2.5", "1,2.5", "inf"])
    def test_fractional_neighbor_count_exits_2(self, workdir, values, capsys):
        tmp_path, cfg = workdir
        data = make_data(tmp_path, cfg)
        rc = run("sweep", "--config", cfg, "--data", data, "--out",
                 tmp_path / "s", "--param", "n", "--values", values)
        assert rc == 2
        assert "whole number" in capsys.readouterr().err
        assert not (tmp_path / "s" / "sweep.csv").exists()

    def test_whole_neighbor_counts_keep_their_output(self, workdir):
        # `2.0` is the whole number 2: same sweep rows as `2`
        tmp_path, cfg = workdir
        data = make_data(tmp_path, cfg)
        outs = []
        for values in ("1..2", "1,2.0"):
            out = tmp_path / f"sweep_{values}"
            assert run("sweep", "--config", cfg, "--data", data, "--out", out,
                       "--param", "n", "--values", values, "--mode",
                       "ep-ei") == 0
            outs.append((out / "sweep.csv").read_bytes())
        assert outs[0] == outs[1]
        assert outs[0].decode().splitlines()[1].startswith("1,")

    def test_no_unseen_test_rows_leaves_cells_empty(self, workdir):
        # with no unseen test row T and H are undefined: empty cells, as in
        # eval's report.csv
        tmp_path, cfg = workdir
        data = make_data(tmp_path, cfg)
        split = data / "split.txt"
        split.write_text("".join("test_unseen:\n" if line.startswith("test_unseen:")
                                 else line for line in
                                 split.read_text().splitlines(keepends=True)))
        out = tmp_path / "s"
        assert run("sweep", "--config", cfg, "--data", data, "--out", out,
                   "--param", "n", "--values", "0,2", "--mode", "ep-ei") == 0
        assert (out / "sweep.csv").read_text() == "value,T,H\n0,,\n2,,\n"

    def test_unknown_param_exits_2(self, workdir):
        tmp_path, cfg = workdir
        data = make_data(tmp_path, cfg)
        rc = run("sweep", "--config", cfg, "--data", data,
                 "--out", tmp_path / "s", "--param", "beta", "--values", "1")
        assert rc == 2


# Runs one command in its own interpreter, then prints on its last stdout
# line which of numpy.ma and numpy.random it loaded.
IMPORT_PROBE = (
    "import sys\n"
    "from protoplace.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(' '.join(m for m in ('numpy.ma', 'numpy.random') if m in sys.modules))\n"
    "sys.exit(code)\n")


class TestImports:
    """No command loads numpy.ma (about 1.4 MB resident), and eval, which draws
    nothing, does not load numpy.random (about 2.7 MB)."""

    @pytest.mark.parametrize("command", ["synth", "train", "eval", "ablate", "sweep"])
    def test_command_leaves_module_unloaded(self, workdir, command):
        unwanted = {"numpy.ma", "numpy.random"} if command == "eval" else {"numpy.ma"}
        tmp_path, cfg = workdir
        data = make_data(tmp_path, cfg)
        out = tmp_path / "out"
        if command == "eval":
            assert run("train", "--config", cfg, "--data", data,
                       "--out", tmp_path / "run", "--mode", "full") == 0
        argv = {
            "synth": ["--config", cfg, "--out", out],
            "train": ["--config", cfg, "--data", data, "--out", out,
                      "--mode", "full"],
            "eval": ["--model", tmp_path / "run" / "model", "--data", data,
                     "--out", out],
            "ablate": ["--config", cfg, "--data", data, "--out", out,
                       "--seeds", "1"],
            "sweep": ["--config", cfg, "--data", data, "--out", out,
                      "--param", "n", "--values", "0,2"],
        }[command]
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE, command, *map(str, argv)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        loaded = set(proc.stdout.splitlines()[-1].split())
        assert not loaded & unwanted, f"{command} loaded {sorted(loaded & unwanted)}"
