"""Check that two source trees of protoplace write byte-identical outputs.

    python3 tools/compare_outputs.py PARENT_SRC CHANGE_SRC [--work DIR]

PARENT_SRC and CHANGE_SRC are checkouts of this repository (or their `src`
directories).  For each of four configurations (the criterion-8 config of
tests/test_acceptance.py, the benchmark-sized config of
perfbench/workloads.py at config seeds 0 and 1, and a small wide one: 512-d
features and 85 attributes) the same CLI steps run once with each tree, the
two trees at once, one thread each: `synth`, `train` in every mode, one
`eval` of the four models on the config's grid, one on a comma grid and one
on an unsorted comma grid that repeats a delta, `ablate --seeds 2`, one
`sweep` over n_neighbors and one `sweep` per sigma value; then a CSV
leg, which checks the CSV table reader and writer:
`synth --format csv`, `train --mode full` and `train --mode s2v` on that
data and the full model's `eval`, and one expected failure,
`error_csv_not_as_written` (`eval` on a copy of that data whose
`features.csv` has CRLF line ends); then a relabelled leg,
on a copy of that data whose class k of L is renamed L-1-k, so that the
unseen class ids lie below the seen ones, which no configuration's own data
has (the order the sweep sorts its columns into, a seen-unseen tie going to
the smaller id, and the `similarity_*` files cut from a union that does not
ascend): `train --mode s2v`, `train --mode full` and one `eval` of both
models on the comma grid; then a one-row leg, `eval_one_row`: one `eval`
of the full and the s2v model of the CSV leg on the comma grid, on a copy
of that data whose `test_unseen` split is cut to its first row, which no
configuration's own data has (the sweep scores that row in a row block
with the test_seen rows after it, not alone); then an error leg,
whose steps each break one rule that the program checks where the input
enters, and so are expected to fail on both sides:
`error_train_optimizer` and `error_sof_optimizer` (an unknown optimizer),
`error_alpha1` (a Beta shape of 0), `error_neighbours` (n_neighbors above
m_classes - 1), `error_seed` (seed -1), `error_capacity` and
`error_capacity_ablate` (more classes per episode than the data has),
`error_sof_diverges` and `error_train_diverges` (a learning rate of 1e300,
whose loss diverges in stage one or stage two: numeric failures, whose
messages name the stage), `error_ablate_seeds` (`ablate --seeds 0`),
`error_sweep_param` (`sweep --param beta`), `error_missing_config` (`train`
whose `--config` does not exist), `error_delta_grid` (an empty
`--delta-grid=`), `error_eval_dims` (`eval` of a model on the data of
`synth_other`, whose dimensions differ), `error_no_dataset` (`eval` whose
`--data` is an empty directory), `error_eval_no_model` (`eval --model
train_full`, the run directory, which holds no model.json),
`error_eval_other_pipeline` (`eval` of a copy of the full model whose
model.json records `"used_sof": false`, a pipeline that does not exist) and
`error_eval_second_model_missing` (`eval` of the full model and of a model
directory that does not exist).
The sweep at sigma 1e-310, below the smallest sigma accepted, is an
expected failure too.  Last, a help and usage leg compares what argparse
prints: `help` (`--help`) and `help_<command>` (`<command> --help`) for each
of the five commands, and three expected failures, `error_usage_command`
(a command that does not exist), `error_usage_flag` (`eval` without
`--model`) and `error_usage_unknown` (`eval` with every required flag and
an unknown one, `--bogus 1`): 54 steps and 23 expected failures per
configuration.
Every step runs in its own process with PYTHONPATH set to the tree's `src`
and one BLAS thread, in the tree's own work directory and from the same
relative paths, so that its standard output, standard error and exit code
(kept as `<step>.stdout`, `<step>.stderr` and `<step>.exit`) are compared
too.  In the standard error the tree's `src` path reads `SRC`, so a
warning's source line compares equal across checkouts.

Every file that differs, or exists on one side only, is listed, and so is
every other step that exits non-zero under both trees: equal outputs of
a step that failed on both sides (a broken command line) are not hidden
inside `identical`.  An expected failure that exits 0 on
either side is listed too: the rule it breaks went unchecked.  Its outputs
are not compared, as the side that ran it wrote what the other did not.
An expected failure that fails writes nothing: each file left in its --out
directory (named after the step; `main` creates it, so an empty one is
fine) and its standard output, where not empty, is listed with its side
instead of compared.
Each `manifest.json` is compared as parsed JSON without its
`duration_seconds`, the one field that holds a wall time.
Exit status 0: no file differs and every expected failure failed, leaving
no output under the change; 1 otherwise.  Standard library only; the CLI
processes need numpy.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import SHORT, TINY  # noqa: E402  (stdlib-only module)

MODES = ("s2v", "ep", "ep-ei", "full")
COMMANDS = ("synth", "train", "eval", "ablate", "sweep")
# The sigma values swept, one `sweep` each: at 1e-4 and 1e-3 every chosen
# neighbour weight of some rows underflows to 0; 1e-310 is below the smallest
# sigma accepted, 1e-308 just above it.
SIGMAS = ("1e-310", "1e-308", "0.0001", "0.001", "0.05", "0.2", "1")
# Widths near the paper's (85 attributes, as AwA2 has, and 512-d features, a
# quarter of ResNet-101's 2048) with 5 train rows per class, so that each
# step works on parameter vectors of about 0.3M entries (both stages) and the
# whole configuration still runs in seconds.
WIDE = {"synth": {"attr_dim": 85, "feat_dim": 512, "train_per_class": 5,
                  "test_per_class": 3},
        "train": {"epochs": 2}, "sof": {"epochs": 1}}
# Per configuration: its overrides of the defaults and the n_neighbors values
# swept (the criterion-8 episodes have 4 classes, so at most 3 neighbours).
CONFIGS = {
    "criterion8": (TINY, "0..3"),
    "bench-seed0": ({**SHORT, "seed": 0}, "0,2,4,8"),
    "bench-seed1": ({**SHORT, "seed": 1}, "0,2,4,8"),
    "wide": (WIDE, "0,2,4,8"),
}
# The comma grid of the second `eval`: negative, off-lattice and huge deltas.
# The largest delta sets how close two seen scores of a row may lie before
# the sweep scores that row over all classes (metrics._TopScores): at 1e6 no
# row of these configurations is that close, at 1e13 about one row in ten of
# the benchmark-sized ones is, so both paths run.
EVAL_GRID = "-0.5,0,0.37,2,1e6,1e13"
# The grid of the third `eval`: unsorted, with a repeated, a negative and a
# tiny delta, so that the sweep's per-row thresholds on the sorted grid are
# mapped back to grid order.
UNSORTED_GRID = "0.5,0,0.5,-0.2,1e-17"
# The error leg's steps that read a config: per step, its overrides of the
# configuration's config, written to `<step>.json`, and the command.
ERRORS = {
    "error_train_optimizer": ({"train": {"optimizer": "sgd"}},
                              ["train", "--mode", "full"]),
    "error_sof_optimizer": ({"sof": {"optimizer": "rmsprop"}},
                            ["train", "--mode", "full"]),
    "error_alpha1": ({"hallucination": {"alpha1": 0}}, ["train", "--mode", "full"]),
    "error_neighbours": ({"train": {"m_classes": 3},
                          "hallucination": {"n_neighbors": 3}},
                         ["train", "--mode", "ep-ei"]),
    "error_seed": ({"seed": -1}, ["train", "--mode", "full"]),
    "error_capacity": ({"train": {"m_classes": 1000}}, ["train", "--mode", "full"]),
    "error_capacity_ablate": ({"train": {"m_classes": 1000}},
                              ["ablate", "--seeds", "2"]),
    "error_sof_diverges": ({"sof": {"learning_rate": 1e300}},
                           ["train", "--mode", "full"]),
    "error_train_diverges": ({"train": {"learning_rate": 1e300}},
                             ["train", "--mode", "s2v"]),
    "error_ablate_seeds": ({}, ["ablate", "--seeds", "0"]),
    "error_sweep_param": ({}, ["sweep", "--param", "beta", "--values", "1"]),
}
# The dataset that `error_eval_dims` evaluates the full model on: dimensions
# that neither configuration has.
OTHER_SYNTH = {"seen_count": 4, "unseen_count": 2, "attr_dim": 5, "feat_dim": 7,
               "train_per_class": 4, "test_per_class": 2}
EXPECTED_FAILURES = ("sweep_sigma_1e-310", "error_csv_not_as_written", *ERRORS,
                     "error_missing_config",
                     "error_delta_grid", "error_eval_dims", "error_no_dataset",
                     "error_eval_no_model", "error_eval_other_pipeline",
                     "error_eval_second_model_missing",
                     "error_usage_command", "error_usage_flag",
                     "error_usage_unknown")
# The model that `error_eval_other_pipeline` evaluates, copied from train_full
# just before that step runs.
OTHER_PIPELINE = "model_other_pipeline"
# The dataset that `error_csv_not_as_written` evaluates on, copied from
# data_csv just before that step runs.
CSV_CRLF = "data_csv_crlf"
# The dataset of the relabelled leg, copied from data_csv with its classes
# renamed just before that leg's first step runs.
RELABELLED = "data_relabelled"
# The dataset of the one-row leg, copied from data_csv with one test_unseen
# row just before that leg's step runs.
ONE_ROW = "data_one_row"


def src_dir(tree: str) -> Path:
    path = Path(tree).resolve()
    for candidate in (path / "src", path):
        if (candidate / "protoplace" / "cli.py").is_file():
            return candidate
    raise SystemExit(f"compare_outputs: no protoplace sources under {path}")


def with_overrides(config: dict, overrides: dict) -> dict:
    """config with the keys of each section in overrides replaced."""
    return {**config, **{k: {**config.get(k, {}), **v} if isinstance(v, dict) else v
                         for k, v in overrides.items()}}


def steps(n_values: str) -> list[tuple[str, list[str]]]:
    """(step name, CLI arguments) in run order; paths are relative."""
    cfg = ["--config", "config.json"]
    data = ["--data", "data"]
    out = [("synth", ["synth", *cfg, "--out", "data"])]
    out += [(f"train_{mode}", ["train", *cfg, *data, "--out", f"train_{mode}",
                               "--mode", mode]) for mode in MODES]
    models = [arg for mode in MODES for arg in ("--model", f"train_{mode}/model")]
    out.append(("eval", ["eval", *models, *data, "--out", "eval"]))
    out.append(("eval_grid", ["eval", *models, *data, "--out", "eval_grid",
                              f"--delta-grid={EVAL_GRID}"]))
    out.append(("eval_unsorted", ["eval", *models, *data, "--out", "eval_unsorted",
                                  f"--delta-grid={UNSORTED_GRID}"]))
    out.append(("ablate", ["ablate", *cfg, *data, "--out", "ablate", "--seeds", "2"]))
    out.append(("sweep_n", ["sweep", *cfg, *data, "--out", "sweep_n",
                            "--param", "n_neighbors", "--values", n_values]))
    out += [(f"sweep_sigma_{v}", ["sweep", *cfg, *data, "--out", f"sweep_sigma_{v}",
                                  "--param", "sigma", "--values", v])
            for v in SIGMAS]
    out += [("synth_csv", ["synth", *cfg, "--out", "data_csv", "--format", "csv"]),
            ("train_csv", ["train", *cfg, "--data", "data_csv", "--out", "train_csv",
                           "--mode", "full"]),
            ("train_csv_s2v", ["train", *cfg, "--data", "data_csv", "--out",
                               "train_csv_s2v", "--mode", "s2v"]),
            ("eval_csv", ["eval", "--model", "train_csv/model", "--data", "data_csv",
                          "--out", "eval_csv"]),
            ("error_csv_not_as_written", ["eval", "--model", "train_csv/model",
                                          "--data", CSV_CRLF, "--out",
                                          "error_csv_not_as_written"])]
    out += [(f"train_relabelled_{mode}",
             ["train", *cfg, "--data", RELABELLED, "--out",
              f"train_relabelled_{mode}", "--mode", mode]) for mode in ("s2v", "full")]
    out.append(("eval_relabelled", ["eval", "--model", "train_relabelled_s2v/model",
                                    "--model", "train_relabelled_full/model",
                                    "--data", RELABELLED, "--out", "eval_relabelled",
                                    f"--delta-grid={EVAL_GRID}"]))
    out.append(("eval_one_row", ["eval", "--model", "train_csv/model",
                                 "--model", "train_csv_s2v/model", "--data", ONE_ROW,
                                 "--out", "eval_one_row",
                                 f"--delta-grid={EVAL_GRID}"]))
    out += [(name, [argv[0], "--config", f"{name}.json", *data, "--out", name,
                    *argv[1:]]) for name, (_, argv) in ERRORS.items()]
    full = ["--model", "train_full/model"]
    out += [("error_missing_config", ["train", "--config", "missing.json", *data,
                                      "--out", "error_missing_config",
                                      "--mode", "full"]),
            ("error_delta_grid", ["eval", *full, *data, "--out", "error_delta_grid",
                                  "--delta-grid="]),
            ("synth_other", ["synth", "--config", "other.json", "--out", "data_other"]),
            ("error_eval_dims", ["eval", *full, "--data", "data_other",
                                 "--out", "error_eval_dims"]),
            ("error_no_dataset", ["eval", *full, "--data", "data_empty",
                                  "--out", "error_no_dataset"]),
            ("error_eval_no_model", ["eval", "--model", "train_full", *data,
                                     "--out", "error_eval_no_model"]),
            ("error_eval_other_pipeline", ["eval", "--model", OTHER_PIPELINE, *data,
                                           "--out", "error_eval_other_pipeline"]),
            ("error_eval_second_model_missing",
             ["eval", *full, "--model", "absent/model", *data,
              "--out", "error_eval_second_model_missing"])]
    out.append(("help", ["--help"]))
    out += [(f"help_{command}", [command, "--help"]) for command in COMMANDS]
    out += [("error_usage_command", ["evaluate", *full, *data, "--out",
                                     "error_usage_command"]),
            ("error_usage_flag", ["eval", *data, "--out", "error_usage_flag"]),
            ("error_usage_unknown", ["eval", *full, *data, "--out",
                                     "error_usage_unknown", "--bogus", "1"])]
    return out


def copy_full_model_as_other_pipeline(work: Path) -> None:
    """Copy train_full's model to OTHER_PIPELINE, its model.json changed to
    record that stage one did not run; nothing where train_full wrote no
    model, so that the step fails on a missing model instead."""
    model = work / "train_full" / "model"
    if model.is_dir():
        shutil.copytree(model, work / OTHER_PIPELINE)
        path = work / OTHER_PIPELINE / "model.json"
        path.write_text(json.dumps({**json.loads(path.read_text()),
                                    "used_sof": False}))


def copy_csv_data_with_crlf(work: Path) -> None:
    """Copy data_csv to CSV_CRLF, its features.csv with CRLF line ends;
    nothing where synth_csv wrote no data, so that the step fails on a
    missing dataset instead."""
    data = work / "data_csv"
    if data.is_dir():
        shutil.copytree(data, work / CSV_CRLF)
        path = work / CSV_CRLF / "features.csv"
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))


def copy_csv_data_relabelled(work: Path) -> None:
    """Copy data_csv to RELABELLED, each class k of its L renamed L-1-k, so
    that the unseen class ids lie below the seen ones: the label column of
    features.csv, the rows of attributes.csv (their ids kept, their values
    reversed) and the split's seen and unseen ids, ascending again; nothing
    where synth_csv wrote no data, so that the leg fails on a missing
    dataset instead."""
    data = work / "data_csv"
    if not data.is_dir():
        return
    root = work / RELABELLED
    shutil.copytree(data, root)
    header, *rows = (root / "attributes.csv").read_text().splitlines(keepends=True)
    last = len(rows) - 1
    cells = [row.split(",", 1) for row in rows]
    (root / "attributes.csv").write_text(header + "".join(
        f"{class_id},{values}" for (class_id, _), (_, values)
        in zip(cells, reversed(cells))))
    header, *rows = (root / "features.csv").read_text().splitlines(keepends=True)
    cells = [row.split(",", 2) for row in rows]
    (root / "features.csv").write_text(header + "".join(
        f"{row_id},{last - int(label)},{values}" for row_id, label, values in cells))
    lines = (root / "split.txt").read_text().splitlines(keepends=True)
    for i, line in enumerate(lines):
        key, _, ids = line.partition(":")
        if key in ("seen", "unseen"):
            lines[i] = key + ":" + "".join(
                f" {k}" for k in sorted(last - int(k) for k in ids.split())) + "\n"
    (root / "split.txt").write_text("".join(lines))


def copy_csv_data_one_unseen_row(work: Path) -> None:
    """Copy data_csv to ONE_ROW, the split's test_unseen line cut to its
    first id; nothing where synth_csv wrote no data, so that the step fails
    on a missing dataset instead."""
    data = work / "data_csv"
    if not data.is_dir():
        return
    shutil.copytree(data, work / ONE_ROW)
    path = work / ONE_ROW / "split.txt"
    lines = path.read_text().splitlines(keepends=True)
    for i, line in enumerate(lines):
        key, _, ids = line.partition(":")
        if key == "test_unseen":
            lines[i] = f"{key}: {ids.split()[0]}\n"
    path.write_text("".join(lines))


def run_tree(src: Path, work: Path, config: dict, n_values: str) -> None:
    work.mkdir(parents=True)
    (work / "data_empty").mkdir()  # the --data of error_no_dataset
    configs = {"config": config,
               "other": with_overrides(config, {"synth": OTHER_SYNTH}),
               **{name: with_overrides(config, overrides)
                  for name, (overrides, _) in ERRORS.items()}}
    for name, record in configs.items():
        (work / f"{name}.json").write_text(json.dumps(record, indent=2, sort_keys=True))
    # argparse wraps its help and usage text to COLUMNS
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "COLUMNS": "80"}
    for name, argv in steps(n_values):
        if name == "error_eval_other_pipeline":
            copy_full_model_as_other_pipeline(work)
        elif name == "error_csv_not_as_written":
            copy_csv_data_with_crlf(work)
        elif name == "train_relabelled_s2v":
            copy_csv_data_relabelled(work)
        elif name == "eval_one_row":
            copy_csv_data_one_unseen_row(work)
        proc = subprocess.run([sys.executable, "-m", "protoplace.cli", *argv],
                              cwd=work, env=env, capture_output=True, text=True)
        (work / f"{name}.stdout").write_text(proc.stdout)
        (work / f"{name}.stderr").write_text(proc.stderr.replace(str(src), "SRC"))
        (work / f"{name}.exit").write_text(f"{proc.returncode}\n")


def content(path: Path):
    """What is compared of a file: its bytes, or for a manifest.json the
    parsed record less duration_seconds (NaN kept as the text "NaN", so
    that it equals itself)."""
    if path.name != "manifest.json":
        return path.read_bytes()
    record = json.loads(path.read_text(), parse_constant=str)
    record.pop("duration_seconds", None)
    return record


def differing(a: Path, b: Path, skipped: set[str]) -> list[str]:
    """Relative paths, below a and b, of files that differ or exist once,
    less those under the top-level names in skipped."""

    def files(root: Path) -> set[str]:
        rels = (p.relative_to(root) for p in root.rglob("*") if p.is_file())
        return {str(rel) for rel in rels if rel.parts[0] not in skipped}
    in_a, in_b = files(a), files(b)
    out = [f"{rel}  (parent only)" for rel in sorted(in_a - in_b)]
    out += [f"{rel}  (change only)" for rel in sorted(in_b - in_a)]
    out += [rel for rel in sorted(in_a & in_b)
            if content(a / rel) != content(b / rel)]
    return out


def left_behind(root: Path, name: str) -> list[str]:
    """What the expected failure `name` left below root: each file in its
    --out directory, which has its name, and its standard output where it
    is not empty."""
    left = sorted(str(p.relative_to(root)) for p in (root / name).rglob("*")
                  if p.is_file())
    if (root / f"{name}.stdout").read_text():
        left.append(f"{name}.stdout")
    return left


def unexpected_exits(a: Path, b: Path, n_values: str) -> tuple[list[str], dict]:
    """The steps that exit non-zero under both trees, with their exit codes,
    and the expected failures that exit 0 under either, by name, with
    theirs."""
    failed, passed = [], {}
    for name, _ in steps(n_values):
        codes = [(root / f"{name}.exit").read_text().strip() for root in (a, b)]
        step = f"{name} (exit {' / '.join(dict.fromkeys(codes))})"
        if name in EXPECTED_FAILURES and "0" in codes:
            passed[name] = step
        elif name not in EXPECTED_FAILURES and "0" not in codes:
            failed.append(step)
    return failed, passed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--work", help="a new directory to keep the outputs "
                                       "in (default: a temporary one, removed "
                                       "after)")
    args = parser.parse_args(argv)
    trees = {"parent": src_dir(args.parent), "change": src_dir(args.change)}
    work = Path(args.work) if args.work else Path(tempfile.mkdtemp(prefix="cmp-"))
    diffs = []
    failed = unfailed = 0
    written = dict.fromkeys(trees, 0)
    try:
        for label, (config, n_values) in CONFIGS.items():
            # each tree's steps in order on its own thread; the steps are
            # processes, so the trees run side by side
            with ThreadPoolExecutor(max_workers=len(trees)) as pool:
                runs = [pool.submit(run_tree, src, work / side / label, config,
                                    n_values) for side, src in trees.items()]
            for run in runs:
                run.result()
            a, b = work / "parent" / label, work / "change" / label
            failed_steps, passed_steps = unexpected_exits(a, b, n_values)
            # an expected failure's outputs are compared only through its
            # standard error and exit code, and must be empty
            failing = [name for name in EXPECTED_FAILURES
                       if name not in passed_steps]
            found = differing(a, b, {
                *(f"{name}{suffix}" for name in passed_steps
                  for suffix in ("", ".stdout", ".stderr", ".exit")),
                *(f"{name}{suffix}" for name in failing
                  for suffix in ("", ".stdout"))})
            print(f"{label}: {len(found)} differing file(s); "
                  f"{len(EXPECTED_FAILURES) - len(passed_steps)} of "
                  f"{len(EXPECTED_FAILURES)} expected failures failed")
            for step in failed_steps:
                print(f"  failed on both sides: {step}")
            for step in passed_steps.values():
                print(f"  expected failure did not fail: {step}")
            for side in trees:
                left = [rel for name in failing
                        for rel in left_behind(work / side / label, name)]
                for rel in left:
                    print(f"  expected failure left output ({side}): {rel}")
                written[side] += len(left)
            failed += len(failed_steps)
            unfailed += len(passed_steps)
            diffs += [f"{label}/{rel}" for rel in found]
    finally:
        if not args.work:
            shutil.rmtree(work, ignore_errors=True)
    for rel in diffs:
        print(f"  differs: {rel}")
    summary = "identical" if not diffs else f"{len(diffs)} differing file(s)"
    if unfailed:
        summary += f"; {unfailed} expected failure(s) did not fail"
    for side, count in written.items():
        if count:
            summary += f"; expected failures left {count} output(s) ({side})"
    print(f"{summary}; {failed} step(s) failed on both sides" if failed else summary)
    return 1 if diffs or unfailed or written["change"] else 0


if __name__ == "__main__":
    sys.exit(main())
