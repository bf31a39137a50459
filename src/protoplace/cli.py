"""Command-line entry point.

Subcommands: synth, train, eval, ablate, sweep.  `main` opens the inputs a
command names (the config, the --data dataset and the --out directory; `eval`
opens its --model directories itself), runs the command on them, and writes
what the command returns as manifest.json into the output directory before
exiting 0; re-running a command with the same arguments reproduces its
metric files byte for byte.

Exit codes: 0 ok, 2 configuration, 3 missing input, 4 numeric failure,
5 shape mismatch.
"""
from __future__ import annotations

import argparse
import functools
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .data import check_float32, episode_classes, generate_synthetic, \
    load_dataset_dir, save_dataset, write_csv, write_json
from .errors import CapacityError, ConfigError, FormatError, ParameterError, \
    ShapeError, TrainingError, ValidationError
from .metrics import cs_sweep, prototype_similarity
from .prototypes import MODES, PIPELINES, PLACEHOLDERS, PrototypeModel, load_model, \
    project_prototypes, save_model, train_prototypes
from .refine import load_refiner, refine_features, refiner_map, save_refiner, \
    train_rows, train_sof

# `sweep --param` names: the hallucination config keys, plus `n` for n_neighbors.
SWEEP_PARAMS = {"n_neighbors": "n_neighbors", "n": "n_neighbors", "sigma": "sigma"}


def _pct(x) -> str:
    return "--" if x is None else f"{100.0 * x:.1f}"


def _plain(spec: str) -> str:
    """spec; ValueError where it holds '_' or whitespace, which int() and
    float() read past: "1_0" as 10, " 1" as 1."""
    if "_" in spec or spec != "".join(spec.split()):
        raise ValueError(f"{spec!r} holds '_' or a space")
    return spec


def _value_cell(value) -> str:
    """A swept value or a delta as the output files write it: as %g where
    float() reads that back as the value, else as repr() writes it."""
    cell = f"{value:g}"
    return cell if float(cell) == value else repr(value)


def _parse_delta_grid(spec: str | None) -> list[float]:
    """`start:stop:step` or comma-separated deltas, each as float() reads
    it, in a _plain spec; None means the default config's grid."""
    if spec is None:
        return cfgmod.delta_grid(cfgmod.DEFAULTS)
    sep = ":" if ":" in spec else ","
    try:
        values = [float(t) for t in _plain(spec).split(sep)]  # "" raises too
    except ValueError as exc:
        raise ConfigError(f"cannot parse delta grid {spec!r}") from exc
    if sep == ":":
        if len(values) != 3:
            raise ConfigError(f"delta range {spec!r} is not start:stop:step")
        return cfgmod.delta_range(*values)
    if not all(np.isfinite(values)):
        raise ConfigError(f"delta grid {spec!r} has a non-finite value")
    return values


def _parse_sweep_values(spec: str, param: str) -> list:
    """Comma-separated values, each as float() reads it, in a _plain spec,
    and inclusive ranges such as `0..8`, whose ends int() reads and str(int)
    writes back; none twice.  A range that would take the values past
    config.MAX_SERIES fails before it is expanded."""
    values = []
    try:
        for tok in _plain(spec).split(","):
            if ".." in tok:
                lo, hi = map(int, tok.split(".."))
                if f"{lo}..{hi}" != tok:
                    raise ValueError(f"range {tok!r} is not written {lo}..{hi}")
                if hi < lo:
                    raise ValueError(f"range {tok!r} ends below its start")
                if len(values) + hi - lo + 1 > cfgmod.MAX_SERIES:
                    raise ValueError(f"range {tok!r} takes the sweep past "
                                     f"{cfgmod.MAX_SERIES} values")
                values.extend(map(float, range(lo, hi + 1)))
            else:
                values.append(float(tok))  # an empty value raises
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"cannot parse --values {spec!r}: {exc}") from exc
    if len(set(values)) < len(values):
        raise ConfigError(f"--values {spec!r} names a value twice")
    if param != "n_neighbors":
        return values
    if not all(v.is_integer() for v in values):
        raise ConfigError(f"--values {spec!r}: n_neighbors takes whole numbers")
    return [int(v) for v in values]


# ---------------------------------------------------------------------------
# pipeline helpers shared by train / ablate / sweep.  _train_runs is the one
# place that turns a command's runs into seeded configs, all of them
# (dataclasses.replace checks each) before the first trains, so a bad value
# fails before any work; _run_grid scores each model for ablate and sweep.


def _train_runs(ds, cfg, runs, seeds=1):
    """For each of `seeds` seeds counted up from the config's, seed by seed,
    train each run, a (name, use_sof, TrainConfig) triple, in order, and
    yield its name, its seed, its stage one ((refiner, loss trace) or None)
    and its model, once the data is checked to hold every run's episodes.
    Stage one reads only the dataset, the `sof` section and the seed, so it
    trains once per stretch of runs with equal SofConfigs (runs without
    stage one between them included); stage two then trains on the refined
    train rows alone (refine.train_rows)."""
    grid = [(name, seed, replace(cfg.sof, seed=seed) if use_sof else None,
             replace(train, seed=seed))
            for seed in range(cfg.sof.seed, cfg.sof.seed + seeds)
            for name, use_sof, train in runs]
    for m, n in dict.fromkeys((t.m_classes, t.n_samples) for *_, t in grid):
        episode_classes(ds, m, n)
    done = stage_one = refined = None
    for name, seed, sof_cfg, train_cfg in grid:
        if sof_cfg is not None and sof_cfg != done:
            refiner, trace = train_sof(ds, sof_cfg)
            done, stage_one, refined = sof_cfg, (refiner, trace), \
                refine_features(train_rows(ds), refiner)
        if sof_cfg is None:
            yield name, seed, None, train_prototypes(ds, train_cfg)
        else:
            yield name, seed, stage_one, train_prototypes(refined, train_cfg)


def _eval_model(model: PrototypeModel, eval_ds, grid, f_lin=None):
    reports, best_delta = cs_sweep(model, eval_ds, grid, f_lin)
    best = next(r for r in reports if r.delta == best_delta)
    return reports, best


def _run_grid(ds, cfg, runs, seeds=1):
    """(name, seed, best EvalReport) of each model _train_runs trains,
    scored as `eval` scores it: through its stage one's map, if any."""
    for name, seed, stage_one, model in _train_runs(ds, cfg, runs, seeds):
        f_lin = None if stage_one is None else stage_one[0].f_lin
        yield name, seed, _eval_model(model, ds, cfg.grid, f_lin)[1]


# ---------------------------------------------------------------------------
# commands.  Each takes the arguments and the inputs main opened (the config,
# the dataset, each None where the command names none, and the output
# directory), and returns what its manifest records: the config, the outputs
# by name and the metrics.


def cmd_synth(args, cfg, _, out):
    ds = generate_synthetic(cfg.synth)
    paths, fingerprint = save_dataset(ds, out, format=args.format)
    print(f"wrote {ds.features.shape[0]} samples to {out}")
    return cfg.record, paths, {"samples": int(ds.features.shape[0]),
                               "fingerprint": fingerprint}


def cmd_train(args, cfg, ds, out):
    mode_name, use_sof = MODES[args.mode]
    run = (args.mode, use_sof, replace(cfg.train, mode=mode_name))
    [(*_, stage_one, model)] = _train_runs(ds, cfg, [run])
    model_dir = out / "model"
    check_float32(*[model.net, stage_one[0]] if use_sof else [model.net])
    save_model(model, model_dir, args.mode)
    if use_sof:
        refiner, sof_trace = stage_one
        save_refiner(refiner, model_dir, seed=cfg.sof.seed, loss_trace=sof_trace)
    print(f"trained mode={args.mode} -> {model_dir}")
    return cfg.record, {"model": model_dir}, \
        {"final_loss": model.loss_trace[-1] if model.loss_trace else None}


def _write_report_files(out: Path, label: str, reports, best, model, eval_ds) -> None:
    suffix = f"_{label}" if label else ""
    write_csv(out / f"sweep{suffix}.csv", ("delta", "U", "S", "H"),
              ([_value_cell(r.delta), r.U, r.S, r.H] for r in reports))
    write_csv(out / f"report{suffix}.csv", ("T", "U", "S", "H", "delta"),
              [[best.T, best.U, best.S, best.H, _value_cell(best.delta)]])
    with open(out / f"report{suffix}.txt", "w", encoding="utf-8") as f:
        f.write(f"T = {_pct(best.T)}  U = {_pct(best.U)}  S = {_pct(best.S)}  "
                f"H = {_pct(best.H)}  (delta = {_value_cell(best.delta)})\n")
    # each class set's rows of the prototypes cs_sweep scores, seen then unseen
    cut = eval_ds.seen_classes.size
    union = np.concatenate([eval_ds.seen_classes, eval_ds.unseen_classes])
    protos = np.split(project_prototypes(model, eval_ds.attributes, union), [cut])
    for block, ids, rows in zip(("seen", "unseen"), np.split(union, [cut]), protos):
        if ids.size:
            sim = prototype_similarity(rows).matrix.tolist()
            write_csv(out / f"similarity_{block}{suffix}.csv",
                      ["class_id", *(str(int(i)) for i in ids)],
                      ([str(int(i)), *row] for i, row in zip(ids, sim)))


def cmd_eval(args, _, ds, out):
    grid = _parse_delta_grid(args.delta_grid)
    model_dirs = [Path(m) for m in args.model]
    if len(model_dirs) == 1:
        labels = [""]
    else:
        labels = [p.parent.name if p.name == "model" else p.name
                  for p in model_dirs]
        if "" in labels or len(set(labels)) != len(labels):
            labels = [f"model{i}" for i in range(1, len(model_dirs) + 1)]
    # every model, and its refiner's map where stage one ran, is loaded and
    # its dimensions checked before the first file is written; cs_sweep maps
    # only the test rows it scores, a row block at a time
    loaded = []
    for model_dir in model_dirs:
        if not (model_dir / "model.json").exists():
            raise FileNotFoundError(f"no trained model under {model_dir}")
        model, record = load_model(model_dir)
        if model.net.out_dim != ds.feat_dim or model.net.in_dim != ds.attr_dim:
            raise ShapeError(
                f"model maps {model.net.in_dim}->{model.net.out_dim}, dataset is "
                f"{ds.attr_dim}->{ds.feat_dim}"
            )
        loaded.append((model, refiner_map(load_refiner(model_dir), ds.feat_dim)
                       if record["used_sof"] else None))
    metrics = {}
    outputs = {}
    for model_dir, label, (model, f_lin) in zip(model_dirs, labels, loaded):
        reports, best = _eval_model(model, ds, grid, f_lin)
        _write_report_files(out, label, reports, best, model, ds)
        key = label or "model"
        metrics[key] = {"T": best.T, "U": best.U, "S": best.S, "H": best.H,
                        "delta": best.delta}
        outputs[key] = model_dir
        print(f"{key}: T={_pct(best.T)} U={_pct(best.U)} S={_pct(best.S)} "
              f"H={_pct(best.H)} at delta={_value_cell(best.delta)}")
    return {"delta_grid": grid}, outputs, metrics


def cmd_ablate(args, cfg, ds, out):
    if args.seeds < 1:
        raise ConfigError(f"--seeds must be at least 1, got {args.seeds}")
    if args.seeds > cfgmod.MAX_SERIES:
        raise ConfigError(f"--seeds must be at most {cfgmod.MAX_SERIES}, "
                          f"got {args.seeds}")
    ladder = [(name, use_sof, replace(cfg.train, mode=mode_name))
              for _, name, mode_name, use_sof in PIPELINES if name is not None]
    keys = ("T", "U", "S", "H")
    results = list(_run_grid(ds, cfg, ladder, args.seeds))
    # per row, each metric's (mean, standard deviation) over the seeds; None
    # where a seed leaves the metric undefined (a split without test rows)
    rows = {name: [None if None in v else (float(np.mean(v)), float(np.std(v)))
                   for v in zip(*([getattr(best, k) for k in keys]
                                  for row, _, best in results if row == name))]
            for name, _, _ in ladder}

    write_csv(out / "ablation.csv", ("config", *keys),
              ([name, *("" if st is None else f"{st[0]:.4f}±{st[1]:.4f}"
                        for st in row)]
               for name, row in rows.items()))
    # a cell is 13 characters, its mean the first 8: each name ends where its
    # column's means end; only the cells before the last are padded, so no
    # line ends in a space
    lines = [f"{'config':<16}{'T':>8}{'U':>13}{'S':>13}{'H':>13}\n"]
    for name, row in rows.items():
        cells = [f"{'--':>8}" if st is None else
                 f"{100 * st[0]:>8.1f}±{100 * st[1]:.1f}" for st in row]
        lines.append(f"{name:<16}{''.join(c.ljust(13) for c in cells[:-1])}"
                     f"{cells[-1]}\n")
    table = "".join(lines)
    (out / "ablation.txt").write_text(table, encoding="utf-8")
    metrics = {name: {k: None if st is None else st[0] for k, st in zip(keys, row)}
               for name, row in rows.items()}
    try:
        print(table)
    except UnicodeEncodeError:  # a console without '±', as in an ASCII locale
        print(table.replace("±", "+/-"))
    return cfg.record, {"table": out / "ablation.csv"}, metrics


def cmd_sweep(args, cfg, ds, out):
    param = SWEEP_PARAMS.get(args.param)
    if param is None:
        raise ConfigError(f"unknown sweep parameter {args.param!r}; expected "
                          f"one of {', '.join(SWEEP_PARAMS)}")
    values = _parse_sweep_values(args.values, param)
    mode_name, use_sof = MODES[args.mode]
    if not PLACEHOLDERS[mode_name][0]:
        raise ConfigError(f"--mode {args.mode} never hallucinates, so no run would "
                          f"use {args.param}")
    # n_neighbors = 0 disables hallucination: the config's s2v_baseline run
    runs = [(value, use_sof,
             cfg.train if param == "n_neighbors" and value == 0 else
             replace(cfg.train, mode=mode_name, hallucination=replace(
                 cfg.train.hallucination, **{param: value})))
            for value in values]
    results = list(_run_grid(ds, cfg, runs))

    write_csv(out / "sweep.csv", ("value", "T", "H"),
              ([_value_cell(value), best.T, best.H] for value, _, best in results))
    print(f"swept {args.param} over {values} -> {out / 'sweep.csv'}")
    return cfg.record, {"sweep": out / "sweep.csv"}, \
        {str(v): {"T": best.T, "H": best.H} for v, _, best in results}


# ---------------------------------------------------------------------------


# Per command: its line in the program's help, the flags it shares with other
# commands (each required, and first) and the function that runs it.
COMMANDS = {
    "synth": ("generate a synthetic benchmark dataset", ("--config", "--out"),
              cmd_synth),
    "train": ("train a prototype model", ("--config", "--data", "--out"),
              cmd_train),
    "eval": ("evaluate trained model(s)", ("--data", "--out"), cmd_eval),
    "ablate": ("run the five-configuration ablation ladder",
               ("--config", "--data", "--out"), cmd_ablate),
    "sweep": ("sweep a hallucination hyper-parameter",
              ("--config", "--data", "--out"), cmd_sweep),
}


def _command_parser(p: argparse.ArgumentParser, name: str) -> None:
    """Give p the arguments of the command `name`."""
    _, shared, func = COMMANDS[name]
    for flag in shared:
        p.add_argument(flag, required=True)
    if name == "synth":
        p.add_argument("--format", choices=("binary", "csv"), default="binary")
    elif name == "eval":
        ev = cfgmod.DEFAULTS["eval"]
        p.add_argument("--model", action="append", required=True,
                       help="model directory; pass twice for paired similarity "
                            "output")
        p.add_argument("--delta-grid",
                       help="start:stop:step or comma-separated deltas (default: "
                            f"the config default, {ev['delta_start']:g}:"
                            f"{ev['delta_stop']:g}:{ev['delta_step']:g})")
    elif name == "ablate":
        p.add_argument("--seeds", type=int, default=5)
    elif name == "sweep":
        p.add_argument("--param", required=True,
                       help="n_neighbors (alias n) or sigma")
        p.add_argument("--values", required=True,
                       help="comma-separated values and inclusive integer ranges "
                            "a..b, such as 0..8")
    if name in ("train", "sweep"):
        p.add_argument("--mode", choices=tuple(MODES), default="full")
    p.set_defaults(func=func)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of the whole program: every command's parser under it.
    Built once per process; argparse reads COLUMNS when it prints."""
    parser = argparse.ArgumentParser(
        prog="protoplace",
        description="Placeholder-based prototype learning for zero-shot "
                    "recognition on embedding-level benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _, _) in COMMANDS.items():
        _command_parser(sub.add_parser(name, help=help_line), name)
    return parser


def main(argv=None) -> int:
    """Open the inputs the command names (the config, then --data, then
    --out), run the command on them, then write its manifest.json: the
    command line, what the command returned, the config's seed, the dataset
    fingerprint of a command that reads --data, and the wall time.  A command
    that fails writes none."""
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(argv)
    started = time.time()
    try:
        cfg = cfgmod.load_config(args.config) if "config" in args else None
        ds, fingerprint = load_dataset_dir(args.data) if "data" in args \
            else (None, None)
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except (FileExistsError, NotADirectoryError):  # it or a parent is a file
            raise ConfigError(f"--out {out} is not a directory") from None
        record, outputs, metrics = args.func(args, cfg, ds, out)
        if ds is not None:
            metrics["dataset_fingerprint"] = fingerprint
        write_json(out / "manifest.json", {
            "command": ["protoplace", *argv], "config": record,
            "seed": cfg.record["seed"] if cfg else None,
            "outputs": {k: str(v) for k, v in outputs.items()}, "metrics": metrics,
            "duration_seconds": round(time.time() - started, 3)})
        return 0
    except (ConfigError, ParameterError, CapacityError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"missing input: {exc}", file=sys.stderr)
        return 3
    except (TrainingError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except (ShapeError, ValidationError, FormatError) as exc:
        print(f"shape/validation error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
