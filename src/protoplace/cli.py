"""Command-line entry point.

Subcommands: synth, train, eval, ablate, sweep.  Every command writes a
manifest.json into its output directory before exiting 0; re-running a
command with the same arguments reproduces its metric files byte for byte.

Exit codes: 0 ok, 2 configuration, 3 missing input, 4 numeric failure,
5 shape mismatch.
"""
from __future__ import annotations

import argparse
import copy
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import config as cfgmod
from .data import generate_synthetic, load_dataset_dir, save_dataset
from .errors import CapacityError, ConfigError, FormatError, ParameterError, \
    ShapeError, TrainingError, UsageError, ValidationError
from .metrics import cs_sweep, prototype_similarity
from .prototypes import PrototypeModel, load_model, project_prototypes, save_model, \
    train_prototypes
from .refine import load_refiner, refine_features, save_refiner, train_sof

# Every pipeline: its `--mode` name and its ablation-ladder row name (None
# where it has none), its training mode, and whether stage one (SOF) refines
# the features first.  The ladder's rows keep this order.
PIPELINES = (
    ("s2v", "s2v", "s2v_baseline", False),
    ("ep", None, "ep_only", False),
    ("ep-ei", "s2v+ep_ei", "ep_ei", False),
    (None, "s2v+sof", "s2v_baseline", True),
    (None, "s2v+sof+ep", "ep_only", True),
    ("full", "s2v+sof+ep_ei", "full", True),
)
MODES = {name: (mode, sof) for name, _, mode, sof in PIPELINES if name}

# `sweep --param` names: the hallucination config keys, plus `n` for n_neighbors.
SWEEP_PARAMS = {"n_neighbors": "n_neighbors", "n": "n_neighbors", "sigma": "sigma"}


def _out_dir(path: str) -> Path:
    p = Path(path)
    root = os.environ.get("PROTOPLACE_OUT_ROOT")
    if root and not p.is_absolute():
        p = Path(root) / p
    p.mkdir(parents=True, exist_ok=True)
    return p


def _fingerprint(paths) -> str:
    h = hashlib.sha256()
    for p in sorted(Path(p) for p in paths):
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def _dataset_fingerprint(data_dir: Path) -> str:
    files = sorted(data_dir.glob("*.bin")) + sorted(data_dir.glob("*.csv")) + \
        sorted(data_dir.glob("split.txt"))
    return _fingerprint(files)


def _write_manifest(out_dir: Path, argv, cfg, seed, outputs, metrics, started) -> None:
    manifest = {
        "command": ["protoplace"] + list(argv),
        "config": cfg,
        "seed": seed,
        "outputs": {k: str(v) for k, v in outputs.items()},
        "metrics": metrics,
        "duration_seconds": round(time.time() - started, 3),
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )


def _pct(x) -> str:
    return "--" if x is None else f"{100.0 * x:.1f}"


def _num(x) -> str:
    return "" if x is None else f"{x:.9g}"


def _load_data(data_dir: str):
    data_dir = Path(data_dir)
    if not data_dir.is_dir():
        raise FileNotFoundError(f"dataset directory {data_dir} does not exist")
    fmt = "binary" if (data_dir / "features.bin").exists() else "csv"
    if fmt == "csv" and not (data_dir / "features.csv").exists():
        raise FileNotFoundError(f"no dataset files under {data_dir}")
    return load_dataset_dir(data_dir, format=fmt), data_dir


def _parse_delta_grid(spec: str | None) -> list[float]:
    """`start:stop:step` or comma-separated deltas; None means the default
    config's grid."""
    if spec is None:
        return cfgmod.delta_grid(cfgmod.DEFAULTS)
    sep = ":" if ":" in spec else ","
    try:
        values = [float(tok) for tok in spec.split(sep) if tok != ""]
    except ValueError as exc:
        raise ConfigError(f"cannot parse delta grid {spec!r}") from exc
    if not all(np.isfinite(values)):
        raise ConfigError(f"delta grid {spec!r} has a non-finite value")
    if sep == ",":
        return values
    if len(values) != 3:
        raise ConfigError(f"delta range {spec!r} is not start:stop:step")
    return cfgmod.delta_range(*values)


def _parse_sweep_values(spec: str, param: str) -> list:
    """Comma-separated values and inclusive integer ranges such as `0..8`."""
    tokens = []
    try:
        for tok in spec.split(","):
            tok = tok.strip()
            if ".." in tok:
                lo, hi = tok.split("..")
                tokens.extend(str(v) for v in range(int(lo), int(hi) + 1))
            elif tok:
                tokens.append(tok)
        if param == "n_neighbors":
            return [int(float(v)) for v in tokens]
        return [float(v) for v in tokens]
    except ValueError as exc:
        raise ConfigError(f"cannot parse --values {spec!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# pipeline helpers shared by train / ablate / sweep


def _run_pipeline(ds, cfg: dict, mode_name: str, use_sof: bool, seed: int):
    """Train one model (optionally behind the refiner); returns artifacts."""
    refiner = None
    sof_trace: list[float] = []
    train_ds = ds
    if use_sof:
        refiner, sof_trace = train_sof(ds, cfgmod.sof_config(cfg, seed=seed))
        train_ds = refine_features(ds, refiner)
    tcfg = cfgmod.train_config(cfg, mode=mode_name, seed=seed)
    model = train_prototypes(train_ds, tcfg)
    return model, refiner, sof_trace, train_ds


def _eval_model(model: PrototypeModel, eval_ds, grid):
    reports, best_delta = cs_sweep(model, eval_ds, grid)
    best = next(r for r in reports if r.delta == best_delta)
    return reports, best


def _best_report(ds, cfg: dict, mode_name: str, use_sof: bool, seed: int, grid):
    """Train one pipeline and sweep it; its report at the best delta."""
    model, _, _, train_ds = _run_pipeline(ds, cfg, mode_name, use_sof, seed)
    return _eval_model(model, train_ds, grid)[1]


# ---------------------------------------------------------------------------
# commands


def cmd_synth(args, argv) -> int:
    started = time.time()
    cfg = cfgmod.load_config(args.config)
    out = _out_dir(args.out)
    ds = generate_synthetic(cfgmod.synth_config(cfg))
    paths = save_dataset(ds, out, format=args.format)
    _write_manifest(out, argv, cfg, cfg["seed"], paths,
                    {"samples": int(ds.features.shape[0]),
                     "fingerprint": _dataset_fingerprint(out)}, started)
    print(f"wrote {ds.features.shape[0]} samples to {out}")
    return 0


def cmd_train(args, argv) -> int:
    started = time.time()
    cfg = cfgmod.load_config(args.config)
    ds, data_dir = _load_data(args.data)
    out = _out_dir(args.out)
    mode_name, use_sof = MODES[args.mode]
    model, refiner, sof_trace, _ = _run_pipeline(ds, cfg, mode_name, use_sof,
                                                 cfg["seed"])
    model_dir = out / "model"
    save_model(model, model_dir, meta={"cli_mode": args.mode, "used_sof": use_sof})
    if refiner is not None:
        save_refiner(refiner, model_dir,
                     meta={"seed": cfg["seed"], "loss_trace": sof_trace})
    outputs = {"model": model_dir}
    metrics = {"final_loss": model.loss_trace[-1] if model.loss_trace else None,
               "dataset_fingerprint": _dataset_fingerprint(data_dir)}
    _write_manifest(out, argv, cfg, cfg["seed"], outputs, metrics, started)
    print(f"trained mode={args.mode} -> {model_dir}")
    return 0


def _write_report_files(out: Path, label: str, reports, best, model, eval_ds) -> None:
    suffix = f"_{label}" if label else ""
    with open(out / f"sweep{suffix}.csv", "w") as f:
        f.write("delta,U,S,H\n")
        for r in reports:
            f.write(f"{r.delta:.6g},{_num(r.U)},{_num(r.S)},{_num(r.H)}\n")
    with open(out / f"report{suffix}.csv", "w") as f:
        f.write("T,U,S,H,delta\n")
        f.write(f"{_num(best.T)},{_num(best.U)},{_num(best.S)},{_num(best.H)},"
                f"{best.delta:.6g}\n")
    with open(out / f"report{suffix}.txt", "w") as f:
        f.write(f"T = {_pct(best.T)}  U = {_pct(best.U)}  S = {_pct(best.S)}  "
                f"H = {_pct(best.H)}  (delta = {best.delta:g})\n")
    for block, ids in (("seen", np.sort(eval_ds.seen_classes)),
                       ("unseen", np.sort(eval_ds.unseen_classes))):
        if ids.size == 0:
            continue
        protos = project_prototypes(model, eval_ds.attributes, ids)
        sim = prototype_similarity(protos, ids)
        with open(out / f"similarity_{block}{suffix}.csv", "w") as f:
            f.write("class_id," + ",".join(str(int(i)) for i in ids) + "\n")
            for i, row in zip(ids, sim.matrix):
                f.write(f"{int(i)}," + ",".join(f"{v:.9g}" for v in row) + "\n")


def cmd_eval(args, argv) -> int:
    started = time.time()
    ds, data_dir = _load_data(args.data)
    out = _out_dir(args.out)
    grid = _parse_delta_grid(args.delta_grid)
    if not grid:
        raise ConfigError("delta grid is empty")
    model_dirs = [Path(m) for m in args.model]
    if len(model_dirs) == 1:
        labels = [""]
    else:
        labels = [p.parent.name if p.name == "model" else p.name
                  for p in model_dirs]
        if len(set(labels)) != len(labels):
            labels = [f"model{i}" for i in range(1, len(model_dirs) + 1)]
    metrics = {}
    outputs = {}
    for model_dir, label in zip(model_dirs, labels):
        if not (model_dir / "model.json").exists():
            raise FileNotFoundError(f"no trained model under {model_dir}")
        model, manifest = load_model(model_dir)
        if model.net.out_dim != ds.feat_dim or model.net.in_dim != ds.attr_dim:
            raise ShapeError(
                f"model maps {model.net.in_dim}->{model.net.out_dim}, dataset is "
                f"{ds.attr_dim}->{ds.feat_dim}"
            )
        eval_ds = ds
        if (model_dir / "refiner.json").exists():
            eval_ds = refine_features(ds, load_refiner(model_dir))
        reports, best = _eval_model(model, eval_ds, grid)
        _write_report_files(out, label, reports, best, model, eval_ds)
        key = label or "model"
        metrics[key] = {"T": best.T, "U": best.U, "S": best.S, "H": best.H,
                        "delta": best.delta}
        outputs[key] = model_dir
        print(f"{key}: T={_pct(best.T)} U={_pct(best.U)} S={_pct(best.S)} "
              f"H={_pct(best.H)} at delta={best.delta:g}")
    metrics["dataset_fingerprint"] = _dataset_fingerprint(data_dir)
    _write_manifest(out, argv, {"delta_grid": grid}, None, outputs, metrics, started)
    return 0


def cmd_ablate(args, argv) -> int:
    started = time.time()
    cfg = cfgmod.load_config(args.config)
    ds, data_dir = _load_data(args.data)
    out = _out_dir(args.out)
    grid = cfgmod.delta_grid(cfg)
    seeds = [cfg["seed"] + i for i in range(args.seeds)]
    rows = []
    for _, name, mode_name, use_sof in PIPELINES:
        if name is None:
            continue
        per_seed = {"T": [], "U": [], "S": [], "H": []}
        for seed in seeds:
            best = _best_report(ds, cfg, mode_name, use_sof, seed, grid)
            for key, val in (("T", best.T), ("U", best.U), ("S", best.S),
                             ("H", best.H)):
                per_seed[key].append(val if val is not None else float("nan"))
        rows.append((name, {k: (float(np.mean(v)), float(np.std(v)))
                            for k, v in per_seed.items()}))

    with open(out / "ablation.csv", "w") as f:
        f.write("config,T,U,S,H\n")
        for name, stats in rows:
            cells = ",".join(f"{m:.4f}±{s:.4f}" for m, s in
                             (stats[k] for k in ("T", "U", "S", "H")))
            f.write(f"{name},{cells}\n")
    with open(out / "ablation.txt", "w") as f:
        f.write(f"{'config':<16}{'T':>14}{'U':>14}{'S':>14}{'H':>14}\n")
        for name, stats in rows:
            cells = "".join(
                f"{100 * m:>8.1f}±{100 * s:<4.1f}"
                for m, s in (stats[k] for k in ("T", "U", "S", "H"))
            )
            f.write(f"{name:<16}{cells}\n")
    metrics = {name: {k: stats[k][0] for k in ("T", "U", "S", "H")}
               for name, stats in rows}
    metrics["dataset_fingerprint"] = _dataset_fingerprint(data_dir)
    _write_manifest(out, argv, cfg, cfg["seed"],
                    {"table": out / "ablation.csv"}, metrics, started)
    print((out / "ablation.txt").read_text())
    return 0


def cmd_sweep(args, argv) -> int:
    started = time.time()
    cfg = cfgmod.load_config(args.config)
    ds, data_dir = _load_data(args.data)
    out = _out_dir(args.out)
    grid = cfgmod.delta_grid(cfg)
    param = SWEEP_PARAMS.get(args.param)
    if param is None:
        raise ConfigError(f"unknown sweep parameter {args.param!r}; expected "
                          f"one of {', '.join(SWEEP_PARAMS)}")
    values = _parse_sweep_values(args.values, param)

    results = []
    for value in values:
        run_cfg = copy.deepcopy(cfg)
        mode_name, use_sof = MODES[args.mode]
        if param == "n_neighbors" and value == 0:
            mode_name = "s2v_baseline"  # hallucination disabled
        elif param == "sigma" and value <= 0:
            raise ConfigError("sigma values must be positive")
        else:
            run_cfg["hallucination"][param] = value
        best = _best_report(ds, run_cfg, mode_name, use_sof, run_cfg["seed"], grid)
        results.append((value, best.T, best.H))

    with open(out / "sweep.csv", "w") as f:
        f.write("value,T,H\n")
        for value, t, h in results:
            f.write(f"{value:g},{t:.9g},{h:.9g}\n")
    metrics = {str(v): {"T": t, "H": h} for v, t, h in results}
    metrics["dataset_fingerprint"] = _dataset_fingerprint(data_dir)
    _write_manifest(out, argv, cfg, cfg["seed"], {"sweep": out / "sweep.csv"},
                    metrics, started)
    print(f"swept {args.param} over {values} -> {out / 'sweep.csv'}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="protoplace",
        description="Placeholder-based prototype learning for zero-shot "
                    "recognition on embedding-level benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic benchmark dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("binary", "csv"), default="binary")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a prototype model")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=tuple(MODES), default="full")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate trained model(s)")
    p.add_argument("--model", action="append", required=True,
                   help="model directory; pass twice for paired similarity output")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--delta-grid",
                   help="start:stop:step or comma-separated deltas "
                        "(default: the config default, 0:1:0.02)")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="run the five-configuration ablation ladder")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seeds", type=int, default=5)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("sweep", help="sweep a hallucination hyper-parameter")
    p.add_argument("--config", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--param", required=True,
                   help="n_neighbors (alias n) or sigma")
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--mode", choices=tuple(MODES), default="full")
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, argv)
    except (ConfigError, ParameterError, CapacityError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"missing input: {exc}", file=sys.stderr)
        return 3
    except (TrainingError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 4
    except (ShapeError, ValidationError, FormatError, UsageError) as exc:
        print(f"shape/validation error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
