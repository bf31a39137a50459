"""What each benchmark workload runs, how its inputs are made, and how its
outputs are checked.

Both `run.py` (the measuring process) and `prepare.py` (the set-up process)
import this module.  It imports nothing heavy at module level, so callers can
pin the BLAS thread count before numpy is loaded.
"""
from __future__ import annotations

import copy
import hashlib
import math
import os
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"

# One BLAS thread: at or below nproc on any machine, and the matrices here are
# too small for a second thread to pay for its synchronisation.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The calibrated-stacking grid every evaluation sweeps: 0 to 1 in steps of 0.02.
DELTA_GRID_SPEC = "0:1:0.02"
DELTA_GRID = [round(0.02 * i, 10) for i in range(51)]

# Criterion-8 configuration of tests/test_acceptance.py; the self-test runs
# every workload at this size.
TINY = {
    "synth": {"seen_count": 8, "unseen_count": 3, "attr_dim": 4,
              "feat_dim": 6, "train_per_class": 8, "test_per_class": 3,
              "noise_scale": 0.3},
    "sof": {"epochs": 2},
    "train": {"epochs": 2, "episodes_per_epoch": 3, "m_classes": 4,
              "n_samples": 2},
    "hallucination": {"n_neighbors": 2},
}


@dataclass(frozen=True)
class Workload:
    command: str                 # "train" or "eval"
    mode: str                    # train mode, or the mode of the model under test
    config: dict                 # overrides of default config sections


# Invocations are kept short (0.1 to 0.4 s) on purpose: each is paired with
# the reference-kernel time measured right after it, and the pairing tracks
# the machine's drifting speed better the shorter the invocation.  Both train
# workloads run the same 100 episodes on data with 50 test rows per class
# (2,500 in all).
SHORT = {"synth": {"test_per_class": 50}, "train": {"epochs": 2},
         "sof": {"epochs": 1}}

WORKLOADS = {
    # Hallucination and the stage-one refiner (SOF) run here and nowhere else.
    "train-full": Workload("train", "full", SHORT),
    # Same episode loop with no hallucination and no SOF: episode sampling
    # dominates; the no-change control for hallucination and SOF work.
    "train-s2v": Workload("train", "s2v", SHORT),
    # No training: the CS sweep over 2,500 test rows dominates; the control
    # for every training-side change.  The model is trained in set-up.
    "eval-sweep": Workload("eval", "full", SHORT),
}


# A run makes this many datasets from its seed and cycles its invocations
# through them; the accuracy metrics are means over them.  Over seeds, H and
# T of one synthetic dataset spread by about 22% (interquartile range over
# median) with its class geometry; their means over 16, by 3% to 6%.
DATASETS = 16


# Machine-speed reference.  On a small shared machine the speed of a core
# drifts by a third and more over seconds to minutes.  A fixed kernel of
# Python arithmetic and small numpy operations, the mix the program runs, is
# timed right after each measured invocation and each set-up pass and slows
# down with them.  Times are reported scaled by CALIBRATION_REF_S / (kernel
# time): what they would read at the speed where the kernel takes
# CALIBRATION_REF_S, about its time on a 2-core shared Intel Xeon VM.
CALIBRATION_REF_S = 0.010
CALIBRATION_ROUNDS = 400


def calibration_s() -> float:
    """Wall time of one run of the fixed reference kernel."""
    import numpy as np
    a = np.linspace(-1.0, 1.0, 80 * 32).reshape(80, 32)
    w = np.linspace(-1.0, 1.0, 32 * 16).reshape(32, 16)
    total, seen = 0.0, {}
    t0 = time.perf_counter()
    for i in range(CALIBRATION_ROUNDS):
        y = np.tanh(a @ w)
        z = y / (np.linalg.norm(y, axis=1, keepdims=True) + 1e-9)
        total += float(z.sum()) + sum(range(50))
        seen[i % 7] = total
    return time.perf_counter() - t0


def dataset_seeds(seed: int) -> list[int]:
    """The config seeds of the datasets of the run with workload seed `seed`."""
    return [seed * DATASETS + j for j in range(DATASETS)]


def config_for(name: str, seed: int, size: str) -> dict:
    """The run configuration of workload `name`: defaults plus the seed."""
    if size == "tiny":
        cfg = copy.deepcopy(TINY)
    else:
        cfg = copy.deepcopy(WORKLOADS[name].config)
    cfg["seed"] = seed
    return cfg


def pin_blas_threads() -> None:
    """Fix the BLAS pool size; must run before numpy is first imported."""
    for key in BLAS_ENV:
        os.environ[key] = str(BLAS_THREADS)


def import_cli():
    """Import `protoplace.cli` from this checkout's `src`, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "protoplace" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no protoplace sources under {src}")
    sys.path.insert(0, str(src))
    import protoplace.cli
    if Path(protoplace.cli.__file__).resolve().parent != src / "protoplace":
        raise SystemExit(f"perfbench: protoplace was imported from "
                         f"{protoplace.cli.__file__}, not from {src}")
    return protoplace.cli


def tree_digest(path: Path, pattern: str = "*") -> str:
    """sha256 over the files below `path` that match `pattern`, except run
    manifests, which hold wall-clock durations and output paths."""
    h = hashlib.sha256()
    for p in sorted(path.rglob(pattern)):
        if p.is_file() and p.name != "manifest.json":
            h.update(str(p.relative_to(path)).encode())
            h.update(p.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# set-up and the measured command


def setup_argvs(wl: Workload, cfg_path: Path, out: Path) -> list[list[str]]:
    """CLI invocations that make the inputs of one dataset of a run."""
    argvs = [["synth", "--config", str(cfg_path), "--out", str(out / "data")]]
    if wl.command == "eval":  # the model under test is trained in set-up
        argvs.append(["train", "--config", str(cfg_path), "--data",
                      str(out / "data"), "--out", str(out / "train"),
                      "--mode", wl.mode])
    return argvs


def command_argv(wl: Workload, inputs: Path, out: Path) -> list[str]:
    """The measured CLI invocation, reading the set-up outputs in `inputs`."""
    if wl.command == "train":
        return ["train", "--config", str(inputs / "config.json"), "--data",
                str(inputs / "data"), "--out", str(out), "--mode", wl.mode]
    return eval_argv(inputs / "train" / "model", inputs / "data", out)


def eval_argv(model: Path, data: Path, out: Path) -> list[str]:
    return ["eval", "--model", str(model), "--data", str(data), "--out", str(out),
            "--delta-grid", DELTA_GRID_SPEC]


# ---------------------------------------------------------------------------
# correctness gate


class GateError(Exception):
    """An invocation's outputs failed a check."""


def check_model(wl: Workload, model_dir: Path) -> None:
    """The model (and refiner, for SOF modes) written by `train` loads."""
    from protoplace.prototypes import load_model
    from protoplace.refine import load_refiner
    _, meta = load_model(model_dir)
    if meta.get("cli_mode") != wl.mode:
        raise GateError(f"model records mode {meta.get('cli_mode')!r}, "
                        f"expected {wl.mode!r}")
    if meta.get("used_sof"):
        load_refiner(model_dir)


def read_report(eval_dir: Path) -> dict[str, float]:
    """Best-delta T, U, S, H and delta from an `eval` output directory,
    checked for range and for the delta grid."""
    header, row = (eval_dir / "report.csv").read_text().splitlines()
    report = {}
    for key, cell in zip(header.split(","), row.split(",")):
        try:
            report[key] = float(cell)
        except ValueError:
            raise GateError(f"report {key} = {cell!r} is not a number") from None
    for key in ("T", "U", "S", "H"):
        v = report.get(key, math.nan)
        if not (math.isfinite(v) and 0.0 <= v <= 1.0):
            raise GateError(f"report {key} = {v} outside [0, 1]")
    if not _on_grid(report.get("delta", math.nan)):
        raise GateError(f"best delta {report.get('delta')} is not on the grid")
    sweep_rows = (eval_dir / "sweep.csv").read_text().splitlines()[1:]
    deltas = [float(line.split(",")[0]) for line in sweep_rows]
    if len(deltas) != len(DELTA_GRID) or not all(map(_on_grid, deltas)):
        raise GateError(f"sweep has {len(deltas)} rows, not one per grid delta")
    return report


def _on_grid(delta: float) -> bool:
    return any(abs(delta - g) <= 1e-9 for g in DELTA_GRID)


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
