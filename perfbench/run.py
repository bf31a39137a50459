"""protoplace benchmark: closed-loop CLI workloads with an end-to-end and a
per-layer view.

    python3 perfbench/run.py --workload train-full|train-s2v|eval-sweep \
        --seed N --seconds S --trace 0|1

A set-up process (`prepare.py`) makes the workload's inputs, DATASETS
datasets, with `protoplace synth` (and, for eval-sweep, `protoplace train`)
from the seed.  This process then calls `protoplace.cli.main` in-process, one
invocation after another and one dataset after another, for `--seconds`
seconds (at least MIN_INVOCATIONS times), and gates every invocation: exit
code 0, outputs that load, and output bytes identical to the first
invocation's on the same dataset.  A fixed reference kernel is timed after
every invocation and set-up pass; `wall_norm_s` and `setup_s` are medians of
times scaled by it to a reference machine speed.  Afterwards, untimed and
untraced, the produced models are evaluated for the accuracy metrics.

With `--trace 1`, every second invocation runs with the layer wrappers of
`layers.py` installed; the others give the untraced time that the tracing
overhead is measured against.  The last line of standard output is one JSON
object: end-to-end metrics with `--trace 0`, per-layer metrics with
`--trace 1`.  See README.md in this directory.
"""
from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from layers import PER_LAYER_METRICS, ROOT_SPAN, Tracer, median_stats
from workloads import BLAS_THREADS, CALIBRATION_REF_S, DATASETS, DELTA_GRID, \
    ROOT, WORK, WORKLOADS, GateError, calibration_s, check_model, command_argv, \
    eval_argv, import_cli, pin_blas_threads, read_report, tree_digest

HERE = Path(__file__).resolve().parent
MIN_INVOCATIONS = DATASETS  # at least one invocation on each dataset
SETUP_TIMEOUT_S = 170

END_TO_END = [
    ("wall_norm_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("gzsl_H", "%"),
    ("zsl_T", "%"),
]


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("default", "tiny"), default="default",
                        help="tiny: the self-test's criterion-8 size")
    return parser.parse_args(argv)


def run_setup(args, out: Path) -> tuple[list[float], list[float], list[Path]]:
    """Run prepare.py in its own process; return pass times, the kernel time
    after each pass, and the dataset directories."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "prepare.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--size", args.size, "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: set-up failed (exit {proc.returncode}):\n"
                         f"{proc.stderr.strip()}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return (result["seconds"], result["calibration_s"],
            [Path(p) for p in result["inputs"]])


def invoke(cli, argv) -> tuple[int | None, str]:
    """One CLI invocation with its console output captured."""
    log = io.StringIO()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        try:
            code = cli.main(argv)
        except Exception:  # a crash is a failed invocation, not a failed run
            traceback.print_exc()
            code = None
    return code, log.getvalue()


def gate(wl, code, log, out: Path, reference: str | None) -> str:
    """Why the invocation failed, or "" if it passed."""
    if code != 0:
        return f"exit code {code}: {log.strip()[-400:]}"
    try:
        if wl.command == "train":
            check_model(wl, out / "model")
        else:
            read_report(out)
    except (GateError, OSError, ValueError) as exc:
        return f"outputs do not load: {type(exc).__name__}: {exc}"
    if reference is not None and tree_digest(out) != reference:
        return "outputs differ from the first invocation's"
    return ""


def measure(args, cli, wl, inputs: list[Path], run_dir: Path, tracer):
    """The closed loop, cycling through the datasets in `inputs`.  Returns
    untraced wall times with the kernel time after each, traced wall times,
    per-layer stats of each traced invocation, failure reasons, and the
    reference output directory of each dataset (by index) that had a passing
    invocation."""
    walls, calibrations, traced_walls, layer_stats, failures = [], [], [], [], []
    digests: dict[int, str] = {}  # by dataset: the reference outputs' digest
    refs: dict[int, Path] = {}    # and their directory
    started = time.perf_counter()
    i = 0
    while i < MIN_INVOCATIONS or time.perf_counter() - started < args.seconds:
        j = i % len(inputs)
        out = run_dir / f"inv{i}"
        argv = command_argv(wl, inputs[j], out)
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.install()
            first = len(tracer.spans)
        gc.collect()  # start each invocation without the last one's garbage
        t0 = time.perf_counter()
        with tracer.span(ROOT_SPAN) if traced else contextlib.nullcontext():
            code, log = invoke(cli, argv)
        wall = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        calibration = calibration_s()
        why = gate(wl, code, log, out, digests.get(j))
        if why:
            failures.append(f"invocation {i} (dataset {j}): {why}")
        else:
            if traced:
                traced_walls.append(wall)
                layer_stats.append(tracer.invocation_stats(first, len(DELTA_GRID)))
            else:
                walls.append(wall)
                calibrations.append(calibration)
            if j not in refs:
                digests[j], refs[j] = tree_digest(out), out
        if refs.get(j) != out:
            shutil.rmtree(out, ignore_errors=True)
        i += 1
    return walls, calibrations, traced_walls, layer_stats, failures, refs


def accuracy(cli, wl, inputs: list[Path], refs: dict[int, Path],
             run_dir: Path) -> dict[str, float]:
    """Best-delta H and T of the produced models, evaluated untimed and
    averaged over the datasets."""
    reports = []
    for j, data_dir in enumerate(inputs):
        if wl.command == "eval":
            reports.append(read_report(refs[j]))
            continue
        out = run_dir / f"accuracy{j}"
        code, log = invoke(cli, eval_argv(refs[j] / "model", data_dir / "data", out))
        if code != 0:
            raise GateError(f"evaluating the model trained on dataset {j} "
                            f"exited {code}: {log[-400:]}")
        reports.append(read_report(out))
    return {key: statistics.fmean(r[key] for r in reports) for key in ("H", "T")}


def scaled_median(seconds: list[float], calibrations: list[float]) -> float:
    """Median of times scaled to the reference machine speed, each by the
    kernel time measured right after it."""
    return statistics.median(t * CALIBRATION_REF_S / c
                             for t, c in zip(seconds, calibrations))


# ---------------------------------------------------------------------------
# environment record


def _blas() -> dict:
    import numpy as np
    info = {"threads_requested": BLAS_THREADS}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=deps.get("name"), version=deps.get("version"))
    except (KeyError, TypeError, ValueError):
        pass
    try:
        with open("/proc/self/maps") as f:
            libs = sorted({line.split()[-1] for line in f if "blas" in line.lower()
                           and line.split()[-1].startswith("/")})
    except OSError:
        libs = []
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for prefix in ("", "scipy_"):
            for suffix in ("", "64_"):
                fn = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["threads"] = int(fn())
                    return info
    return info


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def environment(seed: int) -> dict:
    import numpy as np
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "seed": seed,
        "git_commit": _git_commit(),
        "source_sha256": tree_digest(ROOT / "src" / "protoplace", "*.py"),
    }


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads()
    cli = import_cli()

    wl = WORKLOADS[args.workload]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir = WORK / f"{tag}-{os.getpid()}"
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    try:
        setup_s, setup_calibrations, inputs = run_setup(args, run_dir / "setup")
        walls, calibrations, traced_walls, layer_stats, failures, refs = measure(
            args, cli, wl, inputs, run_dir, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        attempted = len(walls) + len(traced_walls) + len(failures)
        report = None
        if len(refs) == len(inputs):
            try:
                report = accuracy(cli, wl, inputs, refs, run_dir)
            except (GateError, OSError, ValueError) as exc:
                failures.append(f"accuracy of the produced models: {exc}")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if report is None:  # byte-identical outputs share their reference's fate
        failed = attempted
    else:
        failed = len(failures)

    e2e = {}
    if walls:
        e2e["wall_norm_s"] = scaled_median(walls, calibrations)
    e2e["setup_s"] = scaled_median(setup_s, setup_calibrations)
    e2e["peak_rss_mb"] = peak_rss_mb
    if report is not None:
        e2e["gzsl_H"] = 100.0 * report["H"]
        e2e["zsl_T"] = 100.0 * report["T"]
    layer = {}
    if layer_stats:
        layer = median_stats(layer_stats)
        if walls:
            layer["trace.overhead_s"] = (statistics.median(traced_walls)
                                         - statistics.median(walls))
    env = environment(args.seed)

    units = dict(END_TO_END + PER_LAYER_METRICS)
    wanted = PER_LAYER_METRICS if args.trace else END_TO_END
    values = layer if args.trace else e2e
    correct = failed == 0 and all(name in values for name, _ in wanted)
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in wanted if name in values}

    print(f"perfbench {tag}: {attempted} invocations attempted, {failed} failed; "
          f"{len(walls)} untraced and {len(traced_walls)} traced samples; "
          f"{len(setup_s)} set-up passes")
    print(f"  fail_ratio = {failed}/{attempted} = {failed / attempted:g} ratio")
    if walls:
        print(f"  unscaled: wall_s = {statistics.median(walls):.6g} s, "
              f"setup_s = {statistics.median(setup_s):.6g} s, reference kernel "
              f"{statistics.median(calibrations):.6g} s (medians)")
    for name, value in e2e.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for name, value in layer.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    if tracer is not None and tracer.absent:
        print(f"  absent layers (not traced): {', '.join(tracer.absent)}")
    print(f"  environment: {json.dumps(env, sort_keys=True)}")
    for why in failures[:5]:
        print(f"perfbench: {why}", file=sys.stderr)

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "size": args.size, "seconds": args.seconds,
              "environment": env, "attempted": attempted, "failed": failed,
              "failures": failures, "wall_s_samples": walls,
              "calibration_s_samples": calibrations,
              "traced_wall_s_samples": traced_walls, "setup_s_samples": setup_s,
              "setup_calibration_s_samples": setup_calibrations,
              "end_to_end": e2e, "per_layer": layer,
              "absent_layers": tracer.absent if tracer else []}
    (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    if tracer is not None:
        tracer.write(results_dir / f"{tag}.spans.jsonl")

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
