"""Set-up process of one benchmark run: make a workload's inputs several
times and time each pass.

    python3 perfbench/prepare.py --workload NAME --seed N --size default|tiny --out DIR

Each pass makes the run's DATASETS datasets: for each, it writes the run
configuration, runs `protoplace synth` and, for the eval workload,
`protoplace train` on it.  Passes repeat until at least MIN_PASSES have run
and MIN_SECONDS of set-up time has accumulated, so the median is steady even
when one pass takes milliseconds.  The reference kernel of `calibration_s`
is timed after each pass.  Every pass must produce the same bytes as the
first.  The first pass is kept in DIR/pass0; the last line of standard output
is a JSON object with the time of each pass, the kernel time after it, and
the dataset directories.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import shutil
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, calibration_s, config_for, dataset_seeds, \
    fresh_dir, import_cli, pin_blas_threads, setup_argvs, tree_digest

MIN_PASSES = 3
MAX_PASSES = 100
MIN_SECONDS = 1.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("default", "tiny"), default="default")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    pin_blas_threads()
    cli = import_cli()

    out = fresh_dir(Path(args.out))
    wl = WORKLOADS[args.workload]
    cfgs = [config_for(args.workload, s, args.size)
            for s in dataset_seeds(args.seed)]
    seconds: list[float] = []
    calibrations: list[float] = []
    first_digest = None
    while len(seconds) < MIN_PASSES or (sum(seconds) < MIN_SECONDS
                                        and len(seconds) < MAX_PASSES):
        pass_dir = fresh_dir(out / f"pass{len(seconds)}")
        log = io.StringIO()
        started = time.perf_counter()
        codes = []
        for j, cfg in enumerate(cfgs):
            data_dir = fresh_dir(pass_dir / f"d{j}")
            (data_dir / "config.json").write_text(json.dumps(cfg, sort_keys=True))
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                codes += [cli.main(argv) for argv in
                          setup_argvs(wl, data_dir / "config.json", data_dir)]
        seconds.append(time.perf_counter() - started)
        calibrations.append(calibration_s())
        if any(codes):
            print(f"perfbench: set-up exited {codes}:\n{log.getvalue()}",
                  file=sys.stderr)
            return 1
        digest = tree_digest(pass_dir)
        if first_digest is None:
            first_digest = digest
        else:
            shutil.rmtree(pass_dir)
            if digest != first_digest:
                print(f"perfbench: set-up pass {len(seconds) - 1} differs "
                      "from pass 0", file=sys.stderr)
                return 1
    print(json.dumps({"seconds": seconds, "calibration_s": calibrations,
                      "inputs": [str(out / "pass0" / f"d{j}")
                                 for j in range(len(cfgs))]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
