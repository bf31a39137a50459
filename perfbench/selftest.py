"""Self-test of the benchmark: every workload at the criterion-8 size of
tests/test_acceptance.py, untraced and traced.

    python3 perfbench/selftest.py

Checks that each run exits 0 with a correct result, emits every metric that
BENCHMARK.json names with the unit it names, reads zero hallucination calls
where hallucination does not run and zero metrics calls on the train
workloads, and that the benchmark refuses to run without the program's
sources.  Exits 0 when all checks pass.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import ROOT, WORK, WORKLOADS, fresh_dir

HERE = Path(__file__).resolve().parent

SECONDS = "1"
TIMEOUT_S = 180


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
         "--seconds", SECONDS, "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S,
    )


def check_run(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-400:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{where}: result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0 and result["attempted"] >= 1):
        errors.append(f"{where}: correct={result['correct']} "
                      f"attempted={result['attempted']} failed={result['failed']}")
    named = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    emitted = {k: v["unit"] for k, v in result["metrics"].items()}
    if emitted != named:
        errors.append(f"{where}: emitted {emitted}, BENCHMARK.json names {named}")
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        zero = []
        if workload != "train-full":
            zero += [k for k in values if k.startswith("hallucinate.")
                     and k.endswith(".calls")]
        if WORKLOADS[workload].command == "train":
            zero += [k for k in values if k.startswith("metrics.")
                     and k.endswith(".calls")]
        errors += [f"{where}: {k} = {values[k]}, expected 0"
                   for k in zero if values[k] != 0]
    return errors


def check_bare_directory() -> list[str]:
    """Without the program's sources the benchmark must fail, printing no result."""
    bare = fresh_dir(WORK / "selftest-bare")
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "train-s2v", 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"correct"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = check_bare_directory()
    for workload in WORKLOADS:
        for trace in (0, 1):
            errors += check_run(spec, workload, trace)
    for line in errors:
        print(f"FAIL {line}")
    print("selftest:", "FAIL" if errors else "ok")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
