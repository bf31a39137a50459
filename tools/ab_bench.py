"""Paired A/B runs of the benchmark on two source trees.

    python3 tools/ab_bench.py PARENT CHANGE --workload W --pairs N \
        [--seed S] [--out BENCH_N.json]

PARENT and CHANGE are checkouts of this repository, both made the same way,
for example each a `git archive` export into sibling directories.  On
identical code, a checkout against a fresh `git clone` of it read
`train-full` 3.9% apart (4 of 4 pairs), while two exports read 0.2% apart
(3 of 6 pairs).  Pair i runs
`perfbench/run.py --workload W --seed S+i` for BENCHMARK.json's run_seconds
once in each tree, in its own process and from that tree; the tree that goes
first alternates from pair to pair, so that a drift of the machine's speed
does not favour one side.

For each end-to-end metric that BENCHMARK.json declares, it prints the median
and quartiles of each side, the relative change of the medians, and the
number of pairs the change wins.  It names the metrics that meet the claim
rule (at least 10 pairs, of which the change wins at least 9 in 10, and its
median is better than the parent's by more than the parent's interquartile
range) and the metrics whose median is worse than the parent's by more than
the metric's bound, a fraction of the parent's median.  Quartiles are
`statistics.quantiles(..., method="inclusive")`.

With --out, the pairs, the summary and perfbench's environment record of
each side are stored under the workload's name in a JSON file; an existing
file keeps its other workloads.  Exit status 0 when no run failed and no
metric is past its bound, else 1.  Standard library only; the benchmark runs
need numpy.
"""
from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")
CLAIM_WIN_SHARE = 0.9
CLAIM_MIN_PAIRS = 10
ENV_PREFIX = "  environment: "


def tree_root(tree: str) -> Path:
    path = Path(tree).resolve()
    if not (path / "perfbench" / "run.py").is_file():
        raise SystemExit(f"ab_bench: no perfbench/run.py under {path}")
    return path


def run_once(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in `root`: its metric values, counts and environment."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=root, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"ab_bench: {root} seed {seed} exited {proc.returncode}:"
                         f"\n{proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    env = next((json.loads(line[len(ENV_PREFIX):]) for line in lines
                if line.startswith(ENV_PREFIX)), None)
    return {"metrics": {name: m["value"] for name, m in result["metrics"].items()},
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "environment": env}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per metric: each side's quartiles, the change of the medians, the wins,
    whether the claim rule holds and whether the bound is kept."""
    out = {}
    for spec in end_to_end:
        name, lower = spec["name"], spec["better"] == "lower"
        both = [p for p in pairs if all(name in p[s]["metrics"] for s in SIDES)]
        if not both:
            continue
        values = {s: [p[s]["metrics"][name] for p in both] for s in SIDES}
        stats = {s: quartiles(values[s]) for s in SIDES}
        parent_med, change_med = stats["parent"][1], stats["change"][1]
        gain = parent_med - change_med if lower else change_med - parent_med
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(values["parent"], values["change"]))
        iqr = stats["parent"][2] - stats["parent"][0]
        out[name] = {
            "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            **{f"{s}_q1_median_q3": list(stats[s]) for s in SIDES},
            "relative_change": ((change_med - parent_med) / abs(parent_med)
                                if parent_med else 0.0),
            "wins": wins, "pairs": len(both),
            "claim_met": (len(both) >= CLAIM_MIN_PAIRS
                          and wins >= math.ceil(CLAIM_WIN_SHARE * len(both))
                          and gain > iqr),
            "past_bound": -gain > spec["bound"] * abs(parent_med),
        }
    return out


def report(workload: str, pairs: list[dict], summary: dict) -> None:
    for side in SIDES:
        attempted = sum(p[side]["attempted"] for p in pairs)
        failed = sum(p[side]["failed"] for p in pairs)
        print(f"{workload} {side}: {failed} of {attempted} invocations failed")
    print(f"{'metric':<14}{'parent median [q1, q3]':>32}{'change median [q1, q3]':>32}"
          f"{'change':>9}{'wins':>8}")
    for name, s in summary.items():
        cells = ["{1:.4g} [{0:.4g}, {2:.4g}]".format(*s[f"{side}_q1_median_q3"])
                 for side in SIDES]
        print(f"{name:<14}{cells[0]:>32}{cells[1]:>32}"
              f"{100 * s['relative_change']:>+8.1f}%{s['wins']:>5}/{s['pairs']}")
    claimed = [n for n, s in summary.items() if s["claim_met"]]
    past = [n for n, s in summary.items() if s["past_bound"]]
    print(f"claim rule met (>= {CLAIM_MIN_PAIRS} pairs, >= {CLAIM_WIN_SHARE:.0%} "
          f"wins, median gain > parent IQR): {', '.join(claimed) or 'none'}")
    print(f"past their bound: {', '.join(past) or 'none'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the first pair; pair i uses seed + i")
    parser.add_argument("--out", help="JSON file to store the pairs in")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    roots = {"parent": tree_root(args.parent), "change": tree_root(args.change)}
    bench = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    pairs = []
    for i in range(args.pairs):
        seed = args.seed + i
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(roots[side], args.workload, seed, seconds)
        pairs.append(pair)
        print(f"pair {i + 1}/{args.pairs} (seed {seed}, {order[0]} first): "
              + ", ".join(f"{side} wall_norm_s "
                          f"{pair[side]['metrics'].get('wall_norm_s', math.nan):.4g}"
                          for side in SIDES), flush=True)

    summary = summarize(pairs, bench["end_to_end"])
    report(args.workload, pairs, summary)
    if args.out:
        path = Path(args.out)
        record = json.loads(path.read_text()) if path.exists() else {}
        record.setdefault("workloads", {})[args.workload] = {
            "seconds": seconds,
            "environment": {side: pairs[0][side]["environment"] for side in SIDES},
            "pairs": [{"seed": p["seed"], "first": p["first"],
                       **{side: {k: v for k, v in p[side].items()
                                 if k != "environment"} for side in SIDES}}
                      for p in pairs],
            "summary": summary,
        }
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    failed = any(p[side]["failed"] or not p[side]["correct"]
                 for p in pairs for side in SIDES)
    return 1 if failed or any(s["past_bound"] for s in summary.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
