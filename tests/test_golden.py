"""Golden run: the CLI's metric files on a small fixed config, checked in
under tests/golden/, must not change.

The config trains in well under two seconds yet keeps the five ablation rows
apart, so a change that swaps or merges pipelines shows.  Headers, class ids,
ladder row names, swept values and deltas must match exactly; every other
number within TOLERANCE (absolute).  The files are printed with 4 to 9
significant digits and a refactor should leave them bitwise equal: the
tolerance only absorbs a last-digit difference from another BLAS, and is far
below the 1/80 step of an accuracy when one prediction flips.

Regenerate after an intended change of outputs with

    PYTHONPATH=src python tests/test_golden.py
"""
import shutil
import sys
from pathlib import Path

import pytest

from protoplace.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
TOLERANCE = 1e-6
# columns compared as exact strings; every other cell is a number
KEY_COLUMNS = {"class_id", "config", "value", "delta"}


def run_golden(out: Path) -> None:
    """Every command of the golden run, with outputs under `out`."""
    cfg = GOLDEN / "config.json"
    data = out / "data"

    def run(*argv):
        assert main([str(a) for a in argv]) == 0, argv

    run("synth", "--config", cfg, "--out", data)
    run("ablate", "--config", cfg, "--data", data, "--out", out / "ablate",
        "--seeds", 2)
    run("sweep", "--config", cfg, "--data", data, "--out", out / "sweep",
        "--param", "n", "--values", "0..2", "--mode", "full")
    for mode in ("s2v", "full"):
        run("train", "--config", cfg, "--data", data, "--out", out / mode,
            "--mode", mode)
    run("eval", "--model", out / "s2v" / "model", "--model",
        out / "full" / "model", "--data", data, "--out", out / "eval")


def golden_files() -> list[str]:
    return sorted(str(p.relative_to(GOLDEN)) for p in GOLDEN.rglob("*.csv"))


@pytest.fixture(scope="module")
def outputs(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("golden")
    run_golden(out)
    return out


def test_same_files(outputs):
    made = sorted(str(p.relative_to(outputs)) for d in ("ablate", "sweep", "eval")
                  for p in (outputs / d).glob("*.csv"))
    assert made == golden_files()


@pytest.mark.parametrize("name", golden_files())
def test_matches_golden(outputs, name):
    want = (GOLDEN / name).read_text().splitlines()
    got = (outputs / name).read_text().splitlines()
    assert got[0] == want[0], "header"
    assert len(got) == len(want), "row count"
    header = want[0].split(",")
    for lineno, (g_line, w_line) in enumerate(zip(got[1:], want[1:]), start=2):
        g_cells, w_cells = g_line.split(","), w_line.split(",")
        assert len(g_cells) == len(w_cells), f"line {lineno}"
        for col, g, w in zip(header, g_cells, w_cells):
            where = f"line {lineno}, column {col}"
            if col in KEY_COLUMNS or w == "":
                assert g == w, where
                continue
            # ablation cells are mean±std
            g_nums, w_nums = g.split("±"), w.split("±")
            assert len(g_nums) == len(w_nums), where
            for gv, wv in zip(g_nums, w_nums):
                assert abs(float(gv) - float(wv)) <= TOLERANCE, \
                    f"{where}: {g} vs {w}"


if __name__ == "__main__":
    scratch = GOLDEN / "run"
    shutil.rmtree(scratch, ignore_errors=True)
    run_golden(scratch)
    for d in ("ablate", "sweep", "eval"):
        shutil.rmtree(GOLDEN / d, ignore_errors=True)
        (GOLDEN / d).mkdir()
        for p in (scratch / d).glob("*.csv"):
            shutil.copy(p, GOLDEN / d / p.name)
    shutil.rmtree(scratch)
    sys.exit(0)
