"""tools/ab_bench.py's summary of paired runs: the claim rule and the bound.

The tool is a script, not a module of the package, so it is loaded by path.
"""
import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab_bench.py"


@pytest.fixture(scope="module")
def ab_bench():
    spec = importlib.util.spec_from_file_location("ab_bench", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WALL = {"name": "wall_norm_s", "unit": "s", "better": "lower", "bound": 0.25}
H = {"name": "gzsl_H", "unit": "%", "better": "higher", "bound": 0.25}


def pairs_of(parent, change, name="wall_norm_s"):
    """One pair per (parent, change) value of the metric `name`."""
    return [{"parent": {"metrics": {name: p}}, "change": {"metrics": {name: c}}}
            for p, c in zip(parent, change)]


def summary(ab_bench, parent, change, spec=WALL):
    return ab_bench.summarize(pairs_of(parent, change, spec["name"]),
                              [spec])[spec["name"]]


# ten parent values 1.00, 1.01, ..., 1.09: an interquartile range of 0.045
PARENT = [1.0 + i / 100 for i in range(10)]


class TestSummarize:
    @pytest.mark.parametrize("spec", [WALL, H], ids=["lower", "higher"])
    def test_ties_count_for_neither_side(self, ab_bench, spec):
        assert summary(ab_bench, PARENT, PARENT, spec)["wins"] == 0
        # five ties and five change wins: five wins, whichever way is better
        step = -0.5 if spec is WALL else 0.5
        change = [p + step * (i % 2) for i, p in enumerate(PARENT)]
        assert summary(ab_bench, PARENT, change, spec)["wins"] == 5

    def test_nine_wins_of_ten_meet_the_rule(self, ab_bench):
        change = [p - 0.5 for p in PARENT[:9]] + [PARENT[9] + 0.1]
        s = summary(ab_bench, PARENT, change)
        assert (s["wins"], s["pairs"], s["claim_met"]) == (9, 10, True)

    def test_nine_wins_of_ten_meet_the_rule_when_higher_is_better(self, ab_bench):
        change = [p + 0.5 for p in PARENT[:9]] + [PARENT[9] - 0.1]
        s = summary(ab_bench, PARENT, change, H)
        assert (s["wins"], s["pairs"], s["claim_met"]) == (9, 10, True)

    def test_eight_wins_of_ten_do_not(self, ab_bench):
        change = [p - 0.5 for p in PARENT[:8]] + [p + 0.1 for p in PARENT[8:]]
        s = summary(ab_bench, PARENT, change)
        assert (s["wins"], s["pairs"], s["claim_met"]) == (8, 10, False)

    def test_nine_wins_of_nine_do_not(self, ab_bench):
        # the rule needs at least ten pairs, however one-sided fewer read
        parent = PARENT[:9]
        s = summary(ab_bench, parent, [p - 0.5 for p in parent])
        assert (s["wins"], s["pairs"], s["claim_met"]) == (9, 9, False)
        assert ab_bench.CLAIM_MIN_PAIRS == 10

    def test_gain_inside_the_parent_iqr_does_not(self, ab_bench):
        # ten wins, by 0.04 against an IQR of 0.045; 0.05 clears it
        iqr = summary(ab_bench, PARENT, PARENT)["parent_q1_median_q3"]
        assert iqr[2] - iqr[0] == pytest.approx(0.045)
        s = summary(ab_bench, PARENT, [p - 0.04 for p in PARENT])
        assert (s["wins"], s["claim_met"]) == (10, False)
        assert summary(ab_bench, PARENT, [p - 0.05 for p in PARENT])["claim_met"]

    @pytest.mark.parametrize("spec,at_bound,past", [
        (WALL, 1.25, 1.5), (H, 0.75, 0.5)], ids=["lower", "higher"])
    def test_past_bound_is_checked_at_the_bound(self, ab_bench, spec,
                                                at_bound, past):
        # a parent median of 1.0 and a bound of 0.25: exactly 0.25 worse is
        # within the bound, anything more is past it
        parent = [1.0] * 10
        s = summary(ab_bench, parent, [at_bound] * 10, spec)
        assert s["relative_change"] == (at_bound - 1.0) and not s["past_bound"]
        assert summary(ab_bench, parent, [past] * 10, spec)["past_bound"]
