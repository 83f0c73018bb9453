"""The repository's helper scripts under tools/."""

import glob
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "tools"))

import pairs  # noqa: E402
import sloc  # noqa: E402


def test_sloc_leaves_out_blanks_comments_and_docstrings():
    source = (
        '"""Module."""\n'
        "\n"
        "# a comment\n"
        "x = 1  # code with a comment\n"
        "\n"
        "\n"
        "def f():\n"
        '    """Two\n'
        '    lines."""\n'
        "    return (\n"
        '        "not a docstring"\n'
        "    )\n"
    )
    # code: the assignment, the def and the three lines of the return
    assert sloc.counts(source) == (12, 5)


END_TO_END = [
    {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
]
METRIC_KEYS = {
    "unit", "better", "bound", "values", "parent", "change", "wins", "pairs",
    "median_gap", "parent_iqr", "gap_over_iqr", "relative", "within_bound",
}


def run_output(run_s, rate, attempted=10, failed=0):
    """One canned last line of `perfbench/run.py`."""
    return {
        "correct": not failed, "attempted": attempted, "failed": failed,
        "metrics": {"run_s": {"value": run_s, "unit": "s"},
                    "rate": {"value": rate, "unit": "1/s"}},
    }


def test_seed_range_includes_both_ends():
    assert pairs.seed_range("7") == [7]
    assert pairs.seed_range("101-103") == [101, 102, 103]


def test_pairs_reducer_counts_wins_gaps_and_bounds():
    parent = [run_output(s, 100) for s in (10, 11, 12, 13, 14)]
    change = [run_output(s, r) for s, r in zip((8, 9, 13, 10, 11), (95, 85, 80, 100, 70))]
    change[2]["failed"] = 3
    result = pairs.reduce_pairs(END_TO_END, list(zip(parent, change)))

    run_s = result["metrics"]["run_s"]
    assert set(run_s) == METRIC_KEYS
    assert run_s["values"] == {"parent": [10, 11, 12, 13, 14], "change": [8, 9, 13, 10, 11]}
    assert run_s["parent"] == {"q1": 11, "median": 12, "q3": 13}
    assert run_s["change"] == {"q1": 9, "median": 10, "q3": 11}
    # lower is better: the change is faster in four pairs of five
    assert (run_s["wins"], run_s["pairs"]) == (4, 5)
    assert (run_s["median_gap"], run_s["parent_iqr"], run_s["gap_over_iqr"]) == (2, 2, 1.0)
    assert run_s["relative"] == 10 / 12 - 1 and run_s["within_bound"]

    rate = result["metrics"]["rate"]
    # higher is better: a tie wins for neither side, and every other pair is a loss
    assert rate["wins"] == 0
    assert rate["change"]["median"] == 85 and rate["median_gap"] == -15
    # the parent's runs agree exactly, so there is no spread to set the gap against
    assert rate["parent_iqr"] == 0 and rate["gap_over_iqr"] is None
    assert rate["relative"] == 85 / 100 - 1 and not rate["within_bound"]

    assert result["operations"] == {
        "parent": {"attempted": 50, "failed": 0},
        "change": {"attempted": 50, "failed": 3},
    }


def test_a_single_pair_reads_as_its_own_quartiles():
    result = pairs.reduce_pairs(END_TO_END, [(run_output(2, 50), run_output(1, 50))])
    assert result["metrics"]["run_s"]["parent"] == {"q1": 2, "median": 2, "q3": 2}
    assert result["metrics"]["run_s"]["wins"] == 1


def test_every_bench_file_holds_every_end_to_end_metric():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        names = {metric["name"] for metric in json.load(handle)["end_to_end"]}
    for path in glob.glob(os.path.join(root, "BENCH_*.json")):
        with open(path) as handle:
            report = json.load(handle)
        assert set(report) == {
            "workloads", "seeds", "seconds", "order", "python", "nproc", "note",
        }, path
        assert report["workloads"], path
        for result in report["workloads"].values():
            assert set(result["metrics"]) == names, path
            for metric in result["metrics"].values():
                assert set(metric) == METRIC_KEYS, path
                assert metric["pairs"] == len(report["seeds"]), path
            for side in ("parent", "change"):
                assert set(result["operations"][side]) == {"attempted", "failed"}, path
