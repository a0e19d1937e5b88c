"""The summary tools/bench_pairs.py writes, on canned bench/run.py output."""

import json
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "tools"))
import bench_pairs  # noqa: E402

BETTER = {"wall_s": "lower", "train_samples_per_s": "higher"}
ENV = {"blas": "scipy-openblas", "blas_version": "0.3.31", "blas_threads": 1}


def run_output(wall, rate, correct=True, check_errors=()):
    """What bench/run.py prints: progress, the info line, the result line;
    the raw figures are the scaled ones doubled."""
    info = {"workload": "sweep", "seed": 1, "env": ENV, "check_errors": list(check_errors),
            "raw": {"wall_s": 2 * wall, "train_samples_per_s": 2 * rate}}
    result = {"correct": correct, "attempted": 10, "failed": 0,
              "metrics": {"wall_s": {"value": wall, "unit": "s"},
                          "train_samples_per_s": {"value": rate, "unit": "1/s"}}}
    return f"progress line\n{json.dumps({'info': info})}\n{json.dumps(result)}\n"


def ok_run(wall, rate):
    return bench_pairs.parse_run(run_output(wall, rate), 0)


def test_parse_run_reads_scaled_raw_and_blas():
    run = ok_run(3.0, 100.0)
    assert run["ok"]
    assert run["scaled"] == {"wall_s": 3.0, "train_samples_per_s": 100.0}
    assert run["raw"] == {"wall_s": 6.0, "train_samples_per_s": 200.0}
    assert run["env"] == ENV


@pytest.mark.parametrize("stdout, code", [
    ("", 1),
    ("error: ['measure', 'sweep'] exited with 1\n", 1),
    (run_output(3.0, 100.0, correct=False, check_errors=["history mismatch"]), 1),
])
def test_parse_run_marks_a_failed_run(stdout, code):
    run = bench_pairs.parse_run(stdout, code)
    assert not run["ok"]
    assert run["error"]


def test_summary_medians_quartiles_and_wins():
    base = [(3.0, 100.0), (3.2, 110.0), (3.4, 90.0), (3.6, 105.0), (3.1, 95.0)]
    change = [(2.9, 120.0), (3.3, 115.0), (3.0, 90.0), (3.5, 100.0), (2.0, 130.0)]
    pairs = [{"seed": i, "base": ok_run(*b), "change": ok_run(*c)}
             for i, (b, c) in enumerate(zip(base, change))]
    pairs[4]["change"] = bench_pairs.parse_run("", 1)  # the last pair's change run failed
    out = bench_pairs.summarize(pairs, BETTER)
    assert out["pairs"] == 4
    assert out["failed"] == {"base": 0, "change": 1}
    wall = out["metrics"]["wall_s"]
    assert wall["better"] == "lower"
    # five base runs 3.0 3.1 3.2 3.4 3.6; four change runs 2.9 3.0 3.3 3.5
    assert wall["scaled"]["base"] == pytest.approx({"median": 3.2, "q1": 3.05, "q3": 3.5})
    assert wall["scaled"]["change"] == pytest.approx({"median": 3.15, "q1": 2.925, "q3": 3.45})
    assert wall["scaled"]["change_wins"] == 3  # 2.9 < 3.0, 3.0 < 3.4, 3.5 < 3.6
    assert wall["raw"]["base"]["median"] == pytest.approx(6.4)
    assert wall["raw"]["change_wins"] == 3
    rate = out["metrics"]["train_samples_per_s"]
    assert rate["scaled"]["base"]["median"] == pytest.approx(100.0)
    # higher is better; the tie at 90 counts for neither side
    assert rate["scaled"]["change_wins"] == 2


def test_summary_of_a_single_pair_has_no_spread():
    out = bench_pairs.summarize([{"base": ok_run(3.0, 1.0), "change": ok_run(2.0, 2.0)}], BETTER)
    assert out["metrics"]["wall_s"]["scaled"]["change"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
    assert out["metrics"]["wall_s"]["scaled"]["change_wins"] == 1


def test_summary_lines_print_raw_beside_scaled():
    pairs = [{"base": ok_run(3.0, 100.0), "change": ok_run(2.0, 80.0)},
             {"base": ok_run(3.0, 100.0), "change": bench_pairs.parse_run("", 1)}]
    summary = bench_pairs.summarize(pairs, BETTER)
    # a metric no successful run reported on one side is left out
    summary["metrics"]["cycle_p50_ms"] = {"better": "lower"}
    assert bench_pairs.summary_lines({"sweep": summary}) == [
        "sweep: 1 pairs, failed {'base': 0, 'change': 1}",
        "  wall_s: scaled 3 -> 2 (change better in 1); raw 6 -> 4 (change better in 1)",
        "  train_samples_per_s: scaled 100 -> 80 (change better in 0); "
        "raw 200 -> 160 (change better in 0)",
    ]


def test_src_line_change_sums_numstat_and_prints_first():
    # a renamed file counts its edits; a binary file counts no lines
    numstat = ("12\t30\tsrc/gwindcast/model.py\n"
               "3\t1\tsrc/gwindcast/{old.py => new.py}\n"
               "-\t-\tsrc/gwindcast/blob.bin\n")
    change = bench_pairs.src_line_change(numstat)
    assert change == {"added": 15, "deleted": 31, "net": -16}
    assert bench_pairs.src_line_change("") == {"added": 0, "deleted": 0, "net": 0}
    summary = bench_pairs.summarize([{"base": ok_run(3.0, 1.0), "change": ok_run(2.0, 2.0)}],
                                    {"wall_s": "lower"})
    lines = bench_pairs.summary_lines({"sweep": summary}, change)
    assert lines[:2] == ["src/ lines: net -16 (15 added, 31 deleted)",
                         "sweep: 1 pairs, failed {'base': 0, 'change': 0}"]


def test_summary_splits_a_metric_whose_runs_gap_wider_than_its_bound():
    # wall_s in two modes: the base runs all low, the change's mostly high;
    # the rate's widest gap (10) is below 0.1 times its median (100)
    base = [(117.0, 95.0), (118.0, 100.0), (116.0, 105.0), (117.5, 100.0)]
    change = [(143.0, 100.0), (144.0, 95.0), (117.0, 105.0), (143.5, 100.0)]
    pairs = [{"base": ok_run(*b), "change": ok_run(*c)} for b, c in zip(base, change)]
    out = bench_pairs.summarize(pairs, BETTER, {"wall_s": 0.1, "train_samples_per_s": 0.1})
    wall = out["metrics"]["wall_s"]
    assert wall["scaled"]["modes"] == {"gap": [118.0, 143.0],
                                       "base": {"below": 4, "above": 0},
                                       "change": {"below": 1, "above": 3}}
    assert wall["raw"]["modes"]["gap"] == [236.0, 286.0]
    assert "modes" not in out["metrics"]["train_samples_per_s"]["scaled"]
    # without a bound no metric is split
    assert "modes" not in bench_pairs.summarize(pairs, BETTER)["metrics"]["wall_s"]["scaled"]
    lines = bench_pairs.summary_lines({"sweep": out})
    assert lines[1:4] == [
        "  wall_s: scaled 117.25 -> 143.25 (change better in 0); "
        "raw 234.5 -> 286.5 (change better in 0)",
        "    scaled modes 118 | 143: base 4 below, 0 above; change 1 below, 3 above",
        "    raw modes 236 | 286: base 4 below, 0 above; change 1 below, 3 above",
    ]
