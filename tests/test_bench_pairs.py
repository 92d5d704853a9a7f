"""The verdicts of ``scripts/bench_pairs.py`` on synthetic pairs of runs, and
its record of a run that fails."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}
WORK = {"name": "work_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
# ten parent runs with quartiles 0.975 and 1.025 (IQR 0.05 = 5% of the median)
PARENT = [0.96, 0.97, 0.98, 0.99, 1.0, 1.0, 1.01, 1.02, 1.03, 1.04]


def runs(parent, change, name="wall_s"):
    side = lambda v: {"metrics": {name: {"value": v, "unit": "s"}}}
    return [{"parent": side(p), "change": side(c)} for p, c in zip(parent, change)]


def judge(bench_pairs, parent, change, metric=WALL):
    return bench_pairs.summarise(runs(parent, change, metric["name"]), [metric])[
        metric["name"]
    ]


def test_clear_gain(bench_pairs):
    out = judge(bench_pairs, PARENT, [0.5 * v for v in PARENT])
    assert out["verdict"] == "gain"
    assert out["change_wins"] == 10 and out["ratio"] == pytest.approx(0.5)


def test_gain_on_a_higher_is_better_metric(bench_pairs):
    out = judge(bench_pairs, PARENT, [2.0 * v for v in PARENT], WORK)
    assert out["verdict"] == "gain"


def test_eight_wins_of_ten_are_no_gain(bench_pairs):
    change = [0.5 * v for v in PARENT[:8]] + [2.0, 2.0]
    out = judge(bench_pairs, PARENT, change)
    assert out["change_wins"] == 8
    assert out["verdict"] == "unchanged"


def test_wins_within_the_parent_spread_are_no_gain(bench_pairs):
    # every pair won, but by less than the parent's IQR
    out = judge(bench_pairs, PARENT, [v - 0.01 for v in PARENT])
    assert out["change_wins"] == 10
    assert out["verdict"] == "unchanged"


def test_ties_count_for_neither_side(bench_pairs):
    out = judge(bench_pairs, PARENT, PARENT)
    assert out["change_wins"] == 0 and out["ties"] == 10
    assert out["verdict"] == "unchanged"


def test_regression_beyond_the_bound(bench_pairs):
    out = judge(bench_pairs, PARENT, [1.3 * v for v in PARENT])
    assert out["verdict"] == "regression"
    out = judge(bench_pairs, PARENT, [0.7 * v for v in PARENT], WORK)
    assert out["verdict"] == "regression"


def test_slower_within_the_bound_is_unchanged(bench_pairs):
    out = judge(bench_pairs, PARENT, [1.2 * v for v in PARENT])
    assert out["verdict"] == "unchanged"


def test_parent_spread_wider_than_the_bound_is_unresolved(bench_pairs):
    wide = [0.5, 0.6, 0.7, 0.8, 1.0, 1.0, 1.2, 1.4, 1.6, 1.8]
    out = judge(bench_pairs, wide, [1.1 * v for v in wide])
    assert out["parent"]["iqr"] > 0.25 * out["parent"]["median"]
    assert out["verdict"] == "unresolved"


# a benchmark command that exits 1 for the change at seed 2 and prints a
# result line otherwise
FLAKY = """
import json, os, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
if seed == 2 and os.path.basename(os.getcwd()) == "change":
    print("warming up", file=sys.stderr)
    sys.exit("StatisticsError: no host-speed sample")
print(json.dumps({"correct": True, "failed": 0,
                  "metrics": {"wall_s": {"value": 1.0 + seed / 100, "unit": "s"}}}))
"""


def test_a_failed_run_is_recorded_and_the_pairs_go_on(bench_pairs, monkeypatch,
                                                      tmp_path):
    bench = {"command": [sys.executable, "-c", FLAKY], "run_seconds": 1,
             "end_to_end": [WALL]}
    monkeypatch.setattr(bench_pairs, "git", lambda *args: args[-1])
    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: (
        dest / "BENCHMARK.json").write_text(json.dumps(bench)))
    out = tmp_path / "pairs.json"
    monkeypatch.setattr(sys, "argv", [
        "bench_pairs.py", "--parent", "p", "--workload", "w", "--pairs", "4",
        "--seed0", "0", "--out", str(out)])
    assert bench_pairs.main() == 1
    got = json.loads(out.read_text())["workloads"]["w"]
    assert got["runs"][2]["change"] == {
        "exit": 1, "stderr": "StatisticsError: no host-speed sample"}
    assert got["failed_runs"] == {"parent": 0, "change": 1}
    assert not got["all_correct"] and got["failed"] == {"parent": 0, "change": 0}
    # judged over the three pairs in which both sides printed a result
    wall = got["metrics"]["wall_s"]
    assert wall["pairs"] == 3 and wall["ties"] == 3
    assert wall["parent"]["median"] == 1.01 and wall["verdict"] == "unchanged"
