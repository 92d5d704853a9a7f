"""The verdicts of ``scripts/bench_pairs.py`` on synthetic pairs of runs, and
its records of a run that fails and of one that is not correct."""

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


def host_speed(value):
    return ("NUMPY reference median 0.010000 s over 2 samples, scale 0.500000; "
            f"unscaled wall_s = {value:g}, peak_rss_mb = 60.5")


def test_unscaled_values_read_from_the_host_speed_line(bench_pairs):
    assert bench_pairs.unscaled({"host_speed": host_speed(0.25)}) == {
        "wall_s": 0.25, "peak_rss_mb": 60.5}
    assert bench_pairs.unscaled({}) == {}


def test_per_pair_ratios_of_scaled_and_unscaled_values(bench_pairs):
    pairs = runs([1.0, 2.0, 4.0, 1.0], [0.5, 1.0, 4.0, 2.0])
    for pair, p, c in zip(pairs, [2.0, 4.0, 8.0, 2.0], [2.0, 2.0, 8.0, 4.0]):
        pair["parent"]["host_speed"] = host_speed(p)
        pair["change"]["host_speed"] = host_speed(c)
    out = bench_pairs.summarise(pairs, [WALL])["wall_s"]
    # scaled ratios 0.5, 0.5, 1, 2: two won; unscaled 1, 0.5, 1, 2: one won
    assert out["pair_ratios"] == {
        "scaled": {"median": 0.75, "q1": 0.5, "q3": 1.25, "iqr": 0.75,
                   "change_wins": 2},
        "unscaled": {"median": 1.0, "q1": 0.875, "q3": 1.25, "iqr": 0.375,
                     "change_wins": 1},
    }
    # the verdict reads neither
    plain = judge(bench_pairs, [1.0, 2.0, 4.0, 1.0], [0.5, 1.0, 4.0, 2.0])
    assert plain["pair_ratios"]["unscaled"] is None
    del out["pair_ratios"], plain["pair_ratios"]
    assert out == plain


def test_ratios_on_a_higher_is_better_metric_count_higher_as_won(bench_pairs):
    out = judge(bench_pairs, PARENT, [2.0 * v for v in PARENT], WORK)
    assert out["pair_ratios"]["scaled"]["median"] == pytest.approx(2.0)
    assert out["pair_ratios"]["scaled"]["change_wins"] == 10


@pytest.mark.parametrize("name", ["BENCH_33.json", "BENCH_34.json", "BENCH_35.json"])
def test_stored_runs_reproduce_their_stored_summaries(bench_pairs, name):
    root = SCRIPT.parent.parent
    metrics = json.loads((root / "BENCHMARK.json").read_text())["end_to_end"]
    stored = json.loads((root / name).read_text())
    for workload in stored["workloads"].values():
        got = bench_pairs.summarise(workload["runs"], metrics)
        for metric, summary in workload["metrics"].items():
            ratios = got[metric].pop("pair_ratios")
            assert got[metric] == summary
            # every run of these files keeps its host-speed line
            assert ratios["unscaled"] is not None


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


# a benchmark command whose run at seed 1 fails a check and says why
WRONG = """
import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
if seed == 1:
    print("# FAILED escape (1, 1): |mc - exact| = 0.01 > 4 sigma")
    print("# wall_s = 1.0 s")
print(json.dumps({"correct": seed != 1, "failed": int(seed == 1),
                  "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}))
"""


def test_an_incorrect_run_keeps_its_failed_lines(bench_pairs, monkeypatch,
                                                 tmp_path, capsys):
    bench = {"command": [sys.executable, "-c", WRONG], "run_seconds": 1,
             "end_to_end": [WALL]}
    monkeypatch.setattr(bench_pairs, "git", lambda *args: args[-1])
    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: (
        dest / "BENCHMARK.json").write_text(json.dumps(bench)))
    out = tmp_path / "pairs.json"
    monkeypatch.setattr(sys, "argv", [
        "bench_pairs.py", "--parent", "p", "--workload", "w", "--pairs", "2",
        "--seed0", "0", "--out", str(out)])
    assert bench_pairs.main() == 0
    got = json.loads(out.read_text())["workloads"]["w"]
    err = capsys.readouterr().err
    reason = "# FAILED escape (1, 1): |mc - exact| = 0.01 > 4 sigma"
    for side in ("parent", "change"):
        assert got["runs"][1][side]["failed_lines"] == [reason]
        assert "failed_lines" not in got["runs"][0][side]
        assert f"# w pair 1 seed 1 {side}: {reason}\n" in err
    assert "FAILED" not in err.replace(reason, "")
    assert not got["all_correct"] and got["failed"] == {"parent": 1, "change": 1}


# a benchmark command that prints the lines that explain its numbers
EXPLAINED = """
import json, sys
seed = int(sys.argv[sys.argv.index("--seed") + 1])
print("# host speed: NUMPY reference median 0.010000 s over %d samples, "
      "scale 1.000000; unscaled wall_s = 1" % (seed + 2))
print("# exact counts per pass " + json.dumps({"curve.branch_calls": 7 * seed}))
print(json.dumps({"correct": True, "failed": 0,
                  "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}))
"""


def test_each_run_keeps_its_host_speed_and_exact_counts(bench_pairs, monkeypatch,
                                                        tmp_path):
    bench = {"command": [sys.executable, "-c", EXPLAINED], "run_seconds": 1,
             "end_to_end": [WALL]}
    monkeypatch.setattr(bench_pairs, "git", lambda *args: args[-1])
    monkeypatch.setattr(bench_pairs, "export", lambda rev, dest: (
        dest / "BENCHMARK.json").write_text(json.dumps(bench)))
    ratios = iter([0.55, 1.08])
    monkeypatch.setattr(bench_pairs, "fill_ratio", lambda: next(ratios))
    out = tmp_path / "pairs.json"
    monkeypatch.setattr(sys, "argv", [
        "bench_pairs.py", "--parent", "p", "--workload", "w", "--pairs", "2",
        "--seed0", "3", "--out", str(out)])
    assert bench_pairs.main() == 0
    got = json.loads(out.read_text())
    # measured once before the first pair and once after the last
    assert got["host"]["fill_ratio_two_threads"] == {"before": 0.55, "after": 1.08}
    for k, pair in enumerate(got["workloads"]["w"]["runs"]):
        for side in ("parent", "change"):
            run = pair[side]
            assert run["host_speed"] == (
                f"NUMPY reference median 0.010000 s over {k + 5} samples, "
                "scale 1.000000; unscaled wall_s = 1")
            assert run["exact_counts"] == {"curve.branch_calls": 7 * (k + 3)}


def test_fill_ratio_is_a_positive_time_ratio(bench_pairs):
    ratio = bench_pairs.fill_ratio(n=1 << 12, repeats=3)
    assert 0.0 < ratio < float("inf")
