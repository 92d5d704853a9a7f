#!/usr/bin/env python3
"""Run the benchmark in alternating parent/change pairs and summarise them.

Exports ``--parent`` and ``HEAD`` with ``git archive`` into temporary
directories, then for each pair k runs the benchmark command that
``BENCHMARK.json`` declares (with its ``run_seconds`` and ``--trace 0``)
once in each tree, at seed ``--seed0 + k``.  Even pairs run the parent
first, odd pairs the change, so drift in the host's speed falls on both
sides alike.  Runs go one at a time.  A run that exits non-zero, or
prints no result line, is recorded with its exit code and last stderr
line, and the pairs go on; the script then exits 1.  A run whose result
line reads ``"correct": false`` keeps its ``# FAILED`` lines, the
reasons, under ``"failed_lines"``; they are echoed to stderr too.  Each
run with a result line also keeps what explains its numbers: its
``# host speed:`` line (the reference timing and its sample count, and
the unscaled metrics) under ``"host_speed"`` and its ``# exact counts
per pass`` under ``"exact_counts"``.

Under ``"host"`` the JSON records, before the first pair and after the
last, the time two threads take to draw 2**22 Philox doubles, half each,
over the time one thread takes to draw them all (median of 9): near 0.5
where the host runs two threads in parallel, near 1 where it does not.

The JSON written to ``--out`` holds every run's result line (or failure
record), each side's count of failed runs and, for each end-to-end
metric of ``BENCHMARK.json``, summarised over the pairs in which both
sides printed a result: each side's median and quartiles, the
change-over-parent median ratio, the number of pairs the change won
(ties count for neither side), a verdict and, under ``"pair_ratios"``,
the per-pair change/parent ratios summarised by their median, quartiles
and the pairs the change won: ``"scaled"`` for the metric as judged,
``"unscaled"`` for its value in each run's ``# host speed:`` line (None
where a run has none, or a parent value is 0).  Both trees of a pair run
back to back, so host drift moves the ratio within a pair least; the
verdict does not read these summaries.  The verdicts:

* ``gain``: the change won at least nine tenths of the pairs and its
  median is better than the parent's by more than the parent's
  interquartile range;
* ``regression``: the change's median is worse than the parent's by more
  than the metric's ``bound`` (a fraction of the parent's median);
* ``unresolved``: neither, and the parent's interquartile range is wider
  than the bound, so the runs cannot tell a regression from noise;
* ``unchanged``: none of the above.

Usage: python scripts/bench_pairs.py --parent REV --workload series
           --pairs 10 --seed0 9101 --out BENCH.json [--workload W ...]
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def git(*args: str) -> str:
    return subprocess.run(("git", *args), cwd=ROOT, check=True,
                          capture_output=True, text=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    archive = subprocess.Popen(("git", "archive", rev), cwd=ROOT,
                               stdout=subprocess.PIPE)
    subprocess.run(("tar", "-x", "-C", str(dest)), stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise SystemExit(f"git archive {rev} failed")


def export_trees(revs: dict, tmp: str) -> dict:
    """Per key of ``revs``, its revision exported into ``tmp``/key."""
    trees = {}
    for side, rev in revs.items():
        trees[side] = Path(tmp) / side
        trees[side].mkdir()
        export(rev, trees[side])
    return trees


# Prints the median over repeats of the time two threads take to draw n
# Philox doubles, n / 2 each, over the time one thread takes for all n.
FILL_RATIO = """
import statistics, sys, threading, time
import numpy as np

n, repeats = map(int, sys.argv[1:])
out = np.empty(n)
gens = [np.random.Generator(np.random.Philox(k)) for k in range(2)]
halves = [(gens[0], out[: n // 2]), (gens[1], out[n // 2:])]
ratios = []
for _ in range(repeats):
    start = time.perf_counter()
    gens[0].random(out=out)
    one = time.perf_counter() - start
    threads = [threading.Thread(target=g.random, kwargs={"out": part})
               for g, part in halves]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    ratios.append((time.perf_counter() - start) / one)
print(statistics.median(ratios))
"""


def fill_ratio(n: int = 1 << 22, repeats: int = 9) -> float:
    """The two-thread Philox fill ratio of FILL_RATIO, measured in a fresh
    interpreter: a run started from this process inherits its peak RSS
    (``ru_maxrss`` survives fork and exec), so this process never holds
    numpy or the buffer."""
    done = subprocess.run((sys.executable, "-c", FILL_RATIO, str(n), str(repeats)),
                          check=True, capture_output=True, text=True)
    return float(done.stdout)


def run_once(tree: Path, bench: dict, workload: str, seed: int) -> dict:
    """The run's result line, with its "host_speed" and "exact_counts"
    lines and, if it is not correct, its "failed_lines", or {"exit": code,
    "stderr": last stderr line} for a run that exits non-zero or prints no
    JSON result line."""
    cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(bench["run_seconds"]), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if done.returncode == 0:
        lines = done.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            pass
        else:
            for ln in lines:
                if ln.startswith("# host speed: "):
                    result["host_speed"] = ln.removeprefix("# host speed: ")
                elif ln.startswith("# exact counts per pass "):
                    result["exact_counts"] = json.loads(
                        ln.removeprefix("# exact counts per pass "))
            if not result["correct"]:
                result["failed_lines"] = [ln for ln in lines
                                          if ln.startswith("# FAILED")]
            return result
    err = done.stderr.strip().splitlines()
    return {"exit": done.returncode, "stderr": err[-1] if err else ""}


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def unscaled(run: dict) -> dict:
    """Per metric name, its unscaled value in the run's host-speed line
    ("...; unscaled wall_s = 0.229411, setup_s = ..."), {} without one."""
    _, _, listed = run.get("host_speed", "").partition("; unscaled ")
    items = (item.split(" = ") for item in listed.split(", ") if item)
    return {name: float(value) for name, value in items}


def pair_ratios(parent: list, change: list, lower: bool) -> dict | None:
    """The spread of the per-pair ratios change / parent, with the pairs
    the change won, or None where a value is missing or a parent's is 0."""
    if None in parent or None in change or 0 in parent:
        return None
    ratios = [c / p for p, c in zip(parent, change)]
    wins = sum((r < 1.0) if lower else (r > 1.0) for r in ratios)
    return {**spread(ratios), "change_wins": wins}


def verdict(metric: dict, parent: dict, change: dict, wins: int,
            pairs: int) -> str:
    """Judge one metric from each side's spread and the change's wins."""
    sign = 1.0 if metric["better"] == "lower" else -1.0
    better_by = sign * (parent["median"] - change["median"])
    allowed = metric["bound"] * abs(parent["median"])
    if 10 * wins >= 9 * pairs and better_by > parent["iqr"]:
        return "gain"
    if -better_by > allowed:
        return "regression"
    if parent["iqr"] > allowed:
        return "unresolved"
    return "unchanged"


def summarise(runs: list[dict], metrics: list[dict]) -> dict:
    """Judge each metric over the pairs in which both sides printed a
    result; no metric is judged on fewer than two such pairs."""
    runs = [r for r in runs if not any("exit" in r[s] for s in SIDES)]
    if len(runs) < 2:
        return {}
    out = {}
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {s: [r[s]["metrics"][name]["value"] for r in runs] for s in SIDES}
        bare = {s: [unscaled(r[s]).get(name) for r in runs] for s in SIDES}
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(values["parent"], values["change"]))
        ties = sum(p == c for p, c in zip(values["parent"], values["change"]))
        parent, change = spread(values["parent"]), spread(values["change"])
        out[name] = {
            "unit": metric["unit"], "better": metric["better"],
            "bound": metric["bound"], "parent": parent, "change": change,
            "ratio": (change["median"] / parent["median"]
                      if parent["median"] else None),
            "change_wins": wins, "ties": ties, "pairs": len(runs),
            "verdict": verdict(metric, parent, change, wins, len(runs)),
            "pair_ratios": {
                "scaled": pair_ratios(values["parent"], values["change"], lower),
                "unscaled": pair_ratios(bare["parent"], bare["change"], lower)},
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, help="git revision to compare")
    ap.add_argument("--workload", required=True, action="append",
                    help="benchmark workload; give it again for more")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed0", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 to give quartiles")

    revs = {"parent": git("rev-parse", args.parent),
            "change": git("rev-parse", "HEAD")}
    result = {"parent": revs["parent"], "change": revs["change"],
              "host": {"machine": platform.machine(),
                       "python": platform.python_version(),
                       "cpus": len(os.sched_getaffinity(0)),
                       "fill_ratio_two_threads": {"before": fill_ratio()}},
              "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        trees = export_trees(revs, tmp)
        bench = json.loads((trees["change"] / "BENCHMARK.json").read_text())
        result["command"] = bench["command"]
        result["run_seconds"] = bench["run_seconds"]
        any_failed = False
        for workload in args.workload:
            runs = []
            for k in range(args.pairs):
                seed = args.seed0 + k
                order = SIDES if k % 2 == 0 else SIDES[::-1]
                pair = {"pair": k, "seed": seed, "first": order[0]}
                for side in order:
                    run = pair[side] = run_once(trees[side], bench, workload, seed)
                    said = (f"exited {run['exit']}: {run['stderr']}" if "exit" in run
                            else f"wall_s {run['metrics']['wall_s']['value']:.4f}")
                    for line in [said, *run.get("failed_lines", ())]:
                        print(f"# {workload} pair {k} seed {seed} {side}: {line}",
                              file=sys.stderr, flush=True)
                runs.append(pair)
            printed = {s: [r[s] for r in runs if "exit" not in r[s]] for s in SIDES}
            failed_runs = {s: args.pairs - len(printed[s]) for s in SIDES}
            any_failed = any_failed or any(failed_runs.values())
            result["workloads"][workload] = {
                "seeds": [args.seed0, args.seed0 + args.pairs - 1],
                "all_correct": not any(failed_runs.values()) and all(
                    r["correct"] for s in SIDES for r in printed[s]),
                "failed": {s: sum(r["failed"] for r in printed[s]) for s in SIDES},
                "failed_runs": failed_runs,
                "metrics": summarise(runs, bench["end_to_end"]),
                "runs": runs,
            }
            args.out.write_text(json.dumps(result, indent=1) + "\n")
    result["host"]["fill_ratio_two_threads"]["after"] = fill_ratio()
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 1 if any_failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
