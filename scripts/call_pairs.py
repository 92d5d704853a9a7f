#!/usr/bin/env python3
"""Time the benchmark's Monte Carlo calls in two trees, in one interpreter.

Exports ``--a`` and ``--b`` with ``git archive`` into temporary
directories and imports each tree's ``src/cornerwalk`` under a package
name of its own (``cornerwalk_a``, ``cornerwalk_b``), so both run in this
process, on one heap.  Before any call it runs the host-speed warm-up of
``perfbench/hostspeed.py`` (its numpy reference computation), as a
benchmark run does: its 8 MB arrays raise glibc's mmap threshold, and
without them a fresh interpreter pays hundreds to about 2 000 minor page
faults per visit call that a benchmark run never pays.

Then, for each round, every call shape of ``calls`` runs once in each
tree at the round's seed, tree a first on even rounds and tree b first
on odd ones, untraced; the two results must have equal ``repr``s (the
script stops otherwise).  The shapes are those of the benchmark's
``escape_mc`` and ``green_mc`` workloads, read from the tree's
``perfbench/workloads.py``, plus one weak-drift escape whose rows live
long.  Each tree first makes every call once, untimed, so its model
objects hold their laws and roots.

Prints, per call, the median over rounds of b's time over a's, how many
rounds b was faster, and each tree's median minor page faults per call
(``getrusage``, every thread of the process).

Usage: python scripts/call_pairs.py --a REV --b REV [--rounds 21]
"""

import argparse
import importlib.util
import resource
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("a", "b")


def load_file(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# for its tree export
bench_pairs = load_file("call_pairs_bench_pairs", ROOT / "scripts" / "bench_pairs.py")


def load_package(tree: Path, name: str):
    """The tree's cornerwalk package, imported as ``name``; its modules
    import each other relatively, so they bind within that name."""
    pkg = tree / "src" / "cornerwalk"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def calls(tree: Path, cw) -> dict:
    """Per call name, a function of the seed that makes that call with
    ``cw``: the Monte Carlo calls of the benchmark's workloads, at their
    sizes, and a weak-drift escape (exit roots 9/11, 16 384 x 4000)."""
    sys.path.insert(0, str(tree / "perfbench"))
    try:
        wl = load_file("call_pairs_workloads", tree / "perfbench" / "workloads.py")
    finally:
        sys.path.remove(str(tree / "perfbench"))
    oracles = load_file("call_pairs_oracles", tree / "tests" / "oracles.py")
    model = lambda name: cw.parse_model_file(str(tree / wl.MODEL_FILES[name]))
    fib, big_jump, all_five = model("fibonacci"), model("big_jump"), model("all_five")
    weak = cw.parse_model_text(oracles.sf2_model_text(Fraction(1, 10)))
    g = wl.GreenMC
    u = g.GREEN_U
    norm = (u[0] ** 2 + u[1] ** 2) ** 0.5
    twist = cw.cramer_transform(cw.find_extrema(all_five), (u[0] / norm, u[1] / norm))
    cfg = lambda seed, shape, **kw: cw.SimConfig(
        seed=seed, n_paths=shape[0], horizon=shape[1], **kw)
    out = {
        "fibonacci_escape": lambda s: cw.estimate_escape(fib, (1, 1), cfg(s, wl.FIB_ESCAPE)),
        "big_jump_escape": lambda s: cw.estimate_escape(
            big_jump, (1, 1), cfg(s, wl.BIG_JUMP_ESCAPE)),
        "halfplane_1": lambda s: cw.estimate_halfplane_survival(fib, 1, cfg(s, wl.HALFPLANE)),
        "weak_drift_escape": lambda s: cw.estimate_escape(weak, (4, 4), cfg(s, (16384, 4000))),
    }
    for h in (2, 4):
        out[f"twisted_green_{h}"] = lambda s, h=h: cw.estimate_green(
            all_five, g.GREEN_X, g.GREEN_Y, cfg(s, (wl.GREEN_PATHS, h), twist=twist))
    out["martin_profile"] = lambda s: cw.martin_kernel_profile(
        all_five, g.MARTIN_X, g.MARTIN_YS, cw.SimConfig(seed=s, n_paths=wl.MARTIN_PATHS))
    out["direction_scan"] = lambda s: cw.green_direction_scan(
        fib, g.SCAN_X, g.SCAN_U, g.SCAN_RADII, cw.SimConfig(seed=s, n_paths=wl.SCAN_PATHS))
    return out


def timed(call, seed):
    """(result, seconds, minor page faults) of one call."""
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    result = call(seed)
    seconds = time.perf_counter() - start
    return result, seconds, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults


def summarise(samples: dict) -> dict:
    """Per call, from ``samples[call]`` = one {"a": (seconds, faults), "b":
    (seconds, faults)} per round: the median of b's time over a's, the
    rounds b was faster (a tie is no win), the rounds, and each side's
    median faults."""
    out = {}
    for name, rounds in samples.items():
        out[name] = {
            "ratio": statistics.median(r["b"][0] / r["a"][0] for r in rounds),
            "b_wins": sum(r["b"][0] < r["a"][0] for r in rounds),
            "rounds": len(rounds),
            **{f"faults_{s}": statistics.median(r[s][1] for r in rounds) for s in SIDES},
        }
    return out


def compare(trees: dict, rounds: int, seed0: int = 35001) -> dict:
    """Run the calls of both trees for ``rounds`` rounds (see the module
    docstring) and return their summarise()."""
    host = load_file("call_pairs_hostspeed", trees["a"] / "perfbench" / "hostspeed.py")
    host.HostSpeed(host.NUMPY)  # the warm-up, as at the start of a run
    shapes = {s: calls(trees[s], load_package(trees[s], f"cornerwalk_{s}")) for s in SIDES}
    for s in SIDES:  # untimed: lazy imports, laws, roots
        for call in shapes[s].values():
            call(seed0 - 1)
    samples = {name: [] for name in shapes["a"]}
    for k in range(rounds):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        for name in samples:
            got = {s: timed(shapes[s][name], seed0 + k) for s in order}
            if repr(got["a"][0]) != repr(got["b"][0]):
                raise SystemExit(f"{name} at seed {seed0 + k}: the trees differ:\n"
                                 f"a: {got['a'][0]!r}\nb: {got['b'][0]!r}")
            samples[name].append({s: got[s][1:] for s in SIDES})
    return summarise(samples)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--a", required=True, help="git revision of tree a")
    ap.add_argument("--b", required=True, help="git revision of tree b")
    ap.add_argument("--rounds", type=int, default=21)
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        trees = bench_pairs.export_trees({s: getattr(args, s) for s in SIDES}, tmp)
        summary = compare(trees, args.rounds)
    print(f"{'call':<20} {'b/a':>6} {'b wins':>8} {'faults a':>9} {'faults b':>9}")
    for name, r in summary.items():
        print(f"{name:<20} {r['ratio']:6.3f} {r['b_wins']:>4}/{r['rounds']:<3} "
              f"{r['faults_a']:9.0f} {r['faults_b']:9.0f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
