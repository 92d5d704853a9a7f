"""Benchmark for cornerwalk: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload series --seed 1 --seconds 30 --trace 0

Workloads (see README.md in this directory): ``series``, ``escape_mc``
and ``green_mc``.  A run measures the set-up time in fresh interpreters,
computes the check references, then runs as many passes of the
workload's operations as fit in ``--seconds`` at the workload's nominal
pass time; each operation's time is its median time over the passes.
Every operation's output is checked; a failed check is counted, never
fatal.  With ``--trace 0`` the result holds the end-to-end metrics, in
reference seconds (``hostspeed.py``); with ``--trace 1`` the run
makes the passes that fit in half of ``--seconds`` untraced, then as
many with timing wrappers on the calls between cornerwalk's modules,
and the result holds the per-layer metrics.  The last line of standard
output is the JSON result; the lines before it are a readable summary
starting with ``#``.  A traced run also writes its spans to
``.perfbench/``.
"""

import os

# Pin thread pools before numpy is imported, so the numbers measure the
# program and not the scheduler.  Child processes inherit these.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import Recorder
from hostspeed import HostSpeed
from tracing import OP_SPAN, Tracer, self_times
from workloads import MODEL_FILES, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_AT_START = 5  # then one more after every pass
SETUP_TIMEOUT_S = 60
PERCENTILE_BAND = 0.05  # see percentile()

UNITS = {"wall_s": "s", "setup_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
         "work_per_s": "1/s", "peak_rss_mb": "MB"}

# Per-layer metrics: self seconds and call counts come from trace spans
# (tracing.TARGETS names them); the rest are exact counts from the pass.
LAYER_SECONDS = (
    "model.parse", "model.validate", "curve.find_extrema", "curve.branch",
    "curve.cramer_transform", "compensation.build_sequence",
    "compensation.escape_probability", "compensation.harmonic_eval",
    "compensation.boundary_harmonic", "uniformization.compute_params",
    "uniformization.sequence_at", "montecarlo.estimate_escape",
    "montecarlo.halfplane", "montecarlo.estimate_green",
    "montecarlo.martin_profile", "montecarlo.direction_scan", "cli.main",
    "trace.unattributed",
)
LAYER_CALLS = ("model.validate", "curve.find_extrema", "curve.branch",
               "compensation.harmonic_eval")
LAYER_COUNTS = ("compensation.chain_terms", "montecarlo.path_steps_nominal",
                "montecarlo.survivors", "cli.output_bytes")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def import_cornerwalk():
    """Import the package from this checkout's src/, and nowhere else."""
    if not (SRC / "cornerwalk" / "__init__.py").is_file():
        sys.exit(f"error: no cornerwalk package under {SRC}")
    sys.path.insert(0, str(SRC))
    import cornerwalk
    import cornerwalk.cli  # noqa: F401  (binds cornerwalk.cli)

    if not Path(cornerwalk.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: imported cornerwalk from {cornerwalk.__file__}")
    return cornerwalk


def environment(np_version: str) -> dict:
    def sysconf(code):  # glibc _SC_LEVEL2/3_CACHE_SIZE; Python has no name
        try:
            return os.sysconf(code)
        except (ValueError, OSError):
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np_version,
        "l2_cache_bytes": sysconf(191),
        "l3_cache_bytes": sysconf(194),
        **{var: os.environ[var] for var in THREAD_VARS},
    }


class SetupTimer:
    """Times importing cornerwalk and parsing and validating the
    workload's model files, each time in a fresh interpreter.

    Samples are taken at the start of the run and between passes, so
    that their median spans the whole run and not one moment of the
    host's load.  A first, unmeasured run compiles the bytecode."""

    def __init__(self, models):
        self.cmd = [sys.executable, str(HERE / "setup_probe.py"), *models]
        self.times, self.errors = [], []
        self.sample(keep=False)
        for _ in range(SETUP_AT_START):
            self.sample()

    def sample(self, keep=True):
        proc = subprocess.run(self.cmd, cwd=ROOT, capture_output=True,
                              text=True, timeout=SETUP_TIMEOUT_S)
        if proc.returncode != 0:
            self.errors.append(proc.stderr.strip() or f"exit {proc.returncode}")
        elif keep:
            self.times.append(float(proc.stdout))

    def median(self):
        if not self.times:
            sys.exit(f"error: every set-up measurement failed: {self.errors}")
        return statistics.median(self.times)


def pass_count(workload, seconds):
    """Passes that fit in ``seconds`` at the workload's nominal pass time.

    The count depends on ``--seconds`` alone, never on how fast the
    program runs, so two commits compared at the same ``--seconds`` take
    their operation times over the same number of passes."""
    return max(1, round(seconds / workload.pass_s))


def run_passes(cw, workload, inputs, refs, passes, tracer=None, speed=None,
               between=None):
    """Run ``passes`` whole passes, calling ``between()`` after each.
    Returns the recorders and, when tracing, the spans of each pass."""
    recs, spans = [], []
    for _ in range(passes):
        rec = Recorder(tracer=tracer, speed=speed)
        workload.run_pass(cw, rec, inputs, refs)
        recs.append(rec)
        if tracer is not None:
            spans.append(tracer.reset())
        if between is not None:
            between()
    return recs, spans


def percentile(values, q):
    """The mean of the values ranked within ``PERCENTILE_BAND`` of
    quantile ``q``; for the 13 or 14 latencies of a Monte Carlo pass the
    band holds one or two ranks.  series' latencies come
    in clusters a few percent apart (a query's cost steps with its chain
    length), and a single rank jumps from one cluster to the next when
    the host's noise shifts them by that much; the mean over a band of
    ranks moves only by the share of the band that changes cluster."""
    ordered = sorted(values)
    lo = max(0, math.ceil((q - PERCENTILE_BAND) * len(ordered)) - 1)
    hi = max(lo + 1, math.ceil((q + PERCENTILE_BAND) * len(ordered)) - 1)
    return math.fsum(ordered[lo:hi]) / (hi - lo)


def op_times(recs):
    """Each operation's time over the passes, as (operation, seconds):
    the median of its time in every pass.  Every pass runs the same
    operations on the same inputs, so the median is taken over like
    samples."""
    columns = zip(*([op.seconds for op in r.ops] for r in recs))
    return list(zip(recs[0].ops, map(statistics.median, columns)))


def wall(times):
    """A pass's wall time from ``op_times``: its timed operations."""
    return math.fsum(t for op, t in times if op.in_wall)


def end_to_end(recs, setup_s, scale):
    """The end-to-end metrics; every time is multiplied by ``scale``."""
    times = [(op, scale * t) for op, t in op_times(recs)]
    wall_s = wall(times)
    latencies = [t for op, t in times if op.query]
    return {
        "wall_s": wall_s,
        "setup_s": scale * setup_s,
        "op_p50_ms": 1e3 * percentile(latencies, 0.50),
        "op_p90_ms": 1e3 * percentile(latencies, 0.90),
        "work_per_s": recs[0].work / wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }, len(latencies)


def per_layer(plain, traced, spans):
    """Per-layer metrics, and a line accounting for the first traced pass."""
    per_pass = [self_times(s) for s in spans]
    metrics = {}
    for name in LAYER_SECONDS:
        metrics[f"{name}_s"] = (
            statistics.median(t.get(name, (0.0, 0))[0] for t in per_pass), "s")
    for name in LAYER_CALLS:
        metrics[f"{name}_calls"] = (per_pass[0].get(name, (0.0, 0))[1], "count")
    for name in LAYER_COUNTS:
        metrics[name] = (traced[0].counts.get(name, 0), "count")
    metrics["trace.overhead_s"] = (
        wall(op_times(traced)) - wall(op_times(plain)), "s")
    layers = sum(s for name, (s, _) in per_pass[0].items() if name != OP_SPAN)
    timed = sum(op.seconds for op in traced[0].ops)
    accounting = (
        f"# trace accounting, first traced pass: layers' self time {layers:.6f} s"
        f" + unattributed {per_pass[0].get(OP_SPAN, (0.0, 0))[0]:.6f} s;"
        f" timed operations {timed:.6f} s (wall {traced[0].wall:.6f} s"
        " + untimed model loading)")
    return metrics, accounting


def pass_mismatches(recs):
    """Passes reuse the same inputs, so their operations and exact counts
    must agree; returns what differs from the first pass."""
    first, names = recs[0].counts, [op.name for op in recs[0].ops]
    diff = {k for r in recs[1:] for k in first.keys() | r.counts.keys()
            if r.counts.get(k) != first.get(k)}
    if any([op.name for op in r.ops] != names for r in recs[1:]):
        diff.add("operation sequence")
    return sorted(diff)


def main(argv=None) -> int:
    args = parse_args(argv)
    cw = import_cornerwalk()
    import numpy

    os.chdir(ROOT)  # CLI manifests print the relative model paths
    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    env = environment(numpy.__version__)

    setup, speed, accounting = None, None, None
    if not args.trace:
        setup = SetupTimer([MODEL_FILES[m] for m in workload.models])
        speed = HostSpeed(workload.reference)
    refs = workload.references(cw, inputs)

    spans = []
    if args.trace:
        passes = pass_count(workload, args.seconds / 2)
        plain, _ = run_passes(cw, workload, inputs, refs, passes)
        tracer = Tracer()
        tracer.install(cw)
        try:
            recs, spans = run_passes(cw, workload, inputs, refs, passes, tracer)
        finally:
            tracer.uninstall()
        metrics, accounting = per_layer(plain, recs, spans)
        recs = plain + recs
    else:
        recs, _ = run_passes(cw, workload, inputs, refs,
                             pass_count(workload, args.seconds),
                             speed=speed, between=setup.sample)
        values, n_queries = end_to_end(recs, setup.median(), speed.scale())
        raw, _ = end_to_end(recs, setup.median(), 1.0)
        metrics = {k: (v, UNITS[k]) for k, v in values.items()}

    # Besides every operation, a run checks that all passes ran the same
    # operations with the same exact counts and, untraced, that every
    # set-up measurement succeeded.
    failures = [f"{op.name}: {op.message}" for r in recs for op in r.failures]
    attempted = sum(len(r.ops) for r in recs) + 1
    mismatched = pass_mismatches(recs)
    if mismatched:
        failures.append(f"passes differ in: {mismatched}")
    if not args.trace:
        attempted += 1
        if setup.errors:
            failures.append(f"setup: {setup.errors}")
    failed = len(failures)

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(recs)} passes, {attempted} operations, {failed} failed, "
          f"error_rate {failed / attempted:.6g}")
    print("# env " + json.dumps(env, sort_keys=True))
    print("# pass wall seconds " + json.dumps([round(r.wall, 4) for r in recs]))
    if not args.trace:
        print(f"# per-query latency samples: {n_queries}; "
              f"set-up samples: {len(setup.times)}")
        print(f"# host speed: {speed.reference.name} reference median "
              f"{statistics.median(speed.times):.6f} s over {len(speed.times)}"
              f" samples, scale {speed.scale():.6f}; unscaled "
              + ", ".join(f"{k} = {v:.6g}" for k, v in raw.items()))
    print("# exact counts per pass " + json.dumps(recs[0].counts, sort_keys=True))
    for line in failures[:20]:
        print(f"# FAILED {line}")
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value!r} {unit}")
    if accounting:
        print(accounting)
    if spans:
        out = ROOT / ".perfbench"
        out.mkdir(exist_ok=True)
        path = out / f"trace-{args.workload}-seed{args.seed}.json"
        path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "env": env,
            "counts": recs[0].counts,
            "metrics": {k: v for k, (v, _) in metrics.items()},
            "spans_fields": ["name", "start_s", "end_s", "parent"],
            "spans": spans[0],
        }))
        print(f"# spans of the first traced pass: {path.relative_to(ROOT)}")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
