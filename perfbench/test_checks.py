"""The benchmark's checker must count a wrong output as a failure.

    python3 -m pytest perfbench/test_checks.py -q

Each test feeds a deliberately perturbed value through the same check
the workloads use and requires that the recorder marks the operation
failed, without passing it and without raising.  The last test pins
the tracer's self-time arithmetic, which the per-layer metrics rest on.
"""

import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import cornerwalk as cw  # noqa: E402
from checks import Recorder  # noqa: E402
from tracing import self_times  # noqa: E402
from workloads import (  # noqa: E402
    CLI_ESCAPE, EscapeMC, Series, check_survival, load_oracles, pooled,
    run_split,
)

FIB_11 = float(load_oracles().fib_escape_exact(1, 1))
SERIES_REFS = {"fib_escape_11": FIB_11, "fib_boundary": {}}


def run_escape_check(value):
    rec = Recorder()
    hv = cw.HarmonicValue(value, 1e-16, 30)
    rec.run("fibonacci.escape_probability", lambda: hv,
            lambda r: Series()._check_escape(rec, SERIES_REFS, "fibonacci", 1, 1, r))
    return rec


def run_survival_check(alive, n_paths=65536, ref=0.5):
    rec = Recorder()
    est = cw.SimEstimate(alive / n_paths,
                         math.sqrt(ref * (1 - ref) / n_paths), n_paths, 1000, 0.0)
    rec.run("halfplane", lambda: est,
            lambda e: check_survival(rec, "halfplane", e, ref))
    return rec


def test_exact_fibonacci_escape_passes():
    rec = run_escape_check(FIB_11)
    assert not rec.failures
    assert rec.counts["compensation.chain_terms"] == 30


def test_fibonacci_escape_shifted_by_1e_9_fails():
    rec = run_escape_check(FIB_11 + 1e-9)
    assert len(rec.failures) == 1
    assert "exact rational" in rec.failures[0].message


def test_survivor_count_within_noise_passes():
    assert not run_survival_check(32768 + 100).failures


def test_survivor_count_off_by_5_sigma_fails():
    sigma = math.sqrt(0.25 * 65536)  # in paths
    rec = run_survival_check(32768 + math.ceil(5 * sigma))
    assert len(rec.failures) == 1
    assert rec.counts["survivors.halfplane"] == 32768 + math.ceil(5 * sigma)


def run_split_survival(alive_per_call, n_paths=16384, ref=0.5):
    """A survival estimate split into calls of ``n_paths``, checked pooled."""
    rec = Recorder()

    def call(alive):
        if alive is None:
            raise RuntimeError("simulated failure")
        return cw.SimEstimate(alive / n_paths,
                              math.sqrt(ref * (1 - ref) / n_paths), n_paths,
                              1000, 0.0)

    run_split(rec, "split", call, alive_per_call,
              lambda parts: check_survival(rec, "split", pooled(cw, parts), ref))
    return rec


def test_split_estimate_off_by_5_sigma_pooled_fails():
    # each call is only 2.5 of its own sigma (64 paths) high; pooled over
    # four calls the shift is 5 sigma
    rec = run_split_survival([8192 + 160] * 4)
    assert len(rec.ops) == 4
    assert len(rec.failures) == 1
    assert rec.counts["survivors.split"] == 4 * (8192 + 160)


def test_split_estimate_within_noise_passes():
    assert not run_split_survival([8192 + 60, 8192 - 20, 8192, 8192 + 90]).failures


def test_split_estimate_with_a_raising_call_fails_without_raising():
    rec = run_split_survival([8192, None, 8192, 8192])
    messages = [op.message for op in rec.failures]
    assert len(messages) == 2
    assert "simulated failure" in messages[0]
    assert "split estimate raised" in messages[1]


def test_cli_disagreement_fails():
    rec = Recorder()
    text = "# command: escape\nmc_mean: 0.5\nterms_used: 45\nmc_verdict: disagree\n"
    rec.run("cli.escape", lambda: (0, text), lambda r: EscapeMC._check_cli(rec, r))
    assert len(rec.failures) == 1
    assert "disagree" in rec.failures[0].message
    assert rec.counts["montecarlo.path_steps_nominal"] == (
        int(CLI_ESCAPE[-3]) * int(CLI_ESCAPE[-2]))


def test_nonzero_exit_fails():
    rec = Recorder()
    rec.run("cli.escape", lambda: (3, ""), lambda r: EscapeMC._check_cli(rec, r))
    assert len(rec.failures) == 1
    assert rec.counts["cli.escape.exit"] == 3


def test_operation_that_raises_is_recorded_not_raised():
    rec = Recorder()
    assert rec.run("boom", lambda: 1 / 0) is None
    assert len(rec.failures) == 1
    assert "ZeroDivisionError" in rec.failures[0].message


def test_check_that_crashes_is_recorded_not_raised():
    rec = Recorder()
    rec.run("malformed", lambda: (0, "no fields here"),
            lambda r: EscapeMC._check_cli(rec, r))
    assert len(rec.failures) == 1
    assert "check raised" in rec.failures[0].message


def test_self_time_subtracts_direct_children():
    spans = [
        ["trace.unattributed:op", 0.0, 10.0, -1],
        ["montecarlo.estimate_escape", 1.0, 9.0, 0],
        ["model.validate", 1.0, 2.0, 1],
        ["model.validate", 3.0, 4.0, 1],
    ]
    got = self_times(spans)
    assert got["trace.unattributed"] == (2.0, 1)
    assert got["montecarlo.estimate_escape"] == (6.0, 1)
    assert got["model.validate"] == (2.0, 2)
    assert sum(s for s, _ in got.values()) == 10.0
