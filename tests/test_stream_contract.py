"""The random-stream contract, pinned to exact values.

Every Monte Carlo estimate is a function of the seed and the code alone:
each 65536-path batch owns a Philox substream, every block consumes
the rows * blk uniforms of one ``rng.random((rows, blk))`` draw in the
same row-major order (drawn in row shards from Philox copies jumped
ahead to them, which moves no bit), and every uniform picks its step by
the same Walker alias decision.  Visit runs draw blocks of
64 steps; escape and survival runs draw 16, then 32, then 64 for good;
the block that reaches the horizon is cut there.  One engine
runs every estimator.  After every block, the last included, a row
retires from a target once its bound there is below 1e-7 from every
start still alive in it: its exit bound for escape and survival, a bound
on the visits it can still make for Green and Martin.  A row absorbed
from every start or retired from every target is dropped, so later
blocks draw only for the rows still walking; the rows still open at the
horizon are bounded there.  Retirement came with tool_version 0.2.0 for
escape and survival and with 0.3.0 for Green and Martin.  Merging the
two engines moved no draw: it changed only the censored_fraction and
bias_bound of four visit pins, which the CLI does not print, so
tool_version stayed 0.3.0.  With 0.4.0 the curve solvers moved to
safeguarded Newton: no draw moved, but section roots and twist points
moved in their last bits, and with them the twisted Green pin and three
CLI digests (the series value of ``escape --mc-check`` and the twisted
estimates of ``simulate green --twist-u`` and ``green-scan``); the other
two digests moved only through the version line of their manifest.
With 0.5.0 a visit row retires once it is past its target's
anti-diagonal, where a singular walk can add no visit, and every exit
root is rounded up to a certified float.  Five visit pins moved: their
bias_bound and censored_fraction fell to 0, and the far-target mean of
``martin_fibonacci_base_dies`` moved because the rows left now get
other draws.  The escape and survival pins moved in the last digits of
bias_bound, and so did the ``escape --mc-check`` digest; the other four
digests moved only through the version line.  With 0.6.0 escape and
survival runs open with blocks of 16 and 32 steps: a row absorbed early
stops drawing sooner, so the rows left get other draws and rows retire
at other block ends.  The five escape and survival pins moved, and so
did the ``escape --mc-check`` and ``simulate survival`` digests; every
visit pin stayed, and the other three digests moved only through the
version line.  With 0.7.0 the lower roots of the compensation chain are
taken in closed form: no draw moved, but the series value that
``escape --mc-check`` prints moved in its last digits, and with it that
digest; the other four digests moved only through the version line.
With 0.8.0 the series prints the tail bound of the range each degree
sums; no draw and no value moved, and all five digests moved only
through the version line.
A rewrite of the step engine may change array layouts but must leave these
values (and the bytes the CLI prints) exactly as they are.  A change
that is meant to alter the stream must say so and update the pins
together with ``tool_version``.

The cases cross a batch boundary and end on a partial block, cover
trivial (uniform laws) and non-trivial (diag_heavy, twisted laws) alias
tables, both absorption tests (quadrant and half plane) and both starts
of a Martin profile.  Four more cases pin the dropping of absorbed and
retired rows in visit runs: a Green run over two full batches and a
partial one that loses most rows in its first block, a Martin profile
whose base start (1, 1) dies in rows where x still walks and whose far
target is reached only after the first block, a Martin profile of a
weak-drift law whose walks, absorbed from one start, re-enter the
quadrant near the targets, and a run whose every row is absorbed long
before the horizon.  One twisted Green run stops at horizon 6, while
rows still stand before its target's anti-diagonal, so its pinned
bias_bound is the gambler's-ruin term of _visit_bounds and not 0.
"""

import contextlib
import hashlib
import io
import math
from fractions import Fraction
from pathlib import Path

import pytest

from cornerwalk.cli import main
from cornerwalk.curve import cramer_transform, find_extrema
from cornerwalk.model import parse_model_text
from cornerwalk.montecarlo import (
    _BLOCK,
    BATCH_SIZE,
    SimConfig,
    estimate_escape,
    estimate_green,
    estimate_halfplane_survival,
    martin_kernel_profile,
)

from oracles import sf2_model_text

ROOT = Path(__file__).resolve().parent.parent

N_PATHS = BATCH_SIZE + 3001  # one full batch and a partial one
# visit runs: two blocks of 64 and a partial 22; escape and survival:
# blocks of 16, 32 and 64 and a partial 38
HORIZON = 150


def _twist(dist, u):
    n = math.hypot(*u)
    return cramer_transform(find_extrema(dist), (u[0] / n, u[1] / n))


def _escape(name, seed):
    return lambda m: estimate_escape(
        m[name], (1, 1), SimConfig(seed=seed, n_paths=N_PATHS, horizon=HORIZON)
    )


ESTIMATES = {
    "escape_fibonacci": _escape("fib", 11),
    "escape_diag_heavy": _escape("diag_heavy", 12),
    "escape_big_jump": _escape("big_jump", 13),
    "survival_diag_heavy": lambda m: estimate_halfplane_survival(
        m["diag_heavy"], 2, SimConfig(seed=14, n_paths=N_PATHS, horizon=HORIZON)
    ),
    "escape_twisted": lambda m: estimate_escape(
        m["all_five"], (2, 1),
        SimConfig(seed=15, n_paths=N_PATHS, horizon=HORIZON,
                  twist=_twist(m["all_five"], (2, 1))),
    ),
    "green_twisted": lambda m: estimate_green(
        m["all_five"], (2, 2), (4, 3),
        SimConfig(seed=16, n_paths=N_PATHS, horizon=70,
                  twist=_twist(m["all_five"], (2, 1))),
    ),
    "green_twisted_short": lambda m: estimate_green(
        m["all_five"], (2, 2), (4, 3),
        SimConfig(seed=22, n_paths=N_PATHS, horizon=6,
                  twist=_twist(m["all_five"], (2, 1))),
    ),
    "martin_all_five": lambda m: martin_kernel_profile(
        m["all_five"], (2, 3), [(5, 5), (7, 6)],
        SimConfig(seed=17, n_paths=N_PATHS, horizon=HORIZON),
    ),
    "martin_diag_heavy": lambda m: martin_kernel_profile(
        m["diag_heavy"], (3, 3), [(5, 5), (6, 4)],
        SimConfig(seed=18, n_paths=N_PATHS, horizon=HORIZON),
    ),
    "green_fibonacci": lambda m: estimate_green(
        m["fib"], (1, 1), (3, 3),
        SimConfig(seed=19, n_paths=2 * BATCH_SIZE + 17, horizon=HORIZON),
    ),
    "martin_fibonacci_base_dies": lambda m: martin_kernel_profile(
        m["fib"], (4, 4), [(5, 5), (24, 24)],
        SimConfig(seed=20, n_paths=N_PATHS, horizon=HORIZON),
    ),
    "martin_weak_drift_reentry": lambda m: martin_kernel_profile(
        m["weak_drift"], (3, 3), [(2, 4), (1, 5)],
        SimConfig(seed=21, n_paths=N_PATHS, horizon=HORIZON),
    ),
    "green_all_absorbed": lambda m: estimate_green(
        m["fib"], (1, 1), (2, 2), SimConfig(seed=29, n_paths=12, horizon=2000)
    ),
}

EXPECTED = {
    "escape_fibonacci": (
        "SimEstimate(mean=0.17106088682025766, "
        "std_error=0.0014383816381196297, n_paths=68537, horizon=150, "
        "censored_fraction=0.0015757911784875323, "
        "bias_bound=1.6844150757811879e-07)"
    ),
    "escape_diag_heavy": (
        "SimEstimate(mean=0.8200534018121599, "
        "std_error=0.0014673386004502521, n_paths=68537, horizon=150, "
        "censored_fraction=0.0, bias_bound=3.631805856087434e-10)"
    ),
    "escape_big_jump": (
        "SimEstimate(mean=0.46402673008739803, "
        "std_error=0.0019049365714220539, n_paths=68537, horizon=150, "
        "censored_fraction=0.0, bias_bound=5.130631223164659e-09)"
    ),
    "survival_diag_heavy": (
        "SimEstimate(mean=0.9917270963129404, "
        "std_error=0.00034598918881994324, n_paths=68537, horizon=150, "
        "censored_fraction=0.0, bias_bound=2.8018421700504752e-11)"
    ),
    "escape_twisted": (
        "SimEstimate(mean=0.45607482089966006, "
        "std_error=0.0019025018359478906, n_paths=68537, horizon=150, "
        "censored_fraction=0.01415293928826765, "
        "bias_bound=9.362425784899659e-06)"
    ),
    "green_twisted": (
        "SimEstimate(mean=0.29854545900136603, "
        "std_error=0.0018808469344377716, n_paths=68537, horizon=70, "
        "censored_fraction=0.0, "
        "bias_bound=0.0)"
    ),
    "green_twisted_short": (
        "SimEstimate(mean=0.2802621459226482, "
        "std_error=0.0017861826302650549, n_paths=68537, horizon=6, "
        "censored_fraction=0.1393699753417862, "
        "bias_bound=0.17236775771699525)"
    ),
    "martin_all_five": (
        "[SimEstimate(mean=2.2802736896462688, "
        "std_error=0.030140744988238977, n_paths=68537, horizon=150, "
        "censored_fraction=0.0, bias_bound=0.0), "
        "SimEstimate(mean=2.1597210692346005, std_error=0.03316321317444358, "
        "n_paths=68537, horizon=150, censored_fraction=0.0, "
        "bias_bound=0.0)]"
    ),
    "martin_diag_heavy": (
        "[SimEstimate(mean=1.3626171659621393, "
        "std_error=0.004029578924719434, n_paths=68537, horizon=150, "
        "censored_fraction=0.0, bias_bound=0.0), "
        "SimEstimate(mean=1.044114022837427, std_error=0.009637992531067742, "
        "n_paths=68537, horizon=150, censored_fraction=0.0, bias_bound=0.0)]"
    ),
    "green_fibonacci": (
        "SimEstimate(mean=0.2344437748399942, "
        "std_error=0.0015915817065046492, n_paths=131089, horizon=150, "
        "censored_fraction=0.0, "
        "bias_bound=0.0)"
    ),
    "martin_fibonacci_base_dies": (
        "[SimEstimate(mean=6.598395977974622, std_error=0.08908815165110893, "
        "n_paths=68537, horizon=150, "
        "censored_fraction=0.0, "
        "bias_bound=0.0), "
        "SimEstimate(mean=5.067710537452391, std_error=0.14076403829319437, "
        "n_paths=68537, horizon=150, censored_fraction=0.0, "
        "bias_bound=0.0)]"
    ),
    "martin_weak_drift_reentry": (
        "[SimEstimate(mean=29.715844937899885, std_error=0.9603179442923643, "
        "n_paths=68537, horizon=150, censored_fraction=0.0, "
        "bias_bound=0.0), SimEstimate(mean=30.07828282828283, "
        "std_error=1.1525877483696654, n_paths=68537, horizon=150, "
        "censored_fraction=0.0, "
        "bias_bound=0.0)]"
    ),
    "green_all_absorbed": (
        "SimEstimate(mean=0.4166666666666667, std_error=0.2599047999758855, "
        "n_paths=12, horizon=2000, censored_fraction=0.0, bias_bound=0.0)"
    ),
}

CLI = {
    "escape_mc_check": [
        "escape", "models/fibonacci.txt", "1", "1", "--mc-check", "70000", "300", "7",
    ],
    "simulate_green_twisted": [
        "simulate", "models/all_five.txt", "green", "2", "2", "3", "3",
        "--seed", "5", "--n-paths", "70000", "--horizon", "4", "--twist-u", "2", "1",
    ],
    "simulate_survival": [
        "simulate", "models/diag_heavy.txt", "survival", "2",
        "--seed", "6", "--n-paths", "70000", "--horizon", "100",
    ],
    "green_scan": [
        "green-scan", "models/fibonacci.txt", "1", "1", "--u", "1", "1",
        "--radii", "6,10", "--seed", "11", "--n-paths", "20000",
    ],
    "simulate_martin": [
        "simulate", "models/all_five.txt", "martin", "2", "3", "6", "6",
        "--seed", "4", "--n-paths", "20000", "--horizon", "90",
    ],
}

CLI_SHA256 = {
    "escape_mc_check": "431e605e844726df90d4f989ca6c08dcb0eca238cccca0497e3c26b4901c07e3",
    "simulate_green_twisted":
        "d0da033f455bb41e7cd99c3d013395606ee726a80276b469b95366d15c8a4569",
    "simulate_survival":
        "292f8f8422a2bd63d2e245562af35b64481724c20123bdcde5d7e9255b865883",
    "green_scan": "566b2163d0058e276fb1e2607bf924693a1b076a0f869d8bed1c91285f2937b0",
    "simulate_martin": "8ed53ce318802e8bce44bb50f245ff4ed9346dc33a1c93ffed62460f5725fc67",
}


@pytest.fixture(scope="module")
def models(fib, all_five, diag_heavy, big_jump):
    return {"fib": fib, "all_five": all_five,
            "diag_heavy": diag_heavy, "big_jump": big_jump,
            "weak_drift": parse_model_text(sf2_model_text(Fraction(1, 10)))}


def cli_digest(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    assert code == 0
    return hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", sorted(ESTIMATES))
def test_estimate_is_pinned(models, case):
    assert repr(ESTIMATES[case](models)) == EXPECTED[case]


@pytest.mark.parametrize("case", sorted(CLI))
def test_cli_output_is_pinned(monkeypatch, case):
    monkeypatch.chdir(ROOT)  # the manifest records the model path as given
    assert cli_digest(CLI[case]) == CLI_SHA256[case]


def test_short_green_case_pins_a_gamblers_ruin_bound(models):
    """The horizon-6 pin above reads a nonzero bias_bound: rows still
    open at its horizon are bounded by _visit_bounds."""
    est = ESTIMATES["green_twisted_short"](models)
    assert est.censored_fraction > 0.0
    assert est.bias_bound > 0.0


def test_all_absorbed_case_ends_before_its_horizon(models):
    """The pin above is meant to cover a batch with no row left: every
    path of it is absorbed within its first block of 64 steps."""
    cfg = SimConfig(seed=29, n_paths=12, horizon=_BLOCK)
    assert estimate_green(models["fib"], (1, 1), (2, 2), cfg).censored_fraction == 0.0
