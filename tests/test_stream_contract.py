"""The random-stream contract, pinned to exact values.

Every Monte Carlo estimate is a function of the seed and the code alone:
each 65536-path batch owns a Philox substream, every block consumes
the rows * blk uniforms of one ``rng.random((rows, blk))`` draw in the
same row-major order (drawn in row shards from Philox copies jumped
ahead to them, which moves no bit), and every uniform picks its step by
the same Walker alias decision.  Visit runs draw blocks of
64 steps; escape and survival runs draw 8, then 16, then 32 for good;
the block that reaches a target's horizon is cut there.  One engine
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
through the version line.  With 0.9.0 each target of a walk stops at
its own horizon, where the block that reaches it is cut, and the points
of a direction scan that share a twist share one walk.  Every estimate
pin kept its bits; the ``green-scan`` digest moved, through the value
and standard error of its (7, 7) row (its (4, 4) row, which stops
inside the first block, kept its bits), and the other four digests
moved only through the version line.  With 0.10.0 escape and survival
runs draw blocks of 8 and 16 steps, then 32 for good: a row absorbed
or retired mid-block draws to a nearer block end, so the rows left get
other draws and rows retire at other block ends.  The five escape and
survival pins moved, and so did the ``escape --mc-check`` and
``simulate survival`` digests and, in tests/test_solver_pins.py, the
``compare`` digest, whose Monte Carlo column is an escape run; every
visit pin kept its bits, and the other three digests here moved only
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
bias_bound is the gambler's-ruin term of _Law.visit_bounds and not 0.
One direction scan walks three diagonal points of one twist at once,
each to its own horizon (60, 120 and 200 steps).
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
    green_direction_scan,
    martin_kernel_profile,
)

from oracles import sf2_model_text

ROOT = Path(__file__).resolve().parent.parent

N_PATHS = BATCH_SIZE + 3001  # one full batch and a partial one
# visit runs: two blocks of 64 and a partial 22; escape and survival:
# blocks of 8, 16, 32, 32 and 32 and a partial 30
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
    "scan_fibonacci_diagonal": lambda m: green_direction_scan(
        m["fib"], (1, 1), (1.0, 1.0), [6, 10, 15], SimConfig(seed=30, n_paths=N_PATHS)
    ),
}

EXPECTED = {
    "escape_fibonacci": (
        "SimEstimate(mean=0.175525628492639, "
        "std_error=0.0014531026782702607, n_paths=68537, horizon=150, "
        "censored_fraction=0.001750879087208369, "
        "bias_bound=6.904326166186093e-08)"
    ),
    "escape_diag_heavy": (
        "SimEstimate(mean=0.8187694238148737, "
        "std_error=0.0014714109995557628, n_paths=68537, horizon=150, "
        "censored_fraction=0.0, bias_bound=1.6958188310707176e-08)"
    ),
    "escape_big_jump": (
        "SimEstimate(mean=0.4623925762726702, "
        "std_error=0.0019044760246893526, n_paths=68537, horizon=150, "
        "censored_fraction=0.0, bias_bound=1.4841789712174214e-09)"
    ),
    "survival_diag_heavy": (
        "SimEstimate(mean=0.9916103710404599, "
        "std_error=0.0003484009751677069, n_paths=68537, horizon=150, "
        "censored_fraction=0.0, bias_bound=1.7047288239044342e-09)"
    ),
    "escape_twisted": (
        "SimEstimate(mean=0.45436771378963187, "
        "std_error=0.0019019154962181116, n_paths=68537, horizon=150, "
        "censored_fraction=0.012956505245341933, "
        "bias_bound=1.2425465133491707e-05)"
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
    "scan_fibonacci_diagonal": (
        "[ScanPoint(radius=6.0, y=(4, 4), norm=5.656854249492381, "
        "value=0.3810695924783658, std_error=0.00449447555417243, horizon=60), "
        "ScanPoint(radius=10.0, y=(7, 7), norm=9.899494936611665, "
        "value=0.2783816604757731, std_error=0.0045053745839349554, horizon=120), "
        "ScanPoint(radius=15.0, y=(11, 11), norm=15.556349186104045, "
        "value=0.2369818542124901, std_error=0.0047303703812297555, horizon=200)]"
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
    "escape_mc_check": "8ba2420fd728d0d9c299d69d5543ae0ebdb42cb94651fa620907b10ba34ab8fd",
    "simulate_green_twisted":
        "5c5f7595c49c49026c8ebbbdd735c9bbdf548a789f3de7c87d879eda6600179a",
    "simulate_survival":
        "f855adb67f930fd9f71ecfb926e9c89cf617d47536945efcafd2e9d3d14ed509",
    "green_scan": "4db7c568ccaec436696153a98c8a72a75609ce1c11ddd64856564b75ff139722",
    "simulate_martin": "df6bc18109e934b6e988e4f4fc504f2e21fda0ec298eda831ae9fefc00262619",
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
    open at its horizon are bounded by _Law.visit_bounds."""
    est = ESTIMATES["green_twisted_short"](models)
    assert est.censored_fraction > 0.0
    assert est.bias_bound > 0.0


def test_all_absorbed_case_ends_before_its_horizon(models):
    """The pin above is meant to cover a batch with no row left: every
    path of it is absorbed within its first block of 64 steps."""
    cfg = SimConfig(seed=29, n_paths=12, horizon=_BLOCK)
    assert estimate_green(models["fib"], (1, 1), (2, 2), cfg).censored_fraction == 0.0
