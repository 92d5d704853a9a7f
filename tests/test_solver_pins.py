"""The scalar root solvers, pinned to exact values.

Every term of the compensation chain, every twist point and every exit
root comes out of the section solvers in ``curve`` and the exit-root
solver in ``montecarlo``.  A rewrite of those solvers may restructure
their brackets and loops but must return these values bit for bit: each
pin is the ``repr`` of a float (or a tuple or dataclass of floats).
The pins were re-taken with tool_version 0.4.0, when the curve solves
moved from bisection to safeguarded Newton, and with 0.5.0, when
``montecarlo._exit_root`` moved onto the same solver and began rounding
its roots up to the least float at or above the exact root of the float
law, which moved every exit root by an ulp or two.  With 0.7.0 ``f_hat``
and ``g_hat`` take the lower root of a small-step section in closed form:
the chain digests of fib, all_five, diag_heavy and lopsided moved, with
the lopsided ``g_hat`` (by one ulp) and the fib ``escape_probability``
(by one ulp, toward the exact value), while every big_jump pin, branch
maximum, twist point and exit root kept its bits.

Besides the four shared models the cases use one asymmetric law, so that
a swap of the x and y sections cannot hide behind a symmetric model.

The series outputs are pinned too: the harmonic values of one chain
built for degree 2 at four points from degree 2 to 48, and the bytes
of two CLI runs that print them, ``harmonic-table --bounds`` and a small
``compare``.  The CLI digests also cover the tail-bound column and the
``tool_version`` line of the manifest.  With 0.8.0 each harmonic value
sums the range of its own degree: every value kept its bits, and the
two digests moved through the tail-bound column and the version line.
With 0.9.0 (a change to the Monte Carlo stream of direction scans) both
digests moved only through the version line.  With 0.10.0 (shorter
survival blocks) the ``compare`` digest moved through its Monte Carlo
columns and the version line, and the ``harmonic-table`` digest only
through the version line.

Two digests pin the section solvers on whole grids rather than at single
points: every upper and lower root of ``_section_extreme_root`` on both
axes at 426 fixed coordinates from -8 to 0.5 (the name of the exception
class where a section has no root), and both exit roots of each law
twisted toward 0, 3, ..., 90 degrees.
"""

import contextlib
import hashlib
import io
import math
from pathlib import Path

import pytest

from cornerwalk.cli import main
from cornerwalk.compensation import (
    boundary_harmonic,
    build_sequence,
    canonicalize_start,
    escape_probability,
    harmonic_eval,
)
from cornerwalk.curve import (
    _section_extreme_root,
    cramer_transform,
    f_branch,
    f_hat,
    f_tilde,
    find_extrema,
    g_hat,
    g_tilde,
)
from cornerwalk.montecarlo import _exit_root, _twisted_probs

from conftest import outcome

ROOT = Path(__file__).resolve().parent.parent
DIRECTIONS = ((1, 3), (1, 1), (3, 1))
TWISTS = ((2, 1), (1, 3))


def solver_outputs(dist) -> dict[str, str]:
    """repr of every pinned solver output of one model, by name."""
    geom = find_extrema(dist)
    out = {
        "find_extrema": (geom.x0, geom.f_at_x0, geom.y0, geom.g_at_y0,
                         geom.c1, geom.c2),
        "f_hat": f_hat(geom, -0.75),
        "g_hat": g_hat(geom, -0.75),
        "f_tilde": f_tilde(geom, 0.5 * geom.f_at_x0),
        "g_tilde": g_tilde(geom, 0.5 * geom.g_at_y0),
        "escape_probability": escape_probability(geom, 3, 2),
        "boundary_harmonic": boundary_harmonic(geom, 2, 3),
        # a start below-left of G0 climbs back by switching, then snaps
        "canonicalize_start": canonicalize_start(
            geom, (f_hat(geom, -0.75), -0.75)
        ),
    }
    for u in DIRECTIONS:
        out[f"cramer_phi{u}"] = cramer_transform(geom, u).phi
    for u in (None,) + TWISTS:
        twist = None if u is None else cramer_transform(geom, u)
        steps, probs = _twisted_probs(dist, twist)
        key = "exit_root" if u is None else f"exit_root_twist{u}"
        out[key] = (_exit_root(steps, probs, 0), _exit_root(steps, probs, 1))
    x = 0.5 * geom.x0
    seq = build_sequence(geom, (x, f_branch(geom, x)), imin=2)
    out["build_sequence_sha256"] = hashlib.sha256(
        repr((seq.n_min, seq.a_vals, seq.b_vals)).encode()
    ).hexdigest()
    return {k: (v if isinstance(v, str) else repr(v)) for k, v in out.items()}


PINS = {
    "fib": {
        "find_extrema": (
            "(-0.2938933324510595, 0.11157177565710488, -0.2938933324510595, "
            "0.11157177565710488, 0.4054651081081644, 0.4054651081081644)"
        ),
        "f_hat": "-1.6716148789697147",
        "g_hat": "-1.6716148789697147",
        "f_tilde": "-0.07236871975714017",
        "g_tilde": "-0.07236871975714017",
        "escape_probability": (
            "HarmonicValue(value=0.6319349959640215, "
            "tail_bound=1.0399617086789196e-17, terms_used=20)"
        ),
        "boundary_harmonic": "2.6373357621839095",
        "canonicalize_start": "(-0.029798399013037654, 0.02661051382339201)",
        "cramer_phi(1, 3)": "(-0.14535861369398662, 0.08873486045816412)",
        "cramer_phi(1, 1)": "(-0.0, 0.0)",
        "cramer_phi(3, 1)": "(0.08873486045816412, -0.14535861369398662)",
        "exit_root": "(0.49999999999999994, 0.49999999999999994)",
        "exit_root_twist(2, 1)": "(0.3958559285282292, 0.6441874542459707)",
        "exit_root_twist(1, 3)": "(0.7278743260255158, 0.3582575694955841)",
        "build_sequence_sha256": (
            "4b76e8768fbc6c7bc04faf3c8d56d105549d990f3e71601f7b6d53c1b8e31ab5"
        ),
    },
    "all_five": {
        "find_extrema": (
            "(-0.46575393082459243, 0.17758961330375106, "
            "-0.46575393082459243, 0.17758961330375106, 0.6433435441283435, "
            "0.6433435441283435)"
        ),
        "f_hat": "-2.1648022229142962",
        "g_hat": "-2.1648022229142962",
        "f_tilde": "-0.11502335350692436",
        "g_tilde": "-0.11502335350692436",
        "escape_probability": (
            "HarmonicValue(value=0.8521214316025675, "
            "tail_bound=2.0276129222709584e-19, terms_used=14)"
        ),
        "boundary_harmonic": "2.042607794566717",
        "canonicalize_start": "(0.13682647905898648, -0.21801659503325607)",
        "cramer_phi(1, 3)": "(-0.23164806130309445, 0.14154090603660158)",
        "cramer_phi(1, 1)": "(-0.0, 0.0)",
        "cramer_phi(3, 1)": "(0.14154090603660158, -0.23164806130309445)",
        "exit_root": "(0.3333333333333334, 0.3333333333333334)",
        "exit_root_twist(2, 1)": "(0.2294475036022527, 0.4994684841091222)",
        "exit_root_twist(1, 3)": "(0.6062625801743646, 0.195704437032327)",
        "build_sequence_sha256": (
            "99ac1a4174000ee07d3e613e7e00d6664818f4e67fcca0721e68139c36c73706"
        ),
    },
    "diag_heavy": {
        "find_extrema": (
            "(-1.165377984980371, 0.626381484247684, -1.165377984980371, "
            "0.626381484247684, 1.791759469228055, 1.791759469228055)"
        ),
        "f_hat": "-3.211671715958465",
        "g_hat": "-3.211671715958465",
        "f_tilde": "-0.36163999833714366",
        "g_tilde": "-0.36163999833714366",
        "escape_probability": (
            "HarmonicValue(value=0.9909842698455593, "
            "tail_bound=1.2566812932147927e-25, terms_used=7)"
        ),
        "boundary_harmonic": "0.636389770107255",
        "canonicalize_start": "(0.5387866872997924, -0.75)",
        "cramer_phi(1, 3)": "(-0.8356694344197646, 0.570835803853475)",
        "cramer_phi(1, 1)": "(-0.0, 0.0)",
        "cramer_phi(3, 1)": "(0.5708358038534749, -0.8356694344197644)",
        "exit_root": "(0.09090909090909091, 0.09090909090909091)",
        "exit_root_twist(2, 1)": "(0.027100455533947656, 0.357206965043092)",
        "exit_root_twist(1, 3)": "(0.5154702995846021, 0.020842020985195713)",
        "build_sequence_sha256": (
            "d8dd6ce7b04bf4b2f28d24a041f9806e2aa21c85c586479a933d6294f1877d69"
        ),
    },
    "big_jump": {
        "find_extrema": (
            "(-0.5217915813985688, 0.19751849482325712, -0.5217915813985688, "
            "0.19751849482325712, 0.719310076221826, 0.719310076221826)"
        ),
        "f_hat": "-2.5104175128645903",
        "g_hat": "-2.5104175128645903",
        "f_tilde": "-0.12798868388240828",
        "g_tilde": "-0.12798868388240828",
        "escape_probability": (
            "HarmonicValue(value=0.8990722106982691, "
            "tail_bound=4.4617667885741727e-20, terms_used=13)"
        ),
        "boundary_harmonic": "1.8295620550584106",
        "canonicalize_start": "(0.17462891515303947, -0.31850338226310126)",
        "cramer_phi(1, 3)": "(-0.2570447071943545, 0.15708366071913193)",
        "cramer_phi(1, 1)": "(-0.0, 0.0)",
        "cramer_phi(3, 1)": "(0.15708366071913193, -0.2570447071943546)",
        "exit_root": "(0.28077640640441515, 0.28077640640441515)",
        "exit_root_twist(2, 1)": "(0.17895014794751618, 0.4509905055570635)",
        "exit_root_twist(1, 3)": "(0.5634053035428803, 0.1470930757957192)",
        "build_sequence_sha256": (
            "0aab4316e5678d3732cf2605858106da9387dc16563f7c4280c6f5d702c3d913"
        ),
    },
    "lopsided": {
        "find_extrema": (
            "(-0.31819584692348296, 0.1889782593882964, -0.3016290316110718, "
            "0.06022832009246371, 0.5071741063117794, 0.3618573517035355)"
        ),
        "f_hat": "-1.9108066890956745",
        "g_hat": "-1.954604210231145",
        "f_tilde": "-0.0668756216767839",
        "g_tilde": "-0.07623254870061279",
        "escape_probability": (
            "HarmonicValue(value=0.680962159503199, "
            "tail_bound=5.911057726197892e-18, terms_used=19)"
        ),
        "boundary_harmonic": "2.423540910466134",
        "canonicalize_start": "(-0.017203400694216914, 0.031010724230490398)",
        "cramer_phi(1, 3)": "(-0.18880321557703256, 0.16951400835560929)",
        "cramer_phi(1, 1)": "(-0.06705303439985941, 0.09466668287559352)",
        "cramer_phi(3, 1)": "(0.025858060974171808, -0.06289644562213717)",
        "exit_root": "(0.4142135623730951, 0.5)",
        "exit_root_twist(2, 1)": "(0.4142135623730951, 0.5)",
        "exit_root_twist(1, 3)": "(0.7529246566985189, 0.26718091922571807)",
        "build_sequence_sha256": (
            "e8fd62c1219deb8fcbcb6c35c5488190461f29de2279971379ebff17ba9fab9c"
        ),
    },
}



@pytest.fixture(scope="module")
def models(fib, all_five, diag_heavy, big_jump, lopsided):
    return {"fib": fib, "all_five": all_five, "diag_heavy": diag_heavy,
            "big_jump": big_jump, "lopsided": lopsided}


@pytest.mark.parametrize("name", sorted(PINS))
def test_solver_outputs_are_pinned(models, name):
    assert solver_outputs(models[name]) == PINS[name]


# (1, 1), (7, 5), (20, 20) and (24, 1) on the chain from (0, 0) built
# for degree 2 at the default tolerance
HARMONIC_POINTS = ((1, 1), (7, 5), (20, 20), (24, 1))
HARMONIC_PINS = {
    "fib": (
        "(0.17317888355122066, 0.9609403999604266, 0.9999980926513672, "
        "0.4999999523162842)"
    ),
    "all_five": (
        "(0.3822012585537467, 0.9954275275888068, 0.9999999994264056, "
        "0.6666666666633984)"
    ),
    "diag_heavy": (
        "(0.8195600312502623, 0.9999937394709576, 1.0, 0.9090909090909091)"
    ),
    "big_jump": (
        "(0.4611009960272348, 0.9981173992063691, 0.9999999999814544, "
        "0.7192235935955297)"
    ),
    "lopsided": (
        "(0.20501380353931684, 0.9666580918159279, 0.9999990242208987, "
        "0.4999999994282395)"
    ),
}


@pytest.mark.parametrize("name", sorted(HARMONIC_PINS))
def test_harmonic_values_are_pinned(models, name):
    seq = build_sequence(find_extrema(models[name]), (0.0, 0.0), imin=2)
    got = tuple(harmonic_eval(seq, i, j).value for i, j in HARMONIC_POINTS)
    assert repr(got) == HARMONIC_PINS[name]


SERIES_CLI = {
    "harmonic_table": [
        "harmonic-table", "models/fibonacci.txt", "--imax", "10", "--jmax",
        "10", "--bounds",
    ],
    "compare": [
        "compare", "models/fibonacci.txt", "3", "3", "--seed", "31",
        "--n-paths", "2000", "--horizon", "100",
    ],
}

SERIES_CLI_SHA256 = {
    "harmonic_table":
        "702a216b26439c6820384421a26433a1744272401f6a3789aa2cc295463a643a",
    "compare": "836b5eb6ab47ec573a9fd3ac7e31af746dc25caf19f65d0ceb466ae49627d0e6",
}


@pytest.mark.parametrize("case", sorted(SERIES_CLI))
def test_series_cli_output_is_pinned(monkeypatch, case):
    monkeypatch.chdir(ROOT)  # the manifest records the model path as given
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(SERIES_CLI[case]) == 0
    digest = hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()
    assert digest == SERIES_CLI_SHA256[case]


# -8, -7.98, ..., 0.5: past the lower branch ends, through both maxima,
# and onto the stretches where a section has no root
SECTION_FIXED = tuple(-8.0 + k / 50 for k in range(426))
# the twist directions at 0, 3, ..., 90 degrees
EXIT_TWIST_DEGREES = tuple(range(0, 91, 3))


def section_root_digest(dist) -> str:
    rows = [
        outcome(_section_extreme_root, dist, fixed, axis, side)
        for axis in ("x", "y")
        for side in (+1, -1)
        for fixed in SECTION_FIXED
    ]
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


def exit_root_digest(dist) -> str:
    geom = find_extrema(dist)
    rows = []
    for degrees in EXIT_TWIST_DEGREES:
        a = math.radians(degrees)
        twist = cramer_transform(geom, (math.cos(a), math.sin(a)))
        steps, probs = _twisted_probs(dist, twist)
        rows += [outcome(_exit_root, steps, probs, axis) for axis in (0, 1)]
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()


SECTION_ROOT_SHA256 = {
    "fib": (
        "f73bd302550c464220e5ca0cc94dc5f27d38e9d748fdf01d0888d5ec49ff10de"
    ),
    "all_five": (
        "22e6a72647a55742c7b5057970b1c2b3533a5daa937bd298e5b1cc3c82b438d0"
    ),
    "diag_heavy": (
        "0f3951e3d8ba76e91bd32286a15d2803e805f9ce1c84a6fadad41a4cf4afaf00"
    ),
    "big_jump": (
        "53a6a5b5ed7b8807dbdd6a6aceb8180baab77f804d762189fcfbbf1e0aa791b0"
    ),
    "lopsided": (
        "26269bd14f74a9ac8b1afc5750051b274b2c898f58fd37c95609bef03a406b7e"
    ),
}

EXIT_ROOT_SHA256 = {
    "fib": (
        "4bb8a23f480057e74fe7e38fb9305b6a6f5caa9e777b28b05f62edeadaad12f5"
    ),
    "all_five": (
        "fd1149546696ab76abccedeb8e7b4bff5e25185c25267bf0650080a09bd43e76"
    ),
    "diag_heavy": (
        "6a43ddf54d38326a89493310d2a9b2b0ba0fba5dda521aa4f63cff3e5d842e45"
    ),
    "big_jump": (
        "72e7f78229c78a5d62c5f83118e2813819575f70dc49b16640afa098ab008ad3"
    ),
    "lopsided": (
        "ca0194d278f15ebbe4300f0844b9d995bf8bcb567702ca75c05c2ad1d9f53fda"
    ),
}


@pytest.mark.parametrize("name", sorted(SECTION_ROOT_SHA256))
def test_section_roots_are_pinned(models, name):
    assert section_root_digest(models[name]) == SECTION_ROOT_SHA256[name]


@pytest.mark.parametrize("name", sorted(EXIT_ROOT_SHA256))
def test_exit_roots_are_pinned(models, name):
    assert exit_root_digest(models[name]) == EXIT_ROOT_SHA256[name]
