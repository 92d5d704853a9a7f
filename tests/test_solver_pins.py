"""The scalar root solvers, pinned to exact values.

Every term of the compensation chain, every twist point and every exit
root comes out of the section solvers in ``curve`` and the exit-root
solver in ``montecarlo``.  A rewrite of those solvers may restructure
their brackets and loops but must return these values bit for bit: each
pin is the ``repr`` of a float (or a tuple or dataclass of floats).

Besides the four shared models the cases use one asymmetric law, so that
a swap of the x and y sections cannot hide behind a symmetric model.
"""

import hashlib

import pytest

from cornerwalk.compensation import (
    boundary_harmonic,
    build_sequence,
    canonicalize_start,
    escape_probability,
)
from cornerwalk.curve import (
    cramer_transform,
    f_branch,
    f_hat,
    f_tilde,
    find_extrema,
    g_hat,
    g_tilde,
)
from cornerwalk.model import parse_model_text
from cornerwalk.montecarlo import _exit_root, _twisted_probs

LOPSIDED_TEXT = "2 0 1/4\n1 -1 1/4\n-1 1 1/4\n0 1 1/4\n"

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
            "(-0.2938933324510595, 0.11157177565710494, -0.2938933324510595, "
            "0.11157177565710494, 0.4054651081081644, 0.4054651081081644)"
        ),
        "f_hat": "-1.6716148789697147",
        "g_hat": "-1.6716148789697147",
        "f_tilde": "-0.07236871975714021",
        "g_tilde": "-0.07236871975714021",
        "escape_probability": (
            "HarmonicValue(value=0.631934995964022, "
            "tail_bound=1.0399617086789196e-17, terms_used=20)"
        ),
        "boundary_harmonic": "2.6373357621839104",
        "canonicalize_start": "(-0.029798399013037855, 0.026610513823392228)",
        "cramer_phi(1, 3)": "(-0.14535861369398656, 0.08873486045816449)",
        "cramer_phi(1, 1)": "(3.330669073875469e-16, -1.3051485778839277e-16)",
        "cramer_phi(3, 1)": "(0.08873486045816449, -0.14535861369398656)",
        "exit_root": "(0.4999999999999999, 0.4999999999999999)",
        "exit_root_twist(2, 1)": "(0.3958559285282292, 0.6441874542459715)",
        "exit_root_twist(1, 3)": "(0.7278743260255156, 0.35825756949558374)",
        "build_sequence_sha256": (
            "98ee7f37295e8a6b60eaf3235f6794cfe89d754a07d0dd1affba0fe3751c8a2e"
        ),
    },
    "all_five": {
        "find_extrema": (
            "(-0.46575393082459243, 0.17758961330375084, "
            "-0.46575393082459243, 0.17758961330375084, 0.6433435441283433, "
            "0.6433435441283433)"
        ),
        "f_hat": "-2.1648022229142962",
        "g_hat": "-2.1648022229142962",
        "f_tilde": "-0.11502335350692436",
        "g_tilde": "-0.11502335350692436",
        "escape_probability": (
            "HarmonicValue(value=0.8521214316025674, "
            "tail_bound=2.0276129222709935e-19, terms_used=14)"
        ),
        "boundary_harmonic": "2.042607794566716",
        "canonicalize_start": "(0.13682647905898632, -0.21801659503325577)",
        "cramer_phi(1, 3)": "(-0.23164806130309423, 0.14154090603660147)",
        "cramer_phi(1, 1)": "(0.0, -2.0683629512445398e-16)",
        "cramer_phi(3, 1)": "(0.14154090603660147, -0.23164806130309465)",
        "exit_root": "(0.33333333333333337, 0.33333333333333337)",
        "exit_root_twist(2, 1)": "(0.2294475036022528, 0.49946848410912215)",
        "exit_root_twist(1, 3)": "(0.6062625801743645, 0.1957044370323272)",
        "build_sequence_sha256": (
            "1a88ef47e8e93a209d47ae82f836b71a23e3675a64c24e5d357b7d05e81e0cce"
        ),
    },
    "diag_heavy": {
        "find_extrema": (
            "(-1.165377984980371, 0.626381484247684, -1.165377984980371, "
            "0.626381484247684, 1.791759469228055, 1.791759469228055)"
        ),
        "f_hat": "-3.211671715958465",
        "g_hat": "-3.211671715958465",
        "f_tilde": "-0.3616399983371437",
        "g_tilde": "-0.3616399983371437",
        "escape_probability": (
            "HarmonicValue(value=0.9909842698455593, "
            "tail_bound=1.2566812932147927e-25, terms_used=7)"
        ),
        "boundary_harmonic": "0.636389770107255",
        "canonicalize_start": "(0.5387866872997924, -0.75)",
        "cramer_phi(1, 3)": "(-0.8356694344197644, 0.570835803853475)",
        "cramer_phi(1, 1)": "(5.329070518200753e-16, -5.175317885265911e-16)",
        "cramer_phi(3, 1)": "(0.570835803853475, -0.8356694344197644)",
        "exit_root": "(0.0909090909090909, 0.0909090909090909)",
        "exit_root_twist(2, 1)": "(0.027100455533947646, 0.35720696504309213)",
        "exit_root_twist(1, 3)": "(0.5154702995846021, 0.020842020985195713)",
        "build_sequence_sha256": (
            "36cae496752185f9dc4a47f60c68f7677d421d44e54a01f795d1da213bb70545"
        ),
    },
    "big_jump": {
        "find_extrema": (
            "(-0.5217915813985687, 0.1975184948232572, -0.5217915813985687, "
            "0.1975184948232572, 0.719310076221826, 0.719310076221826)"
        ),
        "f_hat": "-2.5104175128645903",
        "g_hat": "-2.5104175128645903",
        "f_tilde": "-0.12798868388240828",
        "g_tilde": "-0.12798868388240828",
        "escape_probability": (
            "HarmonicValue(value=0.8990722106982691, "
            "tail_bound=4.4617667885741727e-20, terms_used=13)"
        ),
        "boundary_harmonic": "1.8295620550584117",
        "canonicalize_start": "(0.17462891515303952, -0.31850338226310115)",
        "cramer_phi(1, 3)": "(-0.25704470719435457, 0.15708366071913202)",
        "cramer_phi(1, 1)": "(2.498001805406602e-16, -2.31722011089705e-16)",
        "cramer_phi(3, 1)": "(0.15708366071913202, -0.25704470719435457)",
        "exit_root": "(0.2807764064044151, 0.2807764064044151)",
        "exit_root_twist(2, 1)": "(0.17895014794751615, 0.45099050555706316)",
        "exit_root_twist(1, 3)": "(0.5634053035428805, 0.14709307579571915)",
        "build_sequence_sha256": (
            "8785f27d6296fb4585a3416aaa1888bbf2e34c4073430c675e433a26321972e7"
        ),
    },
    "lopsided": {
        "find_extrema": (
            "(-0.31819584692348296, 0.18897825938829635, "
            "-0.30162903161107185, 0.06022832009246376, 0.5071741063117793, "
            "0.3618573517035356)"
        ),
        "f_hat": "-1.9108066890956747",
        "g_hat": "-1.9546042102311447",
        "f_tilde": "-0.06687562167678357",
        "g_tilde": "-0.07623254870061233",
        "escape_probability": (
            "HarmonicValue(value=0.6809621595031992, "
            "tail_bound=5.9110577261978905e-18, terms_used=19)"
        ),
        "boundary_harmonic": "2.423540910466134",
        "canonicalize_start": "(-0.017203400694216872, 0.031010724230490515)",
        "cramer_phi(1, 3)": "(-0.1888032155770324, 0.16951400835560934)",
        "cramer_phi(1, 1)": "(-0.06705303439985927, 0.09466668287559343)",
        "cramer_phi(3, 1)": "(0.025858060974171752, -0.06289644562213692)",
        "exit_root": "(0.41421356237309503, 0.5)",
        "exit_root_twist(2, 1)": "(0.4142135623730949, 0.5)",
        "exit_root_twist(1, 3)": "(0.7529246566985188, 0.26718091922571807)",
        "build_sequence_sha256": (
            "bd3c68cb3c870d273d8b0b5f3d4f12b81efa0a054e0c885964b8c9515e372de4"
        ),
    },
}



@pytest.fixture(scope="module")
def models(fib, all_five, diag_heavy, big_jump):
    return {"fib": fib, "all_five": all_five, "diag_heavy": diag_heavy,
            "big_jump": big_jump, "lopsided": parse_model_text(LOPSIDED_TEXT)}


@pytest.mark.parametrize("name", sorted(PINS))
def test_solver_outputs_are_pinned(models, name):
    assert solver_outputs(models[name]) == PINS[name]
