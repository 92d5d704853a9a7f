import math
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from cornerwalk.compensation import build_sequence
from cornerwalk.curve import SolverError
from cornerwalk.model import (
    InvalidModelError,
    StepDistribution,
    kernel_eval,
    parse_model_text,
    validate_model,
)
from cornerwalk.uniformization import (
    alpha_of_s,
    beta_of_s,
    compute_params,
    denominator_sequence,
    sequence_at,
)

from conftest import FIB_TEXT
from oracles import RHO

S_STAR = (math.sqrt(5.0) - 1.0) / 2.0
FIB_DENOMS = [1.0, 1.0, 2.0, 5.0, 13.0, 34.0, 89.0, 233.0, 610.0, 1597.0]

ASYM_TEXT = """\
-1 1 3/10
1 -1 1/5
0 1 3/10
1 0 1/10
1 1 1/10
"""


def origin_parameter(params):
    # s in the fundamental window with alpha(s) = 1; the point (1,1) is
    # always on the curve, so this also forces beta(s) = 1
    k = 2.0 * (params.a - params.b_hat) / math.sqrt(params.disc_hat)
    return (k - math.sqrt(k * k - 4.0)) / 2.0


class TestFibonacciClosedForms:
    def test_coefficients(self, fib):
        params = compute_params(fib)
        assert params.a == pytest.approx(5.0 / 9.0, abs=1e-15)
        assert params.b == 0.0
        assert params.c == pytest.approx(-4.0 / 9.0, abs=1e-15)
        assert params.b_hat == 0.0
        assert params.c_hat == params.c
        assert params.p00 == 0.0

    def test_multiplier_is_golden_ratio_squared(self, fib):
        params = compute_params(fib)
        assert params.rho == pytest.approx(RHO, abs=1e-13)
        assert params.rho == pytest.approx(2.618033988749895, abs=1e-13)

    def test_denominators_are_odd_index_fibonacci(self, fib):
        params = compute_params(fib)
        got = denominator_sequence(params, S_STAR, 9)
        assert got == pytest.approx(FIB_DENOMS, abs=1e-9)

    def test_origin_parameter_is_golden_section(self, fib):
        params = compute_params(fib)
        assert origin_parameter(params) == pytest.approx(S_STAR, abs=1e-14)

    def test_endpoints(self, fib, fib_geom):
        # s = 1 sits at one branch maximum, s = 1/rho at the other
        params = compute_params(fib)
        assert alpha_of_s(params, 1.0) == pytest.approx(math.sqrt(5.0) / 2.0, abs=1e-14)
        assert beta_of_s(params, 1.0) == pytest.approx(math.sqrt(5.0) / 3.0, abs=1e-14)
        assert alpha_of_s(params, 1.0 / params.rho) == pytest.approx(
            math.exp(fib_geom.x0), abs=1e-13
        )
        assert beta_of_s(params, 1.0 / params.rho) == pytest.approx(
            math.exp(fib_geom.f_at_x0), abs=1e-13
        )


class TestParameterization:
    @pytest.mark.parametrize("text", [FIB_TEXT, ASYM_TEXT])
    def test_annihilates_kernel(self, text):
        dist = parse_model_text(text)
        params = compute_params(dist)
        for k in range(1, 201):
            s = 0.05 + 3.2 * k / 200.0
            resid = kernel_eval(dist, alpha_of_s(params, s), beta_of_s(params, s))
            assert abs(resid) <= 1e-12

    @pytest.mark.parametrize("text", [FIB_TEXT, ASYM_TEXT])
    def test_involutions(self, text):
        params = compute_params(parse_model_text(text))
        for s in [0.31, 0.5, 0.777, 1.0, 1.3, 2.0, 2.9]:
            assert alpha_of_s(params, s) == pytest.approx(
                alpha_of_s(params, 1.0 / s), abs=1e-12
            )
            assert beta_of_s(params, s) == pytest.approx(
                beta_of_s(params, 1.0 / (params.rho**2 * s)), abs=1e-12
            )

    @pytest.mark.parametrize("text", [FIB_TEXT, ASYM_TEXT])
    def test_double_roots_at_window_endpoints(self, text):
        # at the branch maxima one kernel partial vanishes: the two roots
        # in that variable have merged
        dist = parse_model_text(text)
        params = compute_params(dist)
        h = 1e-6

        def d_beta(al, be):
            return (kernel_eval(dist, al, be + h) - kernel_eval(dist, al, be - h)) / (2 * h)

        def d_alpha(al, be):
            return (kernel_eval(dist, al + h, be) - kernel_eval(dist, al - h, be)) / (2 * h)

        assert abs(d_beta(alpha_of_s(params, 1.0), beta_of_s(params, 1.0))) < 1e-9
        s_lo = 1.0 / params.rho
        assert abs(d_alpha(alpha_of_s(params, s_lo), beta_of_s(params, s_lo))) < 1e-9

    def test_asymmetric_coefficients(self):
        params = compute_params(parse_model_text(ASYM_TEXT))
        assert params.a == pytest.approx(0.76, abs=1e-12)
        assert params.b == pytest.approx(0.36, abs=1e-12)
        assert params.c == pytest.approx(-0.03, abs=1e-12)
        assert params.b_hat == pytest.approx(0.22, abs=1e-12)
        assert params.c_hat == pytest.approx(-0.07, abs=1e-12)

    def test_symmetric_model_has_equal_pairs(self, all_five):
        params = compute_params(all_five)
        assert params.a == pytest.approx(0.84, abs=1e-12)
        assert params.b == params.b_hat == pytest.approx(0.28, abs=1e-12)
        assert params.c == params.c_hat == pytest.approx(-0.12, abs=1e-12)
        assert params.disc == params.disc_hat

    def test_stay_put_mass_only_rescales_time(self, fib):
        lazy = parse_model_text("1 1 1/4\n1 -1 1/4\n-1 1 1/4\n0 0 1/4\n")
        plain = compute_params(fib)
        params = compute_params(lazy)
        assert params.p00 == 0.25
        assert params.a == pytest.approx(plain.a, abs=1e-15)
        assert params.rho == pytest.approx(plain.rho, abs=1e-14)
        for s in [0.5, 0.9, 1.7]:
            assert alpha_of_s(params, s) == pytest.approx(
                alpha_of_s(plain, s), abs=1e-14
            )


class TestSequenceAt:
    def test_window_enforced(self, fib):
        params = compute_params(fib)
        for s in [0.0, 1.0 / params.rho - 1e-6, 1.0 + 1e-6, 2.0, -0.5]:
            with pytest.raises(ValueError, match="window"):
                sequence_at(params, s, 0)

    def test_pole_at_zero(self, fib):
        params = compute_params(fib)
        with pytest.raises(ZeroDivisionError):
            alpha_of_s(params, 0.0)

    # at s = 1, the last n on each side whose pair is in the float range:
    # one step further a coordinate rounds to 0 (or rho^(2n) overflows)
    @pytest.mark.parametrize("name, lo, hi", [
        ("fib", -368, 368), ("all_five", -226, 226), ("diag_heavy", -143, 142),
    ])
    def test_range_limits(self, fib, all_five, diag_heavy, name, lo, hi):
        params = compute_params({"fib": fib, "all_five": all_five,
                                 "diag_heavy": diag_heavy}[name])
        for n in (lo, hi):
            assert min(sequence_at(params, 1.0, n)) > 0.0
        for n in (lo - 1, hi + 1, -1000):
            with pytest.raises(OverflowError):
                sequence_at(params, 1.0, n)

    def test_zero_coordinate_raises_naming_s(self, diag_heavy):
        # the parameters of diag_heavy's pairs n = 143 and n = -144 at s = 1
        params = compute_params(diag_heavy)
        up, down = params.rho ** 286, params.rho ** -288
        assert alpha_of_s(params, up) > 0.0
        with pytest.raises(OverflowError, match=re.escape(repr(up))):
            beta_of_s(params, up)
        with pytest.raises(OverflowError, match=re.escape(repr(down))):
            alpha_of_s(params, down)

    def test_matches_switching_chain_fibonacci(self, fib, fib_geom):
        params = compute_params(fib)
        seq = build_sequence(fib_geom, (0.0, 0.0), imin=2)
        for n in range(-6, 7):
            al, be = sequence_at(params, S_STAR, n)
            assert al == pytest.approx(math.exp(seq.a(n)), abs=1e-11)
            assert be == pytest.approx(math.exp(seq.b(n)), abs=1e-11)

    def test_matches_switching_chain_all_five(self, all_five, all_five_geom):
        params = compute_params(all_five)
        s0 = origin_parameter(params)
        seq = build_sequence(all_five_geom, (0.0, 0.0), imin=2)
        for n in range(-6, 7):
            al, be = sequence_at(params, s0, n)
            assert al == pytest.approx(math.exp(seq.a(n)), abs=1e-11)
            assert be == pytest.approx(math.exp(seq.b(n)), abs=1e-11)


class TestRejections:
    def test_wide_support_rejected(self, big_jump):
        with pytest.raises(InvalidModelError, match="small-step"):
            compute_params(big_jump)

    def test_invalid_model_rejected(self):
        dist = StepDistribution.from_pairs(
            [((1, 1), Fraction(1, 2)), ((1, -1), Fraction(1, 4)),
             ((-1, 1), Fraction(1, 8))]
        )
        with pytest.raises(InvalidModelError, match="norm"):
            compute_params(dist)

    def test_degenerate_corner_mass_rejected(self):
        # p(-1,1) = p(1,-1) = 1/2 drives the leading constant to zero
        dist = parse_model_text("-1 1 1/2\n1 -1 499/1000\n1 1 1/1000\n")
        params = compute_params(dist)
        assert params.a == pytest.approx(0.002, abs=1e-6)
        hard = parse_model_text("-1 1 1/2\n1 -1 1/2\n")
        with pytest.raises((SolverError, InvalidModelError)):
            compute_params(hard)

    def test_negative_count_rejected(self, fib):
        params = compute_params(fib)
        with pytest.raises(ValueError):
            denominator_sequence(params, S_STAR, -1)
        assert len(denominator_sequence(params, S_STAR, 0)) == 1


@st.composite
def small_step_models(draw):
    # the two corner jumps plus any subset of the other small steps, with
    # small integer weights; laws that validation refuses are discarded
    w = {
        (-1, 1): draw(st.integers(1, 8)),
        (1, -1): draw(st.integers(1, 8)),
        (1, 1): draw(st.integers(0, 8)),
        (1, 0): draw(st.integers(0, 8)),
        (0, 1): draw(st.integers(0, 8)),
        (0, 0): draw(st.integers(0, 4)),
    }
    total = sum(w.values())
    dist = StepDistribution.from_pairs(
        [(s, Fraction(k, total)) for s, k in w.items() if k]
    )
    assume(validate_model(dist).passed)
    return dist


@settings(deadline=None, max_examples=100)
@given(small_step_models())
def test_property_parameterization_stays_on_curve(dist):
    params = compute_params(dist)
    for s in (0.45, 0.8, 1.0, 1.9):
        al, be = alpha_of_s(params, s), beta_of_s(params, s)
        assert abs(kernel_eval(dist, al, be)) <= 1e-10
        assert alpha_of_s(params, 1.0 / s) == pytest.approx(al, abs=1e-11)
