import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from cornerwalk import curve
from cornerwalk.compensation import build_sequence
from cornerwalk.curve import (
    _Section,
    _section_extreme_root,
    _slope,
    _small_step_lower_root,
    cramer_transform,
    f_branch,
    f_hat,
    f_tilde,
    find_extrema,
    g_branch,
    g_hat,
    g_tilde,
    in_G0,
)
from cornerwalk.model import (
    InvalidModelError,
    StepDistribution,
    drift,
    log_kernel_eval,
    log_kernel_grad,
    log_kernel_hess,
    parse_model_text,
)

from conftest import outcome
from oracles import fib_lower_x_branch, fib_upper_y_branch

# frozen geometry of the three-diagonal-step model
FIB_X0 = math.log(math.sqrt(5) / 3)  # -0.2938933324510595
# log(sqrt(5)/2), written so that its float is the correctly rounded value
# (the float of sqrt(5)/2 carries a rounding error that log turns into 3 ulps)
FIB_F_AT_X0 = 0.5 * math.log1p(0.25)  # 0.11157177565710488
FIB_C = math.log(3 / 2)  # both decay rates coincide by symmetry


class TestFindExtrema:
    def test_fibonacci_frozen_constants(self, fib_geom):
        assert fib_geom.x0 == pytest.approx(FIB_X0, abs=1e-13)
        assert fib_geom.y0 == pytest.approx(FIB_X0, abs=1e-13)
        assert fib_geom.f_at_x0 == pytest.approx(FIB_F_AT_X0, abs=1e-13)
        assert fib_geom.g_at_y0 == pytest.approx(FIB_F_AT_X0, abs=1e-13)
        assert fib_geom.c1 == pytest.approx(FIB_C, abs=1e-12)
        assert fib_geom.c2 == pytest.approx(FIB_C, abs=1e-12)

    def test_all_five_frozen_constants(self, all_five_geom):
        # frozen from an independent 50-digit two-dimensional Newton solve
        # of the defining pair (curve equation, vanishing x-partial)
        assert all_five_geom.x0 == pytest.approx(-0.46575393082459249, abs=1e-12)
        assert all_five_geom.f_at_x0 == pytest.approx(0.17758961330375102, abs=1e-12)
        assert all_five_geom.c1 == pytest.approx(0.6433435441283435, abs=1e-12)

    def test_fibonacci_maxima_to_the_last_bits(self, fib_geom):
        assert abs(fib_geom.x0 - FIB_X0) <= 2 * math.ulp(FIB_X0)
        assert abs(fib_geom.f_at_x0 - FIB_F_AT_X0) <= 2 * math.ulp(FIB_F_AT_X0)

    def test_decay_rates_are_branch_gaps(self, fib_geom):
        # c1 = -f_hat(0), c2 = f(x has the g-side mirror); for the
        # symmetric model both equal log(3/2) = -log(2/3)
        assert f_hat(fib_geom, 0.0) == pytest.approx(-math.log(2), abs=1e-12)

    def test_extrema_are_critical_points(self, fib, fib_geom):
        # the partial along x vanishes at (x0, f(x0))
        from cornerwalk.model import log_kernel_grad

        gx, _ = log_kernel_grad(fib, fib_geom.x0, fib_geom.f_at_x0)
        assert abs(gx) < 1e-10

    def test_invalid_model_rejected(self):
        bad = parse_model_text("1 1 0.5\n1 -1 0.4\n-1 1 0.05\n")  # norm broken
        with pytest.raises(InvalidModelError, match="norm"):
            find_extrema(bad)

    def test_exterior_drift_rejected(self):
        bad = parse_model_text("1 -1 0.8\n-1 1 0.1\n1 1 0.1\n")
        with pytest.raises(InvalidModelError, match="drift"):
            find_extrema(bad)


class TestBranches:
    def test_f_matches_closed_form(self, fib_geom):
        for k in range(21):
            x = FIB_X0 * k / 20
            assert f_branch(fib_geom, x) == pytest.approx(
                fib_upper_y_branch(x), abs=1e-12
            )

    def test_g_symmetric_to_f(self, fib_geom):
        for k in range(21):
            x = FIB_X0 * k / 20
            assert g_branch(fib_geom, x) == pytest.approx(
                f_branch(fib_geom, x), abs=1e-13
            )

    def test_f_hat_matches_closed_form(self, fib_geom):
        for k in range(20):  # stop short of the branch-merge height
            y = -1.5 + (FIB_F_AT_X0 + 1.5) * k / 20
            assert f_hat(fib_geom, y) == pytest.approx(
                fib_lower_x_branch(y), abs=1e-12
            )

    def test_f_tilde_is_the_other_root(self, fib_geom):
        # same height, upper x-root; meets f_hat at the tangency height
        y = 0.05
        lo, hi = f_hat(fib_geom, y), f_tilde(fib_geom, y)
        assert lo < hi
        for x in (lo, hi):
            assert abs(log_kernel_eval(fib_geom.dist, x, y)) < 1e-12

    def test_origin_is_an_exact_root(self, pin_geom):
        assert f_branch(pin_geom, 0.0) == 0.0
        assert g_branch(pin_geom, 0.0) == 0.0

    def test_f_hat_at_zero_is_minus_log_two(self, fib_geom):
        # G(x, 0) = (2e^x + e^-x)/3 - 1 has roots x = 0 and x = -log 2
        assert abs(f_hat(fib_geom, 0.0) + math.log(2)) <= math.ulp(math.log(2))

    def test_tangency_endpoint(self, fib_geom):
        assert f_branch(fib_geom, fib_geom.x0) == pytest.approx(
            fib_geom.f_at_x0, abs=1e-9
        )
        assert f_hat(fib_geom, fib_geom.f_at_x0) == pytest.approx(
            fib_geom.x0, abs=1e-7
        )  # square-root contact: accuracy degrades near tangency

    def test_domain_enforced(self, fib_geom):
        with pytest.raises(ValueError):
            f_branch(fib_geom, 0.5)
        with pytest.raises(ValueError):
            f_hat(fib_geom, fib_geom.f_at_x0 + 0.1)
        with pytest.raises(ValueError):
            f_tilde(fib_geom, -0.5)

    @pytest.mark.parametrize("name", ["fib_geom", "all_five_geom"])
    @pytest.mark.parametrize("branch", [f_hat, g_hat, f_branch, f_tilde])
    def test_nan_argument_rejected(self, request, name, branch):
        with pytest.raises(ValueError, match="got nan"):
            branch(request.getfixturevalue(name), math.nan)

    def test_on_curve_everywhere(self, big_jump_geom):
        # no closed form for the nine-step model: check the defining
        # identity G(x, f(x)) = 0 instead
        for k in range(1, 20):
            x = big_jump_geom.x0 * k / 20
            y = f_branch(big_jump_geom, x)
            assert abs(log_kernel_eval(big_jump_geom.dist, x, y)) < 1e-11
            x2 = g_hat(big_jump_geom, x)
            assert abs(log_kernel_eval(big_jump_geom.dist, x, x2)) < 1e-11

    def test_hat_tilde_involution(self, all_five_geom):
        # f_hat then g_tilde-style inverses: f_hat(y) gives x with
        # f(x) = y on the lower part; round trip through the kernel
        y = 0.02
        x = f_hat(all_five_geom, y)
        assert abs(log_kernel_eval(all_five_geom.dist, x, y)) < 1e-12


class TestDerivatives:
    """Branch slopes by _slope: f'(x) = -Gx/Gy along the upper branch, and
    the slope of f_hat, 1/f'(f_hat(y))."""

    @pytest.mark.parametrize("frac", [0.15, 0.4, 0.75])
    def test_f_prime_finite_difference(self, fib_geom, frac):
        x = FIB_X0 * frac
        h = 1e-6
        fd = (f_branch(fib_geom, x + h) - f_branch(fib_geom, x - h)) / (2 * h)
        slope = _slope(fib_geom.dist, x, f_branch(fib_geom, x), "x")
        assert slope == pytest.approx(fd, abs=1e-8)

    def test_g_prime_matches_f_prime_symmetric(self, fib_geom):
        dist = fib_geom.dist
        assert _slope(dist, g_branch(fib_geom, -0.1), -0.1, "y") == pytest.approx(
            _slope(dist, -0.1, f_branch(fib_geom, -0.1), "x"), abs=1e-12
        )

    def test_f_hat_prime_finite_difference(self, fib_geom):
        y = -0.3
        h = 1e-6
        fd = (f_hat(fib_geom, y + h) - f_hat(fib_geom, y - h)) / (2 * h)
        slope = _slope(fib_geom.dist, f_hat(fib_geom, y), y, "y")
        assert slope == pytest.approx(fd, abs=1e-7)

    def test_branch_max_is_flat(self, fib_geom):
        # x0 maximizes f, so the branch derivative vanishes there
        x0 = fib_geom.x0
        slope = _slope(fib_geom.dist, x0, f_branch(fib_geom, x0), "x")
        assert slope == pytest.approx(0.0, abs=1e-5)

    def test_hat_slope_diverges_near_root_merge(self, fib_geom):
        # the two x-roots meet at height f(x0) with square-root contact
        y = fib_geom.f_at_x0 - 1e-8
        assert abs(_slope(fib_geom.dist, f_hat(fib_geom, y), y, "y")) > 50.0


class TestInG0:
    def test_on_f_graph(self, fib_geom):
        x = FIB_X0 / 2
        assert in_G0(fib_geom, (x, f_branch(fib_geom, x)))

    def test_on_g_graph(self, fib_geom):
        y = FIB_X0 / 3
        assert in_G0(fib_geom, (g_branch(fib_geom, y), y))

    def test_origin_is_member(self, fib_geom):
        assert in_G0(fib_geom, (0.0, 0.0))

    def test_endpoints_excluded(self, fib_geom):
        assert not in_G0(fib_geom, (fib_geom.x0, fib_geom.f_at_x0))
        assert not in_G0(fib_geom, (fib_geom.g_at_y0, fib_geom.y0))

    def test_off_curve_rejected(self, fib_geom):
        x = FIB_X0 / 2
        assert not in_G0(fib_geom, (x, f_branch(fib_geom, x) + 1e-6))

    @pytest.mark.parametrize("model", ["fib", "all_five", "diag_heavy", "big_jump"])
    def test_agrees_with_build_sequence_gate(self, model, request):
        # in_G0 accepts exactly the starts build_sequence accepts, on both
        # sides of the 1e-7 tolerance; a fresh geometry keeps the shared
        # one's chain store as it was
        geom = find_extrema(request.getfixturevalue(model))
        x, y = geom.x0 / 2, geom.y0 / 2
        fx, gy = f_branch(geom, x), g_branch(geom, y)
        points = [(5e-8, 0.0)]
        for off in (0.0, 5e-10, 5e-9, 5e-8, 5e-7):
            points += [(x, fx + off), (gy + off, y)]
        for p in points:
            accepted = outcome(build_sequence, geom, p) != "ValueError"
            assert in_G0(geom, p) == accepted, p

    def test_lower_arc_not_in_G0(self, fib_geom):
        y = -0.3
        assert not in_G0(fib_geom, (f_hat(fib_geom, y), y))


class TestCramer:
    def test_drift_direction_gives_zero_twist(self, fib_geom):
        d = cramer_transform(fib_geom, (1.0, 1.0))
        assert d.phi == pytest.approx((0.0, 0.0), abs=1e-12)
        assert d.mu_u == pytest.approx((1 / 3, 1 / 3), abs=1e-12)

    def test_twisted_drift_points_along_u(self, fib_geom):
        u = (2 / math.sqrt(5), 1 / math.sqrt(5))
        d = cramer_transform(fib_geom, u)
        m1, m2 = d.mu_u
        assert m1 * u[1] - m2 * u[0] == pytest.approx(0.0, abs=1e-10)
        assert m1 > 0 and m2 > 0

    def test_twist_point_on_curve(self, all_five_geom):
        d = cramer_transform(all_five_geom, (1.0, 3.0))
        assert abs(log_kernel_eval(all_five_geom.dist, *d.phi)) < 1e-12

    def test_axis_directions_hit_endpoints(self, fib_geom):
        dx = cramer_transform(fib_geom, (1.0, 0.0))
        assert dx.phi == pytest.approx((fib_geom.g_at_y0, fib_geom.y0), abs=1e-12)
        dy = cramer_transform(fib_geom, (0.0, 1.0))
        assert dy.phi == pytest.approx((fib_geom.x0, fib_geom.f_at_x0), abs=1e-12)

    def test_leaving_quadrant_rejected(self, fib_geom):
        with pytest.raises(ValueError):
            cramer_transform(fib_geom, (-0.5, 1.0))
        with pytest.raises(ValueError):
            cramer_transform(fib_geom, (0.0, 0.0))

    @pytest.mark.parametrize("u", [(math.nan, 1.0), (math.inf, 1.0),
                                   (1.0, math.nan), (1.0, math.inf)])
    def test_non_finite_direction_rejected(self, all_five_geom, u):
        with pytest.raises(ValueError, match="not finite"):
            cramer_transform(all_five_geom, u)

    def test_covariance_is_positive_definite(self, fib_geom):
        d = cramer_transform(fib_geom, (1.0, 2.0))
        (s11, s12), (_, s22) = d.sigma_u
        assert s11 > 0 and s22 > 0
        assert s11 * s22 - s12 * s12 > 0

    def test_twisted_drift_matches_every_direction(self, pin_geom):
        for deg in range(1, 90):
            a = math.radians(deg)
            u = (math.cos(a), math.sin(a))
            m1, m2 = cramer_transform(pin_geom, u).mu_u
            m = math.hypot(m1, m2)
            assert abs(m1 / m - u[0]) <= 1e-14, deg
            assert abs(m2 / m - u[1]) <= 1e-14, deg

    def test_drift_direction_twists_by_nothing(self, pin_geom):
        phi = cramer_transform(pin_geom, drift(pin_geom.dist)).phi
        assert abs(phi[0]) <= 1e-15 and abs(phi[1]) <= 1e-15

    @settings(deadline=None, max_examples=30)
    @given(st.floats(0.05, 1.5))
    def test_gradient_sweep_is_onto(self, fib_geom, angle):
        # any strictly interior direction gets a curve point whose
        # normalized gradient reproduces the direction
        u = (math.cos(angle), math.sin(angle))
        d = cramer_transform(fib_geom, u)
        m = math.hypot(*d.mu_u)
        assert d.mu_u[0] / m == pytest.approx(u[0], abs=1e-9)
        assert d.mu_u[1] / m == pytest.approx(u[1], abs=1e-9)


class TestSolve:
    def test_root_at_a_bracket_end_is_that_end(self):
        # a zero value at an end is the root itself: no probe is evaluated
        def fdf(t):
            raise AssertionError(f"probe at {t!r}")

        assert repr(curve._solve(fdf, -0.75, 2.5, 0.0, 3.0)) == "-0.75"
        assert repr(curve._solve(fdf, -0.75, 2.5, -3.0, 0.0)) == "2.5"


class TestSolverWork:
    """Kernel evaluations (G, its gradient and its Hessian, each one call)
    that the safeguarded Newton solves spend, counted through ``curve``.
    A section's value or slope counts one call and its value with slope
    or slope with curvature two, for the pair of kernel calls it stands
    for, so the bounds keep their strength."""

    @pytest.fixture
    def calls(self, monkeypatch):
        count = [0]
        for name in ("log_kernel_eval", "log_kernel_grad", "log_kernel_hess"):
            def counted(*args, _fun=getattr(curve, name)):
                count[0] += 1
                return _fun(*args)

            monkeypatch.setattr(curve, name, counted)
        for name, weight in (("value", 1), ("slope", 1),
                             ("value_slope", 2), ("slope_curvature", 2)):
            def counted(self, t, _fun=getattr(_Section, name), _weight=weight):
                count[0] += _weight
                return _fun(self, t)

            monkeypatch.setattr(_Section, name, counted)
        return count

    def test_find_extrema(self, pin_geom, calls):
        # 310-438 calls on the five pin laws (438 for big_jump), with
        # about 15% margin; each branch maximum solves its peak once
        find_extrema(pin_geom.dist)
        assert calls[0] <= 500

    def test_cramer_transform(self, pin_geom, calls):
        cramer_transform(pin_geom, (2, 1))
        assert calls[0] <= 1000

    def test_branch_solve(self, pin_geom, calls):
        g = pin_geom
        solves = 0
        for k in range(21):
            f_branch(g, g.x0 * k / 20)
            g_branch(g, g.y0 * k / 20)
            f_hat(g, g.f_at_x0 - 2.0 * k / 20)
            g_hat(g, g.g_at_y0 - 2.0 * k / 20)
            f_tilde(g, g.f_at_x0 * k / 20)
            g_tilde(g, g.g_at_y0 * k / 20)
            solves += 6
        assert calls[0] <= 60 * solves


# every float, weighted toward signed zeros, infinities, NaN and exponents
# on either side of the saturation at 600
SECTION_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 300.0, -300.0,
                     600.0, -600.0, 600.5, math.nextafter(600.0, 700.0)]),
    st.floats(-1000.0, 1000.0),
    st.floats(),
)


class TestSection:
    """A section's value, slope and curvature are the floats that the 2-D
    kernels give at the same point, bit for bit."""

    # pin_geom is the session's geometry, the same in every example
    @settings(deadline=None, max_examples=100,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from((0, 1)), SECTION_FLOATS, SECTION_FLOATS)
    def test_matches_the_kernels(self, pin_geom, k, fixed, t):
        dist = pin_geom.dist
        point = (t, fixed) if k == 0 else (fixed, t)
        section = _Section(dist, fixed, k)
        value = lambda: log_kernel_eval(dist, *point)
        slope = lambda: log_kernel_grad(dist, *point)[k]
        curvature = lambda: log_kernel_hess(dist, *point)[2 * k]
        assert outcome(section.value, t) == outcome(value)
        assert outcome(section.slope, t) == outcome(slope)
        assert outcome(section.value_slope, t) == outcome(
            lambda: (value(), slope()))
        assert outcome(section.slope_curvature, t) == outcome(
            lambda: (slope(), curvature()))


# ROADMAP item 2's asymmetric small-step law, with a stay-put step
ASYMMETRIC_TEXT = "1 0 3/8\n0 0 1/8\n1 -1 1/8\n-1 1 1/4\n0 1 1/8\n"
# closed form against the Newton solve, in ulps of the Newton root
CLOSED_FORM_ULPS = 16


def lower_root_gaps(geom, axis):
    """Closed-form against Newton lower roots on a 0.02 grid over 8 units
    below the branch top of ``axis``: (worst gap in ulps, points taken in
    closed form, points on the grid)."""
    top = geom.f_at_x0 if axis == "x" else geom.g_at_y0
    worst, taken = 0.0, 0
    for k in range(401):
        s = top - 0.02 * k
        root = _small_step_lower_root(geom.dist, s, axis)
        if root is None:
            continue
        taken += 1
        newton = _section_extreme_root(geom.dist, s, axis, -1)
        worst = max(worst, abs(root - newton) / math.ulp(newton))
    return worst, taken, 401


@st.composite
def small_step_laws(draw):
    """Singular small-step laws with drift into the quadrant and
    probabilities of denominator at most 30."""
    weights = {(1, -1): draw(st.integers(1, 5)), (-1, 1): draw(st.integers(1, 5))}
    for step in ((1, 1), (1, 0), (0, 1), (0, 0)):
        weights[step] = draw(st.integers(0, 5))
    m1 = weights[(1, 1)] + weights[(1, 0)] + weights[(1, -1)] - weights[(-1, 1)]
    m2 = weights[(1, 1)] + weights[(0, 1)] + weights[(-1, 1)] - weights[(1, -1)]
    assume(m1 > 0 and m2 > 0)
    total = sum(weights.values())
    return StepDistribution.from_pairs(
        {step: Fraction(w, total) for step, w in weights.items()}
    )


class TestClosedFormLowerRoot:
    """f_hat and g_hat take the lower root of a small-step section in
    closed form; it must agree with the Newton solve it replaces."""

    @pytest.mark.parametrize("law,axes", [
        ("fib", "xy"), ("all_five", "xy"), ("diag_heavy", "xy"),
        ("lopsided", "y"), ("asymmetric", "xy"),
    ])
    def test_agrees_with_newton(self, request, law, axes):
        if law == "asymmetric":
            geom = find_extrema(parse_model_text(ASYMMETRIC_TEXT))
        else:
            geom = request.getfixturevalue(f"{law}_geom")
        for axis in axes:
            worst, taken, points = lower_root_gaps(geom, axis)
            assert worst <= CLOSED_FORM_ULPS, (law, axis, worst)
            # only the few points next to the branch top fall back
            assert taken >= 0.9 * points, (law, axis, taken)

    @settings(deadline=None, max_examples=25)
    @given(small_step_laws())
    def test_agrees_with_newton_on_random_laws(self, dist):
        geom = find_extrema(dist)
        for axis in "xy":
            worst, taken, points = lower_root_gaps(geom, axis)
            assert worst <= CLOSED_FORM_ULPS, (dist.steps, dist.exact, axis, worst)
            assert taken >= 0.9 * points, (dist.steps, dist.exact, axis, taken)

    def test_branch_uses_it(self, all_five_geom):
        g = all_five_geom
        for s in (-0.75, -3.0):
            assert f_hat(g, s) == _small_step_lower_root(g.dist, s, "x")
            assert g_hat(g, s) == _small_step_lower_root(g.dist, s, "y")

    def test_branch_top_goes_to_newton(self, pin_geom):
        g = pin_geom
        assert _small_step_lower_root(g.dist, g.f_at_x0, "x") is None
        assert _small_step_lower_root(g.dist, g.g_at_y0, "y") is None
        assert f_hat(g, g.f_at_x0) == _section_extreme_root(
            g.dist, g.f_at_x0, "x", -1)
        assert g_hat(g, g.g_at_y0) == _section_extreme_root(
            g.dist, g.g_at_y0, "y", -1)

    def test_fibonacci_branch_top_is_x0(self, fib_geom):
        assert f_hat(fib_geom, fib_geom.f_at_x0) == fib_geom.x0
        assert g_hat(fib_geom, fib_geom.g_at_y0) == fib_geom.y0

    @pytest.mark.parametrize("law,axes", [("big_jump", "xy"), ("lopsided", "x")])
    def test_jump_of_two_goes_to_newton(self, request, law, axes):
        g = request.getfixturevalue(f"{law}_geom")
        for axis in axes:
            hat = f_hat if axis == "x" else g_hat
            for k in range(0, 401, 20):
                s = -0.02 * k
                assert _small_step_lower_root(g.dist, s, axis) is None
                assert hat(g, s) == _section_extreme_root(g.dist, s, axis, -1)
