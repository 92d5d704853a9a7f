import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cornerwalk import model
from cornerwalk.model import (
    InvalidModelError,
    ModelFileError,
    StepDistribution,
    drift,
    kernel_eval,
    log_kernel_eval,
    log_kernel_grad,
    parse_model_text,
    require_valid,
    validate_model,
)

from conftest import FIB_TEXT


def test_parse_fibonacci_exact():
    dist = parse_model_text(FIB_TEXT)
    assert len(dist) == 3
    assert dist.prob((1, 1)) == pytest.approx(1 / 3)
    # fraction inputs survive exactly
    assert dist.exact[dist.steps.index((1, -1))] == Fraction(1, 3)


def test_parse_comments_and_blank_lines():
    dist = parse_model_text("# heading\n\n1 1 0.5\n  # indented comment\n-1 1 0.5\n")
    assert set(dist.steps) == {(1, 1), (-1, 1)}


def test_parse_duplicate_step_reports_both_lines():
    with pytest.raises(ModelFileError, match=r":3:.*first given on line 1"):
        parse_model_text("1 1 0.5\n-1 1 0.25\n1 1 0.25\n")


def test_parse_malformed_line():
    with pytest.raises(ModelFileError, match=":2:"):
        parse_model_text("1 1 0.5\n1 oops 0.5\n")


def test_parse_bad_probability():
    with pytest.raises(ModelFileError):
        parse_model_text("1 1 -0.5\n-1 1 1.5\n")


def test_zero_probability_steps_dropped():
    dist = parse_model_text("1 1 1/2\n1 -1 1/2\n-1 1 0\n")
    assert (-1, 1) not in dist.steps


def test_validate_fibonacci_passes(fib):
    report = validate_model(fib)
    assert report.passed
    assert report.is_small_step
    assert report.violations == ()


def test_validate_big_jump_passes_not_small(big_jump):
    report = validate_model(big_jump)
    assert report.passed
    assert not report.is_small_step


@pytest.mark.parametrize(
    "text,rule",
    [
        ("1 1 0.5\n1 -1 0.4\n-1 1 0.05\n", "norm"),
        ("1 1 0.5\n-2 1 0.25\n-1 1 0.25\n", "small_neg"),
        ("1 1 0.5\n-1 0 0.25\n-1 1 0.25\n", "singular"),
        ("1 1 0.5\n0 -1 0.25\n-1 1 0.25\n", "singular"),
        ("1 1 0.5\n-1 -1 0.25\n-1 1 0.25\n", "singular"),
        ("1 1 1\n", "corner_jumps"),  # p(-1,1) p(1,-1) = 0
        ("1 -1 1/2\n-1 1 1/2\n", "nondegenerate"),  # no step with i+j > 0
    ],
)
def test_validate_single_violations(text, rule):
    report = validate_model(parse_model_text(text))
    assert not report.passed
    assert rule in [r for r, _ in report.violations]


def test_validate_norm_exact_fractions():
    # 1/3 three times sums to exactly 1 in rational arithmetic; the float
    # sum 0.333.. * 3 would be off by an ulp, which must not trip the rule
    report = validate_model(parse_model_text("1 1 1/3\n1 -1 1/3\n-1 1 1/3\n"))
    assert "norm" not in [r for r, _ in report.violations]


@pytest.mark.parametrize("excess, passed", [(1e-13, True), (1e-11, False)])
def test_validate_norm_float_sum_without_exact(excess, passed):
    # built directly, without exact probabilities: the float sum decides,
    # within 1e-12 of one
    dist = StepDistribution(
        steps=((-1, 1), (1, -1), (1, 1)), probs=(0.25, 0.25, 0.5 + excess)
    )
    report = validate_model(dist)
    assert report.passed is passed
    assert ("norm" in [r for r, _ in report.violations]) is not passed


def test_validate_negative_probability():
    # the exact sum is one, so only the sign trips the rule
    dist = StepDistribution.from_pairs({(1, 1): 1.5, (1, -1): -0.25, (-1, 1): -0.25})
    report = validate_model(dist)
    assert ("norm", "negative probability in the step law") in report.violations


def test_validate_lazy_step_note():
    report = validate_model(parse_model_text("0 0 1/4\n1 1 1/4\n1 -1 1/4\n-1 1 1/4\n"))
    assert report.passed
    assert report.is_small_step
    assert any("(0, 0)" in note or "0,0" in note or "stay" in note for note in report.notes)


def test_support_radius_cap():
    with pytest.raises(ModelFileError):
        parse_model_text("100 1 0.5\n-1 1 0.25\n1 -1 0.25\n")


def test_drift_fibonacci(fib):
    assert drift(fib) == pytest.approx((1 / 3, 1 / 3), abs=1e-15)


def test_kernel_eval_on_curve_points(fib):
    # alpha = beta = 1 lies on the curve: sum p = 1
    assert kernel_eval(fib, 1.0, 1.0) == pytest.approx(0.0, abs=1e-15)
    # the kernel multiplies through by alpha*beta
    assert kernel_eval(fib, 2.0, 3.0) == pytest.approx(
        2.0 * 3.0 * ((2 * 3 + 2 / 3 + 3 / 2) / 3 - 1.0)
    )


def test_kernel_eval_rejects_nonpositive(fib):
    with pytest.raises(ValueError):
        kernel_eval(fib, -1.0, 1.0)
    with pytest.raises(ValueError):
        kernel_eval(fib, 1.0, 0.0)


def test_log_kernel_matches_kernel(fib):
    x, y = -0.2, 0.1
    lhs = log_kernel_eval(fib, x, y)
    a, b = math.exp(x), math.exp(y)
    assert lhs == pytest.approx(kernel_eval(fib, a, b) / (a * b), rel=1e-12)


def test_log_kernel_grad_finite_difference(fib):
    x, y = -0.15, 0.05
    gx, gy = log_kernel_grad(fib, x, y)
    h = 1e-6
    fd_x = (log_kernel_eval(fib, x + h, y) - log_kernel_eval(fib, x - h, y)) / (2 * h)
    fd_y = (log_kernel_eval(fib, x, y + h) - log_kernel_eval(fib, x, y - h)) / (2 * h)
    assert gx == pytest.approx(fd_x, abs=1e-8)
    assert gy == pytest.approx(fd_y, abs=1e-8)


def test_log_kernel_extreme_arguments_stay_finite(fib):
    # saturating exponentials: huge probes must not produce nan/inf sums
    v = log_kernel_eval(fib, 800.0, -800.0)
    assert math.isfinite(v)
    gx, gy = log_kernel_grad(fib, 800.0, -800.0)
    assert math.isfinite(gx) and math.isfinite(gy)


@st.composite
def valid_models(draw):
    """Random distributions satisfying all five structural rules."""
    extra = draw(
        st.lists(
            st.tuples(st.integers(-1, 3), st.integers(-1, 3)).filter(
                lambda s: s not in {(-1, -1), (-1, 0), (0, -1), (0, 0)}
            ),
            max_size=5,
            unique=True,
        )
    )
    steps = {(1, -1), (-1, 1), (1, 1)} | set(extra)
    weights = [draw(st.integers(1, 9)) for _ in steps]
    total = sum(weights)
    return StepDistribution.from_pairs(
        [(s, Fraction(w, total)) for s, w in zip(sorted(steps), weights)]
    )


@given(valid_models())
def test_random_valid_models_pass(dist):
    report = validate_model(dist)
    assert report.passed, report.violations


@given(valid_models(), st.floats(-0.5, 0.5), st.floats(-0.5, 0.5))
def test_log_kernel_convexity_along_axes(dist, x, y):
    # sum of exponentials: second differences along each axis nonnegative
    h = 1e-3
    gxx = (
        log_kernel_eval(dist, x + h, y)
        - 2 * log_kernel_eval(dist, x, y)
        + log_kernel_eval(dist, x - h, y)
    )
    gyy = (
        log_kernel_eval(dist, x, y + h)
        - 2 * log_kernel_eval(dist, x, y)
        + log_kernel_eval(dist, x, y - h)
    )
    assert gxx >= -1e-12 and gyy >= -1e-12


def test_invalid_model_error_is_value_error():
    # callers catch ValueError for both parse and validation failures
    assert issubclass(InvalidModelError, ValueError)
    assert issubclass(ModelFileError, ValueError)


def test_require_valid_returns_the_passing_report():
    report = require_valid(parse_model_text(FIB_TEXT))
    assert report.passed and report.is_small_step


def test_require_valid_names_rules_and_prefix():
    bad = parse_model_text("1 1 1/2\n1 -1 1/2\n")  # no (-1,1) mass
    with pytest.raises(InvalidModelError, match="^model fails validation rules: corner_jumps$"):
        require_valid(bad)
    with pytest.raises(InvalidModelError, match="^m.txt: model fails validation rules: "):
        require_valid(bad, where="m.txt")


class TestRequireValidMemo:
    """require_valid keeps a passing report in the model object's memo, so
    every entry point that gates on it validates a model object once."""

    @pytest.fixture
    def validations(self, monkeypatch):
        calls = []
        validate = model.validate_model

        def counting(dist):
            calls.append(dist)
            return validate(dist)

        monkeypatch.setattr(model, "validate_model", counting)
        return calls

    def test_one_validation_per_object_across_entry_points(self, validations):
        from cornerwalk.curve import cramer_transform, find_extrema
        from cornerwalk.montecarlo import (
            SimConfig,
            estimate_escape,
            estimate_green,
            estimate_halfplane_survival,
            green_direction_scan,
            martin_kernel_estimate,
            martin_kernel_profile,
            skipfree_exit_root,
        )
        from cornerwalk.uniformization import compute_params

        dist = parse_model_text(FIB_TEXT)
        cfg = SimConfig(seed=1, n_paths=64, horizon=8)
        for _ in range(2):
            geom = find_extrema(dist)
            compute_params(dist)
            estimate_escape(dist, (1, 1), cfg)
            estimate_halfplane_survival(dist, 2, cfg)
            estimate_green(dist, (1, 1), (3, 3), cfg)
            martin_kernel_estimate(dist, (2, 2), (3, 3), cfg)
            martin_kernel_profile(dist, (2, 2), [(3, 3), (4, 4)], cfg)
            green_direction_scan(dist, (1, 1), (1.0, 1.0), [3.0], cfg)
            skipfree_exit_root(dist)
            skipfree_exit_root(dist, cramer_transform(geom, (0.6, 0.8)))
        assert validations == [dist]
        assert dist._memo["report"].passed

    def test_failing_model_raises_every_call_and_stores_nothing(self, validations):
        bad = parse_model_text("1 1 1/2\n1 -1 1/2\n")  # no (-1,1) mass
        for where in ["m.txt", "m.txt", ""]:
            prefix = f"{where}: " if where else ""
            with pytest.raises(
                InvalidModelError,
                match=f"^{prefix}model fails validation rules: corner_jumps$",
            ):
                require_valid(bad, where=where)
            assert "report" not in bad._memo
        assert validations == [bad] * 3

    def test_replace_starts_an_empty_memo(self, validations):
        dist = parse_model_text(FIB_TEXT)
        report = require_valid(dist)
        assert require_valid(dist) is report
        copy = dataclasses.replace(dist)
        assert copy == dist and copy._memo == {}
        assert require_valid(copy) == report
        assert validations == [dist, copy]


def test_float_probabilities_keep_exact_values():
    dist = StepDistribution.from_pairs({(1, 1): 0.5, (1, -1): 0.25, (-1, 1): 0.25})
    assert dist.exact == (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))
