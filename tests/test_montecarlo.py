import dataclasses
import math
import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cornerwalk.curve import SolverError, cramer_transform, find_extrema
from cornerwalk.model import InvalidModelError, parse_model_text
from cornerwalk import montecarlo
from cornerwalk.montecarlo import (
    BATCH_SIZE,
    SimConfig,
    brownian_halfplane_kernel,
    estimate_escape,
    estimate_green,
    estimate_halfplane_survival,
    green_direction_scan,
    martin_kernel_estimate,
    martin_kernel_profile,
    skipfree_exit_root,
    _StepSampler,
    _alias_table,
    _batch_rng,
    _exit_root,
    _exit_roots,
    _twisted_probs,
    _visit_bound,
    _visit_bounds,
    _visit_walk,
)

from oracles import (
    fib_escape_exact,
    green_enum,
    sf2_exact_ratio,
    sf2_exact_root,
    sf2_model_text,
    skipfree_root_bounds,
)


def exact_steps(dist):
    return dict(zip(dist.steps, dist.exact))


def z_score(est, truth):
    return (est.mean - truth) / est.std_error


@pytest.fixture
def drawn_blocks(monkeypatch):
    """(rows, steps) of every block drawn while the test runs."""
    drawn = []
    offsets = _StepSampler.offsets

    def recording(self, rng, rows, blk, axes=(0, 1)):
        drawn.append((rows, blk))
        return offsets(self, rng, rows, blk, axes)

    monkeypatch.setattr(_StepSampler, "offsets", recording)
    return drawn


class TestReproducibility:
    def test_bit_identical_across_runs(self, fib):
        # n_paths straddles a batch boundary on purpose
        cfg = SimConfig(seed=99, n_paths=BATCH_SIZE + 4000, horizon=60)
        assert estimate_escape(fib, (1, 1), cfg) == estimate_escape(fib, (1, 1), cfg)

    def test_seed_changes_answer(self, fib):
        a = estimate_escape(fib, (1, 1), SimConfig(seed=1, n_paths=4096, horizon=50))
        b = estimate_escape(fib, (1, 1), SimConfig(seed=2, n_paths=4096, horizon=50))
        assert a.mean != b.mean

    def test_green_reproducible_with_twist(self, all_five, all_five_geom):
        tw = cramer_transform(all_five_geom, (1 / math.sqrt(2), 1 / math.sqrt(2)))
        cfg = SimConfig(seed=3, n_paths=30000, horizon=12, twist=tw)
        assert estimate_green(all_five, (1, 1), (4, 4), cfg) == estimate_green(
            all_five, (1, 1), (4, 4), cfg
        )


class TestEscape:
    def test_matches_series_value(self, fib):
        cfg = SimConfig(seed=20260819, n_paths=20000, horizon=2000)
        est = estimate_escape(fib, (1, 1), cfg)
        truth = float(fib_escape_exact(1, 1))
        # every path is absorbed or retired long before the horizon, and
        # each retired path exits later with chance below 1e-7
        assert est.censored_fraction == 0.0
        assert 0.0 <= est.bias_bound <= 1e-7
        assert abs(z_score(est, truth)) < 3.5

    def test_short_horizon_matches_enumeration(self, fib):
        cfg = SimConfig(seed=17, n_paths=BATCH_SIZE, horizon=4)
        est = estimate_escape(fib, (2, 1), cfg)
        truth = float(escape_truth(fib, (2, 1), 4))
        assert abs(z_score(est, truth)) < 3.5

    def test_short_horizon_bias_bound_covers_gap(self, fib):
        # at horizon 4 many paths are still walking: the estimate of
        # P(exit time > 4) overstates escape, by no more than bias_bound
        cfg = SimConfig(seed=17, n_paths=BATCH_SIZE, horizon=4)
        est = estimate_escape(fib, (2, 1), cfg)
        gap = est.mean - float(fib_escape_exact(2, 1))
        assert est.censored_fraction > 0.0
        assert gap > 4 * est.std_error
        assert gap <= est.bias_bound + 4 * est.std_error

    def test_zero_vertical_drift_never_retires(self):
        # exit root 1 on the vertical axis: the bound never drops below 1,
        # so every path still inside at the horizon is censored
        dist = parse_model_text("1 -1 1/2\n-1 1 1/4\n1 1 1/4\n")
        cfg = SimConfig(seed=8, n_paths=4096, horizon=300)
        for est in (
            estimate_escape(dist, (30, 30), cfg),
            estimate_halfplane_survival(dist, 30, cfg),
        ):
            assert est.mean > 0.5
            assert est.censored_fraction == est.mean
            assert est.bias_bound == est.censored_fraction  # bound capped at 1

    def test_open_row_bound_capped_at_one(self):
        # exit roots 9/11 on both axes: after one step from (1, 1) the only
        # open rows are at (2, 2), where c_x^2 + c_y^2 = 1.34 exceeds 1
        dist = parse_model_text(sf2_model_text(Fraction(1, 10)))
        est = estimate_escape(dist, (1, 1), SimConfig(seed=2, n_paths=4096, horizon=1))
        assert est.censored_fraction > 0.0
        assert est.bias_bound == est.censored_fraction

    def test_monotone_in_horizon(self, fib):
        # same seed: the horizon-2H survivors are a pathwise subset
        short = estimate_escape(fib, (1, 2), SimConfig(seed=5, n_paths=20000, horizon=200))
        long = estimate_escape(fib, (1, 2), SimConfig(seed=5, n_paths=20000, horizon=400))
        assert long.mean <= short.mean + 2 * short.std_error
        assert long.mean <= short.mean  # exact, by the shared stream

    def test_deep_start_nearly_certain(self, fib):
        cfg = SimConfig(seed=4, n_paths=5000, horizon=100)
        assert estimate_escape(fib, (50, 50), cfg).mean >= 0.999

    def test_rejections(self, fib):
        with pytest.raises(ValueError, match="strictly inside"):
            estimate_escape(fib, (0, 1), SimConfig(seed=0, n_paths=10, horizon=5))
        with pytest.raises(ValueError, match="horizon"):
            estimate_escape(fib, (1, 1), SimConfig(seed=0, n_paths=10))

    def test_invalid_model_rejected(self):
        bad = parse_model_text("1 1 1/2\n1 -1 1/2\n")  # no (-1,1) mass
        with pytest.raises(InvalidModelError):
            estimate_escape(bad, (1, 1), SimConfig(seed=0, n_paths=10, horizon=5))


def escape_truth(dist, x, horizon):
    from oracles import escape_enum_lower

    return escape_enum_lower(exact_steps(dist), x, horizon)


class TestHalfplaneSurvival:
    @pytest.mark.parametrize("height,survival", [(1, 0.5), (2, 0.75), (3, 0.875)])
    def test_fibonacci_gamblers_ruin(self, fib, height, survival):
        # exit root c = 1/2, so survival from height z is 1 - 2^-z
        cfg = SimConfig(seed=7, n_paths=40000, horizon=4000)
        est = estimate_halfplane_survival(fib, height, cfg)
        assert abs(z_score(est, survival)) < 3.5

    def test_height_must_be_positive(self, fib):
        with pytest.raises(ValueError, match="height"):
            estimate_halfplane_survival(fib, 0, SimConfig(seed=0, n_paths=10, horizon=5))

    @pytest.mark.parametrize("n_paths,horizon", [(0, 5), (10, 0)])
    def test_sizes_must_be_positive(self, fib, n_paths, horizon):
        cfg = SimConfig(seed=0, n_paths=n_paths, horizon=horizon)
        with pytest.raises(ValueError, match="n_paths and horizon"):
            estimate_halfplane_survival(fib, 1, cfg)


class TestInputGuards:
    """Inputs the int32 positions or the 64-bit Philox key cannot
    represent are rejected, never wrapped or masked."""

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 3])
    def test_seed_outside_64_bits_rejected(self, fib, all_five, seed):
        cfg = SimConfig(seed=seed, n_paths=16, horizon=5)
        with pytest.raises(ValueError, match="seed"):
            estimate_escape(fib, (1, 1), cfg)
        with pytest.raises(ValueError, match="seed"):
            estimate_halfplane_survival(fib, 1, cfg)
        with pytest.raises(ValueError, match="seed"):
            estimate_green(all_five, (1, 1), (2, 2), cfg)
        with pytest.raises(ValueError, match="seed"):
            martin_kernel_profile(all_five, (2, 3), [(3, 3)], cfg)

    def test_largest_seed_accepted(self, fib):
        cfg = SimConfig(seed=2**64 - 1, n_paths=16, horizon=5)
        assert estimate_escape(fib, (1, 1), cfg).n_paths == 16

    def test_start_that_could_overflow_rejected(self, fib):
        # unguarded, positions wrap negative and the paths count as absorbed
        cfg = SimConfig(seed=1, n_paths=4096, horizon=5)
        with pytest.raises(ValueError, match="int32"):
            estimate_escape(fib, (2**31 - 2, 5), cfg)
        with pytest.raises(ValueError, match="int32"):
            estimate_halfplane_survival(fib, 2**31 - 5, cfg)

    def test_start_at_the_int32_edge_accepted(self, fib):
        # |i| + horizon * max|step| = 2^31 - 1: the last position that fits
        cfg = SimConfig(seed=1, n_paths=4096, horizon=5)
        est = estimate_escape(fib, (2**31 - 6, 5), cfg)
        # only five straight down-steps (chance 3^-5) leave the quadrant
        assert abs(z_score(est, 1.0 - 3.0**-5)) < 3.5
        with pytest.raises(ValueError, match="int32"):
            estimate_escape(fib, (2**31 - 5, 5), cfg)

    def test_reach_scales_with_the_longest_step(self, big_jump):
        # big_jump moves up to 2 per step
        cfg = SimConfig(seed=1, n_paths=16, horizon=5)
        estimate_escape(big_jump, (2**31 - 11, 5), cfg)
        with pytest.raises(ValueError, match="int32"):
            estimate_escape(big_jump, (2**31 - 10, 5), cfg)

    def test_green_target_that_could_overflow_rejected(self, all_five):
        cfg = SimConfig(seed=1, n_paths=16, horizon=5)
        with pytest.raises(ValueError, match="int32"):
            estimate_green(all_five, (1, 1), (2**31, 1), cfg)
        with pytest.raises(ValueError, match="int32"):
            martin_kernel_profile(all_five, (2**31 - 3, 3), [(3, 3)], cfg)


class TestGreen:
    def test_parity_unreachable_is_exact_zero(self, fib):
        # diagonal steps preserve i+j mod 2; (1,1) -> (2,3) crosses classes
        est = estimate_green(fib, (1, 1), (2, 3), SimConfig(seed=1, n_paths=8192))
        assert est.mean == 0.0
        assert est.std_error == 0.0

    def test_matches_enumeration(self, fib):
        cfg = SimConfig(seed=21, n_paths=BATCH_SIZE, horizon=4)
        est = estimate_green(fib, (1, 1), (2, 2), cfg)
        truth = float(green_enum(exact_steps(fib), (1, 1), (2, 2), 4))
        assert abs(z_score(est, truth)) < 3.5

    def test_twisted_matches_enumeration(self, all_five, all_five_geom):
        truth = float(green_enum(exact_steps(all_five), (2, 2), (3, 3), 4))
        tw = cramer_transform(all_five_geom, (2 / math.sqrt(5), 1 / math.sqrt(5)))
        twisted = estimate_green(
            all_five, (2, 2), (3, 3),
            SimConfig(seed=5, n_paths=BATCH_SIZE, horizon=4, twist=tw),
        )
        plain = estimate_green(
            all_five, (2, 2), (3, 3), SimConfig(seed=6, n_paths=BATCH_SIZE, horizon=4)
        )
        assert abs(z_score(twisted, truth)) < 3.5
        assert abs(z_score(plain, truth)) < 3.5

    def test_default_horizon_recorded(self, all_five):
        est = estimate_green(all_five, (1, 1), (3, 4), SimConfig(seed=2, n_paths=2048))
        assert est.horizon == 10 * 5
        assert 0.0 <= est.censored_fraction <= 1.0

    def test_bias_bound_reported(self, all_five):
        for horizon in (6, 20):
            cfg = SimConfig(seed=2, n_paths=2048, horizon=horizon)
            for est in (
                estimate_green(all_five, (1, 1), (3, 4), cfg),
                martin_kernel_estimate(all_five, (2, 3), (4, 4), cfg),
            ):
                if horizon == 6:  # rows still stand at or before y's anti-diagonal
                    assert 0.0 < est.bias_bound < math.inf
                else:  # every row left is past it, where no visit is possible
                    assert est.bias_bound == 0.0

    def test_twist_weight_overflow_guarded(self, fib, fib_geom):
        tw = cramer_transform(fib_geom, (2 / math.sqrt(5), 1 / math.sqrt(5)))
        with pytest.raises(SolverError, match="overflow"):
            estimate_green(
                fib, (1, 1), (12001, 2),
                SimConfig(seed=0, n_paths=1, horizon=1, twist=tw),
            )

    def test_endpoints_validated(self, fib):
        with pytest.raises(ValueError):
            estimate_green(fib, (0, 1), (2, 2), SimConfig(seed=0, n_paths=8, horizon=4))
        with pytest.raises(ValueError):
            estimate_green(fib, (1, 1), (2, 0), SimConfig(seed=0, n_paths=8, horizon=4))


class TestMartinKernel:
    def test_base_point_ratio_is_exactly_one(self, all_five):
        # common random numbers: both starts replay the same stream
        est = martin_kernel_estimate(
            all_five, (1, 1), (6, 6), SimConfig(seed=9, n_paths=16384)
        )
        assert est.mean == 1.0
        assert est.std_error == 0.0

    def test_parity_numerator_vanishes_honestly(self, fib):
        est = martin_kernel_estimate(
            fib, (2, 3), (4, 4), SimConfig(seed=3, n_paths=16384, horizon=80)
        )
        assert est.mean == 0.0

    def test_parity_denominator_raises(self, fib):
        with pytest.raises(SolverError, match="no visits"):
            martin_kernel_estimate(
                fib, (2, 3), (3, 4), SimConfig(seed=3, n_paths=16384, horizon=80)
            )

    def test_profile_matches_single_target_runs(self, all_five):
        # target bookkeeping must not perturb the visits.  The bias bound
        # may move in its last digits: a row retired from one target keeps
        # drawing for another, which shifts the uniforms of later rows
        # against a single-target run and so where their open rows stop
        cfg = SimConfig(seed=12, n_paths=8192, horizon=120)
        prof = martin_kernel_profile(all_five, (2, 3), [(8, 8), (9, 9)], cfg)
        for y, est in zip([(8, 8), (9, 9)], prof):
            one = martin_kernel_estimate(all_five, (2, 3), y, cfg)
            assert dataclasses.replace(one, bias_bound=est.bias_bound) == est
            assert one.bias_bound == pytest.approx(est.bias_bound, rel=1e-6)

    @pytest.mark.parametrize("horizon", [None, 40])
    def test_empty_target_list_rejected(self, all_five, horizon):
        cfg = SimConfig(seed=1, n_paths=64, horizon=horizon)
        with pytest.raises(ValueError, match="empty list"):
            martin_kernel_profile(all_five, (2, 3), [], cfg)

    def test_converges_toward_harmonic_ratio(self, all_five, all_five_geom):
        from cornerwalk.compensation import build_sequence, harmonic_eval

        seq = build_sequence(all_five_geom, (0.0, 0.0), imin=2)
        ref = harmonic_eval(seq, 2, 3).value / harmonic_eval(seq, 1, 1).value
        est = martin_kernel_estimate(
            all_five, (2, 3), (10, 10), SimConfig(seed=2, n_paths=50000)
        )
        assert est.std_error > 0.0
        assert abs(est.mean - ref) / ref < 0.1


class TestVisitBound:
    """The gambler's-ruin bound on further visits, by which the visit
    engine retires rows and states its bias."""

    @pytest.mark.parametrize("law", ["fib", "all_five", "diag_heavy"])
    def test_bounds_exact_green_values(self, request, law):
        dist = request.getfixturevalue(law)
        axis_bounds = _visit_bounds(*_twisted_probs(dist, None))
        for z in [(1, 1), (2, 3), (4, 1)]:
            for y in [(2, 2), (3, 3), (1, 4)]:
                exact = float(green_enum(exact_steps(dist), z, y, 24))
                assert exact <= _visit_bound(axis_bounds, z, y, False), (z, y)

    @pytest.mark.parametrize("law", ["fib", "all_five", "diag_heavy", "big_jump"])
    def test_zero_past_the_anti_diagonal_and_bounds_elsewhere(self, request, law):
        # no step of these laws lowers x + y, so a walk past y's
        # anti-diagonal never visits y: the bound is exactly 0 there
        dist = request.getfixturevalue(law)
        assert all(di + dj >= 0 for di, dj in dist.steps)
        axis_bounds = _visit_bounds(*_twisted_probs(dist, None))
        for z in [(1, 1), (2, 3), (4, 1), (3, 3), (5, 4), (6, 2)]:
            for y in [(2, 2), (3, 2), (1, 4)]:
                exact = green_enum(exact_steps(dist), z, y, 10)
                bound = _visit_bound(axis_bounds, z, y, True)
                if z[0] + z[1] > y[0] + y[1]:
                    assert exact == 0 and bound == 0.0, (z, y)
                else:
                    assert float(exact) <= bound, (z, y)
        if law == "all_five":  # 0.278 by the gambler's-ruin bound alone
            assert _visit_bound(axis_bounds, (5, 4), (3, 2), False) > 0.25

    def test_non_singular_law_keeps_gamblers_ruin_bound(self, monkeypatch):
        # a (-1, -1) step lowers x + y, so a walk past y's anti-diagonal
        # can come back to y; the engine must not cut its bound to 0
        dist = parse_model_text("1 1 1/2\n-1 -1 1/8\n1 -1 1/8\n-1 1 1/4\n")
        z, y = (4, 4), (3, 3)
        assert green_enum(exact_steps(dist), z, y, 12) > 0
        axis_bounds = _visit_bounds(*_twisted_probs(dist, None))
        ruin = min(g * c ** max(p - q, 0) for (c, g), p, q in zip(axis_bounds, z, y))
        seen = []

        def spy(axis_bounds, p, q, singular):
            seen.append(singular)
            return _visit_bound(axis_bounds, p, q, singular)

        monkeypatch.setattr(montecarlo, "_visit_bound", spy)
        _visit_walk(dist, [z], [y], [[1.0]], 8, SimConfig(seed=1, n_paths=64))
        assert seen and not any(seen)
        assert _visit_bound(axis_bounds, z, y, False) == pytest.approx(ruin, rel=1e-15)
        assert ruin > 0.0

    @pytest.mark.parametrize("law", ["fib", "all_five", "big_jump"])
    def test_power_table_gives_the_direct_bits(self, request, law):
        axis_bounds = _visit_bounds(*_twisted_probs(request.getfixturevalue(law), None))
        tabled = [(montecarlo._Powers(c), g) for c, g in axis_bounds]
        rng = np.random.default_rng(1)
        # rising reach, so the tables grow between calls; then no rows
        for top in (10, 300, 5000, 5000, 1):
            z = [rng.integers(1, top + 1, 2000 if top > 1 else 0).astype(np.int32)
                 for _ in range(2)]
            for y, singular in [((3, 3), False), ((40, 7), True)]:
                np.testing.assert_array_equal(
                    _visit_bound(tabled, z, y, singular),
                    _visit_bound(axis_bounds, z, y, singular),
                )

    def test_martin_profile_draws_one_block_per_row(self, all_five, drawn_blocks):
        # nearly every row passes the targets' anti-diagonals within its
        # first block of 64 steps (1 338 304 row-steps without the cut);
        # visit runs draw 64-step blocks from the first
        martin_kernel_profile(
            all_five, (2, 3), [(10, 10), (15, 15), (20, 20)],
            SimConfig(seed=7, n_paths=12500),
        )
        assert sum(rows * blk for rows, blk in drawn_blocks) <= 810_000
        assert {blk for _, blk in drawn_blocks} == {64}

    def test_nonpositive_drift_never_retires(self, all_five, monkeypatch):
        # no drift on either axis (not a valid model, so run the engine)
        flat = parse_model_text("1 1 1/4\n-1 -1 1/4\n1 -1 1/4\n-1 1 1/4\n")
        bounds = _visit_bounds(*_twisted_probs(flat, None))
        assert [g for _, g in bounds] == [math.inf, math.inf]
        cfg = SimConfig(seed=3, n_paths=3000)
        runs = [
            (dist, [(6, 6)], [(4, 5)], [[1.0]], 200, cfg) for dist in (flat, all_five)
        ]
        with_eps = [_visit_walk(*args) for args in runs]
        monkeypatch.setattr(montecarlo, "_RETIRE_EPS", 0.0)  # no row retires
        without = [_visit_walk(*args) for args in runs]
        assert with_eps[0] == without[0]
        assert with_eps[0][3][0][0] > 0  # rows still open at the horizon
        assert with_eps[0][4][0][0] == math.inf
        # the positive-drift law does retire rows
        assert with_eps[1][3][0][0] < without[1][3][0][0]

    def test_retired_rows_stay_below_the_weighted_threshold(self, all_five):
        # the twist weight here is about 2e4, so a row may retire only once
        # its bound is below 5e-12; none is censored at this horizon
        tw = cramer_transform(find_extrema(all_five), (3 / 10**0.5, 1 / 10**0.5))
        est = estimate_green(
            all_five, (2, 2), (30, 62),
            SimConfig(seed=4, n_paths=4096, twist=tw),
        )
        assert est.censored_fraction == 0.0
        assert est.bias_bound < montecarlo._RETIRE_EPS

    def test_retired_target_gets_no_more_visits(self, fib, monkeypatch):
        # every row retires from the near target after block one and walks
        # on for the far one, whose threshold the weight keeps out of reach
        monkeypatch.setattr(montecarlo, "_RETIRE_EPS", 1e3)
        near, far = (20, 20), (60, 60)
        cfg = SimConfig(seed=5, n_paths=4000)
        both = _visit_walk(fib, [(1, 1)], [near, far], [[1.0, 1e6]], 200, cfg)
        alone = _visit_walk(fib, [(1, 1)], [near], [[1.0]], 200, cfg)
        assert both[0][0][0] == alone[0][0][0] > 0.0
        assert both[0][0][1] > 0.0  # the far target was walked on to

    @pytest.mark.parametrize("horizon", [6, 70])
    def test_short_horizon_gap_within_bias_bound(self, fib, horizon):
        truth = float(green_enum(exact_steps(fib), (1, 1), (3, 3), 40))
        est = estimate_green(
            fib, (1, 1), (3, 3),
            SimConfig(seed=31, n_paths=BATCH_SIZE, horizon=horizon),
        )
        assert abs(truth - est.mean) <= 4 * est.std_error + est.bias_bound
        if horizon == 6:  # one block: open rows are bounded at the horizon
            assert est.bias_bound > 0.0
            axis_bounds = _visit_bounds(*_twisted_probs(fib, None))
            assert est.bias_bound < _visit_bound(axis_bounds, (1, 1), (3, 3), True)
        else:  # every row left is past y's anti-diagonal
            assert est.bias_bound == 0.0

    def test_martin_interval_holds_exact_ratio(self, all_five):
        x, y = (2, 3), (4, 4)
        exact = float(
            green_enum(exact_steps(all_five), x, y, 24)
            / green_enum(exact_steps(all_five), (1, 1), y, 24)
        )
        for horizon in (8, 70):
            est = martin_kernel_estimate(
                all_five, x, y,
                SimConfig(seed=7, n_paths=BATCH_SIZE, horizon=horizon),
            )
            if horizon == 8:  # rows still stand at or before y's anti-diagonal
                assert 0.0 < est.bias_bound < math.inf
            else:  # every row left is past it
                assert est.bias_bound == 0.0
            assert abs(est.mean - exact) <= 4 * est.std_error + est.bias_bound


class TestSurvivalBlocks:
    """Survival runs draw blocks of 16, 32, then 64 steps, so a row
    absorbed in its first few steps stops drawing after 16."""

    @pytest.mark.parametrize("run", ["escape", "halfplane"])
    def test_blocks_grow_and_end_at_the_horizon(self, drawn_blocks, run):
        # weak drift (exit roots 9/11): rows still stand at the horizon
        dist = parse_model_text(sf2_model_text(Fraction(1, 10)))
        cfg = SimConfig(seed=3, n_paths=512, horizon=150)
        if run == "escape":
            est = estimate_escape(dist, (4, 4), cfg)
        else:
            est = estimate_halfplane_survival(dist, 1, cfg)
        assert est.censored_fraction > 0.0
        assert [blk for _, blk in drawn_blocks] == [16, 32, 64, 38]

    def test_fibonacci_escape_row_steps(self, fib, drawn_blocks):
        # 605 952 row-steps with 64-step blocks from the first
        estimate_escape(fib, (1, 1), SimConfig(seed=101, n_paths=8192, horizon=1000))
        assert sum(rows * blk for rows, blk in drawn_blocks) <= 300_000


class TestStepSampler:
    """offsets() against np.cumsum of the steps picked by the alias rule
    from the same uniforms."""

    @staticmethod
    def reference(dist, twist, u):
        steps, probs = _twisted_probs(dist, twist)
        accept, alias = _alias_table(probs)
        v = u * len(probs)
        k = np.minimum(v.astype(np.intp), len(probs) - 1)
        picked = np.where(v - k < accept[k], k, alias[k])
        return [np.cumsum(steps[picked, a], axis=1) for a in (0, 1)]

    @pytest.mark.parametrize("law", ["fib", "diag_heavy", "all_five_twisted"])
    @pytest.mark.parametrize("blk", [1, 64])
    @pytest.mark.parametrize("subset", [False, True])
    def test_matches_cumsum_reference(self, fib, diag_heavy, all_five,
                                      all_five_geom, law, blk, subset):
        dist, twist = {
            "fib": (fib, None),
            "diag_heavy": (diag_heavy, None),
            "all_five_twisted": (
                all_five, cramer_transform(all_five_geom, (0.8, 0.6))),
        }[law]
        sampler = _StepSampler(*_twisted_probs(dist, twist), 300, 200)
        assert sampler.trivial == (law == "fib")
        # subset: a draw for fewer rows than the sampler was sized for, as
        # once the engines have dropped rows
        rows = 43 if subset else 300
        offs = sampler.offsets(_batch_rng(5, 0), rows, blk)
        ref = self.reference(dist, twist, _batch_rng(5, 0).random((rows, blk)))
        for off, r in zip(offs, ref):
            assert off.dtype == np.int32
            assert off.shape == (blk, rows)
            np.testing.assert_array_equal(off, r.T)


@pytest.fixture
def shards(monkeypatch):
    """set(w, shard_min): cut each block into at most w row shards of at
    least shard_min uniforms."""

    def set_shards(w, shard_min=1):
        monkeypatch.setattr(montecarlo, "_CORES", w)
        monkeypatch.setattr(montecarlo, "_SHARD_MIN", shard_min)

    return set_shards


def philox_state(rng):
    s = rng.bit_generator.state
    return (s["state"]["counter"].tolist(), s["state"]["key"].tolist(),
            s["buffer"].tolist(), s["buffer_pos"], s["has_uint32"], s["uinteger"])


class TestSharding:
    """A block's row shards draw from jumped Philox copies: the offsets,
    and the state the stream is left in, are those of one serial draw."""

    @pytest.mark.parametrize("law", ["fib", "all_five_twisted"])
    # odd row counts; 37 * 5 and 13 * 3 uniforms are not whole Philox
    # counter steps of 4, and 3 rows give shards without rows at w = 4
    @pytest.mark.parametrize("rows, blk", [(37, 5), (101, 64), (13, 3), (3, 2)])
    def test_offsets_do_not_depend_on_shards(self, fib, all_five, all_five_geom,
                                             shards, law, rows, blk):
        dist, twist = {
            "fib": (fib, None),
            "all_five_twisted": (
                all_five, cramer_transform(all_five_geom, (0.8, 0.6))),
        }[law]
        steps, probs = _twisted_probs(dist, twist)

        def draw(w, pre, half):
            shards(w)
            sampler = _StepSampler(steps, probs, rows, blk)
            rng = _batch_rng(5, 0)
            rng.bit_generator.random_raw(pre)  # start at buffer position pre
            if half:  # a 32-bit draw holds back the other half of its output
                rng.integers(2**32, dtype=np.uint32)
            offs = sampler.offsets(rng, rows, blk) + sampler.offsets(rng, rows - 1, blk)
            return offs, philox_state(rng)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for pre, half in [(0, False), (1, False), (2, False), (3, False), (3, True)]:
                ref, ref_state = draw(1, pre, half)
                for w in (2, 3, 4):
                    offs, state = draw(w, pre, half)
                    for off, r in zip(offs, ref):
                        np.testing.assert_array_equal(off, r)
                    assert state == ref_state, (pre, half, w)
        finally:
            sys.setswitchinterval(old)

    @pytest.mark.parametrize("w", [2, 3])
    def test_estimates_do_not_depend_on_workers(self, fib, all_five, all_five_geom,
                                                shards, w):
        twist = cramer_transform(all_five_geom, (0.8, 0.6))
        runs = [
            lambda: estimate_escape(fib, (1, 1), SimConfig(seed=4, n_paths=8192,
                                                           horizon=300)),
            lambda: estimate_halfplane_survival(fib, 2, SimConfig(
                seed=5, n_paths=4096, horizon=300)),
            # two batches
            lambda: estimate_green(all_five, (2, 2), (3, 3), SimConfig(
                seed=6, n_paths=131072, horizon=6, twist=twist)),
            lambda: martin_kernel_profile(all_five, (2, 3), [(6, 6), (9, 9)],
                                          SimConfig(seed=7, n_paths=5000)),
        ]
        shards(1)
        serial = [run() for run in runs]
        # 256 uniforms a shard: every block but the smallest is cut
        shards(w, 256)
        assert [run() for run in runs] == serial

    def test_forked_child_draws_the_same(self):
        # a forked child inherits the shard pool but not its threads
        script = textwrap.dedent("""
            import os, signal
            from cornerwalk import montecarlo
            from cornerwalk.model import parse_model_text
            from cornerwalk.montecarlo import SimConfig, estimate_escape

            montecarlo._CORES, montecarlo._SHARD_MIN = 2, 256
            fib = parse_model_text("1 1 1/3\\n1 -1 1/3\\n-1 1 1/3\\n")
            run = lambda: estimate_escape(
                fib, (1, 1), SimConfig(seed=3, n_paths=4096, horizon=200))
            before = run()
            pid = os.fork()
            if pid == 0:
                signal.alarm(20)
                os._exit(0 if run() == before else 1)
            _, status = os.waitpid(pid, 0)
            raise SystemExit(os.waitstatus_to_exitcode(status))
        """)
        src = Path(montecarlo.__file__).resolve().parents[1]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
        done = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr


class TestDirectionScan:
    def test_fields_and_positivity(self, fib):
        cfg = SimConfig(seed=11, n_paths=20000)
        pts = green_direction_scan(fib, (1, 1), (1.0, 1.0), [6, 10], cfg)
        assert [p.radius for p in pts] == [6.0, 10.0]
        assert pts[0].y == (4, 4)
        assert pts[1].y == (7, 7)
        for p in pts:
            assert p.norm == pytest.approx(math.hypot(*p.y))
            assert p.value > 0.0
            assert p.std_error > 0.0
            assert p.horizon == 10 * (p.y[0] - 1 + p.y[1] - 1)

    def test_explicit_horizon_recorded(self, fib):
        cfg = SimConfig(seed=11, n_paths=64, horizon=25)
        pts = green_direction_scan(fib, (1, 1), (1.0, 1.0), [6, 10], cfg)
        assert [p.horizon for p in pts] == [25, 25]

    def test_scaled_values_order_by_start(self, fib):
        cfg = SimConfig(seed=12, n_paths=100000)
        vals = [
            green_direction_scan(fib, x, (1.0, 1.0), [22], cfg)[0].value
            for x in [(1, 1), (3, 3), (5, 5)]
        ]
        assert vals[0] < vals[1] < vals[2]

    def test_direction_validated(self, fib):
        cfg = SimConfig(seed=0, n_paths=16)
        for u in [(0.0, 1.0), (1.0, 0.0), (1.0, -0.2), (0.0, 0.0)]:
            with pytest.raises(ValueError, match="direction"):
                green_direction_scan(fib, (1, 1), u, [5], cfg)
        with pytest.raises(ValueError, match="positive"):
            green_direction_scan(fib, (1, 1), (1.0, 1.0), [0], cfg)


class TestSkipfreeRoot:
    def test_fibonacci_half(self, fib):
        assert skipfree_exit_root(fib) == pytest.approx(0.5, abs=1e-13)

    @pytest.mark.parametrize("delta", [Fraction(1, 2), Fraction(3, 4), Fraction(7, 8)])
    def test_sf2_family_closed_form(self, delta):
        dist = parse_model_text(sf2_model_text(delta))
        assert skipfree_exit_root(dist) == pytest.approx(
            float(sf2_exact_root(delta)), abs=1e-12
        )
        assert float(sf2_exact_ratio(delta)) == pytest.approx(float(1 - delta))

    def test_nonpositive_drift_returns_one(self):
        dist = parse_model_text("1 -1 1/2\n-1 1 1/4\n1 1 1/4\n")
        assert skipfree_exit_root(dist) == 1.0

    def test_twisted_root_solves_twisted_marginal(self, fib, fib_geom):
        tw = cramer_transform(fib_geom, (1 / math.sqrt(5), 2 / math.sqrt(5)))
        c = skipfree_exit_root(fib, twist=tw)
        assert 0.0 < c < 1.0
        weights = [
            p * math.exp(tw.phi[0] * di + tw.phi[1] * dj)
            for (di, dj), p in zip(fib.steps, fib.probs)
        ]
        total = sum(weights)
        resid = math.fsum(
            (w / total) * c**dj for (_, dj), w in zip(fib.steps, weights)
        ) - 1.0
        assert abs(resid) < 1e-12

    def test_validates_model(self):
        with pytest.raises(InvalidModelError):
            skipfree_exit_root(parse_model_text("1 1 1\n"))

    def test_twisted_x_root_is_swapped_y_root(self):
        dist = parse_model_text("1 -1 1/4\n-1 1 1/4\n1 0 1/4\n1 1 1/4\n")
        swapped = parse_model_text("-1 1 1/4\n1 -1 1/4\n0 1 1/4\n1 1 1/4\n")
        tw = cramer_transform(find_extrema(dist), (2 / math.sqrt(5), 1 / math.sqrt(5)))
        c_x = _exit_root(*_twisted_probs(dist, tw), 0)
        mirrored = dataclasses.replace(tw, phi=(tw.phi[1], tw.phi[0]))
        assert 0.0 < c_x < 1.0
        assert c_x == pytest.approx(
            skipfree_exit_root(swapped, twist=mirrored), abs=1e-13
        )
        assert c_x != pytest.approx(skipfree_exit_root(dist, twist=tw), abs=1e-3)


class TestExitRootRounding:
    """_exit_root returns a float at or above the exact root of the float
    law it samples, and within 4 ulps of it."""

    @pytest.mark.parametrize("case,axis,root", [
        ("fib", 1, Fraction(1, 2)),
        ("all_five", 0, Fraction(1, 3)),
        ("diag_heavy", 1, Fraction(1, 11)),
        ("sf2_1/10", 1, sf2_exact_root(Fraction(1, 10))),
        ("sf2_1/3", 1, sf2_exact_root(Fraction(1, 3))),
    ])
    def test_rounded_up_within_four_ulps(self, request, case, axis, root):
        if case.startswith("sf2_"):
            dist = parse_model_text(sf2_model_text(Fraction(case[4:])))
        else:
            dist = request.getfixturevalue(case)
        steps, probs = _twisted_probs(dist, None)
        marginal = {}
        for d, p in zip(steps[:, axis].tolist(), probs.tolist()):
            marginal[d] = marginal.get(d, 0) + Fraction(p)
        lo, hi = skipfree_root_bounds(marginal)
        c = _exit_root(steps, probs, axis)
        ulp = Fraction(math.ulp(c))
        assert Fraction(c) >= hi
        assert Fraction(c) - lo <= 4 * ulp
        # the float law's root lies within a few ulps of the exact law's
        assert abs(Fraction(c) - root) <= 4 * ulp


class TestExitRootsPerCall:
    """An estimator call solves one exit root per distinct marginal."""

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        exit_root = montecarlo._exit_root

        def counting(steps, probs, axis):
            calls.append(axis)
            return exit_root(steps, probs, axis)

        monkeypatch.setattr(montecarlo, "_exit_root", counting)
        return calls

    def test_equal_marginals_solved_once(self, fib, solves):
        cfg = SimConfig(seed=1, n_paths=64, horizon=8)
        estimate_escape(fib, (1, 1), cfg)
        assert len(solves) == 1
        estimate_green(fib, (1, 1), (3, 3), cfg)
        assert len(solves) == 2

    def test_distinct_marginals_solved_each(self, lopsided, solves):
        steps, probs = _twisted_probs(lopsided, None)
        assert _exit_roots(steps, probs, (0, 1)) == [
            _exit_root(steps, probs, 0), _exit_root(steps, probs, 1)
        ]
        solves.clear()
        estimate_escape(lopsided, (1, 1), SimConfig(seed=1, n_paths=64, horizon=8))
        assert len(solves) == 2


class TestBrownianKernel:
    def test_boundary_start_or_target_is_zero(self):
        eye = np.eye(2)
        assert brownian_halfplane_kernel(1.0, (0.3, 0.0), (1.0, 2.0), (0, 0), eye) == 0.0
        assert brownian_halfplane_kernel(1.0, (0.3, 1.0), (1.0, 0.0), (0, 0), eye) == 0.0

    def test_unit_check_value(self):
        got = brownian_halfplane_kernel(1.0, (0.0, 1.0), (0.0, 1.0), (0.0, 0.0), np.eye(2))
        assert got == (1.0 - math.exp(-2.0)) / (2.0 * math.pi)

    def test_symmetric_in_endpoints_without_drift(self):
        sigma = np.array([[2.0, 0.4], [0.4, 1.0]])
        a = brownian_halfplane_kernel(2.5, (0.2, 0.7), (1.4, 2.1), (0, 0), sigma)
        b = brownian_halfplane_kernel(2.5, (1.4, 2.1), (0.2, 0.7), (0, 0), sigma)
        assert a == pytest.approx(b, rel=1e-12)

    def test_upper_bound_random_inputs(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            a = rng.normal(size=(2, 2))
            sigma = a @ a.T + 0.05 * np.eye(2)
            t = float(rng.uniform(0.1, 5.0))
            x = (float(rng.normal()), float(rng.uniform(0, 3)))
            y = (float(rng.normal()), float(rng.uniform(0, 3)))
            mu = rng.normal(size=2)
            val = brownian_halfplane_kernel(t, x, y, mu, sigma)
            d = np.array(y) - np.array(x) - t * mu
            quad = float(d @ np.linalg.inv(sigma) @ d) / (2 * t)
            gauss = math.exp(-quad) / (2 * math.pi * t * math.sqrt(np.linalg.det(sigma)))
            cap = (2 * x[1] * y[1] / (t * sigma[0, 0])) * gauss
            assert val <= cap * (1 + 1e-12)

    def test_equivalence_at_small_ratio(self):
        t = 1.0e6
        val = brownian_halfplane_kernel(t, (0.0, 1.0), (0.0, 1.0), (0, 0), np.eye(2))
        u = 2.0 / t
        gauss = 1.0 / (2 * math.pi * t)
        assert abs(val / (u * gauss) - 1.0) < 0.01

    def test_rejections(self):
        eye = np.eye(2)
        with pytest.raises(ValueError, match="time"):
            brownian_halfplane_kernel(0.0, (0, 1), (0, 1), (0, 0), eye)
        with pytest.raises(ValueError, match="nonnegative"):
            brownian_halfplane_kernel(1.0, (0, -1), (0, 1), (0, 0), eye)
        with pytest.raises(ValueError, match="symmetric"):
            brownian_halfplane_kernel(1.0, (0, 1), (0, 1), (0, 0), [[1, 0.3], [0.1, 1]])
        with pytest.raises(SolverError, match="positive definite"):
            brownian_halfplane_kernel(1.0, (0, 1), (0, 1), (0, 0), [[1, 1], [1, 1]])


@settings(deadline=None, max_examples=15)
@given(st.integers(0, 2**63 - 1))
def test_property_estimates_reproducible(fib, seed):
    cfg = SimConfig(seed=seed, n_paths=512, horizon=16)
    assert estimate_escape(fib, (1, 1), cfg) == estimate_escape(fib, (1, 1), cfg)
