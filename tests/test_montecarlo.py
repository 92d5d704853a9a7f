import dataclasses
import math
import os
import subprocess
import sys
import textwrap
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cornerwalk.curve import SolverError, cramer_transform, find_extrema
from cornerwalk.model import (
    InvalidModelError,
    StepDistribution,
    parse_model_text,
    require_valid,
)
from cornerwalk import model, montecarlo
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
    _BLOCK,
    _RETIRE_EPS,
    _StepSampler,
    _alias_table,
    _batch_rng,
    _exit_root,
    _green_estimate,
    _twist_weight,
    _twisted_probs,
    _visit_bound,
    _law,
    _visit_walk,
)

from conftest import PIN_MODELS
from test_stream_contract import ESTIMATES, EXPECTED
from oracles import (
    fib_escape_exact,
    green_enum,
    sf2_exact_ratio,
    sf2_exact_root,
    sf2_model_text,
    skipfree_root_bounds,
)


FIB_TEXT = "1 1 1/3\n1 -1 1/3\n-1 1 1/3\n"


def exact_steps(dist):
    return dict(zip(dist.steps, dist.exact))


def z_score(est, truth):
    return (est.mean - truth) / est.std_error


def per_axis(off):
    """The (blk, rows) offsets of each axis of one interleaved
    (blk, rows, axes) block of _StepSampler.offsets."""
    return [off[..., k] for k in range(off.shape[-1])]


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

    def test_horizon_required(self, fib):
        with pytest.raises(ValueError, match="explicit horizon"):
            estimate_halfplane_survival(fib, 1, SimConfig(seed=0, n_paths=10))


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

    @pytest.mark.parametrize("call", [
        lambda d, p, cfg: estimate_escape(d, p, cfg),
        lambda d, p, cfg: estimate_halfplane_survival(d, p[0] + p[1] - 2, cfg),
        lambda d, p, cfg: estimate_green(d, p, (3, 3), cfg),
        lambda d, p, cfg: estimate_green(d, (1, 1), p, cfg),
        lambda d, p, cfg: martin_kernel_profile(d, p, [(3, 3)], cfg),
        lambda d, p, cfg: martin_kernel_profile(d, (2, 3), [p], cfg),
        lambda d, p, cfg: green_direction_scan(d, p, (1.0, 1.0), [6], cfg),
    ], ids=["escape", "halfplane", "green_x", "green_y", "martin_x", "martin_y",
            "scan"])
    def test_fractional_coordinate_rejected(self, all_five, call):
        # (2.5, 2) used to run as (2, 2); integral floats and numpy
        # integers still give the bits of (2, 2)
        cfg = SimConfig(seed=1, n_paths=16, horizon=5)
        want = repr(call(all_five, (2, 2), cfg))
        assert repr(call(all_five, (2.0, np.int64(2)), cfg)) == want
        for p in [(2.5, 2), (2, 2.5)]:
            with pytest.raises(ValueError, match="integers"):
                call(all_five, p, cfg)

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

    @pytest.mark.parametrize("call", ["green", "scan", "scan_with_others", "martin"])
    def test_no_default_horizon_for_y_equal_to_x(self, fib, call):
        # the default 10 * |y - x|_1 would be 0, so no walk at all
        cfg = SimConfig(seed=1, n_paths=100)
        with pytest.raises(ValueError, match=r"\(2, 2\) has no default horizon"):
            if call == "green":
                estimate_green(fib, (2, 2), (2, 2), cfg)
            elif call == "scan":  # the radius rounds onto x
                green_direction_scan(fib, (2, 2), (1.0, 1.0), [2 * 2**0.5], cfg)
            elif call == "scan_with_others":
                green_direction_scan(fib, (2, 2), (1.0, 1.0), [2 * 2**0.5, 6.0], cfg)
            else:
                martin_kernel_profile(fib, (2, 2), [(2, 2)], cfg)

    def test_green_at_x_counts_no_time_zero_visit(self, fib):
        # fibonacci's steps need two to return, so by step 1 no visit counts
        est = estimate_green(fib, (2, 2), (2, 2), SimConfig(seed=1, n_paths=100, horizon=1))
        assert est.mean == 0.0
        # a Martin profile takes its default from the targets off x
        prof = martin_kernel_profile(fib, (2, 2), [(2, 2), (4, 4)],
                                     SimConfig(seed=1, n_paths=2000))
        assert [p.horizon for p in prof] == [40, 40]

    @pytest.mark.parametrize("argv", [
        ["simulate", "models/all_five.txt", "green", "2", "2", "2", "2",
         "--seed", "1", "--n-paths", "1000"],
        ["green-scan", "models/fibonacci.txt", "1", "1", "--u", "1", "1",
         "--radii", "0.1", "--seed", "1", "--n-paths", "100"],
    ])
    def test_cli_y_equal_to_x_is_a_usage_error(self, capsys, monkeypatch, argv):
        from cornerwalk.cli import main

        monkeypatch.chdir(Path(__file__).resolve().parent.parent)
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "explicit" in captured.err

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

    @pytest.mark.parametrize("law, span", [("all_five", 1 << 8), ("big_jump", 1 << 16)])
    def test_target_past_the_offset_range_is_never_met(self, request, law, span):
        # y - x = span + 9 wraps to 9 in the offsets' int8 or int16, a
        # displacement one 64-step block reaches often; the compare must
        # see it as out of reach
        y = (1 + span + 9, 1 + span + 9)
        est = estimate_green(request.getfixturevalue(law), (1, 1), y,
                             SimConfig(seed=3, n_paths=4000, horizon=64))
        assert est.mean == 0.0

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

    @pytest.mark.parametrize("x, ys", [((0, 3), [(3, 3)]), ((2, 3), [(3, 3), (3, 0)])])
    def test_endpoint_on_axis_rejected(self, all_five, x, ys):
        with pytest.raises(ValueError, match="strictly inside"):
            martin_kernel_profile(all_five, x, ys, SimConfig(seed=1, n_paths=64))

    def test_converges_toward_harmonic_ratio(self, all_five, all_five_geom):
        from cornerwalk.compensation import build_sequence, harmonic_eval

        seq = build_sequence(all_five_geom, (0.0, 0.0), imin=2)
        ref = harmonic_eval(seq, 2, 3).value / harmonic_eval(seq, 1, 1).value
        est = martin_kernel_estimate(
            all_five, (2, 3), (10, 10), SimConfig(seed=2, n_paths=50000)
        )
        assert est.std_error > 0.0
        assert abs(est.mean - ref) / ref < 0.1


def visit_bounds_at(axis_bounds, zs, y):
    """_visit_bound at each lattice point of ``zs``, as a list of floats."""
    rows = [np.array([z[a] for z in zs], dtype=np.int32) for a in (0, 1)]
    return _visit_bound(axis_bounds, rows, y, np.ones(len(zs), dtype=bool)).tolist()


def gamblers_ruin(axis_bounds, z, y):
    """The smaller axis's gambler's-ruin bound at z, without the cut."""
    return min(g * c ** max(p - q, 0) for (c, g), p, q in zip(axis_bounds, z, y))


class TestVisitBound:
    """The gambler's-ruin bound on further visits, by which the visit
    engine retires rows and states its bias."""

    @pytest.mark.parametrize("law", ["fib", "all_five", "diag_heavy"])
    def test_bounds_exact_green_values(self, request, law):
        dist = request.getfixturevalue(law)
        axis_bounds = _law(dist, None).visit_bounds
        zs = [(1, 1), (2, 3), (4, 1)]
        for y in [(2, 2), (3, 3), (1, 4)]:
            for z, bound in zip(zs, visit_bounds_at(axis_bounds, zs, y)):
                exact = float(green_enum(exact_steps(dist), z, y, 24))
                assert exact <= bound, (z, y)

    @pytest.mark.parametrize("law", ["fib", "all_five", "diag_heavy", "big_jump"])
    def test_zero_past_the_anti_diagonal_and_bounds_elsewhere(self, request, law):
        # no step of a valid law lowers x + y, so a walk past y's
        # anti-diagonal never visits y: the bound is exactly 0 there
        dist = request.getfixturevalue(law)
        assert all(di + dj >= 0 for di, dj in dist.steps)
        axis_bounds = _law(dist, None).visit_bounds
        zs = [(1, 1), (2, 3), (4, 1), (3, 3), (5, 4), (6, 2)]
        for y in [(2, 2), (3, 2), (1, 4)]:
            for z, bound in zip(zs, visit_bounds_at(axis_bounds, zs, y)):
                exact = green_enum(exact_steps(dist), z, y, 10)
                if z[0] + z[1] > y[0] + y[1]:
                    assert exact == 0 and bound == 0.0, (z, y)
                else:
                    assert float(exact) <= bound, (z, y)
                    ruin = gamblers_ruin(axis_bounds, z, y)
                    assert bound == pytest.approx(ruin, rel=1e-15), (z, y)
        if law == "all_five":  # 0.278 by the gambler's-ruin bound alone
            assert gamblers_ruin(axis_bounds, (5, 4), (3, 2)) > 0.25

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

    @pytest.mark.parametrize("call, exponents", [
        ("scan", 940), ("martin", 318), ("twisted_green", 56_398)])
    def test_gamblers_ruin_term_gathers_only_rows_alive(
            self, fib, all_five, monkeypatch, call, exponents):
        # the term is computed only for the rows before the target's
        # anti-diagonal and alive from some start: counted per exponent
        # gathered (both axes), on the benchmark's visit-call shapes
        gathered = []
        powers = montecarlo._powers
        monkeypatch.setattr(montecarlo, "_powers",
                            lambda c, e: gathered.append(len(e)) or powers(c, e))
        if call == "scan":
            green_direction_scan(fib, (1, 1), (1.0, 1.0), (15, 22, 30),
                                 SimConfig(seed=1, n_paths=10_000))
        elif call == "martin":
            martin_kernel_profile(all_five, (2, 3), [(10, 10), (15, 15), (20, 20)],
                                  SimConfig(seed=1, n_paths=12_500))
        else:
            norm = math.hypot(2.0, 1.0)
            tw = cramer_transform(find_extrema(all_five), (2.0 / norm, 1.0 / norm))
            estimate_green(all_five, (2, 2), (3, 3),
                           SimConfig(seed=1, n_paths=131_072, horizon=4, twist=tw))
        assert sum(gathered) == exponents

    def test_nonpositive_drift_never_retires(self):
        # x-drift -1/4 <= 0: the x axis gives no bound (g = inf), so before
        # y's anti-diagonal the bound is the y term alone, and a row far
        # right of y never retires on x.  Singular steps and the
        # nondegenerate rule give m1 + m2 > 0, so no valid law has g = inf
        # on both axes
        dist = parse_model_text("-1 1 1/2\n1 -1 1/4\n0 1 1/4\n")
        require_valid(dist)
        (_, gx), (cy, gy) = axis_bounds = _law(dist, None).visit_bounds
        assert gx == math.inf and 0.0 < cy < 1.0 and gy < math.inf
        y = (3, 40)
        zs = [(30, 5), (38, 5), (3, 40), (5, 38), (1, 42), (40, 4)]
        got = visit_bounds_at(axis_bounds, zs, y)
        assert got[:4] == [gy] * 4
        assert got[4] == pytest.approx(gy * cy**2, rel=1e-15)
        assert got[5] == 0.0  # past the anti-diagonal
        assert min(got[:5]) > montecarlo._RETIRE_EPS

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
        both = _visit_walk(fib, [(1, 1)], [near, far], [[1.0, 1e6]], [200, 200], cfg)
        alone = _visit_walk(fib, [(1, 1)], [near], [[1.0]], [200], cfg)
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
            axis_bounds = _law(fib, None).visit_bounds
            assert est.bias_bound < visit_bounds_at(axis_bounds, [(1, 1)], (3, 3))[0]
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


class TestPowerTable:
    """_powers gathers c ** e from _power_table(c), cut after its first
    entry that rounds to 0.0, with the bits of numpy's elementwise power,
    by which the visit and exit bounds took them before the table."""

    # every length up to two AVX-512 vectors and one past, then a batch
    LENGTHS = (*range(1, 18), BATCH_SIZE)

    @staticmethod
    def roots(dist):
        """The exit roots and visit-bound roots of the law, plain and
        twisted toward (2, 1) and (1, 3)."""
        geom = find_extrema(dist)
        out = set()
        for u in (None, (2, 1), (1, 3)):
            twist = None if u is None else cramer_transform(
                geom, (u[0] / math.hypot(*u), u[1] / math.hypot(*u)))
            law = _law(dist, twist)
            out.update(law.roots)
            out.update(c for c, _ in law.visit_bounds)
        return sorted(out)

    @pytest.mark.parametrize("law", PIN_MODELS)
    def test_gather_has_the_bits_of_the_power(self, request, law):
        for c in self.roots(request.getfixturevalue(law)):
            table = montecarlo._power_table(c)
            # the first power that rounds to 0.0 ends the table
            assert 0.0 < c < 1.0 and table[-1] == 0.0 and table[-2] > 0.0
            exps = np.arange(2 * len(table) + 20)  # up to the cap and past it
            for n in self.LENGTHS:
                # the exponents cut into arrays of n, each raised on its own,
                # as int32 (as the bounds raised positions) and as intp
                e = np.resize(exps, max(n, len(exps) + (-len(exps)) % n))
                for dtype in (np.int32, np.intp):
                    e = e.astype(dtype)
                    want = np.concatenate([c ** w for w in e.reshape(-1, n)])
                    got = montecarlo._powers(c, e)
                    assert got.dtype == np.float64
                    assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (c, n)

    def test_negative_exponents_read_the_first_entry(self):
        # _powers(c, e) is c ** max(e, 0)
        e = np.array([-5, -1, 0, 1, 3], dtype=np.intp)
        np.testing.assert_array_equal(
            montecarlo._powers(0.5, e), 0.5 ** np.maximum(e, 0))

    def test_unit_root_and_roots_too_near_1(self):
        # every power of 1.0 is 1.0: a table of one entry
        np.testing.assert_array_equal(montecarlo._power_table(1.0), [1.0])
        e = np.array([0, 7, 2**31 - 1], dtype=np.int32)
        np.testing.assert_array_equal(montecarlo._powers(1.0, e), [1.0] * 3)
        # a root whose powers reach 0.0 only past _POWERS_MAX entries takes
        # the power itself, without a table
        c = 1.0 - 1e-6
        assert montecarlo._power_table(c) is None
        np.testing.assert_array_equal(montecarlo._powers(c, e), c ** e)


class TestSurvivalBlocks:
    """Survival runs draw blocks of 8, 16, then 32 steps, so a row
    absorbed in its first few steps stops drawing after 8, and a row
    absorbed or retired later draws at most 31 steps past it."""

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
        assert [blk for _, blk in drawn_blocks] == [8, 16, 32, 32, 32, 30]

    # Row-steps drawn by the survival calls of the escape_mc benchmark: a
    # function of the stream alone, so the same on any number of cores.
    @pytest.mark.parametrize("name, run, seed, n_paths, horizon, row_steps", [
        ("fib", "escape", 101, 8192, 1000, 204_080),
        ("big_jump", "escape", 101, 16384, 500, 265_600),
        ("fib", 1, 101, 16384, 1000, 757_952),
        ("fib", 3, 101, 16384, 1000, 1_183_168),
        ("fib", "escape", 7, 32768, 1000, 804_128),
    ], ids=["fibonacci_escape", "big_jump_escape", "fibonacci_halfplane_1",
            "fibonacci_halfplane_3", "fibonacci_escape_cli"])
    def test_row_steps(self, fib, big_jump, drawn_blocks,
                       name, run, seed, n_paths, horizon, row_steps):
        dist = {"fib": fib, "big_jump": big_jump}[name]
        cfg = SimConfig(seed=seed, n_paths=n_paths, horizon=horizon)
        if run == "escape":
            estimate_escape(dist, (1, 1), cfg)
        else:
            estimate_halfplane_survival(dist, run, cfg)
        assert sum(rows * blk for rows, blk in drawn_blocks) == row_steps


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

    @pytest.mark.parametrize("law", ["fib", "diag_heavy", "all_five_twisted", "big_jump"])
    @pytest.mark.parametrize("blk", [1, 64])
    @pytest.mark.parametrize("subset", [False, True])
    def test_matches_cumsum_reference(self, fib, diag_heavy, all_five, big_jump,
                                      all_five_geom, law, blk, subset):
        dist, twist = {
            "fib": (fib, None),
            "diag_heavy": (diag_heavy, None),
            "big_jump": (big_jump, None),  # jumps of 2: int16 offsets
            "all_five_twisted": (
                all_five, cramer_transform(all_five_geom, (0.8, 0.6))),
        }[law]
        sampler = _StepSampler(_law(dist, twist), 300, 200)
        assert sampler.law.trivial == (law in ("fib", "big_jump"))
        # subset: a draw for fewer rows than the sampler was sized for, as
        # once the engines have dropped rows
        rows = 43 if subset else 300
        offs = per_axis(sampler.offsets(_batch_rng(5, 0), rows, blk))
        ref = self.reference(dist, twist, _batch_rng(5, 0).random((rows, blk)))
        for off, r in zip(offs, ref):
            assert off.dtype == (np.int8 if max(map(max, dist.steps)) <= 1 else np.int16)
            assert off.shape == (blk, rows)
            np.testing.assert_array_equal(off, r.T)

    @pytest.mark.parametrize("step, dtype, end", [
        ((1, 1), np.int8, 64), ((2, 2), np.int16, 128), ((-1, -1), np.int8, -64)])
    def test_block_reaches_the_end_of_its_range(self, step, dtype, end):
        # one step, taken 64 times: the farthest a block's offsets can go
        dist = StepDistribution.from_pairs({step: 1})
        offs = per_axis(_StepSampler(_law(dist, None), 50, 64).offsets(
            _batch_rng(5, 0), 50, 64))
        ref = np.cumsum(np.full((64, 50), step[0], dtype=np.int64), axis=0)
        assert ref[-1, 0] == end
        for off in offs:
            assert off.dtype == dtype
            np.testing.assert_array_equal(off, ref)

    @pytest.mark.parametrize("law", ["fib", "diag_heavy", "all_five_twisted", "big_jump"])
    @pytest.mark.parametrize("blk", [1, 38, 64])
    @pytest.mark.parametrize("w", [1, 2, 3])
    @pytest.mark.parametrize("chunk", [1000, None])  # None: the module's own
    def test_chunk_seams_match_cumsum_reference(self, fib, diag_heavy, all_five, big_jump,
                                                all_five_geom, shards, monkeypatch,
                                                law, blk, w, chunk):
        dist, twist = {
            "fib": (fib, None),
            "diag_heavy": (diag_heavy, None),
            "big_jump": (big_jump, None),
            "all_five_twisted": (
                all_five, cramer_transform(all_five_geom, (0.8, 0.6))),
        }[law]
        if chunk is not None:
            monkeypatch.setattr(montecarlo, "_CHUNK", chunk)
        shards(w)
        per_chunk = montecarlo._CHUNK // blk
        # every shard spans three whole chunks and a ragged fourth of 2 or 3 rows
        rows = w * (3 * per_chunk + 2) + 1
        cuts = montecarlo._cuts(rows, blk)
        assert all(3 * per_chunk < b - a < 4 * per_chunk for a, b in zip(cuts, cuts[1:]))
        sampler = _StepSampler(_law(dist, twist), rows, blk)
        rng = _batch_rng(5, 0)
        offs = per_axis(sampler.offsets(rng, rows, blk))
        ref_rng = _batch_rng(5, 0)
        ref = self.reference(dist, twist, ref_rng.random((rows, blk)))
        for off, r in zip(offs, ref):
            np.testing.assert_array_equal(off, r.T)
        # the draw leaves the stream where one serial draw does
        assert philox_state(rng) == philox_state(ref_rng)

    def test_buffers_do_not_scale_with_the_block(self, all_five, all_five_geom):
        # a twisted law takes the alias path, which uses every buffer
        law = _law(all_five, cramer_transform(all_five_geom, (0.8, 0.6)))
        tracemalloc.start()
        try:
            sampler = _StepSampler(law, BATCH_SIZE, 64)
            offs = sampler.offsets(_batch_rng(5, 0), BATCH_SIZE, 64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert not sampler.law.trivial
        per_shard = montecarlo._CHUNK * 25  # float64 u and accept, intp code, int8
        bufs = sum(a.nbytes for b in sampler._bufs for a in b)
        assert 0 < bufs <= montecarlo._CORES * per_shard
        # only the offsets grow with rows * blk: 8 MB here, against about
        # 1.6 MB of buffers per shard
        returned = sum(off.nbytes for off in offs)
        assert returned == 2 * BATCH_SIZE * 64
        assert peak <= returned + bufs + (1 << 20)

    def test_code_stays_below_k(self):
        # A Generator's largest uniform is (2**53 - 1) / 2**53, and
        # (1 - 2**-53) * K rounds below K for every K, so offsets() casts
        # u * K to at most K - 1 without a clamp.
        top = 1.0 - 2.0**-53
        assert top == np.nextafter(1.0, 0.0)
        ks = np.arange(1, 4097)
        v = np.full(len(ks), top)
        v *= ks  # the product offsets() forms
        assert (v < ks).all()
        np.testing.assert_array_equal(v.astype(np.intp), ks - 1)


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
        sampled = _law(dist, twist)

        def draw(w, pre, half):
            shards(w)
            sampler = _StepSampler(sampled, rows, blk)
            rng = _batch_rng(5, 0)
            rng.bit_generator.random_raw(pre)  # start at buffer position pre
            if half:  # a 32-bit draw holds back the other half of its output
                rng.integers(2**32, dtype=np.uint32)
            offs = (per_axis(sampler.offsets(rng, rows, blk))
                    + per_axis(sampler.offsets(rng, rows - 1, blk)))
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
                                                big_jump, shards, w):
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
            # int16 offsets
            lambda: martin_kernel_profile(big_jump, (2, 3), [(6, 6), (9, 9)],
                                          SimConfig(seed=8, n_paths=5000)),
            lambda: green_direction_scan(fib, (1, 1), (1.0, 1.0), (6, 9),
                                         SimConfig(seed=9, n_paths=3000)),
        ]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            shards(1)
            serial = [run() for run in runs]
            # 256 uniforms a shard: every block but the smallest is cut
            shards(w, 256)
            assert [run() for run in runs] == serial
        finally:
            sys.setswitchinterval(old)

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


class TestVisitMatching:
    """A visit from a start counts at a step only while the row is alive
    from that start: checked against a per-row loop over the same draws."""

    @pytest.mark.parametrize("w", [1, 2, 3])
    def test_visits_match_a_per_row_loop(self, shards, w):
        # weak drift (exit roots 9/11): many rows hit an axis and step
        # back onto the target within the one 64-step block
        dist = parse_model_text(sf2_model_text(Fraction(1, 10)))
        starts, y, seed, n = [(1, 2), (3, 2)], (2, 3), 12, 3000
        shards(w, 256)
        sums, sqs, crosses, _, _, _ = _visit_walk(
            dist, starts, [y], [[1.0], [1.0]], [64], SimConfig(seed=seed, n_paths=n))
        offs = per_axis(_StepSampler(_law(dist, None), n, 64).offsets(
            _batch_rng(seed, 0), n, 64))
        path = np.stack([off.T for off in offs], axis=-1).tolist()  # [row][t] -> (dx, dy)
        visits = np.zeros((2, n), dtype=np.int64)
        late = early = 0  # rows on y after, and before, their absorption step
        for si, (x0, y0) in enumerate(starts):
            for r in range(n):
                absorbed = False
                for dx, dy in path[r]:
                    px, py = x0 + dx, y0 + dy
                    absorbed = absorbed or px <= 0 or py <= 0
                    if (px, py) == y:
                        if absorbed:
                            late += 1
                        else:
                            visits[si, r] += 1
                if absorbed and visits[si, r]:
                    early += 1
        assert late > 0 and early > 0
        for si in range(2):
            assert sums[si][0] == visits[si].sum()
            assert sqs[si][0] == (visits[si] ** 2).sum()
        assert crosses[0] == (visits[0] * visits[1]).sum()


def per_row_walk(dist, starts, ys, horizons, seed, n):
    """What _walk returns for one batch of n rows, taken row by row and
    step by step over the draws of the blocks _walk cuts: each target
    stops at its own horizon, where its rows still open are counted and
    bounded; after every block a row retires from a target once its
    _visit_bound is below _RETIRE_EPS from every start alive in it; only
    the rows alive from some start and open for some target draw the
    next block.  Returns (visits[si, ti, row], open_counts[si, ti],
    bounds[si][ti] as lists of per-row terms, visits made after the
    first horizon)."""
    law = _law(dist, None)
    # c ** k gathered from a table of c ** arange: numpy's power, as
    # _visit_bound takes it
    tables = [(c ** np.arange(4 * max(horizons)), g) for c, g in law.visit_bounds]

    def bound(z, y):
        if z[0] + z[1] > y[0] + y[1]:
            return 0.0
        return min(g * table[max(p - q, 0)] for (table, g), p, q in zip(tables, z, y))

    n_s, n_t = len(starts), len(ys)
    rng, sampler = _batch_rng(seed, 0), _StepSampler(law, n, max(horizons))
    pos = [[tuple(s) for s in starts] for _ in range(n)]
    alive = [[True] * n_s for _ in range(n)]
    open_ = [[True] * n_t for _ in range(n)]
    visits = np.zeros((n_s, n_t, n), dtype=np.int64)
    open_counts = np.zeros((n_s, n_t), dtype=np.int64)
    bounds = [[[] for _ in ys] for _ in starts]
    late, rows, t = 0, list(range(n)), 0
    while t < max(horizons) and rows:
        blk = min(_BLOCK, min(h for h in horizons if h > t) - t)
        offs = per_axis(sampler.offsets(rng, len(rows), blk))
        path = np.stack([off.T for off in offs], axis=-1).tolist()  # [row][t] -> (dx, dy)
        for k, r in enumerate(rows):
            for si, (x0, y0) in enumerate(pos[r]):
                for dx, dy in path[k]:
                    px, py = x0 + dx, y0 + dy
                    alive[r][si] = alive[r][si] and px > 0 and py > 0
                    for ti, y in enumerate(ys):
                        if alive[r][si] and open_[r][ti] and (px, py) == y:
                            visits[si, ti, r] += 1
                            late += t >= min(horizons)
                pos[r][si] = (px, py)
        t += blk
        for r in rows:
            live = [si for si in range(n_s) if alive[r][si]]
            for ti, y in enumerate(ys):
                if not open_[r][ti]:
                    continue
                b = [bound(z, y) for z in pos[r]]
                retired = all(b[si] < _RETIRE_EPS for si in live)
                if retired or horizons[ti] == t:
                    for si in live:
                        bounds[si][ti].append(b[si])
                        open_counts[si, ti] += not retired
                    open_[r][ti] = False
        rows = [r for r in rows if any(alive[r]) and any(open_[r])]
    return visits, open_counts, bounds, late


class TestTargetHorizons:
    """Each target of a walk stops at its own horizon: the block that
    reaches it is cut there, and the target's rows still open are counted
    and bounded there, as at the end of a walk with one horizon."""

    STARTS, YS, HORIZONS = [(2, 3), (4, 3)], [(4, 5), (6, 7)], [30, 100]
    SEED, N = 13, 1500

    @pytest.fixture(scope="class")
    def weak(self):
        # weak drift (exit roots 9/11): x + y moves only on the rare
        # (1, 1) step, so rows stay open for (4, 5) up to step 30 and for
        # (6, 7) long past it
        return parse_model_text(sf2_model_text(Fraction(1, 10)))

    @pytest.fixture(scope="class")
    def reference(self, weak):
        return per_row_walk(weak, self.STARTS, self.YS, self.HORIZONS, self.SEED, self.N)

    @pytest.mark.parametrize("w", [1, 2, 3])
    def test_moments_and_bounds_match_a_per_row_loop(self, shards, weak, reference, w):
        visits, open_counts, bounds, late = reference
        assert late > 0  # visits to (6, 7) after the first target stopped
        assert open_counts[:, 0].any()  # rows still open at step 30
        shards(w, 256)
        sums, sumsqs, _, opens, bnds, _ = _visit_walk(
            weak, self.STARTS, self.YS, [[1.0, 1.0], [1.0, 1.0]], self.HORIZONS,
            SimConfig(seed=self.SEED, n_paths=self.N))
        for si in range(2):
            for ti in range(2):
                v = visits[si, ti]
                assert sums[si][ti] == v.sum()
                assert sumsqs[si][ti] == (v * v).sum()
                assert opens[si][ti] == open_counts[si, ti]
                assert bnds[si][ti] == pytest.approx(math.fsum(bounds[si][ti]),
                                                     rel=1e-12, abs=0.0)

    def test_blocks_are_cut_at_each_horizon(self, weak, drawn_blocks):
        _visit_walk(weak, self.STARTS, self.YS, [[1.0, 1.0], [1.0, 1.0]], self.HORIZONS,
                    SimConfig(seed=self.SEED, n_paths=self.N))
        assert [blk for _, blk in drawn_blocks] == [30, 64, 6]

    def test_a_target_stopped_in_the_first_block_keeps_its_bits(self, weak):
        x, n = self.STARTS[0], self.N
        cfg = SimConfig(seed=self.SEED, n_paths=n)
        both = _visit_walk(weak, [x], self.YS, [[1.0, 1.0]], self.HORIZONS, cfg)
        alone = _visit_walk(weak, [x], self.YS[:1], [[1.0]], [30], cfg)
        est = estimate_green(weak, x, self.YS[0], dataclasses.replace(cfg, horizon=30))
        assert est.censored_fraction > 0.0
        assert _green_estimate(both, 0, 1.0, 30, n) == est
        assert _green_estimate(alone, 0, 1.0, 30, n) == est


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

    def test_points_of_distinct_twists_have_the_bits_of_estimate_green(
            self, fib, fib_geom):
        x, cfg = (1, 1), SimConfig(seed=14, n_paths=3000)
        pts = green_direction_scan(fib, x, (1.0, 2.0), [5, 6], cfg)
        assert [p.y for p in pts] == [(2, 4), (3, 5)]
        twists = [cramer_transform(fib_geom, (p.y[0] / p.norm, p.y[1] / p.norm))
                  for p in pts]
        assert _law(fib, twists[0]) is not _law(fib, twists[1])  # each walks alone
        for p, tw in zip(pts, twists):
            est = estimate_green(fib, x, p.y, dataclasses.replace(cfg, twist=tw))
            corr = math.sqrt(p.norm) * _twist_weight(tw, p.y, x)
            assert (p.value, p.std_error, p.horizon) == (
                corr * est.mean, corr * est.std_error, est.horizon)

    def test_radii_rounding_to_one_point_give_equal_points(self, fib):
        cfg = SimConfig(seed=15, n_paths=3000)
        pts = green_direction_scan(fib, (1, 1), (1.0, 1.0), [10, 6, 10.2], cfg)
        assert pts[0].y == pts[2].y == (7, 7)
        assert dataclasses.replace(pts[2], radius=10.0) == pts[0]

    def test_a_point_stopped_in_the_first_block_keeps_its_bits(self, fib, fib_geom):
        # (4, 4) and (7, 7) share the diagonal's twist, so one walk; (4, 4)
        # stops at step 60, inside its first block
        cfg = SimConfig(seed=11, n_paths=20000)
        pts = green_direction_scan(fib, (1, 1), (1.0, 1.0), [6, 10], cfg)
        laws = {_law(fib, cramer_transform(fib_geom, (p.y[0] / p.norm, p.y[1] / p.norm)))
                for p in pts}
        assert len(laws) == 1
        assert pts[0] == green_direction_scan(fib, (1, 1), (1.0, 1.0), [6], cfg)[0]
        assert repr(pts[0].value) == "0.3647298221713345"

    def test_direction_validated(self, fib):
        cfg = SimConfig(seed=0, n_paths=16)
        for u in [(0.0, 1.0), (1.0, 0.0), (1.0, -0.2), (0.0, 0.0)]:
            with pytest.raises(ValueError, match="direction"):
                green_direction_scan(fib, (1, 1), u, [5], cfg)
        with pytest.raises(ValueError, match="positive"):
            green_direction_scan(fib, (1, 1), (1.0, 1.0), [0], cfg)

    def test_non_finite_input_rejected(self, fib):
        cfg = SimConfig(seed=0, n_paths=16)
        for u in [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan)]:
            with pytest.raises(ValueError, match="finite"):
                green_direction_scan(fib, (1, 1), u, [5], cfg)
        for radii in [[math.inf], [5, math.nan]]:
            with pytest.raises(ValueError, match="radii"):
                green_direction_scan(fib, (1, 1), (1.0, 1.0), radii, cfg)


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


class TestExitRootNoRootBelowOne:
    def test_law_summing_above_one_has_root_one(self):
        # the masses sum to 1 + 2**-53, so psi(c) = sum_d P(d) c^d - 1 is
        # positive on all of (0, 1]: the section minimum, excess included,
        # is >= 0 although the drift 1e-10 is above the zero-drift cut
        probs = np.array([0.5 - 5e-11, math.nextafter(0.5 + 5e-11, 2.0)])
        assert sum(map(Fraction, probs.tolist())) == 1 + Fraction(1, 2**53)
        steps = np.array([[0, -1], [0, 1]], dtype=np.int32)
        assert _exit_root(steps, probs, 1) == 1.0


class TestExitRootsPerLaw:
    """Within one model object each distinct marginal of a sampled law is
    solved once, whichever estimators ask for it and however often; a
    fresh parse, and each new twist, solves again."""

    @pytest.fixture
    def solves(self, monkeypatch):
        calls = []
        exit_root = montecarlo._exit_root

        def counting(steps, probs, axis):
            calls.append(axis)
            return exit_root(steps, probs, axis)

        monkeypatch.setattr(montecarlo, "_exit_root", counting)
        return calls

    @staticmethod
    def run_all(dist, twist=None):
        cfg = SimConfig(seed=1, n_paths=64, horizon=8, twist=twist)
        estimate_halfplane_survival(dist, 2, cfg)
        estimate_escape(dist, (1, 1), cfg)
        estimate_green(dist, (1, 1), (3, 3), cfg)
        martin_kernel_profile(dist, (2, 2), [(3, 3)], cfg)

    def test_equal_marginals_solved_once(self, solves, monkeypatch):
        validations = []
        validate = model.validate_model
        monkeypatch.setattr(model, "validate_model",
                            lambda d: validations.append(d) or validate(d))
        fib = parse_model_text(FIB_TEXT)
        for _ in range(2):
            self.run_all(fib)
        assert skipfree_exit_root(fib) == montecarlo._law(fib, None).roots[1]
        assert len(solves) == 1
        assert len(validations) == 1

    def test_distinct_marginals_solved_each(self, lopsided, solves):
        dist = dataclasses.replace(lopsided)  # an object with an empty memo
        self.run_all(dist)  # half-plane survival first: both axes still solve
        assert solves == [0, 1]
        self.run_all(dist)
        skipfree_exit_root(dist)
        assert solves == [0, 1]
        law = montecarlo._law(dist, None)
        assert law.roots == (
            _exit_root(law.steps, law.probs, 0), _exit_root(law.steps, law.probs, 1)
        )

    def test_fresh_parse_and_new_twist_solve_again(self, solves):
        fib = parse_model_text(FIB_TEXT)
        self.run_all(fib)
        assert len(solves) == 1
        again = parse_model_text(FIB_TEXT)
        assert again == fib
        self.run_all(again)
        assert len(solves) == 2
        geom = find_extrema(fib)
        for u in [(0.6, 0.8), (0.8, 0.6)]:
            twist = cramer_transform(geom, u)
            before = len(solves)
            self.run_all(fib, twist)
            assert len(solves) > before  # a new twisted law
            before = len(solves)
            # a twist solved anew to the same phi bits is the same law
            self.run_all(fib, cramer_transform(find_extrema(fib), u))
            skipfree_exit_root(fib, twist)
            assert len(solves) == before

    def test_memo_holds_only_the_law(self, all_five, all_five_geom):
        dist = dataclasses.replace(all_five)
        twist = cramer_transform(all_five_geom, (0.8, 0.6))
        for n_paths, horizon in [(64, 8), (3000, 200)]:
            cfg = SimConfig(seed=2, n_paths=n_paths, horizon=horizon, twist=twist)
            estimate_green(dist, (1, 1), (4, 4), cfg)
            martin_kernel_profile(dist, (2, 3), [(6, 6)],
                                  dataclasses.replace(cfg, twist=None))
        assert set(dist._memo) == {"report", None, tuple(map(float.hex, twist.phi))}
        k = len(dist.steps)
        for key, law in dist._memo.items():
            if key == "report":
                assert law.passed
                continue
            for a in (law.steps, law.probs, law.accept, law.tables):
                assert not a.flags.writeable
                assert a.size <= 4 * k
        # the memo is outside equality, hash and repr
        assert dist == all_five and hash(dist) == hash(all_five)
        assert "_memo" not in repr(dist)
        assert dataclasses.replace(dist)._memo == {}


class TestLawMemoBits:
    """A warm memo gives the bits of a cold one, in one thread or two."""

    @pytest.fixture
    def fresh(self, fib, all_five, diag_heavy, big_jump):
        """Model objects with empty memos, as tests/test_stream_contract.py
        names them."""
        return lambda: {
            "fib": dataclasses.replace(fib), "all_five": dataclasses.replace(all_five),
            "diag_heavy": dataclasses.replace(diag_heavy),
            "big_jump": dataclasses.replace(big_jump),
            "weak_drift": parse_model_text(sf2_model_text(Fraction(1, 10))),
        }

    @pytest.mark.parametrize("case", sorted(ESTIMATES))
    def test_second_call_gives_the_pinned_bits(self, fresh, case):
        models = fresh()
        assert all(m._memo == {} for m in models.values())
        assert repr(ESTIMATES[case](models)) == EXPECTED[case]  # cold
        assert repr(ESTIMATES[case](models)) == EXPECTED[case]  # warm

    def test_two_threads_on_one_fresh_object(self, fresh):
        cases = ["escape_twisted", "green_twisted", "martin_all_five",
                 "escape_fibonacci", "martin_fibonacci_base_dies"]
        models = fresh()
        barrier = threading.Barrier(2)
        got = [{}, {}]

        def run(t):
            barrier.wait()
            for case in cases[t::2] + cases[1 - t::2]:
                got[t][case] = repr(ESTIMATES[case](models))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(t,)) for t in (0, 1)]
            for th in threads:
                th.start()
            for th in threads:
                th.join()
        finally:
            sys.setswitchinterval(old)
        for g in got:
            assert g == {case: EXPECTED[case] for case in cases}


class TestScanRule:
    """Blocks below _SCAN_ROWS rows are scanned by one accumulate call,
    wider ones by running row operations: both give np.cumsum and
    np.minimum.accumulate bit for bit, on either side of the cut."""

    @pytest.mark.parametrize("law", ["fib", "all_five_twisted", "big_jump",
                                     "plus_64", "minus_64", "up_4096"])
    @pytest.mark.parametrize("side", [-1, 0])
    def test_offsets_and_minima_match_numpy(self, fib, all_five, big_jump,
                                            all_five_geom, law, side):
        dist, twist = {
            "fib": (fib, None),
            "all_five_twisted": (all_five, cramer_transform(all_five_geom, (0.8, 0.6))),
            "big_jump": (big_jump, None),
            # one step taken 64 times: the ends of the int16 offsets' range
            "plus_64": (StepDistribution.from_pairs({(1, 2): 1}), None),
            "minus_64": (StepDistribution.from_pairs({(2, -1): 1}), None),
            "up_4096": (StepDistribution.from_pairs({(64, 64): 1}), None),
        }[law]
        rows = montecarlo._SCAN_ROWS + side
        sampled = _law(dist, twist)
        assert sampled.dtype == (np.int8 if law in ("fib", "all_five_twisted") else np.int16)
        offs = per_axis(_StepSampler(sampled, rows, 64).offsets(_batch_rng(5, 0), rows, 64))
        ref = TestStepSampler.reference(dist, twist, _batch_rng(5, 0).random((rows, 64)))
        for off, r in zip(offs, ref):
            np.testing.assert_array_equal(off, r.T)
            low = montecarlo._running_min(off)
            assert low.dtype == off.dtype
            np.testing.assert_array_equal(low, np.minimum.accumulate(r.T, axis=0))
        ends = {"plus_64": 64, "minus_64": -64, "up_4096": 4096}
        if law in ends:
            assert ends[law] in (offs[0][-1, 0], offs[1][-1, 0])


class TestNarrow:
    """_narrow gives -c and q - c clipped into the offsets' dtype, and a
    clipped threshold lies outside every offset a block can reach."""

    @pytest.mark.parametrize("dtype, reach", [(np.int8, (-64, 64)),
                                              (np.int16, (-64, 4096))])
    def test_matches_clip_and_misses_every_reachable_offset(self, dtype, reach):
        info = np.iinfo(dtype)
        edges = [v + d for v in (info.min, info.max, *reach) for d in (-2, -1, 0, 1, 2)]
        far = [2**30 - 1, 2**30 - 200, 2**20, 70000]
        c = np.array([*edges, *(-v for v in edges), *far, *(-v for v in far), 0, 1],
                     dtype=np.int32)
        qs = [1, 2, 40, 4096, info.max, 2**20, 2**30 - 1]
        got = montecarlo._narrow(c, qs, dtype)
        wide = np.stack([-c.astype(np.int64)] + [q - c.astype(np.int64) for q in qs])
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, np.clip(wide, info.min, info.max))
        clipped = (wide < info.min) | (wide > info.max)
        assert clipped.any() and not clipped.all()
        lo, hi = reach
        assert not ((got[clipped] >= lo) & (got[clipped] <= hi)).any()


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
