import copy
import dataclasses
import math
import pickle
import random
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from cornerwalk import compensation
from cornerwalk.compensation import (
    HarmonicValue,
    PrecisionWarning,
    boundary_harmonic,
    build_sequence,
    canonicalize_start,
    escape_probability,
    harmonic_eval,
)
from cornerwalk.curve import (
    SolverError,
    cramer_transform,
    f_branch,
    f_hat,
    find_extrema,
    g_branch,
)
from cornerwalk.model import InvalidModelError, StepDistribution, drift

from oracles import fib_boundary_harmonic, fib_escape_exact, fib_numbers

# frozen escape values for the three-diagonal-step model; the exact
# rational oracle below reproduces them, these literals guard against
# both implementations drifting together
FIB_H11 = 0.17317888355122063
FIB_H32 = 0.6319349959640216
FIB_H1010 = 0.9980468752


def fib_seq(geom, imin=2, tol=1e-14):
    return build_sequence(geom, (0.0, 0.0), truncation_tol=tol, imin=imin)


class TestSequence:
    def test_origin_start_is_fixed(self, fib_geom):
        seq = fib_seq(fib_geom)
        assert seq.a(0) == 0.0
        assert seq.b(0) == 0.0

    def test_parameters_are_reciprocal_fibonacci(self, fib_geom):
        F = fib_numbers(40)
        seq = fib_seq(fib_geom)
        for n in range(-4, 5):
            assert seq.a(n) == pytest.approx(-math.log(F[abs(4 * n - 1)]), abs=1e-11)
            assert seq.b(n) == pytest.approx(-math.log(F[abs(4 * n + 1)]), abs=1e-11)

    def test_interlacing(self, all_five_geom):
        seq = build_sequence(all_five_geom, (0.0, 0.0), imin=2)
        for n in range(0, seq.n_max):
            assert seq.b(n) > seq.a(n + 1) > seq.b(n + 1)
        for n in range(seq.n_min, 0):
            assert seq.a(n + 1) > seq.b(n) > seq.a(n)

    def test_index_bounds_enforced(self, fib_geom):
        seq = fib_seq(fib_geom)
        with pytest.raises(IndexError):
            seq.a(seq.n_max + 2)
        with pytest.raises(IndexError):
            seq.b(seq.n_min - 1)

    def test_start_outside_G0_rejected(self, fib_geom):
        with pytest.raises(ValueError, match="G0"):
            build_sequence(fib_geom, (-1.0, -1.2), imin=2)

    @pytest.mark.parametrize("kwargs, match", [
        ({"imin": 0}, "imin"),
        ({"truncation_tol": 0.0}, "truncation_tol"),
        ({"truncation_tol": math.nan}, "truncation_tol"),
    ])
    def test_bad_build_arguments_rejected(self, fib_geom, kwargs, match):
        with pytest.raises(ValueError, match=match):
            build_sequence(fib_geom, (0.0, 0.0), **kwargs)

    def test_big_jump_model_builds(self, big_jump_geom):
        seq = build_sequence(big_jump_geom, (0.0, 0.0), imin=2)
        assert seq.n_max >= 1 and seq.n_min <= -1


class TestCanonicalize:
    def test_point_in_G0_returned(self, fib_geom):
        x = fib_geom.x0 / 2
        p = canonicalize_start(fib_geom, (x, f_branch(fib_geom, x)))
        assert p == pytest.approx((x, f_branch(fib_geom, x)), abs=1e-9)

    def test_deep_start_single_forward_switch(self, fib_geom):
        # a point on the far tail of the f-graph: one switch of the first
        # coordinate lands it on the g-graph inside G0
        x = fib_geom.x0 - fib_geom.c1 - fib_geom.c2
        y = f_branch(fib_geom, x)
        a, b = canonicalize_start(fib_geom, (x, y))
        assert b == pytest.approx(y, abs=1e-12)
        assert a == pytest.approx(g_branch(fib_geom, y), abs=1e-9)

    def test_deep_start_reappears_in_chain(self, fib_geom):
        x = fib_geom.x0 - fib_geom.c1 - fib_geom.c2
        y = f_branch(fib_geom, x)
        start = canonicalize_start(fib_geom, (x, y))
        seq = build_sequence(fib_geom, start, imin=2)
        # the pre-switch point comes back as the (a_{n+1}, b_n) pair at n=0
        assert seq.a(1) == pytest.approx(x, abs=1e-9)
        assert seq.b(0) == pytest.approx(y, abs=1e-9)

    def test_positive_height_start(self, fib_geom):
        b = 0.05
        a = f_hat(fib_geom, b)
        pa, pb = canonicalize_start(fib_geom, (a, b))
        assert fib_geom.x0 < pa <= 1e-7
        assert pb == pytest.approx(b, abs=1e-12)

    def test_branch_maximum_degenerate(self, fib_geom):
        with pytest.raises(ValueError, match="degenerate"):
            canonicalize_start(fib_geom, (fib_geom.x0, fib_geom.f_at_x0))
        with pytest.raises(ValueError, match="degenerate"):
            canonicalize_start(fib_geom, (fib_geom.g_at_y0, fib_geom.y0))

    def test_off_curve_rejected(self, fib_geom):
        with pytest.raises(ValueError, match="curve"):
            canonicalize_start(fib_geom, (-0.1, 0.3))


class TestHarmonicEval:
    def test_frozen_values(self, fib_geom):
        seq = fib_seq(fib_geom)
        assert harmonic_eval(seq, 1, 1).value == pytest.approx(FIB_H11, abs=1e-12)
        assert harmonic_eval(seq, 3, 2).value == pytest.approx(FIB_H32, abs=1e-12)
        assert harmonic_eval(seq, 10, 10).value == pytest.approx(FIB_H1010, abs=1e-10)

    def test_matches_exact_rational_series(self, fib_geom):
        seq = fib_seq(fib_geom)
        for i, j in [(1, 1), (1, 2), (2, 2), (4, 1), (3, 5), (7, 7)]:
            exact = float(fib_escape_exact(i, j))
            got = harmonic_eval(seq, i, j)
            assert got.value == pytest.approx(exact, abs=1e-13 + got.tail_bound)

    def test_dirichlet_axes_exact_zero(self, fib_geom):
        seq = fib_seq(fib_geom)
        for k in range(0, 51, 7):
            for got in (harmonic_eval(seq, k, 0), harmonic_eval(seq, 0, k)):
                assert got.value == 0.0
                assert got.tail_bound == 0.0

    def test_degree_below_imin_rejected(self, fib_geom):
        seq = fib_seq(fib_geom, imin=5)
        with pytest.raises(ValueError, match="imin"):
            harmonic_eval(seq, 1, 1)

    def test_negative_coordinates_rejected(self, fib_geom):
        seq = fib_seq(fib_geom)
        with pytest.raises(ValueError):
            harmonic_eval(seq, -1, 2)

    @staticmethod
    def half_height_seq(geom):
        # a start below the lower branch maximum, whose series grows like
        # exp(i * a0) along the horizontal boundary
        y = geom.y0 / 2
        return build_sequence(geom, (g_branch(geom, y), y), imin=2)

    def test_beyond_float_range_is_a_solver_error(self, fib_geom):
        seq = self.half_height_seq(fib_geom)
        assert harmonic_eval(seq, 7959, 5).value == pytest.approx(1.298e308, rel=1e-3)
        # a term's exp overflows
        with pytest.raises(SolverError, match=r"\(7970, 5\) exceeds the float range"):
            harmonic_eval(seq, 7970, 5)
        # the series decays like exp(j * b0) up the vertical axis and would
        # read an exact 0.0, with a zero tail bound, once every term underflows
        assert harmonic_eval(seq, 5, 5000).value > 0.0
        for j in (7000, 7970):
            message = rf"\(5, {j}\) underflows the float range"
            with pytest.raises(SolverError, match=message):
                harmonic_eval(seq, 5, j)

    @pytest.mark.parametrize("stage", ["fsum", "log-space tail", "infinite tail"])
    def test_overflow_past_the_terms_is_a_solver_error(self, fib_geom, monkeypatch,
                                                       stage):
        # no start of the pin models reaches these past the terms, so each
        # stage is made to overflow as it would
        seq = self.half_height_seq(fib_geom)

        def overflow(*args):
            raise OverflowError("math range error")

        if stage == "fsum":
            monkeypatch.setattr(math, "fsum", overflow)
        elif stage == "log-space tail":
            monkeypatch.setattr(compensation, "_tail_pieces", overflow)
        else:
            monkeypatch.setattr(compensation, "_tail_pieces",
                                lambda *args: (math.inf, 0.0))
        with pytest.raises(SolverError, match=r"\(7959, 5\) exceeds the float range"):
            harmonic_eval(seq, 7959, 5)

    def test_tail_bound_is_honest(self, fib_geom):
        rough = fib_seq(fib_geom, tol=1e-8)
        sharp = fib_seq(fib_geom, tol=1e-16)
        for i, j in [(1, 1), (2, 3), (5, 1)]:
            r, s = harmonic_eval(rough, i, j), harmonic_eval(sharp, i, j)
            assert abs(r.value - s.value) <= r.tail_bound + 1e-15

    @staticmethod
    def cut_to_n_max_1(seq, **changes):
        # a_vals spans [n_min, n_max+1], b_vals spans [n_min, n_max]
        return dataclasses.replace(
            seq, n_max=1, a_vals=seq.a_vals[: 3 - seq.n_min],
            b_vals=seq.b_vals[: 2 - seq.n_min], **changes,
        )

    @staticmethod
    def pin(hv):
        return hv.value.hex(), hv.tail_bound.hex(), hv.terms_used

    # the cut sequences' values, summed over their clipped ranges
    CUT_1E30 = {
        (1, 1): ("0x1.5ea0a2d22229bp-3", "0x1.af83440e53dd6p-4", 24),
        (2, 3): ("0x1.438cf6e808362p-1", "0x1.b053759ba6d8ep-11", 21),
        (1, 7): ("0x1.f99b04d67e796p-2", "0x1.5187e18de7fe3p-18", 14),
        (6, 6): ("0x1.f000431ba4325p-1", "0x1.5bf34616ed763p-25", 11),
    }
    CUT_1E14 = {
        (1, 1): ("0x1.5ea0a2d22229bp-3", "0x1.af83440e53dd6p-4", 24),
        (2, 3): ("0x1.438cf6e808362p-1", "0x1.b053759ba6d96p-11", 12),
        (1, 7): ("0x1.f99b04d67e796p-2", "0x1.5187e18de7fe5p-18", 9),
        (6, 6): ("0x1.f000431ba4325p-1", "0x1.5bf34616ed76dp-25", 7),
    }

    def test_precision_warning_on_doctored_truncation(self, fib):
        seq = fib_seq(find_extrema(fib))
        windows = dict(seq._ranges)
        cut = self.cut_to_n_max_1(seq, truncation_tol=1e-30)
        for p, want in self.CUT_1E30.items():
            with pytest.warns(PrecisionWarning):
                assert self.pin(harmonic_eval(cut, *p)) == want
        # every degree, clipped or not, enters the cut's own memo
        assert sorted(cut._ranges) == [2, 5, 8, 12]
        assert seq._ranges == windows

    def test_harmonicity_small_grid(self, fib, fib_geom):
        seq = fib_seq(fib_geom)
        h = lambda i, j: harmonic_eval(seq, i, j).value
        for i in range(1, 6):
            for j in range(1, 6):
                shifted = math.fsum(
                    p * h(i + di, j + dj)
                    for (di, dj), p in zip(fib.steps, fib.probs)
                )
                assert abs(h(i, j) - shifted) < 1e-12

    def test_harmonicity_big_jump(self, big_jump, big_jump_geom):
        seq = build_sequence(big_jump_geom, (0.0, 0.0), imin=2)
        h = lambda i, j: harmonic_eval(seq, i, j).value
        for i, j in [(1, 1), (2, 3), (4, 4)]:
            shifted = math.fsum(
                p * h(i + di, j + dj)
                for (di, dj), p in zip(big_jump.steps, big_jump.probs)
            )
            assert abs(h(i, j) - shifted) < 1e-10

    def test_values_in_unit_interval_and_monotone(self, fib_geom):
        # escape probabilities: within (0,1), increasing in each coordinate
        seq = fib_seq(fib_geom)
        prev = 0.0
        for k in range(1, 9):
            v = harmonic_eval(seq, k, k).value
            assert prev < v < 1.0
            prev = v


class TestEscapeProbability:
    def test_matches_series_pipeline(self, fib_geom):
        assert escape_probability(fib_geom, 1, 1).value == pytest.approx(
            FIB_H11, abs=1e-13
        )

    def test_interior_only(self, fib_geom):
        with pytest.raises(ValueError):
            escape_probability(fib_geom, 0, 1)
        with pytest.raises(ValueError):
            escape_probability(fib_geom, 1, 0)

    @pytest.mark.parametrize("i,j", [(2000, 1), (1, 2000), (3_000_000_000, 1)])
    def test_far_start_within_tail_bound(self, fib_geom, i, j):
        # from (2000, 1) the walk exits through y = 0 with chance exactly
        # 1/2 and through x = 0 with chance at most 2^-2000
        hv = escape_probability(fib_geom, i, j)
        assert abs(hv.value - 0.5) <= hv.tail_bound + 1e-14

    def test_start_beyond_float_range_rejected(self, fib_geom):
        seq = fib_seq(fib_geom)
        with pytest.raises(ValueError, match="2\\*\\*53"):
            escape_probability(fib_geom, 2**53, 1)
        with pytest.raises(ValueError, match="2\\*\\*53"):
            harmonic_eval(seq, 1, 10**400)

    def test_fibonacci_matches_exact_values(self, fib_geom):
        # every chain value from f_hat and g_hat, most in closed form;
        # 1.2e-15 is what the Newton solves of tool_version 0.6.0 reached.
        # The exact series past 16 terms a side adds less than 1e-26.
        worst = max(
            abs(Fraction(escape_probability(fib_geom, i, j).value)
                / fib_escape_exact(i, j, nterms=16) - 1)
            for i in range(1, 25)
            for j in range(1, 25)
        )
        assert worst <= 1.2e-15

    def test_two_term_asymptote(self, fib_geom):
        # at (50,50) everything but the first alternation is negligible:
        # h = 1 - 2 (1/2)^50 + O(F5^-50)
        got = escape_probability(fib_geom, 50, 50).value
        assert got == pytest.approx(1.0 - 2.0 * 0.5**50, rel=1e-12)


class TestStoredChain:
    """build_sequence slices one chain stored per geometry and start."""

    def test_query_order_does_not_change_bits(self, fib):
        grid = [(i, j) for i in range(1, 11) for j in range(1, 11)]
        random.Random(3).shuffle(grid)
        # far first, so the stored chain starts short and each side grows
        # on its own: n_pos and n_neg do not step up at the same degree
        grid.sort(key=lambda p: -sum(p))
        geom = find_extrema(fib)
        for i, j in [(2000, 1), (1, 2000)] + grid:
            fresh = escape_probability(find_extrema(fib), i, j)
            assert repr(escape_probability(geom, i, j)) == repr(fresh)

    def test_start_outside_G0_raises_on_every_call(self, fib):
        geom = find_extrema(fib)
        for _ in range(2):
            with pytest.raises(ValueError, match="G0"):
                build_sequence(geom, (-1.0, -1.2), imin=2)
        assert geom._chains == {}

    def test_signed_zero_start_has_its_own_chain(self, fib):
        # -0.0 == 0.0, but the start snaps to (-0.0, 0.0) and a_0 = -0.0
        geom = find_extrema(fib)
        build_sequence(geom, (0.0, 0.0), imin=2)
        got = build_sequence(geom, (-0.0, 0.0), imin=2)
        assert repr(got) == repr(build_sequence(find_extrema(fib), (-0.0, 0.0), imin=2))

    def test_geometry_equality_hash_and_repr_unchanged(self, fib):
        used, unused = find_extrema(fib), find_extrema(fib)
        escape_probability(used, 1, 1)
        assert used._chains and not unused._chains
        assert used == unused
        assert hash(used) == hash(unused)
        assert repr(used) == repr(unused)

    def test_threads_sharing_one_geometry_get_the_same_bits(self, all_five):
        grid = [(i, j) for i in range(1, 9) for j in range(1, 9)]
        alone = find_extrema(all_five)
        want = {p: repr(escape_probability(alone, *p)) for p in grid}
        geom = find_extrema(all_five)
        got: list[dict] = []

        def worker(seed):
            order = grid[:]
            random.Random(seed).shuffle(order)
            got.append({p: repr(escape_probability(geom, *p)) for p in order})

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [want] * 4

    def test_interlacing_is_checked_once_per_growth(self, fib, monkeypatch):
        calls = []
        check = compensation._check_descent
        monkeypatch.setattr(
            compensation, "_check_descent",
            lambda *chain: calls.append(1) or check(*chain),
        )
        geom = find_extrema(fib)
        key = (((0.0).hex(), (0.0).hex()), 1e-14)
        growths, entry = 0, None
        # far first, so the stored chain grows more than once
        for i in range(10, 0, -1):
            for j in range(10, 0, -1):
                escape_probability(geom, i, j)
                growths += geom._chains[key] is not entry
                entry = geom._chains[key]
        assert 2 <= growths < 100
        assert len(calls) == growths

    def test_doctored_chain_raises_on_its_next_growth(self, fib):
        geom = find_extrema(fib)
        build_sequence(geom, (0.0, 0.0), imin=5)
        key = (((0.0).hex(), (0.0).hex()), 1e-14)
        doctored = with_b1_above_b0(geom._chains[key])
        geom._chains[key] = doctored
        with pytest.raises(SolverError, match="interlacing"):
            build_sequence(geom, (0.0, 0.0), imin=2)  # needs more terms
        assert geom._chains[key] is doctored  # the failed growth is not stored


def with_b1_above_b0(seq):
    """``seq`` with b_1 moved above b_0, which breaks b_0 > a_1 > b_1."""
    b = list(seq.b_vals)
    b[1 - seq.n_min] = seq.b0 + 1.0
    return dataclasses.replace(seq, b_vals=tuple(b))


def twist_start(geom, degrees):
    t = math.radians(degrees)
    phi = cramer_transform(geom, (math.cos(t), math.sin(t))).phi
    return canonicalize_start(geom, phi)


class TestRangePerDegree:
    """harmonic_eval sums the range of the point's own degree."""

    @pytest.mark.parametrize("tol", [1e-14, 1e-10])
    @pytest.mark.parametrize("degrees", [None, 30, 60])
    def test_value_does_not_depend_on_imin(self, pin_geom, degrees, tol):
        start = (0.0, 0.0) if degrees is None else twist_start(pin_geom, degrees)
        chains = [build_sequence(pin_geom, start, tol, imin) for imin in (1, 2)]
        for i in range(1, 25):
            for j in range(1, 25):
                own = harmonic_eval(build_sequence(pin_geom, start, tol, i + j), i, j)
                assert own.tail_bound <= tol
                for seq in chains:
                    assert repr(harmonic_eval(seq, i, j)) == repr(own)
                if degrees is None:
                    assert repr(escape_probability(pin_geom, i, j, tol)) == repr(own)

    def test_work_bound(self, fib_geom):
        # fixed before the first run; the range of degree 40 is 6 terms
        assert harmonic_eval(fib_seq(fib_geom), 20, 20).terms_used <= 8


class TestRangeMonotone:
    """_term_range never grows with the degree, so the range of a sequence's
    imin holds that of every higher degree: the invariant the sequences of
    one start and tolerance rest on when they share their windows."""

    @staticmethod
    def assert_monotone(c1, c2, a0, b0, tol, mmax):
        prev = compensation._term_range(c1, c2, a0, b0, 1, tol)
        for m in range(2, mmax + 1):
            got = compensation._term_range(c1, c2, a0, b0, m, tol)
            assert got[0] <= prev[0] and got[1] <= prev[1], (m, prev, got)
            prev = got

    @pytest.mark.parametrize("model", ["fib", "all_five", "diag_heavy", "big_jump"])
    def test_model_starts(self, request, model):
        geom = request.getfixturevalue(f"{model}_geom")
        a, b = geom.x0 / 2, geom.y0 / 2
        # the origin and one start on each G0 graph piece
        starts = [(0.0, 0.0), (a, f_branch(geom, a)), (g_branch(geom, b), b)]
        for a0, b0 in starts:
            for tol in (1e-4, 1e-10, 1e-14, 1e-20, 1e-30, 1e-40):
                self.assert_monotone(geom.c1, geom.c2, a0, b0, tol, 3000)

    @settings(deadline=None, max_examples=50)
    @given(
        st.floats(1e-3, 10.0), st.floats(1e-3, 10.0),
        st.floats(-10.0, 0.0), st.floats(-10.0, 0.0),
        st.sampled_from([1e-4, 1e-10, 1e-14, 1e-20, 1e-40]),
    )
    def test_random_constants(self, c1, c2, a0, b0, tol):
        self.assert_monotone(c1, c2, a0, b0, tol, 400)


class TestRangeMemo:
    """Each geometry computes a start's term range once per degree and tol."""

    @staticmethod
    def count_ranges(monkeypatch):
        calls = []
        term_range = compensation._term_range
        monkeypatch.setattr(
            compensation, "_term_range",
            lambda *args: calls.append(args) or term_range(*args),
        )
        return calls

    def test_one_range_per_degree(self, fib, monkeypatch):
        calls = self.count_ranges(monkeypatch)
        geom = find_extrema(fib)
        for _ in range(2):
            for i in range(1, 11):
                for j in range(1, 11):
                    escape_probability(geom, i, j)
        assert sorted(c[4] for c in calls) == list(range(2, 21))
        seq = fib_seq(geom)
        for i in range(1, 21):
            for j in range(1, 21):
                harmonic_eval(seq, i, j)
        # the table's degrees 2..20 were served by the escape grid
        assert sorted(c[4] for c in calls) == list(range(2, 41))
        assert len(set(calls)) == len(calls)

    def test_table_alone(self, fib, monkeypatch):
        calls = self.count_ranges(monkeypatch)
        seq = fib_seq(find_extrema(fib))
        for _ in range(2):
            for i in range(1, 21):
                for j in range(1, 21):
                    harmonic_eval(seq, i, j)
        assert sorted(c[4] for c in calls) == list(range(2, 41))

    def test_interleaved_tolerances_and_starts(self, fib):
        geom = find_extrema(fib)
        starts = [(0.0, 0.0), twist_start(geom, 45)]
        cases = [(s, tol) for s in starts for tol in (1e-14, 1e-10)]
        grid = [(i, j) for i in range(1, 9) for j in range(1, 9)]
        random.Random(7).shuffle(grid)
        want = {}
        for start, tol in cases:  # each on a geometry of its own
            alone = find_extrema(fib)
            seq = build_sequence(alone, start, tol, 2)
            for i, j in grid:
                want[start, tol, i, j] = repr(harmonic_eval(seq, i, j))
        for i, j in grid:
            for start, tol in cases:
                seq = build_sequence(geom, start, tol, 2)
                assert repr(harmonic_eval(seq, i, j)) == want[start, tol, i, j]
                if start == (0.0, 0.0):
                    got = escape_probability(geom, i, j, tol)
                    assert repr(got) == want[start, tol, i, j]
        # one sequence per start and tolerance, each with degrees 2..16
        assert [len(seq._ranges) for seq in geom._chains.values()] == [15] * 4

    def test_geometry_equality_hash_and_repr_unchanged(self, fib):
        used, unused = find_extrema(fib), find_extrema(fib)
        escape_probability(used, 3, 4)
        key = (((0.0).hex(), (0.0).hex()), 1e-14)
        assert used._chains[key]._ranges and not unused._chains
        assert used == unused
        assert hash(used) == hash(unused)
        assert repr(used) == repr(unused)

    def test_sequence_equality_hash_and_repr_unchanged(self, fib):
        geom = find_extrema(fib)
        used = fib_seq(geom)
        harmonic_eval(used, 5, 6)
        fresh = fib_seq(find_extrema(fib))
        assert used._ranges is geom._chains[((0.0).hex(), (0.0).hex()), 1e-14]._ranges
        assert used._ranges != fresh._ranges
        assert used == fresh
        assert hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        assert "_ranges" not in repr(used)
        # a replaced sequence may hold other constants: it keeps a memo of its own
        assert dataclasses.replace(used)._ranges == {}

    @pytest.mark.parametrize("args, error, match", [
        ((1, 1, 0.0), ValueError, "truncation_tol"),
        ((1, 1, -1e-14), ValueError, "truncation_tol"),
        ((1, 1, math.nan), ValueError, "truncation_tol"),
        ((0, 1), ValueError, "interior"),
        ((1, 0), ValueError, "interior"),
        ((2**53, 1), ValueError, "2\\*\\*53"),
    ])
    def test_errors_unchanged_on_a_stored_chain(self, fib, args, error, match):
        fresh, geom = find_extrema(fib), find_extrema(fib)
        escape_probability(geom, 1, 1)
        chains = dict(geom._chains)
        for g in (fresh, geom):
            with pytest.raises(error, match=match):
                escape_probability(g, *args)
        assert geom._chains == chains

    def test_doctored_chain_raises_on_its_next_growth(self, fib):
        geom = find_extrema(fib)
        escape_probability(geom, 5, 5)
        key = (((0.0).hex(), (0.0).hex()), 1e-14)
        doctored = with_b1_above_b0(geom._chains[key])
        geom._chains[key] = doctored
        with pytest.raises(SolverError, match="interlacing"):
            escape_probability(geom, 1, 1)  # degree 2 needs more terms
        assert geom._chains[key] is doctored  # the failed growth is not stored


class TestHarmonicValue:
    """A value from the series behaves as the one built from its fields."""

    def test_contract(self, fib_geom):
        got = escape_probability(fib_geom, 3, 2)
        made = HarmonicValue(got.value, got.tail_bound, got.terms_used)
        assert repr(got) == (
            f"HarmonicValue(value={got.value!r}, tail_bound={got.tail_bound!r}, "
            f"terms_used={got.terms_used!r})"
        )
        twins = [got, dataclasses.replace(got), copy.copy(got), copy.deepcopy(got)]
        twins += [pickle.loads(pickle.dumps(got, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in twins:
            assert type(twin) is HarmonicValue
            assert twin == made and hash(twin) == hash(made)
            assert repr(twin) == repr(made)
        assert dataclasses.replace(got, terms_used=0) == HarmonicValue(
            value=got.value, tail_bound=got.tail_bound, terms_used=0
        )
        assert dataclasses.astuple(got) == (got.value, got.tail_bound, got.terms_used)
        assert got != HarmonicValue(got.value, got.tail_bound, got.terms_used + 1)
        for name in ("value", "tail_bound", "terms_used", "other"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(got, name, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            del got.value
        assert got == made


class TestGeometryArgument:
    """A model passed where its geometry belongs is a TypeError, and so is
    anything but a sequence passed to ``harmonic_eval``."""

    @pytest.mark.parametrize("call", [
        lambda d: build_sequence(d, (0.0, 0.0), imin=2),
        lambda d: canonicalize_start(d, (0.0, 0.0)),
        lambda d: escape_probability(d, 1, 1),
        lambda d: boundary_harmonic(d, 1, 1),
    ], ids=["build_sequence", "canonicalize_start", "escape_probability",
            "boundary_harmonic"])
    def test_distribution_is_rejected(self, fib, call):
        with pytest.raises(TypeError, match=r"CurveGeometry.*find_extrema\(dist\)"):
            call(fib)

    @pytest.mark.parametrize("wrong", ["geometry", "start"])
    def test_harmonic_eval_wants_a_sequence(self, fib_geom, wrong):
        arg = fib_geom if wrong == "geometry" else (0.0, 0.0)
        with pytest.raises(
            TypeError, match=r"CompensationSequence.*build_sequence\(geom, start\)"
        ):
            harmonic_eval(arg, 1, 1)


@pytest.mark.parametrize("call", [
    lambda g, i, j: escape_probability(g, i, j),
    lambda g, i, j: harmonic_eval(fib_seq(g), i, j),
    lambda g, i, j: boundary_harmonic(g, i, j),
], ids=["escape_probability", "harmonic_eval", "boundary_harmonic"])
def test_fractional_coordinate_rejected(fib_geom, call):
    # (1.5, 2) used to evaluate as (1, 2) and (2.9, 1) as (2, 1)
    want = repr(call(fib_geom, 2, 1))
    assert repr(call(fib_geom, 2.0, np.int64(1))) == want
    for i, j in [(1.5, 2), (2.9, 1), (2, 1.5), (0.5, 0)]:
        with pytest.raises(ValueError, match="integers"):
            call(fib_geom, i, j)


class TestBoundaryHarmonic:
    def test_frozen_values(self, fib_geom):
        assert boundary_harmonic(fib_geom, 1, 1) == pytest.approx(
            0.758535465461935, abs=1e-11
        )
        assert boundary_harmonic(fib_geom, 2, 3) == pytest.approx(
            2.63733576218391, abs=1e-10
        )
        assert boundary_harmonic(fib_geom, 5, 5) == pytest.approx(
            4.00128887376904, abs=1e-10
        )

    def test_matches_closed_form(self, fib_geom):
        for i, j in [(1, 1), (1, 4), (3, 2), (5, 5), (2, 6)]:
            assert boundary_harmonic(fib_geom, i, j) == pytest.approx(
                fib_boundary_harmonic(i, j), abs=1e-10
            )

    def test_positive(self, all_five_geom):
        for i, j in [(1, 1), (2, 1), (1, 3), (4, 4)]:
            assert boundary_harmonic(all_five_geom, i, j) > 0.0

    @pytest.mark.parametrize("i, j, tol, match", [
        (0, 1, 1e-12, "interior"), (1, 0, 1e-12, "interior"),
        (1, 1, 0.0, "tol"), (1, 1, math.nan, "tol"),
    ])
    def test_rejections(self, fib_geom, i, j, tol, match):
        with pytest.raises(ValueError, match=match):
            boundary_harmonic(fib_geom, i, j, tol=tol)

    def test_beyond_float_range_is_a_solver_error(self, fib_geom):
        # The function grows like exp(i * g(y0)) along the boundary.
        # (100000, 1) overflows inside exp; at (6354, 3) every exp is finite
        # but the value overflows to inf.  Either way the library names the start.
        for i, j in [(100000, 1), (6354, 3)]:
            with pytest.raises(SolverError, match=rf"\({i}, {j}\)"):
                boundary_harmonic(fib_geom, i, j)
        assert math.isfinite(boundary_harmonic(fib_geom, 6340, 1))

    def test_harmonicity(self, fib, fib_geom):
        h = {}
        for i in range(0, 7):
            for j in range(0, 7):
                h[i, j] = (
                    0.0 if i == 0 or j == 0 else boundary_harmonic(fib_geom, i, j)
                )
        for i in range(1, 5):
            for j in range(1, 5):
                shifted = math.fsum(
                    p * h[i + di, j + dj]
                    for (di, dj), p in zip(fib.steps, fib.probs)
                )
                assert abs(h[i, j] - shifted) < 1e-8


@st.composite
def interior_drift_models(draw):
    extra = draw(
        st.lists(
            st.tuples(st.integers(-1, 2), st.integers(-1, 2)).filter(
                lambda s: s not in {(-1, -1), (-1, 0), (0, -1), (0, 0)}
            ),
            max_size=3,
            unique=True,
        )
    )
    steps = {(1, -1), (-1, 1), (1, 1)} | set(extra)
    weights = [draw(st.integers(1, 9)) for _ in steps]
    total = sum(weights)
    return StepDistribution.from_pairs(
        [(s, Fraction(w, total)) for s, w in zip(sorted(steps), weights)]
    )


@settings(deadline=None, max_examples=25)
@given(interior_drift_models())
def test_harmonicity_random_models(dist):
    d = drift(dist)
    assume(d[0] > 1e-3 and d[1] > 1e-3)
    try:
        geom = find_extrema(dist)
    except InvalidModelError:
        assume(False)
    seq = build_sequence(geom, (0.0, 0.0), imin=2)
    h = lambda i, j: harmonic_eval(seq, i, j).value
    shifted = math.fsum(
        p * h(2 + di, 2 + dj) for (di, dj), p in zip(dist.steps, dist.probs)
    )
    assert abs(h(2, 2) - shifted) < 1e-9
