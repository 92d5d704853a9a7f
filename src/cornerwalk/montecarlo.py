"""Monte Carlo estimators for killed walks, with deterministic batching.

All estimators share one discipline: paths are simulated in fixed-size
batches of 65536, each batch drawing from its own counter-based Philox
substream keyed by (seed, batch index), and batch partials are reduced
in batch order.  Path i therefore sees draws that depend only on the
seed, i // 65536, and its slot within the batch — never on thread
scheduling or on how many paths other workers got — so every estimate is
bit-for-bit reproducible.

Steps are drawn through a Walker alias table and advanced in blocks:
of 64 steps in visit runs (Green, Martin), and of 16, then 32, then 64
for good in survival runs (escape, half plane), most of whose rows are
absorbed within a few steps; the block that reaches the horizon is cut
there.  A block consumes the rows * blk uniforms that one
``rng.random((rows, blk))`` draw would give, in the same row-major
order: its rows are cut into contiguous shards, at most one per
available core and none under 2**15 uniforms, drawn on their own
threads, and each shard takes its uniforms from a copy of the batch's
Philox stream jumped ahead to them, so the shard count changes no bit.
Every uniform u becomes one code per step: with v = u * K and
k = floor(v), the code is 2k + (v - k < accept[k]), the alias decision
written as an index.  Two int8 tables, one per coordinate, map a code
to its step (entry 2k + 1 is step k, entry 2k its alias); when every
accept is 1, as for uniform laws, the alias is never taken and the code
is just k.  Each coordinate is gathered on its own and prefix-summed
in int32 into a (blk, rows) array, step t in row t, by running adds of
one row onto the next (cheaper than np.cumsum along the short axis);
absorption is tested on those offsets, a row's lowest offset against
minus its position.

Every estimator reduces one engine, _walk: rows walk from one start, or
from the two of a Martin profile, which share each row's draws, and
are stopped per target, a lattice point whose visits are counted or
none for escape and survival.  After every block, the last included, a
row retires from a target once a bound on what it can still add there
is below 1e-7 from every start still alive in it: for escape its
chance of ever exiting, at most c_x^i + c_y^j (the exit roots of
skipfree_exit_root, rounded up; c_y^j alone for half-plane survival,
which never touches x), for Green and Martin its further visits to the
point (a gambler's-ruin bound per coordinate, see _visit_bounds, and
exactly 0 once the row is past the point's anti-diagonal, which a
walk whose steps never lower x + y cannot recross).  A row is
dropped once absorbed from every start or retired from every target,
and later blocks draw only for the rows left.  The bounds of the
retired rows, at retirement, and of the rows still open at the
horizon, there, make up each estimate's ``bias_bound``.  The array
layout may change, but these block lengths, this stream consumption,
this alias decision and this retirement rule are the reproducibility
contract (pinned by tests/test_stream_contract.py).  Cramer twisting
replaces the step law by p_s * exp(<phi, s>) (a probability law because
phi lies on the zero curve) and reweights Green-function visits by the
constant exp(-<phi, y - x>).
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .curve import CramerData, SolverError, _bracket, _solve, cramer_transform, find_extrema
from .model import (
    StepDistribution,
    log_kernel_eval,
    log_kernel_grad,
    log_kernel_hess,
    require_valid,
)

__all__ = [
    "BATCH_SIZE",
    "SimConfig",
    "SimEstimate",
    "ScanPoint",
    "estimate_escape",
    "estimate_halfplane_survival",
    "estimate_green",
    "martin_kernel_estimate",
    "martin_kernel_profile",
    "green_direction_scan",
    "skipfree_exit_root",
    "brownian_halfplane_kernel",
]

BATCH_SIZE = 65536  # fixed: part of the reproducibility contract, not a knob
_BLOCK = 64
# survival runs open with shorter blocks: most of their absorptions come
# in the first few steps, and an absorbed row draws to its block's end
_SURVIVAL_RAMP = (16, 32)
_MASK64 = (1 << 64) - 1
_POSITION_LIMIT = 1 << 31  # positions are int32
_RETIRE_EPS = 1e-7  # exit bound below which a survival path retires as escaped


@dataclass(frozen=True)
class SimConfig:
    """Simulation request.

    ``horizon`` may be None where an operation defines a default (the
    Green-function estimators use 10 * |y - x|_1); escape estimation has
    no sensible default and requires it.  ``twist`` switches sampling to
    the exponentially tilted law of the given curve point.
    """

    seed: int
    n_paths: int
    horizon: int | None = None
    twist: CramerData | None = None


@dataclass(frozen=True)
class SimEstimate:
    mean: float
    std_error: float
    n_paths: int
    horizon: int
    censored_fraction: float
    # its expectation bounds the estimate's bias: for escape and survival
    # the mean exit bound of the paths counted as surviving, for Green the
    # mean weighted visit bound of the paths stopped before absorption,
    # for a Martin ratio the half-width the two Green bounds induce
    bias_bound: float | None = None


@dataclass(frozen=True)
class ScanPoint:
    radius: float  # requested radius
    y: tuple[int, int]  # rounded lattice target
    norm: float  # |y|, the abscissa of the scan
    value: float  # sqrt(|y|)-scaled, twist-corrected Green value
    std_error: float
    horizon: int  # steps simulated: cfg.horizon, or 10 * |y - x|_1 if None


def _twisted_probs(dist: StepDistribution, twist: CramerData | None):
    steps = np.array(dist.steps, dtype=np.int32)
    probs = np.array(dist.probs, dtype=np.float64)
    if twist is not None:
        px, py = twist.phi
        probs = probs * np.exp(steps[:, 0] * px + steps[:, 1] * py)
        total = probs.sum()
        if abs(total - 1.0) > 1e-9:
            raise SolverError(
                f"twisted step law sums to {total!r}; twist point off the curve?"
            )
        probs = probs / total
    return steps, probs


def _alias_table(probs: np.ndarray):
    """Walker alias table: (accept, alias) for O(1) categorical draws."""
    k = len(probs)
    accept = np.ones(k, dtype=np.float64)
    alias = np.arange(k, dtype=np.int64)
    scaled = probs * k
    small = [i for i in range(k) if scaled[i] < 1.0]
    large = [i for i in range(k) if scaled[i] >= 1.0]
    while small and large:
        s = small.pop()
        l = large.pop()
        accept[s] = scaled[s]
        alias[s] = l
        scaled[l] -= 1.0 - scaled[s]
        (small if scaled[l] < 1.0 else large).append(l)
    return accept, alias


def _batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    key = (batch_index << 64) | (seed & _MASK64)
    return np.random.Generator(np.random.Philox(key=key))


def _batch_sizes(n_paths: int):
    full, rem = divmod(n_paths, BATCH_SIZE)
    sizes = [BATCH_SIZE] * full
    if rem:
        sizes.append(rem)
    return sizes


def _check_stream_inputs(steps, points, horizon: int, seed: int, n_paths: int) -> None:
    """Reject empty runs, seeds that Philox keying would alias and points
    whose reachable positions would overflow int32."""
    if n_paths < 1 or horizon < 1:
        raise ValueError("n_paths and horizon must be >= 1")
    if not 0 <= seed <= _MASK64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    reach = horizon * int(np.abs(steps).max())
    for p in points:
        if max(abs(p[0]), abs(p[1])) + reach >= _POSITION_LIMIT:
            raise ValueError(
                f"point {tuple(p)} with horizon {horizon} can reach "
                f"coordinates beyond the int32 position range"
            )


# the most shards one block is cut into: the cores this process may run on
_CORES = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
          else os.cpu_count() or 1)
_SHARD_MIN = 1 << 15  # uniforms per shard below which a block is not split
_ALIAS_CHUNK = 1 << 14  # uniforms per pass of the alias compare
_PHILOX_OUTPUTS = 4  # uint64 outputs per Philox counter step
_pool = None  # the shards' ThreadPoolExecutor, made on first use
_pool_lock = threading.Lock()


def _shard_pool():
    global _pool
    with _pool_lock:
        if _pool is None:
            # imported here: concurrent.futures, with logging, adds about
            # 7 ms to the import of cornerwalk
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(_CORES - 1)  # shard 0 runs in the caller
        return _pool


def _drop_shard_pool() -> None:
    """A forked child inherits the executor but none of its threads."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_shard_pool)


def _jump(bit_gen, state, skip: int) -> None:
    """Set the Philox ``bit_gen`` to ``state`` advanced by ``skip`` uint64
    outputs: those still buffered, then whole counter steps (advance drops
    the buffer), then the rest one by one."""
    bit_gen.state = state
    buffered = _PHILOX_OUTPUTS - state["buffer_pos"]
    if skip > buffered:
        steps, skip = divmod(skip - buffered, _PHILOX_OUTPUTS)
        bit_gen.advance(steps)
    bit_gen.random_raw(skip)


class _StepSampler:
    """One call's step source: int8 code tables, a reused uniform buffer
    and a Philox generator for each extra shard of a block."""

    def __init__(self, steps, probs, n_paths: int, horizon: int):
        accept, alias = _alias_table(probs)
        self.k = len(probs)
        self.accept = accept
        self.trivial = bool((accept == 1.0).all())  # then alias is the identity
        if self.trivial:
            self.tables = steps.T.astype(np.int8)  # code k -> step k
        else:
            self.tables = np.empty((2, 2 * self.k), dtype=np.int8)
            self.tables[:, 1::2] = steps.T  # code 2k + 1 -> step k
            self.tables[:, 0::2] = steps[alias].T  # code 2k -> alias of k
        self._u = np.empty(min(n_paths, BATCH_SIZE) * min(horizon, _BLOCK))
        self._gens = []

    def offsets(self, rng, rows: int, blk: int, axes=(0, 1)):
        """Draw one block for ``rows`` rows; per axis, the (blk, rows)
        int32 prefix sums of the steps, step t in row t.

        The rows are cut into up to _CORES contiguous shards of at least
        _SHARD_MIN uniforms.  Shard 0 draws from ``rng`` in this thread,
        each other one on the shard pool from a Philox copy jumped to its
        first row, and ``rng`` then takes the last shard's end state, so
        the uniforms and the state left are those of one serial draw.
        Every large buffer is allocated here, before the shards start
        (temporaries allocated on the pool threads raised peak memory),
        and the running row adds stay here, after the join (as many
        small calls per shard, they contend for the interpreter lock).
        """
        n = rows * blk
        w = max(1, min(_CORES, n // _SHARD_MIN))
        cuts = [rows * s // w for s in range(w + 1)]
        code = np.empty(n, dtype=np.intp)
        picked = np.empty(n, dtype=np.int8)  # alias decisions, then steps
        # per shard, one chunk of the alias compare's accept[k]
        acc = None if self.trivial else np.empty((w, min(n, _ALIAS_CHUNK)))
        offs = [np.empty((blk, rows), dtype=np.int32) for _ in axes]

        def shard(gen, s):
            """Draw, alias-code and gather the steps of shard s into its
            columns of ``offs``, writing only through ``out=``."""
            r0, r1 = cuts[s], cuts[s + 1]
            lo, hi = r0 * blk, r1 * blk
            v, c, p = self._u[lo:hi], code[lo:hi], picked[lo:hi]
            gen.random(out=v)
            v *= self.k
            c[...] = v
            np.minimum(c, self.k - 1, out=c)
            if not self.trivial:
                v -= c  # v - k, exactly as the alias decision reads it
                take, a_s = p.view(np.bool_), acc[s]
                for i in range(0, hi - lo, len(a_s)):
                    j = min(i + len(a_s), hi - lo)
                    self.accept.take(c[i:j], out=a_s[: j - i], mode="clip")
                    np.less(v[i:j], a_s[: j - i], out=take[i:j])
                c *= 2
                c += take
            for off, a in zip(offs, axes):
                # mode="clip" writes straight into ``out``; "raise" buffers it
                self.tables[a].take(c, out=p, mode="clip")
                off[:, r0:r1] = p.reshape(r1 - r0, blk).T

        futures = []
        if w > 1:
            state = rng.bit_generator.state
            while len(self._gens) < w - 1:
                self._gens.append(np.random.Generator(np.random.Philox(0)))
            pool = _shard_pool()
            for s, gen in enumerate(self._gens[: w - 1], start=1):
                _jump(gen.bit_generator, state, cuts[s] * blk)
                futures.append(pool.submit(shard, gen, s))
        try:
            shard(rng, 0)
        finally:
            for f in futures:
                f.result()
        if w > 1:
            end = self._gens[w - 2].bit_generator.state
            end["has_uint32"], end["uinteger"] = state["has_uint32"], state["uinteger"]
            rng.bit_generator.state = end
        for off in offs:
            for t in range(1, blk):  # running row adds beat np.cumsum
                np.add(off[t - 1], off[t], out=off[t])
        return offs


def _keep_rows(keep, axes, pos, alive, open_, live):
    """The row state of _walk restricted to the rows marked in ``keep``."""
    return (
        [[c[keep] if a in axes else c for a, c in enumerate(p)] for p in pos],
        [a[keep] for a in alive],
        [o[keep] for o in open_],
        None if live is None else live[keep],
    )


def _walk(steps, probs, starts, targets, weights, bound, horizon, seed, n_paths,
          axes=(0, 1)):
    """One batched walk from every start at once, stopped per target.

    Steps are drawn from ``probs`` on ``steps``, as _twisted_probs gives
    them.  A target is a lattice point, whose visits before absorption are
    counted, or None, which counts nothing (survival uses one).
    ``bound(pos, ti)``, with ``pos`` a start's [x, y] row arrays, bounds
    per row what a row there can still add to target ti: its further
    visits to the point, or its chance of ever exiting.  Absorption is
    tested on ``axes`` only; a coordinate off them keeps its start value.

    Blocks are _BLOCK steps long, after those of _SURVIVAL_RAMP when no
    target is a point.  Every block draws only for the live rows, and
    all starts of a row share its draws, but a visit from a start counts
    only at the steps the row takes alive from it, none once absorbed.
    After every block, the last included, a row retires from target ti
    once its bound times weights[si][ti] is below _RETIRE_EPS from every
    start still alive in it; from then on it adds no visit to ti.  A row
    absorbed from every start is dropped before it is bounded, and one
    retired from every target before the next block.

    Returns (sums, sumsqs, crosses, open_counts, bounds, survived), each
    reduced in batch order:
      sums[si][ti], sumsqs[si][ti]: per-path visit count moments (0 for a
      None target);
      crosses[ti]: sum over paths of visits-from-start0 * visits-from-start1
      (None unless two starts are given);
      open_counts[si][ti]: paths neither absorbed from si nor retired from
      ti at the horizon;
      bounds[si][ti]: summed bounds from si for ti, of each path retired
      from ti at its retirement and of each path still open for ti at the
      horizon;
      survived[si]: paths never absorbed from si, retired or open.
    Visit counts stay indexed by batch row.
    """
    points = [ti for ti, y in enumerate(targets) if y is not None]
    _check_stream_inputs(
        steps, list(starts) + [targets[ti] for ti in points], horizon, seed, n_paths
    )
    sampler = _StepSampler(steps, probs, n_paths, horizon)
    n_starts = len(starts)
    grid = lambda: [[[] for _ in targets] for _ in starts]
    sums, sumsqs, bounds, open_parts = grid(), grid(), grid(), grid()
    crosses = [[] for _ in targets]
    survived = [n_paths] * n_starts

    for b_idx, rows in enumerate(_batch_sizes(n_paths)):
        rng = _batch_rng(seed, b_idx)
        # a coordinate off ``axes`` never moves and is never tested
        pos = [[np.full(rows, c, dtype=np.int32) if a in axes else c
                for a, c in enumerate(s)] for s in starts]
        alive = [np.ones(rows, dtype=bool) for _ in starts]
        open_ = [np.ones(rows, dtype=bool) for _ in targets]  # not retired from ti
        live = np.arange(rows) if points else None  # batch rows, for visits
        visits = [{ti: np.zeros(rows, dtype=np.int64) for ti in points} for _ in starts]
        vb = [None] * len(targets)  # per target and start, the latest bounds
        keep = np.ones(rows, dtype=bool)  # rows to walk on
        lengths = itertools.chain(() if points else _SURVIVAL_RAMP,
                                  itertools.repeat(_BLOCK))
        t = 0
        while t < horizon and keep.any():
            blk = min(next(lengths), horizon - t)
            if not keep.all():
                pos, alive, open_, live = _keep_rows(keep, axes, pos, alive, open_, live)
            n = len(alive[0])
            offs = sampler.offsets(rng, n, blk, axes)
            lows = [off.min(axis=0) for off in offs]
            for si, p in enumerate(pos):
                # absorbed in this block: its lowest point reaches 0 on an axis
                hit = lows[0] <= -p[axes[0]]
                for low, a in zip(lows[1:], axes[1:]):
                    hit |= low <= -p[a]
                hit &= alive[si]
                survived[si] -= int(hit.sum())
                if points:
                    (off_x, off_y), (x0, y0) = offs, p
                    # steps of this block each row takes alive: those
                    # before its first boundary point, none if absorbed before
                    n_ok = np.where(alive[si], blk, 0)
                    h = np.flatnonzero(hit)
                    if len(h):
                        bnd = (off_x[:, h] <= -x0[h]) | (off_y[:, h] <= -y0[h])
                        n_ok[h] = bnd.argmax(axis=0)
                    for ti in points:
                        yx, yy = targets[ti]
                        at = (off_x == yx - x0) & (off_y == yy - y0)
                        c, r = np.divmod(np.flatnonzero(at), n)
                        r = r[(c < n_ok[r]) & open_[ti][r]]
                        if len(r):
                            visits[si][ti] += np.bincount(live[r], minlength=rows)
                for off, a in zip(offs, axes):
                    p[a] = p[a] + off[-1]
                alive[si] &= ~hit
            t += blk
            # bound only the rows still alive from some start
            keep = np.logical_or.reduce(alive)
            if not keep.all():
                pos, alive, open_, live = _keep_rows(keep, axes, pos, alive, open_, live)
            for ti in range(len(targets)):
                vb[ti] = [bound(p, ti) for p in pos]
                done = open_[ti].copy()
                for si, b in enumerate(vb[ti]):
                    done &= ~alive[si] | (b < _RETIRE_EPS / weights[si][ti])
                for si, b in enumerate(vb[ti]):
                    bounds[si][ti].append(float(b[done & alive[si]].sum()))
                open_[ti] &= ~done
            keep = np.logical_or.reduce(open_)
        # the rows still open at the horizon, bounded where they stop
        for ti, b_ti in enumerate(vb):
            for si, b in enumerate(b_ti):
                still = alive[si] & open_[ti]
                open_parts[si][ti].append(int(still.sum()))
                bounds[si][ti].append(float(b[still].sum()))
        for si in range(n_starts):
            for ti, v in visits[si].items():
                v = v.astype(np.float64)
                sums[si][ti].append(float(v.sum()))
                sumsqs[si][ti].append(float((v * v).sum()))
        if n_starts == 2:
            for ti in points:
                crosses[ti].append(
                    float((visits[0][ti].astype(np.float64) * visits[1][ti]).sum())
                )

    red = lambda g: [[math.fsum(parts) for parts in row] for row in g]
    cross_r = [math.fsum(c) for c in crosses] if n_starts == 2 else None
    return red(sums), red(sumsqs), cross_r, red(open_parts), red(bounds), survived


def _survival_estimate(dist, start, cfg: SimConfig, axes) -> SimEstimate:
    """Escape or survival by the walk from ``start`` with one target, None,
    whose bound is the chance of ever exiting: at most the sum over
    ``axes`` of c**z, c the axis's exit root (see estimate_escape)."""
    steps, probs = _twisted_probs(dist, cfg.twist)
    roots = dict(zip(axes, _exit_roots(steps, probs, axes)))
    bound = lambda p, ti: np.minimum(sum(roots[a] ** p[a] for a in axes), 1.0)
    _, _, _, open_counts, bounds, survived = _walk(
        steps, probs, [start], [None], [[1.0]], bound, cfg.horizon, cfg.seed,
        cfg.n_paths, axes,
    )
    n = cfg.n_paths
    p = survived[0] / n
    se = math.sqrt(p * (1.0 - p) / n)
    return SimEstimate(p, se, n, cfg.horizon, open_counts[0][0] / n, bounds[0][0] / n)


def estimate_escape(dist: StepDistribution, x, cfg: SimConfig) -> SimEstimate:
    """Fraction of paths from x that never leave the open quadrant, with
    paths that provably escape retired early.

    Each coordinate moves down by at most one per step, so from (i, j)
    the walk ever exits with probability at most c_x^i + c_y^j, where
    c_x and c_y are the exit roots of the marginals of the law actually
    sampled (twisted or not; see skipfree_exit_root).  Paths advance in
    blocks of 16, 32, then 64 steps, and after every block a path whose
    bound is below 1e-7 retires and counts as escaped, as
    does a path still inside at the horizon.  The estimate can therefore
    only overstate the escape probability, and ``bias_bound`` says by how
    much: it is the mean over paths of the bound at retirement, or at the
    horizon (capped at 1) for paths neither absorbed nor retired, so
    0 <= E[mean] - P(never exit) <= E[bias_bound].  ``censored_fraction``
    is the share of those last paths.
    """
    require_valid(dist)
    i, j = int(x[0]), int(x[1])
    if i < 1 or j < 1:
        raise ValueError("escape start must be strictly inside the quadrant")
    if cfg.horizon is None:
        raise ValueError("escape estimation requires an explicit horizon")
    return _survival_estimate(dist, (i, j), cfg, (0, 1))


def estimate_halfplane_survival(
    dist: StepDistribution, height: int, cfg: SimConfig
) -> SimEstimate:
    """Survival in the upper half plane from vertical distance ``height``.

    Paths retire as in estimate_escape, with the bound c_y^z of the
    current height z alone.
    """
    require_valid(dist)
    height = int(height)
    if height < 1:
        raise ValueError("height must be >= 1")
    if cfg.horizon is None:
        raise ValueError("half-plane survival requires an explicit horizon")
    return _survival_estimate(dist, (0, height), cfg, (1,))


def _visit_bounds(steps, probs):
    """Per axis (c, g): from level z a coordinate's expected visits to
    level l, now and later, are at most g * c**max(z - l, 0).

    The coordinate moves down by at most one per step, so from above l
    it ever reaches l with probability c^(z - l), c its exit root.  From
    l it returns with probability at most p0 + p_-1 + sum_{d>=1} p_d c^d
    = 1 - p_-1 (1/c - 1), so it visits l at most c / (p_-1 (1 - c))
    times (gambler's ruin for a left-continuous walk, Feller vol. 1,
    ch. XIV).  An axis whose drift is <= 0 gives no bound (g = inf).
    """
    out = []
    for a, c in enumerate(_exit_roots(steps, probs, (0, 1))):
        if c == 1.0:
            g = math.inf
        else:
            g = c / (float(probs[steps[:, a] == -1].sum()) * (1.0 - c))
        out.append((c, g))
    return out


class _Powers:
    """Stands in for a root c in ``c ** k``, k a non-negative integer
    array: gathers from a table of c ** arange(n), grown when a larger k
    comes.  np.power fills it from the same operands, so a gathered power
    has the bits of the direct one."""

    def __init__(self, c: float):
        self.c = c
        self.table = np.empty(0)

    def __pow__(self, k):
        top = int(np.max(k, initial=0))
        if top >= len(self.table):
            self.table = self.c ** np.arange(max(top + 1, 2 * len(self.table)))
        return self.table[k]


def _visit_bound(axis_bounds, z, y, singular: bool):
    """Bound on the expected further visits to y of walks now at z: a
    visit needs both coordinates at y's levels, so the smaller of the two
    axis bounds holds, and killing only removes visits.  Each axis's c is
    a float or, per call of _visit_walk, its _Powers.

    ``singular`` says that no step of the law lowers x + y.  A walk then
    never returns below its anti-diagonal, so from z with
    z_x + z_y > y_x + y_y it never visits y and the bound is exactly 0.
    """
    b = np.minimum(
        *(g * c ** np.maximum(p - q, 0) for (c, g), p, q in zip(axis_bounds, z, y))
    )
    if singular:
        b = np.where(np.add(z[0], z[1], dtype=np.int64) > y[0] + y[1], 0.0, b)
    return b


def _visit_walk(dist, starts, ys, weights, horizon, cfg: SimConfig):
    """The walk counting visits to the points ys, each row bounded by
    _visit_bound.  Twisting keeps the support, so whether the law is
    singular is decided once from its steps."""
    steps, probs = _twisted_probs(dist, cfg.twist)
    axis_bounds = [(_Powers(c), g) for c, g in _visit_bounds(steps, probs)]
    singular = bool((steps.sum(axis=1) >= 0).all())
    bound = lambda p, ti: _visit_bound(axis_bounds, p, ys[ti], singular)
    return _walk(
        steps, probs, starts, ys, weights, bound, horizon, cfg.seed, cfg.n_paths
    )


def _default_horizon(x, y) -> int:
    return max(1, 10 * (abs(y[0] - x[0]) + abs(y[1] - x[1])))


def _twist_weight(twist: CramerData | None, x, y) -> float:
    if twist is None:
        return 1.0
    e = twist.phi[0] * (y[0] - x[0]) + twist.phi[1] * (y[1] - x[1])
    if abs(e) > 700.0:
        raise SolverError(f"twist reweighting exponent {e!r} would overflow")
    return math.exp(-e)


def estimate_green(dist: StepDistribution, x, y, cfg: SimConfig) -> SimEstimate:
    """Expected pre-absorption visits to y from x (the killed Green value).

    Under a twist the sampling law is tilted and every visit carries the
    constant weight exp(-<phi, y - x>), which undoes the tilt exactly
    because all paths from x to y share the displacement y - x.

    From z, a path's expected further visits to y (under the law actually
    sampled) are at most min over the axes of c^((z - y)+) * G1, with c
    the axis's exit root and G1 = c / (p_-1 (1 - c)) (see _visit_bounds).
    No step of a valid model lowers x + y, so once z_x + z_y > y_x + y_y
    the bound is exactly 0.  After every block a path whose weighted
    bound is below 1e-7 retires: its later visits go uncounted.  A path
    past y's anti-diagonal thus retires after the block in which it
    crosses, at no cost to the bias.  The estimate can only
    understate the Green value, and ``bias_bound`` says by how much: the
    mean weighted bound of the retired paths at retirement, plus that of
    the paths still walking at the horizon, so
    0 <= G - E[mean] <= E[bias_bound].
    ``censored_fraction`` is the share of paths neither absorbed nor
    retired at the horizon.
    """
    require_valid(dist)
    x = (int(x[0]), int(x[1]))
    y = (int(y[0]), int(y[1]))
    if min(x) < 1 or min(y) < 1:
        raise ValueError("green endpoints must be strictly inside the quadrant")
    horizon = cfg.horizon if cfg.horizon is not None else _default_horizon(x, y)
    w = _twist_weight(cfg.twist, x, y)
    sums, sqs, _, open_counts, bounds, _ = _visit_walk(
        dist, [x], [y], [[w]], horizon, cfg
    )
    n = cfg.n_paths
    mean_v = sums[0][0] / n
    var_v = max(0.0, (sqs[0][0] - n * mean_v * mean_v) / max(1, n - 1))
    return SimEstimate(
        mean=w * mean_v,
        std_error=w * math.sqrt(var_v / n),
        n_paths=n,
        horizon=horizon,
        censored_fraction=open_counts[0][0] / n,
        bias_bound=w * bounds[0][0] / n,
    )


_MARTIN_BASE = (1, 1)


def martin_kernel_profile(
    dist: StepDistribution, x, ys: Sequence, cfg: SimConfig
) -> list[SimEstimate]:
    """Martin kernel G(x, y) / G((1,1), y) for several y in one simulation.

    Both starts consume the same increment stream (common random
    numbers), which cancels most of the noise in the ratio; the standard
    error comes from the delta method with the across-path covariance.

    A path retires from target y once its visit bound (see estimate_green)
    is below 1e-7 from every start still alive in it, as it is once past
    y's anti-diagonal from both, and stops drawing once retired from
    every target.  The Green means A (from x) and B
    (from (1, 1)) then understate theirs by at most beta_A and beta_B, so
    the ratio of the expectations lies in [A / (B + beta_B),
    (A + beta_A) / B]; ``bias_bound`` is the larger distance from the
    ratio to an end of that interval.  ``censored_fraction`` is the larger
    share, over the two starts, of paths neither absorbed nor retired
    from y at the horizon.
    """
    require_valid(dist)
    x = (int(x[0]), int(x[1]))
    ys = [(int(y[0]), int(y[1])) for y in ys]
    if not ys:
        raise ValueError("martin profile needs at least one target y; got an empty list")
    if min(x) < 1 or any(min(y) < 1 for y in ys):
        raise ValueError("martin endpoints must be strictly inside the quadrant")
    horizon = (
        cfg.horizon
        if cfg.horizon is not None
        else max(_default_horizon(x, y) for y in ys)
    )
    starts = [x, _MARTIN_BASE]
    weights = [[_twist_weight(cfg.twist, s, y) for y in ys] for s in starts]
    sums, sqs, crosses, open_counts, bounds, _ = _visit_walk(
        dist, starts, ys, weights, horizon, cfg
    )
    n = cfg.n_paths
    out = []
    for ti, y in enumerate(ys):
        w_a, w_b = weights[0][ti], weights[1][ti]
        sum_a, sum_b = w_a * sums[0][ti], w_b * sums[1][ti]
        if sum_b == 0.0:
            raise SolverError(
                f"no visits to {y} from {_MARTIN_BASE}; increase n_paths/horizon"
            )
        mean_a, mean_b = sum_a / n, sum_b / n
        var_a = max(0.0, (w_a * w_a * sqs[0][ti] - n * mean_a**2) / max(1, n - 1))
        var_b = max(0.0, (w_b * w_b * sqs[1][ti] - n * mean_b**2) / max(1, n - 1))
        cov = (w_a * w_b * crosses[ti] - n * mean_a * mean_b) / max(1, n - 1)
        ratio = mean_a / mean_b
        var_r = max(
            0.0, (var_a + ratio * ratio * var_b - 2.0 * ratio * cov)
        ) / (n * mean_b * mean_b)
        beta_a, beta_b = w_a * bounds[0][ti] / n, w_b * bounds[1][ti] / n
        out.append(
            SimEstimate(
                mean=ratio,
                std_error=math.sqrt(var_r),
                n_paths=n,
                horizon=horizon,
                censored_fraction=max(open_counts[0][ti], open_counts[1][ti]) / n,
                bias_bound=max(
                    ratio - mean_a / (mean_b + beta_b),
                    (mean_a + beta_a) / mean_b - ratio,
                ),
            )
        )
    return out


def martin_kernel_estimate(dist: StepDistribution, x, y, cfg: SimConfig) -> SimEstimate:
    return martin_kernel_profile(dist, x, [y], cfg)[0]


def green_direction_scan(
    dist: StepDistribution, x, u, radii: Sequence, cfg: SimConfig
) -> list[ScanPoint]:
    """sqrt(|y|)-scaled, twist-corrected Green values along a direction.

    Each radius r maps to the lattice point y closest to r*u; the twist
    is recomputed from the rounded direction y/|y| so the correction
    matches the point actually simulated.  The scaled value equals
    sqrt(|y|) * exp(-<phi, x - y>) * G(x, y), which converges to a
    positive limit along the ray.
    """
    require_valid(dist)
    geom = find_extrema(dist)
    u1, u2 = float(u[0]), float(u[1])
    norm = math.hypot(u1, u2)
    if norm <= 0 or u1 <= 0 or u2 <= 0:
        raise ValueError("scan direction must point strictly into the quadrant")
    u1, u2 = u1 / norm, u2 / norm
    out = []
    for r in radii:
        r = float(r)
        if r <= 0:
            raise ValueError("radii must be positive")
        y = (max(1, round(r * u1)), max(1, round(r * u2)))
        ny = math.hypot(y[0], y[1])
        twist = cramer_transform(geom, (y[0] / ny, y[1] / ny))
        cfg_y = SimConfig(
            seed=cfg.seed, n_paths=cfg.n_paths, horizon=cfg.horizon, twist=twist
        )
        est = estimate_green(dist, x, y, cfg_y)
        corr = math.sqrt(ny) * _twist_weight(twist, y, x)  # exp(-<phi, x-y>)
        out.append(
            ScanPoint(
                radius=r,
                y=y,
                norm=ny,
                value=corr * est.mean,
                std_error=corr * est.std_error,
                horizon=est.horizon,
            )
        )
    return out


def _marginal(steps, probs, axis: int) -> dict[int, Fraction]:
    """One coordinate's step law, summed exactly from the float probabilities."""
    marg: dict[int, Fraction] = {}
    for d, p in zip(steps[:, axis].tolist(), probs.tolist()):
        marg[d] = marg.get(d, 0) + Fraction(p)
    return marg


def _exit_roots(steps, probs, axes) -> list[float]:
    """_exit_root of each axis in ``axes``, solved once per distinct
    marginal: the root is a function of the marginal alone, and laws
    symmetric in x and y have one."""
    solved: dict[frozenset, float] = {}
    out = []
    for a in axes:
        key = frozenset(_marginal(steps, probs, a).items())
        if key not in solved:
            solved[key] = _exit_root(steps, probs, a)
        out.append(solved[key])
    return out


def _exit_root(steps, probs, axis: int) -> float:
    """Root in [0, 1] of the descent equation of one coordinate's marginal.

    The coordinate moves down by at most one per step, so from level z
    it ever reaches 0 with probability c^z, where c solves
    psi(c) = sum_d P(d) c^d - 1 = 0 on (0, 1) (gambler's ruin for a
    skip-free walk).  In t = log c, psi is the kernel section
    f(t) = sum_d P(d) e^(d t) - 1 of the marginal, convex with slope
    f'(0) = mu > 0, and the root is its lower one: the curve solver
    brackets and solves f' for the section minimizer, then f for the
    root left of it.  exp(t) is then rounded up to the least float c
    with psi(c) <= 0, psi evaluated exactly in Fraction on the float
    probabilities, so c^z bounds the exit chance of the float law.
    Returns 1.0 when the drift on the axis is <= 0 (descent is then
    certain); every valid law, twisted or not, steps down on both axes.
    """
    marg = _marginal(steps, probs, axis)
    section = StepDistribution(
        steps=tuple((d, 0) for d in marg), probs=tuple(map(float, marg.values()))
    )
    mu = log_kernel_grad(section, 0.0, 0.0)[0]
    if mu <= 1e-12:
        return 1.0

    excess = float(sum(marg.values()) - 1)  # the float law need not sum to 1
    f = lambda t: log_kernel_eval(section, t, 0.0) + excess
    df = lambda t: log_kernel_grad(section, t, 0.0)[0]
    tmin = _solve(
        lambda t: (df(t), log_kernel_hess(section, t, 0.0)[0]),
        *_bracket(df, 0.0, mu, -1, 1.0),
    )
    fmin = f(tmin)
    if fmin >= 0.0:
        return 1.0
    c = math.exp(_solve(lambda t: (f(t), df(t)), *_bracket(f, tmin, fmin, -1, 0.25)))

    def psi(v: float) -> Fraction:
        x = Fraction(v)
        return sum(p * x**d for d, p in marg.items()) - 1

    if psi(c) > 0:  # below the root: up to the first float past it
        while c < 1.0 and psi(c := math.nextafter(c, 1.0)) > 0:
            pass
    else:  # at or past the root: down while the next float still is
        while psi(below := math.nextafter(c, 0.0)) <= 0:
            c = below
    return c


def skipfree_exit_root(
    dist: StepDistribution, twist: CramerData | None = None
) -> float:
    """Root in (0, 1) of the vertical-marginal descent equation.

    The height coordinate moves down by at most one per step, so the
    chance of ever reaching the horizontal axis from height z is c^z,
    where c solves sum_j P(dj = j) c^j = 1 on (0, 1); the float returned
    is the least one at or above that root.  Returns 1.0 when
    the vertical drift is <= 0 (descent is then certain).
    """
    require_valid(dist)
    steps, probs = _twisted_probs(dist, twist)
    return _exit_root(steps, probs, 1)


def brownian_halfplane_kernel(t: float, x, y, mu, sigma) -> float:
    """Transition density of the killed Brownian limit in the half plane.

    The absorbing factor (1 - exp(-2 x2 y2 / (t s11))) vanishes exactly
    on the boundary and the remainder is the free Gaussian density with
    covariance t*sigma around x + t*mu.  For x2*y2/(t*s11) small the
    value is equivalent to the product of the factor and the Gaussian
    upper bound.
    """
    t = float(t)
    if t <= 0:
        raise ValueError("time must be positive")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if x[1] < 0 or y[1] < 0:
        raise ValueError("boundary distances x2, y2 must be nonnegative")
    s = np.asarray(sigma, dtype=float)
    if s.shape != (2, 2) or abs(s[0, 1] - s[1, 0]) > 1e-12 * (1 + abs(s).max()):
        raise ValueError("sigma must be a symmetric 2x2 matrix")
    w, v = np.linalg.eigh(s)
    if w.min() <= 1e-14 * max(1.0, w.max()):
        raise SolverError("covariance matrix is not positive definite")
    root_inv = (v * (w**-0.5)) @ v.T  # symmetric inverse square root
    d = y - x - t * mu
    quad = float(np.dot(root_inv @ d, root_inv @ d)) / (2.0 * t)
    gauss = math.exp(-quad) / (2.0 * math.pi * t * math.sqrt(float(w.prod())))
    absorb = -math.expm1(-2.0 * x[1] * y[1] / (t * s[0, 0]))
    return absorb * gauss
