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
absorbed within a few steps.  Each target stops at its own horizon, and
the block that reaches a target's horizon is cut there: the points of a
direction scan that share a twist share one walk, each to its own
horizon, while every other estimator gives all its targets one horizon,
so its cuts are those of that horizon alone.  A block consumes the
rows * blk uniforms that one ``rng.random((rows, blk))`` draw would
give, in the same row-major order: its rows are cut into contiguous
shards, at most one per available core and none under 2**15 uniforms,
drawn on their own threads, and each shard takes its uniforms from a copy of the batch's
Philox stream jumped ahead to them, so the shard count changes no bit.
A shard draws, codes and gathers its rows in chunks of whole rows, at
most 2**16 uniforms each, through buffers of its own that fit a core's
L2 cache, taking the chunks' uniforms from its stream in order, so the
chunk size changes no bit either.
Every uniform u becomes one code per step: with v = u * K and
k = floor(v), the code is 2k + (v - k < accept[k]), the alias decision
written as an index.  Two int8 tables, one per coordinate, map a code
to its step (entry 2k + 1 is step k, entry 2k its alias); when every
accept is 1, as for uniform laws, the alias is never taken and the code
is just k.  Each coordinate is gathered on its own and prefix-summed
into a (blk, rows) array, step t in row t: a block of fewer than
_SCAN_ROWS rows by one np.add.accumulate call, a wider one by running
adds of one row onto the next (accumulate walks a column at a time,
which costs more than a call per row once the rows are many).  The sums
are int8 when no step component exceeds 1 and int16 otherwise: no
component is below -1, so a block's offsets stay within [-64, 64], or
within [-64, 4096] under model.MAX_SUPPORT_RADIUS.  Absorption is
tested on those offsets, a row's lowest offset against minus its
position, and visits by comparing them with each target minus the
position; every such per-row threshold is first clipped into the
offsets' dtype, which changes no compare, so only the int32 position
update widens.  Visit runs also keep, per axis, running minima of the
offsets (scanned by the same rule as the sums), the lowest offset up to
each step, whose last row is the block's lowest point: a row stands
alive at step c from a start iff it was alive there at the block's
start and both its running minima at c stay above minus its position.
The target matching runs on the draw's row shards, each shard returning
the batch rows it matched; visit counts and every float reduction
(moments, bounds) are then taken over the whole batch in one fixed
order.

What depends on the sampled law alone, the alias and code tables, the
exit roots and visit bounds, is computed once per model object and
twist: a _Law, which caches its roots and bounds, kept in the object's
memo (_law) beside the validation report of model.require_valid; what
grows with a run (chunk buffers, positions) lives only as long as the call.

Every estimator reduces one engine, _walk: rows walk from one start, or
from the two of a Martin profile, which share each row's draws, and are
stopped per target, a lattice point whose visits are counted or none for
escape and survival, each target at its horizon.  After every block, the
last included, a row retires from a target once a bound on what it can
still add there is below 1e-7 from every start still alive in it: for
escape its chance of ever exiting, at most c_x^i + c_y^j (the exit roots
of skipfree_exit_root, rounded up; c_y^j alone for half-plane survival,
which never touches x), for Green and Martin its further visits to the
point (a gambler's-ruin bound per coordinate, see _Law.visit_bounds, and
exactly 0 once the row is past the point's anti-diagonal, which the walk
of a valid model, no step of which lowers x + y, cannot recross).  A row
is dropped once absorbed from every start or retired from, or past the
horizon of, every target, and later blocks draw only for the rows left.
The bounds of the retired rows, at retirement, and of the rows still
open at the target's horizon, there, make up each estimate's
``bias_bound``.  The array layout may change, but these block lengths,
this stream consumption, this alias decision and this retirement rule
are the reproducibility contract (pinned by
tests/test_stream_contract.py).  Cramer twisting replaces the step law
by p_s * exp(<phi, s>) (a probability law because phi lies on the zero
curve) and reweights Green-function visits by the constant
exp(-<phi, y - x>).
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Sequence

import numpy as np

from .curve import (
    CramerData,
    SolverError,
    _bracket,
    _Section,
    _solve,
    cramer_transform,
    find_extrema,
)
from .model import StepDistribution, require_valid

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


class _Law:
    """A step law as the simulator samples it, with what every call on it
    reads: ``steps`` and ``probs`` (from _twisted_probs), the alias
    ``accept`` and two int8 ``tables``, one per coordinate, that map a
    code to its step (entry 2k + 1 is step k, entry 2k its alias; entry k
    is step k when the law is ``trivial``, every accept 1), the offsets'
    ``dtype``, and the exit ``roots`` and ``visit_bounds``, each solved on
    first read and cached (a law that only draws steps never solves them).

    ``dtype`` is int8 when no step component exceeds 1, int16 otherwise.
    No component is below -1 on a valid law, so the offsets of a block of
    at most _BLOCK = 64 steps lie in [-64, 64] in the first case and,
    with components capped at MAX_SUPPORT_RADIUS = 64, in [-64, 4096] in
    the second.

    _law keeps one per model object and twist, shared by every call and
    thread on them, so it holds only read-only arrays of one entry per
    step and cached values that never change: a thread that reads one
    before it is stored may solve it again, to the same value.
    """

    def __init__(self, steps, probs):
        accept, alias = _alias_table(probs)
        self.steps, self.probs, self.accept = steps, probs, accept
        self.k = len(probs)
        self.dtype = np.int8 if steps.max() <= 1 else np.int16
        self.trivial = bool((accept == 1.0).all())  # then alias is the identity
        if self.trivial:
            self.tables = steps.T.astype(np.int8)  # code k -> step k
        else:
            self.tables = np.empty((2, 2 * self.k), dtype=np.int8)
            self.tables[:, 1::2] = steps.T  # code 2k + 1 -> step k
            self.tables[:, 0::2] = steps[alias].T  # code 2k -> alias of k
        for a in (steps, probs, accept, self.tables):
            a.flags.writeable = False

    @cached_property
    def roots(self) -> tuple[float, float]:
        """_exit_root of the x and the y axis.  The root is a function of
        the marginal alone, so a law symmetric in x and y solves one."""
        cx = _exit_root(self.steps, self.probs, 0)
        mx, my = (_marginal(self.steps, self.probs, a) for a in (0, 1))
        return cx, (cx if mx == my else _exit_root(self.steps, self.probs, 1))

    @cached_property
    def visit_bounds(self) -> tuple:
        """Per axis (c, g): from level z a coordinate's expected visits to
        level l, now and later, are at most g * c**max(z - l, 0).

        The coordinate moves down by at most one per step, so from above l
        it ever reaches l with probability c^(z - l), c its exit root.
        From l it returns with probability at most p0 + p_-1 +
        sum_{d>=1} p_d c^d = 1 - p_-1 (1/c - 1), so it visits l at most
        c / (p_-1 (1 - c)) times (gambler's ruin for a left-continuous
        walk, Feller vol. 1, ch. XIV).  An axis whose drift is <= 0 gives
        no bound (g = inf).
        """
        down = [float(self.probs[self.steps[:, a] == -1].sum()) for a in (0, 1)]
        return tuple((c, math.inf if c == 1.0 else c / (d * (1.0 - c)))
                     for c, d in zip(self.roots, down))


def _law(dist: StepDistribution, twist: CramerData | None) -> _Law:
    """The _Law of ``dist`` under ``twist``, built once per model object and
    twist: the object's memo keys it by the bits of the twist's phi, or by
    None.  Nothing in it grows with a run's paths, horizon or positions."""
    key = None if twist is None else tuple(map(float.hex, twist.phi))
    law = dist._memo.get(key)
    if law is None:
        law = dist._memo.setdefault(key, _Law(*_twisted_probs(dist, twist)))
    return law


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
_CHUNK = 1 << 16  # uniforms a shard draws, codes and gathers per pass
_PHILOX_OUTPUTS = 4  # uint64 outputs per Philox counter step
# blocks of fewer rows are prefix-scanned by one accumulate call (_scan)
_SCAN_ROWS = 512
_pool = None  # the shards' ThreadPoolExecutor, made on first use
_pool_lock = threading.Lock()


def _shard_pool():
    global _pool
    with _pool_lock:
        if _pool is None:
            # imported here: concurrent.futures, with logging, adds 4-6 ms
            # to loading this module, which a run that draws every block in
            # one shard need not pay
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(_CORES - 1)  # shard 0 runs in the caller
        return _pool


def _drop_shard_pool() -> None:
    """A forked child inherits the executor but none of its threads."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_shard_pool)


def _cuts(rows: int, blk: int) -> list[int]:
    """Row bounds of a block's shards: up to _CORES contiguous runs of rows
    of at least _SHARD_MIN uniforms each, shard s holding rows
    cuts[s]:cuts[s + 1].  The draw and the visit matching cut alike."""
    w = max(1, min(_CORES, rows * blk // _SHARD_MIN))
    return [rows * s // w for s in range(w + 1)]


def _on_shards(shard, cuts) -> list:
    """shard(s) for every shard of ``cuts``, in shard order: shard 0 in
    this thread, each other one on the shard pool."""
    w = len(cuts) - 1
    futures = [_shard_pool().submit(shard, s) for s in range(1, w)] if w > 1 else []
    try:
        first = shard(0)
    finally:
        rest = [f.result() for f in futures]
    return [first, *rest]


def _narrow(c, qs, dtype):
    """Minus the int32 positions ``c``, then each q in ``qs`` minus them,
    as the rows of one (1 + len(qs), rows) array clipped into ``dtype``
    (in int32, in place: clipping straight into ``dtype`` takes numpy's
    slower casting path).  Offsets of that dtype lie well inside its
    range, so an offset compares with a clipped value as with the value
    itself, and never equals one that was clipped."""
    wide = np.empty((1 + len(qs), len(c)), dtype=np.int32)
    np.negative(c, out=wide[0])
    for row, q in zip(wide[1:], qs):
        np.add(wide[0], q, out=row)
    info = np.iinfo(dtype)
    np.minimum(wide, info.max, out=wide)
    np.maximum(wide, info.min, out=wide)
    return wide.astype(dtype)


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
    """One call's draw from a _Law: a Philox generator for each extra shard
    of a block, and per shard one chunk's buffers: the uniforms and codes
    (8 bytes each), the alias compare's accept[k] (8) and the alias
    decisions, then steps (1), about 1.6 MB at _CHUNK, inside a core's L2
    cache.  None of it outlives the call.
    """

    def __init__(self, law: _Law, n_paths: int, horizon: int):
        self.law = law
        # no chunk holds more uniforms than the largest block of the run
        self._chunk = min(_CHUNK, min(n_paths, BATCH_SIZE) * min(horizon, _BLOCK))
        self._bufs = []  # per shard (u, code, acc, picked), made on first use
        self._gens = []

    def offsets(self, rng, rows: int, blk: int, axes=(0, 1)):
        """Draw one block for ``rows`` rows; per axis, the (blk, rows)
        prefix sums of the steps in the law's ``dtype``, step t in row t.

        The rows are cut into the shards of _cuts.  Shard 0 draws from
        ``rng`` in this thread, each other one on the shard pool from a
        Philox copy jumped to its first row, and ``rng`` then takes the
        last shard's end state, so the uniforms and the state left are
        those of one serial draw.  A shard draws, alias-codes and gathers
        its rows in chunks of whole rows, at most _CHUNK uniforms each,
        through its own buffers, taking its uniforms from its generator
        in order.  Those buffers and the offsets are allocated here,
        before the shards start (temporaries allocated on the pool threads
        raised peak memory), and the prefix sums (_scan) stay here, after
        the join (as many small calls per shard, they contend for the
        interpreter lock).
        """
        law = self.law
        cuts = _cuts(rows, blk)
        w = len(cuts) - 1
        offs = [np.empty((blk, rows), dtype=law.dtype) for _ in axes]
        state = rng.bit_generator.state if w > 1 else None
        while len(self._gens) < w - 1:
            self._gens.append(np.random.Generator(np.random.Philox(0)))
        n = self._chunk
        while len(self._bufs) < w:
            self._bufs.append((np.empty(n), np.empty(n, dtype=np.intp),
                               None if law.trivial else np.empty(n),
                               np.empty(n, dtype=np.int8)))
        step = n // blk  # rows per chunk

        def shard(s):
            """Draw, alias-code and gather the steps of shard s into its
            columns of ``offs``, writing only through ``out=``."""
            r0, r1 = cuts[s], cuts[s + 1]
            gen = rng
            if s:
                gen = self._gens[s - 1]
                _jump(gen.bit_generator, state, r0 * blk)
            u, code, acc, picked = self._bufs[s]
            for c0 in range(r0, r1, step):
                c1 = min(c0 + step, r1)
                m = (c1 - c0) * blk
                v, c, p = u[:m], code[:m], picked[:m]  # alias decisions, then steps
                gen.random(out=v)
                v *= law.k
                c[...] = v  # u <= 1 - 2**-53, so u * k rounds below k
                if not law.trivial:
                    v -= c  # v - k, exactly as the alias decision reads it
                    take = p.view(np.bool_)
                    law.accept.take(c, out=acc[:m], mode="clip")
                    np.less(v, acc[:m], out=take)
                    c *= 2
                    c += take
                for off, a in zip(offs, axes):
                    # mode="clip" writes straight into ``out``; "raise" buffers it
                    law.tables[a].take(c, out=p, mode="clip")
                    off[:, c0:c1] = p.reshape(c1 - c0, blk).T

        _on_shards(shard, cuts)
        if w > 1:
            end = self._gens[w - 2].bit_generator.state
            end["has_uint32"], end["uinteger"] = state["has_uint32"], state["uinteger"]
            rng.bit_generator.state = end
        for off in offs:
            _scan(np.add, off, off)
        return offs


def _scan(op, off, out):
    """Per row t of the (blk, rows) block ``off``, ``op`` over its rows
    0..t, into ``out`` (``off`` itself scans in place).  Below _SCAN_ROWS
    rows one ``op.accumulate`` call; from there on running row operations,
    one call per row, each over every column: accumulate walks a column at
    a time, which costs more than the per-call overhead on wide blocks.
    Integer adds and minima are exact, so both give the same bits."""
    if off.shape[1] < _SCAN_ROWS:
        return op.accumulate(off, axis=0, dtype=off.dtype, out=out)
    if out is not off:
        out[0] = off[0]
    for t in range(1, len(off)):
        op(out[t - 1], off[t], out=out[t])
    return out


def _running_min(off):
    """Per row t of ``off``, the least of rows 0..t."""
    return _scan(np.minimum, off, np.empty_like(off))


def _keep_rows(keep, axes, pos, alive, open_, live):
    """The row state of _walk restricted to the rows marked in ``keep``."""
    return (
        [[c[keep] if a in axes else c for a, c in enumerate(p)] for p in pos],
        [a[keep] for a in alive],
        [o[keep] for o in open_],
        None if live is None else live[keep],
    )


def _walk(law, starts, targets, weights, bound, horizons, seed, n_paths, axes=(0, 1)):
    """One batched walk from every start at once, stopped per target.

    Steps are drawn from the _Law ``law``.  A target is a lattice point,
    whose visits before absorption are counted, or None, which counts
    nothing (survival uses one).  Target ti stops at its own horizon,
    horizons[ti], and the walk runs to the largest one.
    ``bound(pos, ti)``, with ``pos`` a start's [x, y] row arrays, bounds
    per row what a row there can still add to target ti: its further
    visits to the point, or its chance of ever exiting.  Absorption is
    tested on ``axes`` only; a coordinate off them keeps its start value.

    Blocks are _BLOCK steps long, after those of _SURVIVAL_RAMP when no
    target is a point, and the block that reaches a target's horizon is
    cut there.  Every block draws only for the live rows, and all starts
    of a row share its draws, but a visit from a start counts only at the
    steps the row takes alive from it, none once absorbed.
    The absorption test compares the block's offsets, in the law's
    narrow dtype, with each row's minus position and the visit match
    with each target minus it, all clipped into that dtype by one
    _narrow call per start, axis and block.  When a target is a point,
    each axis's offsets also get running minima (_running_min), and each
    shard of _cuts finds, for every start and point not yet at its
    horizon, the steps at which its rows stand on the point; such a step
    c counts iff the row is alive from the start and open for the point,
    and both running minima at c lie above the row's floors, so no step
    at or before c touched an axis.  The visits are added here with
    bincount, and the running moments, bounds and retirements stay here
    too, over the whole batch.
    After every block, the last included, a row retires from target ti
    once its bound times weights[si][ti] is below _RETIRE_EPS from every
    start still alive in it; from then on it adds no visit to ti.  At
    ti's horizon the rows still open for it are bounded there and ti
    closes.  A row absorbed from every start is dropped before it is
    bounded, and one retired from, or closed for, every target before
    the next block.  With one horizon for every target, as survival,
    Green and Martin runs pass, the cuts are those of that horizon alone.

    Returns (sums, sumsqs, crosses, open_counts, bounds, survived), each
    reduced in batch order:
      sums[si][ti], sumsqs[si][ti]: per-path visit count moments (0 for a
      None target);
      crosses[ti]: sum over paths of visits-from-start0 * visits-from-start1
      (None unless two starts are given);
      open_counts[si][ti]: paths neither absorbed from si nor retired from
      ti at ti's horizon;
      bounds[si][ti]: summed bounds from si for ti, of each path retired
      from ti at its retirement and of each path still open for ti at
      ti's horizon;
      survived[si]: paths never absorbed from si, retired or open.
    Visit counts stay indexed by batch row.
    """
    points = [ti for ti, y in enumerate(targets) if y is not None]
    horizon = max(horizons)  # each is cfg.horizon, or a default >= 1
    _check_stream_inputs(
        law.steps, list(starts) + [targets[ti] for ti in points], horizon, seed, n_paths
    )
    sampler = _StepSampler(law, n_paths, horizon)
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
        keep = np.ones(rows, dtype=bool)  # rows to walk on
        lengths = itertools.chain(() if points else _SURVIVAL_RAMP,
                                  itertools.repeat(_BLOCK))
        t = 0
        while t < horizon and keep.any():
            # the targets not yet at their horizons, and the nearest of those
            walking = [ti for ti, h in enumerate(horizons) if h > t]
            blk = min(next(lengths), min(horizons[ti] for ti in walking) - t)
            at_points = [ti for ti in points if ti in walking]
            if not keep.all():
                pos, alive, open_, live = _keep_rows(keep, axes, pos, alive, open_, live)
            n = len(alive[0])
            offs = sampler.offsets(rng, n, blk, axes)
            if points:
                # per step, each axis's lowest offset so far: a row is
                # alive at step c iff both stay above its floors
                mins = [_running_min(off) for off in offs]
                lows = [m[-1] for m in mins]
            else:
                lows = [off.min(axis=0) for off in offs]
            # per start and axis, minus the position and each point's level
            # minus it, in the offsets' dtype: a row reaches 0 on the axis
            # at any offset at or below the first, and the point's level at
            # the others
            levels = [[_narrow(p[a], [targets[ti][a] for ti in at_points], law.dtype)
                       for a in axes] for p in pos]
            floors = [[lv[0] for lv in lvs] for lvs in levels]
            hits = []
            for si, fl in enumerate(floors):
                # absorbed in this block: its lowest point reaches 0 on an axis
                hit = lows[0] <= fl[0]
                for low, f in zip(lows[1:], fl[1:]):
                    hit |= low <= f
                hit &= alive[si]
                survived[si] -= int(hit.sum())
                hits.append(hit)
            if at_points:
                cuts = _cuts(n, blk)
                # per start and point, the offsets at which a row stands on it
                marks = [{ti: [lv[k] for lv in lvs] for k, ti in enumerate(at_points, 1)}
                         for lvs in levels]

                def match(s):
                    """Per start and point, the batch rows of shard s that
                    visit the point alive, once per visit."""
                    r0, r1 = cuts[s], cuts[s + 1]
                    off_x, off_y = (off[:, r0:r1] for off in offs)
                    found = []
                    for si, (fx, fy) in enumerate(floors):
                        at_ti = {}
                        for ti in at_points:
                            mx, my = marks[si][ti]
                            at = off_x == mx[r0:r1]
                            at &= off_y == my[r0:r1]
                            c, r = np.divmod(np.flatnonzero(at), r1 - r0)
                            r += r0
                            ok = alive[si][r] & open_[ti][r]
                            ok &= mins[0][c, r] > fx[r]
                            ok &= mins[1][c, r] > fy[r]
                            at_ti[ti] = live[r[ok]]
                        found.append(at_ti)
                    return found

                found = _on_shards(match, cuts)
                for si in range(n_starts):
                    for ti in at_points:
                        r = np.concatenate([f[si][ti] for f in found])
                        if len(r):
                            visits[si][ti] += np.bincount(r, minlength=rows)
            for si, p in enumerate(pos):
                for off, a in zip(offs, axes):
                    p[a] = p[a] + off[-1]
                alive[si] &= ~hits[si]
            t += blk
            # bound only the rows still alive from some start
            keep = np.logical_or.reduce(alive)
            if not keep.all():
                pos, alive, open_, live = _keep_rows(keep, axes, pos, alive, open_, live)
            for ti in walking:
                vb = [bound(p, ti) for p in pos]
                done = open_[ti].copy()
                for si, b in enumerate(vb):
                    done &= ~alive[si] | (b < _RETIRE_EPS / weights[si][ti])
                for si, b in enumerate(vb):
                    bounds[si][ti].append(float(b[done & alive[si]].sum()))
                open_[ti] &= ~done
                if horizons[ti] == t:
                    # the rows still open at ti's horizon, bounded where they stop
                    for si, b in enumerate(vb):
                        still = alive[si] & open_[ti]
                        open_parts[si][ti].append(int(still.sum()))
                        bounds[si][ti].append(float(b[still].sum()))
                    open_[ti][:] = False
            keep = np.logical_or.reduce(open_)
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
    law = _law(dist, cfg.twist)
    roots = law.roots  # solved before the first block draws
    bound = lambda p, ti: np.minimum(sum(roots[a] ** p[a] for a in axes), 1.0)
    _, _, _, open_counts, bounds, survived = _walk(
        law, [start], [None], [[1.0]], bound, [cfg.horizon], cfg.seed, cfg.n_paths, axes,
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


def _visit_bound(axis_bounds, z, y):
    """Per row of the [x, y] row arrays ``z``, a bound on the expected
    further visits to y of walks now there: a visit needs both
    coordinates at y's levels, so the smaller of the two axis bounds
    holds, and killing only removes visits.

    Validation admits no step that lowers x + y, so a walk never returns
    below its anti-diagonal: from z with z_x + z_y > y_x + y_y it never
    visits y and the bound is exactly 0.  The gambler's-ruin term is
    computed only for the other rows.
    """
    rows = np.flatnonzero(np.add(z[0], z[1], dtype=np.int64) <= y[0] + y[1])
    b = np.zeros(len(z[0]))
    b[rows] = np.minimum(*(g * c ** np.maximum(p[rows] - q, 0)
                           for (c, g), p, q in zip(axis_bounds, z, y)))
    return b


def _visit_walk(dist, starts, ys, weights, horizons, cfg: SimConfig):
    """The walk counting visits to the points ys, each to its horizon in
    ``horizons`` and each row bounded by _visit_bound on law.visit_bounds."""
    law = _law(dist, cfg.twist)
    axis_bounds = law.visit_bounds  # solved before the first block draws
    bound = lambda p, ti: _visit_bound(axis_bounds, p, ys[ti])
    return _walk(law, starts, ys, weights, bound, horizons, cfg.seed, cfg.n_paths)


def _default_horizon(x, y) -> int:
    return max(1, 10 * (abs(y[0] - x[0]) + abs(y[1] - x[1])))


def _twist_weight(twist: CramerData | None, x, y) -> float:
    if twist is None:
        return 1.0
    e = twist.phi[0] * (y[0] - x[0]) + twist.phi[1] * (y[1] - x[1])
    if abs(e) > 700.0:
        raise SolverError(f"twist reweighting exponent {e!r} would overflow")
    return math.exp(-e)


def _green_estimate(walk, ti, w, horizon, n) -> SimEstimate:
    """Target ti's Green estimate from the first start of the _visit_walk
    result ``walk`` over n paths, every visit weighted w."""
    sums, sqs, _, open_counts, bounds, _ = walk
    mean_v = sums[0][ti] / n
    var_v = max(0.0, (sqs[0][ti] - n * mean_v * mean_v) / max(1, n - 1))
    return SimEstimate(
        mean=w * mean_v,
        std_error=w * math.sqrt(var_v / n),
        n_paths=n,
        horizon=horizon,
        censored_fraction=open_counts[0][ti] / n,
        bias_bound=w * bounds[0][ti] / n,
    )


def _green_point(x) -> tuple[int, int]:
    x = (int(x[0]), int(x[1]))
    if min(x) < 1:
        raise ValueError("green endpoints must be strictly inside the quadrant")
    return x


def estimate_green(dist: StepDistribution, x, y, cfg: SimConfig) -> SimEstimate:
    """Expected pre-absorption visits to y from x (the killed Green value).

    Under a twist the sampling law is tilted and every visit carries the
    constant weight exp(-<phi, y - x>), which undoes the tilt exactly
    because all paths from x to y share the displacement y - x.

    From z, a path's expected further visits to y (under the law actually
    sampled) are at most min over the axes of c^((z - y)+) * G1, with c
    the axis's exit root and G1 = c / (p_-1 (1 - c)) (see _Law.visit_bounds,
    solved once per model object and twist).
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
    x, y = _green_point(x), _green_point(y)
    horizon = cfg.horizon if cfg.horizon is not None else _default_horizon(x, y)
    w = _twist_weight(cfg.twist, x, y)
    walk = _visit_walk(dist, [x], [y], [[w]], [horizon], cfg)
    return _green_estimate(walk, 0, w, horizon, cfg.n_paths)


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
        dist, starts, ys, weights, [horizon] * len(ys), cfg
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

    Radii whose twists give one sampled law, the _Law that _law keeps
    per bits of phi (those of a ray through the drift, and any that
    round to one y), share one walk: one _visit_walk per law, each of
    its points stopped at its own horizon, so a point alone in its law
    has the bits of estimate_green.  Points that
    share a walk share its paths, so their errors are positively
    correlated, and a gap between two of them that is checked against
    the hypot of their standard errors is checked conservatively.  Each
    distinct twist adds one _Law to ``dist``'s memo, kept for the
    object's life.
    """
    geom = find_extrema(dist)  # validates dist
    x = _green_point(x)
    u1, u2 = float(u[0]), float(u[1])
    norm = math.hypot(u1, u2)
    if not (norm < math.inf and u1 > 0 and u2 > 0):  # NaN fails too
        raise ValueError(
            f"scan direction {u!r} must be finite and point strictly into the quadrant"
        )
    u1, u2 = u1 / norm, u2 / norm
    radii = [float(r) for r in radii]
    if not all(0 < r < math.inf for r in radii):
        raise ValueError(f"radii {radii!r} must be finite and positive")
    ys = [(max(1, round(r * u1)), max(1, round(r * u2))) for r in radii]
    groups = {}  # per sampled law, the one _law keeps: (twist, ys)
    for y in dict.fromkeys(ys):
        ny = math.hypot(y[0], y[1])
        twist = cramer_transform(geom, (y[0] / ny, y[1] / ny))
        groups.setdefault(_law(dist, twist), (twist, []))[1].append(y)
    scanned = {}  # per distinct y, its point but for the radius
    for twist, targets in groups.values():
        horizons = [cfg.horizon if cfg.horizon is not None else _default_horizon(x, y)
                    for y in targets]
        weights = [_twist_weight(twist, x, y) for y in targets]
        walk = _visit_walk(dist, [x], targets, [weights], horizons,
                           replace(cfg, twist=twist))
        for ti, y in enumerate(targets):
            est = _green_estimate(walk, ti, weights[ti], horizons[ti], cfg.n_paths)
            ny = math.hypot(y[0], y[1])
            corr = math.sqrt(ny) * _twist_weight(twist, y, x)  # exp(-<phi, x-y>)
            scanned[y] = dict(y=y, norm=ny, value=corr * est.mean,
                              std_error=corr * est.std_error, horizon=est.horizon)
    return [ScanPoint(radius=r, **scanned[y]) for r, y in zip(radii, ys)]


def _marginal(steps, probs, axis: int) -> dict[int, Fraction]:
    """One coordinate's step law, summed exactly from the float probabilities."""
    marg: dict[int, Fraction] = {}
    for d, p in zip(steps[:, axis].tolist(), probs.tolist()):
        marg[d] = marg.get(d, 0) + Fraction(p)
    return marg


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
    marginal = StepDistribution(
        steps=tuple((d, 0) for d in marg), probs=tuple(map(float, marg.values()))
    )
    section = _Section(marginal, 0.0, 0)
    mu = section.slope(0.0)
    if mu <= 1e-12:
        return 1.0

    excess = float(sum(marg.values()) - 1)  # the float law need not sum to 1
    f = lambda t: section.value(t) + excess

    def fdf(t: float) -> tuple[float, float]:
        value, slope = section.value_slope(t)
        return value + excess, slope

    tmin = section.minimizer()
    fmin = f(tmin)
    if fmin >= 0.0:
        return 1.0
    c = math.exp(_solve(fdf, *_bracket(f, tmin, fmin, -1, 0.25)))

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
    return _law(dist, twist).roots[1]


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
