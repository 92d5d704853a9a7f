"""Bilateral exponential series that vanish on the quadrant boundary.

Starting from a point (a0, b0) on the open arc G0, alternately switching
the two curve roots produces a two-sided chain

    ... b_{-1} -> a_0, b_0 -> a_1 = f_hat(b_0), b_1 = g_hat(a_1) -> ...

whose consecutive switches each descend by at least c1 (horizontal) or c2
(vertical).  The signed sum

    h(i, j) = sum_n  exp(i*a_n + j*b_n) - exp(i*a_{n+1} + j*b_n)

is harmonic for the killed walk, vanishes on both axes (each row pairs
off exactly), and converges geometrically with ratio
exp(-(c1+c2)*(i+j)); the minimal descent also yields a computable
envelope that dominates every discarded term, so truncation error is
reported as a hard bound rather than an estimate.

Each chain is kept in one container, ``CompensationSequence``.  A
geometry stores one per start and tolerance, which grows as lower
degrees ask for more terms, and every series value sums an evaluation
window cut from a sequence's own terms.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace

from .curve import (
    CurveGeometry,
    SolverError,
    f_branch,
    f_hat,
    g_branch,
    g_hat,
    f_tilde,
    g_tilde,
    _SNAP,
    _slope,
    _snap_to_G0,
)
from .model import _lattice, log_kernel_eval

__all__ = [
    "CompensationSequence",
    "HarmonicValue",
    "PrecisionWarning",
    "canonicalize_start",
    "build_sequence",
    "harmonic_eval",
    "escape_probability",
    "boundary_harmonic",
]


# Lattice coordinates beyond 2**53 are not exact floats; refuse them.
_MAX_COORD = 1 << 53


def _require_float_exact(i: int, j: int) -> None:
    if i >= _MAX_COORD or j >= _MAX_COORD:
        raise ValueError("lattice coordinates must be below 2**53")


def _require_geometry(geom) -> None:
    if not isinstance(geom, CurveGeometry):
        raise TypeError(
            f"expected a CurveGeometry, got {type(geom).__name__}; "
            "build one with find_extrema(dist)"
        )


class PrecisionWarning(UserWarning):
    """The requested evaluation exceeds what the built truncation supports."""


@dataclass(frozen=True, init=False)
class HarmonicValue:
    """A series value with a bound on the terms it left out.

    ``tail_bound`` bounds the envelope of every term beyond the range
    that was summed, and ``terms_used`` counts that range.  Both depend
    on the degree i + j of the point, not only on the chain: a point of
    higher degree sums fewer terms and leaves a larger (still below the
    tolerance) tail.
    """

    value: float
    tail_bound: float  # rigorous bound on the discarded mass
    terms_used: int

    def __init__(self, value: float, tail_bound: float, terms_used: int):
        # Every series value makes one, so the fields go straight into the
        # instance dict: the generated frozen __init__ would make one
        # object.__setattr__ call per field.
        d = self.__dict__
        d["value"], d["tail_bound"], d["terms_used"] = value, tail_bound, terms_used


@dataclass(frozen=True)
class CompensationSequence:
    """Truncated two-sided switching chain with envelope constants.

    ``a_vals`` holds a_n for n in [n_min, n_max + 1] and ``b_vals`` holds
    b_n for n in [n_min, n_max]; term n of the series uses (a_n, b_n,
    a_{n+1}).  The envelope anchored at (a0, b0) with gaps (c1, c2)
    dominates the stored chain termwise and extends it to infinity.
    ``_ranges`` keeps the evaluation window of each degree evaluated (see
    ``harmonic_eval``).  The sequences ``build_sequence`` returns for one
    start and tolerance share it, since the range of their ``imin`` holds
    the range of every higher degree; a sequence built any other way,
    ``dataclasses.replace`` included, starts a memo of its own.
    """

    start: tuple[float, float]
    n_min: int
    n_max: int
    a_vals: tuple[float, ...]
    b_vals: tuple[float, ...]
    c1: float
    c2: float
    a0: float
    b0: float
    truncation_tol: float
    imin: int
    _ranges: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def a(self, n: int) -> float:
        if not (self.n_min <= n <= self.n_max + 1):
            raise IndexError(f"a({n}) outside stored range")
        return self.a_vals[n - self.n_min]

    def b(self, n: int) -> float:
        if not (self.n_min <= n <= self.n_max):
            raise IndexError(f"b({n}) outside stored range")
        return self.b_vals[n - self.n_min]


# a start whose kernel residual exceeds this is not on the curve
_ON_CURVE_TOL = 1e-6
_MAX_HOPS = 1000


def canonicalize_start(geom: CurveGeometry, point):
    """Walk a curve point along the switching orbit until it lands in G0.

    The point must lie on the zero curve, with a kernel residual of at
    most ``_ON_CURVE_TOL``.  Points within ``_SNAP`` of G0 are returned
    snapped onto the graph.  Points beyond the branch maxima climb back:
    each hop replaces one coordinate by the other root of its section,
    gaining at least c1 or c2, so the hop count is bounded and capped at
    ``_MAX_HOPS``.  The two branch maxima themselves sit on a degenerate
    orbit (switching returns the same point) and are rejected.
    """
    _require_geometry(geom)
    a, b = float(point[0]), float(point[1])
    residual = log_kernel_eval(geom.dist, a, b)
    if not abs(residual) <= _ON_CURVE_TOL:  # NaN fails too
        raise ValueError(
            f"start {point!r} is not on the zero curve (residual {residual!r})"
        )
    for _ in range(_MAX_HOPS):
        # Done when the point sits on one of the two G0 graph pieces.
        if (snapped := _snap_to_G0(geom, a, b)) is not None:
            return snapped
        if b > _SNAP:
            # Positive height: (a, b) = (f_hat(b), b) with b in (0, f(x0)];
            # cross to the inverse branch of f.
            a_new = f_tilde(geom, b)
            if abs(a_new - a) <= 1e-12:
                raise ValueError(
                    "start lies on the degenerate orbit through a branch maximum"
                )
            a = a_new
            continue
        if a > _SNAP:
            b_new = g_tilde(geom, a)
            if abs(b_new - b) <= 1e-12:
                raise ValueError(
                    "start lies on the degenerate orbit through a branch maximum"
                )
            b = b_new
            continue
        # Lower-left region: climb by switching the smaller coordinate up.
        fa = f_branch(geom, a)
        if b < fa - _SNAP:
            b = fa
            continue
        gb = g_branch(geom, b)
        if a < gb - _SNAP:
            a = gb
            continue
        raise SolverError(f"canonicalization stalled at {(a, b)!r}")
    raise SolverError(f"canonicalization exceeded {_MAX_HOPS} hops")


def _logaddexp(u: float, v: float) -> float:
    """log(exp(u) + exp(v)) without overflow."""
    hi, lo = max(u, v), min(u, v)
    return hi + math.log1p(math.exp(lo - hi))


def _tail_pieces(i, j, a0, b0, c1, c2, n_pos, n_neg, env):
    """Envelope tails beyond the summed range [-n_neg, n_pos].

    Every discarded positive-side term is dominated by the chain anchored
    at b0 descending exactly (c1, c2) per switch:
        exp(i*a_n + j*b_n)     <= exp((i+j)*b0 + i*c2) * q^n
        exp(i*a_{n+1} + j*b_n) <= exp((i+j)*b0 - i*c1) * q^n
    with q = exp(-(c1+c2)*(i+j)); symmetrically below with anchor a0 and
    the roles of i and j (and of c1 and c2) exchanged.  ``env`` holds the
    factors of degree i + j alone (see ``_window``), or None.
    """
    if env is not None:
        exp_mb0, exp_ma0, q_pos, q_neg1, q_neg, one_m_q = env
        try:
            up = exp_mb0 * (math.exp(i * c2) + math.exp(-i * c1)) * q_pos / one_m_q
            down = (
                exp_ma0
                * (math.exp(j * c1) * q_neg1 + math.exp(-j * c2) * q_neg)
                / one_m_q
            )
            return up, down
        except OverflowError:  # exp(i*c2) or exp(j*c1) for a far point
            pass
    # exp(m*b0), exp(m*a0), exp(i*c2) or exp(j*c1) overflows: go to log space
    log_q = -(c1 + c2) * (i + j)
    log_tail = -math.log1p(-math.exp(log_q))
    up = math.exp(
        (i + j) * b0 + _logaddexp(i * c2, -i * c1) + (n_pos + 1) * log_q + log_tail
    )
    down = math.exp(
        (i + j) * a0 + _logaddexp(j * c1 + log_q, -j * c2) + n_neg * log_q + log_tail
    )
    return up, down


def _need(log_lead: float, log_half: float, log_q: float) -> int:
    """Smallest n >= 1 with exp(log_lead) * q^n <= exp(log_half)."""
    if log_lead <= log_half:
        return 1
    return max(1, math.ceil((log_half - log_lead) / log_q - 1e-9))


def _term_range(c1, c2, a0, b0, m: int, tol: float) -> tuple[int, int]:
    """(n_pos, n_neg): the terms n in [-n_neg, n_pos] that degree m needs.

    Each envelope tail of ``_tail_pieces`` beyond that range is at most
    tol / 2 at every point of total degree m.  Sized in log space:
    exp(m*c2) overflows for a degree as far out as 2000.  Neither count
    ever grows with m: n_pos is the ceiling of b0/(c1+c2) + [log(1 +
    e^(m*c2)) - log(1-q) - log(tol/2)] / ((c1+c2)*m), each bracketed term
    over m falls with m, and n_neg is alike.  So the range of a
    sequence's imin holds that of every higher degree, and the sequences
    of one start and tolerance can share their windows.
    """
    log_q = -(c1 + c2) * m
    log_half = math.log(0.5 * tol)
    log_1mq = math.log1p(-math.exp(log_q))
    n_pos = _need(m * b0 + _logaddexp(m * c2, 0.0) - log_1mq, log_half, log_q)
    n_neg = _need(
        m * a0 + _logaddexp(m * c1 + log_q, 0.0) - log_1mq, log_half, log_q
    )
    return n_pos, n_neg + 1


def _window(m, a0, b0, c1, c2, n_pos, n_neg, a, b) -> tuple:
    """The tuple (n_pos, n_neg, a, a1, b, env) that degree m sums.

    ``a`` holds a_n for n in [-n_neg, n_pos + 1], a1 the same from
    n = -n_neg + 1, and ``b`` holds b_n for n in [-n_neg, n_pos].  env
    holds the tail factors of degree m alone: exp(m*b0), exp(m*a0),
    q^(n_pos+1), q^(n_neg+1), q^n_neg and 1 - q with q = exp(-(c1+c2)*m),
    or None when one overflows (``_tail_pieces`` then uses log space).
    """
    q = math.exp(-(c1 + c2) * m)
    try:
        env = (math.exp(m * b0), math.exp(m * a0),
               q ** (n_pos + 1), q ** (n_neg + 1), q**n_neg, 1.0 - q)
    except OverflowError:  # exp(m*b0) or exp(m*a0) for a far start
        env = None
    return n_pos, n_neg, a, a[1:], b, env


# Key on the exact bits: -0.0 == 0.0, but the two snap apart.
_ORIGIN_KEY = ((0.0).hex(), (0.0).hex())


def _switch(geom: CurveGeometry, a: float, count: int):
    """The a's and b's of ``count`` switches on from a, in the order made.

    Each is b = g_hat(a), then a = f_hat(b).  From a_{n+1} they grow the
    chain up (b_{n+1}, a_{n+2}, ...), from a_n down (b_{n-1}, a_{n-1}, ...).
    """
    new_a, new_b = [], []
    for _ in range(count):
        new_b.append(b := g_hat(geom, a))
        new_a.append(a := f_hat(geom, b))
    return new_a, new_b


def _stored_sequence(geom: CurveGeometry, start, tol: float, imin: int):
    """The sequence stored for ``start`` and ``tol``, of imin at most ``imin``.

    A lower ``imin`` than the stored one grows its chain at both ends to
    the ``_term_range`` of that degree, checks it whole and rebinds it
    whole, memo kept: a concurrent caller sees the old sequence or the
    new one.
    """
    if not (tol > 0):
        raise ValueError("truncation_tol must be positive")
    key = (float(start[0]).hex(), float(start[1]).hex()), tol
    seq = geom._chains.get(key)
    if seq is not None and seq.imin <= imin:
        return seq
    if seq is None:  # a start that fails the gate is never stored
        # Snap exactly onto whichever graph piece the start sits on, so the
        # switching recursion does not inherit the caller's rounding.
        snapped = _snap_to_G0(geom, float(start[0]), float(start[1]))
        if snapped is None:
            raise ValueError(f"start {start!r} is not in G0; canonicalize it first")
        (a0, b0), lo, hi, memo = snapped, 0, 0, {}
        a, b = (a0, f_hat(geom, b0)), (b0,)  # term 0
    else:
        (a0, b0), lo, hi, memo = seq.start, seq.n_min, seq.n_max, seq._ranges
        a, b = seq.a_vals, seq.b_vals

    n_pos, n_neg = _term_range(geom.c1, geom.c2, a0, b0, imin, tol)
    if max(n_pos, n_neg) > 100000:
        raise SolverError("truncation range exploded; tolerance unreachable")
    up_a, up_b = _switch(geom, a[-1], n_pos - hi)
    dn_a, dn_b = _switch(geom, a[0], n_neg + lo)
    seq = CompensationSequence(
        start=(a0, b0), n_min=lo - len(dn_a), n_max=hi + len(up_a),
        a_vals=(*dn_a[::-1], *a, *up_a), b_vals=(*dn_b[::-1], *b, *up_b),
        c1=geom.c1, c2=geom.c2, a0=a0, b0=b0, truncation_tol=tol, imin=imin,
    )
    _check_descent(seq)
    object.__setattr__(seq, "_ranges", memo)  # frozen: set past __init__
    geom._chains[key] = seq
    return seq


def build_sequence(
    geom: CurveGeometry,
    start,
    truncation_tol: float = 1e-14,
    imin: int = 1,
) -> CompensationSequence:
    """Iterate the switching chain far enough for the requested accuracy.

    The truncation range is the one ``_term_range`` gives at total degree
    ``imin``, the lowest degree the chain serves: there the envelope tail
    is below ``truncation_tol``, and ``harmonic_eval`` sums a shorter
    range for points of higher degree.  ``start`` must lie in G0 —
    canonicalize first if it does not.

    One sequence is stored on ``geom`` per start and tolerance, the one of
    the lowest ``imin`` asked for so far; a lower ``imin`` grows it.  The
    G0 gate runs on the first call, the interlacing check on each growth,
    over the whole chain.  A call returns that sequence, or a cut of it to
    the range of degree ``imin`` that shares its evaluation windows (see
    ``harmonic_eval``).  The recursion from the start is deterministic, so
    the result has the same bits as a chain built for this call alone.  A
    geometry queried at two tolerances stores two chains of the same
    terms.  Nothing is evicted: calls over many starts on one long-lived
    geometry grow it with every new start.
    """
    _require_geometry(geom)
    if imin < 1:
        raise ValueError("imin must be >= 1")
    seq = _stored_sequence(geom, start, truncation_tol, imin)
    if seq.imin == imin:
        return seq
    n_pos, n_neg, a, _, b, _ = seq._ranges.get(imin) or _sequence_window(seq, imin)
    cut = replace(seq, n_min=-n_neg, n_max=n_pos, a_vals=a, b_vals=b, imin=imin)
    object.__setattr__(cut, "_ranges", seq._ranges)
    return cut


def _check_descent(seq: CompensationSequence) -> None:
    # Walking away from the start the chain descends on both sides,
    # b_0 > a_1 > b_1 > ... above and a_0 > b_{-1} > a_{-1} > ... below.
    # This always holds for exact chains; a gross violation means a solver
    # landed on the wrong root, which must never pass silently.
    slack = 1e-6
    chain = [x for pair in zip(seq.a_vals, seq.b_vals) for x in pair]
    chain.append(seq.a_vals[-1])  # a_{n_min}, b_{n_min}, ..., a_{n_max+1}
    top = -2 * seq.n_min  # the index of a_0
    for k, (x, y) in enumerate(zip(chain, chain[1:])):
        if k != top and not (y - x if k > top else x - y) < slack:
            raise SolverError(
                f"switching chain lost interlacing near n={seq.n_min + k // 2}"
            )


def _sum_range(i, j, win, a0, b0, c1, c2, tol) -> HarmonicValue:
    """The series at (i, j) over the terms of a ``_window``, with its tail.

    Term n is exp(x*a_n + y*b_n) - exp(x*a_{n+1} + y*b_n).  Each term
    forms y*b_n once and hands x*a_{n+1} on as the next term's x*a_n.  A
    product of the same two floats rounds the same wherever it is formed,
    so each exponent is still the float sum of its own two products, and
    the value keeps every bit.
    The envelope anchored at (a0, b0) with gaps (c1, c2) bounds the terms
    left out.  Warns when that bound exceeds ``tol``; a SolverError when a
    term, their sum or the bound exceeds the float range, or the sum
    underflows to zero.
    """
    n_pos, n_neg, a, a1, b, env = win
    # i and j are below 2**53, so float(i) * x has the bits of i * x and
    # takes the interpreter's float fast path
    x, y = float(i), float(j)
    # fsum rounds once, so the order of the terms is free
    exp = math.exp
    terms = []
    push = terms.append
    try:
        xa = x * a[0]
        for an1, bn in zip(a1, b):
            yb = y * bn
            push(exp(xa + yb))
            xa = x * an1
            push(-exp(xa + yb))
        value = math.fsum(terms)
        up, down = _tail_pieces(x, y, a0, b0, c1, c2, n_pos, n_neg, env)
        tail = up + down
    except OverflowError:  # exp of a term or in log space, or fsum, for a far point
        tail = math.inf
    if not tail < math.inf:
        raise SolverError(f"harmonic value at ({i}, {j}) exceeds the float range")
    if value == 0.0:  # every h from a G0 start is positive inside the quadrant
        raise SolverError(f"harmonic value at ({i}, {j}) underflows the float range")
    if tail > tol:
        warnings.warn(
            f"tail bound {tail:.3e} exceeds the built tolerance "
            f"{tol:.3e} at (i,j)=({i},{j})",
            PrecisionWarning,
            stacklevel=3,
        )
    return HarmonicValue(value, tail, n_pos + n_neg + 1)


def _sequence_window(seq: CompensationSequence, m: int) -> tuple:
    """The window of degree m, cut from the sequence's own terms into its memo.

    It spans the range of degree m clipped to the stored one, or the
    stored range itself at degree ``imin``.
    """
    n_pos, n_neg = seq.n_max, -seq.n_min
    if m > seq.imin:
        need_pos, need_neg = _term_range(
            seq.c1, seq.c2, seq.a0, seq.b0, m, seq.truncation_tol
        )
        n_pos, n_neg = min(n_pos, need_pos), min(n_neg, need_neg)
    first = -n_neg - seq.n_min  # index of term n = -n_neg
    win = seq._ranges[m] = _window(
        m, seq.a0, seq.b0, seq.c1, seq.c2, n_pos, n_neg,
        seq.a_vals[first : first + n_neg + n_pos + 2],
        seq.b_vals[first : first + n_neg + n_pos + 1],
    )
    return win


def harmonic_eval(seq: CompensationSequence, i: int, j: int) -> HarmonicValue:
    """Evaluate the truncated series at integer (i, j), with a tail bound.

    On either axis the series telescopes to an exact zero, so 0.0 is
    returned directly with a zero bound.  Interior evaluations require
    i + j >= imin, the degree the truncation was built for.  A fractional
    coordinate is a ValueError, and a point whose series or tail bound
    exceeds the float range, or whose series underflows to zero, a
    SolverError.

    The sum runs over the range that degree i + j needs (``_term_range``),
    clipped to the stored one: the chain was built for degree ``imin``,
    and higher degrees converge faster.  ``tail_bound`` is the envelope
    beyond the range actually summed and ``terms_used`` its length, so
    both are counted per degree.  The range depends on the degree, start
    and tolerance alone, and the range of ``imin`` holds it, so every
    chain with ``imin <= i + j`` from that start and tolerance gives the
    same bits, ``escape_probability`` among them.  The first query of a
    degree keeps its evaluation window (the range, its chain slices and
    the tail factors of the degree alone) in the sequence's memo, which
    the sequences ``build_sequence`` returns for one start and tolerance
    share.
    """
    if not isinstance(seq, CompensationSequence):
        raise TypeError(
            f"expected a CompensationSequence, got {type(seq).__name__}; "
            "build one with build_sequence(geom, start)"
        )
    i, j = _lattice(i, j)
    if i < 0 or j < 0:
        raise ValueError("lattice point must be in the closed quadrant")
    if i == 0 or j == 0:
        return HarmonicValue(0.0, 0.0, 0)
    _require_float_exact(i, j)
    m = i + j
    if m < seq.imin:
        raise ValueError(f"evaluation at degree {m} below the built imin={seq.imin}")
    win = seq._ranges.get(m)
    if win is None:
        win = _sequence_window(seq, m)
    return _sum_range(
        i, j, win, seq.a0, seq.b0, seq.c1, seq.c2, seq.truncation_tol
    )


def escape_probability(
    geom: CurveGeometry, i: int, j: int, tol: float = 1e-14
) -> HarmonicValue:
    """P(the walk from (i, j) never leaves the open quadrant).

    This is the normalized harmonic function built from the start (0, 0)
    (the curve point with alpha = beta = 1).  Defined for interior points
    i, j >= 1; a fractional coordinate is a ValueError.  The
    drift-interior requirement is inherited from the geometry
    construction.  Repeat calls on one ``geom`` and ``tol`` share one
    stored sequence (see ``build_sequence``) and its evaluation window per
    degree (see ``harmonic_eval``), so reuse the geometry for many
    queries: the first call of a degree builds its window, growing the
    sequence first only when the degree is below its ``imin``, and later
    calls of that degree sum the window as it is.  The value is the one
    ``harmonic_eval`` gives on any sequence from (0, 0) with tolerance
    ``tol`` and ``imin <= i + j``, bit for bit.
    """
    _require_geometry(geom)
    i, j = _lattice(i, j)
    if i < 1 or j < 1:
        raise ValueError("escape probability is defined for interior points")
    _require_float_exact(i, j)
    m = i + j
    seq = geom._chains.get((_ORIGIN_KEY, tol))
    win = None if seq is None else seq._ranges.get(m)
    if win is None:
        seq = _stored_sequence(geom, (0.0, 0.0), tol, m)
        win = _sequence_window(seq, m)
    return _sum_range(i, j, win, seq.a0, seq.b0, geom.c1, geom.c2, tol)


def boundary_harmonic(
    geom: CurveGeometry, i: int, j: int, tol: float = 1e-12
) -> float:
    """Positive harmonic limit along the horizontal boundary direction.

    Obtained as twice the derivative of the one-sided chain anchored at
    the lower branch maximum (g(y0), y0) with respect to the anchor
    height.  The chain derivative recursion rides along the chain itself:
    each switch multiplies by the local inverse-branch slope, and the
    leading coefficients are a0' = g'(y0) = 0, b0' = 1.  The sum stops
    once a heuristic remainder estimate drops below ``tol``; unlike the
    tail bound of ``harmonic_eval`` it is not a certified bound.
    """
    _require_geometry(geom)
    i, j = _lattice(i, j)
    if i < 1 or j < 1:
        raise ValueError("boundary harmonic is defined for interior points")
    if not (tol > 0):
        raise ValueError("tol must be positive")

    dist = geom.dist
    m = i + j
    q = math.exp(-(geom.c1 + geom.c2) * m)

    a_n = geom.g_at_y0
    b_n = geom.y0
    da_n = 0.0  # horizontal branch is flat at its maximum
    db_n = 1.0
    prod_max = 1.0
    terms: list[float] = []
    try:
        for _ in range(10000):
            a_next = f_hat(geom, b_n)
            # slope of the lower x-root in y at (a_{n+1}, b_n)
            da_next = _slope(dist, a_next, b_n, "y") * db_n
            terms.append(
                (i * da_n + j * db_n) * math.exp(i * a_n + j * b_n)
                - (i * da_next + j * db_n) * math.exp(i * a_next + j * b_n)
            )
            b_next = g_hat(geom, a_next)
            db_next = _slope(dist, a_next, b_next, "x") * da_next
            prod_max = max(prod_max, abs(da_next), abs(db_next))
            # Stopping heuristic, not a bound: the envelope times the largest
            # derivative product seen so far, assuming the products settle.
            rem = 4.0 * m * prod_max * math.exp(i * a_next + j * b_next) / (1.0 - q)
            a_n, b_n, da_n, db_n = a_next, b_next, da_next, db_next
            if rem < tol and len(terms) >= 3:
                break
        else:
            raise SolverError("boundary-harmonic series failed to converge")
        value = 2.0 * math.fsum(terms)
    except OverflowError:  # exp of the leading terms for a far start
        value = math.inf
    if not math.isfinite(value):
        raise SolverError(f"boundary harmonic at ({i}, {j}) exceeds the float range")
    return value
