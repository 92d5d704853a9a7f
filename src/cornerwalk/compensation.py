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
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

from .curve import (
    CurveGeometry,
    SolverError,
    f_branch,
    f_hat,
    g_branch,
    g_hat,
    f_tilde,
    g_tilde,
    _slope,
)
from .model import log_kernel_eval

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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class CompensationSequence:
    """Truncated two-sided switching chain with envelope constants.

    ``a_vals`` holds a_n for n in [n_min, n_max + 1] and ``b_vals`` holds
    b_n for n in [n_min, n_max]; term n of the series uses (a_n, b_n,
    a_{n+1}).  The envelope anchored at (a0, b0) with gaps (c1, c2)
    dominates the stored chain termwise and extends it to infinity.
    ``build_sequence`` hands each sequence its start's memo of evaluation
    windows on the geometry (see ``harmonic_eval``); a sequence built any
    other way, ``dataclasses.replace`` included, starts a memo of its own.
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
# a point this close to a G0 graph piece is snapped onto it
_SNAP = 1e-7
_MAX_HOPS = 1000


def _snap_to_G0(geom: CurveGeometry, a: float, b: float):
    """(a, b) moved exactly onto the G0 graph piece within ``_SNAP`` of it, or None."""
    if geom.x0 < a <= _SNAP:
        fa = f_branch(geom, min(a, 0.0))
        if abs(b - fa) <= _SNAP:
            return (min(a, 0.0), fa)
    if geom.y0 < b <= _SNAP:
        gb = g_branch(geom, min(b, 0.0))
        if abs(a - gb) <= _SNAP:
            return (gb, min(b, 0.0))
    return None


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
    tol / 2 at every point of total degree m.  The tails fall
    geometrically in m, so a point of higher degree needs fewer terms.
    Sized in log space: exp(m*c2) overflows for a degree as far out as
    2000.
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


def _stored_window(geom: CurveGeometry, start, m: int, tol: float, key=None):
    """The window of degree m on the chain stored for ``start``.

    ``key``, the start's exact bits, is read off ``start`` unless given.
    Returns ((a0, b0), memo, window): the snapped start, the window memo
    of the start's record on ``geom`` and the ``_window`` over the
    ``_term_range`` of degree m and ``tol``.  The first call of a degree
    and tolerance builds it, growing the chain first when it is shorter.
    """
    if not (tol > 0):
        raise ValueError("truncation_tol must be positive")
    if key is None:
        key = (float(start[0]).hex(), float(start[1]).hex())
    entry = geom._chains.get(key)
    if entry is not None:
        win = entry[-1].get((m, tol))
        if win is not None:
            return entry[0], entry[-1], win
    else:  # a start that fails the gate is never stored
        # Snap exactly onto whichever graph piece the start sits on, so the
        # switching recursion does not inherit the caller's rounding.
        snapped = _snap_to_G0(geom, float(start[0]), float(start[1]))
        if snapped is None:
            raise ValueError(f"start {start!r} is not in G0; canonicalize it first")
        entry = geom._chains.setdefault(
            key, (snapped, snapped[:1], snapped[1:], (), (), {}))
    (a0, b0), a_up, b_up, a_dn, b_dn, memo = entry

    n_pos, n_neg = _term_range(geom.c1, geom.c2, a0, b0, m, tol)
    if max(n_pos, n_neg) > 100000:
        raise SolverError("truncation range exploded; tolerance unreachable")

    if len(a_up) < n_pos + 2 or len(a_dn) < n_neg:
        # Grow in local lists and rebind the entry whole: a concurrent
        # caller sees the old chain or the new one, never half of one.
        a_up, b_up, a_dn, b_dn = map(list, (a_up, b_up, a_dn, b_dn))
        # b_n = g_hat(a_n) and a_{n+1} = f_hat(b_n); a keeps one extra term
        while len(a_up) < n_pos + 2:
            if len(b_up) < len(a_up):
                b_up.append(g_hat(geom, a_up[-1]))
            a_up.append(f_hat(geom, b_up[-1]))
        while len(a_dn) < n_neg:
            b_dn.append(g_hat(geom, a_dn[-1] if a_dn else a0))
            a_dn.append(f_hat(geom, b_dn[-1]))
        a_up, b_up, a_dn, b_dn = map(tuple, (a_up, b_up, a_dn, b_dn))
        _check_descent(a_up, b_up, a_dn, b_dn)
        geom._chains[key] = ((a0, b0), a_up, b_up, a_dn, b_dn, memo)

    win = memo[m, tol] = _window(
        m, a0, b0, geom.c1, geom.c2, n_pos, n_neg,
        a_dn[:n_neg][::-1] + a_up[: n_pos + 2],
        b_dn[:n_neg][::-1] + b_up[: n_pos + 1],
    )
    return (a0, b0), memo, win


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

    The chain is stored on ``geom``, one per start, and the G0 gate runs
    once per start.  A call returns a slice of the stored chain and grows
    it only when its ``imin`` and ``truncation_tol`` need more terms; the
    interlacing check runs over the whole stored chain when it grows, so a
    slice of it is checked already.  The recursion from the start is
    deterministic, so the slice has the same bits as a chain built for
    this call alone.  The start's record on ``geom`` also holds its
    evaluation windows per degree and tolerance (see ``harmonic_eval``),
    which the returned sequence shares; the stored range is the window of
    degree ``imin``.
    Nothing is evicted: each geometry keeps one record per start for its
    life, so calls over many starts on one long-lived geometry grow it
    with every new start.
    """
    _require_geometry(geom)
    if imin < 1:
        raise ValueError("imin must be >= 1")
    (a0, b0), memo, (n_pos, n_neg, a, _, b, _) = _stored_window(
        geom, start, imin, truncation_tol
    )
    seq = CompensationSequence(
        start=(a0, b0),
        n_min=-n_neg,
        n_max=n_pos,
        a_vals=a,
        b_vals=b,
        c1=geom.c1,
        c2=geom.c2,
        a0=a0,
        b0=b0,
        truncation_tol=truncation_tol,
        imin=imin,
    )
    object.__setattr__(seq, "_ranges", memo)  # frozen: set past __init__
    return seq


def _check_descent(a_up, b_up, a_dn, b_dn) -> None:
    # Interlacing (b_n > a_{n+1} > b_{n+1} above the start, and its mirror
    # a_{n+1} > b_n > a_n below) always holds for exact chains; a gross
    # violation means a solver landed on the wrong root, which must never
    # pass silently.  a_up and b_up hold n = 0, 1, ...; a_dn and b_dn hold
    # n = -1, -2, ...
    slack = 1e-6
    for n, (bn, an1, bn1) in enumerate(zip(b_up, a_up[1:], b_up[1:])):
        if not (bn > an1 - slack > bn1 - 2 * slack):
            raise SolverError(f"switching chain lost interlacing near n={n}")
    for k, (an1, bn, an) in enumerate(zip(a_up[:1] + a_dn, b_dn, a_dn)):
        if not (an1 > bn - slack > an - 2 * slack):
            raise SolverError(f"switching chain lost interlacing near n={-1 - k}")


def _sum_range(i, j, win, a0, b0, c1, c2, tol) -> HarmonicValue:
    """The series at (i, j) over the terms of a ``_window``, with its tail.

    The envelope anchored at (a0, b0) with gaps (c1, c2) bounds the terms
    left out.  Warns when that bound exceeds ``tol``.
    """
    n_pos, n_neg, a, a1, b, env = win
    # i and j are below 2**53, so float(i) * x has the bits of i * x and
    # takes the interpreter's float fast path
    x, y = float(i), float(j)
    # term n uses (a_n, b_n, a_{n+1}); fsum rounds once, so order is free
    exp = math.exp
    terms = []
    push = terms.append
    for an, an1, bn in zip(a, a1, b):
        push(exp(x * an + y * bn))
        push(-exp(x * an1 + y * bn))
    value = math.fsum(terms)
    up, down = _tail_pieces(x, y, a0, b0, c1, c2, n_pos, n_neg, env)
    tail = up + down
    if tail > tol:
        warnings.warn(
            f"tail bound {tail:.3e} exceeds the built tolerance "
            f"{tol:.3e} at (i,j)=({i},{j})",
            PrecisionWarning,
            stacklevel=3,
        )
    return HarmonicValue(value, tail, n_pos + n_neg + 1)


def _sequence_window(seq: CompensationSequence, m: int) -> tuple:
    """The window of degree m cut from the sequence's own stored terms.

    It spans the range of degree m clipped to the stored one, or the
    stored range itself at degree ``imin``.  Only an unclipped window
    enters the sequence's memo, and never in place of one held there: the
    memo of a sequence from ``build_sequence`` is its geometry's.
    """
    n_pos, n_neg = seq.n_max, -seq.n_min
    clipped = False
    if m > seq.imin:
        need_pos, need_neg = _term_range(
            seq.c1, seq.c2, seq.a0, seq.b0, m, seq.truncation_tol
        )
        clipped = need_pos > n_pos or need_neg > n_neg
        n_pos, n_neg = min(n_pos, need_pos), min(n_neg, need_neg)
    first = -n_neg - seq.n_min  # index of term n = -n_neg
    win = _window(
        m, seq.a0, seq.b0, seq.c1, seq.c2, n_pos, n_neg,
        seq.a_vals[first : first + n_neg + n_pos + 2],
        seq.b_vals[first : first + n_neg + n_pos + 1],
    )
    if not clipped:
        seq._ranges.setdefault((m, seq.truncation_tol), win)
    return win


def harmonic_eval(seq: CompensationSequence, i: int, j: int) -> HarmonicValue:
    """Evaluate the truncated series at integer (i, j), with a tail bound.

    On either axis the series telescopes to an exact zero, so 0.0 is
    returned directly with a zero bound.  Interior evaluations require
    i + j >= imin, the degree the truncation was built for.

    The sum runs over the range that degree i + j needs (``_term_range``),
    clipped to the stored one: the chain was built for degree ``imin``,
    and higher degrees converge faster.  ``tail_bound`` is the envelope
    beyond the range actually summed and ``terms_used`` its length, so
    both are counted per degree.  At degree ``imin`` the range is the
    stored one.  The range depends on the degree, start and tolerance
    alone, so every chain with ``imin <= i + j`` from that start and
    tolerance gives the same bits, ``escape_probability`` among them.
    The first query of a degree builds its evaluation window (the range,
    its chain slices and the tail factors of the degree alone) in the
    memo that a sequence from ``build_sequence`` shares with its
    geometry's start, so a table builds one window per degree.  A degree
    whose range the stored one clips is cut afresh on every query.
    """
    i, j = int(i), int(j)
    if i < 0 or j < 0:
        raise ValueError("lattice point must be in the closed quadrant")
    if i == 0 or j == 0:
        return HarmonicValue(0.0, 0.0, 0)
    _require_float_exact(i, j)
    m = i + j
    if m < seq.imin:
        raise ValueError(f"evaluation at degree {m} below the built imin={seq.imin}")
    win = seq._ranges.get((m, seq.truncation_tol))
    if win is None or win[0] > seq.n_max or win[1] > -seq.n_min:
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
    i, j >= 1; the drift-interior requirement is inherited from the
    geometry construction.  Repeat calls on one ``geom`` share one chain
    (see ``build_sequence``) and one evaluation window per degree and
    tolerance (see ``harmonic_eval``), so reuse the geometry for many
    queries: the first call of a degree builds its window from the stored
    chain, growing the chain first only when the degree's range reaches
    past it, and later calls of that degree sum the window as it is.  The
    value is the one ``harmonic_eval`` gives on any sequence from (0, 0)
    with tolerance ``tol`` and ``imin <= i + j``, bit for bit.
    """
    _require_geometry(geom)
    i, j = int(i), int(j)
    if i < 1 or j < 1:
        raise ValueError("escape probability is defined for interior points")
    _require_float_exact(i, j)
    (a0, b0), _, win = _stored_window(geom, (0.0, 0.0), i + j, tol, _ORIGIN_KEY)
    return _sum_range(i, j, win, a0, b0, geom.c1, geom.c2, tol)


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
    i, j = int(i), int(j)
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
