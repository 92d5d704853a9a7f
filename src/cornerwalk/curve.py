"""Geometry of the zero curve of the kernel in exponential coordinates.

Every one-variable section of G(x, y) = sum p exp(di*x + dj*y) - 1 is a
strictly convex sum of exponentials whose derivative runs from -inf to
+inf, so each section has exactly one minimizer and (when the section dips
below zero) exactly two roots.

Every scalar search in the package is one chain of three primitives:
``_bracket`` walks outward from a point whose value the caller already
holds, doubling its step until the sign changes; ``_bisect`` shrinks the
bracket to a width (1e-13 unless the caller asks otherwise); and
``_newton_polish`` takes a few Newton steps that may not leave the
bracket.  A branch value brackets and bisects the increasing derivative
for the section minimizer, then brackets, bisects and polishes the
requested root.  ``find_extrema`` runs the same chain along a branch, and
every probe of that search solves a section for its root;
``cramer_transform`` bisects the gradient angle along the arc.

The one exception is ``montecarlo._exit_root``.  It shares ``_bisect``
but keeps its own bounded bracket toward 0 and 1 and its own Newton
steps.  Those stop by other rules than ``_newton_polish``: routing them
through it moves the last ulp of some twisted exit roots, and with them
the pinned Monte Carlo ``bias_bound`` digits.

Branch conventions, for models with drift pointing strictly into the
quadrant:

* ``f_branch(x)``: upper y-root at abscissa x <= 0.  Concave, f(0) = 0,
  with a unique maximum at x0 < 0.
* ``g_branch(y)``: upper x-root at height y <= 0, maximum at y0 < 0.
* ``f_hat(y)``: lower x-root at height y (the other preimage of f),
  defined for y <= f(x0).
* ``g_hat(x)``: lower y-root at abscissa x, defined for x <= g(y0).
* ``f_tilde(y)`` / ``g_tilde(x)``: upper roots on the short positive
  stretches y in [0, f(x0)] and x in [0, g(y0)].

The open arc G0 runs from (x0, f(x0)) through (0, 0) to (g(y0), y0),
endpoints excluded; ``in_G0`` tests membership and ``cramer_transform``
inverts the gradient direction map along the closed arc.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .model import (
    StepDistribution,
    InvalidModelError,
    drift,
    log_kernel_eval,
    log_kernel_grad,
    log_kernel_hess,
    require_valid,
)

__all__ = [
    "CurveGeometry",
    "CramerData",
    "SolverError",
    "find_extrema",
    "f_branch",
    "g_branch",
    "f_hat",
    "g_hat",
    "f_tilde",
    "g_tilde",
    "in_G0",
    "cramer_transform",
]

BISECT_WIDTH = 1e-13
NEWTON_POLISH_STEPS = 5
DRIFT_FLOOR = 1e-10


class SolverError(ArithmeticError):
    """A bracket could not be established or an iteration failed to converge."""


@dataclass(frozen=True)
class CurveGeometry:
    """Branch maxima and gap constants of a model's zero curve."""

    dist: StepDistribution
    x0: float
    y0: float
    f_at_x0: float
    g_at_y0: float
    c1: float  # f(x0) - x0 > 0: minimal horizontal switch gap
    c2: float  # g(y0) - y0 > 0: minimal vertical switch gap
    tol: float
    # Switching chains grown by ``compensation.build_sequence``, keyed by
    # the start's exact float bits; outside equality, hash and repr.
    _chains: dict = field(default_factory=dict, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class CramerData:
    """Twist point phi on the closed arc with gradient direction u.

    mu_u is the drift of the twisted walk (a positive multiple of u) and
    sigma_u its step covariance, which is positive definite because the
    support never lies on one line.
    """

    u: tuple[float, float]
    phi: tuple[float, float]
    mu_u: tuple[float, float]
    sigma_u: tuple[tuple[float, float], tuple[float, float]]


# ---------------------------------------------------------------------------
# scalar section solvers


def _bracket(
    fun, inner: float, f_inner: float, side: int, step: float, tries: int = 200
) -> tuple[float, float, float]:
    """Walk from ``inner`` by side*step, doubling the step, until fun changes sign.

    ``f_inner`` = fun(inner) is the value the caller already holds.
    Returns the sign-change bracket (lo, hi, fun(lo)) with lo < hi.
    """
    for _ in range(tries):
        probe = inner + side * step
        f_probe = fun(probe)
        if (f_probe <= 0.0) != (f_inner <= 0.0):
            break
        inner, f_inner = probe, f_probe
        step *= 2.0
    else:
        raise SolverError("bracket expansion found no sign change")
    return (inner, probe, f_inner) if side > 0 else (probe, inner, f_probe)


def _bisect(
    fun, lo: float, hi: float, flo: float, width: float = BISECT_WIDTH
) -> tuple[float, float, float]:
    """Shrink a sign-change bracket to ``width``; returns (root, lo, hi)."""
    for _ in range(200):
        if hi - lo <= width:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # bracket at float resolution
            break
        fm = fun(mid)
        if (fm <= 0.0) == (flo <= 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi), lo, hi


def _newton_polish(fun, dfun, x: float, lo: float, hi: float) -> float:
    for _ in range(NEWTON_POLISH_STEPS):
        fx = fun(x)
        if fx == 0.0:
            return x
        d = dfun(x)
        if d == 0.0 or not math.isfinite(d):
            return x
        xn = x - fx / d
        if not (lo - BISECT_WIDTH <= xn <= hi + BISECT_WIDTH):
            return x  # safeguard: never leave the bracket
        if xn == x:
            return x
        x = xn
    return x


# tangent tolerance: a section whose minimum is closer to zero than this is
# treated as a double root (the branch maxima are exactly such sections)
_TANGENT_EPS = 1e-15


def _y_section(dist: StepDistribution, x: float):
    fun = lambda y: log_kernel_eval(dist, x, y)
    dfun = lambda y: log_kernel_grad(dist, x, y)[1]
    return fun, dfun


def _x_section(dist: StepDistribution, y: float):
    fun = lambda x: log_kernel_eval(dist, x, y)
    dfun = lambda x: log_kernel_grad(dist, x, y)[0]
    return fun, dfun


def _section_extreme_root(dist, fixed: float, axis: str, side: int) -> float:
    """Upper (+1) or lower (-1) root of the y-section (axis='y') or x-section."""
    fun, dfun = (_y_section if axis == "y" else _x_section)(dist, fixed)
    d0 = dfun(0.0)  # the minimizer is the root of the increasing derivative
    tmin = _bisect(dfun, *_bracket(dfun, 0.0, d0, 1 if d0 <= 0.0 else -1, 1.0))[0]
    fmin = fun(tmin)
    if fmin > _TANGENT_EPS:
        raise SolverError(
            f"kernel section at {axis}-line {fixed!r} has no real root"
        )
    if fmin >= -_TANGENT_EPS:
        return tmin  # double root at the section minimum
    root, lo, hi = _bisect(fun, *_bracket(fun, tmin, fmin, side, 0.25))
    return _newton_polish(fun, dfun, root, lo, hi)


# ---------------------------------------------------------------------------
# public branch functions


def _branch(
    geom: CurveGeometry, t: float, name: str, axis: str, side: int, lo: float, hi: float
) -> float:
    """Upper (+1) or lower (-1) root of the ``axis``-section at t.

    t must lie in [lo, hi] up to geom.tol; it is clamped into the interval.
    """
    if t < lo - geom.tol or t > hi + geom.tol:
        var = "x" if axis == "y" else "y"
        raise ValueError(f"{name} defined for {var} in [{lo!r}, {hi!r}], got {t!r}")
    return _section_extreme_root(geom.dist, min(max(t, lo), hi), axis, side)


def f_branch(geom: CurveGeometry, x: float) -> float:
    """Upper y-root at abscissa x <= 0."""
    return _branch(geom, x, "f_branch", "y", +1, -math.inf, 0.0)


def g_branch(geom: CurveGeometry, y: float) -> float:
    """Upper x-root at height y <= 0."""
    return _branch(geom, y, "g_branch", "x", +1, -math.inf, 0.0)


def f_hat(geom: CurveGeometry, y: float) -> float:
    """Lower x-root at height y: the second preimage under f.

    Defined for y <= f(x0); at the endpoint it returns x0 (double root).
    """
    return _branch(geom, y, "f_hat", "x", -1, -math.inf, geom.f_at_x0)


def g_hat(geom: CurveGeometry, x: float) -> float:
    """Lower y-root at abscissa x, defined for x <= g(y0)."""
    return _branch(geom, x, "g_hat", "y", -1, -math.inf, geom.g_at_y0)


def f_tilde(geom: CurveGeometry, y: float) -> float:
    """Upper x-root at height y in [0, f(x0)]: inverse of f on (x0, 0]."""
    return _branch(geom, y, "f_tilde", "x", +1, 0.0, geom.f_at_x0)


def g_tilde(geom: CurveGeometry, x: float) -> float:
    """Upper y-root at abscissa x in [0, g(y0)]: inverse of g on (y0, 0]."""
    return _branch(geom, x, "g_tilde", "y", +1, 0.0, geom.g_at_y0)


def _slope(dist: StepDistribution, x: float, y: float, along: str) -> float:
    gx, gy = log_kernel_grad(dist, x, y)
    if along == "x":  # derivative of a y(x) branch
        if gy == 0.0:
            raise SolverError("vertical tangent: slope undefined")
        return -gx / gy
    if gx == 0.0:
        raise SolverError("horizontal tangent: slope undefined")
    return -gy / gx


def find_extrema(dist: StepDistribution, tol: float = 1e-12) -> CurveGeometry:
    """Locate the branch maxima (x0, f(x0)) and (g(y0), y0).

    Requires a valid model whose drift points strictly into the quadrant:
    the branch derivative at 0 is -m1/m2, so a maximum at negative
    abscissa exists exactly when both drift coordinates are positive.
    Near-degenerate drift is rejected rather than returning maxima that
    exist only as numerical noise.
    """
    require_valid(dist)
    m1, m2 = drift(dist)
    if m1 <= DRIFT_FLOOR or m2 <= DRIFT_FLOOR:
        raise InvalidModelError(
            f"drift { (m1, m2) } must point strictly into the quadrant "
            "(both coordinates positive) for the branch maxima to exist"
        )

    def _branch_max(axis: str) -> tuple[float, float]:
        # Solve d/dt [height of the upper root] = 0, i.e. the vanishing of
        # the cross partial of G along the branch.  The sign of that
        # partial at t=0 is the corresponding drift coordinate (> 0), and
        # it turns negative left of the maximum, so expand left.
        peak = lambda t: _section_extreme_root(dist, t, "y" if axis == "x" else "x", +1)
        if axis == "x":
            along = lambda t: log_kernel_grad(dist, t, peak(t))[0]
        else:
            along = lambda t: log_kernel_grad(dist, peak(t), t)[1]
        m = m1 if axis == "x" else m2
        root, lo, hi = _bisect(along, *_bracket(along, 0.0, m, -1, 0.5, tries=60))

        # Newton polish on the same equation; the derivative along the
        # branch is Gxx + Gxy * slope (slope -> 0 at the maximum).
        def dalong(t: float) -> float:
            s = peak(t)
            if axis == "x":
                hxx, hxy, _ = log_kernel_hess(dist, t, s)
                return hxx + hxy * _slope(dist, t, s, "x")
            _, hxy, hyy = log_kernel_hess(dist, s, t)
            return hyy + hxy * _slope(dist, s, t, "y")

        t_star = _newton_polish(along, dalong, root, lo, hi)
        return t_star, peak(t_star)

    x0, f_at_x0 = _branch_max("x")
    y0, g_at_y0 = _branch_max("y")
    c1 = f_at_x0 - x0
    c2 = g_at_y0 - y0
    if not (x0 < 0 and y0 < 0 and c1 > 0 and c2 > 0):
        raise SolverError(
            f"degenerate branch maxima: x0={x0!r}, y0={y0!r}, c1={c1!r}, c2={c2!r}"
        )
    return CurveGeometry(
        dist=dist, x0=x0, y0=y0, f_at_x0=f_at_x0, g_at_y0=g_at_y0,
        c1=c1, c2=c2, tol=tol,
    )


def in_G0(geom: CurveGeometry, point, tol_perp: float = 1e-9) -> bool:
    """Membership in the open arc between the branch maxima.

    The arc is the union of {(x, f(x)) : x0 < x <= 0} and
    {(g(y), y) : y0 < y <= 0}; both endpoints are excluded.  Distance to
    a graph is measured perpendicular to its local tangent.
    """
    x, y = float(point[0]), float(point[1])
    if geom.x0 < x <= tol_perp:  # strict at x0: endpoints excluded
        fy = f_branch(geom, min(x, 0.0))
        slope = _slope(geom.dist, min(x, 0.0), fy, "x")
        if abs(y - fy) <= tol_perp * math.hypot(1.0, slope):
            return True
    if geom.y0 < y <= tol_perp:
        gx = g_branch(geom, min(y, 0.0))
        slope = _slope(geom.dist, gx, min(y, 0.0), "y")
        if abs(x - gx) <= tol_perp * math.hypot(1.0, slope):
            return True
    return False


def _arc_point(geom: CurveGeometry, t: float) -> tuple[float, float]:
    # t in [0, 1]: from (x0, f(x0)) to (0, 0) along the f-graph;
    # t in [1, 2]: from (0, 0) to (g(y0), y0) along the g-graph.
    if t <= 1.0:
        x = geom.x0 * (1.0 - t)
        return (x, f_branch(geom, x))
    y = geom.y0 * (t - 1.0)
    return (g_branch(geom, y), y)


def cramer_transform(geom: CurveGeometry, u) -> CramerData:
    """Point of the closed arc whose outward gradient points along u.

    u must lie on the closed first-quadrant unit arc (it is normalized
    internally); the gradient direction sweeps monotonically from
    vertical at (x0, f(x0)) to horizontal at (g(y0), y0) because the
    kernel is strictly convex, so a single bisection inverts it.
    """
    u1, u2 = float(u[0]), float(u[1])
    if u1 < -1e-9 or u2 < -1e-9:
        raise ValueError(f"direction {u!r} leaves the first quadrant")
    u1, u2 = max(u1, 0.0), max(u2, 0.0)
    norm = math.hypot(u1, u2)
    if norm == 0.0:
        raise ValueError("zero direction vector")
    u1, u2 = u1 / norm, u2 / norm

    if u1 <= 1e-12:  # vertical escape: the f-side endpoint
        phi = (geom.x0, geom.f_at_x0)
    elif u2 <= 1e-12:  # horizontal escape: the g-side endpoint
        phi = (geom.g_at_y0, geom.y0)
    else:
        theta = math.atan2(u2, u1)

        def angle_gap(t: float) -> float:
            px, py = _arc_point(geom, t)
            gx, gy = log_kernel_grad(geom.dist, px, py)
            return theta - math.atan2(gy, gx)  # increasing in t

        flo = angle_gap(0.0)
        if flo > 0.0:
            phi = (geom.x0, geom.f_at_x0)
        elif angle_gap(2.0) < 0.0:
            phi = (geom.g_at_y0, geom.y0)
        else:
            phi = _arc_point(geom, _bisect(angle_gap, 0.0, 2.0, flo, width=1e-15)[0])

    px, py = phi
    residual = log_kernel_eval(geom.dist, px, py)
    if abs(residual) > 1e-9:
        raise SolverError(f"twist point off the curve (residual {residual!r})")

    mu1, mu2 = log_kernel_grad(geom.dist, px, py)
    terms11, terms12, terms22 = [], [], []
    for (di, dj), p in zip(geom.dist.steps, geom.dist.probs):
        w = p * math.exp(di * px + dj * py)
        terms11.append(di * di * w)
        terms12.append(di * dj * w)
        terms22.append(dj * dj * w)
    s11 = math.fsum(terms11) - mu1 * mu1
    s12 = math.fsum(terms12) - mu1 * mu2
    s22 = math.fsum(terms22) - mu2 * mu2
    return CramerData(
        u=(u1, u2),
        phi=(px, py),
        mu_u=(mu1, mu2),
        sigma_u=((s11, s12), (s12, s22)),
    )
