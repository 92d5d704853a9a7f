"""Geometry of the zero curve of the kernel in exponential coordinates.

Every one-variable section of G(x, y) = sum p exp(di*x + dj*y) - 1 is a
strictly convex sum of exponentials whose derivative runs from -inf to
+inf, so each section has exactly one minimizer and (when the section dips
below zero) exactly two roots.

The lower roots ``f_hat`` and ``g_hat``, which every switch of the
compensation chain takes, have a closed form when every step moves the
section's own coordinate by -1, 0 or +1: the section is then a quadratic
in the exponential of that coordinate, and ``_small_step_lower_root``
takes its smaller root without cancellation.  They fall back to the
Newton solve below when the coordinate has a jump of 2, and near a branch
maximum, where the two roots merge and the closed form would lose digits.

Every other scalar search on the curve is one chain of two primitives:
``_bracket`` walks outward from a point whose value the caller already
holds, doubling its step until the sign changes; ``_solve`` then runs a
bracket-safeguarded Newton iteration (Press et al., *Numerical Recipes*,
section 9.4, "rtsafe") inside that bracket.  Every point it evaluates
narrows the bracket, and a Newton step that would leave it is replaced by
the midpoint.  It stops on a zero value, on a Newton fixed point or when
two iterates agree to a few ulps, and returns only points it evaluated.
A section is evaluated from its own terms (``_Section``), built once per
solve, so that a probe sums the same floats as the 2-D kernels at that
point but forms only the derivatives the solve needs.
A branch value solves the increasing derivative of its section (with the
second derivative) for the section minimizer, then the section itself
(with its derivative) for the requested root.  ``find_extrema`` solves
the cross partial along a branch, where every probe is one upper section
root, and ``cramer_transform`` solves the gradient angle along the arc.

``montecarlo._exit_root`` runs the same chain on the kernel section of
one coordinate's marginal in t = log c, then rounds exp(t) up to a float
certified in exact arithmetic to lie at or above the true root.

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

import functools
import math
from dataclasses import dataclass, field

from .model import (
    _EXP_CAP,
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

# iterates this many ulps apart count as converged
AGREE_ULPS = 4
DRIFT_FLOOR = 1e-10
# a branch argument at most this far outside its domain is clamped into it
_DOMAIN_TOL = 1e-12


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
    # One record per start that ``compensation.build_sequence`` has seen,
    # keyed by the start's exact float bits: (snapped start, a_up, b_up,
    # a_dn, b_dn, term ranges keyed by (degree, tolerance)).  Outside
    # equality, hash and repr; kept for the geometry's life.
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
) -> tuple[float, float, float, float]:
    """Walk from ``inner`` by side*step, doubling the step, until fun changes sign.

    ``f_inner`` = fun(inner) is the value the caller already holds.
    Returns the sign-change bracket (lo, hi, fun(lo), fun(hi)) with lo < hi.
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
    if side > 0:
        return inner, probe, f_inner, f_probe
    return probe, inner, f_probe, f_inner


def _solve(fdf, lo: float, hi: float, flo: float, fhi: float) -> float:
    """Root in the sign-change bracket [lo, hi] by safeguarded Newton.

    ``fdf(t)`` returns the value and the derivative at t; flo and fhi are
    the values at the ends.  The first point is the secant point of the
    bracket.  A Newton step is taken when it stays strictly inside the
    bracket and is at most half the step before last; otherwise the
    midpoint is.  Each evaluated point replaces the end of its sign.
    """
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    x = lo - flo * (hi - lo) / (fhi - flo)
    if not lo < x < hi:
        x = 0.5 * (lo + hi)
    step = step_old = hi - lo
    prev = None
    for _ in range(200):
        fx, dfx = fdf(x)
        if fx == 0.0:
            return x
        if prev is not None and abs(x - prev[0]) <= AGREE_ULPS * math.ulp(
            max(abs(x), abs(prev[0]))
        ):
            return x if abs(fx) <= abs(prev[1]) else prev[0]
        if (fx < 0.0) == (flo < 0.0):
            lo, flo = x, fx
        else:
            hi, fhi = x, fx
        prev = (x, fx)
        newton = x - fx / dfx if dfx else math.nan
        if newton == x:
            return x  # Newton fixed point
        if lo < newton < hi and 2.0 * abs(newton - x) <= abs(step_old):
            nxt = newton
        else:
            nxt = 0.5 * (lo + hi)
            if not lo < nxt < hi:  # no float left inside the bracket
                return lo if abs(flo) <= abs(fhi) else hi
        step_old, step = step, nxt - x
        x = nxt
    raise SolverError("safeguarded Newton iteration did not converge")


# tangent tolerance: a section whose minimum is closer to zero than this is
# treated as a double root (the branch maxima are exactly such sections)
_TANGENT_EPS = 1e-15


class _Section:
    """The section of G along coordinate k at the other coordinate ``fixed``.

    G is t -> G(t, fixed) for k = 0 and t -> G(fixed, t) for k = 1.  Each
    step keeps its move d = s[k] along t, its share e = s[1-k]*fixed of
    the exponent and its mass p, so a probe forms only e + d*t, which
    equals di*x + dj*y bit for bit because IEEE addition commutes.  The
    value is the ``math.fsum`` of the same floats as ``log_kernel_eval``,
    the slope as component k of ``log_kernel_grad`` and the curvature as
    entry 2k of ``log_kernel_hess``; the derivatives sum only the
    ``moving`` terms, those with d != 0, as those kernels do.  An exponent
    above ``model._EXP_CAP`` is cut to the cap, which is what both
    ``min(u, _EXP_CAP)`` in the value and ``model._exp`` in the
    derivatives do to every float, NaN included.
    """

    __slots__ = ("terms", "moving")

    def __init__(self, dist: StepDistribution, fixed: float, k: int):
        self.terms = [
            (s[k], s[1 - k] * fixed, p) for s, p in zip(dist.steps, dist.probs)
        ]
        self.moving = [term for term in self.terms if term[0]]

    def value(self, t: float) -> float:
        expm1 = math.expm1
        cap = _EXP_CAP
        val = []
        for d, e, p in self.terms:
            u = e + d * t
            if u > cap:
                u = cap
            val.append(p * expm1(u))
        return math.fsum(val)

    def slope(self, t: float) -> float:
        exp = math.exp
        cap = _EXP_CAP
        der = []
        for d, e, p in self.moving:
            u = e + d * t
            if u > cap:
                u = cap
            der.append(d * (p * exp(u)))
        return math.fsum(der)

    def value_slope(self, t: float) -> tuple[float, float]:
        exp, expm1 = math.exp, math.expm1
        cap = _EXP_CAP
        val, der = [], []
        for d, e, p in self.terms:
            u = e + d * t
            if u > cap:
                u = cap
            val.append(p * expm1(u))
            if d:
                der.append(d * (p * exp(u)))
        return math.fsum(val), math.fsum(der)

    def slope_curvature(self, t: float) -> tuple[float, float]:
        exp = math.exp
        cap = _EXP_CAP
        der, curv = [], []
        for d, e, p in self.moving:
            u = e + d * t
            if u > cap:
                u = cap
            w = p * exp(u)
            der.append(d * w)
            curv.append(d * d * w)
        return math.fsum(der), math.fsum(curv)

    def minimizer(self) -> float:
        """The section's minimizer: the root of its increasing slope."""
        d0 = self.slope(0.0)
        return _solve(
            self.slope_curvature,
            *_bracket(self.slope, 0.0, d0, 1 if d0 <= 0.0 else -1, 1.0),
        )


def _section_extreme_root(dist, fixed: float, axis: str, side: int) -> float:
    """Upper (+1) or lower (-1) root of the y-section (axis='y') or x-section."""
    section = _Section(dist, fixed, 1 if axis == "y" else 0)
    tmin = section.minimizer()
    fmin = section.value(tmin)
    if fmin > _TANGENT_EPS:
        raise SolverError(
            f"kernel section at {axis}-line {fixed!r} has no real root"
        )
    if fmin >= -_TANGENT_EPS:
        return tmin  # double root at the section minimum
    return _solve(section.value_slope, *_bracket(section.value, tmin, fmin, side, 0.25))


# a discriminant at most this share of (1 - B)**2 lies near a branch
# maximum, where the two roots merge and the closed form loses digits
_MERGE_DISC = 0.01


def _small_step_lower_root(dist, fixed: float, axis: str) -> float | None:
    """Lower root of the ``axis``-section in closed form, or None.

    When every step moves the section's own coordinate by -1, 0 or +1,
    the section in Z = e^t is A*Z**2 - (1 - B)*Z + C = 0, where A, B and C
    are the masses of the +1, 0 and -1 steps, each weighted by
    exp(d_s*fixed) for its move d_s along the fixed coordinate.  The lower
    root is then 2C / ((1 - B) + sqrt(disc)), a form free of cancellation,
    and 1 - B is summed as sum_{d!=0} p - sum_{d=0} p*expm1(d_s*fixed), the
    way ``log_kernel_eval`` sums G.  The discriminant is not formed as
    (1 - B)**2 - 4AC, which cancels near a branch maximum, but as
    -G(t_min) * ((1 - B) + 2 sqrt(AC)) at the section minimizer
    t_min = log(C/A) / 2, with G from ``log_kernel_eval``.  None (solve by
    Newton instead) for a jump of 2 along the axis, an exponent past the
    kernel's saturation at _EXP_CAP, or a discriminant within _MERGE_DISC
    of a double root.
    """
    k = 1 if axis == "y" else 0
    a, c, q = [], [], []
    for step, p in zip(dist.steps, dist.probs):
        d, e = step[k], step[1 - k] * fixed
        if d not in (-1, 0, 1) or abs(e) > _EXP_CAP:
            return None
        if d:
            q.append(p)
            (a if d > 0 else c).append(p * math.exp(e))
        else:
            q.append(-p * math.expm1(e))
    a, c, q = math.fsum(a), math.fsum(c), math.fsum(q)
    t_min = 0.5 * (math.log(c) - math.log(a))
    g_min = log_kernel_eval(dist, *((fixed, t_min) if k else (t_min, fixed)))
    disc = -g_min * (q + 2.0 * math.sqrt(a) * math.sqrt(c))
    if q <= 0.0 or disc <= _MERGE_DISC * q * q:
        return None
    return math.log(2.0 * c / (q + math.sqrt(disc)))


# ---------------------------------------------------------------------------
# public branch functions


def _branch(
    geom: CurveGeometry, t: float, name: str, axis: str, side: int, lo: float, hi: float
) -> float:
    """Upper (+1) or lower (-1) root of the ``axis``-section at t.

    t must lie in [lo, hi] up to _DOMAIN_TOL; it is clamped into the interval.
    A lower root is taken in closed form where ``_small_step_lower_root``
    gives one.
    """
    if not lo - _DOMAIN_TOL <= t <= hi + _DOMAIN_TOL:  # NaN fails too
        var = "x" if axis == "y" else "y"
        raise ValueError(f"{name} defined for {var} in [{lo!r}, {hi!r}], got {t!r}")
    fixed = min(max(t, lo), hi)
    if side < 0:
        root = _small_step_lower_root(geom.dist, fixed, axis)
        if root is not None:
            return root
    return _section_extreme_root(geom.dist, fixed, axis, side)


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


def find_extrema(dist: StepDistribution) -> CurveGeometry:
    """Locate the branch maxima (x0, f(x0)) and (g(y0), y0).

    Requires a valid model whose drift points strictly into the quadrant:
    the branch derivative at 0 is -m1/m2, so a maximum at negative
    abscissa exists exactly when both drift coordinates are positive.
    Near-degenerate drift is rejected rather than returning maxima that
    exist only as numerical noise.  The branch functions accept arguments
    up to ``_DOMAIN_TOL`` outside their domains and clamp them into it.
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
        k = 0 if axis == "x" else 1
        at = (lambda t, s: (t, s)) if k == 0 else (lambda t, s: (s, t))
        # memoized: ``_solve`` returns a point it evaluated, whose peak is held
        peak = functools.cache(
            lambda t: _section_extreme_root(dist, t, "y" if k == 0 else "x", +1)
        )
        along = lambda t: log_kernel_grad(dist, *at(t, peak(t)))[k]

        def along_d(t: float) -> tuple[float, float]:
            # the partial and its derivative along the branch,
            # G_tt + G_xy * slope with slope = -G_t / G_s (-> 0 at the maximum)
            point = at(t, peak(t))
            grad = log_kernel_grad(dist, *point)
            hess = log_kernel_hess(dist, *point)
            return grad[k], hess[2 * k] - hess[1] * grad[k] / grad[1 - k]

        m = m1 if axis == "x" else m2
        t_star = _solve(along_d, *_bracket(along, 0.0, m, -1, 0.5, tries=60))
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
        c1=c1, c2=c2,
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
    kernel is strictly convex, so one root solve along the arc inverts it.
    """
    u1, u2 = float(u[0]), float(u[1])
    if not (math.isfinite(u1) and math.isfinite(u2)):
        raise ValueError(f"direction {u!r} is not finite")
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
        dist = geom.dist
        # memoized, so that the root ``_solve`` returns is not solved again
        arc_point = functools.cache(lambda t: _arc_point(geom, t))

        def angle_gap(t: float) -> tuple[float, float]:
            # theta minus the gradient angle, increasing in t, and its
            # derivative along the arc: the point moves by (dx, dy) per
            # unit t, along the branch slope, and the gradient by H (dx, dy)
            px, py = arc_point(t)
            gx, gy = log_kernel_grad(dist, px, py)
            hxx, hxy, hyy = log_kernel_hess(dist, px, py)
            if t <= 1.0:
                dx = -geom.x0
                dy = -dx * gx / gy
            else:
                dy = geom.y0
                dx = -dy * gy / gx
            dgx, dgy = hxx * dx + hxy * dy, hxy * dx + hyy * dy
            return (
                theta - math.atan2(gy, gx),
                (gy * dgx - gx * dgy) / (gx * gx + gy * gy),
            )

        flo = angle_gap(0.0)[0]
        fhi = angle_gap(2.0)[0]
        if flo > 0.0:
            phi = (geom.x0, geom.f_at_x0)
        elif fhi < 0.0:
            phi = (geom.g_at_y0, geom.y0)
        else:
            phi = arc_point(_solve(angle_gap, 0.0, 2.0, flo, fhi))

    px, py = phi
    residual = log_kernel_eval(geom.dist, px, py)
    if abs(residual) > 1e-9:
        raise SolverError(f"twist point off the curve (residual {residual!r})")

    # the twisted law's first and second moments are G's derivatives at phi
    mu1, mu2 = log_kernel_grad(geom.dist, px, py)
    m11, m12, m22 = log_kernel_hess(geom.dist, px, py)
    s11 = m11 - mu1 * mu1
    s12 = m12 - mu1 * mu2
    s22 = m22 - mu2 * mu2
    return CramerData(
        u=(u1, u2),
        phi=(px, py),
        mu_u=(mu1, mu2),
        sigma_u=((s11, s12), (s12, s22)),
    )
