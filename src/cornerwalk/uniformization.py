"""Rational parameterization of the zero curve for small-step models.

When the support lies in {(-1,1), (1,-1), (1,0), (0,1), (1,1)} the zero
curve of the kernel is rational: there are constants a, b, c, b_hat,
c_hat and a multiplier rho > 1 such that, with D = b^2 - a c and
D_hat = b_hat^2 - a c_hat,

    1/alpha(s) = (sqrt(D_hat) / 2a) (s + 1/s)         + b_hat / a
    1/beta(s)  = (sqrt(D) / 2a) (rho s + 1/(rho s))    + b / a

sweep the curve as s varies, with the switching chain realized by
s -> rho^2 s and the two root involutions by s -> 1/s and
s -> 1/(rho^2 s).  The kernel K = alpha beta (sum p alpha^i beta^j - 1)
decides which pair feeds alpha: as a quadratic in beta its discriminant
is alpha^4 (a w^2 - 2 b_hat w + c_hat) with w = 1/alpha, which the form
of 1/alpha(s) turns into alpha^4 (D_hat / 4a) (s - 1/s)^2, a square, so
beta is rational in s; swapping the roles gives beta the pair (b, D).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .curve import SolverError
from .model import (
    InvalidModelError,
    StepDistribution,
    kernel_eval,
    require_valid,
)

__all__ = [
    "UniformizationParams",
    "compute_params",
    "alpha_of_s",
    "beta_of_s",
    "sequence_at",
    "denominator_sequence",
]


@dataclass(frozen=True)
class UniformizationParams:
    a: float
    b: float
    c: float
    b_hat: float
    c_hat: float
    rho: float
    disc: float  # b^2 - a c > 0
    disc_hat: float  # b_hat^2 - a c_hat > 0
    p00: float  # stay-put mass removed by the time rescale


def compute_params(dist: StepDistribution) -> UniformizationParams:
    """Constants of the rational parameterization, checked on the kernel.

    Requires a valid small-step model.  Stay-put mass is removed by the
    time rescale p_s / (1 - p00), which leaves the kernel's zero set and
    all harmonic functions unchanged.
    """
    if not require_valid(dist).is_small_step:
        raise InvalidModelError(
            "rational parameterization requires small-step support "
            "{(-1,1),(1,-1),(1,0),(0,1),(1,1)} (plus optional (0,0))"
        )
    p00 = dist.prob((0, 0))
    scale = 1.0 / (1.0 - p00)
    p_m11 = dist.prob((-1, 1)) * scale
    p_1m1 = dist.prob((1, -1)) * scale
    p01 = dist.prob((0, 1)) * scale
    p10 = dist.prob((1, 0)) * scale
    p11 = dist.prob((1, 1)) * scale

    a = 1.0 - 4.0 * p_m11 * p_1m1
    b = p01 + 2.0 * p_m11 * p10
    c = p01 * p01 - 4.0 * p_m11 * p11
    b_hat = p10 + 2.0 * p_1m1 * p01
    c_hat = p10 * p10 - 4.0 * p_1m1 * p11
    disc = b * b - a * c
    disc_hat = b_hat * b_hat - a * c_hat
    if not (0.0 < a < 1.0):
        raise SolverError(f"corner parameter a={a!r} outside (0, 1)")
    if disc <= 0.0 or disc_hat <= 0.0:
        raise SolverError("discriminants of the parameterization not positive")
    rho = math.sqrt((1.0 + math.sqrt(a)) / (1.0 - math.sqrt(a)))

    params = UniformizationParams(
        a=a, b=b, c=c, b_hat=b_hat, c_hat=c_hat, rho=rho,
        disc=disc, disc_hat=disc_hat, p00=p00,
    )
    for s in (0.31, 0.57, 0.88, 1.0, 1.45, 2.3, 3.7):
        if abs(kernel_eval(dist, alpha_of_s(params, s), beta_of_s(params, s))) > 1e-10:
            raise SolverError(
                f"the rational parameterization misses the kernel at s = {s!r}"
            )
    return params


def _inv_alpha(params: UniformizationParams, s: float) -> float:
    if s == 0.0:
        raise ZeroDivisionError("parameterization pole at s = 0")
    return (math.sqrt(params.disc_hat) / (2.0 * params.a)) * (s + 1.0 / s) \
        + params.b_hat / params.a


def _inv_beta(params: UniformizationParams, s: float) -> float:
    t = params.rho * s
    if t == 0.0:
        raise ZeroDivisionError("parameterization pole at s = 0")
    return (math.sqrt(params.disc) / (2.0 * params.a)) * (t + 1.0 / t) \
        + params.b / params.a


def _coordinate(name: str, inv: float, s: float) -> float:
    """1 / inv, the coordinate ``name`` at parameter s: ZeroDivisionError at
    its pole, OverflowError where it rounds to 0 (1/inv left the float
    range)."""
    if inv == 0.0:
        raise ZeroDivisionError(f"{name} pole at s = {s!r}")
    x = 1.0 / inv
    if x == 0.0:
        raise OverflowError(f"1/{name} leaves the float range at s = {s!r}")
    return x


def alpha_of_s(params: UniformizationParams, s: float) -> float:
    """alpha-coordinate at parameter s; invariant under s -> 1/s."""
    return _coordinate("alpha", _inv_alpha(params, s), s)


def beta_of_s(params: UniformizationParams, s: float) -> float:
    """beta-coordinate at parameter s; invariant under s -> 1/(rho^2 s)."""
    return _coordinate("beta", _inv_beta(params, s), s)


def sequence_at(params: UniformizationParams, s: float, n: int) -> tuple[float, float]:
    """n-th switching pair (alpha(rho^{2n} s), beta(rho^{2n} s)).

    The base parameter must lie in the fundamental window (1/rho, 1),
    which corresponds exactly to the open arc between the branch maxima.
    A pair with a coordinate outside the float range raises
    OverflowError, for n of either sign.
    """
    if not (1.0 / params.rho - 1e-12 < s < 1.0 + 1e-12):
        raise ValueError(
            f"base parameter s={s!r} outside the window (1/rho, 1)"
        )
    arg = params.rho ** (2 * n) * s
    if arg == 0.0:  # underflowed: no pole, but a pair far outside the range
        raise OverflowError(f"rho^{2 * n} s underflows at s = {s!r}")
    return (alpha_of_s(params, arg), beta_of_s(params, arg))


def denominator_sequence(params: UniformizationParams, s: float, count: int) -> list[float]:
    """Interleaved reciprocals [1/alpha(s), 1/beta(s), 1/alpha(rho^2 s), ...].

    Entry n equals 1/alpha(rho^n s) for even n and 1/beta(rho^{n-1} s)
    for odd n, so entry n always carries the combination
    rho^n s + 1/(rho^n s).  For models whose reciprocals are integers at
    a special parameter, this is where those integers show up.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    out = []
    for n in range(count + 1):
        if n % 2 == 0:
            out.append(_inv_alpha(params, params.rho**n * s))
        else:
            out.append(_inv_beta(params, params.rho ** (n - 1) * s))
    return out
