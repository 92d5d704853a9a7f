"""Rational parameterization of the zero curve for small-step models.

When the support lies in {(-1,1), (1,-1), (1,0), (0,1), (1,1)} the zero
curve of the kernel is rational: there are constants a, b, c, b_hat,
c_hat and a multiplier rho > 1 such that

    1/alpha(s) = (sqrt(D_a) / 2a) (s + 1/s)          + B_a / a
    1/beta(s)  = (sqrt(D_b) / 2a) (rho s + 1/(rho s)) + B_b / a

sweep the curve as s varies, with the switching chain realized by
s -> rho^2 s and the two root involutions by s -> 1/s and
s -> 1/(rho^2 s).  Which of the constant pairs (b, b^2-ac) and
(b_hat, b_hat^2 - a c_hat) feeds alpha and which feeds beta is not taken
on faith: ``compute_params`` probes both assignments against the kernel
and keeps the one that annihilates it (for x/y-symmetric models the two
coincide).  A stay-put step only rescales time and is removed before the
constants are computed; the curve, and hence the parameterization, is
unchanged by that rescale.
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
    alpha_uses_hat: bool  # probe result: which constant pair feeds alpha
    p00: float  # stay-put mass removed by the time rescale


def compute_params(dist: StepDistribution) -> UniformizationParams:
    """Constants of the rational parameterization, probe-verified.

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

    # Probe both constant assignments against the kernel; exactly one
    # annihilates it for asymmetric models, both (identically) for
    # symmetric ones.
    best = None
    for uses_hat in (True, False):
        cand = UniformizationParams(
            a=a, b=b, c=c, b_hat=b_hat, c_hat=c_hat, rho=rho,
            disc=disc, disc_hat=disc_hat, alpha_uses_hat=uses_hat, p00=p00,
        )
        worst = 0.0
        for s in (0.31, 0.57, 0.88, 1.0, 1.45, 2.3, 3.7):
            alpha = alpha_of_s(cand, s)
            beta = beta_of_s(cand, s)
            worst = max(worst, abs(kernel_eval(dist, alpha, beta)))
        if worst <= 1e-10:
            best = cand
            break
    if best is None:
        raise SolverError(
            "neither constant assignment of the rational parameterization "
            "annihilates the kernel; model outside the supported class?"
        )
    return best


def _inv_alpha(params: UniformizationParams, s: float) -> float:
    if s == 0.0:
        raise ZeroDivisionError("parameterization pole at s = 0")
    if params.alpha_uses_hat:
        return (math.sqrt(params.disc_hat) / (2.0 * params.a)) * (s + 1.0 / s) \
            + params.b_hat / params.a
    return (math.sqrt(params.disc) / (2.0 * params.a)) * (s + 1.0 / s) \
        + params.b / params.a


def _inv_beta(params: UniformizationParams, s: float) -> float:
    t = params.rho * s
    if t == 0.0:
        raise ZeroDivisionError("parameterization pole at s = 0")
    if params.alpha_uses_hat:
        return (math.sqrt(params.disc) / (2.0 * params.a)) * (t + 1.0 / t) \
            + params.b / params.a
    return (math.sqrt(params.disc_hat) / (2.0 * params.a)) * (t + 1.0 / t) \
        + params.b_hat / params.a


def alpha_of_s(params: UniformizationParams, s: float) -> float:
    """alpha-coordinate at parameter s; invariant under s -> 1/s."""
    inv = _inv_alpha(params, s)
    if inv == 0.0:
        raise ZeroDivisionError(f"alpha pole at s = {s!r}")
    return 1.0 / inv


def beta_of_s(params: UniformizationParams, s: float) -> float:
    """beta-coordinate at parameter s; invariant under s -> 1/(rho^2 s)."""
    inv = _inv_beta(params, s)
    if inv == 0.0:
        raise ZeroDivisionError(f"beta pole at s = {s!r}")
    return 1.0 / inv


def sequence_at(params: UniformizationParams, s: float, n: int) -> tuple[float, float]:
    """n-th switching pair (alpha(rho^{2n} s), beta(rho^{2n} s)).

    The base parameter must lie in the fundamental window (1/rho, 1),
    which corresponds exactly to the open arc between the branch maxima.
    """
    if not (1.0 / params.rho - 1e-12 < s < 1.0 + 1e-12):
        raise ValueError(
            f"base parameter s={s!r} outside the window (1/rho, 1)"
        )
    arg = params.rho ** (2 * n) * s
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
