"""Step distributions on Z^2 and their characteristic kernel.

A model is a finitely supported probability law for the increments of a
random walk that is killed on leaving the open positive quadrant.  The
walks treated by this package may move at most one unit left and at most
one unit down, never move weakly down-left in a single step, and must be
able to cross the diagonal in both directions.  ``validate_model`` checks
exactly these structural assumptions and reports violations by rule id.

The kernel K(alpha, beta) = alpha*beta*(sum_s p_s alpha^s1 beta^s2 - 1)
vanishes precisely on the curve that drives every construction downstream;
``log_kernel_eval`` is its exponential-coordinate form, a finite sum of
exponentials and therefore convex in each variable separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

__all__ = [
    "StepDistribution",
    "ModelValidationReport",
    "ModelFileError",
    "InvalidModelError",
    "parse_model_file",
    "parse_model_text",
    "validate_model",
    "require_valid",
    "drift",
    "kernel_eval",
    "log_kernel_eval",
    "log_kernel_grad",
    "log_kernel_hess",
    "MAX_SUPPORT_RADIUS",
]

# Jumps beyond this radius would make the sections of the kernel polynomial
# arbitrarily stiff; the cap keeps every root-find well conditioned.
MAX_SUPPORT_RADIUS = 64

# Support whitelist for the rational-parameterization machinery.  The
# stay-put step (0, 0) is tolerated (it only rescales time) but flagged in
# validation notes; see compute_params for how it is removed.
SMALL_STEP_SUPPORT = {(1, 1), (1, 0), (0, 1), (1, -1), (-1, 1), (0, 0)}


class ModelFileError(ValueError):
    """Malformed model file (bad syntax, duplicate steps, bad numbers)."""


class InvalidModelError(ValueError):
    """Model violates the structural assumptions required by an operation."""


@dataclass(frozen=True)
class StepDistribution:
    """Finitely supported step law.

    ``steps`` and ``probs`` are parallel tuples; ``exact`` retains the
    rational probabilities when the model was given exactly (model files,
    Fraction literals) so validation can decide "sums to one" without
    float slack.
    """

    steps: tuple[tuple[int, int], ...]
    probs: tuple[float, ...]
    exact: tuple[Fraction, ...] | None = field(default=None, compare=False)
    # What is derived from the law and read on every call: the validation
    # report (``require_valid``) and, keyed by the twist, the sampled law's
    # tables and exit roots (``montecarlo``); outside equality, hash and
    # repr.  A new object, ``dataclasses.replace`` included, starts with an
    # empty memo.
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @classmethod
    def from_pairs(cls, pairs) -> "StepDistribution":
        """Build from a {(di, dj): probability} mapping.

        Probabilities may be floats, ints, or Fractions; Fractions are kept
        exactly.  Steps with probability exactly zero are dropped.
        """
        items = []
        for (di, dj), p in dict(pairs).items():
            di = int(di)
            dj = int(dj)
            if max(abs(di), abs(dj)) > MAX_SUPPORT_RADIUS:
                raise InvalidModelError(
                    f"step ({di},{dj}) exceeds the support radius cap "
                    f"{MAX_SUPPORT_RADIUS}"
                )
            if isinstance(p, (Fraction, int)):
                pf = Fraction(p)
            elif isinstance(p, float):
                pf = Fraction(p)  # exact binary value of the float
            else:
                raise TypeError(f"unsupported probability type {type(p)!r}")
            if pf == 0:
                continue
            items.append(((di, dj), pf))
        items.sort()
        steps = tuple(s for s, _ in items)
        exact = tuple(p for _, p in items)
        probs = tuple(float(p) for p in exact)
        return cls(steps=steps, probs=probs, exact=exact)

    @cached_property
    def _lookup(self) -> dict[tuple[int, int], float]:
        return dict(zip(self.steps, self.probs))

    def prob(self, step: tuple[int, int]) -> float:
        return self._lookup.get(tuple(step), 0.0)

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class ModelValidationReport:
    passed: bool
    violations: tuple[tuple[str, str], ...]
    is_small_step: bool
    notes: tuple[str, ...] = ()


def _parse_probability(token: str, where: str) -> Fraction:
    try:
        if "/" in token:
            num, den = token.split("/")
            value = Fraction(int(num), int(den))
        else:
            value = Fraction(token)  # handles decimal strings exactly
    except (ValueError, ZeroDivisionError) as exc:
        raise ModelFileError(f"{where}: cannot parse probability {token!r}") from exc
    if not 0 <= value <= 1:
        raise ModelFileError(f"{where}: probability {token!r} outside [0, 1]")
    return value


def parse_model_text(text: str, source: str = "<string>") -> StepDistribution:
    """Parse model lines ``di dj p`` with ``#`` comments.

    ``p`` is a decimal or a rational ``a/b``; duplicate steps are an error
    (reported with the line number), since silently summing them has caused
    enough grief elsewhere.
    """
    table: dict[tuple[int, int], Fraction] = {}
    first_line: dict[tuple[int, int], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ModelFileError(
                f"{source}:{lineno}: expected 'di dj p', got {raw.strip()!r}"
            )
        try:
            di, dj = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ModelFileError(f"{source}:{lineno}: bad step coordinates") from exc
        p = _parse_probability(parts[2], f"{source}:{lineno}")
        if (di, dj) in table:
            raise ModelFileError(
                f"{source}:{lineno}: duplicate step ({di},{dj}), "
                f"first given on line {first_line[(di, dj)]}"
            )
        table[(di, dj)] = p
        first_line[(di, dj)] = lineno
    if not table:
        raise ModelFileError(f"{source}: no steps found")
    try:
        return StepDistribution.from_pairs(table)
    except InvalidModelError as exc:
        raise ModelFileError(f"{source}: {exc}") from exc


def parse_model_file(path) -> StepDistribution:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model_text(fh.read(), source=str(path))


# slack of the "sums to one" test for a law given without exact probabilities
_NORM_TOL = 1e-12


def validate_model(dist: StepDistribution) -> ModelValidationReport:
    """Check the structural assumptions and classify the support.

    Rule ids:
      norm          probabilities nonnegative, summing to one (exactly when
                    ``exact`` is kept, else within _NORM_TOL)
      small_neg     no step goes below -1 in either coordinate
      singular      the three weakly-down-left unit steps carry no mass
      corner_jumps  both diagonal crossings (-1,1) and (1,-1) carry mass
      nondegenerate some step with di+dj > 0 carries mass
    """
    violations: list[tuple[str, str]] = []
    notes: list[str] = []

    if dist.exact is not None:
        total_exact = sum(dist.exact, Fraction(0))
        norm_ok = total_exact == 1
        total = float(total_exact)
    else:
        total = math.fsum(dist.probs)
        norm_ok = abs(total - 1.0) <= _NORM_TOL
    if any(p < 0 for p in dist.probs):
        violations.append(("norm", "negative probability in the step law"))
    elif not norm_ok:
        violations.append(("norm", f"probabilities sum to {total!r}, not 1"))

    bad = [s for s in dist.steps if s[0] < -1 or s[1] < -1]
    if bad:
        violations.append(
            ("small_neg", f"steps below -1 in a coordinate: {sorted(bad)}")
        )

    mass_on = [s for s in ((-1, -1), (-1, 0), (0, -1)) if dist.prob(s) > 0]
    if mass_on:
        violations.append(
            ("singular", f"weakly-down-left steps must carry no mass: {mass_on}")
        )

    if not (dist.prob((-1, 1)) > 0 and dist.prob((1, -1)) > 0):
        violations.append(
            ("corner_jumps", "both (-1,1) and (1,-1) must carry positive mass")
        )

    if not any(di + dj > 0 for (di, dj), p in zip(dist.steps, dist.probs) if p > 0):
        violations.append(
            ("nondegenerate", "no step with di+dj > 0 carries mass")
        )

    small = all(s in SMALL_STEP_SUPPORT for s in dist.steps)
    if small and dist.prob((0, 0)) > 0:
        notes.append(
            "stay-put step (0,0) present: accepted for the small-step class; "
            "rational-parameterization constants are computed for the "
            "time-rescaled walk with the stay-put mass removed"
        )

    return ModelValidationReport(
        passed=not violations,
        violations=tuple(violations),
        is_small_step=small,
        notes=tuple(notes),
    )


def require_valid(dist: StepDistribution, where: str = "") -> ModelValidationReport:
    """Validate ``dist`` and raise InvalidModelError naming the failed rules.

    ``where`` (a file path, say) prefixes the message.  Returns the
    report of a passing model so callers can read its classification.
    The passing report is kept in the object's memo, so a model object is
    validated once; a failing one stores nothing and raises on every call.
    """
    report = dist._memo.get("report")
    if report is None:
        report = validate_model(dist)
        if not report.passed:
            ids = ", ".join(rule for rule, _ in report.violations)
            prefix = f"{where}: " if where else ""
            raise InvalidModelError(f"{prefix}model fails validation rules: {ids}")
        report = dist._memo.setdefault("report", report)
    return report


def _lattice(i, j) -> tuple[int, int]:
    """The lattice point (i, j) as ints.

    Integral floats and numpy integers pass; a fractional coordinate is a
    ValueError rather than a point truncated toward zero.
    """
    if type(i) is int and type(j) is int:  # the common case, kept cheap
        return i, j
    point = int(i), int(j)
    if point != (i, j):
        raise ValueError(f"lattice coordinates must be integers, got {(i, j)!r}")
    return point


def drift(dist: StepDistribution) -> tuple[float, float]:
    m1 = math.fsum(di * p for (di, _), p in zip(dist.steps, dist.probs))
    m2 = math.fsum(dj * p for (_, dj), p in zip(dist.steps, dist.probs))
    return (m1, m2)


def kernel_eval(dist: StepDistribution, alpha: float, beta: float) -> float:
    """K(alpha, beta) = alpha*beta*(sum p alpha^di beta^dj - 1), alpha,beta > 0."""
    if alpha <= 0 or beta <= 0:
        raise ValueError("kernel arguments must be positive")
    s = math.fsum(p * alpha**di * beta**dj for (di, dj), p in zip(dist.steps, dist.probs))
    return alpha * beta * (s - 1.0)


# Exponents of the kernel terms saturate at this cap.  Root brackets probe
# far from the curve, where only the terms aligned with the probe direction
# saturate, so the saturated sum keeps the sign of the true value while
# staying finite for fsum (which refuses mixed infinities).
_EXP_CAP = 600.0


def _exp(t: float) -> float:
    # exp with the exponent saturated at _EXP_CAP
    if t > _EXP_CAP:
        return math.exp(_EXP_CAP)
    return math.exp(t)


def log_kernel_eval(dist: StepDistribution, x: float, y: float) -> float:
    """G(x, y) = sum p exp(di*x + dj*y) - 1; equals exp(-x-y) K(e^x, e^y).

    Summed as sum p expm1(di*x + dj*y), which equals G because the
    probabilities of a valid model sum to one.  Near the origin this keeps
    the relative accuracy that ``exp(s) - 1`` loses, so G vanishes exactly
    only at a root, and a Newton iteration can resolve roots such as
    f(0) = 0 to the last bit.  Exponents saturate at _EXP_CAP as in ``_exp``.
    """
    return math.fsum(
        p * math.expm1(min(di * x + dj * y, _EXP_CAP))
        for (di, dj), p in zip(dist.steps, dist.probs)
    )


def log_kernel_grad(dist: StepDistribution, x: float, y: float) -> tuple[float, float]:
    gx_terms = []
    gy_terms = []
    for (di, dj), p in zip(dist.steps, dist.probs):
        w = p * _exp(di * x + dj * y)
        if di:
            gx_terms.append(di * w)
        if dj:
            gy_terms.append(dj * w)
    return (math.fsum(gx_terms), math.fsum(gy_terms))


def log_kernel_hess(dist: StepDistribution, x: float, y: float):
    """Second derivatives (Gxx, Gxy, Gyy) of the exponential form."""
    xx = []
    xy = []
    yy = []
    for (di, dj), p in zip(dist.steps, dist.probs):
        w = p * _exp(di * x + dj * y)
        if di:
            xx.append(di * di * w)
            if dj:
                xy.append(di * dj * w)
        if dj:
            yy.append(dj * dj * w)
    return (math.fsum(xx), math.fsum(xy), math.fsum(yy))
