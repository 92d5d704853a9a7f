"""Independent reference implementations used to pin the library's output.

Everything here is derived from first principles for specific models --
closed forms for the three-diagonal-step model, exact-rational dynamic
programming for short-horizon path sums -- and shares no code with the
package beyond the step-distribution container.
"""

import math
from fractions import Fraction

# golden-ratio constants for the three-diagonal-step ("fibonacci") model
RHO = (3 + math.sqrt(5)) / 2  # squared golden ratio; ratio of orbit scales
S5 = math.sqrt(5)


def fib_numbers(count: int) -> list[int]:
    f = [0, 1]
    while len(f) < count:
        f.append(f[-1] + f[-2])
    return f


_F = fib_numbers(400)


def fib_escape_exact(i: int, j: int, nterms: int = 40) -> Fraction:
    """Escape probability for the fibonacci model as an exact rational.

    The product-term parameters are reciprocal Fibonacci numbers
    (alpha_n = 1/F(|4n-1|), beta_n = 1/F(|4n+1|)), so the alternating
    double-sided series can be summed exactly with Fraction arithmetic.
    nterms=40 is far past double precision for i, j >= 1.
    """

    def alpha(n):
        return Fraction(1, _F[abs(4 * n - 1)])

    def beta(n):
        return Fraction(1, _F[abs(4 * n + 1)])

    return sum(
        (alpha(n) ** i - alpha(n + 1) ** i) * beta(n) ** j
        for n in range(-nterms, nterms + 1)
    )


def fib_upper_y_branch(x: float) -> float:
    """Closed-form upper branch of the fibonacci zero curve.

    With a = e^x, the curve a^2 b^2 + a^2 + b^2 = 3ab solved for b gives
    b = a (3 +- sqrt(5 - 4a^2)) / (2 (1 + a^2)); the upper root carries
    the + sign.  Defined for x <= log(sqrt(5)/2).
    """
    a = math.exp(x)
    disc = 5.0 - 4.0 * a * a
    if disc < -1e-12:
        raise ValueError("outside branch domain")
    return math.log(a * (3.0 + math.sqrt(max(disc, 0.0))) / (2.0 * (1.0 + a * a)))


def fib_lower_x_branch(y: float) -> float:
    """Lower x-root of the fibonacci curve at height y (the hat branch)."""
    b = math.exp(y)
    disc = 5.0 - 4.0 * b * b
    if disc < -1e-12:
        raise ValueError("outside branch domain")
    return math.log(b * (3.0 - math.sqrt(max(disc, 0.0))) / (2.0 * (1.0 + b * b)))


def _alpha1(n):
    return S5 / (RHO ** (2 * n) + RHO ** (-2 * n))


def _beta1(n):
    return S5 / (RHO ** (2 * n + 1) + RHO ** (-(2 * n + 1)))


def _dalpha1(n):
    return -S5 * (RHO ** (2 * n) - RHO ** (-2 * n)) / (
        RHO ** (2 * n) + RHO ** (-2 * n)
    ) ** 2


def _dbeta1(n):
    return -S5 * (RHO ** (2 * n + 1) - RHO ** (-(2 * n + 1))) / (
        RHO ** (2 * n + 1) + RHO ** (-(2 * n + 1))
    ) ** 2


def fib_boundary_harmonic(i: int, j: int, nterms: int = 80) -> float:
    """Boundary-limit harmonic function for the fibonacci model.

    Differentiates the closed-form parametrized orbit through the branch
    endpoint (parameter value 1) term by term; the one-sided chain
    points and their parameter derivatives are golden-ratio rationals.
    Normalized so the leading log-beta derivative is 1, times the
    defining factor 2.
    """
    s = 0.0
    for n in range(nterms):
        s += (
            i
            * (_dalpha1(n) * _alpha1(n) ** (i - 1) - _dalpha1(n + 1) * _alpha1(n + 1) ** (i - 1))
            * _beta1(n) ** j
        )
        s += j * (_alpha1(n) ** i - _alpha1(n + 1) ** i) * _dbeta1(n) * _beta1(n) ** (j - 1)
    return 2.0 * s * _beta1(0) / _dbeta1(0)


def green_enum(steps: dict, x: tuple, y: tuple, horizon: int) -> Fraction:
    """Exact killed Green value truncated at `horizon` by dense DP.

    steps maps (di, dj) -> Fraction probability.  Counts visits to y at
    times 1..horizon along paths from x that stay strictly inside the
    quadrant; exact rational arithmetic, so usable as a hard oracle.
    """
    dist_now = {x: Fraction(1)}
    total = Fraction(0)
    for _ in range(horizon):
        nxt = {}
        for pos, pr in dist_now.items():
            for s, ps in steps.items():
                q = (pos[0] + s[0], pos[1] + s[1])
                if q[0] >= 1 and q[1] >= 1:
                    nxt[q] = nxt.get(q, Fraction(0)) + pr * ps
        dist_now = nxt
        total += dist_now.get(y, Fraction(0))
    return total


def escape_enum_lower(steps: dict, x: tuple, horizon: int) -> Fraction:
    """Exact P(still inside after `horizon` steps), an upper bound on escape."""
    dist_now = {x: Fraction(1)}
    for _ in range(horizon):
        nxt = {}
        for pos, pr in dist_now.items():
            for s, ps in steps.items():
                q = (pos[0] + s[0], pos[1] + s[1])
                if q[0] >= 1 and q[1] >= 1:
                    nxt[q] = nxt.get(q, Fraction(0)) + pr * ps
        dist_now = nxt
    return sum(dist_now.values(), Fraction(0))


def sf2_model_text(delta: Fraction) -> str:
    """Drift-shrinking diagonal family: vertical drift = delta."""
    half = (1 - delta) / 2
    return f"1 1 {delta}\n1 -1 {half}\n-1 1 {half}\n"


def sf2_exact_root(delta: Fraction) -> Fraction:
    """Exit root of the sf2 family: psi(c) = d c + (1-d)/(2c) + (1-d)c/2 - 1.

    Multiplying by 2c gives (1+d) c^2 - 2c + (1-d) = 0 with roots 1 and
    (1-d)/(1+d); the root in (0,1) is the latter.
    """
    return (1 - delta) / (1 + delta)


def sf2_exact_ratio(delta: Fraction) -> Fraction:
    """(1 - c) * Var(dj) / (2 * drift) for the sf2 family = exactly 1 - delta."""
    c = sf2_exact_root(delta)
    variance = 1 - delta * delta  # E[dj^2] = 1, mean = delta
    return (1 - c) * variance / (2 * delta)


def skipfree_root_bounds(marginal: dict) -> tuple[Fraction, Fraction]:
    """Rational bounds lo <= c <= hi on the exit root of a marginal with
    steps in {-1, 0, 1}, far closer than one ulp; lo == hi when c is
    rational.

    marginal maps d -> Fraction P(d), which need not sum to one.  The
    root in (0, 1) of sum P(d) c^d = 1 is then the smaller root of
    P(1) c^2 - (1 - P(0)) c + P(-1) = 0, bounded here by integer
    square roots.
    """
    a, b, m = marginal.get(1, 0), 1 - marginal.get(0, 0), marginal.get(-1, 0)
    disc = b * b - 4 * a * m
    scale = 1 << 200
    n = disc.numerator * disc.denominator * scale * scale
    r = math.isqrt(n)
    root_lo = Fraction(r, scale * disc.denominator)  # <= sqrt(disc)
    root_hi = root_lo if r * r == n else Fraction(r + 1, scale * disc.denominator)
    return (b - root_hi) / (2 * a), (b - root_lo) / (2 * a)
