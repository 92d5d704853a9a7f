#!/usr/bin/env python3
"""One-page tour of the three-diagonal-step model.

Prints the curve constants, the escape-probability table with its exact
closed forms visible (reciprocal Fibonacci numbers in the switching
chain), the rational-parameterization denominators, and a Monte Carlo
cross-check.  Everything here is recomputed from scratch; nothing is
read from the test suite.

Usage: python scripts/fibonacci_report.py [--seed N] [--n-paths N]
"""

import argparse
import math

from cornerwalk import (
    SimConfig,
    build_sequence,
    compute_params,
    denominator_sequence,
    estimate_escape,
    find_extrema,
    harmonic_eval,
    parse_model_text,
    skipfree_exit_root,
    validate_model,
)

FIB_TEXT = "1 1 1/3\n1 -1 1/3\n-1 1 1/3\n"


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=20260819)
    ap.add_argument("--n-paths", type=int, default=100_000)
    ap.add_argument("--horizon", type=int, default=5_000)
    args = ap.parse_args()

    dist = parse_model_text(FIB_TEXT)
    report = validate_model(dist)
    print(f"model: three diagonal steps at 1/3  (valid: {report.passed}, "
          f"small-step: {report.is_small_step})")

    geom = find_extrema(dist)
    print(f"branch maximum   x0 = {geom.x0:.15f}   f(x0) = {geom.f_at_x0:.15f}")
    print(f"orbit gaps       c1 = {geom.c1:.15f}   c2 = {geom.c2:.15f}"
          f"   (both = ln 3/2)")

    seq = build_sequence(geom, (0.0, 0.0), imin=2)
    print("\nescape probabilities h(i,j) (tail bound in last column):")
    for i in range(1, 7):
        row = [harmonic_eval(seq, i, j) for j in range(1, 7)]
        cells = "  ".join(f"{hv.value:.10f}" for hv in row)
        print(f"  i={i}: {cells}   <= {max(hv.tail_bound for hv in row):.1e}")

    params = compute_params(dist)
    s_star = (math.sqrt(5.0) - 1.0) / 2.0
    denoms = denominator_sequence(params, s_star, 9)
    print(f"\nmultiplier rho = {params.rho:.15f} (golden ratio squared)")
    print("denominators at s* =", " ".join(f"{d:.6f}" for d in denoms))
    print("                     (every other Fibonacci number)")

    c = skipfree_exit_root(dist)
    print(f"\nvertical exit root c = {c:.15f}; half-plane survival from "
          f"height z is 1 - c^z")

    est = estimate_escape(
        dist, (1, 1),
        SimConfig(seed=args.seed, n_paths=args.n_paths, horizon=args.horizon),
    )
    series = harmonic_eval(seq, 1, 1).value
    z = (est.mean - series) / est.std_error
    print(f"\nMC check at (1,1): {est.mean:.6f} +- {est.std_error:.6f} "
          f"vs series {series:.6f}   (z = {z:+.2f}, seed {args.seed}, "
          f"bias bound {est.bias_bound:.1e})")


if __name__ == "__main__":
    main()
