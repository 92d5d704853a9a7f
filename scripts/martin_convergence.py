#!/usr/bin/env python3
"""Watch the Martin kernel ratio converge to the harmonic-function ratio.

Runs the common-random-numbers ratio estimator G(x,y)/G((1,1),y) for
targets marching up the drift diagonal and prints the relative error
against h(x)/h(1,1) from the series.  Defaults use the symmetric
five-step model; the three-step model is a bad choice of default here
because its diagonal steps preserve i+j mod 2 and most (x, y) pairs
land in different parity classes.

Usage: python scripts/martin_convergence.py [--radii 10,15,20] [--n-paths N]
"""

import argparse

from cornerwalk import (
    SimConfig,
    build_sequence,
    find_extrema,
    green_direction_scan,
    harmonic_eval,
    martin_kernel_profile,
    parse_model_text,
)

ALL_FIVE_TEXT = "1 1 1/5\n1 0 1/5\n0 1 1/5\n1 -1 1/5\n-1 1 1/5\n"


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--x", type=int, nargs=2, default=(2, 3))
    ap.add_argument("--radii", default="10,15,20")
    ap.add_argument("--seed", type=int, default=2)
    ap.add_argument("--n-paths", type=int, default=400_000)
    args = ap.parse_args()

    dist = parse_model_text(ALL_FIVE_TEXT)
    geom = find_extrema(dist)
    seq = build_sequence(geom, (0.0, 0.0), imin=2)
    x = tuple(args.x)
    ref = harmonic_eval(seq, *x).value / harmonic_eval(seq, 1, 1).value
    radii = [int(r) for r in args.radii.split(",")]
    ys = [(r, r) for r in radii]

    print(f"series ratio h{x}/h(1,1) = {ref:.10f}")
    prof = martin_kernel_profile(
        dist, x, ys, SimConfig(seed=args.seed, n_paths=args.n_paths)
    )
    print("radius   ratio        std_err    rel_error   censored   bias_bound")
    for y, est in zip(ys, prof):
        rel = abs(est.mean - ref) / ref
        print(f"{y[0]:>6}   {est.mean:.6f}   {est.std_error:.2e}   "
              f"{rel:.2e}    {est.censored_fraction:.3f}      "
              f"{est.bias_bound:.1e}")

    print("\nscaled Green values along the diagonal (importance-sampled):")
    pts = green_direction_scan(
        dist, (1, 1), (1.0, 1.0), radii,
        SimConfig(seed=args.seed + 1, n_paths=args.n_paths // 2),
    )
    for p in pts:
        print(f"  |y|={p.norm:6.2f}  sqrt(|y|)-scaled G = "
              f"{p.value:.6f} +- {p.std_error:.6f}")


if __name__ == "__main__":
    main()
