"""Command-line front end.

Every subcommand writes a small report or CSV whose first lines are the
run manifest as ``#`` comments: the command, the model path, the sorted
parameters, the tool version, and the seed when one is involved.  No
timestamps, no hostnames — re-running the printed manifest must
reproduce the output byte for byte.  All floating-point fields are
printed with 17 significant digits so values round-trip exactly.

Exit codes: 0 success; 1 model parse/validation failure; 2 usage error
(argparse, bad parameter values, missing --seed); 3 numerical failure
(bracketing, convergence, SPD, division blowups, float overflow).
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field, replace

from . import __version__
from .model import (
    InvalidModelError,
    ModelFileError,
    StepDistribution,
    parse_model_file,
    require_valid,
    validate_model,
)
from .curve import SolverError, cramer_transform, f_branch, find_extrema, g_branch
from .compensation import (
    HarmonicValue,
    boundary_harmonic,
    build_sequence,
    escape_probability,
    harmonic_eval,
)
from .uniformization import compute_params, sequence_at

# The simulator, and numpy with it, is imported by the subcommands that
# run it, so the others start without either.
__all__ = ["main", "RunManifest"]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _csv(*cells) -> str:
    """One CSV row: floats by ``_fmt``, every other cell by ``str``."""
    return ",".join(_fmt(c) if isinstance(c, float) else str(c) for c in cells)


@dataclass(frozen=True)
class RunManifest:
    command: str
    model_path: str
    parameters: dict = field(default_factory=dict)
    tool_version: str = __version__
    seed: int | None = None

    def header_lines(self) -> list[str]:
        lines = [f"# command: {self.command}", f"# model: {self.model_path}"]
        for k in sorted(self.parameters):
            v = self.parameters[k]
            if isinstance(v, float):
                v = _fmt(v)
            lines.append(f"# param {k}: {v}")
        lines.append(f"# tool_version: {self.tool_version}")
        if self.seed is not None:
            lines.append(f"# seed: {self.seed}")
        return lines


def _emit(args, params: dict, body: list[str], seed: int | None = None) -> None:
    """Write the run manifest, then ``body``, to ``args.out`` or stdout.

    The manifest takes the command and model from ``args``, so a
    subcommand states only its ``params`` and ``seed``."""
    man = RunManifest(args.subcommand, args.model, params, seed=seed)
    text = "\n".join(man.header_lines() + body) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_valid_model(path: str) -> StepDistribution:
    dist = parse_model_file(path)
    require_valid(dist, where=path)
    return dist


# ---------------------------------------------------------------- validate


def cmd_validate(args) -> int:
    dist = parse_model_file(args.model)
    report = validate_model(dist)
    body = [
        f"steps: {len(dist)}",
        f"passed: {'yes' if report.passed else 'no'}",
        f"small-step: {'yes' if report.is_small_step else 'no'}",
    ]
    for rule, msg in report.violations:
        body.append(f"violation {rule}: {msg}")
    for note in report.notes:
        body.append(f"note: {note}")
    _emit(args, {}, body)
    return 0 if report.passed else 1


# -------------------------------------------------------------- curve-dump


# rows one curve-dump, or cells one harmonic-table or compare, may print
_MAX_ROWS = 100_000


def cmd_curve_dump(args) -> int:
    dist = _load_valid_model(args.model)
    geom = find_extrema(dist)
    lo = args.lo if args.lo is not None else min(geom.x0, geom.y0)
    hi = min(args.hi, 0.0)
    if not math.isfinite(lo):
        raise ValueError(f"--lo must be finite, got {lo!r}")
    if not lo < hi:
        raise ValueError(f"empty grid: lo={lo!r} must be < hi={hi!r}")
    step = args.step if args.step is not None else (hi - lo) / 50.0
    if not 0 < step < math.inf:  # NaN fails too
        raise ValueError(f"--step must be finite and positive, got {step!r}")
    end = hi + 1e-12 * max(1.0, abs(hi))  # the last point may round past hi
    if (end - lo) / step >= _MAX_ROWS:  # rows: the k >= 0 with lo + k*step <= end
        raise ValueError(f"--step {step!r} gives more than {_MAX_ROWS} grid rows")
    body = ["x,f(x),y,g(y)"]
    k = 0
    while True:
        t = lo + k * step
        if t > end:
            break
        x = min(max(t, geom.x0), 0.0)
        y = min(max(t, geom.y0), 0.0)
        body.append(_csv(x, f_branch(geom, x), y, g_branch(geom, y)))
        k += 1
    _emit(args, {"lo": lo, "hi": hi, "step": step}, body)
    return 0


# ------------------------------------------------------------------ escape


def cmd_escape(args) -> int:
    dist = _load_valid_model(args.model)
    i, j = args.i, args.j
    if i < 0 or j < 0:
        raise ValueError("escape coordinates must be nonnegative")
    if not (args.tol > 0):  # checked here too: an axis start skips the series
        raise ValueError(f"--tol must be positive, got {args.tol!r}")
    if i == 0 or j == 0:
        hv = HarmonicValue(0.0, 0.0, 0)  # absorbed start: Dirichlet value
    else:
        geom = find_extrema(dist)
        hv = escape_probability(geom, i, j, tol=args.tol)
    params = {"i": i, "j": j, "tol": args.tol}
    seed = None
    body = [
        f"escape_probability: {_fmt(hv.value)}",
        f"tail_bound: {_fmt(hv.tail_bound)}",
        f"terms_used: {hv.terms_used}",
    ]
    if args.mc_check is not None:
        from . import montecarlo as mc

        n_paths, horizon, seed = args.mc_check
        params.update({"mc_n_paths": n_paths, "mc_horizon": horizon})
        # an absorbed start is not simulated, but its inputs pass the same gate
        mc._check_stream_inputs(dist.steps, [(i, j)], horizon, seed, n_paths)
        est = mc.estimate_escape(
            dist, (i, j), mc.SimConfig(seed=seed, n_paths=n_paths, horizon=horizon)
        ) if i >= 1 and j >= 1 else mc.SimEstimate(
            0.0, 0.0, n_paths, horizon, 0.0, 0.0
        )
        delta = abs(est.mean - hv.value)
        gate = 3.0 * est.std_error + hv.tail_bound + est.bias_bound
        body += [
            f"mc_mean: {_fmt(est.mean)}",
            f"mc_std_error: {_fmt(est.std_error)}",
            f"mc_bias_bound: {_fmt(est.bias_bound)}",
            f"mc_delta: {_fmt(delta)}",
            f"mc_verdict: {'agree' if delta <= gate else 'disagree'}",
        ]
    _emit(args, params, body, seed)
    return 0


# ---------------------------------------------------------- harmonic-table


def cmd_harmonic_table(args) -> int:
    dist = _load_valid_model(args.model)
    if args.imax < 1 or args.jmax < 1:
        raise ValueError("imax and jmax must be >= 1")
    if args.imax * args.jmax > _MAX_ROWS:
        raise ValueError(f"--imax {args.imax} by --jmax {args.jmax} gives more "
                         f"than {_MAX_ROWS} grid cells")
    geom = find_extrema(dist)
    seq = build_sequence(geom, (0.0, 0.0), truncation_tol=args.tol, imin=2)
    last = ["tail_bound"] if args.bounds else []
    body = [_csv("i", *range(1, args.jmax + 1), *last)]
    for i in range(1, args.imax + 1):
        vals = [harmonic_eval(seq, i, j) for j in range(1, args.jmax + 1)]
        if args.bounds:
            last = [max(v.tail_bound for v in vals)]
        body.append(_csv(i, *(v.value for v in vals), *last))
    _emit(args, {"imax": args.imax, "jmax": args.jmax, "tol": args.tol,
                 "bounds": args.bounds}, body)
    return 0


# ------------------------------------------------------- boundary-harmonic


def cmd_boundary_harmonic(args) -> int:
    geom = find_extrema(_load_valid_model(args.model))
    v = boundary_harmonic(geom, args.i, args.j, tol=args.tol)
    _emit(args, {"i": args.i, "j": args.j, "tol": args.tol},
          [f"boundary_harmonic: {_fmt(v)}"])
    return 0


# ---------------------------------------------------------------- sequence


def cmd_sequence(args) -> int:
    dist = _load_valid_model(args.model)
    params = compute_params(dist)
    if args.nmin > args.nmax:
        raise ValueError("nmin must be <= nmax")
    if args.nmax - args.nmin + 1 > _MAX_ROWS:
        raise ValueError(f"--nmin {args.nmin} to --nmax {args.nmax} gives more "
                         f"than {_MAX_ROWS} rows")
    rows = {}
    # rho > 1, so the terms leave the float range monotonically in |n|:
    # going outward from n = 0 meets the first that does
    for n in sorted(range(args.nmin, args.nmax + 1), key=abs):
        try:
            a_n, b_n = sequence_at(params, args.s, n)
            rows[n] = _csv(n, a_n, b_n, 1.0 / a_n, 1.0 / b_n)
        except (OverflowError, ZeroDivisionError):
            raise ValueError(
                f"--nmin {args.nmin} to --nmax {args.nmax} reaches n = {n}, "
                f"whose term leaves the float range at s = {args.s!r}"
            ) from None
    body = ["n,alpha_n,beta_n,inv_alpha_n,inv_beta_n"]
    body += [rows[n] for n in range(args.nmin, args.nmax + 1)]
    _emit(args, {"s": args.s, "nmin": args.nmin, "nmax": args.nmax}, body)
    return 0


# ---------------------------------------------------------------- simulate


_SIM_HEADER = "quantity,value,std_error,n_paths,horizon,seed"


def cmd_simulate(args) -> int:
    from . import montecarlo as mc

    dist = _load_valid_model(args.model)
    cfg = mc.SimConfig(seed=args.seed, n_paths=args.n_paths, horizon=args.horizon)
    if args.twist_u is not None and args.quantity != "green":
        raise ValueError(f"--twist-u applies to green only, not {args.quantity}")
    params = {"n_paths": args.n_paths, "horizon": args.horizon}
    if args.quantity == "escape":
        params.update(i=args.coords[0], j=args.coords[1])
        est = mc.estimate_escape(dist, tuple(args.coords), cfg)
    elif args.quantity == "survival":
        params["height"] = args.coords[0]
        est = mc.estimate_halfplane_survival(dist, args.coords[0], cfg)
    else:
        x, y = tuple(args.coords[:2]), tuple(args.coords[2:])
        params.update(x=f"({x[0]} {x[1]})", y=f"({y[0]} {y[1]})")
        if args.twist_u is not None:
            u1, u2 = args.twist_u
            nrm = math.hypot(u1, u2)
            if not 0 < nrm < math.inf:  # NaN fails too
                raise ValueError(
                    f"--twist-u must be finite and nonzero, got {args.twist_u!r}"
                )
            twist = cramer_transform(find_extrema(dist), (u1 / nrm, u2 / nrm))
            cfg = replace(cfg, twist=twist)
            params["twist_u"] = f"({_fmt(u1)} {_fmt(u2)})"
        if args.quantity == "green":
            est = mc.estimate_green(dist, x, y, cfg)
        else:
            est = mc.martin_kernel_estimate(dist, x, y, cfg)
    row = _csv(args.quantity, est.mean, est.std_error, est.n_paths, est.horizon,
               args.seed)
    _emit(args, params, [_SIM_HEADER, row], args.seed)
    return 0


# --------------------------------------------------------------- green-scan


def cmd_green_scan(args) -> int:
    from . import montecarlo as mc

    dist = _load_valid_model(args.model)
    radii = [float(r) for r in args.radii.split(",") if r.strip()]
    if not radii:
        raise ValueError("at least one radius is required")
    cfg = mc.SimConfig(seed=args.seed, n_paths=args.n_paths, horizon=args.horizon)
    pts = mc.green_direction_scan(dist, (args.x[0], args.x[1]), tuple(args.u), radii, cfg)
    body = [_SIM_HEADER]
    for p in pts:
        body.append(_csv(f"scaled_green_{p.y[0]}_{p.y[1]}", p.value, p.std_error,
                         args.n_paths, p.horizon, args.seed))
    _emit(args, {"x": f"({args.x[0]} {args.x[1]})",
                 "u": f"({_fmt(args.u[0])} {_fmt(args.u[1])})",
                 "radii": args.radii, "n_paths": args.n_paths,
                 "horizon": args.horizon if args.horizon is not None else "auto"},
          body, args.seed)
    return 0


# ----------------------------------------------------------------- compare


def cmd_compare(args) -> int:
    from . import montecarlo as mc

    dist = _load_valid_model(args.model)
    if args.imin < 0 or args.jmin < 0:
        raise ValueError("imin and jmin must be >= 0")
    if args.imax < args.imin or args.jmax < args.jmin:
        raise ValueError("imax/jmax must be >= imin/jmin")
    if (args.imax - args.imin + 1) * (args.jmax - args.jmin + 1) > _MAX_ROWS:
        raise ValueError(f"IMAX {args.imax} and JMAX {args.jmax} give more than "
                         f"{_MAX_ROWS} grid cells from ({args.imin}, {args.jmin})")
    # rows on an axis are not simulated, but their inputs pass the same gate;
    # (imax, jmax) is the row farthest from the origin
    mc._check_stream_inputs(dist.steps, [(args.imax, args.jmax)], args.horizon,
                            args.seed, args.n_paths)
    geom = find_extrema(dist)
    seq = build_sequence(
        geom, (0.0, 0.0), truncation_tol=args.tol,
        imin=max(2, args.imin + args.jmin),
    )
    body = ["i,j,series,tail_bound,mc_mean,mc_std_error,z"]
    cfg = mc.SimConfig(seed=args.seed, n_paths=args.n_paths, horizon=args.horizon)
    for i in range(args.imin, args.imax + 1):
        for j in range(args.jmin, args.jmax + 1):
            hv = harmonic_eval(seq, i, j)  # the Dirichlet zero on an axis
            mean, se, z = 0.0, 0.0, 0.0
            if i and j:
                est = mc.estimate_escape(dist, (i, j), cfg)
                mean, se = est.mean, est.std_error
                gap = mean - hv.value
                if se != 0.0:
                    z = gap / se
                elif gap != 0.0:  # no Monte Carlo spread: infinitely many sigmas
                    z = math.copysign(math.inf, gap)
            body.append(_csv(i, j, hv.value, hv.tail_bound, mean, se, z))
    _emit(args, {"imin": args.imin, "imax": args.imax, "jmin": args.jmin,
                 "jmax": args.jmax, "n_paths": args.n_paths,
                 "horizon": args.horizon, "tol": args.tol}, body, args.seed)
    return 0


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cornerwalk",
        description="Harmonic functions and escape probabilities for "
        "singular quarter-plane random walks.",
    )
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="subcommand", required=True)

    def add(name, func):
        q = sub.add_parser(name)
        q.add_argument("model", help="model file (lines: di dj prob)")
        q.add_argument("-o", "--out", help="write output to this file")
        q.set_defaults(func=func)
        return q

    add("validate", cmd_validate)

    q = add("curve-dump", cmd_curve_dump)
    q.add_argument("--lo", type=float, default=None,
                   help="grid start (default: leftmost branch abscissa)")
    q.add_argument("--hi", type=float, default=0.0)
    q.add_argument("--step", type=float, default=None)

    q = add("escape", cmd_escape)
    q.add_argument("i", type=int)
    q.add_argument("j", type=int)
    q.add_argument("--tol", type=float, default=1e-14)
    q.add_argument("--mc-check", nargs=3, type=int, default=None,
                   metavar=("N_PATHS", "HORIZON", "SEED"))

    q = add("harmonic-table", cmd_harmonic_table)
    q.add_argument("--imax", type=int, default=10)
    q.add_argument("--jmax", type=int, default=10)
    q.add_argument("--tol", type=float, default=1e-14)
    q.add_argument("--bounds", action="store_true",
                   help="append the per-row max tail bound as a last column")

    q = add("boundary-harmonic", cmd_boundary_harmonic)
    q.add_argument("i", type=int)
    q.add_argument("j", type=int)
    q.add_argument("--tol", type=float, default=1e-12)

    q = add("sequence", cmd_sequence)
    q.add_argument("--s", type=float, default=1.0,
                   help="uniformization coordinate in (1/rho, 1]")
    q.add_argument("--nmin", type=int, default=-6)
    q.add_argument("--nmax", type=int, default=6)

    q = add("simulate", cmd_simulate)
    q.add_argument("quantity", choices=["escape", "survival", "green", "martin"])
    q.add_argument("coords", type=int, nargs="+",
                   help="escape: I J; survival: HEIGHT; green/martin: XI XJ YI YJ")
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("--n-paths", type=int, required=True)
    q.add_argument("--horizon", type=int, default=None)
    q.add_argument("--twist-u", nargs=2, type=float, default=None,
                   metavar=("U1", "U2"), help="green only: twist toward U")

    q = add("green-scan", cmd_green_scan)
    q.add_argument("x", type=int, nargs=2, metavar=("XI", "XJ"))
    q.add_argument("--u", nargs=2, type=float, required=True, metavar=("U1", "U2"))
    q.add_argument("--radii", required=True, help="comma-separated radii")
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("--n-paths", type=int, required=True)
    q.add_argument("--horizon", type=int, default=None)

    q = add("compare", cmd_compare)
    q.add_argument("imax", type=int)
    q.add_argument("jmax", type=int)
    q.add_argument("--imin", type=int, default=1)
    q.add_argument("--jmin", type=int, default=1)
    q.add_argument("--seed", type=int, required=True)
    q.add_argument("--n-paths", type=int, default=20000)
    q.add_argument("--horizon", type=int, default=2000)
    q.add_argument("--tol", type=float, default=1e-14)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    # simulate's coord arity depends on the quantity; argparse can't express it
    if getattr(args, "subcommand", None) == "simulate":
        need = {"escape": 2, "survival": 1, "green": 4, "martin": 4}[args.quantity]
        if len(args.coords) != need:
            parser.error(f"{args.quantity} takes {need} coordinate(s)")

    try:
        return args.func(args)
    except (ModelFileError, InvalidModelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SolverError, ZeroDivisionError, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
