"""The three benchmark workloads: series, escape_mc and green_mc.

Each workload has
  * ``inputs(seed)``: everything the workload varies, drawn from the seed;
  * ``references(cw, inputs)``: reference values for the checks, computed
    once per run, outside the timed region and outside the trace;
  * ``run_pass(cw, rec, inputs, refs)``: one pass of timed operations;
  * ``pass_s``: the seconds one pass takes, checks and the samples taken
    after it included, on the 2-core machine the sizes were set on.  A
    run makes as many passes as fit in ``--seconds`` at this rate;
  * ``reference``: the ``hostspeed`` reference computation that does the
    workload's kind of work, which its times are scaled by.

Every pass parses fresh model objects, so no per-object cache carries
over from one pass to the next.  Library calls go through the package
attributes at call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import math
import random
from pathlib import Path

from checks import expect, expect_close, expect_mc, survivors
from hostspeed import NUMPY, PYTHON

ROOT = Path(__file__).resolve().parent.parent

MODEL_FILES = {
    "fibonacci": "models/fibonacci.txt",
    "all_five": "models/all_five.txt",
    "diag_heavy": "models/diag_heavy.txt",
    "big_jump": "models/big_jump.txt",
}
SMALL_STEP = ("fibonacci", "all_five", "diag_heavy")

# Monte Carlo sizes.  A large estimate is split into several calls of
# (n_paths, horizon) with their own seeds and checked pooled, so that
# each call is a latency sample of its own and op_p90_ms is not the time
# of a single call.  The splits are the largest group of like calls in
# their workload, 8 of 14 queries in escape_mc and 8 of 13 in green_mc,
# so that the median latency falls inside that group; a percentile
# that falls between two kinds of call jumps between them with host
# noise.  Horizons are long enough that a path still alive at the
# horizon exits later with negligible chance (its distance from the
# axes grows by the drift, about h/3 per step).
FIB_ESCAPE_CALLS, FIB_ESCAPE = 8, (8192, 1000)
BIG_JUMP_ESCAPE_CALLS, BIG_JUMP_ESCAPE = 2, (16384, 500)
HALFPLANE = (16384, 1000)
GREEN_PATHS = 131072
MARTIN_CALLS, MARTIN_PATHS = 8, 12500
SCAN_CALLS, SCAN_PATHS = 2, 10000

# The README's reference commands, with fixed arguments: their output
# bytes are the same in every run, whatever the workload seed.
CLI_TABLE = ["harmonic-table", "models/fibonacci.txt",
             "--imax", "10", "--jmax", "10", "--bounds"]
CLI_ESCAPE = ["escape", "models/fibonacci.txt", "1", "1",
              "--mc-check", "32768", "1000", "7"]
CLI_SCAN = ["green-scan", "models/fibonacci.txt", "1", "1", "--u", "1", "1",
            "--radii", "6,10", "--seed", "11", "--n-paths", "20000"]


def load_oracles():
    """The test suite's exact-rational oracles (tests/oracles.py)."""
    spec = importlib.util.spec_from_file_location(
        "cornerwalk_oracles", ROOT / "tests" / "oracles.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_models(cw, rec, names):
    """Parse and validate the workload's model files (not in wall time)."""

    def load():
        out = {}
        for name in names:
            dist = cw.parse_model_file(MODEL_FILES[name])
            report = cw.validate_model(dist)
            expect(report.passed, f"{name} fails validation: {report.violations}")
            out[name] = dist
        return out

    return rec.run("load_models", load, in_wall=False) or {}


def run_cli(cw, argv):
    """Run the ``cornerwalk`` command in process; returns (exit code, stdout)."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cw.cli.main(list(argv))
    except SystemExit as exc:  # argparse exits on usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    return code, buf.getvalue()


def cli_body(text: str) -> list[str]:
    return [line for line in text.splitlines() if line and not line.startswith("#")]


def cli_field(text: str, key: str) -> str:
    for line in cli_body(text):
        if line.startswith(key + ": "):
            return line[len(key) + 2:]
    raise KeyError(key)


def check_cli(rec, name, result):
    code, text = result
    rec.record_cli(name, code, text)
    expect(code == 0, f"cornerwalk {name} exited {code}")
    return text


def record_paths(rec, key, alive_fraction, n_paths, horizon):
    """Record a Monte Carlo call's exact count of paths alive at the
    horizon, its absorbed-path share and its nominal path-steps."""
    alive = survivors(alive_fraction, n_paths)
    rec.count(f"survivors.{key}", alive)
    rec.count(f"absorbed_share.{key}", 1.0 - alive / n_paths)
    rec.add("montecarlo.survivors", alive)
    rec.add("montecarlo.path_steps_nominal", n_paths * horizon)
    rec.work += n_paths * horizon


def check_survival(rec, key, est, ref, slack=0.0):
    record_paths(rec, key, est.mean, est.n_paths, est.horizon)
    expect_mc(key, est.mean, est.std_error, ref, slack)


def run_split(rec, name, call, seeds, check):
    """Run ``call(seed)`` once per seed, each call a timed query of its
    own, and run ``check`` on the list of all results after the last."""
    results = []
    for k, seed in enumerate(seeds):
        final = k == len(seeds) - 1
        results.append(rec.run(
            name, lambda: call(seed),
            (lambda r: check(results + [r])) if final else None, query=True))
    return results


def pooled(cw, parts):
    """One estimate from independent, equally sized ones: the mean of
    their means, with the standard error of that mean."""
    expect(None not in parts, "a call of a split estimate raised")
    k = len(parts)
    return cw.SimEstimate(
        mean=math.fsum(p.mean for p in parts) / k,
        std_error=math.sqrt(math.fsum(p.std_error**2 for p in parts)) / k,
        n_paths=sum(p.n_paths for p in parts),
        horizon=parts[0].horizon,
        censored_fraction=math.fsum(p.censored_fraction for p in parts) / k,
    )


# --------------------------------------------------------------- series


class Series:
    name = "series"
    pass_s = 3.8
    reference = PYTHON
    models = ("fibonacci", "all_five", "diag_heavy", "big_jump")
    GRID = 10  # escape_probability on 1..GRID x 1..GRID
    TABLE = 20  # harmonic table on 1..TABLE x 1..TABLE

    def inputs(self, seed):
        rng = random.Random(seed)
        grid = [(i, j) for i in range(1, self.GRID + 1)
                for j in range(1, self.GRID + 1)]
        rng.shuffle(grid)
        return {
            "grid": grid,
            "boundary_points": [(rng.randint(1, 6), rng.randint(1, 6))
                                for _ in range(3)],
            "s_frac": rng.uniform(0.05, 0.95),
        }

    def references(self, cw, inputs):
        oracles = load_oracles()
        return {
            "fib_escape_11": float(oracles.fib_escape_exact(1, 1)),
            "fib_boundary": {
                p: oracles.fib_boundary_harmonic(*p)
                for p in inputs["boundary_points"]
            },
        }

    def run_pass(self, cw, rec, inputs, refs):
        models = load_models(cw, rec, self.models)
        fib_table = None
        for name in self.models:
            dist = models.get(name)
            geom = rec.run(f"{name}.find_extrema", lambda: cw.find_extrema(dist))
            escape = {}
            for i, j in inputs["grid"]:
                hv = rec.run(
                    f"{name}.escape_probability",
                    lambda: cw.escape_probability(geom, i, j),
                    lambda hv: self._check_escape(rec, refs, name, i, j, hv),
                    query=True,
                )
                escape[i, j] = hv
            table = rec.run(
                f"{name}.table",
                lambda: self._table(cw, geom),
                lambda t: self._check_table(rec, dist, t, escape),
            )
            if name == "fibonacci":
                fib_table = table
            for i, j in inputs["boundary_points"]:
                rec.run(
                    f"{name}.boundary_harmonic",
                    lambda: cw.boundary_harmonic(geom, i, j),
                    lambda v: self._check_boundary(rec, refs, name, i, j, v),
                )
            if name in SMALL_STEP:
                rec.run(
                    f"{name}.uniformization",
                    lambda: self._uniformization(cw, dist, inputs["s_frac"]),
                    lambda pairs: self._check_on_curve(cw, dist, pairs),
                )
        rec.run(
            "cli.harmonic-table",
            lambda: run_cli(cw, CLI_TABLE),
            lambda r: self._check_cli_table(rec, r, fib_table),
        )

    def _table(self, cw, geom):
        seq = cw.build_sequence(geom, (0.0, 0.0), truncation_tol=1e-14, imin=2)
        n = self.TABLE
        return {(i, j): cw.harmonic_eval(seq, i, j)
                for i in range(1, n + 1) for j in range(1, n + 1)}

    @staticmethod
    def _uniformization(cw, dist, s_frac):
        params = cw.compute_params(dist)
        s = 1.0 / params.rho + s_frac * (1.0 - 1.0 / params.rho)
        return [cw.sequence_at(params, s, n) for n in range(-6, 7)]

    @staticmethod
    def _count_values(rec, values):
        rec.add("harmonic_values", len(values))
        rec.add("compensation.chain_terms", sum(v.terms_used for v in values))
        rec.work += len(values)

    def _check_escape(self, rec, refs, name, i, j, hv):
        self._count_values(rec, [hv])
        expect(
            math.isfinite(hv.value)
            and -hv.tail_bound <= hv.value <= 1.0 + hv.tail_bound,
            f"{name} escape({i},{j}) = {hv.value!r} is not a probability",
        )
        if name == "fibonacci" and (i, j) == (1, 1):
            expect_close("fibonacci escape(1,1) vs exact rational",
                         hv.value, refs["fib_escape_11"], 1e-12)

    def _check_table(self, rec, dist, table, escape):
        self._count_values(rec, list(table.values()))
        n = self.TABLE
        val = lambda i, j: table[i, j].value if i and j else 0.0
        reach = max(max(di, dj) for di, dj in dist.steps)
        worst = 0.0
        for i in range(1, n + 1 - reach):
            for j in range(1, n + 1 - reach):
                shifted = math.fsum(
                    p * val(i + di, j + dj)
                    for (di, dj), p in zip(dist.steps, dist.probs)
                )
                worst = max(worst, abs(val(i, j) - shifted))
        expect(worst <= 1e-10, f"harmonicity residual {worst!r} > 1e-10")
        for (i, j), hv in table.items():
            expect(hv.value >= -hv.tail_bound,
                   f"h({i},{j}) = {hv.value!r} below -tail_bound")
            ep = escape.get((i, j))
            if ep is not None:  # same function, built from another chain
                expect_close(f"h({i},{j}) vs escape_probability", hv.value,
                             ep.value, hv.tail_bound + ep.tail_bound + 1e-12)

    def _check_boundary(self, rec, refs, name, i, j, value):
        rec.add("harmonic_values", 1)
        rec.work += 1
        expect(math.isfinite(value) and value > 0.0,
               f"{name} boundary_harmonic({i},{j}) = {value!r} not positive")
        if name == "fibonacci":
            expect_close(f"fibonacci boundary_harmonic({i},{j}) vs closed form",
                         value, refs["fib_boundary"][i, j], 1e-10)

    @staticmethod
    def _check_on_curve(cw, dist, pairs):
        for n, (alpha, beta) in zip(range(-6, 7), pairs):
            resid = cw.kernel_eval(dist, alpha, beta)
            expect(abs(resid) <= 1e-10,
                   f"sequence_at n={n} is off the zero curve by {resid!r}")

    def _check_cli_table(self, rec, result, fib_table):
        text = check_cli(rec, "harmonic-table", result)
        rows = cli_body(text)[1:]
        expect(len(rows) == 10, f"harmonic-table printed {len(rows)} rows")
        for row in rows:
            cells = row.split(",")
            i = int(cells[0])
            values = [float(c) for c in cells[1:11]]
            rec.add("harmonic_values", len(values))
            rec.work += len(values)
            for j, v in enumerate(values, start=1):
                want = fib_table[i, j]
                expect_close(f"harmonic-table ({i},{j}) vs library", v,
                             want.value, 1e-12)
            expect(float(cells[11]) >= 0.0, "negative tail bound column")


# ------------------------------------------------------------ escape_mc


class EscapeMC:
    name = "escape_mc"
    pass_s = 5.3
    reference = NUMPY
    models = ("fibonacci", "big_jump")

    def inputs(self, seed):
        rng = random.Random(seed)
        return {
            "fib_escape": [rng.getrandbits(63) for _ in range(FIB_ESCAPE_CALLS)],
            "big_jump_escape": [rng.getrandbits(63)
                                for _ in range(BIG_JUMP_ESCAPE_CALLS)],
            "halfplane": rng.getrandbits(63),
        }

    def references(self, cw, inputs):
        refs = {}
        for name in self.models:
            dist = cw.parse_model_file(MODEL_FILES[name])
            hv = cw.escape_probability(cw.find_extrema(dist), 1, 1)
            refs[name] = (hv.value, hv.tail_bound)
        return refs

    def run_pass(self, cw, rec, inputs, refs):
        models = load_models(cw, rec, self.models)
        fib, big_jump = models.get("fibonacci"), models.get("big_jump")
        for key, dist, (n, h), name in (
            ("fib_escape", fib, FIB_ESCAPE, "fibonacci"),
            ("big_jump_escape", big_jump, BIG_JUMP_ESCAPE, "big_jump"),
        ):
            value, tail = refs[name]
            run_split(
                rec, f"{name}.estimate_escape",
                lambda seed: cw.estimate_escape(
                    dist, (1, 1), cw.SimConfig(seed=seed, n_paths=n, horizon=h)),
                inputs[key],
                lambda parts: check_survival(rec, f"{name}.escape",
                                             pooled(cw, parts), value, tail),
            )
        n, h = HALFPLANE
        cfg = cw.SimConfig(seed=inputs["halfplane"], n_paths=n, horizon=h)
        for height in (1, 2, 3):
            # the fibonacci exit root is exactly 1/2 (acceptance criterion 7)
            rec.run(
                f"fibonacci.halfplane_{height}",
                lambda: cw.estimate_halfplane_survival(fib, height, cfg),
                lambda est: check_survival(rec, f"fibonacci.halfplane_{height}",
                                           est, 1.0 - 0.5**height),
                query=True,
            )
        rec.run("cli.escape", lambda: run_cli(cw, CLI_ESCAPE),
                lambda r: self._check_cli(rec, r), query=True)

    @staticmethod
    def _check_cli(rec, result):
        text = check_cli(rec, "escape", result)
        n_paths, horizon = int(CLI_ESCAPE[-3]), int(CLI_ESCAPE[-2])
        record_paths(rec, "cli.escape", float(cli_field(text, "mc_mean")),
                     n_paths, horizon)
        rec.add("compensation.chain_terms", int(cli_field(text, "terms_used")))
        verdict = cli_field(text, "mc_verdict")
        expect(verdict == "agree", f"escape --mc-check printed {verdict!r}")


# ------------------------------------------------------------- green_mc


class GreenMC:
    name = "green_mc"
    pass_s = 7.0
    reference = NUMPY
    models = ("all_five", "fibonacci")
    GREEN_X, GREEN_Y, GREEN_U = (2, 2), (3, 3), (2.0, 1.0)
    MARTIN_X, MARTIN_YS = (2, 3), [(10, 10), (15, 15), (20, 20)]
    SCAN_X, SCAN_U, SCAN_RADII = (1, 1), (1.0, 1.0), (15, 22, 30)

    def inputs(self, seed):
        rng = random.Random(seed)
        return {
            "green": rng.getrandbits(63),
            "martin": [rng.getrandbits(63) for _ in range(MARTIN_CALLS)],
            "scan": [rng.getrandbits(63) for _ in range(SCAN_CALLS)],
        }

    def references(self, cw, inputs):
        dist = cw.parse_model_file(MODEL_FILES["all_five"])
        exact = dict(zip(dist.steps, dist.exact))
        oracles = load_oracles()
        green = {h: float(oracles.green_enum(exact, self.GREEN_X, self.GREEN_Y, h))
                 for h in (2, 4)}
        seq = cw.build_sequence(cw.find_extrema(dist), (0.0, 0.0), imin=2)
        martin = cw.harmonic_eval(seq, *self.MARTIN_X).value / cw.harmonic_eval(
            seq, 1, 1).value
        return {"green": green, "martin": martin}

    def run_pass(self, cw, rec, inputs, refs):
        models = load_models(cw, rec, self.models)
        all_five, fib = models.get("all_five"), models.get("fibonacci")
        u = self.GREEN_U
        norm = math.hypot(*u)
        twist = rec.run(
            "all_five.twist",
            lambda: cw.cramer_transform(cw.find_extrema(all_five),
                                        (u[0] / norm, u[1] / norm)),
        )
        for h in (2, 4):
            cfg = cw.SimConfig(seed=inputs["green"], n_paths=GREEN_PATHS,
                               horizon=h, twist=twist)
            rec.run(
                f"all_five.estimate_green_{h}",
                lambda: cw.estimate_green(all_five, self.GREEN_X, self.GREEN_Y, cfg),
                lambda est: self._check_green(rec, est, refs["green"][h], h),
                query=True,
            )
        run_split(
            rec, "all_five.martin_profile",
            lambda seed: cw.martin_kernel_profile(
                all_five, self.MARTIN_X, self.MARTIN_YS,
                cw.SimConfig(seed=seed, n_paths=MARTIN_PATHS)),
            inputs["martin"],
            lambda profs: self._check_martin(cw, rec, profs, refs["martin"]),
        )
        run_split(
            rec, "fibonacci.direction_scan",
            lambda seed: cw.green_direction_scan(
                fib, self.SCAN_X, self.SCAN_U, self.SCAN_RADII,
                cw.SimConfig(seed=seed, n_paths=SCAN_PATHS)),
            inputs["scan"],
            lambda scans: self._check_scan(rec, scans),
        )
        rec.run("cli.green-scan", lambda: run_cli(cw, CLI_SCAN),
                lambda r: self._check_cli(rec, r), query=True)

    def _check_green(self, rec, est, truth, h):
        record_paths(rec, f"green_{h}", est.censored_fraction, est.n_paths,
                     est.horizon)
        expect_mc(f"twisted green, horizon {h}", est.mean, est.std_error, truth)

    def _check_martin(self, cw, rec, profs, ref):
        expect(None not in profs, "a Martin profile call raised")
        # the visit engine reports the larger alive count of its two starts
        near = pooled(cw, [p[0] for p in profs])
        record_paths(rec, "martin", near.censored_fraction, near.n_paths,
                     near.horizon)
        far = pooled(cw, [p[-1] for p in profs])
        err = abs(far.mean - ref) / ref
        # acceptance criterion 9: within 10% of the series ratio at (20,20)
        expect(math.isfinite(err) and err <= 0.10,
               f"Martin ratio {far.mean!r} is {err:.3%} from series {ref!r}")

    def _check_scan(self, rec, scans):
        expect(None not in scans, "a direction scan call raised")
        x = self.SCAN_X
        values, errors = [], []
        for pts in zip(*scans):  # the calls' points at one radius
            horizon = 10 * (abs(pts[0].y[0] - x[0]) + abs(pts[0].y[1] - x[1]))
            steps = SCAN_CALLS * SCAN_PATHS * horizon
            rec.add("montecarlo.path_steps_nominal", steps)
            rec.work += steps
            value = math.fsum(p.value for p in pts) / len(pts)
            expect(math.isfinite(value) and value > 0.0,
                   f"scan value at {pts[0].y} is {value!r}")
            values.append(value)
            errors.append(math.sqrt(math.fsum(p.std_error**2 for p in pts))
                          / len(pts))
        # acceptance criterion 9's 10% stabilization between the last two
        # radii, widened by the estimates' own noise at this path count
        gap = abs(values[-1] - values[-2])
        gate = 0.10 * abs(values[-1]) + 4.0 * math.hypot(errors[-2], errors[-1])
        expect(gap <= gate, f"scan gap {gap!r} exceeds {gate!r}")

    def _check_cli(self, rec, result):
        text = check_cli(rec, "green-scan", result)
        rows = cli_body(text)[1:]
        expect(len(rows) == 2, f"green-scan printed {len(rows)} rows")
        for row in rows:
            _, value, _, n_paths, horizon, _ = row.split(",")
            rec.add("montecarlo.path_steps_nominal", int(n_paths) * int(horizon))
            rec.work += int(n_paths) * int(horizon)
            expect(float(value) > 0.0, f"green-scan value {value} not positive")


WORKLOADS = {w.name: w for w in (Series(), EscapeMC(), GreenMC())}
