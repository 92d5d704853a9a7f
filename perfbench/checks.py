"""Output checks and exact work counts for the benchmark.

A ``Recorder`` runs one operation at a time: it times the call, records
any exception as a failure instead of letting it escape, then runs the
operation's checks.  Every check that does not hold is recorded with a
message; nothing here aborts a run.  The recorder also keeps the exact,
machine-independent work counts (survivors, nominal path-steps, chain
terms, harmonic values, CLI output digests) that let runs on different
machines be compared.
"""

from __future__ import annotations

import functools
import hashlib
import math
import time
import traceback
from dataclasses import dataclass, field

# Monte Carlo estimates must fall within this many standard errors of
# their reference (plus any certified series tail bound).
MC_SIGMAS = 4.0


class CheckFailed(Exception):
    """Raised by a check function; recorded as the operation's failure."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def expect_close(name: str, got: float, want: float, tol: float) -> None:
    expect(
        math.isfinite(got) and abs(got - want) <= tol,
        f"{name}: got {got!r}, want {want!r} within {tol!r}",
    )


def expect_mc(name: str, mean: float, std_error: float, ref: float,
              slack: float = 0.0) -> None:
    """An estimate agrees with its reference within MC_SIGMAS standard
    errors plus ``slack`` (the reference's own certified error)."""
    gate = MC_SIGMAS * std_error + slack
    expect(
        math.isfinite(mean) and std_error >= 0.0 and abs(mean - ref) <= gate,
        f"{name}: estimate {mean!r} +- {std_error!r} is {abs(mean - ref)!r} "
        f"from reference {ref!r}, gate {gate!r}",
    )


def survivors(mean: float, n_paths: int) -> int:
    """Exact survivor count behind a survival-fraction estimate."""
    count = round(mean * n_paths)
    expect(
        abs(count - mean * n_paths) < 1e-6 * max(1, n_paths),
        f"survival fraction {mean!r} is not a count out of {n_paths}",
    )
    return count


@dataclass
class OpResult:
    name: str
    seconds: float
    query: bool  # counted in the per-query latency percentiles
    in_wall: bool  # counted in the workload's wall time
    ok: bool
    message: str = ""


@dataclass
class Recorder:
    """Per-pass record of operations, failures and exact work counts."""

    ops: list[OpResult] = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    work: int = 0  # the workload's throughput unit, summed over the pass
    tracer: object = None  # a trace.Tracer: each operation gets a root span
    speed: object = None  # a hostspeed.HostSpeed, sampled after each operation

    def run(self, name: str, call, check=None, query: bool = False,
            in_wall: bool = True):
        """Time ``call()``, then run ``check(result)`` outside the timed
        region.  Returns the result, or None when the call raised."""
        if self.tracer is not None:
            call = functools.partial(self.tracer.op, name, call)
        t0 = time.perf_counter()
        try:
            result = call()
        except Exception:  # an operation that raised counts as failed
            seconds = time.perf_counter() - t0
            msg = traceback.format_exc(limit=3).strip().splitlines()[-1]
            self.ops.append(
                OpResult(name, seconds, query, in_wall, False, f"raised {msg}")
            )
            return None
        seconds = time.perf_counter() - t0
        if self.speed is not None:
            self.speed.after(seconds)
        ok, message = True, ""
        if check is not None:
            try:
                check(result)
            except CheckFailed as exc:
                ok, message = False, str(exc)
            except Exception:  # a check that crashes is a failed check
                ok = False
                message = "check raised " + traceback.format_exc(
                    limit=3).strip().splitlines()[-1]
        self.ops.append(OpResult(name, seconds, query, in_wall, ok, message))
        return result

    def count(self, key: str, value) -> None:
        self.counts[key] = value

    def add(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def record_cli(self, name: str, code: int, text: str) -> None:
        data = text.encode("utf-8")
        self.count(f"cli.{name}.exit", code)
        self.count(f"cli.{name}.sha256", hashlib.sha256(data).hexdigest())
        self.add("cli.output_bytes", len(data))

    @property
    def wall(self) -> float:
        return math.fsum(op.seconds for op in self.ops if op.in_wall)

    @property
    def failures(self) -> list[OpResult]:
        return [op for op in self.ops if not op.ok]
