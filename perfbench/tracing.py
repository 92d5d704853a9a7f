"""Timing spans around the calls between cornerwalk's layers.

The tracer replaces a function with a timing wrapper in every module
namespace that holds it (``cli.find_extrema``, ``montecarlo.find_extrema``
and ``curve.find_extrema`` are one function bound under three names), so
calls from one layer into another are caught without touching the
library.  Spans are kept in memory as (name, start, end, parent) and
written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import time

# (module, attribute) -> span name.  The span name is the per-layer
# metric the span's self time is added to.
TARGETS = {
    ("model", "parse_model_file"): "model.parse",
    ("model", "validate_model"): "model.validate",
    ("curve", "find_extrema"): "curve.find_extrema",
    ("curve", "f_branch"): "curve.branch",
    ("curve", "g_branch"): "curve.branch",
    ("curve", "f_hat"): "curve.branch",
    ("curve", "g_hat"): "curve.branch",
    ("curve", "f_tilde"): "curve.branch",
    ("curve", "g_tilde"): "curve.branch",
    ("curve", "cramer_transform"): "curve.cramer_transform",
    ("compensation", "build_sequence"): "compensation.build_sequence",
    ("compensation", "escape_probability"): "compensation.escape_probability",
    ("compensation", "harmonic_eval"): "compensation.harmonic_eval",
    ("compensation", "boundary_harmonic"): "compensation.boundary_harmonic",
    ("uniformization", "compute_params"): "uniformization.compute_params",
    ("uniformization", "sequence_at"): "uniformization.sequence_at",
    ("montecarlo", "estimate_escape"): "montecarlo.estimate_escape",
    ("montecarlo", "estimate_halfplane_survival"): "montecarlo.halfplane",
    ("montecarlo", "estimate_green"): "montecarlo.estimate_green",
    ("montecarlo", "martin_kernel_profile"): "montecarlo.martin_profile",
    ("montecarlo", "green_direction_scan"): "montecarlo.direction_scan",
    ("cli", "main"): "cli.main",
}

# Root span of each benchmark operation; its self time is benchmark glue.
OP_SPAN = "trace.unattributed"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return timed

    def install(self, package) -> None:
        """Wrap every TARGETS function wherever the package binds it."""
        import importlib

        modules = [package] + [
            importlib.import_module(f"{package.__name__}.{m}")
            for m in sorted({m for m, _ in TARGETS})
        ]
        for (mod_name, attr), name in TARGETS.items():
            original = getattr(
                importlib.import_module(f"{package.__name__}.{mod_name}"), attr
            )
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._undo):
            setattr(mod, key, original)
        self._undo.clear()

    def op(self, label: str, call):
        """Run one benchmark operation under a root span."""
        return self._wrap(f"{OP_SPAN}:{label}", call)()

    def reset(self) -> list[list]:
        spans = list(self.spans)
        self.spans.clear()
        return spans


def self_times(spans) -> dict[str, tuple[float, int]]:
    """name -> (total self seconds, calls).  Self time is a span's
    duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    out: dict[str, tuple[float, int]] = {}
    for k, (name, start, end, _) in enumerate(spans):
        key = name.split(":", 1)[0]
        s, c = out.get(key, (0.0, 0))
        out[key] = (s + (end - start) - child[k], c + 1)
    return out
