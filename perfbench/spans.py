"""Span tracing for the traced benchmark passes.

The tracer wraps every public function of the six library modules in a
span, at every place the loaded package holds it by name (for example both
``tracealg.typeI_residuals`` and ``catalog.typeI_residuals``), so calls the
package makes internally are attributed to the callee. Nothing under
``src/`` is edited: the wrappers are installed on the module objects and
removed again when each traced pass ends.

A span's self time is its duration minus the time its child spans cover.
Spans are aggregated in memory per function (call count, self times, and
the number of calls that raised ``CharVarError``) over every pass the
tracer is active for; ``metrics`` turns them into the per-pass, per-layer
figures of ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time

from charvar.errors import CharVarError

MODULES = ("catalog", "tracealg", "reconstruct", "wirtinger", "mat2",
           "numfield")

#: functions reported one by one; every other public function still gets a
#: span, so its self time lands in its module's total and not in a caller's
REPORTED = (
    "catalog.explore_solve", "catalog.sample_component",
    "catalog.classify_point", "catalog.membership_residual",
    "tracealg.typeI_residuals", "tracealg.typeII_residuals",
    "tracealg.trace_equation_residuals", "tracealg.trace_vector_of",
    "tracealg.s_from_t", "tracealg.det_Sdiamond",
    "reconstruct.realize_character", "reconstruct.realize_triple",
    "reconstruct.factor_symmetric",
    "wirtinger.relators",
    "mat2.random_gt", "mat2.has_common_eigenvector",
    "mat2.is_irreducible_pair",
    "numfield.solve_poly", "numfield.solve_quadratic",
)

def metric_units() -> dict[str, tuple[str, str]]:
    """Per-layer metric name -> (unit, better), in report order."""
    out = {}
    for name in REPORTED:
        out[f"{name}.calls"] = ("count", "lower")
        out[f"{name}.self_us_p50"] = ("us", "lower")
    out["reconstruct.realize_character.errors"] = ("count", "lower")
    for mod in MODULES:
        out[f"{mod}.self_s"] = ("s", "lower")
    out["unattributed_s"] = ("s", "lower")
    out["trace_overhead_frac"] = ("frac", "lower")
    return out


class Tracer:
    """Context manager that installs span wrappers while it is active."""

    def __init__(self):
        self.self_us: dict[str, list[float]] = {}
        self.errors: dict[str, int] = {}
        self._open: list[float] = []  # child time of each open span
        self._patches: list[tuple[object, str, object]] = []

    def exclude(self, duration: float) -> None:
        """Take `duration` seconds, spent by the benchmark inside the open
        span (a host-speed sample), out of that span's self time."""
        if self._open:
            self._open[-1] += duration

    def _wrap(self, name: str, fn):
        times = self.self_us.setdefault(name, [])
        self.errors.setdefault(name, 0)
        open_spans = self._open
        errors = self.errors
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            except CharVarError:
                errors[name] += 1
                raise
            finally:
                dur = clock() - start
                times.append((dur - open_spans.pop()) * 1e6)
                if open_spans:
                    open_spans[-1] += dur

        return span

    def __enter__(self):
        wrappers = {}
        for mod in MODULES:
            module = importlib.import_module(f"charvar.{mod}")
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{mod}.{attr}", obj))
        for modname, module in list(sys.modules.items()):
            if modname != "charvar" and not modname.startswith("charvar."):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._patches.append((module, attr, obj))
        return self

    def __exit__(self, *exc):
        for module, attr, obj in reversed(self._patches):
            setattr(module, attr, obj)
        self._patches.clear()
        return False

    def metrics(self, passes: int, wall_s: float,
                overhead_frac: float) -> dict[str, float]:
        """Per-layer figures, per pass, for `passes` traced passes that took
        wall_s seconds in all, host-speed samples excluded."""
        out: dict[str, float] = {}
        for name in REPORTED:
            times = self.self_us.get(name, [])
            out[f"{name}.calls"] = len(times) / passes
            out[f"{name}.self_us_p50"] = (statistics.median(times)
                                          if times else 0.0)
        out["reconstruct.realize_character.errors"] = self.errors.get(
            "reconstruct.realize_character", 0) / passes
        module_s = {mod: 0.0 for mod in MODULES}
        for name, times in self.self_us.items():
            module_s[name.split(".")[0]] += sum(times) / 1e6 / passes
        for mod in MODULES:
            out[f"{mod}.self_s"] = module_s[mod]
        out["unattributed_s"] = wall_s / passes - sum(module_s.values())
        out["trace_overhead_frac"] = overhead_frac
        return out
