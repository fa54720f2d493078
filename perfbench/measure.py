"""Measurement behind ``run.py``: end-to-end and per-layer metrics.

A run repeats one pass of work, drawn from the seed, while another pass
still fits in ``--seconds`` (at least MIN_PASSES passes, or one pair of
passes when tracing). Every pass does exactly the same work, so the counts
are those of one pass and every later pass must repeat them. Each pass's
time is turned into a cost in reference computations by ``HostSpeed``,
which cancels the speed spells of a shared host; the median cost times the
reference time REFERENCE_S is a pass's time at the reference speed.

End-to-end metrics come from untraced passes. The per-layer metrics come
from a separate run that alternates an untraced and a traced pass; the
ratio of their median costs gives ``trace_overhead_frac``.
"""

from __future__ import annotations

import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from hostspeed import REFERENCE_S, HostSpeed
from spans import Tracer, metric_units
from workloads import Tally, run_pass

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
MIN_PASSES = 2
SETUP_IMPORTS_PER_PASS = 3

#: end-to-end metric -> (unit, its name on each workload, as in NOTES.md)
END_TO_END = {
    "ops_per_s": ("1/s", {"probe": "attempts_per_s", "verify": "chars_per_s",
                          "identities": "quads_per_s"}),
    "yield_frac": ("frac", {"probe": "converged_frac",
                            "verify": "realized_frac",
                            "identities": "evaluated_frac"}),
    "pass_frac": ("frac", {"probe": "classified_frac", "verify": "pass_frac",
                           "identities": "pass_frac"}),
}
#: printed, not bounded: one op's latency on each workload as
#: (op name, unit, unit per ms)
OP_LATENCY = {"probe": ("attempt", "ms", 1.0), "verify": ("char", "ms", 1.0),
              "identities": ("quad", "us", 1e3)}


def import_times(n: int) -> list[float]:
    """Time of `import charvar` in each of n fresh interpreters, in s at the
    reference speed. numpy, a dependency whose import charvar cannot
    change, and the sampler are imported first, untimed (see NOTES.md)."""
    code = ("import sys; sys.path[:0] = sys.argv[1:]; "
            "import numpy, hostspeed; "
            "print(hostspeed.timed_import('charvar'))")
    out = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, "-c", code, str(SRC), str(BENCH_DIR)],
            check=True, capture_output=True, text=True, timeout=120)
        out.append(float(proc.stdout))
    return out


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "nproc": len(os.sched_getaffinity(0)), "seed": seed}


def _another_pass_fits(start: float, passes: int, seconds: float,
                       min_passes: int = MIN_PASSES) -> bool:
    elapsed = time.perf_counter() - start
    return passes < min_passes or elapsed * (passes + 1) / passes <= seconds


def _timed_pass(name: str, seed: int, speed: HostSpeed, first: Tally | None):
    """One pass under `speed`; returns (tally, unit times, cost). Every pass
    of a run repeats the first one's work, so its counts must repeat too:
    if they do not, the first pass's tally is marked broken."""
    tally = Tally(clock=speed.clock)
    with speed:
        unit_s = run_pass(name, seed, tally)
    if first is not None and first.counts() != tally.counts():
        first.broken = True
    return tally, unit_s, speed.cost(sum(unit_s))


def end_to_end(name: str, seed: int, seconds: float):
    """Untraced passes; returns (tally, {metric: (value, unit)}, lines).

    The counts are those of one pass. After each pass the run times
    SETUP_IMPORTS_PER_PASS fresh imports.
    """
    speed = HostSpeed()
    first, unit_s, costs, op_ms, setup_s = None, [], [], [], []
    start = time.perf_counter()
    while _another_pass_fits(start, len(unit_s), seconds):
        tally, units, cost = _timed_pass(name, seed, speed, first)
        first = first or tally
        unit_s.append(units)
        costs.append(cost)
        op_ms.append(tally.op_ms)
        setup_s += import_times(SETUP_IMPORTS_PER_PASS)
    pass_s = statistics.median(costs) * REFERENCE_S
    op_ms = np.min(op_ms, axis=0)
    values = {
        "ops_per_s": first.attempted / pass_s,
        "yield_frac": first.produced / first.attempted,
        "pass_frac": first.passed / max(first.checked, 1),
    }
    metrics = {k: (v, END_TO_END[k][0]) for k, v in values.items()}
    metrics["setup_s"] = (statistics.median(setup_s), "s")
    op, op_unit, per_ms = OP_LATENCY[name]
    p50, p90 = np.percentile(op_ms, (50, 90)) * per_ms
    lines = [f"{name}: {len(unit_s)} passes of {len(unit_s[0])} units and "
             f"{first.attempted} ops, pass time "
             + "/".join(f"{sum(p):.3f}" for p in unit_s)
             + " s, cost " + "/".join(f"{c:.0f}" for c in costs)
             + f" references, fastest reference {speed.fastest_s * 1e6:.1f}"
             f" us; pass time at the reference speed {pass_s:.3f} s, "
             f"{first.attempted / statistics.median(map(sum, unit_s)):.6g} "
             "ops/s unscaled"]
    lines += [f"{name}.{names[name]} = {values[k]:.6g} {unit}"
              for k, (unit, names) in END_TO_END.items()]
    lines += [f"{name}.{op}_p{q}_{op_unit} = {val:.6g} {op_unit} "
              f"({len(op_ms)} ops)" for q, val in ((50, p50), (90, p90))]
    lines += [f"{name}.fail_frac = {first.failed / first.attempted:.6g} frac "
              f"({first.failed} of {first.attempted})",
              f"setup_s = {metrics['setup_s'][0]:.6g} s "
              f"(median of {len(setup_s)} fresh imports, at the reference "
              "speed)"]
    return first, metrics, lines


def per_layer(name: str, seed: int, seconds: float):
    """Alternating untraced and traced passes; returns
    (tally, {metric: (value, unit)}, lines). The counts are those of one
    pass, which every other pass, traced or not, must repeat."""
    tracer = Tracer()
    speed = HostSpeed(on_sample=tracer.exclude)
    first, plain_costs, traced_costs, traced_s = None, [], [], 0.0
    start = time.perf_counter()
    while _another_pass_fits(start, len(plain_costs), seconds, 1):
        tally, _, cost = _timed_pass(name, seed, speed, first)
        first = first or tally
        plain_costs.append(cost)
        with tracer:
            _, units, cost = _timed_pass(name, seed, speed, first)
        traced_costs.append(cost)
        traced_s += sum(units)
    overhead = statistics.median(traced_costs) / statistics.median(
        plain_costs) - 1
    values = tracer.metrics(len(traced_costs), traced_s, overhead)
    metrics = {k: (values[k], unit) for k, (unit, _) in metric_units().items()}
    lines = [f"{name}: {len(plain_costs)} untraced and {len(traced_costs)} "
             f"traced passes, median cost {statistics.median(plain_costs):.0f}"
             f" references untraced, {statistics.median(traced_costs):.0f} "
             "traced"]
    lines += [f"{name}.{k} = {v:.6g} {unit}"
              for k, (v, unit) in metrics.items()]
    return first, metrics, lines


def run(names, seed: int, seconds: float, trace: bool, out) -> dict:
    """Run each named workload and return the result object. With more than
    one workload, workload metrics are prefixed with the workload's name."""
    print(f"env {environment(seed)} seconds={seconds} trace={int(trace)}",
          file=out)
    correct, attempted, failed = True, 0, 0
    metrics = {}
    for name in names:
        tally, found, lines = (per_layer if trace else end_to_end)(
            name, seed, seconds)
        print("\n".join(lines), file=out, flush=True)
        correct = correct and tally.correct
        attempted += tally.attempted
        failed += tally.failed
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in found.items()})
    if not trace:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics["peak_rss_mb"] = (rss_mb, "MB")
        print(f"peak_rss_mb = {rss_mb:.6g} MB", file=out)
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}
