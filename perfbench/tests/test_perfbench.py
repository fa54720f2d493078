"""Tests of the benchmark itself: a tiny smoke run that must emit every
metric BENCHMARK.json names, with its unit; a negative control per workload
showing that its gate counts an injected fault as failed; and the contract
of the command line.

Run from the root of the checkout:

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import functools
import io
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import measure  # noqa: E402
import workloads  # noqa: E402
from charvar import catalog, tracealg  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from spans import Tracer, metric_units  # noqa: E402
from workloads import Tally, run_pass  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
TINY_ATTEMPTS = 12


@pytest.fixture
def tiny(monkeypatch):
    """Passes of one or two units, probe calls of a handful of starts."""
    monkeypatch.setitem(workloads.WORKLOADS, "probe",
                        functools.partial(workloads.probe,
                                          attempts=TINY_ATTEMPTS))
    monkeypatch.setattr(workloads, "PASS_UNITS",
                        {"probe": 1, "verify": 1, "identities": 2})


def _units(section):
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_smoke_emits_every_metric_with_unit(name, trace, tiny):
    out = io.StringIO()
    result = measure.run((name,), seed=0, seconds=0.05, trace=trace, out=out)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    want = _units("per_layer" if trace else "end_to_end")
    got = {k: m["unit"] for k, m in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], (int, float))
               for m in result["metrics"].values())
    if not trace:
        text = out.getvalue()
        for unit, names in measure.END_TO_END.values():
            assert f"{name}.{names[name]} = " in text
        op, unit, _ = measure.OP_LATENCY[name]
        for key in (f"{op}_p50_{unit}", f"{op}_p90_{unit}", "fail_frac"):
            assert f"{name}.{key} = " in text


def test_metric_table_matches_spec():
    assert {k: u for k, (u, _) in metric_units().items()} == \
        _units("per_layer")
    assert {m["name"]: m["better"] for m in SPEC["per_layer"]} == \
        {k: b for k, (_, b) in metric_units().items()}


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_injected_fault_counts_as_failed(name, tiny):
    clean, faulty = Tally(), Tally()
    run_pass(name, 0, clean, units=1)
    run_pass(name, 0, faulty, units=1, fault=True)
    assert clean.failed == 0 and clean.correct
    assert faulty.failed >= 1
    assert not faulty.correct


def test_same_seed_same_inputs():
    first, second = Tally(), Tally()
    assert len(run_pass("identities", 5, first, units=2)) == 2
    run_pass("identities", 5, second, units=2)
    assert first == dataclasses.replace(second, op_ms=first.op_ms)
    assert first.attempted == 2 * workloads.IDENTITY_BATCH
    points = [list(workloads.probe_points(np.random.default_rng(3)))
              for _ in range(2)]
    assert points[0] == points[1]
    assert [abs(t) for t in points[0]] == [abs(t) for t in
                                           workloads.PROBE_PANEL]


def test_counts_are_those_of_one_pass(tiny):
    one = Tally()
    run_pass("identities", 4, one)
    result = measure.run(("identities",), seed=4, seconds=0.05, trace=False,
                         out=io.StringIO())
    assert (result["attempted"], result["failed"]) == \
        (one.attempted, one.failed)


def test_a_pass_that_does_not_repeat_the_first_breaks_the_run(tiny):
    first = Tally(attempted=1)
    measure._timed_pass("identities", 4, HostSpeed(), first)
    assert not first.correct


def test_host_speed_samples_excludes_them_and_restores():
    previous = signal.getsignal(signal.SIGALRM)
    seen = []
    speed = HostSpeed(on_sample=seen.append)
    with speed:
        start, end = speed.clock(), time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
        net = speed.clock() - start
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(seen) >= 3 and seen == speed.samples
    assert net < 0.1 - sum(seen[1:]) + 1e-3
    assert speed.cost(net) > 0 and speed.fastest_s == min(seen)


def test_probe_panel_is_admissible_and_spread():
    panel = workloads.PROBE_PANEL
    for t in panel:
        assert abs(t) <= workloads.PROBE_RADIUS
        for cid in catalog.COMPONENTS:
            catalog.check_admissible(cid, t, workloads.PROBE_MARGIN)
    assert len({round(abs(t), 3) for t in panel}) == len(panel)


def test_tracer_attributes_calls_inside_the_package_and_restores():
    original = catalog.typeI_residuals
    smp = catalog.sample_component("X3", 1.3 + 0.2j)[0]
    with Tracer() as tracer:
        assert catalog.typeI_residuals is not original
        label = catalog.classify_point(smp.vector)
    assert label == "X3"
    assert catalog.typeI_residuals is original
    assert tracealg.typeI_residuals is original
    m = tracer.metrics(passes=1, wall_s=1.0, overhead_frac=0.0)
    assert m["catalog.classify_point.calls"] == 1
    assert m["tracealg.typeI_residuals.calls"] == 1
    assert m["catalog.membership_residual.calls"] == len(catalog.COMPONENTS)
    assert m["catalog.self_s"] > 0


def _run_cli(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170)


def test_cli_prints_result_as_last_line():
    proc = _run_cli(ROOT, "--workload", "identities", "--seed", "1",
                    "--seconds", "0.2", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == set(_units("end_to_end"))


def test_cli_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_cli(tmp_path, "--workload", "verify", "--seed", "0",
                    "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
