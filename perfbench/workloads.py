"""The three benchmark workloads and their correctness gates.

Each workload is a generator: ``workload(seed, tally)`` draws its inputs
from ``numpy.random.default_rng(seed)``, calls the library's public
functions with their default arguments, checks every output, records what
happened in ``tally`` and yields after each unit of work (one probe call,
one verify round, one batch of identity quadruples). A pass is the first
``PASS_UNITS[name]`` units; ``run_pass`` times each of them, and a second
pass with the same seed repeats exactly the same work.

The gate thresholds are the ones the ``charvar`` CLI and the acceptance
tests already use; they are repeated here, not imported, because the
library's private helpers that hold some of them are due to be removed.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from charvar import catalog, mat2, reconstruct, tracealg, wirtinger
from charvar.errors import CharVarError, ExcludedParameter

ATTEMPTS = 200            # charvar explore --attempts default, criterion 11
PROBE_RADIUS = 2.5        # criterion 11 draws t from the disc |t| <= 2.5 ...
PROBE_MARGIN = catalog.SAMPLER_MARGIN + 1e-3  # ... with 1e-3 extra margin
MEMBERSHIP_TOL = 1e-6     # criterion 11: largest residual of a kept label
TYPEI_RECHECK_TOL = 1e-6  # criterion 11: re-check of unclassified points
CLASSIFIED_MIN = 0.95     # criterion 11: classified share of irreducibles
VERIFY_HALF_WIDTH = 2.5   # charvar verify: |Re t|, |Im t| <= 2.5
TRACE_EQ_TOL = 1e-8       # charvar verify trace-equation gate
CENSUS_TOTAL = 26         # charvar parabolic: classes at t = 2
IDENTITY_RADIUS = 3.0     # charvar identities: |t| <= 3
IDENTITY_TOL = 1e-8       # charvar identities: every residual
IDENTITY_BATCH = 50       # quadruples per unit of the identities workload
FAULT = 1e-3              # size of an injected fault (charvar --inject-fault)

#: probe t values: the first three points k * (1/g, 1/g^2) mod 1 of the R2
#: low-discrepancy sequence (g the plastic number), mapped by equal area
#: onto the quarter disc |t| <= PROBE_RADIUS, 0 <= arg t < pi/2
PROBE_PANEL = (1.3585 + 1.6948j, 1.7421 + 0.3885j, 0.5667 + 1.1545j)


@dataclass
class Tally:
    """What one pass over a workload did.

    attempted  operations started (probe: Newton starts; verify: characters;
               identities: quadruples)
    produced   operations that yielded an output to check (probe: converged
               starts; verify: characters realized)
    checked    outputs held against a per-operation gate (probe: converged
               irreducible points)
    passed     outputs that met it (probe: classified points)
    failed     operations counted as failed; fail_frac = failed / attempted
    broken     a gate that makes the whole run incorrect failed
    op_ms      wall time of each timed operation, in ms, in order
    clock      the clock op_ms and run_pass read (seconds)
    """

    attempted: int = 0
    produced: int = 0
    checked: int = 0
    passed: int = 0
    failed: int = 0
    broken: bool = False
    min_pass_frac: float = 0.0
    op_ms: list[float] = field(default_factory=list)
    clock: Callable[[], float] = field(default=time.perf_counter,
                                       compare=False, repr=False)

    def counts(self) -> tuple:
        """Everything but the timings; equal for two passes of one seed."""
        return (self.attempted, self.produced, self.checked, self.passed,
                self.failed, self.broken)

    @property
    def correct(self) -> bool:
        return (not self.broken
                and self.passed >= self.min_pass_frac * self.checked)


def run_pass(name: str, seed, tally: Tally, units: int | None = None,
             **kwargs) -> list[float]:
    """One pass of workload `name`: its first `units` units (by default
    PASS_UNITS[name]). Returns the time of each unit by `tally.clock`,
    in s."""
    times = []
    work = WORKLOADS[name](seed, tally, **kwargs)
    last = tally.clock()
    for _ in itertools.islice(work, units or PASS_UNITS[name]):
        now = tally.clock()
        times.append(now - last)
        last = now
    work.close()
    return times


def _admissible(t: complex, margin: float = catalog.SAMPLER_MARGIN) -> bool:
    try:
        for cid in catalog.COMPONENTS:
            catalog.check_admissible(cid, t, margin)
    except ExcludedParameter:
        return False
    return True


def _worst(values) -> float:
    return max(abs(x) for x in values)


# ---------------------------------------------------------------------------
# probe: the random-start Newton completeness probe

def probe_points(rng):
    """PROBE_PANEL, each point replaced by a seeded symmetric image.

    The cost of a probe call depends strongly on t (2 to 6 s at 200
    starts), so t values drawn afresh for each seed would make a run of a
    few calls too unequal to compare commits. The seed picks the sign of
    each panel point's real and imaginary part instead: the variety is
    symmetric under t -> -t (x_i -> -x_i) and t -> conj(t), so the images
    have the same cost landscape.
    """
    for t in PROBE_PANEL:
        re_sign, im_sign = rng.choice((-1, 1), 2)
        yield complex(re_sign * t.real, im_sign * t.imag)


def probe(seed, tally: Tally, fault: bool = False, attempts: int = ATTEMPTS):
    """explore_solve at each panel point; one call is one unit.

    Gate (criterion 11): at least CLASSIFIED_MIN of the converged irreducible
    points carry a component label whose membership residual is within
    MEMBERSHIP_TOL, and no unclassified point passes the type I re-check.
    Every converged irreducible point that is not classified is a failed
    start. op_ms is the call's wall time per start.
    """
    tally.min_pass_frac = CLASSIFIED_MIN
    rng = np.random.default_rng(seed)
    for t in probe_points(rng):
        call_seed = int(rng.integers(2 ** 31))
        start = tally.clock()
        found = catalog.explore_solve(t, call_seed, attempts)
        tally.op_ms.append((tally.clock() - start) * 1e3 / attempts)
        if fault:  # negative control: mislabel one exact catalog point
            k = next(i for i, (_, lab) in enumerate(found)
                     if lab in catalog.COMPONENTS)
            found[k] = (found[k][0], "unclassified")
            fault = False
        tally.attempted += attempts
        tally.produced += len(found)
        for v, label in found:
            if label == "reducible":
                continue
            tally.checked += 1
            if label in catalog.COMPONENTS and _worst(
                    catalog.membership_residual(label, v).values()) \
                    <= MEMBERSHIP_TOL:
                tally.passed += 1
                continue
            tally.failed += 1
            if label == "unclassified" and _worst(tracealg.typeI_residuals(
                    tracealg.s_from_t(v), normalized=True)) \
                    <= TYPEI_RECHECK_TOL:
                tally.broken = True
        yield


# ---------------------------------------------------------------------------
# verify: sample -> realize -> relators -> trace equations

def verify_points(rng):
    """Admissible t drawn as `charvar verify` draws them: uniform on the
    square |Re t|, |Im t| <= VERIFY_HALF_WIDTH, default sampler margin."""
    while True:
        t = complex(*rng.uniform(-VERIFY_HALF_WIDTH, VERIFY_HALF_WIDTH, 2))
        if _admissible(t):
            yield t


def verify_character(v, tally: Tally, fault: bool = False) -> None:
    """The `charvar verify` pipeline on one character, timed as one op.

    A relator spread above `is_representation`'s default tolerance (1e-7,
    the `charvar verify --tol` default) fails the character but leaves the
    run correct: that is the known corner defect of NOTES.md, reported
    through `failed` and `pass_frac`. A realization that raises, or whose
    trace equations miss TRACE_EQ_TOL, fails the character and the run.
    """
    start = tally.clock()
    tally.attempted += 1
    tally.checked += 1
    try:
        q = reconstruct.realize_character(v)
        if fault:  # negative control: perturb the realized x1
            q = dataclasses.replace(q, x1=q.x1 + mat2.Mat2(0, FAULT, 0, 0))
        rep_ok, _ = wirtinger.is_representation(q)
        w = tracealg.trace_vector_of(*q.matrices())
        teq = _worst(tracealg.trace_equation_residuals(w, normalized=True))
    except CharVarError:
        tally.failed += 1
        tally.broken = True
    else:
        tally.produced += 1
        if teq > TRACE_EQ_TOL:
            tally.broken = True
        if rep_ok and teq <= TRACE_EQ_TOL:
            tally.passed += 1
        else:
            tally.failed += 1
    tally.op_ms.append((tally.clock() - start) * 1e3)


def verify(seed, tally: Tally, fault: bool = False):
    """One unit: every branch of all ten components at a random t, then the
    t = 2 census (which must have CENSUS_TOTAL classes) and its classes."""
    rng = np.random.default_rng(seed)
    for t in verify_points(rng):
        for cid in catalog.COMPONENTS:
            for smp in catalog.sample_component(cid, t):
                verify_character(smp.vector, tally, fault)
                fault = False
        census = catalog.enumerate_parabolic()
        if census.total != CENSUS_TOTAL:
            tally.broken = True
        for smp in census.samples:
            verify_character(smp.vector, tally)
        yield


# ---------------------------------------------------------------------------
# identities: universal-identity battery on random G(t) quadruples

def identity_points(rng):
    """t uniform on the disc |t| <= IDENTITY_RADIUS, as `charvar identities`
    draws it (rejection from the square)."""
    while True:
        t = complex(*rng.uniform(-IDENTITY_RADIUS, IDENTITY_RADIUS, 2))
        if abs(t) <= IDENTITY_RADIUS:
            yield t


def identity_quadruple(rng, t: complex, tally: Tally,
                       fault: bool = False) -> None:
    """The `charvar identities` battery on one random quadruple, timed as
    one op. Every residual must be within IDENTITY_TOL and the trace
    criterion for irreducibility must agree with the eigenvector oracle."""
    start = tally.clock()
    xs = [mat2.random_gt(rng, t) for _ in range(4)]
    v = tracealg.trace_vector_of(*xs)
    s = tracealg.s_from_t(v)
    if fault:  # negative control, as charvar identities --inject-fault
        s = dataclasses.replace(s, s12=s.s12 + FAULT)
    sc = max(1.0, max(x.norm() for x in xs) ** 2)
    u0, u1 = xs[0].traceless_part(), xs[1].traceless_part()
    worst = max(
        _worst(tracealg.typeI_residuals(s, normalized=True)),
        _worst(tracealg.typeII_residuals(s, normalized=True)),
        abs(tracealg.det_Sdiamond(s, normalized=True)),
        mat2.ch_residual(xs[0], t).norm() / sc,
        mat2.xyx_expand(xs[0], xs[1], t).norm() / sc ** 2,
        mat2.anticommutator_residual(u0, u1).norm() / sc)
    crit = mat2.is_irreducible_pair(xs[0], xs[1], t)
    oracle = not mat2.has_common_eigenvector([xs[0], xs[1]])
    tally.attempted += 1
    tally.produced += 1
    tally.checked += 1
    if worst <= IDENTITY_TOL and crit == oracle:
        tally.passed += 1
    else:
        tally.failed += 1
        tally.broken = True
    tally.op_ms.append((tally.clock() - start) * 1e3)


def identities(seed, tally: Tally, fault: bool = False):
    """IDENTITY_BATCH quadruples per unit."""
    rng = np.random.default_rng(seed)
    points = identity_points(rng)
    while True:
        for _ in range(IDENTITY_BATCH):
            identity_quadruple(rng, next(points), tally, fault)
            fault = False
        yield


WORKLOADS = {"probe": probe, "verify": verify, "identities": identities}

#: units per pass. A verify pass draws 150 t values, so it meets the known
#: corner defect about twice on average.
PASS_UNITS = {"probe": len(PROBE_PANEL), "verify": 150, "identities": 150}
