"""Counts of the Newton probe's work and stop rules on fixed calls.

Run from the repository root:

    python tests/probe_audit.py                 # the panel calls of seed 0
    python tests/probe_audit.py --seeds 0 1 2   # those of seeds 0, 1 and 2

The calls are the probe benchmark's (perfbench/workloads.py): for each
seed, the three panel images at 200 starts with their seeded call seeds.
Every figure printed is deterministic, so two trees can be compared by
their output alone:
- the Newton rows (system rows built) and iterations of each call;
- how each start ended: root, stall, sample (a catalog sample), abelian
  (the abelian character), wander, settle, cap or diverged;
- the closest that a converged start came to each rule that gives a start
  up: its smallest cos theta (see _probe_kernel._augmented_steps) above
  _WANDER_RES, its last iteration above _WANDER_RES, its most
  iterations, and its largest coordinate modulus.

Each start is also run alone, with the loop's helpers wrapped to record
its residuals, cos theta and coordinates; the loop's iterates do not
depend on the rows run beside them, so this is how the batched call ran
it. Which rule ended a start is read off that record in the order
_newton_starts tests the rules. The script exits 1 if the starts run alone
build other than the rows of the batched calls, and 0 otherwise.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

from charvar import _probe_kernel as pk  # noqa: E402
from charvar import catalog  # noqa: E402
from workloads import ATTEMPTS, probe_points  # noqa: E402

RULES = ("root", "stall", "sample", "abelian", "wander", "settle", "cap",
         "diverged")


def panel_calls(seeds):
    """The probe benchmark's explore_solve calls for each seed."""
    out = []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        for t in probe_points(rng):
            out.append((t, int(rng.integers(2 ** 31)), ATTEMPTS))
    return out


class _Recorder:
    """Wraps the loop's system build, residual and step solve while in
    use: counts the rows and calls of the system build, keeps the last
    arguments of _newton_starts, and records what each call saw."""

    def __init__(self):
        self.rows = self.calls = 0
        self.y, self.fmax, self.keep, self.steps, self.cos = [], [], [], [], []
        self.newton_args = None

    def __enter__(self):
        self._saved = (pk._ProbeSystem.__call__, pk._max_residual,
                       pk._augmented_steps, pk._newton_starts)
        build, fmax, solve, newton = self._saved

        def built(system, y):
            self.rows += len(y)
            self.calls += 1
            self.y.append(y.copy())
            return build(system, y)

        def residual(aug):
            self.fmax.append(fmax(aug))
            return self.fmax[-1]

        def solved(aug, keep):
            steps, cos = solve(aug, keep)
            self.keep.append(keep.copy())
            self.steps.append(steps)
            self.cos.append(cos)
            return steps, cos

        def loop(t, y, samples):
            self.newton_args = (t, y.copy(), samples)
            return newton(t, y, samples)

        pk._ProbeSystem.__call__ = built
        pk._max_residual, pk._augmented_steps = residual, solved
        pk._newton_starts = loop
        return self

    def __exit__(self, *exc):
        (pk._ProbeSystem.__call__, pk._max_residual, pk._augmented_steps,
         pk._newton_starts) = self._saved


def _ending(rec, on, abelian):
    """The rule that ended a start run alone, from its record, in the
    order _newton_starts tests the rules."""
    f = float(rec.fmax[-1][0])
    if not rec.keep[-1][0]:              # stopped before its last step
        if f <= pk._ROOT_TOL:
            return "root"
        return "stall" if f <= pk._STALL_TOL else "wander"
    moved = rec.y[-1][0] + rec.steps[-1][0]
    with np.errstate(invalid="ignore"):
        if not (np.isfinite(moved).all()
                and np.abs(moved).max() <= pk._DIVERGED):
            return "diverged"
    if f > pk._WANDER_RES and rec.cos[-1][0] <= pk._SETTLE_COS:
        return "settle"
    if len(rec.fmax) == pk._NEWTON_ITERS:
        return "cap"
    if on < 0:
        raise AssertionError("a start ended by no rule")
    return "abelian" if on == abelian else "sample"


def audit(calls):
    """Per call: the call, the rows and iterations of the batched call,
    and the rows its starts built alone; the stop counts over all calls;
    and the closest that a converged start came to each give-up rule."""
    per_call, stops = [], dict.fromkeys(RULES, 0)
    near = {"cos": np.inf, "wander_iter": -1, "iters": 0, "ymax": 0.0}
    for call in calls:
        with _Recorder() as rec:
            catalog.explore_solve(*call)
        t, starts, samples = rec.newton_args
        alone_rows = 0
        for k in range(len(starts)):
            with _Recorder() as one:
                _, ok, on = pk._newton_starts(t, starts[k:k + 1].copy(),
                                              samples)
            alone_rows += one.rows
            stops[_ending(one, int(on[0]), len(samples) - 1)] += 1
            if not ok[0]:
                continue
            f = np.array([x[0] for x in one.fmax])
            above = np.flatnonzero(f > pk._WANDER_RES)
            for i in above:
                if one.keep[i][0]:
                    near["cos"] = min(near["cos"], float(one.cos[i][0]))
            if above.size:
                near["wander_iter"] = max(near["wander_iter"], int(above[-1]))
            near["iters"] = max(near["iters"], len(f))
            near["ymax"] = max(near["ymax"],
                               max(float(np.abs(y).max()) for y in one.y))
        per_call.append((call, rec.rows, rec.calls, alone_rows))
    return per_call, stops, near


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[0],
                    help="probe benchmark seeds whose panel calls to run")
    args = ap.parse_args(argv)
    per_call, stops, near = audit(panel_calls(args.seeds))
    mismatch = False
    for (t, seed, attempts), rows, iters, alone in per_call:
        print(f"call t={t:.4f} seed={seed} attempts={attempts}: "
              f"rows {rows} iterations {iters}")
        mismatch |= rows != alone
    print(f"total: rows {sum(r for _, r, _, _ in per_call)} iterations "
          f"{sum(i for _, _, i, _ in per_call)}")
    print("stops: " + " ".join(f"{r} {stops[r]}" for r in RULES))
    print("closest converged start: "
          f"cos theta above _WANDER_RES {near['cos']:.3g} "
          f"({near['cos'] / pk._SETTLE_COS:.3g} x _SETTLE_COS); "
          f"last iteration above _WANDER_RES {near['wander_iter']} "
          f"(_WANDER_ITER {pk._WANDER_ITER}); iterations {near['iters']} "
          f"(_NEWTON_ITERS {pk._NEWTON_ITERS}); max |y| {near['ymax']:.3g} "
          f"(_DIVERGED {pk._DIVERGED:.0e})")
    if mismatch:
        print("error: starts run alone built other rows than their calls",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
