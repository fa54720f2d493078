"""charvar benchmark: one workload per run, one JSON result line.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload probe --seed 0 --seconds 30 --trace 0

Workloads are ``probe``, ``verify`` and ``identities`` (see NOTES.md), or
``all`` to run the three in turn with workload-prefixed metric names. The
library is imported from ``src/`` of the checkout; nothing is installed.
With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it measures the per-layer metrics instead.

Every line but the last describes the run for a reader: environment and
seed, then each metric under its workload-specific name, with its unit and
sample count. The last line is the result object
``{"correct", "attempted", "failed", "metrics"}``. The exit code is 0 when
the run completed, whatever its gates found, and 2 when the sources are
missing or the arguments are bad.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# one single-threaded process: keep BLAS from starting worker threads
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("probe", "verify", "identities", "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (SRC / "charvar" / "__init__.py").is_file():
        print(f"error: no charvar sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import measure  # imports charvar, so only once the sources are on the path

    names = (("probe", "verify", "identities") if args.workload == "all"
             else (args.workload,))
    result = measure.run(names, args.seed, args.seconds, bool(args.trace),
                         out=sys.stdout)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
