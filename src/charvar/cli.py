"""Batch command-line interface emitting JSON/CSV verification reports.

Subcommands: catalog, verify, parabolic, identities, explore. Exit codes:
0 all checks passed, 1 a verification failed, 2 bad parameters or usage.
Reports are byte-stable for fixed flags and seed; wall time goes to stderr
only.
"""

from __future__ import annotations

import argparse
import cmath
import csv
import dataclasses
import io
import json
import sys
import time

import numpy as np

from . import catalog, wirtinger
from .errors import CharVarError, ExcludedParameter
from .mat2 import (_worst, anticommutator_residual, ch_residual,
                   has_common_eigenvector, is_irreducible_pair, random_gt,
                   xyx_expand)
from .reconstruct import realize_character
from .tracealg import (det_Sdiamond, s_from_t, trace_vector_of,
                       typeI_residuals, typeII_residuals)

def parse_complex(text: str) -> complex:
    """Parse "a+bi" with either part optional ("3", "2-1i", "i", "-0.5j")."""
    try:
        z = complex(text.strip().replace("i", "j"))
    except ValueError:
        raise ValueError(f"cannot parse complex number {text!r}") from None
    if not cmath.isfinite(z):
        raise ValueError(f"non-finite value {text!r}")
    return z


def _count(text: str) -> int:
    """argparse type of --n, --samples, --attempts, --seed: an int >= 0."""
    try:
        n = int(text)
    except ValueError:
        n = -1
    if n < 0:
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 0, got {text!r}")
    return n


def _fmt_complex(z: complex) -> str:
    return f"{z.real:+.17g}{z.imag:+.17g}i"


def _emit(payload, args, csv_rows=None) -> None:
    if args.format == "json":
        text = json.dumps(payload, indent=2, sort_keys=False) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        for row in csv_rows or []:
            writer.writerow(row)
        text = buf.getvalue()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"cannot write report to {args.out!r}: "
                             f"{exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _sample_rows(samples):
    rows = [["id", "branch", "param", "value_re", "value_im", "max_residual"]]
    for smp in samples:
        worst = _worst(smp.residuals().values())
        for name, z in smp.params.items():
            rows.append([smp.id, smp.branch, name, repr(z.real), repr(z.imag),
                         repr(worst)])
    return rows


def cmd_catalog(args) -> int:
    ids = [args.component] if args.component else list(catalog.COMPONENTS)
    samples = []
    for cid in ids:
        samples.extend(catalog.sample_component(cid, args.t))
    payload = {"command": "catalog", "t": _fmt_complex(args.t),
               "count": len(samples),
               "samples": [s.to_json() for s in samples]}
    _emit(payload, args, _sample_rows(samples))
    return 0


def _verify_at(t: complex, ids):
    items = []
    ok = True
    for cid in ids:
        for smp in catalog.sample_component(cid, t):
            try:
                q = realize_character(smp.vector)
                rep, rel_res = wirtinger.is_representation(q)
                teq = wirtinger.necessary_conditions_residual(q)
                passed = rep and teq <= wirtinger.TRACE_EQ_TOL
                item = {"id": cid, "branch": smp.branch,
                        "relator_residual": rel_res,
                        "trace_equation_residual": teq, "pass": passed}
            except CharVarError as exc:
                passed = False
                item = {"id": cid, "branch": smp.branch,
                        "error": str(exc), "pass": False}
            ok = ok and passed
            items.append(item)
    return ok, items


def cmd_verify(args) -> int:
    ids = [args.component] if args.component else list(catalog.COMPONENTS)
    rng = np.random.default_rng(args.seed)
    if args.t is not None:
        ts = [args.t]
    else:
        ts = []
        while len(ts) < (3 if args.samples is None else args.samples):
            t = complex(*(rng.uniform(-2.5, 2.5, 2)))
            try:
                for cid in ids:
                    catalog.check_admissible(cid, t)
            except ExcludedParameter:
                continue
            ts.append(t)
    all_ok = True
    blocks = []
    for t in ts:
        ok, items = _verify_at(t, ids)
        all_ok = all_ok and ok
        blocks.append({"t": _fmt_complex(t), "pass": ok, "items": items})
    payload = {"command": "verify", "seed": args.seed, "pass": all_ok,
               "blocks": blocks}
    rows = [["t", "id", "branch", "relator_residual",
             "trace_equation_residual", "pass"]]
    for blk in blocks:
        for it in blk["items"]:
            # an item whose realization raised has an "error", no residuals
            res = [repr(it[k]) if k in it else "" for k in
                   ("relator_residual", "trace_equation_residual")]
            rows.append([blk["t"], it["id"], it["branch"], *res, it["pass"]])
    _emit(payload, args, rows)
    return 0 if all_ok else 1


def cmd_parabolic(args) -> int:
    report = catalog.enumerate_parabolic()
    payload = {"command": "parabolic", "total": report.total,
               "counts": report.counts,
               "samples": [s.to_json() for s in report.samples]}
    _emit(payload, args, _sample_rows(report.samples))
    return 0 if report.total == 26 else 1


def _identity_battery(seed: int, n: int, inject_fault: bool):
    rng = np.random.default_rng(seed)
    worst = {"typeI": 0.0, "typeII": 0.0, "det_Sdiamond": 0.0,
             "cayley_hamilton": 0.0, "xyx": 0.0, "anticommutator": 0.0}
    agreement = 0
    for k in range(n):
        t = complex(*rng.uniform(-3, 3, 2))
        while abs(t) > 3:
            t = complex(*rng.uniform(-3, 3, 2))
        xs = [random_gt(rng, t) for _ in range(4)]
        v = trace_vector_of(*xs)
        s = s_from_t(v)
        if inject_fault and k == 0:
            s = dataclasses.replace(s, s12=s.s12 + 1e-3)
        sc = max(1.0, max(x.norm() for x in xs) ** 2)
        u0 = xs[0].traceless_part()
        u1 = xs[1].traceless_part()
        for name, value in (
                ("typeI", _worst(typeI_residuals(s, normalized=True))),
                ("typeII", _worst(typeII_residuals(s, normalized=True))),
                ("det_Sdiamond", _worst((det_Sdiamond(s, normalized=True),))),
                ("cayley_hamilton", ch_residual(xs[0], t).norm() / sc),
                ("xyx", xyx_expand(xs[0], xs[1], t).norm() / sc ** 2),
                ("anticommutator",
                 anticommutator_residual(u0, u1).norm() / sc)):
            worst[name] = _worst((worst[name], value))
        crit = is_irreducible_pair(xs[0], xs[1], t)
        oracle = not has_common_eigenvector([xs[0], xs[1]])
        agreement += int(crit == oracle)
    return worst, agreement


def cmd_identities(args) -> int:
    worst, agreement = _identity_battery(args.seed, args.n, args.inject_fault)
    checks = {name: {"max_residual": val, "pass": val <= 1e-8}
              for name, val in worst.items()}
    checks["lemma_irreducible_agreement"] = {
        "max_residual": 0.0 if agreement == args.n else 1.0,
        "pass": agreement == args.n}
    ok = all(c["pass"] for c in checks.values())
    payload = {"command": "identities", "seed": args.seed, "n": args.n,
               "pass": ok, "checks": checks}
    rows = [["check", "max_residual", "pass"]]
    rows += [[k, repr(c["max_residual"]), c["pass"]] for k, c in checks.items()]
    _emit(payload, args, rows)
    return 0 if ok else 1


def cmd_explore(args) -> int:
    found = catalog.explore_solve(args.t, args.seed, args.attempts)
    hist: dict[str, int] = {}
    unclassified = []
    for v, label in found:
        hist[label] = hist.get(label, 0) + 1
        if label == "unclassified":
            unclassified.append(v.to_json())
    payload = {"command": "explore", "t": _fmt_complex(args.t),
               "seed": args.seed, "attempts": args.attempts,
               "converged": len(found),
               "histogram": dict(sorted(hist.items())),
               "unclassified": unclassified}
    rows = [["classification", "count"]]
    rows += [[k, n] for k, n in sorted(hist.items())]
    _emit(payload, args, rows)
    return 0 if not unclassified else 1


def _add_output(p):
    p.add_argument("--out", default=None, help="write report to this path")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="charvar",
        description="verification reports for the 8_18 component catalog")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("catalog", help="list component samples at one t")
    p.add_argument("--t", type=parse_complex, required=True)
    p.add_argument("--component", choices=catalog.COMPONENTS)
    _add_output(p)
    p.set_defaults(fn=cmd_catalog)

    p = sub.add_parser("verify", help="sample -> realize -> relator pipeline")
    at = p.add_mutually_exclusive_group()
    at.add_argument("--t", type=parse_complex, default=None)
    # None, not 3: argparse sees no conflict in a value that is its default
    at.add_argument("--samples", type=_count, default=None,
                    help="number of random t values (default 3)")
    p.add_argument("--component", choices=catalog.COMPONENTS)
    p.add_argument("--seed", type=_count, default=0)
    _add_output(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("parabolic", help="emit the 26-class census at t = 2")
    _add_output(p)
    p.set_defaults(fn=cmd_parabolic)

    p = sub.add_parser("identities", help="universal-identity battery")
    p.add_argument("--n", type=_count, default=500)
    p.add_argument("--inject-fault", action="store_true",
                   help="perturb one s-coordinate as a negative control")
    p.add_argument("--seed", type=_count, default=0)
    _add_output(p)
    p.set_defaults(fn=cmd_identities)

    p = sub.add_parser("explore", help="random-start Newton classification")
    p.add_argument("--t", type=parse_complex, required=True)
    p.add_argument("--attempts", type=_count, default=200)
    p.add_argument("--seed", type=_count, default=0)
    _add_output(p)
    p.set_defaults(fn=cmd_explore)
    return ap


def _join_negative_t(argv: list[str]) -> list[str]:
    """Join "--t VALUE" into "--t=VALUE" when VALUE starts with "-" and
    parses as a complex number: argparse reads such a token as an option
    unless it is a plain negative number like -2, so "--t -0.7+1.9i" or
    "--t -i" would lose its value."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] == "--t" and tok.startswith("-"):
            try:
                parse_complex(tok)
            except ValueError:
                pass
            else:
                out[-1] = f"--t={tok}"
                continue
        out.append(tok)
    return out


def main(argv=None) -> int:
    ap = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = ap.parse_args(_join_negative_t(argv))
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return int(exc.code or 0)
    start = time.perf_counter()
    try:
        code = args.fn(args)
    except (CharVarError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    elapsed = time.perf_counter() - start
    print(f"{args.cmd}: exit {code}, wall time {elapsed:.3f}s",
          file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
