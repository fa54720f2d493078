"""Executable component catalog: samplers, membership residuals, the
parabolic census, the excellent-component quartic, distinguished points, and
a random-start Newton probe over the trace-equation system.

Component ids: X11, X12, X21, X22, X3, X4, X51, X52, X61, X62. The subscript
rotation interchanges X11/X12, X21/X22, X51/X52, X61/X62 and fixes X3, X4.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintViolated, ExcludedParameter
from .numfield import CLUSTER_TOL, Poly, solve_poly, solve_quadratic
from .tracealg import (PAIRS, TRIPLES, TraceVector, _shift, _t_pairs,
                       s_from_t, typeI_residuals, typeII_residuals)

COMPONENTS = ("X11", "X12", "X21", "X22", "X3", "X4",
              "X51", "X52", "X61", "X62")

ROTATION_PAIR = {"X11": "X12", "X12": "X11", "X21": "X22", "X22": "X21",
                 "X3": "X3", "X4": "X4", "X51": "X52", "X52": "X51",
                 "X61": "X62", "X62": "X61"}

SAMPLER_MARGIN = 1e-3
GUARD_MARGIN = 1e-6

_SQRT2 = math.sqrt(2)
_SQRT3 = math.sqrt(3)
_SQRT5 = math.sqrt(5)
# alpha in {0, 2, 4} <=> t in {+-1, +-sqrt3, +-sqrt5}; the (alpha, mu) and
# (alpha, z) special pairs live over t^2 = 3 +- 2*sqrt2; t = 0 collapses all
# triple invariants for the exotic components
_EXOTIC_EXCLUDED = (0.0, 1.0, -1.0, _SQRT3, -_SQRT3, _SQRT5, -_SQRT5,
                    1 + _SQRT2, -1 - _SQRT2, _SQRT2 - 1, 1 - _SQRT2)
# t^4 - 6t^2 + 4 = 0 is the locus where X4 degenerates to x3 = x1^(-1)
_X4_EXCLUDED = (_SQRT3, -_SQRT3,
                math.sqrt(3 + _SQRT5), -math.sqrt(3 + _SQRT5),
                math.sqrt(3 - _SQRT5), -math.sqrt(3 - _SQRT5))

EXCLUDED_T = {
    "X11": _EXOTIC_EXCLUDED, "X12": _EXOTIC_EXCLUDED,
    "X21": _EXOTIC_EXCLUDED, "X22": _EXOTIC_EXCLUDED,
    "X3": (_SQRT5, -_SQRT5),
    "X4": _X4_EXCLUDED,
    "X51": (_SQRT3, -_SQRT3), "X52": (_SQRT3, -_SQRT3),
    "X61": (_SQRT3, -_SQRT3, 0.0), "X62": (_SQRT3, -_SQRT3, 0.0),
}


@dataclass(frozen=True)
class ComponentSample:
    id: str
    branch: int
    params: dict[str, complex]
    vector: TraceVector

    def residuals(self) -> dict[str, complex]:
        return membership_residual(self.id, self.vector)

    def to_json(self):
        return {"id": self.id, "branch": self.branch,
                "params": {k: [z.real, z.imag] for k, z in self.params.items()},
                "vector": self.vector.to_json(),
                "residuals": {k: abs(z) for k, z in self.residuals().items()}}


@dataclass(frozen=True)
class CensusReport:
    samples: list[ComponentSample]
    counts: dict[str, int]
    total: int


def check_admissible(cid: str, t: complex,
                     margin: float = SAMPLER_MARGIN) -> None:
    for bad in EXCLUDED_T[cid]:
        if abs(t - bad) < margin:
            raise ExcludedParameter(f"{cid}: t too close to {bad}")


# ---------------------------------------------------------------------------
# row constructors (parameters -> trace vector)

def _alpha(t):
    return t * t - 1


def _x1_vector(t, mu, x, second: bool) -> TraceVector:
    al = _alpha(t)
    tau = (al * al - 3 * al + 4 / al) * mu - al ** 3 + 4 * al * al - 7
    sig_p = (1 / al + 1) * mu - mu * mu / al - 2 + (mu / al) * x
    sig_m = (1 / al + 1) * mu - 2 - (mu / al) * x
    tm = t * mu / al
    if not second:  # X11
        return TraceVector(t=t, t12=x + 1, t23=mu + 1 - x, t34=mu + 1 - x,
                           t14=x + 1, t13=1, t24=tau,
                           t123=tm, t124=t * sig_p, t134=tm, t234=t * sig_m)
    return TraceVector(t=t, t12=x + 1, t23=x + 1, t34=mu + 1 - x,
                       t14=mu + 1 - x, t13=tau, t24=1,
                       t123=t * sig_p, t124=tm, t134=t * sig_m, t234=tm)


def _x2_vector(t, z, g, second: bool) -> TraceVector:
    al = _alpha(t)
    ta = t + t * z * g / al
    tb = t + t * z ** 3 / (al * g)
    if not second:  # X21
        return TraceVector(t=t, t12=g + al - 1, t23=z + 1,
                           t34=z * z / g + al - 1, t14=z + 1, t13=1, t24=1,
                           t123=ta, t124=ta, t134=tb, t234=tb)
    return TraceVector(t=t, t12=z + 1, t23=g + al - 1, t34=z + 1,
                       t14=z * z / g + al - 1, t13=1, t24=1,
                       t123=ta, t124=tb, t134=tb, t234=ta)


def _x3_vector(t, u) -> TraceVector:
    d = t * t - 2
    e = t * u - t
    return TraceVector(t=t, t12=u, t23=u, t34=u, t14=u, t13=d, t24=d,
                       t123=e, t124=e, t134=e, t234=e)


def _x4_vector(t, u, eta) -> TraceVector:
    d = 2 * u + 2 - t * t
    return TraceVector(t=t, t12=u, t23=u, t34=u, t14=u, t13=d, t24=d,
                       t123=eta, t124=eta, t134=eta, t234=eta)


def _x5_vector(t, second: bool) -> TraceVector:
    d = t * t - 2
    if not second:
        return TraceVector(t=t, t12=1, t23=d, t34=1, t14=d, t13=1, t24=1,
                           t123=0, t124=0, t134=0, t234=0)
    return TraceVector(t=t, t12=d, t23=1, t34=d, t14=1, t13=1, t24=1,
                       t123=0, t124=0, t134=0, t234=0)


def _x6_vector(t, second: bool) -> TraceVector:
    q = 4 * t * t - 2 - t ** 4
    p = 3 * t - t ** 3
    if not second:
        return TraceVector(t=t, t12=1, t23=1, t34=1, t14=1, t13=1, t24=q,
                           t123=0, t124=p, t134=0, t234=p)
    return TraceVector(t=t, t12=1, t23=1, t34=1, t14=1, t13=q, t24=1,
                       t123=p, t124=0, t134=p, t234=0)


# ---------------------------------------------------------------------------
# sampling

def excellent_quartic(t: complex) -> Poly:
    """The degree-4 defining polynomial of the excellent component in u."""
    t = complex(t)
    return Poly([1, 2 - 2 * t * t, t ** 4 + 3, 2 - 2 * t ** 4,
                 2 * t ** 4 - 4 * t * t + 1])


def _sorted_roots(roots):
    return sorted(roots, key=lambda z: (round(z.real, 10), round(z.imag, 10)))


def _x4_system(t, u, eta):
    return (t * eta - (u * u + u - t * t + 1),
            eta * eta + t * (t * t + 4 - 2 * u) * eta
            - 5 * t * t * u + t ** 4 + 4 * t * t - 6)


def _x4_small_t(t: complex) -> list[tuple[complex, complex]]:
    """Solve the coupled (u, eta) system directly near t = 0, where the
    quartic has double roots and eta = (...)/t is ill-conditioned.

    Newton from the four exact t = 0 solutions (u^2 + u + 1 = 0,
    eta^2 = 6); the Jacobian is nonsingular there.
    """
    out = []
    for eps in (1, -1):
        for ep2 in (1, -1):
            u = (-1 + eps * 1j * cmath.sqrt(3)) / 2
            eta = ep2 * cmath.sqrt(6)
            for _ in range(60):
                f1, f2 = _x4_system(t, u, eta)
                if max(abs(f1), abs(f2)) <= 1e-13:
                    break
                j11 = -2 * u - 1                      # df1/du
                j12 = t                               # df1/deta
                j21 = -2 * t * eta - 5 * t * t        # df2/du
                j22 = 2 * eta + t * (t * t + 4 - 2 * u)
                det = j11 * j22 - j12 * j21
                u -= (f1 * j22 - f2 * j12) / det
                eta -= (f2 * j11 - f1 * j21) / det
            if not any(abs(u - u0) <= CLUSTER_TOL and abs(eta - e0) <= CLUSTER_TOL
                       for u0, e0 in out):
                out.append((u, eta))
    return out


def _x4_samples(t: complex) -> list[ComponentSample]:
    if abs(t) > SAMPLER_MARGIN:
        out = []
        for u in _sorted_roots(solve_poly(excellent_quartic(t))):
            if abs(u - 1) <= GUARD_MARGIN:
                raise ExcludedParameter("X4: u = 1 branch")
            out.append((u, (u * u + u - t * t + 1) / t))
    else:
        out = _x4_small_t(t)
    return [ComponentSample("X4", k, {"t": t, "u": u, "eta": eta},
                            _x4_vector(t, u, eta))
            for k, (u, eta) in enumerate(out)]


def sample_component(cid: str, t: complex) -> list[ComponentSample]:
    """All branch samples of one component over a fixed trace value t.

    Branch enumeration is exhaustive and deterministically ordered; every
    sample satisfies its membership residuals to 1e-10.
    """
    t = complex(t)
    check_admissible(cid, t)
    al = _alpha(t)
    samples: list[ComponentSample] = []
    if cid in ("X11", "X12"):
        k = 0
        for mu in solve_quadratic(1, al * al - 4 * al, 4 * al * al - al ** 3):
            for bad_al, bad_mu in ((2 + 2 * _SQRT2, 2 * _SQRT2),
                                   (2 - 2 * _SQRT2, -2 * _SQRT2)):
                if abs(al - bad_al) < GUARD_MARGIN and \
                        abs(mu - bad_mu) < GUARD_MARGIN:
                    raise ExcludedParameter(f"{cid}: (alpha, mu) special pair")
            for x in solve_quadratic(1, -mu, 2 * mu / al + al - 4):
                samples.append(ComponentSample(
                    cid, k, {"t": t, "alpha": al, "mu": mu, "x": x},
                    _x1_vector(t, mu, x, cid == "X12")))
                k += 1
    elif cid in ("X21", "X22"):
        k = 0
        for z in solve_quadratic(1, -al, al):
            for bad_al, bad_z in ((2 + 2 * _SQRT2, _SQRT2),
                                  (2 - 2 * _SQRT2, -_SQRT2)):
                if abs(al - bad_al) < GUARD_MARGIN and \
                        abs(z - bad_z) < GUARD_MARGIN:
                    raise ExcludedParameter(f"{cid}: (alpha, z) special pair")
            for g in solve_quadratic(1, (al - 2) * z * z - 2 * z, z * z):
                samples.append(ComponentSample(
                    cid, k, {"t": t, "alpha": al, "z": z, "gamma": g},
                    _x2_vector(t, z, g, cid == "X22")))
                k += 1
    elif cid == "X3":
        for k, u in enumerate(solve_quadratic(1, -(t * t + 1), 2 * t * t - 1)):
            samples.append(ComponentSample(cid, k, {"t": t, "u": u},
                                           _x3_vector(t, u)))
    elif cid == "X4":
        samples = _x4_samples(t)
    elif cid in ("X51", "X52"):
        samples = [ComponentSample(cid, 0, {"t": t},
                                   _x5_vector(t, cid == "X52"))]
    elif cid in ("X61", "X62"):
        samples = [ComponentSample(cid, 0, {"t": t},
                                   _x6_vector(t, cid == "X62"))]
    else:
        raise ValueError(f"unknown component id {cid!r}")
    for smp in samples:
        worst = max(abs(r) for r in smp.residuals().values())
        if worst > 1e-10:
            raise ConstraintViolated(
                f"{cid} branch {smp.branch}: residual {worst:.3e}")
    return samples


# ---------------------------------------------------------------------------
# membership

def _norm_terms(named_terms, normalized=True):
    out = {}
    for name, terms in named_terms:
        val = sum(terms)
        if normalized:
            val /= max(1.0, max(abs(x) for x in terms))
        out[name] = val
    return out


def membership_residual(cid: str, v: TraceVector,
                        normalized: bool = True) -> dict[str, complex]:
    """Residuals of one component's defining equations at v.

    Parameters are recovered linearly from the vector; denominators in alpha
    and gamma are cleared, so the residuals are polynomial and meaningful on
    component closures (exclusion guards are deliberately not part of the
    test). All residuals small means v lies on the closure.
    """
    t = v.t
    al = _alpha(t)
    one = complex(1)
    r: list[tuple[str, list[complex]]] = []
    if cid in ("X11", "X12"):
        if cid == "X11":
            x = v.t12 - 1
            mu = v.t12 + v.t23 - 2
            r += [("t14", [v.t14, -v.t12]), ("t34", [v.t34, -v.t23]),
                  ("t13", [v.t13, -one])]
            tau_slot, e_a, e_b, e_p, e_m = v.t24, v.t123, v.t134, v.t124, v.t234
        else:
            x = v.t12 - 1
            mu = v.t12 + v.t34 - 2
            r += [("t23", [v.t23, -v.t12]), ("t14", [v.t14, -v.t34]),
                  ("t24", [v.t24, -one])]
            tau_slot, e_a, e_b, e_p, e_m = v.t13, v.t124, v.t234, v.t123, v.t134
        r += [
            ("tau", [al * tau_slot, -(al ** 3 - 3 * al * al + 4) * mu,
                     al ** 4 - 4 * al ** 3 + 7 * al]),
            ("tri_a", [al * e_a, -t * mu]),
            ("tri_b", [al * e_b, -t * mu]),
            ("sig_p", [al * e_p, -t * (1 + al) * mu, t * mu * mu,
                       2 * t * al, -t * mu * x]),
            ("sig_m", [al * e_m, -t * (1 + al) * mu, 2 * t * al, t * mu * x]),
            ("q_mu", [mu * mu, (al * al - 4 * al) * mu, 4 * al * al - al ** 3]),
            ("q_x", [al * x * x, -al * mu * x, 2 * mu, al * al - 4 * al]),
        ]
    elif cid in ("X21", "X22"):
        if cid == "X21":
            z = v.t23 - 1
            g = v.t12 - al + 1
            r += [("t14", [v.t14, -v.t23]),
                  ("t34g", [g * v.t34, -z * z, -(al - 1) * g])]
            e1a, e1b, e2a, e2b = v.t123, v.t124, v.t134, v.t234
        else:
            z = v.t12 - 1
            g = v.t23 - al + 1
            r += [("t34", [v.t34, -v.t12]),
                  ("t14g", [g * v.t14, -z * z, -(al - 1) * g])]
            e1a, e1b, e2a, e2b = v.t123, v.t234, v.t124, v.t134
        r += [
            ("t13", [v.t13, -one]), ("t24", [v.t24, -one]),
            ("q_z", [z * z, -al * z, al]),
            ("q_g", [g * g, ((al - 2) * z * z - 2 * z) * g, z * z]),
            ("tri_1", [al * e1a, -al * t, -t * z * g]),
            ("tri_1b", [e1b, -e1a]),
            ("tri_2", [al * g * e2a, -al * g * t, -t * z ** 3]),
            ("tri_2b", [e2b, -e2a]),
        ]
    elif cid == "X3":
        u = v.t12
        d = t * t - 2
        e = t * u - t
        r += [("t23", [v.t23, -u]), ("t34", [v.t34, -u]), ("t14", [v.t14, -u]),
              ("t13", [v.t13, -d]), ("t24", [v.t24, -d]),
              ("t123", [v.t123, -e]), ("t124", [v.t124, -e]),
              ("t134", [v.t134, -e]), ("t234", [v.t234, -e]),
              ("q_u", [u * u, -(t * t + 1) * u, 2 * t * t - 1])]
    elif cid == "X4":
        u = v.t12
        eta = v.t123
        d = 2 * u + 2 - t * t
        r += [("t23", [v.t23, -u]), ("t34", [v.t34, -u]), ("t14", [v.t14, -u]),
              ("t13", [v.t13, -d]), ("t24", [v.t24, -d]),
              ("t124", [v.t124, -eta]), ("t134", [v.t134, -eta]),
              ("t234", [v.t234, -eta]),
              ("lin", [t * eta, -u * u, -u, t * t, -one]),
              ("q_eta", [eta * eta, t * (t * t + 4 - 2 * u) * eta,
                         -5 * t * t * u, t ** 4, 4 * t * t, -6 * one])]
    elif cid in ("X51", "X52"):
        d = t * t - 2
        if cid == "X51":
            names = (("t12", v.t12 - 1), ("t34", v.t34 - 1),
                     ("t23", v.t23 - d), ("t14", v.t14 - d))
        else:
            names = (("t23", v.t23 - 1), ("t14", v.t14 - 1),
                     ("t12", v.t12 - d), ("t34", v.t34 - d))
        r += [(n, [val]) for n, val in names]
        r += [("t13", [v.t13, -one]), ("t24", [v.t24, -one]),
              ("t123", [v.t123]), ("t124", [v.t124]),
              ("t134", [v.t134]), ("t234", [v.t234])]
    elif cid in ("X61", "X62"):
        q = 4 * t * t - 2 - t ** 4
        p = 3 * t - t ** 3
        r += [("t12", [v.t12, -one]), ("t23", [v.t23, -one]),
              ("t34", [v.t34, -one]), ("t14", [v.t14, -one])]
        if cid == "X61":
            r += [("t13", [v.t13, -one]), ("t24", [v.t24, -q]),
                  ("t123", [v.t123]), ("t134", [v.t134]),
                  ("t124", [v.t124, -p]), ("t234", [v.t234, -p])]
        else:
            r += [("t24", [v.t24, -one]), ("t13", [v.t13, -q]),
                  ("t124", [v.t124]), ("t234", [v.t234]),
                  ("t123", [v.t123, -p]), ("t134", [v.t134, -p])]
    else:
        raise ValueError(f"unknown component id {cid!r}")
    return _norm_terms(r, normalized)


def best_membership(v: TraceVector) -> tuple[str, float]:
    """Component with the smallest worst-case membership residual."""
    best, best_val = "", float("inf")
    for cid in COMPONENTS:
        worst = max(abs(x) for x in membership_residual(cid, v).values())
        if worst < best_val:
            best, best_val = cid, worst
    return best, best_val


# ---------------------------------------------------------------------------
# parabolic census

def enumerate_parabolic() -> CensusReport:
    """All component samples on the slice t = 2 (26 classes after dedup)."""
    t = 2.0 + 0j
    samples: list[ComponentSample] = []
    for cid in COMPONENTS:
        samples.extend(sample_component(cid, t))
    kept: list[ComponentSample] = []
    seen: list[tuple] = []
    for smp in samples:
        key = tuple(smp.vector.coords().values())
        if any(max(abs(a - b) for a, b in zip(key, old)) <= CLUSTER_TOL
               for old in seen):
            continue
        seen.append(key)
        kept.append(smp)
    counts: dict[str, int] = {cid: 0 for cid in COMPONENTS}
    for smp in kept:
        counts[smp.id] += 1
    return CensusReport(samples=kept, counts=counts, total=len(kept))


# ---------------------------------------------------------------------------
# distinguished points of the excellent component

def special_points() -> list[tuple[str, dict[str, complex], TraceVector]]:
    """Named (t, u, eta) points of the excellent component, each satisfying
    the defining system to 1e-10."""
    pts: list[tuple[str, dict[str, complex]]] = []
    s2 = cmath.sqrt(2)
    pts.append(("hyperbolicity_limit",
                {"t": 1 - s2, "u": 1 - s2, "eta": -s2}))
    for eps in (1, -1):
        t = cmath.sqrt(3 + 2 * eps * s2)
        u = 1 + eps * s2
        pts.append((f"four_component_limit_eps{eps:+d}",
                    {"t": t, "u": u, "eta": (u + 1) / t}))
    for eps in (1, -1):
        for ep2 in (1, -1):
            u = (-1 + eps * 1j * cmath.sqrt(3)) / 2
            pts.append((f"t0_eps{eps:+d}{ep2:+d}",
                        {"t": 0j, "u": u, "eta": ep2 * cmath.sqrt(6)}))
    for k, u in enumerate(_sorted_roots(solve_poly(Poly([1, 0, 4, 0, -1])))):
        pts.append((f"t2_1_root{k}", {"t": 1 + 0j, "u": u, "eta": u * u + u}))
    for eps in (1, -1):
        t = cmath.sqrt(3)
        u = 1 + eps * 1j * cmath.sqrt(6)
        pts.append((f"t2_3_eps{eps:+d}",
                    {"t": t, "u": u, "eta": (u * u + u - 2) / t}))
    for k, u in enumerate(_sorted_roots(
            solve_poly(Poly([1, -8, 28, -48, 31])))):
        t = cmath.sqrt(5)
        pts.append((f"t2_5_root{k}",
                    {"t": t, "u": u, "eta": (u * u + u - 4) / t}))
    for eps in (1, -1):
        t = cmath.sqrt(3 + eps * cmath.sqrt(5))
        pts.append((f"inverse_pattern_eps{eps:+d}",
                    {"t": t, "u": t * t / 2, "eta": t}))
    out = []
    for label, p in pts:
        vec = _x4_vector(p["t"], p["u"], p["eta"])
        worst = max(abs(x) for x in membership_residual("X4", vec).values())
        if worst > 1e-10:
            raise ConstraintViolated(f"{label}: X4 residual {worst:.3e}")
        out.append((label, p, vec))
    return out


# ---------------------------------------------------------------------------
# Newton probe

_UNKNOWNS = ("t12", "t23", "t34", "t14", "t13", "t24",
             "t123", "t124", "t134", "t234")

#: starts advanced together as one array; bounds the probe's working memory
#: (each start's iteration does not depend on it)
_PROBE_BLOCK = 32


def _pair_col(i: int, j: int) -> int:
    return PAIRS.index((min(i, j), max(i, j)))


def _triple_col(*idx: int) -> int:
    return 6 + TRIPLES.index(tuple(sorted(idx)))


# columns of (t12, t13, t14, t23, t24, t123, t124) after each subscript
# rotation p, and the residual rows 3p + (tr0, tr1-tr2, tr1+tr2) they enter
_EQ_COLS = np.array([
    [_pair_col(i1, i2), _pair_col(i1, i3), _pair_col(i1, i4),
     _pair_col(i2, i3), _pair_col(i2, i4),
     _triple_col(i1, i2, i3), _triple_col(i1, i2, i4)]
    for i1, i2, i3, i4 in ([_shift(i, p) for i in (1, 2, 3, 4)]
                           for p in range(4))])
_EQ_JAC_ROWS, _EQ_JAC_COLS = np.broadcast_arrays(
    np.arange(12).reshape(4, 3, 1), _EQ_COLS[:, None, :])
# s-column of s_ij (i, j = 0..3), with the constant s0 appended as column 6
_S_COLS = np.array([[_pair_col(i, j) if i != j else 6 for j in (1, 2, 3, 4)]
                    for i in (1, 2, 3, 4)])
# the three pair columns in the shift of each triple trace (s_from_t)
_TRIPLE_PAIRS = np.array([[_pair_col(i, j), _pair_col(j, k), _pair_col(i, k)]
                          for i, j, k in TRIPLES])
_ALT = np.array([1, -1, 1, -1])
# type II: each off-diagonal s_ij of row i, as (row, column, j)
_II_ROWS, _II_COLS, _II_J = np.array(
    [(12 + i, _pair_col(i + 1, j + 1), j)
     for i in range(4) for j in range(4) if i != j]).T
# type I: row 16 + 4a + b pairs triples I = TRIPLES[a] and J = TRIPLES[b]
_TI_A, _TI_B = np.divmod(np.arange(16), 4)
_TI_ROWS = np.array([[i - 1 for i in TRIPLES[a]] for a in _TI_A])[:, :, None]
_TI_COLS = np.array([[j - 1 for j in TRIPLES[b]] for b in _TI_B])[:, None, :]
_NEXT, _AFTER = [1, 2, 0], [2, 0, 1]   # cyclic 3x3 cofactor indices


def _cofactor_gather() -> np.ndarray:
    """Flat indices 9r + 3i + j of the entries (i, j) of type I Gram minor r
    that hold the pair of each pair column, as two (16, 6) tables: each pair
    sits in at most two entries; a missing one points at the zero slot 144.
    Diagonal entries are the constant s0 and hold no pair."""
    out = np.full((2, 16, 6), 144)
    for r, (a, b) in enumerate(zip(_TI_A, _TI_B)):
        used = [0] * 6
        for i, p in enumerate(TRIPLES[a]):
            for j, q in enumerate(TRIPLES[b]):
                if p != q:
                    k = _pair_col(p, q)
                    out[used[k], r, k] = 9 * r + 3 * i + j
                    used[k] += 1
    return out


_TI_GATHER = _cofactor_gather()


def _probe_system(t: complex, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Residuals and exact Jacobian of {12 trace equations, 4 type II,
    16 type I} at each row of y, an (n, 10) array of the coordinates
    _UNKNOWNS at trace t.

    Returns the (n, 32) raw residuals, ordered as trace_equation_residuals,
    typeII_residuals and typeI_residuals list them, and their (n, 32, 10)
    derivatives. Every equation has degree <= 3 and the s-coordinates are
    affine in y, so the type I derivatives are the cofactors of the 3x3
    Gram minors mapped back onto the pair columns.
    """
    n = len(y)
    tt = t * t
    a = tt - 1
    f = np.empty((n, 32), dtype=complex)
    jac = np.zeros((n, 32, 10), dtype=complex)

    t12, t13, t14, t23, t24, t123, t124 = np.moveaxis(y[:, _EQ_COLS], 2, 0)
    dq, sq = t124 - t123, t124 + t123
    dm, dp = t13 - t24, t13 + t24
    em, ep = t14 - t23, t14 + t23
    tm = t * (t12 - 1)
    c1, c2, c3 = t * (t12 + tt - 2), t12 + tt - 1, t12 * t12 + a * t12 - tt - 1
    d1, d2, d3 = t * (tt - 2 - t12), t12 + 1 - tt, 1 - t12 * t12 + a * t12 - tt
    eq = np.empty((n, 4, 3), dtype=complex)
    eq[..., 0] = a * dq + t * dm - tm * em
    eq[..., 1] = c1 * dq + c2 * dm - c3 * em
    eq[..., 2] = d1 * sq + d2 * dp - d3 * ep
    f[:, :12] = eq.reshape(n, 12)
    deq = np.empty((n, 4, 3, 7), dtype=complex)
    for k, row in enumerate((
            (-t * em, t, -tm, tm, -t, -a, a),
            (t * dq + dm - (2 * t12 + a) * em, c2, -c3, c3, -c2, -c1, c1),
            (dp - t * sq - (a - 2 * t12) * ep, d2, -d3, -d3, d2, d1, d1))):
        for c, val in enumerate(row):
            deq[..., k, c] = val
    jac[:, _EQ_JAC_ROWS, _EQ_JAC_COLS] = deq

    s = np.concatenate([y[:, :6] - tt / 2, np.full((n, 1), tt / 2 - 2)], 1)
    gram = s[:, _S_COLS]
    st = y[:, 6:] - (t / 2) * y[:, _TRIPLE_PAIRS].sum(axis=2) + t ** 3 / 2
    dst = np.zeros((4, 10), dtype=complex)   # d st / dy, the same for all rows
    dst[np.arange(4)[:, None], _TRIPLE_PAIRS] = -t / 2
    dst[:, 6:] = np.eye(4)

    w = st[:, ::-1] * _ALT                   # s_i1 s234 - s_i2 s134 + ...
    f[:, 12:16] = (gram * w[:, None, :]).sum(axis=2)
    jac[:, 12:16] = np.einsum("nij,jk->nik", gram, _ALT[:, None] * dst[::-1])
    jac[:, _II_ROWS, _II_COLS] += w[:, _II_J]

    minor = gram[:, _TI_ROWS, _TI_COLS]      # (n, 16, 3, 3)
    r1, r2 = minor[:, :, _NEXT], minor[:, :, _AFTER]
    cof = r1[..., _NEXT] * r2[..., _AFTER] - r1[..., _AFTER] * r2[..., _NEXT]
    det = (minor[..., 0, 0] * cof[..., 0, 0] + minor[..., 0, 1] * cof[..., 0, 1]
           + minor[..., 0, 2] * cof[..., 0, 2])
    sa, sb = st[:, _TI_A], st[:, _TI_B]
    f[:, 16:] = 2 * sa * sb + det
    jac[:, 16:] = 2 * (sb[:, :, None] * dst[_TI_A] + sa[:, :, None] * dst[_TI_B])
    flat = np.concatenate([cof.reshape(n, 144), np.zeros((n, 1))], axis=1)
    jac[:, 16:, :6] += flat[:, _TI_GATHER[0]] + flat[:, _TI_GATHER[1]]
    return f, jac


# Newton stop rules (see _newton_block), on the max raw residual of a start

#: iteration cap; a start still running then is judged on its best point
_NEWTON_ITERS = 100
#: converged: near the double-precision floor of the raw residuals, whose
#: roots have coordinates up to about 10 in modulus at |t| <= 2.5
_ROOT_TOL = 1e-13
#: the largest max residual accepted as a root: at a multiple root Newton
#: stalls above _ROOT_TOL, with coordinate error about sqrt(residual)
_STALL_TOL = 1e-9
#: below _STALL_TOL, a step that lowers the residual by less than this
#: factor has stalled: even at a double root Newton's residual falls about
#: 4-fold a step, so a smaller decrease is rounding noise
_STALL_RATIO = 0.7
#: a start still above _WANDER_RES after _WANDER_ITER iterations is
#: wandering between basins and is given up
_WANDER_ITER = 50
_WANDER_RES = 1e-1
#: a coordinate beyond this modulus has diverged: far outside every root
_DIVERGED = 1e8
#: largest Frobenius condition number ||R||_F ||R^-1||_F of a step solved
#: from its QR factor: kappa_2 <= kappa_F, so every singular value of such a
#: system is far above lstsq's cutoff and its step is unique (see
#: _lstsq_steps)
_QR_COND_MAX = 1e8


def _svd_steps(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solutions of jac[k] x = rhs[k], as
    np.linalg.lstsq(rcond=None) finds them one system at a time: singular
    values at most eps * max(jac shape) times the largest count as zero."""
    u, sv, vh = np.linalg.svd(jac, full_matrices=False)
    cut = np.finfo(float).eps * max(jac.shape[1:]) * sv[:, :1]
    inv = np.divide(1.0, sv, out=np.zeros_like(sv), where=sv > cut)
    coef = np.einsum("nki,nk->ni", u.conj(), rhs) * inv
    return np.einsum("nik,ni->nk", vh.conj(), coef)


def _lstsq_steps(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """The minimum-norm least-squares solutions of jac[k] x = rhs[k] that
    _svd_steps computes, for an (n, m, k) stack of systems with m >= k.

    One batched R-only QR of [jac | rhs] gives R and Q^H rhs. A system whose
    R has a nonzero diagonal and a Frobenius condition number at most
    _QR_COND_MAX has full column rank, lstsq drops none of its singular
    values, and its unique solution is R^-1 Q^H rhs (Golub & Van Loan,
    Matrix Computations, 5.3); the two agree to about kappa * eps. Every
    other system (rank-deficient, ill-conditioned, or with an R^-1 that
    overflows) is solved by _svd_steps. For finite input no LinAlgError
    is raised.
    """
    n, _, k = jac.shape
    r = np.linalg.qr(np.concatenate([jac, rhs[:, :, None]], axis=2), mode="r")
    tri, qtb = r[:, :k, :k], r[:, :k, k]
    steps = np.empty((n, k), dtype=r.dtype)
    # a triangular matrix with a nonzero diagonal is invertible, so inv
    # cannot raise; its inverse may still overflow to inf or nan
    rows = np.flatnonzero((np.diagonal(tri, axis1=1, axis2=2) != 0).all(axis=1))
    with np.errstate(over="ignore", invalid="ignore"):
        rinv = np.linalg.inv(tri[rows])
        kappa = (np.linalg.norm(tri[rows], axis=(1, 2))
                 * np.linalg.norm(rinv, axis=(1, 2)))
    good = kappa <= _QR_COND_MAX             # false for inf and nan
    done = rows[good]
    steps[done] = np.einsum("nij,nj->ni", rinv[good], qtb[done])
    rest = np.ones(n, dtype=bool)
    rest[done] = False
    if rest.any():
        steps[rest] = _svd_steps(jac[rest], rhs[rest])
    return steps


def _newton_block(t: complex, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Undamped Gauss-Newton from every start row of y (overwritten): each
    step is the minimum-norm least-squares solution of J dy = -f, solved by
    QR, or by SVD for the rare ill-conditioned J (see _lstsq_steps).

    A start stops when its max residual reaches _ROOT_TOL, stalls at or
    below _STALL_TOL (less than a _STALL_RATIO decrease), or is still above
    _WANDER_RES after _WANDER_ITER of the _NEWTON_ITERS iterations; it fails
    when a coordinate turns non-finite or exceeds _DIVERGED in modulus.
    Returns each start's lowest-residual point and whether that residual is
    at most _STALL_TOL without failure.
    """
    n = len(y)
    best_y = y.copy()
    best_res = np.full(n, np.inf)
    prev = np.full(n, np.inf)
    failed = np.zeros(n, dtype=bool)
    live = np.arange(n)
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(_NEWTON_ITERS):
            if not live.size:
                break
            f, jac = _probe_system(t, y[live])
            fmax = np.abs(f).max(axis=1)
            better = fmax < best_res[live]
            best_y[live[better]] = y[live[better]]
            best_res[live[better]] = fmax[better]
            stop = ((fmax <= _ROOT_TOL)
                    # stalled at the rounding floor of a multiple root
                    | ((fmax <= _STALL_TOL) & (fmax > _STALL_RATIO * prev[live]))
                    # wandering; basin unlikely
                    | ((it >= _WANDER_ITER) & (fmax > _WANDER_RES)))
            prev[live] = fmax
            go = ~stop
            live = live[go]
            y[live] += _lstsq_steps(jac[go], -f[go])
            moved = y[live]
            bad = (~np.isfinite(moved).all(axis=1)
                   | (np.abs(moved).max(axis=1) > _DIVERGED))
            failed[live[bad]] = True
            live = live[~bad]
    return best_y, ~failed & (best_res <= _STALL_TOL)


def _is_reducible_like(v: TraceVector, tol: float = 1e-4) -> bool:
    """All six pair traces sit in {2, t^2 - 2}: the diagonal-character locus.

    The tolerance is loose because the locus is singular for the probe
    system, so Newton stalls with coordinate error around sqrt(residual).
    """
    targets = (2.0, v.t * v.t - 2)
    sc = max(1.0, abs(v.t) ** 2)
    return all(min(abs(x - w) for w in targets) <= tol * sc
               for x in _t_pairs(v))


def classify_point(v: TraceVector) -> str:
    """Component id, or one of "reducible", "non-character", "unclassified"."""
    s = s_from_t(v)
    definitive = [*typeI_residuals(s, normalized=True),
                  *typeII_residuals(s, normalized=True)]
    if max(abs(x) for x in definitive) > 1e-6:
        return "non-character"
    if _is_reducible_like(v):
        return "reducible"
    cid, worst = best_membership(v)
    return cid if worst <= 1e-5 else "unclassified"


def explore_solve(t: complex, seed: int,
                  attempts: int) -> list[tuple[TraceVector, str]]:
    """Random-start Gauss-Newton on the combined system {12 trace equations,
    4 type II, 16 type I} over the 10 free coordinates at fixed t.

    Start k draws its real and then its imaginary parts from
    default_rng([seed, k]), scaled by 1.5, and takes undamped least-squares
    steps with the exact Jacobian, solved by QR, or by SVD for the rare
    ill-conditioned Jacobian (see _newton_block and _lstsq_steps); the
    starts run together in blocks of _PROBE_BLOCK, each independently of
    the others.

    Type I relations are part of the solved system: without them the probe
    converges onto large spurious zero sets that are not characters of any
    quadruple. Converged points within 1e-4 of an exact catalog sample are
    snapped onto the first such sample (the stall radius of multiple
    roots); the rest are classified by membership residual. Unclassified
    findings are returned, never dropped. Results come in start order and
    are deterministic for fixed (seed, attempts); the first n of them
    depend only on the first n starts.
    """
    t = complex(t)
    for cid in COMPONENTS:
        check_admissible(cid, t)
    exact = [smp for cid in COMPONENTS for smp in sample_component(cid, t)]
    targets = np.array([[smp.vector.coords()[k] for k in _UNKNOWNS]
                        for smp in exact])
    starts = np.empty((attempts, 10), dtype=complex)
    for k in range(attempts):
        rng = np.random.default_rng([seed, k])
        starts[k].real = rng.standard_normal(10) * 1.5
        starts[k].imag = rng.standard_normal(10) * 1.5
    out = []
    for lo in range(0, attempts, _PROBE_BLOCK):
        best, ok = _newton_block(t, starts[lo:lo + _PROBE_BLOCK])
        found = best[ok]
        near = np.abs(found[:, None, :] - targets).max(axis=2) <= 1e-4
        for y, hit, first in zip(found.tolist(), near.any(axis=1),
                                 near.argmax(axis=1)):
            if hit:
                out.append((exact[first].vector, exact[first].id))
            else:
                v = TraceVector(t, *y)
                out.append((v, classify_point(v)))
    return out
