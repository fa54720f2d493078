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

from .errors import ConstraintViolated, ExcludedParameter, UnknownComponent
from .numfield import CLUSTER_TOL, Poly, solve_poly, solve_quadratic
from .tracealg import (COORD_KEYS, TraceVector, _t_pairs, definitive_excess,
                       s_from_t)
# no catalog code calls these; perfbench/tests/test_perfbench.py's tracer
# test is their only reader here (it checks catalog.typeI_residuals)
from .tracealg import typeI_residuals, typeII_residuals  # noqa: F401

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
# t^4 - 6t^2 + 4 = 0 is the locus where X4 degenerates to x3 = x1^(-1); the
# u-discriminant of excellent_quartic is
# 16 t^4 (t^2 - 6)^2 (t^2 - 3)^2 (t^2 - 2t - 1)(t^2 + 2t - 1): over t^2 = 6
# the fiber has two double points, so its four samples are not distinct
_X4_EXCLUDED = (_SQRT3, -_SQRT3,
                math.sqrt(3 + _SQRT5), -math.sqrt(3 + _SQRT5),
                math.sqrt(3 - _SQRT5), -math.sqrt(3 - _SQRT5),
                math.sqrt(6), -math.sqrt(6))

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
    if cid not in EXCLUDED_T:
        raise UnknownComponent(f"unknown component id {cid!r}")
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


def _x4_samples(t: complex) -> list[ComponentSample]:
    """The four X4 points (u, eta) over t, read off one 4x4 matrix.

    Under weights (2, 3) on (u, eta) the X4 equations lead with the coprime
    u^2 and eta^2: a Groebner basis for every t. Row i of m_u (m_eta) is u
    (eta) times element i of the quotient basis (1, u, eta, u*eta), and no
    entry divides by t. m_u + c*m_eta has eigenvectors (1, u, eta, u*eta),
    scaled; points i, j share an eigenvalue when c*(u_i + u_j + 1) = -t. So
    c = 1 fails at t = -1, c = -1 at t = 1, both only where points coincide:
    keep the shift with the larger least gap, then take one Newton step.
    """
    t2 = t * t
    t4 = t2 * t2
    m_u = ((0, 1, 0, 0), (t2 - 1, -1, t, 0), (0, 0, 0, 1),
           (-t * (t4 + 4 * t2 - 6), 5 * t2 * t, -t4 - 3 * t2 - 1, 2 * t2 - 1))
    m_eta = ((0, 0, 1, 0), (0, 0, 0, 1),
             (-t4 - 4 * t2 + 6, 5 * t2, -t * (t2 + 4), 2 * t),
             (-t2 * (2 * t4 + 3 * t2 - 7), 9 * t4 - 9 * t2 + 6,
              -t * (2 * t4 + t2 + 2), t * (3 * t2 - 6)))
    # summed in Python: an overflow reaches eig as inf or NaN, a ValueError
    w, v = np.linalg.eig(np.array(
        [[[a + c * b for a, b in zip(ru, re)] for ru, re in zip(m_u, m_eta)]
         for c in (1, -1)], dtype=complex))
    gaps = np.abs(w[:, :, None] - w[:, None, :]) + np.diag(np.full(4, np.inf))
    out = []
    for vec in v[gaps.min(axis=(1, 2)).argmax()].T.tolist():
        u, eta = vec[1] / vec[0], vec[2] / vec[0]
        f1, f2 = _x4_system(t, u, eta)
        j11, j12 = -2 * u - 1, t
        j21, j22 = -2 * t * eta - 5 * t2, 2 * eta + t * (t2 + 4 - 2 * u)
        det = j11 * j22 - j12 * j21
        u -= (f1 * j22 - f2 * j12) / det
        eta -= (f2 * j11 - f1 * j21) / det
        if abs(u - 1) <= GUARD_MARGIN:  # the quartic at u = 1 is (t^2 - 3)^2
            raise ExcludedParameter("X4: u = 1 branch")
        out.append((u, eta))
    out.sort(key=lambda p: [round(x, 10) for z in p for x in (z.real, z.imag)])
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
    try:
        samples = _branch_samples(cid, t)
        for smp in samples:
            # `not (value <= tol)` and no max over all values: a NaN fails
            over = [abs(r) for r in smp.residuals().values()
                    if not abs(r) <= 1e-10]
            if over:
                raise ConstraintViolated(
                    f"{cid} branch {smp.branch}: residual {max(over):.3e}")
    except (OverflowError, ValueError):
        # at a very large t, complex ** overflows, and a quartic coefficient
        # that reached inf is refused by Poly
        raise ExcludedParameter(
            f"{cid}: arithmetic overflows at t = {t}") from None
    return samples


def _branch_samples(cid: str, t: complex) -> list[ComponentSample]:
    """sample_component before its self-check."""
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
    return samples


# ---------------------------------------------------------------------------
# membership

# one helper per arity: a variadic _n(*terms) gave the same bits but made
# membership_residual 65% slower per call (17.5 against 10.6 us) and
# perfbench verify about 3% slower (8 of 8 alternating pairs)
def _n1(a):
    return (0 + a) / max(1.0, abs(a))


def _n2(a, b):
    return (0 + a + b) / max(1.0, abs(a), abs(b))


def _n3(a, b, c):
    return (0 + a + b + c) / max(1.0, abs(a), abs(b), abs(c))


def _n4(a, b, c, d):
    return (0 + a + b + c + d) / max(1.0, abs(a), abs(b), abs(c), abs(d))


def _n5(a, b, c, d, e):
    return ((0 + a + b + c + d + e)
            / max(1.0, abs(a), abs(b), abs(c), abs(d), abs(e)))


def _n6(a, b, c, d, e, f):
    return ((0 + a + b + c + d + e + f)
            / max(1.0, abs(a), abs(b), abs(c), abs(d), abs(e), abs(f)))


def membership_residual(cid: str, v: TraceVector) -> dict[str, complex]:
    """Residuals of one component's defining equations at v.

    Parameters are recovered linearly from the vector; denominators in alpha
    and gamma are cleared, so the residuals are polynomial and meaningful on
    component closures (exclusion guards are deliberately not part of the
    test). All residuals small means v lies on the closure.

    Each residual is normalized as tracealg's kernels are: its terms, passed
    to `_n1` .. `_n6` by count, are summed left to right from 0 and divided
    by max(1, largest term magnitude). The powers are taken first, so an
    overflowing power raises before an abs() that overflows can.
    """
    t = v.t
    al = _alpha(t)
    one = complex(1)
    if cid in ("X11", "X12"):
        al3, al4 = al ** 3, al ** 4
        x = v.t12 - 1
        if cid == "X11":
            mu = v.t12 + v.t23 - 2
            r = {"t14": _n2(v.t14, -v.t12), "t34": _n2(v.t34, -v.t23),
                 "t13": _n2(v.t13, -one)}
            tau_slot, e_a, e_b, e_p, e_m = v.t24, v.t123, v.t134, v.t124, v.t234
        else:
            mu = v.t12 + v.t34 - 2
            r = {"t23": _n2(v.t23, -v.t12), "t14": _n2(v.t14, -v.t34),
                 "t24": _n2(v.t24, -one)}
            tau_slot, e_a, e_b, e_p, e_m = v.t13, v.t124, v.t234, v.t123, v.t134
        r["tau"] = _n3(al * tau_slot, -(al3 - 3 * al * al + 4) * mu,
                       al4 - 4 * al3 + 7 * al)
        r["tri_a"] = _n2(al * e_a, -t * mu)
        r["tri_b"] = _n2(al * e_b, -t * mu)
        r["sig_p"] = _n5(al * e_p, -t * (1 + al) * mu, t * mu * mu,
                         2 * t * al, -t * mu * x)
        r["sig_m"] = _n4(al * e_m, -t * (1 + al) * mu, 2 * t * al, t * mu * x)
        r["q_mu"] = _n3(mu * mu, (al * al - 4 * al) * mu, 4 * al * al - al3)
        r["q_x"] = _n4(al * x * x, -al * mu * x, 2 * mu, al * al - 4 * al)
        return r
    if cid in ("X21", "X22"):
        if cid == "X21":
            z = v.t23 - 1
            g = v.t12 - al + 1
            z3 = z ** 3
            r = {"t14": _n2(v.t14, -v.t23),
                 "t34g": _n3(g * v.t34, -z * z, -(al - 1) * g)}
            e1a, e1b, e2a, e2b = v.t123, v.t124, v.t134, v.t234
        else:
            z = v.t12 - 1
            g = v.t23 - al + 1
            z3 = z ** 3
            r = {"t34": _n2(v.t34, -v.t12),
                 "t14g": _n3(g * v.t14, -z * z, -(al - 1) * g)}
            e1a, e1b, e2a, e2b = v.t123, v.t234, v.t124, v.t134
        r["t13"] = _n2(v.t13, -one)
        r["t24"] = _n2(v.t24, -one)
        r["q_z"] = _n3(z * z, -al * z, al)
        r["q_g"] = _n3(g * g, ((al - 2) * z * z - 2 * z) * g, z * z)
        r["tri_1"] = _n3(al * e1a, -al * t, -t * z * g)
        r["tri_1b"] = _n2(e1b, -e1a)
        r["tri_2"] = _n3(al * g * e2a, -al * g * t, -t * z3)
        r["tri_2b"] = _n2(e2b, -e2a)
        return r
    if cid == "X3":
        u = v.t12
        d = t * t - 2
        e = t * u - t
        return {"t23": _n2(v.t23, -u), "t34": _n2(v.t34, -u),
                "t14": _n2(v.t14, -u), "t13": _n2(v.t13, -d),
                "t24": _n2(v.t24, -d), "t123": _n2(v.t123, -e),
                "t124": _n2(v.t124, -e), "t134": _n2(v.t134, -e),
                "t234": _n2(v.t234, -e),
                "q_u": _n3(u * u, -(t * t + 1) * u, 2 * t * t - 1)}
    if cid == "X4":
        u = v.t12
        eta = v.t123
        d = 2 * u + 2 - t * t
        t4 = t ** 4
        return {"t23": _n2(v.t23, -u), "t34": _n2(v.t34, -u),
                "t14": _n2(v.t14, -u), "t13": _n2(v.t13, -d),
                "t24": _n2(v.t24, -d), "t124": _n2(v.t124, -eta),
                "t134": _n2(v.t134, -eta), "t234": _n2(v.t234, -eta),
                "lin": _n5(t * eta, -u * u, -u, t * t, -one),
                "q_eta": _n6(eta * eta, t * (t * t + 4 - 2 * u) * eta,
                             -5 * t * t * u, t4, 4 * t * t, -6 * one)}
    if cid in ("X51", "X52"):
        d = t * t - 2
        if cid == "X51":
            r = {"t12": _n1(v.t12 - 1), "t34": _n1(v.t34 - 1),
                 "t23": _n1(v.t23 - d), "t14": _n1(v.t14 - d)}
        else:
            r = {"t23": _n1(v.t23 - 1), "t14": _n1(v.t14 - 1),
                 "t12": _n1(v.t12 - d), "t34": _n1(v.t34 - d)}
        r["t13"] = _n2(v.t13, -one)
        r["t24"] = _n2(v.t24, -one)
        r["t123"] = _n1(v.t123)
        r["t124"] = _n1(v.t124)
        r["t134"] = _n1(v.t134)
        r["t234"] = _n1(v.t234)
        return r
    if cid in ("X61", "X62"):
        q = 4 * t * t - 2 - t ** 4
        p = 3 * t - t ** 3
        r = {"t12": _n2(v.t12, -one), "t23": _n2(v.t23, -one),
             "t34": _n2(v.t34, -one), "t14": _n2(v.t14, -one)}
        if cid == "X61":
            r.update(t13=_n2(v.t13, -one), t24=_n2(v.t24, -q),
                     t123=_n1(v.t123), t134=_n1(v.t134),
                     t124=_n2(v.t124, -p), t234=_n2(v.t234, -p))
        else:
            r.update(t24=_n2(v.t24, -one), t13=_n2(v.t13, -q),
                     t124=_n1(v.t124), t234=_n1(v.t234),
                     t123=_n2(v.t123, -p), t134=_n2(v.t134, -p))
        return r
    raise UnknownComponent(f"unknown component id {cid!r}")


def best_membership(v: TraceVector) -> tuple[str, float]:
    """Component with the smallest worst-case membership residual; one
    with a NaN residual never wins ("", inf when none is finite)."""
    best, best_val = "", float("inf")
    for cid in COMPONENTS:
        res = [abs(x) for x in membership_residual(cid, v).values()]
        worst = max(res)
        # `not (x <= worst)` holds for a NaN, which max() drops unless first
        if all(x <= worst for x in res) and worst < best_val:
            best, best_val = cid, worst
    return best, best_val


# ---------------------------------------------------------------------------
# parabolic census

def _dedup(samples: list[ComponentSample]) -> list[ComponentSample]:
    """The samples in order, less each one whose coordinates all lie within
    CLUSTER_TOL of a sample kept before it."""
    keys = np.array([list(smp.vector.coords().values()) for smp in samples])
    near = (np.abs(keys[:, None] - keys[None]).max(axis=2)
            <= CLUSTER_TOL).tolist()
    kept: list[int] = []
    for i, row in enumerate(near):
        if not any(row[j] for j in kept):
            kept.append(i)
    return [samples[i] for i in kept]


def enumerate_parabolic() -> CensusReport:
    """All component samples on the slice t = 2 (26 classes after dedup)."""
    kept = _dedup([smp for cid in COMPONENTS
                   for smp in sample_component(cid, 2.0 + 0j)])
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
        over = [abs(x) for x in membership_residual("X4", vec).values()
                if not abs(x) <= 1e-10]
        if over:
            raise ConstraintViolated(f"{label}: X4 residual {max(over):.3e}")
        out.append((label, p, vec))
    return out


# ---------------------------------------------------------------------------
# Newton probe

#: the Newton loop's working set: at most this many starts are advanced
#: together as one array, and a start that stops hands its row to the next
#: unstarted one (each start's iterates do not depend on it). A row's
#: system [J | -f] takes 5632 bytes, and an iteration about 12 KB a row at
#: its peak (the system, then np.linalg.qr's copies of _SOLVE_BLOCK systems
#: and of their R). Each iteration also pays about 80 numpy calls whatever
#: its width; 128 rows spread them over more starts (68 iterations for the
#: 200 starts of a probe benchmark call, 158 at width 32) while the probe
#: benchmark's peak RSS stays within 2% of width 32's (160 and 200 rows ran
#: a few % faster at +3% and +4% RSS). One explore_solve(1.7421+0.3885j,
#: 7, 200) peaks at 1.71 MB of traced memory (numpy 2.4, Python 3.11);
#: test_probe_working_memory_is_bounded holds it under 2.2 MB, 29% above.
_PROBE_BLOCK = 128

# Newton stop rules (see _newton_starts), on the max raw residual of a start

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
#: systems factored per np.linalg.qr call: it copies its whole input and
#: then R, so this bounds those copies at a wide working set (_PROBE_BLOCK)
_SOLVE_BLOCK = 64


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
    return _augmented_steps(np.concatenate([jac, rhs[:, :, None]], axis=2))


def _augmented_steps(aug: np.ndarray) -> np.ndarray:
    """_lstsq_steps of the (n, m, k + 1) stack aug[i] = [jac[i] | rhs[i]],
    in any memory layout, _SOLVE_BLOCK systems at a time."""
    if len(aug) > _SOLVE_BLOCK:
        return np.concatenate([_augmented_steps(aug[lo:lo + _SOLVE_BLOCK])
                               for lo in range(0, len(aug), _SOLVE_BLOCK)])
    n, _, k = aug.shape
    k -= 1
    r = np.linalg.qr(aug, mode="r")
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
        steps[rest] = _svd_steps(aug[rest, :, :k], aug[rest, :, k])
    return steps


def _newton_starts(t: complex, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Undamped Gauss-Newton from every start row of y (overwritten): each
    step is the minimum-norm least-squares solution of J dy = -f, solved by
    QR, or by SVD for the rare ill-conditioned J (see _lstsq_steps).

    At most _PROBE_BLOCK starts are live at a time, in start order; when a
    start stops or fails, or has taken _NEWTON_ITERS steps, the next
    unstarted one takes its row. An iteration builds one (n, 32, 11) array
    [J | -f] of its n live rows (_ProbeSystem, whose per-t tables are made
    once per call), applies the stop rules, moves each row that goes on
    into the place of a stopped one before it, so that they fill the front
    of the array, and solves them there (_augmented_steps); it then checks
    each step for divergence. A start stops when its max residual reaches
    _ROOT_TOL, stalls at or below _STALL_TOL (less than a _STALL_RATIO
    decrease), or is still above _WANDER_RES after _WANDER_ITER of its
    iterations; it fails when a coordinate turns non-finite or exceeds
    _DIVERGED in modulus. Returns each start's lowest-residual point and
    whether that residual is at most _STALL_TOL without failure.
    """
    n = len(y)
    best_y = y.copy()
    best_res = np.full(n, np.inf)
    prev = np.full(n, np.inf)
    failed = np.zeros(n, dtype=bool)
    iters = np.zeros(n, dtype=int)            # iterations each start has taken
    live = np.arange(min(n, _PROBE_BLOCK))
    unstarted = live.size                     # the next start to take a row
    # imported on first use: `import charvar` need not load the kernel
    from ._probe_kernel import _ProbeSystem
    system = _ProbeSystem(t)
    with np.errstate(over="ignore", invalid="ignore"):
        while live.size:
            aug = system(y[live])
            fmax = np.abs(aug[:, :, -1]).max(axis=1)   # |f|
            better = fmax < best_res[live]
            best_y[live[better]] = y[live[better]]
            best_res[live[better]] = fmax[better]
            stop = ((fmax <= _ROOT_TOL)
                    # stalled at the rounding floor of a multiple root
                    | ((fmax <= _STALL_TOL) & (fmax > _STALL_RATIO * prev[live]))
                    # wandering; basin unlikely
                    | ((iters[live] >= _WANDER_ITER) & (fmax > _WANDER_RES)))
            prev[live] = fmax
            if stop.any():
                # a stopped row before the cut takes a later row that goes on
                cut = live.size - np.count_nonzero(stop)
                holes = np.flatnonzero(stop[:cut])
                movers = cut + np.flatnonzero(~stop[cut:])
                aug[holes] = aug[movers]
                live[holes] = live[movers]
                live, aug = live[:cut], aug[:cut]
            y[live] += _augmented_steps(aug)
            del aug                           # before the next one is built
            moved = y[live]
            bad = (~np.isfinite(moved).all(axis=1)
                   | (np.abs(moved).max(axis=1) > _DIVERGED))
            failed[live[bad]] = True
            live = live[~bad]
            iters[live] += 1
            live = live[iters[live] < _NEWTON_ITERS]
            refill = min(_PROBE_BLOCK - live.size, n - unstarted)
            live = np.concatenate(
                [live, np.arange(unstarted, unstarted + refill)])
            unstarted += refill
    return best_y, ~failed & (best_res <= _STALL_TOL)


def _is_reducible_like(v: TraceVector) -> bool:
    """All six pair traces sit in {2, t^2 - 2}: the diagonal-character locus.

    The tolerance is loose because the locus is singular for the probe
    system, so Newton stalls with coordinate error around sqrt(residual).
    """
    targets = (2.0, v.t * v.t - 2)
    sc = max(1.0, abs(v.t) ** 2)
    return all(min(abs(x - w) for w in targets) <= 1e-4 * sc
               for x in _t_pairs(v))


def classify_point(v: TraceVector) -> str:
    """Component id, or one of "reducible", "non-character", "unclassified"."""
    if definitive_excess(s_from_t(v), 1e-6):  # NaN included
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
    ill-conditioned Jacobian (see _newton_starts and _lstsq_steps). Up to
    _PROBE_BLOCK starts run together as one array, and a finished start's
    row is refilled with the next unstarted one; each start's iterates are
    bitwise the same whatever starts share its array. Snapping compares
    at most _PROBE_BLOCK converged points at a time with the samples, so
    its temporaries stay below the Newton loop's.

    Type I relations are part of the solved system: without them the probe
    converges onto large spurious zero sets that are not characters of any
    quadruple. Converged points within 1e-4 of an exact catalog sample are
    snapped onto the first such sample (the stall radius of multiple
    roots); the rest are classified by membership residual. Unclassified
    findings are returned, never dropped. Results come in start order and
    are deterministic for fixed (seed, attempts); the first n of them
    depend only on the first n starts.
    """
    if attempts < 0:
        raise ValueError(f"attempts must be >= 0, got {attempts}")
    t = complex(t)
    for cid in COMPONENTS:
        check_admissible(cid, t)
    exact = [smp for cid in COMPONENTS for smp in sample_component(cid, t)]
    targets = np.array([[smp.vector.coords()[k] for k in COORD_KEYS[1:]]
                        for smp in exact])
    starts = np.empty((attempts, 10), dtype=complex)
    for k in range(attempts):
        rng = np.random.default_rng([seed, k])
        starts[k].real = rng.standard_normal(10) * 1.5
        starts[k].imag = rng.standard_normal(10) * 1.5
    best, ok = _newton_starts(t, starts)
    found = best[ok]
    out = []
    for lo in range(0, len(found), _PROBE_BLOCK):
        chunk = found[lo:lo + _PROBE_BLOCK]
        near = np.abs(chunk[:, None, :] - targets).max(axis=2) <= 1e-4
        for y, hit, first in zip(chunk.tolist(), near.any(axis=1),
                                 near.argmax(axis=1)):
            if hit:
                out.append((exact[first].vector, exact[first].id))
            else:
                v = TraceVector(t, *y)
                out.append((v, classify_point(v)))
    return out
