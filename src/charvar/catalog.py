"""Executable component catalog: samplers, membership residuals, the
parabolic census, the excellent-component quartic, distinguished points, and
a random-start Newton probe over the trace-equation system.

Component ids: X11, X12, X21, X22, X3, X4, X51, X52, X61, X62. The subscript
rotation (`TraceVector.rotate`) interchanges X11/X12, X21/X22, X51/X52,
X61/X62 and fixes X3, X4. The partners X12, X22, X52 and X62 are built from
their bases by it: each partner sample rotates onto a base sample, and a
partner's membership residuals are its base's at the rotated vector.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintViolated, ExcludedParameter, UnknownComponent
from .mat2 import _worst
from .numfield import Poly, solve_quadratic
from .tracealg import (_NORMALIZE, COORD_KEYS, TraceVector, _t_pairs,
                       definitive_excess, s_from_t)
# no catalog code calls these; perfbench/tests/test_perfbench.py's tracer
# test is their only reader here (it checks catalog.typeI_residuals)
from .tracealg import typeI_residuals, typeII_residuals  # noqa: F401

COMPONENTS = ("X11", "X12", "X21", "X22", "X3", "X4",
              "X51", "X52", "X61", "X62")

ROTATION_PAIR = {"X11": "X12", "X12": "X11", "X21": "X22", "X22": "X21",
                 "X3": "X3", "X4": "X4", "X51": "X52", "X52": "X51",
                 "X61": "X62", "X62": "X61"}

#: partner -> base: the partner, the larger id of its pair, is the rotate()
#: image of its base (rotate has order 4, and rotate^2 fixes each component)
_BASE = {p: b for b, p in ROTATION_PAIR.items() if b < p}

#: check_admissible refuses a t this close to an EXCLUDED_T value, and that
#: alone keeps the samplers off their degenerate fibres: outside it, alpha is
#: >= 8.3e-4 from 2 +- 2sqrt2 (X1's and X2's special pairs), and X4's root
#: nearest 1 (a double root over t^2 = 3) is >= 7e-4 from 1
SAMPLER_MARGIN = 1e-3
#: largest normalized membership residual of a sample or special point: the
#: exact ones sit at rounding level (at most 1.2e-14 at 2000 t, |t| <= 2.5)
SAMPLE_TOL = 1e-10

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

_BASE_EXCLUDED = {
    "X11": _EXOTIC_EXCLUDED, "X21": _EXOTIC_EXCLUDED,
    "X3": (_SQRT5, -_SQRT5), "X4": _X4_EXCLUDED,
    "X51": (_SQRT3, -_SQRT3), "X61": (_SQRT3, -_SQRT3, 0.0),
}
#: each partner excludes its base's t
EXCLUDED_T = {cid: _BASE_EXCLUDED[_BASE.get(cid, cid)] for cid in COMPONENTS}


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


def _as_t(t, who: str) -> complex:
    """complex(t), with a t beyond the double range (an int such as 10**400)
    raising ExcludedParameter instead of OverflowError."""
    try:
        return complex(t)
    except OverflowError:
        raise ExcludedParameter(f"{who}: t overflows a complex double") \
            from None


def check_admissible(cid: str, t: complex,
                     margin: float = SAMPLER_MARGIN) -> None:
    if cid not in EXCLUDED_T:
        raise UnknownComponent(f"unknown component id {cid!r}")
    # a NaN is near no excluded value: abs(nan - bad) < margin is False
    if not cmath.isfinite(t):
        raise ExcludedParameter(f"{cid}: t = {t} is not finite")
    for bad in EXCLUDED_T[cid]:
        if abs(t - bad) < margin:
            raise ExcludedParameter(f"{cid}: t too close to {bad}")


# ---------------------------------------------------------------------------
# row constructors (parameters -> trace vector)

def _alpha(t):
    return t * t - 1


def _x1_vector(t, mu, x, xp) -> TraceVector:
    """xp is the other root of x's quadratic, mu - x: t23 = t34 = xp + 1,
    where mu + 1 - x would cancel on the branch where x is near mu."""
    al = _alpha(t)
    tau = (al * al - 3 * al + 4 / al) * mu - al ** 3 + 4 * al * al - 7
    sig_p = (1 / al + 1) * mu - mu * mu / al - 2 + (mu / al) * x
    sig_m = (1 / al + 1) * mu - 2 - (mu / al) * x
    tm = t * mu / al
    return TraceVector(t=t, t12=x + 1, t23=xp + 1, t34=xp + 1,
                       t14=x + 1, t13=1, t24=tau,
                       t123=tm, t124=t * sig_p, t134=tm, t234=t * sig_m)


def _x2_vector(t, z, g) -> TraceVector:
    al = _alpha(t)
    ta = t + t * z * g / al
    tb = t + t * z ** 3 / (al * g)
    return TraceVector(t=t, t12=g + al - 1, t23=z + 1,
                       t34=z * z / g + al - 1, t14=z + 1, t13=1, t24=1,
                       t123=ta, t124=ta, t134=tb, t234=tb)


def _x3_vector(t, u) -> TraceVector:
    d = t * t - 2
    e = t * u - t
    return TraceVector(t=t, t12=u, t23=u, t34=u, t14=u, t13=d, t24=d,
                       t123=e, t124=e, t134=e, t234=e)


def _x4_vector(t, u, eta) -> TraceVector:
    d = 2 * u + 2 - t * t
    return TraceVector(t=t, t12=u, t23=u, t34=u, t14=u, t13=d, t24=d,
                       t123=eta, t124=eta, t134=eta, t234=eta)


def _x5_vector(t) -> TraceVector:
    d = t * t - 2
    return TraceVector(t=t, t12=1, t23=d, t34=1, t14=d, t13=1, t24=1,
                       t123=0, t124=0, t134=0, t234=0)


def _x6_vector(t) -> TraceVector:
    q = 4 * t * t - 2 - t ** 4
    p = 3 * t - t ** 3
    return TraceVector(t=t, t12=1, t23=1, t34=1, t14=1, t13=1, t24=q,
                       t123=0, t124=p, t134=0, t234=p)


# ---------------------------------------------------------------------------
# sampling

def excellent_quartic(t: complex) -> Poly:
    """The degree-4 defining polynomial of the excellent component in u.

    A t that is not finite, or whose coefficients overflow, raises
    ExcludedParameter, as sample_component("X4", t) does.
    """
    t = _as_t(t, "X4")
    try:
        return Poly([1, 2 - 2 * t * t, t ** 4 + 3, 2 - 2 * t ** 4,
                     2 * t ** 4 - 4 * t * t + 1])
    except (OverflowError, ValueError):
        # complex ** raises OverflowError; Poly refuses with a ValueError a
        # coefficient that is inf or NaN (a NaN t, or an overflowing *)
        raise ExcludedParameter(
            f"X4: quartic coefficients not finite at t = {t}") from None


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
        out.append((u, eta))
    out.sort(key=lambda p: [round(x, 10) for z in p for x in (z.real, z.imag)])
    return [ComponentSample("X4", k, {"t": t, "u": u, "eta": eta},
                            _x4_vector(t, u, eta))
            for k, (u, eta) in enumerate(out)]


def sample_component(cid: str, t: complex) -> list[ComponentSample]:
    """All branch samples of one component over a fixed trace value t.

    Branch enumeration is exhaustive and deterministically ordered; every
    sample satisfies its membership residuals to SAMPLE_TOL. A partner's
    samples (X12, X22, X52, X62) are the points whose rotate() is its
    base's samples (X11, X21, X51, X61), with the base's params and branch
    order; it samples, or raises the base's exception with its own id in
    the message, exactly where its base does.
    """
    t = _as_t(t, cid)
    check_admissible(cid, t)
    try:
        samples = _branch_samples(cid, t)
        for smp in samples:
            worst = _worst(membership_residual(cid, smp.vector).values())
            # complex * overflows to inf or NaN without raising, in the
            # sample or in its residuals; every coordinate is a term of some
            # equation, and a non-finite sum's residual is NaN
            if not math.isfinite(worst):
                raise OverflowError  # reported as ExcludedParameter
            if worst > SAMPLE_TOL:
                raise ConstraintViolated(
                    f"{cid} branch {smp.branch}: residual {worst:.3e}")
    except (OverflowError, ValueError):
        # at a very large t, complex ** overflows, numpy's eig refuses an
        # inf or NaN matrix, and * leaves non-finite coordinates
        raise ExcludedParameter(
            f"{cid}: arithmetic overflows at t = {t}") from None
    return samples


def _branch_samples(cid: str, t: complex) -> list[ComponentSample]:
    """sample_component before its self-check."""
    base = _BASE.get(cid, cid)
    al = _alpha(t)
    samples: list[ComponentSample] = []
    if base == "X11":
        k = 0
        for mu in solve_quadratic(1, al * al - 4 * al, 4 * al * al - al ** 3):
            roots = solve_quadratic(1, -mu, 2 * mu / al + al - 4)
            for x, xp in (roots, roots[::-1]):
                samples.append(ComponentSample(
                    cid, k, {"t": t, "alpha": al, "mu": mu, "x": x},
                    _x1_vector(t, mu, x, xp)))
                k += 1
    elif base == "X21":
        k = 0
        for z in solve_quadratic(1, -al, al):
            for g in solve_quadratic(1, (al - 2) * z * z - 2 * z, z * z):
                samples.append(ComponentSample(
                    cid, k, {"t": t, "alpha": al, "z": z, "gamma": g},
                    _x2_vector(t, z, g)))
                k += 1
    elif base == "X3":
        for k, u in enumerate(solve_quadratic(1, -(t * t + 1), 2 * t * t - 1)):
            samples.append(ComponentSample(cid, k, {"t": t, "u": u},
                                           _x3_vector(t, u)))
    elif base == "X4":
        samples = _x4_samples(t)
    elif base == "X51":
        samples = [ComponentSample(cid, 0, {"t": t}, _x5_vector(t))]
    elif base == "X61":
        samples = [ComponentSample(cid, 0, {"t": t}, _x6_vector(t))]
    if base != cid:
        # rotate^3 = rotate^-1: each partner sample rotates onto its base
        # sample, so its self-check is the base's, bit for bit
        samples = [ComponentSample(cid, smp.branch, smp.params,
                                   smp.vector.rotate().rotate().rotate())
                   for smp in samples]
    return samples


# ---------------------------------------------------------------------------
# membership

def membership_terms(cid: str, v: TraceVector) -> dict[str, tuple]:
    """The terms of each of one component's defining equations at v, by
    name: the equation is their sum. Plain field arithmetic, with no abs,
    division or complex(), so sympy symbols work too. Parameters are read
    linearly off v and denominators cleared: each equation is polynomial and
    holds on the component's closure, excluded t included. A partner's
    terms are its base's at v.rotate(), under the base's names."""
    if cid in _BASE:
        cid, v = _BASE[cid], v.rotate()
    t = v.t
    al = _alpha(t)
    one = t ** 0 + 0j   # (1+0j) for any Python number t, NaN too; 1 in sympy
    if cid == "X11":
        al3, al4 = al ** 3, al ** 4
        x = v.t12 - 1
        mu = v.t12 + v.t23 - 2
        return {"t14": (v.t14, -v.t12), "t34": (v.t34, -v.t23),
                "t13": (v.t13, -one),
                "tau": (al * v.t24, -(al3 - 3 * al * al + 4) * mu,
                        al4 - 4 * al3 + 7 * al),
                "tri_a": (al * v.t123, -t * mu),
                "tri_b": (al * v.t134, -t * mu),
                "sig_p": (al * v.t124, -t * (1 + al) * mu, t * mu * mu,
                          2 * t * al, -t * mu * x),
                "sig_m": (al * v.t234, -t * (1 + al) * mu, 2 * t * al,
                          t * mu * x),
                "q_mu": (mu * mu, (al * al - 4 * al) * mu, 4 * al * al - al3),
                "q_x": (al * x * x, -al * mu * x, 2 * mu, al * al - 4 * al)}
    if cid == "X21":
        z = v.t23 - 1
        g = v.t12 - al + 1
        return {"t14": (v.t14, -v.t23),
                "t34g": (g * v.t34, -z * z, -(al - 1) * g),
                "t13": (v.t13, -one), "t24": (v.t24, -one),
                "q_z": (z * z, -al * z, al),
                "q_g": (g * g, ((al - 2) * z * z - 2 * z) * g, z * z),
                "tri_1": (al * v.t123, -al * t, -t * z * g),
                "tri_1b": (v.t124, -v.t123),
                "tri_2": (al * g * v.t134, -al * g * t, -t * z ** 3),
                "tri_2b": (v.t234, -v.t134)}
    if cid == "X3":
        u = v.t12
        w = _x3_vector(t, u)   # v.k - w.k for each k that w does not read
        return {**{k: (getattr(v, k), -getattr(w, k)) for k in COORD_KEYS[2:]},
                "q_u": (u * u, -(t * t + 1) * u, 2 * t * t - 1)}
    if cid == "X4":
        u, eta = v.t12, v.t123
        w = _x4_vector(t, u, eta)
        return {**{k: (getattr(v, k), -getattr(w, k)) for k in COORD_KEYS[2:]
                   if k != "t123"},
                "lin": (t * eta, -u * u, -u, t * t, -one),
                "q_eta": (eta * eta, t * (t * t + 4 - 2 * u) * eta,
                          -5 * t * t * u, t ** 4, 4 * t * t, -6 * one)}
    if cid == "X51":
        d = t * t - 2
        return {"t12": (v.t12 - 1,), "t34": (v.t34 - 1,),
                "t23": (v.t23 - d,), "t14": (v.t14 - d,),
                "t13": (v.t13, -one), "t24": (v.t24, -one),
                "t123": (v.t123,), "t124": (v.t124,),
                "t134": (v.t134,), "t234": (v.t234,)}
    if cid == "X61":
        q = 4 * t * t - 2 - t ** 4
        p = 3 * t - t ** 3
        return {"t12": (v.t12, -one), "t23": (v.t23, -one),
                "t34": (v.t34, -one), "t14": (v.t14, -one),
                "t13": (v.t13, -one), "t24": (v.t24, -q),
                "t123": (v.t123,), "t134": (v.t134,),
                "t124": (v.t124, -p), "t234": (v.t234, -p)}
    raise UnknownComponent(f"unknown component id {cid!r}")


def membership_residual(cid: str, v: TraceVector) -> dict[str, complex]:
    """membership_terms(cid, v), each equation normalized by tracealg's
    helpers. All small means v lies on the component's closure. Every term
    is computed first, so an overflowing power raises before an abs() can."""
    return {k: _NORMALIZE[len(terms)](*terms)
            for k, terms in membership_terms(cid, v).items()}


def best_membership(v: TraceVector) -> tuple[str, float]:
    """Component with the smallest worst-case membership residual; one
    with a NaN residual never wins ("", inf when none is finite)."""
    best, best_val = "", float("inf")
    for cid in COMPONENTS:
        worst = _worst(membership_residual(cid, v).values())
        if worst < best_val:  # False for a NaN
            best, best_val = cid, worst
    return best, best_val


# ---------------------------------------------------------------------------
# parabolic census

#: absolute tolerance of the census dedup: two samples whose coordinates all
#: lie within it of each other are one class
CLUSTER_TOL = 1e-8


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
    the defining system to SAMPLE_TOL."""
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
    # at t = 1 the quartic is u^4 + 4u^2 - 1, so u^2 = -2 +- sqrt5; at
    # t = sqrt5 it is the same quartic in u - 2
    s5 = cmath.sqrt(5)
    roots = [s * cmath.sqrt(-2 + e * s5) for s in (1, -1) for e in (1, -1)]
    for k, u in enumerate(_sorted_roots(roots)):
        pts.append((f"t2_1_root{k}", {"t": 1 + 0j, "u": u, "eta": u * u + u}))
    for eps in (1, -1):
        t = cmath.sqrt(3)
        u = 1 + eps * 1j * cmath.sqrt(6)
        pts.append((f"t2_3_eps{eps:+d}",
                    {"t": t, "u": u, "eta": (u * u + u - 2) / t}))
    for k, u in enumerate(_sorted_roots([2 + r for r in roots])):
        pts.append((f"t2_5_root{k}",
                    {"t": s5, "u": u, "eta": (u * u + u - 4) / s5}))
    for eps in (1, -1):
        t = cmath.sqrt(3 + eps * cmath.sqrt(5))
        pts.append((f"inverse_pattern_eps{eps:+d}",
                    {"t": t, "u": t * t / 2, "eta": t}))
    out = []
    for label, p in pts:
        vec = _x4_vector(p["t"], p["u"], p["eta"])
        worst = _worst(membership_residual("X4", vec).values())
        if not worst <= SAMPLE_TOL:
            raise ConstraintViolated(f"{label}: X4 residual {worst:.3e}")
        out.append((label, p, vec))
    return out


# ---------------------------------------------------------------------------
# Newton probe

#: the Newton loop's working set: at most this many starts are advanced
#: together as one array, and a start that stops hands its row to the next
#: unstarted one (each start's iterates do not depend on it). A row's
#: system [J | -f] takes 5632 bytes, and an iteration about 13.5 KB a row
#: at its peak (the system, np.linalg.qr's copy of it and the R of every
#: row). Each iteration also pays about 100 C-level calls whatever its
#: width (numpy and builtins, as counted by sys.setprofile); 128 rows
#: spread them over more starts (46 iterations for the 200 starts of a
#: call at a probe benchmark panel t, 112 at width 32: the mean of the
#: three panel t at seed 7), and the probe benchmark ran 1.25-1.36x faster
#: than at width 32 with 3% more peak RSS (2-vCPU Xeon VM). One
#: explore_solve(1.7421+0.3885j, 7, 200) peaks at 1.97 MB of traced memory
#: (numpy 2.4, Python 3.11); test_probe_working_memory_is_bounded holds it
#: under 2.2 MB, 12% above.
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
#: a start still above _WANDER_RES after _WANDER_ITER iterations is given
#: up. Nearly all such starts have settled long before (see _SETTLE_STEP);
#: this is the backstop for the rare one that never settles
_WANDER_ITER = 50
_WANDER_RES = 1e-1
#: a start above _WANDER_RES whose step is at most this times
#: max(1, max|y|) has settled at a stationary point of |f|^2 that is not a
#: root, and is given up (MINPACK's x-convergence test, applied above the
#: root floor). Over 50,509 starts at 254 t (|t| < 6, and a few sampler
#: margins from every excluded t), 4,702 of the 4,847 starts given up at
#: _WANDER_ITER had settled so, at a median iteration of 17. No start that
#: converged took a step below 4.5e-5 relative while above _WANDER_RES,
#: 45 times this bound.
_SETTLE_STEP = 1e-6
#: a coordinate beyond this modulus has diverged: far outside every root
_DIVERGED = 1e8
#: largest Frobenius condition number ||R||_F ||R^-1||_F of a step solved
#: from its QR factor, tested squared on the R^-1 of the back substitution:
#: kappa_2 <= kappa_F, so every singular value of such a system is far
#: above lstsq's cutoff and its step is unique (see _augmented_steps)
_QR_COND_MAX = 1e8


def _svd_steps(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solutions of jac[k] x = rhs[k], by
    np.linalg.lstsq(rcond=None) one system at a time: singular values at
    most eps * max(jac shape) times the largest count as zero."""
    steps = np.empty(jac.shape[::2], dtype=np.result_type(jac, rhs))
    for k, (j, r) in enumerate(zip(jac, rhs)):
        steps[k] = np.linalg.lstsq(j, r, rcond=None)[0]
    return steps


def _augmented_steps(aug: np.ndarray) -> np.ndarray:
    """The minimum-norm least-squares solutions of jac[i] x = rhs[i] that
    _svd_steps computes, for the (n, m, k + 1) stack of augmented systems
    aug[i] = [jac[i] | rhs[i]] with m >= k, in any memory layout.

    One batched R-only QR of [jac | rhs] gives R and Q^H rhs for the whole
    stack. Every system is then solved at once by back substitution,
    R [X | x] = [I | Q^H rhs], from the last row up: X = R^-1 and
    x = R^-1 Q^H rhs. A system with
    ||R||_F^2 ||X||_F^2 <= _QR_COND_MAX^2, a Frobenius condition number at
    most _QR_COND_MAX, has full column rank, lstsq drops none of its
    singular values, and its unique solution is x (Golub & Van Loan, Matrix
    Computations, 5.3); back substitution is backward stable (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 8), so the two
    agree to about kappa * eps. Every other system (rank-deficient, where a
    zero diagonal of R makes X inf or nan, ill-conditioned, or with an X
    that overflows) is solved by _svd_steps, numpy's lstsq one system at a
    time. For finite input no LinAlgError is raised. Each row's step is the
    same bytes whatever rows share its stack.
    """
    n, _, k = aug.shape
    k -= 1
    r = np.linalg.qr(aug, mode="r")
    # contiguous: .view(float) refuses a strided view, and matmul on one
    # need not give the same bytes
    tri = r[:, :k, :k].copy()
    z = np.empty((n, k, k + 1), dtype=aug.dtype)   # [X | x]
    z[:, :, :k] = np.eye(k)
    z[:, :, k] = r[:, :k, k]
    del r
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for i in range(k - 1, -1, -1):
            z[:, i] -= np.matmul(tri[:, i:i + 1, i + 1:], z[:, i + 1:])[:, 0]
            z[:, i] /= tri[:, i, i:i + 1]     # * (1 / r_ii) rounds otherwise
        tf, xf = tri.view(float), z[:, :, :k].view(float)
        bad = ~(np.einsum("nij,nij->n", tf, tf)
                * np.einsum("nij,nij->n", xf, xf)
                <= _QR_COND_MAX ** 2)         # true for inf and nan
    steps = z[:, :, k].copy()
    if bad.any():
        steps[bad] = _svd_steps(aug[bad, :, :k], aug[bad, :, k])
    return steps


def _newton_starts(t: complex, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Undamped Gauss-Newton from every start row of y (overwritten): each
    step is the minimum-norm least-squares solution of J dy = -f, solved by
    QR, or by numpy's lstsq for the rare ill-conditioned J (see
    _augmented_steps).

    At most _PROBE_BLOCK starts are live at a time, in start order; when a
    start stops or fails, or has taken _NEWTON_ITERS steps, the next
    unstarted one takes its row. An iteration builds one (n, 32, 11) array
    [J | -f] of its n live rows (_ProbeSystem, whose per-t tables are made
    once per call), applies the stop rules, keeps the rows that go on, in
    order, and solves them (_augmented_steps); it then checks each step. A
    start stops when its max residual reaches _ROOT_TOL, stalls at or below
    _STALL_TOL (less than a _STALL_RATIO decrease), or is still above
    _WANDER_RES after _WANDER_ITER of its iterations. It also stops once
    its residual is above _WANDER_RES and its step at most _SETTLE_STEP
    times max(1, max|y|): settled at a stationary point of |f|^2 that is
    not a root, it would be given up at _WANDER_ITER anyway. It fails when
    a coordinate turns non-finite or exceeds _DIVERGED in modulus. Every rule reads only the start's own residual, step and y.
    Returns each start's lowest-residual point and whether that residual is
    at most _STALL_TOL without failure.
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
            live, aug = live[~stop], aug[~stop]
            steps = _augmented_steps(aug)
            del aug                           # before the next one is built
            # settled above the root floor: stationary, but not at a root
            scale = np.maximum(np.abs(y[live]).max(axis=1), 1.0)
            settled = ((prev[live] > _WANDER_RES)
                       & (np.abs(steps).max(axis=1) <= _SETTLE_STEP * scale))
            y[live] += steps
            del steps
            moved = y[live]
            bad = (~np.isfinite(moved).all(axis=1)
                   | (np.abs(moved).max(axis=1) > _DIVERGED))
            failed[live[bad]] = True
            live = live[~(bad | settled)]
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
    steps with the exact Jacobian, solved by QR, or by numpy's lstsq for
    the rare ill-conditioned Jacobian (see _newton_starts and
    _augmented_steps). A start whose steps have shrunk to nothing while its
    residual is still above _WANDER_RES has settled off every root and is
    given up at once. Up to _PROBE_BLOCK starts run together as one array,
    and a finished start's row is refilled with the next unstarted one;
    each start's iterates are bitwise the same whatever starts share its
    array. Snapping compares at most _PROBE_BLOCK converged points at a
    time with the samples, so its temporaries stay below the Newton
    loop's.

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
    t = _as_t(t, "explore")
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
