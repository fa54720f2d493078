"""Executable component catalog: samplers, membership residuals, the
parabolic census, the excellent-component quartic, distinguished points, and
the random-start Newton probe's entry point (explore_solve) and point
classifier; the probe's solver is _probe_kernel's, loaded on first use.

Component ids: X11, X12, X21, X22, X3, X4, X51, X52, X61, X62. The subscript
rotation (`TraceVector.rotate`) interchanges X11/X12, X21/X22, X51/X52,
X61/X62 and fixes X3, X4. The partners X12, X22, X52 and X62 are built from
their bases by it: each partner sample rotates onto a base sample, and a
partner's membership residuals are its base's at the rotated vector.
"""

from __future__ import annotations

import cmath
import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConstraintViolated, ExcludedParameter, UnknownComponent
from .mat2 import _worst
from .numfield import solve_quadratic
from .tracealg import (_NORMALIZE, COORD_KEYS, TraceVector, _t_coords,
                       definitive_excess, s_from_t)
# no catalog code calls it; perfbench/tests/test_perfbench.py's tracer test
# is its only reader here (it checks catalog.typeI_residuals)
from .tracealg import typeI_residuals  # noqa: F401

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
# t^4 - 6t^2 + 4 = 0 is the locus where X4 degenerates to x3 = x1^(-1)
# (u = t^2/2, eta = t, t13 = 2). X4's sampler solves the tower r^2 = 6 - t^2,
# Q_r(u) = u^2 - (t^2 - 1)u + t^2 + 1 - t*r, and excellent_quartic is
# Q_+ Q_-, so its u-discriminant
# 16 t^4 (t^2 - 6)^2 (t^2 - 3)^2 (t^2 - 2t - 1)(t^2 + 2t - 1) is
# Res(Q_+, Q_-)^2 = 16 t^4 (t^2 - 6)^2 times the two u-discriminants, whose
# product is (t^2 - 3)^2 (t^2 - 2t - 1)(t^2 + 2t - 1). The r-branches meet
# where t*r = 0: at t = 0, eta = t(u - 2) + r = +-sqrt6 still separates the
# points; over t^2 = 6 the fiber has two double points, so its four samples
# are not distinct. Over t = +-1 +- sqrt2, where t^2 -+ 2t - 1 = 0, one
# Q_r has a double root
_X4_EXCLUDED = (_SQRT3, -_SQRT3,
                math.sqrt(3 + _SQRT5), -math.sqrt(3 + _SQRT5),
                math.sqrt(3 - _SQRT5), -math.sqrt(3 - _SQRT5),
                math.sqrt(6), -math.sqrt(6),
                1 + _SQRT2, -1 - _SQRT2, _SQRT2 - 1, 1 - _SQRT2)

# +-sqrt3, +-sqrt5: the t = m + 1/m with Delta(m^2) = 0 (Burde-de Rham)
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
    t = _as_t(t, cid)
    # a NaN is near no excluded value: abs(nan - bad) < margin is False
    if not cmath.isfinite(t):
        raise ExcludedParameter(f"{cid}: t = {t} is not finite")
    # a finite t whose modulus overflows, such as 1.5e308+1.5e308j, would
    # make abs(t - bad) raise OverflowError
    if math.isinf(math.hypot(t.real, t.imag)):
        raise ExcludedParameter(f"{cid}: |t| overflows a double at t = {t}")
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

def excellent_quartic(t: complex) -> tuple[complex, ...]:
    """The five coefficients, leading first, of the degree-4 defining
    polynomial of the excellent component in u: its equations lin and q_eta
    with eta eliminated. It factors over Q(t, r), r^2 = 6 - t^2, as
    (u^2 - (t^2 - 1)u + t^2 + 1)^2 - t^2 (6 - t^2), the product of the two
    monic quadratics that sample_component("X4", t) solves.

    A t that is not finite, or whose coefficients overflow, raises
    ExcludedParameter, as sample_component("X4", t) does.
    """
    t = _as_t(t, "X4")
    try:
        coeffs = (1 + 0j, 2 - 2 * t * t, t ** 4 + 3, 2 - 2 * t ** 4,
                  2 * t ** 4 - 4 * t * t + 1)
        # * overflows to inf or NaN without raising, and a NaN t gives NaN
        if all(map(cmath.isfinite, coeffs)):
            return coeffs
    except OverflowError:  # complex ** raises it
        pass
    raise ExcludedParameter(f"X4: quartic coefficients not finite at t = {t}")


def _sorted_roots(roots):
    return sorted(roots, key=lambda z: (round(z.real, 10), round(z.imag, 10)))


def sample_component(cid: str, t: complex) -> list[ComponentSample]:
    """All branch samples of one component over a fixed trace value t.

    Branch enumeration is exhaustive and deterministically ordered; every
    sample satisfies its membership residuals to SAMPLE_TOL. A partner's
    samples (X12, X22, X52, X62) are the points whose rotate() is its
    base's samples (X11, X21, X51, X61), with the base's params and branch
    order; it samples, or raises the base's exception with its own id in
    the message, exactly where its base does. Each call returns new
    samples, with new params dicts, read off _checked_samples.
    """
    check_admissible(cid, t)
    t = complex(t)
    base = _BASE.get(cid, cid)
    # rotate^3 = rotate^-1: each partner sample rotates onto its base
    # sample, so its self-check is the base's, bit for bit
    return [ComponentSample(cid, smp.branch, dict(smp.params),
                            smp.vector if base == cid
                            else smp.vector.rotate().rotate().rotate())
            for smp in _checked_samples(base, t, cid)]


#: each base id's checked samples at the last t they were computed for,
#: under the bits of that t (0j and -0j differ): a partner sampled after its
#: base at the same t reads them
_LAST: dict[str, tuple[bytes, list[ComponentSample]]] = {}
_T_BITS = struct.Struct("<2d").pack


def _checked_samples(base: str, t: complex,
                     who: str) -> list[ComponentSample]:
    """_branch_samples(base, t) after the SAMPLE_TOL self-check, kept in
    _LAST for callers to copy out. A failed check raises with `who` as the
    id and keeps nothing."""
    bits = _T_BITS(t.real, t.imag)
    last = _LAST.get(base)
    if last is not None and last[0] == bits:
        return last[1]
    try:
        samples = _branch_samples(base, t)
        for smp in samples:
            worst = _worst(membership_residual(base, smp.vector).values())
            # complex * overflows to inf or NaN without raising, in the
            # sample or in its residuals; every coordinate is a term of some
            # equation, and a non-finite sum's residual is NaN
            if not math.isfinite(worst):
                raise OverflowError  # reported as ExcludedParameter
            if worst > SAMPLE_TOL:
                raise ConstraintViolated(
                    f"{who} branch {smp.branch}: residual {worst:.3e}")
    except OverflowError:
        # at a very large t, complex ** overflows, and * leaves non-finite
        # coordinates
        raise ExcludedParameter(
            f"{who}: arithmetic overflows at t = {t}") from None
    _LAST[base] = (bits, samples)
    return samples


def _branch_samples(base: str, t: complex) -> list[ComponentSample]:
    """A base component's samples before their self-check."""
    al = _alpha(t)
    samples: list[ComponentSample] = []
    if base == "X11":
        k = 0
        for mu in solve_quadratic(al * al - 4 * al, 4 * al * al - al ** 3):
            roots = solve_quadratic(-mu, 2 * mu / al + al - 4)
            for x, xp in (roots, roots[::-1]):
                samples.append(ComponentSample(
                    base, k, {"t": t, "alpha": al, "mu": mu, "x": x},
                    _x1_vector(t, mu, x, xp)))
                k += 1
    elif base == "X21":
        k = 0
        for z in solve_quadratic(-al, al):
            for g in solve_quadratic((al - 2) * z * z - 2 * z, z * z):
                samples.append(ComponentSample(
                    base, k, {"t": t, "alpha": al, "z": z, "gamma": g},
                    _x2_vector(t, z, g)))
                k += 1
    elif base == "X3":
        for k, u in enumerate(solve_quadratic(-(t * t + 1), 2 * t * t - 1)):
            samples.append(ComponentSample(base, k, {"t": t, "u": u},
                                           _x3_vector(t, u)))
    elif base == "X4":
        # excellent_quartic is Q_+ Q_-, Q_r = u^2 - (t^2 - 1)u + t^2 + 1 - t*r
        # with r^2 = 6 - t^2, and lin gives eta = t(u - 2) + r: no division
        pts = [(u, t * (u - 2) + r) for r in solve_quadratic(0, t * t - 6)
               for u in solve_quadratic(1 - t * t, t * t + 1 - t * r)]
        pts.sort(key=lambda p: [round(x, 10) for z in p
                                for x in (z.real, z.imag)])
        samples = [ComponentSample(base, k, {"t": t, "u": u, "eta": eta},
                                   _x4_vector(t, u, eta))
                   for k, (u, eta) in enumerate(pts)]
    elif base == "X51":
        samples = [ComponentSample(base, 0, {"t": t}, _x5_vector(t))]
    elif base == "X61":
        samples = [ComponentSample(base, 0, {"t": t}, _x6_vector(t))]
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
    if cid in ("X51", "X61"):
        w = _x5_vector(t) if cid == "X51" else _x6_vector(t)
        return {k: (getattr(v, k), -getattr(w, k)) for k in COORD_KEYS[1:]}
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
    keys = np.array([_t_coords(smp.vector) for smp in samples])
    near = (np.abs(keys[:, None] - keys[None]).max(axis=2)
            <= CLUSTER_TOL).tolist()
    kept: list[int] = []
    for i, row in enumerate(near):
        if not any(row[j] for j in kept):
            kept.append(i)
    return [samples[i] for i in kept]


# cached apart from _LAST: a caller sampling another t between censuses
# (verify, every unit) takes the bases' slots
@functools.cache
def _census() -> tuple[ComponentSample, ...]:
    return tuple(_dedup([smp for cid in COMPONENTS
                         for smp in sample_component(cid, 2.0 + 0j)]))


def enumerate_parabolic() -> CensusReport:
    """All component samples on the slice t = 2 (26 classes after dedup),
    computed once; each call returns new samples and containers."""
    kept = [ComponentSample(smp.id, smp.branch, dict(smp.params), smp.vector)
            for smp in _census()]
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

def _abelian_vector(t: complex) -> TraceVector:
    """The abelian character, x1 = x2 = x3 = x4: t_ij = t^2 - 2 and
    t_ijk = t^3 - 3t. Every reducible start of the probe ends at it."""
    d, c = t * t - 2, t ** 3 - 3 * t
    return TraceVector(t, d, d, d, d, d, d, c, c, c, c)


def classify_point(v: TraceVector) -> str:
    """Component id, or one of "reducible", "non-character", "unclassified".

    "reducible" is the Newton loop's own stop test (_probe_kernel._near)
    against the abelian character, the only reducible character at v.t:
    every coordinate within _SNAP_RADIUS of _abelian_vector(v.t).
    """
    if definitive_excess(s_from_t(v), 1e-6):  # NaN included
        return "non-character"
    from ._probe_kernel import _near
    if _near(np.array([_t_coords(v)[1:]]),
             np.array([_t_coords(_abelian_vector(v.t))[1:]]))[0, 0]:
        return "reducible"
    cid, worst = best_membership(v)
    return cid if worst <= 1e-5 else "unclassified"


def _probe_start(seed: int, k: int) -> np.ndarray:
    """Start k of explore_solve(t, seed, ...), the same at every t: the
    real and then the imaginary parts of its ten coordinates are one
    default_rng([seed, k]).standard_normal(20), scaled by 1.5."""
    y = np.empty(10, dtype=complex)
    y.real, y.imag = np.random.default_rng([seed, k]).standard_normal(
        (2, 10)) * 1.5
    return y


def explore_solve(t: complex, seed: int,
                  attempts: int) -> list[tuple[TraceVector, str]]:
    """Random-start Gauss-Newton on the combined system {12 trace equations,
    4 type II, 16 type I} over the 10 free coordinates at fixed t.

    Start k is _probe_start(seed, k). The Newton loop, its step solve and
    its stop rules are _probe_kernel._newton_starts's, which solves each
    type I relation once: the ten distinct ones, weighted so that every
    step is that of all 16. Each start's iterates are bitwise the same
    whatever starts run beside it.

    Type I relations are part of the solved system: without them the probe
    converges onto large spurious zero sets that are not characters of any
    quadruple. The loop is handed the exact catalog samples at t and, last,
    the abelian character (_abelian_vector), a singular root toward which
    every reducible start crawls. A start whose step lands within
    _SNAP_RADIUS (1e-4, the stall radius of multiple roots) of one of these
    points from inside _WANDER_RES stops on the first such point, which is
    its output: a catalog sample with its id, or the abelian character
    labelled "reducible", so a sample wins a tie. Every other converged
    point is labelled by classify_point. On every call compared
    this is the output of running each start on to its root and snapping a
    root within _SNAP_RADIUS of one of these points onto the first such
    point (test_sample_stop_changes_no_explore_output). Unclassified
    findings are returned, never dropped. Results come in start order and
    are deterministic for fixed (seed, attempts); the first n of them
    depend only on the first n starts.
    """
    if attempts < 0:
        raise ValueError(f"attempts must be >= 0, got {attempts}")
    t = _as_t(t, "explore")
    exact = [(smp.vector, smp.id)
             for cid in COMPONENTS for smp in sample_component(cid, t)]
    exact.append((_abelian_vector(t), "reducible"))   # last: samples win ties
    targets = np.array([_t_coords(v)[1:] for v, _ in exact])
    starts = np.empty((attempts, 10), dtype=complex)
    for k in range(attempts):
        starts[k] = _probe_start(seed, k)
    # imported on first use: `import charvar` need not load the probe
    from ._probe_kernel import _newton_starts
    best, ok, on = _newton_starts(t, starts, targets)
    out = []
    for y, j in zip(best[ok].tolist(), on[ok].tolist()):
        if j >= 0:
            out.append(exact[j])
        else:
            v = TraceVector(t, *y)
            out.append((v, classify_point(v)))
    return out
