"""Realize matrix quadruples from trace coordinates.

The generic path factors a 3x3 Gram matrix of traceless parts over the fixed
basis e1, e2, e3 (Gram form diag(2, 2, -2)) by its Takagi factorization, the
factor of least norm, pins the alternating-form sign, and extends by the
unique fourth matrix. Characters whose four triple invariants all vanish are
handled by explicit two-generator patterns.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import (ConstraintViolated, DegenerateCharacter,
                     FactorizationFailure, S44Mismatch, SmallS123,
                     TraceMismatch, TypeIIViolated)
from .mat2 import Mat2, scalar
from .tracealg import (SCoords, TRIPLES, TraceVector, _block, _gram,
                       s_from_t, trace_vector_of, typeI_residuals,
                       typeII_residuals)

#: fixed traceless basis; tr(e_i e_j) = diag(2, 2, -2), tr(e1 e2 e3) = -2
E1 = Mat2(1, 0, 0, -1)
E2 = Mat2(0, 1, 1, 0)
E3 = Mat2(0, 1, -1, 0)

_SQRT2 = cmath.sqrt(2)
#: inverse of N = diag(sqrt2, sqrt2, i*sqrt2), for which N^T N = diag(2,2,-2)
_N_INV = np.diag([1 / _SQRT2, 1 / _SQRT2, -1j / _SQRT2])

ROLE_THRESHOLD = 1e-7


@dataclass(frozen=True, slots=True)
class Quadruple:
    """Ordered (x1, x2, x3, x4) in G(t)^4."""

    x1: Mat2
    x2: Mat2
    x3: Mat2
    x4: Mat2
    t: complex

    def matrices(self) -> tuple[Mat2, Mat2, Mat2, Mat2]:
        return (self.x1, self.x2, self.x3, self.x4)

    def trace_vector(self) -> TraceVector:
        return trace_vector_of(*self.matrices())

    def validate(self) -> None:
        for m in self.matrices():
            if abs(m.det() - 1) > 1e-9 * max(1.0, m.norm() ** 2):
                raise ConstraintViolated(f"det = {m.det()}")
            if abs(m.trace() - self.t) > 1e-9 * max(1.0, abs(self.t)):
                raise TraceMismatch(f"trace {m.trace()} vs t = {self.t}")

    def conjugated(self, g: Mat2) -> "Quadruple":
        gi = g.inverse()
        return Quadruple(*(g @ m @ gi for m in self.matrices()), t=self.t)

    def to_json(self):
        return {"t": [self.t.real, self.t.imag],
                **{f"x{i}": m.to_json()
                   for i, m in enumerate(self.matrices(), start=1)}}


def factor_symmetric(S: np.ndarray) -> np.ndarray:
    """Return M with M^T M = S for complex symmetric S.

    Autonne-Takagi factorization S = V diag(sigma) V^T, with V unitary and
    sigma the singular values of S (Horn & Johnson, Matrix Analysis, 4.4),
    read off one eigh of the real symmetric H = [[Re S, Im S], [Im S, -Re S]].
    Its eigenvalues are +-sigma, and an eigenvector [x; y] for sigma gives a
    column v = x + iy of V with S conj(v) = sigma v. M = diag(sqrt sigma) V^T
    has the least ||M||_F of all factors, ||M||_F^2 = sum(sigma): it is the
    balanced frame, whose entries, and so whose rounding, are as small as S
    allows.
    """
    S = np.asarray(S, dtype=complex)
    n = S.shape[0]
    a, b = S.real, S.imag
    sigma, vec = np.linalg.eigh(np.block([[a, b], [b, -a]]))
    v = vec[:n, n:] + 1j * vec[n:, n:]
    # rounding can leave a zero singular value slightly negative
    m = np.sqrt(np.abs(sigma[n:]))[:, None] * v.T
    err = np.abs(m.T @ m - S).max()
    if err <= 1e-8 * max(1.0, np.abs(S).max()):
        return m
    raise FactorizationFailure(f"M^T M misses S by {err:.3e}")


def _mat_from_coords(col: np.ndarray) -> Mat2:
    return col[0] * E1 + col[1] * E2 + col[2] * E3


def realize_triple(t: complex, S, s123: complex) -> tuple[Mat2, Mat2, Mat2]:
    """Unique-up-to-conjugacy triple in G(t)^3 with the given traceless Gram
    matrix S (diagonal s0 = t^2/2 - 2) and alternating invariant s123 != 0."""
    S = np.asarray(S, dtype=complex)
    s0 = t * t / 2 - 2
    sc = max(1.0, np.abs(S).max(), abs(s123) ** 2)
    if np.abs(np.diag(S) - s0).max() > 1e-8 * max(1.0, abs(s0)):
        raise ConstraintViolated("Gram diagonal differs from s0")
    if abs(s123) <= 1e-9:
        raise SmallS123(f"|s123| = {abs(s123):.3e}")
    det_s = np.linalg.det(S)
    if abs(2 * s123 * s123 + det_s) > 1e-8 * sc ** 2:
        raise ConstraintViolated(
            f"2 s123^2 + det S = {2 * s123 * s123 + det_s}")
    A = _N_INV @ factor_symmetric(S)
    # the two sign choices differ by tr(u1 u2 u3) = -2 det(A)
    if abs(-2 * np.linalg.det(A) - s123) > abs(2 * np.linalg.det(A) - s123):
        A = -A
    us = [_mat_from_coords(A[:, i]) for i in range(3)]
    xs = tuple(u + scalar(t / 2) for u in us)
    for i in range(3):
        for j in range(3):
            got = (us[i] @ us[j]).trace()
            if abs(got - S[i, j]) > 1e-9 * sc:
                raise ConstraintViolated("realized pair traces off target")
    return xs


def _extend(us: dict[int, Mat2], s: SCoords, role, d: int,
            t: complex) -> Mat2:
    """Fourth matrix from the triple's traceless parts via the unique linear
    combination matching all prescribed invariants."""
    a, b, c = role
    den = s.triple(a, b, c)
    ca = s.triple(b, c, d) / den
    cb = -s.triple(a, c, d) / den
    cc = s.triple(a, b, d) / den
    ud = ca * us[a] + cb * us[b] + cc * us[c]
    sc = max(1.0, abs(s.s0), ud.norm() ** 2)
    s44 = (ud @ ud).trace()
    if abs(s44 - s.s0) > 1e-8 * sc:
        raise S44Mismatch(f"tr(u4^2) = {s44}, s0 = {s.s0}")
    for i in role:
        got = (us[i] @ ud).trace()
        if abs(got - s.pair(i, d)) > 1e-8 * sc:
            raise TypeIIViolated(f"pair invariant ({i},{d}) off target")
    return ud + scalar(t / 2)


def extend_to_quadruple(triple: tuple[Mat2, Mat2, Mat2], t: complex,
                        s14: complex, s24: complex, s34: complex,
                        s124: complex, s134: complex, s234: complex) -> Mat2:
    """Extend a realized triple (x1, x2, x3) by the unique x4 hitting the
    given pair and triple invariants; the four linear compatibility relations
    must already hold."""
    us = {i + 1: x.traceless_part() for i, x in enumerate(triple)}
    s123 = (us[1] @ us[2] @ us[3]).trace()
    if abs(s123) <= 1e-9:
        raise SmallS123(f"|s123| = {abs(s123):.3e}")
    vals = {"s0": t * t / 2 - 2, "s123": s123,
            "s14": s14, "s24": s24, "s34": s34,
            "s124": s124, "s134": s134, "s234": s234}
    for (i, j) in ((1, 2), (2, 3), (1, 3)):
        vals[f"s{i}{j}"] = (us[i] @ us[j]).trace()
    s = SCoords(**vals)
    rels = typeII_residuals(s, normalized=True)
    if max(abs(r) for r in rels) > 1e-8:
        raise TypeIIViolated(f"type II residuals {[abs(r) for r in rels]}")
    return _extend(us, s, (1, 2, 3), 4, t)


def realize_pair(t: complex, t12_target: complex) -> tuple[Mat2, Mat2]:
    """Canonical pair in G(t) with tr(x1 x2) = t12_target.

    x1 is upper triangular, x2 lower; the pair is irreducible exactly when
    the target avoids {2, t^2 - 2}.
    """
    k = (t + cmath.sqrt(t * t - 4)) / 2  # principal branch; k = +-1 at t = +-2
    c = t12_target - t * t + 2
    x1 = Mat2(k, 1, 0, 1 / k)
    x2 = Mat2(k, 0, c, 1 / k)
    return x1, x2


def _degenerate_realize(v: TraceVector) -> Quadruple | None:
    """Two-generator patterns for characters with all s_ijk = 0."""
    t = v.t
    tt2 = t * t - 2
    tol = ROLE_THRESHOLD

    def near(val, target):
        return abs(val - target) <= tol * max(1.0, abs(target))

    if near(v.t13, tt2) and near(v.t24, tt2):
        a, b = realize_pair(t, v.t12)
        return Quadruple(a, b, a, b, t=t)
    if near(v.t23, tt2) and near(v.t14, tt2):
        a, b = realize_pair(t, v.t12)
        return Quadruple(a, b, b, a, t=t)
    if near(v.t12, tt2) and near(v.t34, tt2):
        a, b = realize_pair(t, v.t23)
        return Quadruple(a, a, b, b, t=t)
    return None


def realize_character(v: TraceVector) -> Quadruple:
    """Matrix quadruple whose trace vector reproduces v.

    Tries triple roles in ascending order, realizing the first one whose
    alternating invariant clears the threshold and extending by the missing
    matrix; falls back to the degenerate two-generator patterns when all four
    invariants vanish. The input must satisfy the type I/II relations (it
    need not satisfy the knot's trace equations: any character of the free
    group is accepted).
    """
    s = s_from_t(v)
    pre = [*typeI_residuals(s, normalized=True),
           *typeII_residuals(s, normalized=True)]
    worst = max(abs(r) for r in pre)
    if worst > 1e-7:
        raise ConstraintViolated(
            f"definitive-relation residual {worst:.3e} exceeds 1.0e-07")
    q = None
    for role in TRIPLES:
        if abs(s.triple(*role)) > ROLE_THRESHOLD:
            q = _realize_via_role(v, s, role)
            break
    if q is None:
        q = _degenerate_realize(v)
    if q is None:
        raise DegenerateCharacter(
            "all triple invariants vanish and no degenerate pattern matches")
    got = q.trace_vector()
    for key, want in v.coords().items():
        if abs(getattr(got, key) - want) > 1e-8 * max(1.0, abs(want)):
            raise DegenerateCharacter(
                f"realization misses target at {key}: {getattr(got, key)} "
                f"vs {want}")
    return q


def _realize_via_role(v: TraceVector, s: SCoords, role) -> Quadruple:
    t = v.t
    d = next(i for i in (1, 2, 3, 4) if i not in role)
    S = _block(_gram(s), [i - 1 for i in role])
    triple = realize_triple(t, S, s.triple(*role))
    us = {idx: x.traceless_part() for idx, x in zip(role, triple)}
    xd = _extend(us, s, role, d, t)
    mats = dict(zip(role, triple))
    mats[d] = xd
    return Quadruple(mats[1], mats[2], mats[3], mats[4], t=t)
