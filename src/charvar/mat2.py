"""2x2 complex matrix core: Cayley-Hamilton calculus on the trace-t slice
G(t) of SL(2,C), traceless parts, and irreducibility tests."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import PreconditionViolated, SingularMatrix
from .numfield import solve_quadratic

SCALAR_TOL = 1e-12
EIGVEC_TOL = 1e-8


@dataclass(frozen=True, slots=True)
class Mat2:
    """Row-major 2x2 complex matrix [[a, b], [c, d]]."""

    a: complex
    b: complex
    c: complex
    d: complex

    def trace(self) -> complex:
        return self.a + self.d

    def det(self) -> complex:
        return self.a * self.d - self.b * self.c

    def inverse(self) -> "Mat2":
        return Mat2(*_inverse_entries(self))

    def norm(self) -> float:
        """Max entry magnitude; NaN if an entry is NaN, found before any
        abs() of it (see _mag)."""
        a, b, c, d = self.a, self.b, self.c, self.d
        if a == a and b == b and c == c and d == d:
            return max(abs(a), abs(b), abs(c), abs(d))
        return math.nan

    def is_scalar(self) -> bool:
        bound = SCALAR_TOL * max(1.0, self.norm())
        return (_mag(self.b) <= bound and _mag(self.c) <= bound
                and _mag(self.a - self.d) <= bound)

    def traceless_part(self) -> "Mat2":
        h = self.trace() / 2
        return Mat2(self.a - h, self.b, self.c, self.d - h)

    def __add__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a + other.a, self.b + other.b,
                    self.c + other.c, self.d + other.d)

    def __sub__(self, other: "Mat2") -> "Mat2":
        return Mat2(self.a - other.a, self.b - other.b,
                    self.c - other.c, self.d - other.d)

    def __neg__(self) -> "Mat2":
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, z) -> "Mat2":
        z = complex(z)
        return Mat2(self.a * z, self.b * z, self.c * z, self.d * z)

    __rmul__ = __mul__

    def __matmul__(self, o: "Mat2") -> "Mat2":
        return Mat2(self.a * o.a + self.b * o.c, self.a * o.b + self.b * o.d,
                    self.c * o.a + self.d * o.c, self.c * o.b + self.d * o.d)

    def apply(self, v: tuple[complex, complex]) -> tuple[complex, complex]:
        return (self.a * v[0] + self.b * v[1], self.c * v[0] + self.d * v[1])

    def entries(self):
        return (self.a, self.b, self.c, self.d)


IDENTITY = Mat2(1, 0, 0, 1)


def _inverse_entries(m: Mat2) -> tuple:
    """Entries of m^-1, row-major; SingularMatrix for a near-zero det."""
    dt = m.det()
    if abs(dt) <= 1e-14:
        raise SingularMatrix(f"|det| = {abs(dt):.3e}")
    return m.d / dt, -m.b / dt, -m.c / dt, m.a / dt


def _worst(values) -> float:
    """The largest |z| of values, or NaN if one is NaN: max() alone keeps a
    NaN only when it comes first. No abs() of a NaN (see _mag)."""
    mags = [abs(z) if z == z else math.nan for z in values]
    total = sum(mags)
    return max(mags) if total == total else total


def _mag(z) -> float:
    """abs(z), whatever errno holds: CPython's abs() of a complex NaN raises
    OverflowError when an earlier call left errno at ERANGE (say, an abs()
    that overflowed), where it would return NaN. That ERANGE is cleared
    too, so that it reaches no later abs(). A largest magnitude is _worst's,
    and where a call costs too much the code tests z == z before abs()."""
    try:
        return abs(z)
    except OverflowError:
        if z == z:   # a finite z whose modulus overflows
            raise
        abs(0j)   # a finite abs() sets errno to 0
        return math.nan


def scalar(z) -> Mat2:
    return Mat2(complex(z), 0, 0, complex(z))


def dist(x: Mat2, y: Mat2) -> float:
    return (x - y).norm()


def rel_dist(x: Mat2, y: Mat2) -> float:
    """Entrywise distance relative to the larger operand (floored at 1)."""
    return dist(x, y) / max(1.0, x.norm(), y.norm())


# The identity residuals below compute in local entries and build one Mat2.
# Each takes the operations of its Mat2 expression in the same order: the
# complex() coercions of `*` and scalar(), and the int 1 and 0 that IDENTITY
# adds (-0.0 + 0 is 0.0, so the 0 fixes the sign of a zero). The 0 that
# scalar() subtracts off the diagonal is left out: x - 0 is x for every
# number, -0.0 included. So the bits are those of the expression, which
# tests/test_kernel_oracles.py keeps as the oracle.

def ch_residual(x: Mat2, t: complex) -> Mat2:
    """x^2 - t x + e, which vanishes on G(t): x @ x - t * x + IDENTITY."""
    a, b, c, d = x.a, x.b, x.c, x.d
    z = complex(t)
    return Mat2((a * a + b * c) - a * z + 1, (a * b + b * d) - b * z + 0,
                (c * a + d * c) - c * z + 0, (c * b + d * d) - d * z + 1)


def xyx_expand(x: Mat2, y: Mat2, t: complex) -> Mat2:
    """xyx - (tr(xy) x + y - t e), which vanishes for x, y in G(t):
    x @ y @ x - ((x @ y).trace() * x + y - scalar(t))."""
    xa, xb, xc, xd = x.a, x.b, x.c, x.d
    ya, yb, yc, yd = y.a, y.b, y.c, y.d
    pa = xa * ya + xb * yc
    pb = xa * yb + xb * yd
    pc = xc * ya + xd * yc
    pd = xc * yb + xd * yd
    z = complex(pa + pd)
    zt = complex(t)
    return Mat2((pa * xa + pb * xc) - ((xa * z + ya) - zt),
                (pa * xb + pb * xd) - (xb * z + yb),
                (pc * xa + pd * xc) - (xc * z + yc),
                (pc * xb + pd * xd) - ((xd * z + yd) - zt))


def anticommutator_residual(u: Mat2, v: Mat2) -> Mat2:
    """uv + vu - tr(uv) e for traceless u, v:
    u @ v + v @ u - scalar((u @ v).trace())."""
    ua, ub, uc, ud = u.a, u.b, u.c, u.d
    va, vb, vc, vd = v.a, v.b, v.c, v.d
    pa = ua * va + ub * vc
    pd = uc * vb + ud * vd
    z = complex(pa + pd)
    return Mat2((pa + (va * ua + vb * uc)) - z,
                (ua * vb + ub * vd) + (va * ub + vb * ud),
                (uc * va + ud * vc) + (vc * ua + vd * uc),
                (pd + (vc * ub + vd * ud)) - z)


def triple_trace(u: Mat2, v: Mat2, w: Mat2) -> complex:
    """tr(uvw); alternating in its arguments on traceless input, and zero
    exactly when u, v, w are linearly dependent."""
    return (u @ v @ w).trace()


def _eigenvectors(m: Mat2) -> list[tuple[complex, complex]]:
    """Eigenvectors of a non-scalar 2x2 matrix (one per distinct eigenvalue)."""
    l1, l2 = solve_quadratic(1.0, -m.trace(), m.det())
    lams = [l1] if abs(l1 - l2) <= 1e-8 * max(1.0, abs(l1), abs(l2)) else [l1, l2]
    out = []
    for lam in lams:
        v1 = (m.b, lam - m.a)
        v2 = (lam - m.d, m.c)
        v = v1 if max(abs(v1[0]), abs(v1[1])) >= max(abs(v2[0]), abs(v2[1])) else v2
        n = max(abs(v[0]), abs(v[1]))
        if n == 0:
            continue  # scalar slipped through; caller filters those
        out.append((v[0] / n, v[1] / n))
    return out


def _fixes_span(m: Mat2, v: tuple[complex, complex]) -> bool:
    w = m.apply(v)
    nw = max(abs(w[0]), abs(w[1]))
    if nw == 0:
        return True
    # component of m v orthogonal to span(v), Hermitian inner product
    ip = w[0] * v[0].conjugate() + w[1] * v[1].conjugate()
    nv2 = abs(v[0]) ** 2 + abs(v[1]) ** 2
    r0 = w[0] - ip / nv2 * v[0]
    r1 = w[1] - ip / nv2 * v[1]
    return max(abs(r0), abs(r1)) / nw <= EIGVEC_TOL


def has_common_eigenvector(ms) -> bool:
    """Brute-force reducibility test for a nonempty list of matrices.

    Candidates are the eigenvectors of the first non-scalar matrix; each is
    tested for span invariance under every matrix.
    """
    ms = list(ms)
    if not ms:
        raise ValueError("empty matrix list")
    anchor = next((m for m in ms if not m.is_scalar()), None)
    if anchor is None:
        return True  # scalars fix every line
    for v in _eigenvectors(anchor):
        if all(_fixes_span(m, v) for m in ms):
            return True
    return False


def is_irreducible_pair(x: Mat2, y: Mat2, t: complex) -> bool:
    """Trace criterion for a pair in G(t): tr(xy) outside {2, t^2 - 2}."""
    txy = (x.a * y.a + x.b * y.c) + (x.c * y.b + x.d * y.d)
    s = max(1.0, _mag(txy), _mag(t) ** 2)
    return _mag(txy - 2) > 1e-9 * s and _mag(txy - (t * t - 2)) > 1e-9 * s


def lemma25_apply(x1: Mat2, x2: Mat2, x3: Mat2, t: complex) -> str:
    """Commuting-generator conclusion for an irreducible triple with
    tr(u1 u2 u3) = 0 and tr(u1 u3) = eps * s0.

    Returns "commuting" (t = +-2), "equal" (eps = +1) or "inverse" (eps = -1),
    after asserting the corresponding matrix identities.
    """
    u1, u2, u3 = (x.traceless_part() for x in (x1, x2, x3))
    s0 = t * t / 2 - 2
    sc = max(1.0, x1.norm(), x2.norm(), x3.norm())
    if has_common_eigenvector([x1, x2, x3]):
        raise PreconditionViolated("triple is reducible")
    if abs(triple_trace(u1, u2, u3)) > 1e-9 * sc ** 3:
        raise PreconditionViolated("s123 does not vanish")
    s13 = (u1 @ u3).trace()
    if abs(s13 - s0) <= 1e-9 * max(1.0, abs(s0)):
        eps = 1
    elif abs(s13 + s0) <= 1e-9 * max(1.0, abs(s0)):
        eps = -1
    else:
        raise PreconditionViolated("s13 is not +-s0")
    if rel_dist(x1 @ x3, x3 @ x1) > 1e-9:
        raise PreconditionViolated("conclusion failed: x1, x3 do not commute")
    if min(abs(t - 2), abs(t + 2)) <= 1e-6:
        return "commuting"
    target = x1 if eps == 1 else x1.inverse()
    if rel_dist(x3, target) > 1e-9:
        raise PreconditionViolated("conclusion failed: x3 != x1^eps")
    return "equal" if eps == 1 else "inverse"


def random_sl2(rng, spread: float = 1.0) -> Mat2:
    """Random SL(2,C) element with entries O(spread)."""
    # a zero, NaN or infinite spread never passes the rejection test below
    if not (math.isfinite(spread) and spread > 0):
        raise ValueError(f"spread must be finite and > 0, got {spread!r}")
    while True:
        a, b, c, d = (complex(x, y) * spread for x, y in
                      rng.standard_normal((4, 2)))
        dt = a * d - b * c
        if abs(dt) > 0.3 * spread * spread:
            r = dt ** -0.5
            return Mat2(a * r, b * r, c * r, d * r)


def random_gt(rng, t: complex) -> Mat2:
    """Random element of G(t): trace t, determinant 1. One draw of four
    normals per try, the same stream as two draws of two."""
    while True:
        ar, ai, br, bi = rng.standard_normal(4).tolist()
        a = complex(ar, ai)
        b = complex(br, bi)
        if abs(b) > 0.1:
            return Mat2(a, b, (a * (t - a) - 1) / b, t - a)
