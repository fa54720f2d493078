"""2x2 complex matrix core: Cayley-Hamilton calculus on the trace-t slice
G(t) of SL(2,C), traceless parts, irreducibility tests, and the one rule
each for a largest magnitude (_worst) and a relative gate (_rel)."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import SingularMatrix
from .numfield import solve_quadratic

SCALAR_TOL = 1e-12
EIGVEC_TOL = 1e-8
#: has_common_eigenvector scales a matrix whose norm() reaches this first
_HUGE = 2.0 ** 500


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
        abs() of it, and inf if one overflows (see _worst)."""
        a, b, c, d = self.a, self.b, self.c, self.d
        if a == a and b == b and c == c and d == d:
            try:
                return max(abs(a), abs(b), abs(c), abs(d))
            except OverflowError:
                return math.inf
        return math.nan

    def is_scalar(self) -> bool:
        n = self.norm()
        return (_rel(self.b, n) <= SCALAR_TOL and _rel(self.c, n) <= SCALAR_TOL
                and _rel(self.a - self.d, n) <= SCALAR_TOL)

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
    """Entries of m^-1, row-major; SingularMatrix for a near-zero det. A
    NaN det, or one whose modulus overflows, is not near zero (see _rel).
    Complex division can overflow inside (a / a is nan, and 1 / a is -0j,
    at a = 1.5e308+1.5e308j), so where the det's modulus overflows, or an
    entry comes out non-finite, every entry is divided again by _quotient."""
    a, b, c, d = m.a, m.b, m.c, m.d
    dt = a * d - b * c
    r = _rel(dt)
    if r <= 1e-14:
        raise SingularMatrix(f"|det| = {abs(dt):.3e}")
    ia, ib, ic, id_ = d / dt, -b / dt, -c / dt, a / dt
    s = ia + ib + ic + id_
    if s - s or r != r:  # not finite, or |det| overflows
        return tuple(_quotient(n, dt) for n in (d, -b, -c, a))
    return ia, ib, ic, id_


def _quotient(n, dt) -> complex:
    """n / dt with both times the power of 2 that brings dt's largest part
    into [0.5, 1), so that complex division cannot overflow inside; n / dt
    itself for a non-finite operand, or where the quotient overflows."""
    if n - n or dt - dt:
        return n / dt
    e = -_exponent((dt,))
    try:
        return _ldexp(n, e) / _ldexp(dt, e)
    except OverflowError:
        return n / dt


def _worst(values) -> float:
    """The largest |z| of values, or NaN if one is NaN: max() alone keeps a
    NaN only when it comes first. No abs() of a NaN, which CPython makes
    raise OverflowError when an earlier call left errno at ERANGE. A finite
    z whose modulus overflows makes abs() raise too: then inf, or NaN if a
    value is NaN, read off a second pass, so values must be a collection."""
    try:
        mags = [abs(z) if z == z else math.nan for z in values]
    except OverflowError:
        return math.nan if any(z != z for z in values) else math.inf
    total = sum(mags)
    return max(mags) if total == total else total


def _rel(z, *scales) -> float:
    """|z| / max(1, |s| for each scale s): the one form of every gate
    "|z| <= tol * max(1, scale)". NaN when z or a scale is not finite, or
    its modulus overflows, so that such a gate fails both `<= tol` and
    `> tol`. x - x is 0 for a finite x and NaN for inf or NaN, tested
    before any abs() (see _worst)."""
    if z - z:
        return math.nan
    m = 1.0
    try:
        for s in scales:
            if s - s:
                return math.nan
            a = abs(s)
            if a > m:
                m = a
        return abs(z) / m
    except OverflowError:
        return math.nan


# The identity residuals below compute in local entries and build one Mat2.
# Each takes the operations of its Mat2 expression in the same order: the
# complex() coercions of `*` and of the scalar matrix z e =
# Mat2(complex(z), 0, 0, complex(z)), and the int 1 and 0 that IDENTITY
# adds (-0.0 + 0 is 0.0, so the 0 fixes the sign of a zero). The 0 that
# z e subtracts off the diagonal is left out: x - 0 is x for every
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
    x @ y @ x - ((x @ y).trace() * x + y - t e)."""
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
    u @ v + v @ u - (u @ v).trace() e."""
    ua, ub, uc, ud = u.a, u.b, u.c, u.d
    va, vb, vc, vd = v.a, v.b, v.c, v.d
    pa = ua * va + ub * vc
    pd = uc * vb + ud * vd
    z = complex(pa + pd)
    return Mat2((pa + (va * ua + vb * uc)) - z,
                (ua * vb + ub * vd) + (va * ub + vb * ud),
                (uc * va + ud * vc) + (vc * ua + vd * uc),
                (pd + (vc * ub + vd * ud)) - z)


def _eigenvectors(m: Mat2) -> list[tuple[complex, complex]]:
    """Eigenvectors of a non-scalar 2x2 matrix (one per distinct eigenvalue)."""
    l1, l2 = solve_quadratic(-m.trace(), m.det())
    lams = [l1] if _rel(l1 - l2, l1, l2) <= 1e-8 else [l1, l2]
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


def _exponent(zs) -> int:
    """The e with 2**(e - 1) <= largest |real or imaginary part| of the
    finite zs < 2**e; 0 when every part is 0."""
    return math.frexp(max(abs(x) for z in zs for x in (z.real, z.imag)))[1]


def _ldexp(z, e: int) -> complex:
    """z * 2**e; OverflowError above the double range, rounded below."""
    return complex(math.ldexp(z.real, e), math.ldexp(z.imag, e))


def _scaled(m: Mat2) -> Mat2:
    """m times the power of 2 that brings its largest real or imaginary part
    into [0.5, 1): exact, and no abs() of an entry can then overflow. A
    matrix with a non-finite part is returned as it is."""
    if any(z - z for z in m.entries()):
        return m
    e = -_exponent(m.entries())
    return Mat2(*(_ldexp(z, e) for z in m.entries()))


def has_common_eigenvector(ms) -> bool:
    """Brute-force reducibility test for a nonempty list of matrices.

    Candidates are the eigenvectors of the first non-scalar matrix; each is
    tested for span invariance under every matrix. Neither changes when a
    matrix is scaled, so one with an entry of modulus 2**500 or more, where
    det() or abs() would overflow, is tested _scaled.
    """
    ms = list(ms)
    if not ms:
        raise ValueError("empty matrix list")
    ms = [_scaled(m) if m.norm() >= _HUGE else m for m in ms]
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
    tt = t * t
    return (_rel(txy - 2, txy, tt) > 1e-9
            and _rel(txy - (tt - 2), txy, tt) > 1e-9)


def random_gt(rng, t: complex) -> Mat2:
    """Random element of G(t): trace t, determinant 1. One draw of four
    normals per try, the same stream as two draws of two."""
    while True:
        ar, ai, br, bi = rng.standard_normal(4).tolist()
        a = complex(ar, ai)
        b = complex(br, bi)
        if abs(b) > 0.1:
            return Mat2(a, b, (a * (t - a) - 1) / b, t - a)
