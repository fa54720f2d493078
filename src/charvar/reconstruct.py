"""Realize matrix quadruples from trace coordinates.

The traceless parts u1..u4 of a quadruple lie in the three-dimensional space
of traceless matrices, so their 4x4 Gram matrix S = (tr(u_i u_j)) has rank at
most 3; on trace data det S lies in the ideal of the type I/II relations.
The Takagi factorization of S, cut to its three largest singular values,
gives coordinates of all four u_i at once over the fixed basis e1, e2, e3
(Gram form diag(2, 2, -2)), in the balanced frame: of all realizations, the
one of least sum of ||u_i||_F^2 (the Kempf-Ness frame). Such coordinates are
unique up to O(3, C); one sign, read off the triple invariant of largest
modulus, picks the component, and no invariant is ever divided by.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import (ConstraintViolated, DegenerateCharacter,
                     FactorizationFailure, TraceMismatch)
from .mat2 import Mat2, _worst
from .tracealg import (_TRIPLE_ROWS, COORD_KEYS, TraceVector, _gram,
                       _s_triples, _t_coords, definitive_excess, s_from_t,
                       trace_vector_of)

_SQRT2 = cmath.sqrt(2)
#: inverse of N = diag(sqrt2, sqrt2, i*sqrt2); N^T N = diag(2, 2, -2) is the
#: Gram form of e1 = diag(1, -1), e2 = [[0, 1], [1, 0]], e3 = [[0, 1], [-1, 0]]
_N_INV = np.diag([1 / _SQRT2, 1 / _SQRT2, -1j / _SQRT2])

#: singular values at most this multiple of the largest count as zero: on
#: the rank-2 Gram matrices of X3 and X5 rounding leaves the third at up to
#: about 4 eps times the largest, while on rank-3 catalog samples it stays
#: above 1e-4 times the largest
SIGMA_RTOL = 16 * np.finfo(float).eps


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
            # the bound is at least 1e-9: test that first, as tracealg's
            # gates test a raw residual, and take the norm only on a miss;
            # a NaN fails before an abs() of it (see mat2._mag)
            d = m.det() - 1
            if not (d == d and (abs(d) <= 1e-9
                                or abs(d) <= 1e-9 * max(1.0, m.norm() ** 2))):
                raise ConstraintViolated(f"det = {m.det()}")
            d = m.trace() - self.t
            if not (d == d and abs(d) <= 1e-9 * max(1.0, abs(self.t))):
                raise TraceMismatch(f"trace {m.trace()} vs t = {self.t}")

    def conjugated(self, g: Mat2) -> "Quadruple":
        gi = g.inverse()
        return Quadruple(*(g @ m @ gi for m in self.matrices()), t=self.t)


def factor_symmetric(S: np.ndarray) -> np.ndarray:
    """Return the 3 x n M with M^T M = S for complex symmetric S of rank at
    most 3.

    Autonne-Takagi factorization S = V diag(sigma) V^T, with V unitary and
    sigma the singular values of S (Horn & Johnson, Matrix Analysis, 4.4),
    read off one eigh of the real symmetric H = [[Re S, Im S], [Im S, -Re S]].
    Its eigenvalues are +-sigma, and an eigenvector [x; y] for sigma gives a
    column v = x + iy of V with S conj(v) = sigma v. M = diag(sqrt sigma) V^T
    over the three largest sigma has the least ||M||_F of all factors,
    ||M||_F^2 = sum(sigma): it is the balanced frame, whose entries, and so
    whose rounding, are as small as S allows. A sigma at most SIGMA_RTOL
    times the largest is taken as zero, so a rank-2 S gets an exactly zero
    third row rather than the square root of its rounding.
    """
    S = np.asarray(S, dtype=complex)
    n = S.shape[0]
    H = np.empty((2 * n, 2 * n))
    H[:n, :n] = S.real
    H[:n, n:] = H[n:, :n] = S.imag
    np.negative(S.real, out=H[n:, n:])
    sigma, vec = np.linalg.eigh(H)
    sigma, v = sigma[-3:], vec[:n, -3:] + 1j * vec[n:, -3:]
    sigma = np.where(sigma > SIGMA_RTOL * sigma[-1], sigma, 0.0)
    m = np.sqrt(sigma)[:, None] * v.T
    err = np.abs(m.T @ m - S).max()
    if err <= 1e-8 * max(1.0, np.abs(S).max()):
        return m
    raise FactorizationFailure(f"M^T M misses S by {err:.3e}")


def _realized_matrices(S, rows, target: complex, h: complex) -> list[Mat2]:
    """The matrices u_i + h e for traceless u_i with Gram matrix S in the
    balanced frame, signed so that tr(u_i u_j u_k) for the columns `rows` is
    nearer `target`: over the fixed basis it is -2 det of those columns'
    coordinates, and column (c1, c2, c3) is c1 e1 + c2 e2 + c3 e3. Each
    entry takes the operations of Mat2(c1, c2 + c3, c2 - c3, -c1) +
    scalar(h), in the same order, so it has that sum's bits."""
    A = _N_INV @ factor_symmetric(S)
    d = -2 * np.linalg.det(A[:, rows])
    if abs(d - target) > abs(d + target):
        A = -A
    return [Mat2(c1 + h, (c2 + c3) + 0, (c2 - c3) + 0, -c1 + h)
            for c1, c2, c3 in zip(*A.tolist())]


def realize_character(v: TraceVector) -> Quadruple:
    """Matrix quadruple whose trace vector reproduces v.

    Factors the 4x4 Gram matrix of v's traceless parts once and orients the
    factor by the triple invariant of largest modulus (see the module
    docstring); a character whose four triple invariants all vanish has a
    Gram matrix of rank at most 2 and takes the same path. The input must be
    finite and satisfy the type I/II relations (it need not satisfy the
    knot's trace equations: any character of the free group is accepted).
    """
    want = _t_coords(v)
    if not all(map(cmath.isfinite, want)):
        raise ConstraintViolated("non-finite trace coordinate")
    try:
        s = s_from_t(v)
    except OverflowError:
        raise ConstraintViolated("trace coordinates overflow") from None
    over = definitive_excess(s, 1e-7)
    if over:
        raise ConstraintViolated(
            f"definitive-relation residual {_worst(over):.3e} exceeds 1.0e-07")
    st = _s_triples(s)
    k = max(range(4), key=lambda i: abs(st[i]))
    S = np.array(_gram(s), dtype=complex).reshape(4, 4)
    q = Quadruple(*_realized_matrices(S, _TRIPLE_ROWS[k], st[k],
                                      complex(v.t / 2)), t=v.t)
    q.validate()
    for key, x, w in zip(COORD_KEYS, _t_coords(q.trace_vector()), want):
        e = abs(x - w)  # raw first, as in validate
        if not (e <= 1e-8 or e <= 1e-8 * max(1.0, abs(w))):
            raise DegenerateCharacter(
                f"realization misses target at {key}: {x} vs {w}")
    return q
