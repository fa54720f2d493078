"""The 8_18 presentation layer: relator matrices and representation checks.

A quadruple (x1, .., x4) in G(t)^4 defines a representation of the knot group
exactly when the four relator matrices r_i = x_i x_{i+1} x_i^{-1} x_{i-1} x_i
(subscripts mod 4) coincide: when their spread, the largest pairwise entry
distance relative to max(1, ||r1||), is within RELATOR_TOL.
"""

from __future__ import annotations

from itertools import combinations

from .mat2 import Mat2, _inverse_entries, _rel, _worst
from .reconstruct import Quadruple
from .tracealg import trace_equation_residuals, trace_vector_of

#: relator spread below which a quadruple counts as a representation
RELATOR_TOL = 1e-7
#: verify's gate on necessary_conditions_residual: realized catalog samples
#: reach at most 5.4e-11 (median 6.5e-15) at 300 t in the verify square
TRACE_EQ_TOL = 1e-8


def relators(q: Quadruple) -> tuple[Mat2, Mat2, Mat2, Mat2]:
    """(r1, r2, r3, r4), r_i = x_i x_{i+1} x_i^-1 x_{i-1} x_i, multiplied
    left to right in local entries with the formula of Mat2.__matmul__."""
    x = [m.entries() for m in q.matrices()]
    rs = []
    for i, xi in enumerate(q.matrices()):
        a, b, c, d = x[i]
        for e, f, g, h in (x[(i + 1) % 4], _inverse_entries(xi), x[i - 1],
                           x[i]):
            a, b, c, d = (a * e + b * g, a * f + b * h,
                          c * e + d * g, c * f + d * h)
        rs.append(Mat2(a, b, c, d))
    return tuple(rs)


def spread(rs) -> float:
    """Largest pairwise entry distance of the relators rs, relative to
    max(1, ||rs[0]||); NaN if an entry is NaN or a modulus overflows."""
    e = [r.entries() for r in rs]
    gaps = [p - q for x, y in combinations(e, 2) for p, q in zip(x, y)]
    return _rel(_worst(gaps), rs[0].norm())


def is_representation(q: Quadruple) -> tuple[bool, float]:
    res = spread(relators(q))
    return res <= RELATOR_TOL, res


def necessary_conditions_residual(q: Quadruple) -> float:
    """Max normalized trace-equation residual of the quadruple's character,
    NaN if one is NaN; vanishes for every representation."""
    v = trace_vector_of(*q.matrices())
    return _worst(trace_equation_residuals(v, normalized=True))
