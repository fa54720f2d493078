"""The 8_18 presentation layer: relator matrices and representation checks.

A quadruple (x1, .., x4) in G(t)^4 defines a representation of the knot group
exactly when the four relator matrices r_i = x_i x_{i+1} x_i^{-1} x_{i-1} x_i
(subscripts mod 4) coincide.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .mat2 import Mat2, _inverse_entries, _worst
from .reconstruct import Quadruple
from .tracealg import trace_equation_residuals, trace_vector_of

#: relator spread below which a quadruple counts as a representation
RELATOR_TOL = 1e-7
#: verify's gate on necessary_conditions_residual: realized catalog samples
#: reach at most 5.4e-11 (median 6.5e-15) at 300 t in the verify square
TRACE_EQ_TOL = 1e-8


@dataclass(frozen=True, slots=True)
class RelatorSet:
    r1: Mat2
    r2: Mat2
    r3: Mat2
    r4: Mat2

    def matrices(self):
        return (self.r1, self.r2, self.r3, self.r4)

    def spread(self) -> float:
        """Largest pairwise entry distance, relative to max(1, ||r1||); NaN
        if an entry is NaN."""
        e = [r.entries() for r in self.matrices()]
        gaps = [p - q for x, y in combinations(e, 2) for p, q in zip(x, y)]
        return _worst(gaps) / max(1.0, self.r1.norm())


def relators(q: Quadruple) -> RelatorSet:
    """r_i = x_i x_{i+1} x_i^-1 x_{i-1} x_i, multiplied left to right in
    local entries with the formula of Mat2.__matmul__."""
    x = [m.entries() for m in q.matrices()]
    rs = []
    for i, xi in enumerate(q.matrices()):
        a, b, c, d = x[i]
        for e, f, g, h in (x[(i + 1) % 4], _inverse_entries(xi), x[i - 1],
                           x[i]):
            a, b, c, d = (a * e + b * g, a * f + b * h,
                          c * e + d * g, c * f + d * h)
        rs.append(Mat2(a, b, c, d))
    return RelatorSet(*rs)


def is_representation(q: Quadruple) -> tuple[bool, float]:
    res = relators(q).spread()
    return res <= RELATOR_TOL, res


def necessary_conditions_residual(q: Quadruple) -> float:
    """Max normalized trace-equation residual of the quadruple's character,
    NaN if one is NaN; vanishes for every representation."""
    v = trace_vector_of(*q.matrices())
    return _worst(trace_equation_residuals(v, normalized=True))
