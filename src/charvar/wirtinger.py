"""The 8_18 presentation layer: relator matrices, representation checks, and
the structural facts about commuting generator images.

A quadruple (x1, .., x4) in G(t)^4 defines a representation of the knot group
exactly when the four relator matrices r_i = x_i x_{i+1} x_i^{-1} x_{i-1} x_i
(subscripts mod 4) coincide.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import PreconditionViolated
from .mat2 import (Mat2, _inverse_entries, _worst, dist,
                   has_common_eigenvector, rel_dist)
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


def is_irreducible(q: Quadruple) -> bool:
    return not has_common_eigenvector(q.matrices())


@dataclass(frozen=True)
class Lemma31Report:
    applicable: bool
    equal_next: float
    equal_opposite: float
    cross_trace: complex


def lemma31_check(q: Quadruple, i: int) -> Lemma31Report:
    """If x_i and x_{i+1} commute in an irreducible representation, then they
    are equal, the other two images coincide, and the cross trace is 1.

    Returns a non-applicable report when the commutation hypothesis fails
    (e.g. on X3-type quadruples); raises if q is not an irreducible
    representation, or if the hypothesis holds but a conclusion fails.
    """
    ok, res = is_representation(q)
    if not ok:
        raise PreconditionViolated(f"not a representation (residual {res:.2e})")
    if not is_irreducible(q):
        raise PreconditionViolated("quadruple is reducible")
    x = q.matrices()
    xi, xn = x[i - 1], x[i % 4]            # x_i, x_{i+1}
    xp, xq_ = x[(i - 2) % 4], x[(i + 1) % 4]  # x_{i-1}, x_{i+2}
    if rel_dist(xi @ xn, xn @ xi) > 1e-9:
        return Lemma31Report(False, float("nan"), float("nan"), float("nan"))
    d1 = rel_dist(xi, xn)
    d2 = rel_dist(xp, xq_)
    ct = (xi @ xp).trace()
    if d1 > 1e-8 or d2 > 1e-8 or abs(ct - 1) > 1e-8:
        raise PreconditionViolated(
            f"conclusion failed: {d1:.2e}, {d2:.2e}, tr = {ct}")
    return Lemma31Report(True, d1, d2, ct)


def fig8_relator_residual(s1: Mat2, s2: Mat2) -> float:
    """Entry distance between the two sides of the figure-eight relation
    s1 s2 s1^-1 s2 s1 = s2 s1 s2^-1 s1 s2, relative to scale."""
    lhs = s1 @ s2 @ s1.inverse() @ s2 @ s1
    rhs = s2 @ s1 @ s2.inverse() @ s1 @ s2
    return dist(lhs, rhs) / max(1.0, lhs.norm(), rhs.norm())


def factors_through_fig8(q: Quadruple, tol: float = 1e-8) -> bool:
    """True when x1 = x3, x2 = x4 and the figure-eight relation holds, i.e.
    the representation comes from the two-bridge quotient."""
    x1, x2, x3, x4 = q.matrices()
    if rel_dist(x1, x3) > tol or rel_dist(x2, x4) > tol:
        return False
    return fig8_relator_residual(x1, x2) <= tol


def necessary_conditions_residual(q: Quadruple) -> float:
    """Max normalized trace-equation residual of the quadruple's character,
    NaN if one is NaN; vanishes for every representation."""
    v = trace_vector_of(*q.matrices())
    return _worst(trace_equation_residuals(v, normalized=True))
