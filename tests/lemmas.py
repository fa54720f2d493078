"""The paper's structural lemmas as checks, with the tools the tests build
them from: lemma 2.5 and lemma 3.1 on commuting and coinciding generators,
the figure-eight quotient, and eq. (19), the redundant fourth trace
equation. Criteria 9 and 10 of test_acceptance.py check them; the library
ships none of it, nor the tools that only tests use: `scalar` and
`max_dev`.
"""

import math
from dataclasses import dataclass

from charvar.mat2 import Mat2, _rel, _worst, has_common_eigenvector
from charvar.reconstruct import Quadruple
from charvar.tracealg import _EQ_IDX, TraceVector, _n6, _t_coords
from charvar.wirtinger import is_representation


class PreconditionViolated(Exception):
    """Numerical hypotheses of a structural lemma are not met."""


def scalar(z) -> Mat2:
    """z e: complex(z) on the diagonal, int 0 off it."""
    return Mat2(complex(z), 0, 0, complex(z))


def max_dev(v: TraceVector, w: TraceVector) -> float:
    """Largest coordinate distance of two trace vectors; NaN if one is
    NaN."""
    return _worst([a - b for a, b in zip(_t_coords(v), _t_coords(w))])


def dist(x: Mat2, y: Mat2) -> float:
    return (x - y).norm()


def rel_dist(x: Mat2, y: Mat2) -> float:
    """Entrywise distance relative to the larger operand (floored at 1)."""
    return dist(x, y) / max(1.0, x.norm(), y.norm())


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


def conjugated(q: Quadruple, g: Mat2) -> Quadruple:
    """g x_i g^-1 for each member of q."""
    gi = g.inverse()
    return Quadruple(*(g @ m @ gi for m in q.matrices()), t=q.t)


def lemma25_apply(x1: Mat2, x2: Mat2, x3: Mat2, t: complex) -> str:
    """Commuting-generator conclusion for an irreducible triple with
    tr(u1 u2 u3) = 0 and tr(u1 u3) = eps * s0.

    Returns "commuting" (t = +-2), "equal" (eps = +1) or "inverse" (eps = -1),
    after asserting the corresponding matrix identities.
    """
    u1, u2, u3 = (x.traceless_part() for x in (x1, x2, x3))
    s0 = t * t / 2 - 2
    n = _worst((x1.norm(), x2.norm(), x3.norm()))
    if has_common_eigenvector([x1, x2, x3]):
        raise PreconditionViolated("triple is reducible")
    if not _rel((u1 @ u2 @ u3).trace(), n * n * n) <= 1e-9:
        raise PreconditionViolated("s123 does not vanish")
    s13 = (u1 @ u3).trace()
    if _rel(s13 - s0, s0) <= 1e-9:
        eps = 1
    elif _rel(s13 + s0, s0) <= 1e-9:
        eps = -1
    else:
        raise PreconditionViolated("s13 is not +-s0")
    if not rel_dist(x1 @ x3, x3 @ x1) <= 1e-9:
        raise PreconditionViolated("conclusion failed: x1, x3 do not commute")
    if min(abs(t - 2), abs(t + 2)) <= 1e-6:
        return "commuting"
    target = x1 if eps == 1 else x1.inverse()
    if not rel_dist(x3, target) <= 1e-9:
        raise PreconditionViolated("conclusion failed: x3 != x1^eps")
    return "equal" if eps == 1 else "inverse"


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
    if has_common_eigenvector(q.matrices()):
        raise PreconditionViolated("quadruple is reducible")
    x = q.matrices()
    xi, xn = x[i - 1], x[i % 4]            # x_i, x_{i+1}
    xp, xq_ = x[(i - 2) % 4], x[(i + 1) % 4]  # x_{i-1}, x_{i+2}
    if not rel_dist(xi @ xn, xn @ xi) <= 1e-9:
        return Lemma31Report(False, float("nan"), float("nan"), float("nan"))
    d1 = rel_dist(xi, xn)
    d2 = rel_dist(xp, xq_)
    ct = (xi @ xp).trace()
    if not (d1 <= 1e-8 and d2 <= 1e-8 and _rel(ct - 1) <= 1e-8):
        raise PreconditionViolated(
            f"conclusion failed: {d1:.2e}, {d2:.2e}, tr = {ct}")
    return Lemma31Report(True, d1, d2, ct)


def factors_through_fig8(q: Quadruple, tol: float = 1e-8) -> bool:
    """True when x1 = x3, x2 = x4 and the figure-eight relation
    s1 s2 s1^-1 s2 s1 = s2 s1 s2^-1 s1 s2 holds at s1 = x1, s2 = x2, relative
    to the larger side: the representation comes from the two-bridge
    quotient."""
    x1, x2, x3, x4 = q.matrices()
    if not (rel_dist(x1, x3) <= tol and rel_dist(x2, x4) <= tol):
        return False
    return rel_dist(x1 @ x2 @ x1.inverse() @ x2 @ x1,
                    x2 @ x1 @ x2.inverse() @ x1 @ x2) <= tol


def eq19_residuals(v: TraceVector, normalized: bool = False) -> list[complex]:
    """The redundant fourth equation at each rotation; identically equal to
    t*(tr1-tr2) - t^2*tr0, kept as an independent cross-check."""
    t = v.t
    out = []
    for get in _EQ_IDX:
        t12, t13, t14, t23, t24, t123, t124 = get(v)
        p0 = t * t * (t12 - 1) * t124
        p1 = -t * t * (t12 - 1) * t123
        p2 = t * (t12 - 1) * t13
        p3 = -t * (t12 - 1) * t24
        p4 = -t * (t12 * t12 - t12 - 1) * t14
        p5 = t * (t12 * t12 - t12 - 1) * t23
        out.append(_n6(p0, p1, p2, p3, p4, p5) if normalized
                   else 0 + p0 + p1 + p2 + p3 + p4 + p5)
    return out
