"""Complex scalar utilities and root finding for polynomials of degree <= 4.

Everything here is double precision; roots come with multiplicity (repeated
entries) and are certified only through residuals, never symbolically.
"""

from __future__ import annotations

import cmath

from .errors import DegenerateLeadingCoefficient, NonConvergence

LEAD_TOL = 1e-14
#: absolute clustering tolerance for root multisets (census dedup uses it too)
CLUSTER_TOL = 1e-8

_DK_UPDATE_TOL = 1e-13
_DK_MAX_ITER = 500
# fixed irrational rotation of the start circle; breaks root symmetries
# without randomness
_DK_PHASE = 0.7390851332151607


def require_finite(z: complex) -> complex:
    """Return z unchanged, rejecting NaN/Inf."""
    z = complex(z)
    if not (cmath.isfinite(z)):
        raise ValueError(f"non-finite complex scalar: {z!r}")
    return z


class Poly:
    """Polynomial of degree 1..4, coefficients descending (coeffs[0] leads)."""

    def __init__(self, coeffs):
        coeffs = [require_finite(c) for c in coeffs]
        if not 2 <= len(coeffs) <= 5:
            raise ValueError("need between 2 and 5 coefficients")
        if abs(coeffs[0]) <= LEAD_TOL:
            raise DegenerateLeadingCoefficient(
                f"leading coefficient {coeffs[0]!r} below {LEAD_TOL}")
        self.coeffs = tuple(coeffs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def monic(self) -> "Poly":
        lead = self.coeffs[0]
        return Poly([c / lead for c in self.coeffs])

    def __call__(self, z: complex) -> complex:
        acc = 0j
        for c in self.coeffs:
            acc = acc * z + c
        return acc

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"


def solve_quadratic(a: complex, b: complex, c: complex) -> tuple[complex, complex]:
    """Both roots of a z^2 + b z + c, larger-magnitude root first.

    The second root comes from c/(a*z1), which avoids cancellation when the
    roots differ wildly in size.
    """
    a, b, c = complex(a), complex(b), complex(c)
    if abs(a) <= LEAD_TOL:
        raise DegenerateLeadingCoefficient(f"|a| = {abs(a)} <= {LEAD_TOL}")
    disc = cmath.sqrt(b * b - 4 * a * c)
    if abs(-b + disc) >= abs(-b - disc):
        z1 = (-b + disc) / (2 * a)
    else:
        z1 = (-b - disc) / (2 * a)
    if z1 == 0:
        return 0j, 0j  # b = c = 0
    return z1, c / (a * z1)


def solve_poly(p: Poly) -> list[complex]:
    """All roots of p with multiplicity, via Durand-Kerner iteration.

    Deterministic: starts on a circle of radius 1 + max|c_i/lead| rotated by a
    fixed irrational phase. Stops when the largest per-root update drops below
    1e-13 or after 500 sweeps; each returned root must then satisfy
    |p(z)| <= 1e-9 * (1 + max|coeff|).
    """
    q = p.monic()
    n = q.degree
    if n == 1:
        return [-q.coeffs[1]]
    radius = 1.0 + max(abs(c) for c in q.coeffs[1:])
    roots = [radius * cmath.exp(2j * cmath.pi * (k / n) + 1j * _DK_PHASE)
             for k in range(n)]
    for _ in range(_DK_MAX_ITER):
        biggest = 0.0
        for i in range(n):
            num = q(roots[i])
            den = 1.0 + 0j
            for j in range(n):
                if j != i:
                    den *= roots[i] - roots[j]
            if den == 0:
                den = 1e-30
            step = num / den
            roots[i] -= step
            biggest = max(biggest, abs(step))
        if biggest <= _DK_UPDATE_TOL:
            break
    bound = 1e-9 * (1.0 + max(abs(c) for c in p.coeffs))
    worst = max(abs(p(z)) for z in roots)
    if not worst <= bound:  # a NaN residual fails too
        raise NonConvergence(
            f"worst residual {worst:.3e} above bound {bound:.3e}")
    return roots


def cluster_roots(roots, tol: float = CLUSTER_TOL) -> list[tuple[complex, int]]:
    """Group nearly-equal roots, returning (representative, multiplicity)."""
    clusters: list[list[complex]] = []
    for z in roots:
        for c in clusters:
            if abs(z - c[0]) <= tol:
                c.append(z)
                break
        else:
            clusters.append([z])
    return [(sum(c) / len(c), len(c)) for c in clusters]


def match_multisets(xs, ys, tol: float = CLUSTER_TOL) -> bool:
    """True when the two collections agree as multisets within tol."""
    ys = list(ys)
    if len(xs) != len(ys):
        return False
    for x in xs:
        best, dist = None, tol
        for i, y in enumerate(ys):
            if abs(x - y) <= dist:
                best, dist = i, abs(x - y)
        if best is None:
            return False
        ys.pop(best)
    return True
