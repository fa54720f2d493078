"""Complex scalar utilities: finite-scalar checks, polynomials of degree
<= 4, and the quadratic formula.

Everything here is double precision.
"""

from __future__ import annotations

import cmath

from .errors import DegenerateLeadingCoefficient

LEAD_TOL = 1e-14


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
    roots differ wildly in size. When finite coefficients give a non-finite
    root (b * b overflows at |b| near 1e155), the roots are recomputed from
    the coefficients divided by the largest of their moduli.
    """
    a, b, c = complex(a), complex(b), complex(c)
    if abs(a) <= LEAD_TOL:
        raise DegenerateLeadingCoefficient(f"|a| = {abs(a)} <= {LEAD_TOL}")
    roots = _quadratic_roots(a, b, c)
    if not all(map(cmath.isfinite, roots)) \
            and all(map(cmath.isfinite, (a, b, c))):
        scale = max(abs(a), abs(b), abs(c))
        roots = _quadratic_roots(a / scale, b / scale, c / scale)
    return roots


def _quadratic_roots(a: complex, b: complex,
                     c: complex) -> tuple[complex, complex]:
    disc = cmath.sqrt(b * b - 4 * a * c)
    if abs(-b + disc) >= abs(-b - disc):
        z1 = (-b + disc) / (2 * a)
    else:
        z1 = (-b - disc) / (2 * a)
    if z1 == 0:
        return 0j, 0j  # b = c = 0
    return z1, c / (a * z1)
