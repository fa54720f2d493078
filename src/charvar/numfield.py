"""The quadratic formula over the complex doubles, and LEAD_TOL, the
smallest leading coefficient it accepts.
"""

from __future__ import annotations

import cmath

from .errors import DegenerateLeadingCoefficient

LEAD_TOL = 1e-14


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
