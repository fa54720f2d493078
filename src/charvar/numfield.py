"""The quadratic formula over the complex doubles, for the monic quadratics
that every component's parameters solve."""

from __future__ import annotations

import cmath


def solve_quadratic(b: complex, c: complex) -> tuple[complex, complex]:
    """Both roots of z^2 + b z + c, larger-magnitude root first.

    The second root comes from c/z1, which avoids cancellation when the
    roots differ wildly in size. When finite coefficients give a non-finite
    root (b * b overflows at |b| near 1e155), the roots are recomputed from
    the coefficients divided by the largest of 1 and the real and imaginary
    parts of b and c, a scale that cannot overflow where |b| could.
    """
    a, b, c = 1 + 0j, complex(b), complex(c)
    roots = _quadratic_roots(a, b, c)
    if not all(map(cmath.isfinite, roots)) \
            and cmath.isfinite(b) and cmath.isfinite(c):
        scale = max(1.0, abs(b.real), abs(b.imag), abs(c.real), abs(c.imag))
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
