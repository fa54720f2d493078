"""Shared helpers for the test suite: random G(t) tuples, admissible
trace-value draws, and a Durand-Kerner root finder for polynomials of
degree <= 4, the independent oracle for the excellent quartic's roots."""

import cmath

import numpy as np
import pytest

from charvar.catalog import CLUSTER_TOL, COMPONENTS, check_admissible
from charvar.errors import ExcludedParameter
from charvar.mat2 import Mat2, random_gt
from lemmas import random_sl2


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_t(rng, rmax=3.0, rmin=0.0):
    while True:
        t = complex(*rng.uniform(-rmax, rmax, 2))
        if rmin <= abs(t) <= rmax:
            return t


def admissible_t(rng, ids=COMPONENTS, rmax=2.5, margin_extra=0.0):
    """Random t acceptable to every sampler in ids."""
    while True:
        t = random_t(rng, rmax)
        try:
            for cid in ids:
                check_admissible(cid, t, 1e-3 + margin_extra)
        except ExcludedParameter:
            continue
        return t


class NonConvergence(Exception):
    """Iterative solver hit its iteration cap with residual above tolerance."""


_DK_UPDATE_TOL = 1e-13
_DK_MAX_ITER = 500
# fixed irrational rotation of the start circle; breaks root symmetries
# without randomness
_DK_PHASE = 0.7390851332151607


def horner(coeffs, z: complex) -> complex:
    """The polynomial with coefficients coeffs, leading first, at z."""
    acc = 0j
    for c in coeffs:
        acc = acc * z + c
    return acc


def solve_poly(coeffs) -> list[complex]:
    """All roots with multiplicity of the polynomial with coefficients
    coeffs, leading first, via Durand-Kerner iteration.

    Deterministic: starts on a circle of radius 1 + max|c_i/lead| rotated by a
    fixed irrational phase. Stops when the largest per-root update drops below
    1e-13 or after 500 sweeps; each returned root must then satisfy
    |p(z)| <= 1e-9 * (1 + max|coeff|).
    """
    coeffs = [complex(c) for c in coeffs]
    q = [c / coeffs[0] for c in coeffs]
    n = len(q) - 1
    if n == 1:
        return [-q[1]]
    radius = 1.0 + max(abs(c) for c in q[1:])
    roots = [radius * cmath.exp(2j * cmath.pi * (k / n) + 1j * _DK_PHASE)
             for k in range(n)]
    for _ in range(_DK_MAX_ITER):
        biggest = 0.0
        for i in range(n):
            num = horner(q, roots[i])
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
    bound = 1e-9 * (1.0 + max(abs(c) for c in coeffs))
    worst = max(abs(horner(coeffs, z)) for z in roots)
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


#: the fixed traceless basis of reconstruct: tr(e_i e_j) = diag(2, 2, -2),
#: tr(e1 e2 e3) = -2
E1 = Mat2(1, 0, 0, -1)
E2 = Mat2(0, 1, 1, 0)
E3 = Mat2(0, 1, -1, 0)


def random_quadruple(rng, t=None):
    if t is None:
        t = random_t(rng)
    return t, [random_gt(rng, t) for _ in range(4)]


def reducible_pair(rng, t=None):
    """Shared-eigenvector pair in G(t), hidden by a random conjugation."""
    if t is None:
        t = random_t(rng)
    k = (t + (t * t - 4) ** 0.5) / 2
    if abs(k) < 1e-6:
        k = (t - (t * t - 4) ** 0.5) / 2
    b1, b2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    k2 = k if rng.integers(2) else 1 / k
    x = Mat2(k, b1, 0, 1 / k)
    y = Mat2(k2, b2, 0, 1 / k2)
    g = random_sl2(rng)
    gi = g.inverse()
    return t, g @ x @ gi, g @ y @ gi
