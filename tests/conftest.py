"""Shared helpers for the test suite: random G(t) tuples and admissible
trace-value draws."""

import numpy as np
import pytest

from charvar.catalog import COMPONENTS, check_admissible
from charvar.errors import ExcludedParameter
from charvar.mat2 import Mat2, random_gt, random_sl2


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


#: the fixed traceless basis of reconstruct: tr(e_i e_j) = diag(2, 2, -2),
#: tr(e1 e2 e3) = -2
E1 = Mat2(1, 0, 0, -1)
E2 = Mat2(0, 1, 1, 0)
E3 = Mat2(0, 1, -1, 0)


def random_quadruple(rng, t=None, spread=1.0):
    if t is None:
        t = random_t(rng)
    return t, [random_gt(rng, t, spread) for _ in range(4)]


def reducible_pair(rng, t=None):
    """Shared-eigenvector pair in G(t), hidden by a random conjugation."""
    if t is None:
        t = random_t(rng)
    k = (t + (t * t - 4) ** 0.5) / 2
    if abs(k) < 1e-6:
        k = (t - (t * t - 4) ** 0.5) / 2
    from charvar.mat2 import Mat2
    b1, b2 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    k2 = k if rng.integers(2) else 1 / k
    x = Mat2(k, b1, 0, 1 / k)
    y = Mat2(k2, b2, 0, 1 / k2)
    g = random_sl2(rng)
    gi = g.inverse()
    return t, g @ x @ gi, g @ y @ gi
