import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (NonConvergence, cluster_roots, horner, match_multisets,
                      solve_poly)
from charvar.numfield import solve_quadratic

SQRT3 = cmath.sqrt(3)


def test_quadratic_parabolic_census_values():
    # z^2 - 5z + 7: the u-parameters of the two-bridge component at t = 2
    r1, r2 = solve_quadratic(-5, 7)
    assert match_multisets([r1, r2], [(5 + 1j * SQRT3) / 2,
                                      (5 - 1j * SQRT3) / 2], 1e-12)


def test_quadratic_factorable_and_double():
    assert match_multisets(solve_quadratic(-1, 0), [0, 1], 1e-14)
    r1, r2 = solve_quadratic(-4, 4)
    assert abs(r1 - 2) < 1e-12 and abs(r2 - 2) < 1e-12


def test_quadratic_larger_root_first(rng):
    for _ in range(200):
        b, c = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        r1, r2 = solve_quadratic(b, c)
        assert abs(r1) >= abs(r2) - 1e-12
        scale = 1e-10 * max(1.0, abs(b), abs(c))
        for r in (r1, r2):
            assert abs(r * r + b * r + c) <= scale


def test_quartic_parabolic_excellent_values():
    # u^4 - 6u^3 + 19u^2 - 30u + 17: closed-form roots
    # (3 +- sqrt(8 sqrt2 - 11))/2 and (3 +- i sqrt(8 sqrt2 + 11))/2
    roots = solve_poly([1, -6, 19, -30, 17])
    s = 8 * cmath.sqrt(2)
    expected = [(3 + cmath.sqrt(s - 11)) / 2, (3 - cmath.sqrt(s - 11)) / 2,
                (3 + 1j * cmath.sqrt(s + 11)) / 2,
                (3 - 1j * cmath.sqrt(s + 11)) / 2]
    assert match_multisets(roots, expected, 1e-9)


def test_quartic_double_roots():
    roots = solve_poly([1, 0, -2, 0, 1])  # (z^2 - 1)^2
    assert match_multisets(roots, [1, 1, -1, -1], 1e-6)
    clustered = cluster_roots(roots, 1e-6)
    assert sorted(m for _, m in clustered) == [2, 2]


def test_quartic_recovers_sampled_roots(rng):
    for _ in range(50):
        roots = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        # oracle: expand prod (z - r_k) into monic coefficients
        coeffs = np.array([1.0 + 0j])
        for r in roots:
            coeffs = np.convolve(coeffs, [1.0, -r])
        got = solve_poly(list(coeffs))
        assert match_multisets(got, list(roots), 1e-8)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.complex_numbers(min_magnitude=0.1, max_magnitude=10,
                          allow_nan=False, allow_infinity=False))
def test_root_multiset_scale_invariant(seed, lam):
    rng = np.random.default_rng(seed)
    coeffs = list(rng.standard_normal(5) + 1j * rng.standard_normal(5))
    coeffs[0] += 2.0  # keep the lead away from zero
    base = solve_poly(coeffs)
    scaled = solve_poly([lam * c for c in coeffs])
    assert match_multisets(base, scaled, 1e-8)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_residual_bound_random_cubic_quartic(seed):
    rng = np.random.default_rng(seed)
    deg = int(rng.integers(1, 5))
    coeffs = list(rng.standard_normal(deg + 1)
                  + 1j * rng.standard_normal(deg + 1))
    coeffs[0] += 1.5
    mx = max(abs(c) for c in coeffs)
    for z in solve_poly(coeffs):
        assert abs(horner(coeffs, z)) / (1 + mx) <= 1e-9


@pytest.mark.parametrize("coeffs", [[1, 0, 0, 0, 1e300], [1, 1e200, 0, 0, 1]])
def test_solve_poly_rejects_overflowed_roots(coeffs):
    # the iteration overflows to NaN roots, whose NaN residuals must fail
    # the bound rather than slip past it
    with pytest.raises(NonConvergence):
        solve_poly(coeffs)


@pytest.mark.parametrize("b", [1e155, -1e155, 1e155j, 1e200 - 3e199j])
def test_quadratic_huge_middle_coefficient(b):
    # b * b overflows, yet both roots, about -b and -1/b, are finite
    r1, r2 = solve_quadratic(b, 1)
    assert abs(r1 + b) <= 1e-15 * abs(b)
    assert abs(r2 + 1 / b) <= 1e-15 / abs(b)


def test_quadratic_middle_coefficient_whose_modulus_overflows():
    # |b| overflows as well as b * b, and so does 1 / b, whose division
    # sums Re b and Im b; yet the roots, about -b and -1/b, are finite. The
    # bounds above, stated on h = b / 2
    b = 1.5e308 + 1.5e308j
    r1, r2 = solve_quadratic(b, 1)
    h = b / 2
    assert abs(r1 + b) <= 2e-15 * abs(h)   # |r1 + b| <= 1e-15 |b|
    assert abs(r2 * h + 0.5) <= 0.5e-15    # |r2 + 1/b| <= 1e-15 / |b|


def test_quadratic_rescale_leaves_finite_roots_bitwise(rng):
    # the rescaled retry runs only on a non-finite root from finite input
    calls = [(-5, 7), (-4, 4), (-1, 0), (0, 0), (1e150, 1)]
    calls += [tuple(rng.standard_normal(2) * 10.0 ** rng.integers(-150, 150, 2)
                    + 1j * rng.standard_normal(2)) for _ in range(200)]
    a = 1 + 0j   # the lead the solver multiplies by, for the same bits
    for b, c in calls:
        b, c = complex(b), complex(c)
        disc = cmath.sqrt(b * b - 4 * a * c)
        z1 = max((-b + disc, -b - disc), key=abs) / (2 * a)
        want = (0j, 0j) if z1 == 0 else (z1, c / (a * z1))
        assert all(map(cmath.isfinite, want))
        assert repr(solve_quadratic(b, c)) == repr(want)
