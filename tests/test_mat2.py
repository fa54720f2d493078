import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import E1, E2, E3, random_t, reducible_pair
from charvar.errors import SingularMatrix
from charvar.mat2 import (IDENTITY, Mat2, _rel, anticommutator_residual,
                          ch_residual, has_common_eigenvector,
                          is_irreducible_pair, random_gt, xyx_expand)
from lemmas import (PreconditionViolated, dist, lemma25_apply, random_sl2,
                    rel_dist, scalar)


def test_inverse_identity_and_parabolic():
    assert dist(IDENTITY.inverse(), IDENTITY) == 0
    x = Mat2(1, 1, 0, 1)  # in G(2); inverse must equal 2e - x
    assert dist(x.inverse(), scalar(2) - x) < 1e-15


def test_inverse_random(rng):
    for _ in range(100):
        x = random_sl2(rng)
        assert dist(x @ x.inverse(), IDENTITY) < 1e-12


def test_inverse_singular():
    with pytest.raises(SingularMatrix):
        Mat2(1, 1, 1, 1).inverse()


def test_inverse_near_the_top_of_the_double_range():
    # complex division overflows inside at a = 1.5e308+1.5e308j, where
    # a / a is nan and 1 / a is -0j; the entries are divided again at a
    # scale where it cannot. 1 / a = (1 - i) / 3e308 is subnormal, and
    # comes out correctly rounded
    a = 1.5e308 + 1.5e308j
    x = float(1 / (2 * Fraction(1.5e308)))
    inv = Mat2(a, 0, 0, 1).inverse()
    assert inv.d == 1 and inv.a == complex(x, -x) and x > 0
    assert inv.b == 0 and inv.c == 0
    # here every entry comes out finite, and plain division gave the zero
    # matrix: the det's modulus overflows, which _rel reads as NaN
    inv = Mat2(1.5e308, 0, 0, 1 + 1j).inverse()
    assert inv.a == float(1 / Fraction(1.5e308)) and inv.d == 0.5 - 0.5j
    assert Mat2(1e308 + 1e308j, 0, 0, 0.5).inverse().d == 2
    # an entry whose true value is beyond the double range stays infinite
    inv = Mat2(0.5, 1e308 + 1e308j, 0, 1).inverse()
    assert not cmath.isfinite(inv.b) and inv.a == 2 and inv.d == 1
    # a NaN entry still makes every entry NaN
    nan = float("nan")
    for m in (Mat2(nan, 0, 0, 1), Mat2(a, nan, 0, 1)):
        assert all(z != z for z in m.inverse().entries())


def test_traceless_part_examples():
    assert dist(IDENTITY.traceless_part(), Mat2(0, 0, 0, 0)) == 0
    assert dist(Mat2(2, 1, 0, 0).traceless_part(), Mat2(1, 1, 0, -1)) == 0


def test_traceless_reassembly(rng):
    for _ in range(50):
        x = random_sl2(rng, 2.0)
        u = x.traceless_part()
        assert abs(u.trace()) <= 1e-12 * max(1.0, x.norm())
        assert dist(u + scalar(x.trace() / 2), x) < 1e-15 * max(1.0, x.norm())


def test_ch_residual():
    assert ch_residual(IDENTITY, 2).norm() == 0
    assert ch_residual(Mat2(0, 1, -1, 0), 0).norm() == 0
    rng = np.random.default_rng(7)
    for _ in range(100):
        t = random_t(rng)
        x = random_gt(rng, t)
        assert abs(x.det() - 1) <= 1e-10 and abs(x.trace() - t) <= 1e-10
        assert ch_residual(x, t).norm() <= 1e-10 * (1 + x.norm() ** 2)


def test_xyx_expand(rng):
    assert xyx_expand(IDENTITY, IDENTITY, 2).norm() == 0
    for _ in range(100):
        t = random_t(rng)
        x, y = random_gt(rng, t), random_gt(rng, t)
        sc = max(1.0, x.norm(), y.norm()) ** 3
        assert xyx_expand(x, y, t).norm() <= 1e-10 * sc
        assert xyx_expand(x, x, t).norm() <= 1e-10 * sc


def test_anticommutator(rng):
    # e1 e2 = -e2 e1 and tr(e1 e2) = 0, so the residual is exactly zero
    assert anticommutator_residual(E1, E2).norm() == 0
    for _ in range(100):
        u = random_sl2(rng).traceless_part()
        v = random_sl2(rng).traceless_part()
        sc = max(1.0, u.norm(), v.norm()) ** 2
        assert anticommutator_residual(u, v).norm() <= 1e-12 * sc
        assert anticommutator_residual(u, u).norm() <= 1e-12 * sc


def test_triple_trace_basis():
    # oracle: e1 e2 = e3 by direct multiplication, tr(e3^2) = -2
    assert dist(E1 @ E2, E3) == 0
    assert (E3 @ E3).trace() == -2
    assert (E1 @ E2 @ E3).trace() == -2


def test_triple_trace_alternating(rng):
    for _ in range(100):
        u = random_sl2(rng).traceless_part()
        v = random_sl2(rng).traceless_part()
        w = random_sl2(rng).traceless_part()
        sc = max(1.0, u.norm(), v.norm(), w.norm()) ** 3
        uvw = (u @ v @ w).trace()
        assert abs((u @ u @ v).trace()) <= 1e-10 * sc
        assert abs(uvw + (v @ u @ w).trace()) <= 1e-10 * sc
        assert abs(uvw + (u @ w @ v).trace()) <= 1e-10 * sc
        # dependence kills the form
        z = 2 * u + 3 * v
        assert abs((u @ v @ z).trace()) <= 1e-10 * sc


def test_common_eigenvector_triangular_and_basis():
    ms = [Mat2(2, 1, 0, 0.5), Mat2(3, -1, 0, 1 / 3), Mat2(1, 5, 0, 1)]
    assert has_common_eigenvector(ms)
    assert not has_common_eigenvector([E1, E2])
    assert has_common_eigenvector([IDENTITY, scalar(3)])
    # e1, the anchor's first eigenvector, lies in the second matrix's
    # kernel: a zero image fixes every line
    assert has_common_eigenvector([Mat2(2, 0, 0, 0.5), Mat2(0, 0, 0, 1)])
    with pytest.raises(ValueError):
        has_common_eigenvector([])


def test_common_eigenvector_near_the_top_of_the_double_range(rng):
    # |1.5e308+1.5e308j| overflows a double: abs() of it raises, and det()
    # of a matrix with entries near 2**1000 does; the answer is the one at
    # a scale where neither happens
    big = 1.5e308 + 1.5e308j
    assert has_common_eigenvector([Mat2(big, 0, 0, 1), Mat2(1, 1, 0, 1)])
    assert has_common_eigenvector([Mat2(1, 1, 0, 1), Mat2(big, 0, 0, 1)])
    assert has_common_eigenvector([scalar(big), Mat2(1, 1, 0, 1)])
    assert not has_common_eigenvector([Mat2(big, 0, 0, 1),
                                       Mat2(1, 1, 1, 2)])
    # a power of 2 scales exactly and moves no eigenvector
    for _ in range(50):
        t, x, y = reducible_pair(rng)
        for ms in ([x, y], [random_gt(rng, t), random_gt(rng, t)]):
            want = has_common_eigenvector(ms)
            for k in (450, 520, 1000):
                s = 2.0 ** k
                assert has_common_eigenvector([m * s for m in ms]) == want
                assert has_common_eigenvector([ms[0] * s, ms[1]]) == want


def test_constructed_reducible_pair(rng):
    for _ in range(50):
        t, x, y = reducible_pair(rng)
        assert has_common_eigenvector([x, y])
        assert not is_irreducible_pair(x, y, t)


def test_irreducible_pair_examples(rng):
    t = random_t(rng)
    x = random_gt(rng, t)
    assert not is_irreducible_pair(x, x, t)  # tr(x^2) = t^2 - 2
    # parabolic pair with tr(xy) = 1, outside {2, 2}
    a = Mat2(1, 1, 0, 1)
    b = Mat2(1, 0, -1, 1)
    assert abs((a @ b).trace() - 1) < 1e-15
    assert is_irreducible_pair(a, b, 2)


def test_trace_criterion_vs_eigenvector_oracle(rng):
    for _ in range(500):
        t = random_t(rng)
        x, y = random_gt(rng, t), random_gt(rng, t)
        assert is_irreducible_pair(x, y, t) == \
            (not has_common_eigenvector([x, y]))


def test_irreducible_pair_spans_m(rng):
    # irreducibility forces {e, x, y, xy} to span the full matrix space
    for _ in range(100):
        t = random_t(rng)
        x, y = random_gt(rng, t), random_gt(rng, t)
        if not is_irreducible_pair(x, y, t):
            continue
        rows = np.array([IDENTITY.entries(), x.entries(), y.entries(),
                         (x @ y).entries()])
        sc = max(1.0, x.norm(), y.norm()) ** 2
        assert abs(np.linalg.det(rows)) > 1e-10 * sc ** 4


def test_lemma25_equal_and_inverse(rng):
    for _ in range(20):
        t = random_t(rng)
        if min(abs(t - 2), abs(t + 2)) < 1e-2:
            continue
        x1 = random_gt(rng, t)
        x2 = random_gt(rng, t)
        if has_common_eigenvector([x1, x2]):
            continue
        assert lemma25_apply(x1, x2, x1, t) == "equal"
        assert lemma25_apply(x1, x2, x1.inverse(), t) == "inverse"


def test_lemma25_inverse_at_t1(rng):
    t = 1.0
    x1 = random_gt(rng, t)
    x2 = random_gt(rng, t)
    assert lemma25_apply(x1, x2, x1.inverse(), t) == "inverse"


def test_lemma25_precondition(rng):
    t = random_t(rng)
    x1 = random_gt(rng, t)
    x2 = random_gt(rng, t)
    with pytest.raises(PreconditionViolated):
        lemma25_apply(x1, x2, x2, t)  # s13 generic, not +-s0


def test_norm_and_distances_propagate_nan():
    # max() keeps a NaN only when it comes first; a NaN in any entry must
    # make the norm and both distances NaN
    nan = float("nan")
    for k in range(4):
        entries = [1, 0, 0, 1]
        entries[k] = complex(nan, 0) if k % 2 else nan
        m = Mat2(*entries)
        assert math.isnan(m.norm())
        assert math.isnan(dist(m, IDENTITY))
        assert math.isnan(dist(IDENTITY, m))
        assert math.isnan(rel_dist(m, IDENTITY))
        assert math.isnan(rel_dist(IDENTITY, m))
    m = Mat2(1 + 2j, -3, 0.5j, 1)
    assert m.norm() == 3 and dist(m, IDENTITY) == 3
    assert Mat2(float("inf"), 0, 0, 1).norm() == float("inf")
    # a finite entry whose modulus overflows, where abs() raises
    assert Mat2(1.5e308 + 1.5e308j, 0, 0, 1).norm() == float("inf")


def test_rel_is_the_relative_gate():
    # |z| / max(1, |s| for each scale s): "|z| <= tol * max(1, scale)" as one
    # number; NaN, which fails both `<= tol` and `> tol`, when z or a scale
    # is inf or NaN, or its modulus overflows
    assert _rel(3) == 3 and _rel(-4j) == 4 and _rel(3 + 4j, 0.5) == 5
    assert _rel(3, 10) == _rel(3, -10j, 2) == _rel(3, 2, -10j) == 0.3
    assert _rel(6, 0.5, 3j, -2) == 2 and _rel(1e300, 1e300j) == 1
    for zero in (0, 0.0, -0.0, 0j, -0j, complex(-0.0, 0.0),
                 complex(0.0, -0.0)):
        assert repr(_rel(zero)) == repr(_rel(zero, zero)) == "0.0"
        assert repr(_rel(1, zero)) == "1.0"
    inf, nan = float("inf"), float("nan")
    for x in (inf, -inf, nan, complex(inf, 0), complex(0, -inf),
              complex(1, nan), complex(nan, -0.0), 1.5e308 + 1.5e308j):
        for args in ((x,), (x, 2), (1, x), (1, 2, x), (x, x)):
            r = _rel(*args)
            assert math.isnan(r) and not r <= 1e-9 and not r > 1e-9, args


class _NoDraws:
    """A generator stand-in that fails the test on any draw."""

    def standard_normal(self, *args):
        raise AssertionError("sampler drew before checking its spread")


@pytest.mark.parametrize("spread", [0, 0.0, -1.0, float("nan"), float("inf"),
                                    float("-inf")])
def test_samplers_reject_bad_spread(spread):
    # a zero, NaN or infinite spread never passes random_sl2's rejection
    # test, and a negative one has no meaning: ValueError before the first
    # draw (random_gt takes no spread)
    with pytest.raises(ValueError, match="spread"):
        random_sl2(_NoDraws(), spread)
