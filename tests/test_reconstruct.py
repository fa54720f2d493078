import cmath

import numpy as np
import pytest

from conftest import random_quadruple, random_t
from charvar.catalog import COMPONENTS, sample_component
from charvar.errors import (ConstraintViolated, DegenerateCharacter,
                            SmallS123)
from charvar.mat2 import (dist, has_common_eigenvector, is_irreducible_pair,
                          random_gt, random_sl2)
from charvar.reconstruct import (Quadruple, extend_to_quadruple,
                                 factor_symmetric, realize_character,
                                 realize_pair, realize_triple)
from charvar.tracealg import s_from_t, trace_vector_of
from charvar.wirtinger import is_representation


def _assert_balanced(M, S):
    # every factor has ||M||_F^2 >= ||M^T M||_* = sum of S's singular
    # values; the balanced (Takagi) factor attains the bound
    nuclear = np.linalg.svd(S, compute_uv=False).sum()
    assert abs((np.abs(M) ** 2).sum() - nuclear) <= 1e-12 * nuclear


def test_factor_symmetric_random(rng):
    for _ in range(50):
        S = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        S = S + S.T
        M = factor_symmetric(S)
        assert np.abs(M.T @ M - S).max() <= 1e-9 * max(1.0, np.abs(S).max())
        _assert_balanced(M, S)


def test_factor_symmetric_zero_diagonal():
    # full rank with an all-zero diagonal, as on the parabolic slice t = +-2:
    # no diagonal entry can serve as an elimination pivot
    S = np.array([[0, 1, 2], [1, 0, 3], [2, 3, 0]], dtype=complex)
    M = factor_symmetric(S)
    assert np.abs(M.T @ M - S).max() <= 1e-9
    _assert_balanced(M, S)


@pytest.mark.parametrize("t", [-2.2951323803190267 - 2.4173618223573543j,
                               2.4860496789460553 + 2.4041766938811504j])
def test_every_branch_is_a_representation_at_large_coordinates(t):
    # near the corners of the verify square the coordinates reach about 2e4;
    # a Gram factor of more than least norm gives X12 branch 0 entries up to
    # about 6e3 there, and a relator spread above RELATOR_TOL
    for cid in COMPONENTS:
        for smp in sample_component(cid, t):
            ok, spread = is_representation(realize_character(smp.vector))
            assert ok, (cid, smp.branch, spread)


def test_realize_triple_flat_example():
    S = np.diag([-2.0, -2.0, -2.0]).astype(complex)  # t = 0, s0 = -2
    xs = realize_triple(0.0, S, 2.0)
    us = [x.traceless_part() for x in xs]
    for i in range(3):
        for j in range(3):
            got = (us[i] @ us[j]).trace()
            assert abs(got - S[i, j]) <= 1e-10
    assert abs((us[0] @ us[1] @ us[2]).trace() - 2) <= 1e-10
    # sign flip
    xs = realize_triple(0.0, S, -2.0)
    us = [x.traceless_part() for x in xs]
    assert abs((us[0] @ us[1] @ us[2]).trace() + 2) <= 1e-10


def test_realize_triple_round_trip(rng):
    for _ in range(30):
        t = random_t(rng)
        xs = [random_gt(rng, t) for _ in range(3)]
        us = [x.traceless_part() for x in xs]
        S = np.array([[(us[i] @ us[j]).trace() for j in range(3)]
                      for i in range(3)])
        s123 = (us[0] @ us[1] @ us[2]).trace()
        if abs(s123) < 1e-3:
            continue
        ys = realize_triple(t, S, s123)
        vs = [y.traceless_part() for y in ys]
        sc = max(1.0, np.abs(S).max())
        for i in range(3):
            for j in range(3):
                assert abs((vs[i] @ vs[j]).trace() - S[i, j]) <= 1e-9 * sc
        assert abs((vs[0] @ vs[1] @ vs[2]).trace() - s123) <= 1e-9 * sc ** 2
        # nonzero alternating invariant forces irreducibility
        assert not has_common_eigenvector(list(ys))


def test_realize_triple_errors():
    S = np.diag([-2.0, -2.0, -2.0]).astype(complex)
    with pytest.raises(SmallS123):
        realize_triple(0.0, S, 0.0)
    with pytest.raises(ConstraintViolated):
        realize_triple(0.0, S, 1.0)  # 2 s123^2 + det S = 2 - 8 != 0
    with pytest.raises(ConstraintViolated):
        realize_triple(1.0, S, 2.0)  # diagonal is not s0 for t = 1


def test_extend_reproduces_first_generator(rng):
    for _ in range(20):
        t = random_t(rng)
        xs = [random_gt(rng, t) for _ in range(3)]
        us = [x.traceless_part() for x in xs]
        s123 = (us[0] @ us[1] @ us[2]).trace()
        if abs(s123) < 1e-3:
            continue
        s0 = t * t / 2 - 2

        def pr(i, j):
            return (us[i] @ us[j]).trace()

        # coefficient pattern (1, 0, 0): x4 = x1
        x4 = extend_to_quadruple(tuple(xs), t, s14=s0, s24=pr(0, 1),
                                 s34=pr(0, 2), s124=0.0, s134=0.0, s234=s123)
        assert dist(x4, xs[0]) <= 1e-8 * max(1.0, xs[0].norm())
        # coefficient pattern (0, 1, 0): x4 = x2
        x4 = extend_to_quadruple(tuple(xs), t, s14=pr(0, 1), s24=s0,
                                 s34=pr(1, 2), s124=0.0, s134=-s123, s234=0.0)
        assert dist(x4, xs[1]) <= 1e-8 * max(1.0, xs[1].norm())


def test_extend_round_trip(rng):
    for _ in range(20):
        t, xs = random_quadruple(rng)
        us = [x.traceless_part() for x in xs]
        if abs((us[0] @ us[1] @ us[2]).trace()) < 1e-3:
            continue

        def pr(i, j):
            return (us[i] @ us[j]).trace()

        def tr3(i, j, k):
            return (us[i] @ us[j] @ us[k]).trace()

        x4 = extend_to_quadruple((xs[0], xs[1], xs[2]), t,
                                 s14=pr(0, 3), s24=pr(1, 3), s34=pr(2, 3),
                                 s124=tr3(0, 1, 3), s134=tr3(0, 2, 3),
                                 s234=tr3(1, 2, 3))
        assert dist(x4, xs[3]) <= 1e-8 * max(1.0, xs[3].norm())


def test_realize_character_round_trip(rng):
    for _ in range(40):
        t, xs = random_quadruple(rng)
        if has_common_eigenvector(xs):
            continue
        v = trace_vector_of(*xs)
        q = realize_character(v)
        assert q.trace_vector().max_dev(v) <= 1e-8
        q.validate()


def test_realize_character_later_roles(rng):
    # x3 = x1 kills s123, so role (1, 2, 4) extends by x3; x2 = x1 kills
    # s123 and s124, so role (1, 3, 4) extends by x2. Both extensions read
    # triple invariants in odd orders, e.g. s(2, 4, 3) = -s234.
    for copy, role in ((lambda xs: [xs[0], xs[1], xs[0], xs[3]], (1, 2, 4)),
                       (lambda xs: [xs[0], xs[0], xs[2], xs[3]], (1, 3, 4))):
        done = 0
        while done < 10:
            t, xs = random_quadruple(rng)
            xs = copy(xs)
            v = trace_vector_of(*xs)
            s = s_from_t(v)
            if abs(s.triple(*role)) < 1e-3 or has_common_eigenvector(xs):
                continue
            assert max(abs(s.triple(*r)) for r in
                       ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))
                       if r < role) <= 1e-7
            q = realize_character(v)
            assert q.trace_vector().max_dev(v) <= 1e-8 * max(
                1.0, max(abs(c) for c in v.coords().values()))
            done += 1


def test_conjugation_invariance(rng):
    for _ in range(40):
        t, xs = random_quadruple(rng)
        q = Quadruple(*xs, t=t)
        g = random_sl2(rng, 2.0)
        w = q.conjugated(g).trace_vector()
        assert w.max_dev(q.trace_vector()) <= 1e-9


def test_realize_pair_examples():
    x1, x2 = realize_pair(2.0, 1.0)
    assert x1.a == 1 and x1.b == 1  # kappa = 1 at t = 2
    assert x2.c == -1  # c = target - t^2 + 2 = 1 - 4 + 2
    x1, x2 = realize_pair(0.0, 2.0)
    assert abs(x1.a - 1j) < 1e-15 and abs(x2.c - 4) < 1e-15
    assert not is_irreducible_pair(x1, x2, 0.0)  # target hits the boundary 2


def test_realize_pair_random(rng):
    for _ in range(100):
        t = random_t(rng)
        target = complex(*rng.standard_normal(2))
        x1, x2 = realize_pair(t, target)
        assert abs(x1.trace() - t) <= 1e-12 * max(1.0, abs(t))
        assert abs((x1 @ x2).trace() - target) <= 1e-12 * max(
            1.0, abs(target), abs(t) ** 2)


def test_degenerate_path_x3(rng):
    u = (5 + 1j * cmath.sqrt(3)) / 2
    v = sample_component("X3", 2.0)[0].vector
    assert abs(v.t12 - u) < 1e-12
    q = realize_character(v)
    assert dist(q.x1, q.x3) <= 1e-12
    assert dist(q.x2, q.x4) <= 1e-12
    assert q.trace_vector().max_dev(v) <= 1e-9


def test_degenerate_path_x51_x52(rng):
    for cid, eq_pairs in (("X51", ((2, 3), (1, 4))), ("X52", ((1, 2), (3, 4)))):
        v = sample_component(cid, 3.0)[0].vector
        q = realize_character(v)
        xs = q.matrices()
        for (i, j) in eq_pairs:
            assert dist(xs[i - 1], xs[j - 1]) <= 1e-12
        assert q.trace_vector().max_dev(v) <= 1e-9


def test_braid_identity_on_x51(rng):
    # tr(x1 x2) = 1 forces the braid relation x1 x2 x1 = x2 x1 x2
    q = realize_character(sample_component("X51", 3.0)[0].vector)
    lhs = q.x1 @ q.x2 @ q.x1
    rhs = q.x2 @ q.x1 @ q.x2
    assert dist(lhs, rhs) <= 1e-10 * max(1.0, lhs.norm())


def test_degenerate_character_unmatched():
    # a genuine character with all triple invariants zero but no
    # two-generator pattern: the all-ones slice at t = 0
    from charvar.catalog import _x6_vector
    v = _x6_vector(0.0, False)
    s = s_from_t(v)
    assert max(abs(s.triple(i, j, k)) for (i, j, k) in
               ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))) <= 1e-12
    with pytest.raises(DegenerateCharacter):
        realize_character(v)


def test_realize_character_rejects_noncharacter(rng):
    t, xs = random_quadruple(rng)
    v = trace_vector_of(*xs)
    bad = type(v)(**{**v.coords(), "t13": v.t13 + 0.1})
    with pytest.raises(ConstraintViolated):
        realize_character(bad)
