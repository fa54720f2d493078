import cmath
import dataclasses

import numpy as np
import pytest

from conftest import E1, E2, E3, random_quadruple
from charvar.catalog import COMPONENTS, sample_component
from charvar.errors import ConstraintViolated, FactorizationFailure
from charvar.mat2 import Mat2, has_common_eigenvector
from charvar.reconstruct import (_N_INV, Quadruple, _realized_matrices,
                                 factor_symmetric, realize_character)
from charvar.tracealg import (_TRIPLE_ROWS, COORD_KEYS, TRIPLES, _gram,
                              _s_triples, _t_coords, s_from_t,
                              trace_vector_of)
from charvar.wirtinger import is_representation
from lemmas import conjugated, dist, max_dev, random_sl2, scalar


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
    for _ in range(50):
        # rank 3: the Gram matrix of four traceless matrices
        t, xs = random_quadruple(rng)
        us = [x.traceless_part() for x in xs]
        S = np.array([[(ui @ uj).trace() for uj in us] for ui in us])
        M = factor_symmetric(S)
        assert M.shape == (3, 4)
        assert np.abs(M.T @ M - S).max() <= 1e-9 * max(1.0, np.abs(S).max())
        _assert_balanced(M, S)


def test_factor_symmetric_zero_diagonal():
    # full rank with an all-zero diagonal, as on the parabolic slice t = +-2:
    # no diagonal entry can serve as an elimination pivot
    S = np.array([[0, 1, 2], [1, 0, 3], [2, 3, 0]], dtype=complex)
    M = factor_symmetric(S)
    assert np.abs(M.T @ M - S).max() <= 1e-9
    _assert_balanced(M, S)


def test_factor_symmetric_refuses_rank_4():
    # no 3 x 4 factor has rank 4: the best one misses S by its smallest
    # singular value, 1
    with pytest.raises(FactorizationFailure,
                       match=r"M\^T M misses S by 1\.000e\+00"):
        factor_symmetric(np.diag([1, 2, 3, 4]))


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


def test_realize_character_flat_example():
    # t = 0: x1 = i e1, x2 = i e2, x3 = e3 have traceless Gram matrix
    # diag(-2, -2, -2) and s123 = 2; swapping x1 and x2 flips its sign
    x1, x2, x3 = Mat2(1j, 0, 0, -1j), Mat2(0, 1j, 1j, 0), Mat2(0, 1, -1, 0)
    x4 = Mat2(1, 2, -1, -1)
    for xs, s123 in (((x1, x2, x3, x4), 2), ((x2, x1, x3, x4), -2)):
        v = trace_vector_of(*xs)
        assert s_from_t(v).s123 == s123
        q = realize_character(v)
        assert max_dev(trace_vector_of(*q.matrices()), v) <= 1e-10
        us = [x.traceless_part() for x in q.matrices()]
        assert abs((us[0] @ us[1] @ us[2]).trace() - s123) <= 1e-10


def test_realize_character_round_trip(rng):
    for _ in range(40):
        t, xs = random_quadruple(rng)
        if has_common_eigenvector(xs):
            continue
        v = trace_vector_of(*xs)
        q = realize_character(v)
        assert max_dev(trace_vector_of(*q.matrices()), v) <= 1e-8
        q.validate()


def test_realize_triple_round_trip(rng):
    # the realized x1, x2, x3 reproduce the traceless Gram matrix and s123
    # of the triple they were read from
    done = 0
    while done < 30:
        t, xs = random_quadruple(rng)
        us = [x.traceless_part() for x in xs[:3]]
        S = np.array([[(us[i] @ us[j]).trace() for j in range(3)]
                      for i in range(3)])
        s123 = (us[0] @ us[1] @ us[2]).trace()
        if abs(s123) < 1e-3:
            continue
        ys = realize_character(trace_vector_of(*xs)).matrices()[:3]
        vs = [y.traceless_part() for y in ys]
        sc = max(1.0, np.abs(S).max())
        for i in range(3):
            for j in range(3):
                assert abs((vs[i] @ vs[j]).trace() - S[i, j]) <= 1e-9 * sc
        assert abs((vs[0] @ vs[1] @ vs[2]).trace() - s123) <= 1e-9 * sc ** 2
        # nonzero alternating invariant forces irreducibility
        assert not has_common_eigenvector(list(ys))
        done += 1


def test_realize_character_later_roles(rng):
    # x3 = x1 kills s123, and x2 = x1 kills s123 and s124: the sign is then
    # read off a later triple, (1, 2, 4) or (1, 3, 4), whose columns of the
    # Gram factor are not in ascending Gram order with the zero ones
    for copy, role in ((lambda xs: [xs[0], xs[1], xs[0], xs[3]], (1, 2, 4)),
                       (lambda xs: [xs[0], xs[0], xs[2], xs[3]], (1, 3, 4))):
        done = 0
        while done < 10:
            t, xs = random_quadruple(rng)
            xs = copy(xs)
            v = trace_vector_of(*xs)
            st = dict(zip(TRIPLES, _s_triples(s_from_t(v))))
            if abs(st[role]) < 1e-3 or has_common_eigenvector(xs):
                continue
            assert max(abs(st[r]) for r in TRIPLES if r < role) <= 1e-7
            q = realize_character(v)
            assert max_dev(trace_vector_of(*q.matrices()), v) <= 1e-8 * max(
                1.0, max(abs(c) for c in _t_coords(v)))
            done += 1


def test_conjugation_invariance(rng):
    for _ in range(40):
        t, xs = random_quadruple(rng)
        q = Quadruple(*xs, t=t)
        g = random_sl2(rng, 2.0)
        w = trace_vector_of(*conjugated(q, g).matrices())
        assert max_dev(w, trace_vector_of(*q.matrices())) <= 1e-9


def test_degenerate_path_x3(rng):
    u = (5 + 1j * cmath.sqrt(3)) / 2
    v = sample_component("X3", 2.0)[0].vector
    assert abs(v.t12 - u) < 1e-12
    q = realize_character(v)
    assert dist(q.x1, q.x3) <= 1e-12
    assert dist(q.x2, q.x4) <= 1e-12
    assert max_dev(trace_vector_of(*q.matrices()), v) <= 1e-9


def test_degenerate_path_x51_x52(rng):
    for cid, eq_pairs in (("X51", ((2, 3), (1, 4))), ("X52", ((1, 2), (3, 4)))):
        v = sample_component(cid, 3.0)[0].vector
        q = realize_character(v)
        xs = q.matrices()
        for (i, j) in eq_pairs:
            assert dist(xs[i - 1], xs[j - 1]) <= 1e-12
        assert max_dev(trace_vector_of(*q.matrices()), v) <= 1e-9


def test_braid_identity_on_x51(rng):
    # tr(x1 x2) = 1 forces the braid relation x1 x2 x1 = x2 x1 x2
    q = realize_character(sample_component("X51", 3.0)[0].vector)
    lhs = q.x1 @ q.x2 @ q.x1
    rhs = q.x2 @ q.x1 @ q.x2
    assert dist(lhs, rhs) <= 1e-10 * max(1.0, lhs.norm())


def test_degenerate_character_unmatched():
    # a genuine character with all triple invariants zero and pairwise
    # distinct generators, the all-ones slice at t = 0: its Gram matrix has
    # rank 2, and it realizes as an irreducible representation
    from charvar.catalog import _x6_vector
    v = _x6_vector(0.0)
    assert max(map(abs, _s_triples(s_from_t(v)))) <= 1e-12
    q = realize_character(v)
    assert max_dev(trace_vector_of(*q.matrices()), v) <= 1e-9
    ok, spread = is_representation(q)
    assert ok and spread <= 1e-12, spread
    assert not has_common_eigenvector(q.matrices())


@pytest.mark.parametrize("delta", [1e-4, 1e-6, 1e-7, 1e-8, 1e-9])
def test_realize_character_near_degenerate(delta):
    # x3 = g x1 g^-1 with g = [[1, delta w], [0, 1]]: s123 is of order
    # delta, and every triple invariant may sit just above or below any
    # fixed threshold
    rng = np.random.default_rng(81)
    for _ in range(5):
        t, xs = random_quadruple(rng)
        w = complex(*rng.standard_normal(2))
        g = Mat2(1, delta * w, 0, 1)
        xs[2] = g @ xs[0] @ g.inverse()
        v = trace_vector_of(*xs)
        q = realize_character(v)
        assert max_dev(trace_vector_of(*q.matrices()), v) <= 1e-8 * max(
            1.0, max(abs(c) for c in _t_coords(v)))


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("key", COORD_KEYS)
def test_realize_character_rejects_nonfinite(key, bad):
    v = sample_component("X4", 1.3 + 0.4j)[0].vector
    with pytest.raises(ConstraintViolated):
        realize_character(dataclasses.replace(v, **{key: bad}))


@pytest.mark.parametrize("t", [0.7 + 0.3j, 1.3 + 0.4j, 2.0, 3.0,
                               -2.2951323803190267 - 2.4173618223573543j])
def test_realized_quadruple_is_balanced(t):
    # sum ||u_i||_F^2 of the four traceless parts is at least the nuclear
    # norm of their Gram matrix, with equality only in the balanced frame
    for cid in COMPONENTS:
        for smp in sample_component(cid, t):
            q = realize_character(smp.vector)
            S = np.array(_gram(s_from_t(smp.vector))).reshape(4, 4)
            nuclear = np.linalg.svd(S, compute_uv=False).sum()
            total = sum(abs(e) ** 2 for x in q.matrices()
                        for e in x.traceless_part().entries())
            assert abs(total - nuclear) <= 1e-12 * nuclear, (cid, smp.branch)


def test_realize_character_rejects_noncharacter(rng):
    t, xs = random_quadruple(rng)
    v = trace_vector_of(*xs)
    bad = dataclasses.replace(v, t13=v.t13 + 0.1)
    with pytest.raises(ConstraintViolated):
        realize_character(bad)


@pytest.mark.parametrize("t", [2.0, 3.0, 0.7 + 0.3j, 1.3 + 0.4j,
                               -2.2951323803190267 - 2.4173618223573543j])
def test_traceless_parts_match_basis_assembly(t):
    # realize_character builds c1 e1 + c2 e2 + c3 e3 + t/2 e from Python
    # numbers; against the Mat2 sum of scaled basis matrices plus
    # scalar(t/2) its matrices agree bit for bit, the sign of a zero included
    for cid in COMPONENTS:
        for smp in sample_component(cid, t):
            s = s_from_t(smp.vector)
            st = _s_triples(s)
            k = max(range(4), key=lambda i: abs(st[i]))
            S = np.array(_gram(s), dtype=complex).reshape(4, 4)
            A = _N_INV @ factor_symmetric(S)
            d = -2 * np.linalg.det(A[:, _TRIPLE_ROWS[k]])
            if abs(d - st[k]) > abs(d + st[k]):
                A = -A
            h = scalar(smp.vector.t / 2)
            want = [col[0] * E1 + col[1] * E2 + col[2] * E3 + h
                    for col in A.T]
            got = _realized_matrices(S, _TRIPLE_ROWS[k], st[k], h.a)
            assert repr(got) == repr(want)
            q = realize_character(smp.vector)
            assert repr(list(q.matrices())) == repr(want)
