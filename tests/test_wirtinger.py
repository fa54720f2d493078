import math

import pytest

from conftest import admissible_t, random_quadruple
from charvar.catalog import sample_component
from charvar.errors import PreconditionViolated
from charvar.mat2 import IDENTITY, Mat2, dist, random_gt
from charvar.reconstruct import Quadruple, realize_character
from charvar.tracealg import trace_equation_residuals
from charvar.wirtinger import (RelatorSet, factors_through_fig8,
                               fig8_relator_residual, is_representation,
                               lemma31_check, necessary_conditions_residual,
                               relators)


def test_relators_all_equal(rng):
    t = 1.2 + 0.7j
    x = random_gt(rng, t)
    q = Quadruple(x, x, x, x, t=t)
    cube = x @ x @ x
    for r in relators(q).matrices():
        assert dist(r, cube) <= 1e-12 * max(1.0, cube.norm())
    ok, res = is_representation(q)
    assert ok


def test_nan_entry_is_not_a_representation():
    # max() keeps a NaN only when it comes first: a NaN relator entry in any
    # position must still make the spread NaN, never read as agreement
    nan = float("nan")
    q = Quadruple(IDENTITY, IDENTITY, IDENTITY, Mat2(1, nan, 0, 1), t=2 + 0j)
    ok, res = is_representation(q)
    assert ok is False and math.isnan(res)
    rs = RelatorSet(IDENTITY, IDENTITY, IDENTITY, Mat2(1, 0, nan, 1))
    assert math.isnan(rs.spread())


def test_relators_random_quadruple_fails(rng):
    for _ in range(10):
        t, xs = random_quadruple(rng)
        ok, res = is_representation(Quadruple(*xs, t=t))
        assert not ok and res > 1e-3


def test_component_samples_are_representations(rng):
    t = admissible_t(rng)
    for cid in ("X11", "X22", "X4", "X61"):
        for smp in sample_component(cid, t):
            q = realize_character(smp.vector)
            ok, res = is_representation(q)
            assert ok, (cid, smp.branch, res)
            assert necessary_conditions_residual(q) <= 1e-8


def test_perturbed_representation_fails(rng):
    q = realize_character(sample_component("X4", 3.0)[0].vector)
    bad = Quadruple(q.x1 + Mat2(0.01, 0, 0, -0.01), q.x2, q.x3, q.x4, t=q.t)
    ok, res = is_representation(bad)
    assert not ok


def test_lemma31_on_x51(rng):
    q = realize_character(sample_component("X51", 3.0)[0].vector)
    rep = lemma31_check(q, 2)
    assert rep.applicable
    assert abs(rep.cross_trace - 1) <= 1e-8


def test_lemma31_not_applicable_on_x3(rng):
    q = realize_character(sample_component("X3", 3.0)[0].vector)
    rep = lemma31_check(q, 1)
    assert not rep.applicable


def test_lemma31_rejects_reducible(rng):
    t = 1.2 + 0.7j
    x = random_gt(rng, t)
    with pytest.raises(PreconditionViolated):
        lemma31_check(Quadruple(x, x, x, x, t=t), 1)


def test_fig8_x3_true_x4_false():
    for t in (2.0 + 0j, 1.4 - 0.5j):
        for smp in sample_component("X3", t):
            q = realize_character(smp.vector)
            assert factors_through_fig8(q)
    for smp in sample_component("X4", 2.0):
        q = realize_character(smp.vector)
        assert not factors_through_fig8(q)


def test_fig8_all_equal_trivial(rng):
    t = 0.9 - 1.1j
    x = random_gt(rng, t)
    assert factors_through_fig8(Quadruple(x, x, x, x, t=t))
    assert fig8_relator_residual(x, x) <= 1e-12


def test_representation_implies_trace_equations(rng):
    for cid in ("X21", "X3", "X62"):
        t = admissible_t(rng)
        for smp in sample_component(cid, t):
            v = smp.vector
            assert max(abs(r) for r in trace_equation_residuals(
                v, normalized=True)) <= 1e-8
