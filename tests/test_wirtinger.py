import math

import pytest

from conftest import admissible_t, random_quadruple
from charvar.catalog import sample_component
from charvar.mat2 import IDENTITY, Mat2, _worst, random_gt
from charvar.reconstruct import Quadruple, realize_character
from charvar.tracealg import trace_equation_residuals, trace_vector_of
from charvar.wirtinger import (TRACE_EQ_TOL, is_representation,
                               necessary_conditions_residual, relators,
                               spread)
from lemmas import (PreconditionViolated, dist, factors_through_fig8,
                    lemma31_check)


def test_relators_all_equal(rng):
    t = 1.2 + 0.7j
    x = random_gt(rng, t)
    q = Quadruple(x, x, x, x, t=t)
    cube = x @ x @ x
    for r in relators(q):
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
    assert math.isnan(spread((IDENTITY, IDENTITY, IDENTITY,
                              Mat2(1, 0, nan, 1))))
    # nor may an r1 whose modulus overflows hide a gap of 1e300 behind
    # the max(1, ||r1||) scale
    m = Mat2(1.5e308 + 1.5e308j, 0, 0, 1)
    assert math.isnan(spread((m, m + Mat2(0, 1e300, 0, 0), m, m)))


def test_nan_trace_equation_is_not_hidden():
    # conjugating a representation by diag(1e154, 1e-154) puts 1e308-sized
    # entries in its matrices, and 6 of its 12 trace equations come out NaN
    # (the first of them not first): the worst residual must be NaN, never
    # the 4.3e-15 of the finite ones, which passes verify's gate
    t = 1.3 + 0.4j
    q = realize_character(sample_component("X4", t)[2].vector)
    d, d_inv = Mat2(1e154, 0, 0, 1e-154), Mat2(1e-154, 0, 0, 1e154)
    c = Quadruple(*(d @ x @ d_inv for x in q.matrices()), t=t)
    res = trace_equation_residuals(trace_vector_of(*c.matrices()),
                                   normalized=True)
    assert sum(math.isnan(abs(r)) for r in res) == 6
    assert not math.isnan(abs(res[0]))
    assert math.isnan(necessary_conditions_residual(c))


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
            assert necessary_conditions_residual(q) <= TRACE_EQ_TOL


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
    # x1 = x3 and x2 = x4 exactly, so this tests the relation alone
    assert factors_through_fig8(Quadruple(x, x, x, x, t=t), tol=1e-12)


def test_representation_implies_trace_equations(rng):
    for cid in ("X21", "X3", "X62"):
        t = admissible_t(rng)
        for smp in sample_component(cid, t):
            v = smp.vector
            assert _worst(trace_equation_residuals(v, normalized=True)) \
                <= 1e-8


def _words(step=1, back=1):
    """r_i = x_i x_{i+step} x_i^-1 x_{i-1}^back x_i as (generator, exponent)
    letters, x1 .. x4 as 0 .. 3: step = back = 1 is the presentation."""
    return [[(i, 1), ((i + step) % 4, 1), (i, -1), ((i - 1) % 4, back), (i, 1)]
            for i in range(4)]


def test_relators_present_8_18_by_fox_calculus():
    # Fox calculus (R. Fox, Ann. of Math. 57, 1953) on the relations
    # r1 r2^-1, r2 r3^-1, r3 r4^-1 with x_i -> s: d(w)/dx_j sums, over w's
    # letters, s^(exponent of the prefix) times d(letter)/dx_j, which is 1
    # for x_j and -x_j^-1 for x_j^-1. Every 3x3 minor is +-Delta, 8_18's
    # Alexander polynomial, with |Delta(-1)| = 45. The controls invert
    # x_{i-1}, or put x_{i+2} in place of x_{i+1}
    sp = pytest.importorskip("sympy")
    s = sp.Symbol("s")
    delta = (s**2 - 3 * s + 1) * (s**2 - s + 1)**2
    for words, want in (
            (_words(), delta),
            (_words(back=-1), (2 * s - 3) * (2 * s**2 - 2 * s + 5)),
            (_words(step=2),
             (s**2 - s + 1) * (s**4 - 4 * s**3 + 7 * s**2 - 4 * s + 1))):
        rows = []
        for u, v in zip(words, words[1:]):
            row, k = [0] * 4, 0
            for g, e in u + [(g, -e) for g, e in reversed(v)]:
                k += min(e, 0)
                row[g] += e * s**k
                k += max(e, 0)
            rows.append(row)
        fox = sp.Matrix(rows)
        for j in range(4):
            minor = sp.expand(fox[:, [c for c in range(4) if c != j]].det())
            assert sp.expand(minor**2 - want**2) == 0, (j, sp.factor(minor))
    assert abs(delta.subs(s, -1)) == 45


def test_relators_multiply_the_stated_words(rng):
    # relators() forms the words above, to rounding, and not the control's
    for _ in range(50):
        t, xs = random_quadruple(rng)
        rs = relators(Quadruple(*xs, t=t))
        for words, agree in ((_words(), True), (_words(step=2), False)):
            for r, word in zip(rs, words):
                w = IDENTITY
                for g, e in word:
                    w = w @ (xs[g] if e == 1 else xs[g].inverse())
                scale = max(1.0, *(x.norm() for x in xs)) ** 5
                assert (dist(r, w) <= 1e-13 * scale) == agree
