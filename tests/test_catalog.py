import cmath
import dataclasses
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import admissible_t, match_multisets, solve_poly
from lemmas import max_dev
import charvar
from charvar import _probe_kernel, catalog
from charvar._probe_kernel import _PROBE_BLOCK, _augmented_steps
from charvar.catalog import (CLUSTER_TOL, COMPONENTS, EXCLUDED_T,
                             ROTATION_PAIR, SAMPLER_MARGIN,
                             ComponentSample, _dedup,
                             best_membership, check_admissible,
                             classify_point, enumerate_parabolic,
                             excellent_quartic, explore_solve,
                             membership_residual, sample_component,
                             special_points)
from charvar.errors import (CharVarError, ConstraintViolated,
                            ExcludedParameter, UnknownComponent)
from charvar.mat2 import _worst
from charvar.reconstruct import realize_character
from charvar.tracealg import (_TYPEI_KEPT, _TYPEI_SLOTS, COORD_KEYS,
                              TraceVector, _t_coords, s_from_t,
                              trace_equation_residuals, typeI_residuals,
                              typeII_residuals)
from charvar.wirtinger import (TRACE_EQ_TOL, is_representation,
                               necessary_conditions_residual)

SQRT3 = cmath.sqrt(3)


#: the probe system's rows: the 12 trace equations and the 4 type II
#: relations, then the kept type I relations, as rows of the 32 that
#: trace_equation_residuals, typeII_residuals and typeI_residuals list
_PROBE_ROWS = [*range(16), *(16 + r for r in _TYPEI_KEPT)]
#: the weight of each probe row: sqrt 2 for a type I relation 4a + b with
#: a < b, which also stands for relation 4b + a
_PROBE_WEIGHT = np.array([1.0] * 16 + [math.sqrt(2) if r // 4 < r % 4
                                        else 1.0 for r in _TYPEI_KEPT])


def probe_f_jac(t, y):
    """The raw residuals f and the Jacobian J at each row of y, unweighted."""
    aug = _probe_kernel._ProbeSystem(t)(y) / _PROBE_WEIGHT[:, None]
    return -aug[:, :, 10], aug[:, :, :10]


def worst(cid, v):
    return _worst(membership_residual(cid, v).values())


def test_x3_samples_at_t2():
    samples = sample_component("X3", 2.0)
    assert len(samples) == 2
    us = [s.params["u"] for s in samples]
    assert match_multisets(us, [(5 + 1j * SQRT3) / 2, (5 - 1j * SQRT3) / 2],
                           1e-12)
    for s in samples:
        assert abs(s.vector.t123 - (2 * s.params["u"] - 2)) <= 1e-12


def test_x51_sample_at_t2():
    samples = sample_component("X51", 2.0)
    assert len(samples) == 1
    v = samples[0].vector
    assert (v.t12, v.t23, v.t34, v.t14) == (1, 2, 1, 2)
    assert (v.t13, v.t24) == (1, 1)
    assert v.t123 == v.t124 == v.t134 == v.t234 == 0


def test_x61_sample_at_t1():
    v = sample_component("X61", 1.0)[0].vector
    assert (v.t12, v.t23, v.t34, v.t14, v.t13) == (1, 1, 1, 1, 1)
    assert abs(v.t24 - 1) <= 1e-15  # 4 - 2 - 1
    assert abs(v.t124 - 2) <= 1e-15  # 3 - 1
    assert v.t123 == v.t134 == 0


def test_branch_counts_at_t3():
    total = sum(len(sample_component(cid, 3.0)) for cid in COMPONENTS)
    assert total == 26
    assert [len(sample_component(cid, 3.0)) for cid in COMPONENTS] == \
        [4, 4, 4, 4, 2, 4, 1, 1, 1, 1]


def test_sampler_guards():
    with pytest.raises(ExcludedParameter):
        sample_component("X11", cmath.sqrt(5))  # alpha = 4
    with pytest.raises(ExcludedParameter):
        sample_component("X3", cmath.sqrt(5))
    with pytest.raises(ExcludedParameter):
        sample_component("X51", SQRT3)
    with pytest.raises(ExcludedParameter):
        sample_component("X4", SQRT3)  # u = 1 double root lives here


@pytest.mark.parametrize("root", [math.sqrt(6), -math.sqrt(6)])
def test_x4_double_points_excluded(root):
    # over t^2 = 6 the X4 fiber has two double points (the u-discriminant
    # of excellent_quartic has the factor (t^2 - 6)^2)
    with pytest.raises(ExcludedParameter):
        sample_component("X4", root)
    for step in (2e-3, -2e-3, 2e-3j, -2e-3j):
        samples = sample_component("X4", root + step)
        assert len(samples) == 4
        for i, a in enumerate(samples):
            for b in samples[i + 1:]:
                assert max_dev(a.vector, b.vector) > 0.1, (step, i)


def test_membership_self_and_cross(rng):
    t = admissible_t(rng)
    for cid in COMPONENTS:
        for smp in sample_component(cid, t):
            assert worst(cid, smp.vector) <= 1e-10
    x4 = sample_component("X4", t)[0].vector
    assert worst("X3", x4) > 1e-3


def test_rotation_symmetry(rng):
    for _ in range(5):
        t = admissible_t(rng)
        for cid in COMPONENTS:
            for smp in sample_component(cid, t):
                assert worst(ROTATION_PAIR[cid], smp.vector.rotate()) <= 1e-10


def test_reducible_intersection_point_remark():
    # (1,1,1,1;1,1;0,0,0,0) at t^2 = 3 sits on the closures of the five
    # trefoil-like and excellent components
    from charvar.tracealg import TraceVector
    t = SQRT3
    v = TraceVector(t=t, t12=1, t23=1, t34=1, t14=1, t13=1, t24=1,
                    t123=0, t124=0, t134=0, t234=0)
    for cid in ("X4", "X51", "X52", "X61", "X62"):
        assert worst(cid, v) <= 1e-10, cid


def test_census_counts_and_parameters():
    rep = enumerate_parabolic()
    assert rep.total == 26
    assert rep.counts == {"X11": 4, "X12": 4, "X21": 4, "X22": 4, "X3": 2,
                          "X4": 4, "X51": 1, "X52": 1, "X61": 1, "X62": 1}
    # X11/X12 parameters against the closed forms
    for cid in ("X11", "X12"):
        mus = [s.params["mu"] for s in rep.samples if s.id == cid]
        xs = [s.params["x"] for s in rep.samples if s.id == cid]
        want_mu, want_x = [], []
        for eps in (1, -1):
            mu = (3 + 3 * eps * SQRT3 * 1j) / 2
            want_mu += [mu, mu]
            root = cmath.sqrt(2 * eps * SQRT3 * 1j - 18)
            want_x += [(3 + 3 * eps * SQRT3 * 1j + root) / 4,
                       (3 + 3 * eps * SQRT3 * 1j - root) / 4]
        assert match_multisets(mus, want_mu, 1e-9)
        assert match_multisets(xs, want_x, 1e-9)
    # X21/X22 parameters
    for cid in ("X21", "X22"):
        zs = [s.params["z"] for s in rep.samples if s.id == cid]
        gs = [s.params["gamma"] for s in rep.samples if s.id == cid]
        assert match_multisets(zs, [(3 + SQRT3 * 1j) / 2, (3 + SQRT3 * 1j) / 2,
                                    (3 - SQRT3 * 1j) / 2, (3 - SQRT3 * 1j) / 2],
                               1e-9)
        want_g = []
        for eps in (1, -1):
            root = cmath.sqrt(30 * eps * SQRT3 * 1j - 18)
            want_g += [(3 + eps * SQRT3 * 1j + root) / 4,
                       (3 + eps * SQRT3 * 1j - root) / 4]
        assert match_multisets(gs, want_g, 1e-9)
    # X4 u-values are the roots of the frozen parabolic quartic
    us = [s.params["u"] for s in rep.samples if s.id == "X4"]
    assert match_multisets(us, solve_poly([1, -6, 19, -30, 17]), 1e-9)
    # census is deterministic and dedup idempotent
    rep2 = enumerate_parabolic()
    assert [s.id for s in rep2.samples] == [s.id for s in rep.samples]
    assert all(max_dev(a.vector, b.vector) == 0
               for a, b in zip(rep.samples, rep2.samples))


def _dedup_by_pairs(samples):
    """Census dedup as a pairwise loop: keep a sample unless every
    coordinate lies within CLUSTER_TOL of one already kept."""
    kept = []
    for smp in samples:
        key = _t_coords(smp.vector)
        if not any(max(abs(a - b) for a, b in
                       zip(key, _t_coords(old.vector))) <= CLUSTER_TOL
                   for old in kept):
            kept.append(smp)
    return kept


def _shifted(smp, key, delta):
    v = smp.vector
    return ComponentSample(smp.id, smp.branch, smp.params, dataclasses.replace(
        v, **{key: getattr(v, key) + delta}))


def test_census_dedup_matches_pairwise_loop():
    samples = [smp for cid in COMPONENTS for smp in sample_component(cid, 2.0)]
    assert len(samples) == 26
    assert _dedup(samples) == _dedup_by_pairs(samples)
    assert _dedup(samples) == enumerate_parabolic().samples
    # injected near-duplicates, among them a chain a, b, c with b within
    # CLUSTER_TOL of a and of c but c not of a: c is kept, because the
    # sample it is near (b) was not
    rng = np.random.default_rng(5)
    a = samples[7]
    extra = [_shifted(a, "t13", 0.6 * CLUSTER_TOL),
             _shifted(a, "t13", 1.2 * CLUSTER_TOL),
             _shifted(a, "t124", 3 * CLUSTER_TOL * 1j)]
    for smp in samples[::3]:
        key = str(rng.choice(COORD_KEYS))
        extra.append(_shifted(smp, key, rng.uniform(-2, 2) * CLUSTER_TOL))
    mixed = samples + extra
    kept = _dedup(mixed)
    assert kept == _dedup_by_pairs(mixed)
    assert kept[:26] == samples and kept[26:28] == extra[1:3]
    assert len(kept) < len(mixed)
    case = [mixed[i] for i in rng.permutation(len(mixed))]
    assert _dedup(case) == _dedup_by_pairs(case)


def test_excellent_quartic_frozen_slices():
    assert excellent_quartic(2.0) == (1, -6 + 0j, 19 + 0j, -30 + 0j, 17 + 0j)
    assert excellent_quartic(0.0) == (1, 2 + 0j, 3 + 0j, 2 + 0j, 1 + 0j)


@pytest.mark.parametrize("t", [1e100, complex("nan")])
def test_excellent_quartic_overflow_is_typed(t):
    # t ** 4 overflows at 1e100, and a NaN t is no parameter: both raise
    # what sample_component("X4", t) raises at the same t
    for call in (excellent_quartic, lambda t: sample_component("X4", t)):
        with pytest.raises(ExcludedParameter):
            call(t)


@pytest.mark.parametrize("t", [10 ** 400, -10 ** 400, Fraction(10 ** 400, 3)],
                         ids=["int", "negative-int", "Fraction"])
def test_t_beyond_double_range_is_typed(t):
    # complex(t) itself overflows; no sampler, quartic or probe gets a t
    calls = [excellent_quartic, lambda t: explore_solve(t, 0, 1)]
    calls += [lambda t, cid=cid: sample_component(cid, t)
              for cid in COMPONENTS]
    calls += [lambda t, cid=cid: check_admissible(cid, t)
              for cid in COMPONENTS]
    for call in calls:
        with pytest.raises(ExcludedParameter, match="overflows"):
            call(t)


@pytest.mark.parametrize("t", [1.5e308 + 1.5e308j, -1.5e308 - 1.5e308j])
def test_t_whose_modulus_overflows_is_typed(t):
    # t is finite, but abs(t) raises OverflowError; the refusal rule must
    # refuse it before measuring its distance to an excluded value
    calls = [lambda t: explore_solve(t, 0, 1)]
    calls += [lambda t, cid=cid: sample_component(cid, t)
              for cid in COMPONENTS]
    calls += [lambda t, cid=cid: check_admissible(cid, t)
              for cid in COMPONENTS]
    for call in calls:
        with pytest.raises(ExcludedParameter, match="overflows"):
            call(t)


def test_excellent_quartic_elimination_oracle(rng):
    # oracle: expand (u^2+u+1-t^2)^2 + t^2 (t^2+4-2u)(u^2+u+1-t^2)
    #         - t^2 (5 t^2 u - t^4 - 4 t^2 + 6) with polynomial arithmetic
    for _ in range(20):
        t = complex(*rng.uniform(-3, 3, 2))
        lin = np.array([1.0, 1.0, 1 - t * t], dtype=complex)  # u^2 + u + ...
        sq = np.convolve(lin, lin)
        mid = np.convolve(np.array([-2, t * t + 4], dtype=complex) * t * t,
                          lin)
        poly = sq.copy()
        poly[1:] += mid  # degree 3 into degree 4 array
        poly[3] += -5 * t ** 4
        poly[4] += t ** 2 * (t ** 4 + 4 * t * t - 6)
        got = np.array(excellent_quartic(t))
        assert np.abs(poly - got).max() <= 1e-9 * max(
            1.0, np.abs(poly).max())


def test_quartic_matches_x4_samples(rng):
    for _ in range(10):
        t = admissible_t(rng)
        roots = solve_poly(excellent_quartic(t))
        us = [s.params["u"] for s in sample_component("X4", t)]
        assert match_multisets(us, roots, 1e-7)


def test_x4_samples_across_t():
    # one sampler for every t: just above |t| = 1e-3, where dividing by t
    # missed the 1e-10 gate; t = 0, where the tower's two r-branches give
    # the same u and eta = +-sqrt6 separates them; t = 1, -1 and
    # -1.3530241037995296, where a shift of the multiplication matrices
    # that sampled X4 before the tower had a repeated eigenvalue; and
    # larger t
    ts = [0.0004993895497135015 + 0.0009801071766072046j,
          -0.0004993895497135015 - 0.0009801071766072046j,
          0.0, 1.0, -1.0, -1.3530241037995296, 2.0, 100.0]
    ts += [r * cmath.exp(1j * cmath.pi * k / 360)
           for r in (1.0000001e-3, 1.1e-3) for k in range(721)]
    for t in ts:
        samples = sample_component("X4", t)
        pairs = [(s.params["u"], s.params["eta"]) for s in samples]
        assert len(pairs) == 4, t
        assert all(max(abs(u - u2), abs(e - e2)) > CLUSTER_TOL
                   for i, (u, e) in enumerate(pairs)
                   for u2, e2 in pairs[:i]), t
        assert _worst([worst("X4", s.vector) for s in samples]) <= 1e-10, t
        if t == 0:  # four distinct pairs of a root of u^2 + u + 1 and +-sqrt6
            assert all(abs(u * u + u + 1) <= 1e-12 and abs(e * e - 6) <= 1e-12
                       for u, e in pairs)
        else:
            assert match_multisets([u for u, _ in pairs],
                                   solve_poly(excellent_quartic(t)), 1e-7), t


def test_sampler_guards_sit_over_excluded_t():
    # each degenerate fibre of a sampler lies over an excluded t, which
    # check_admissible refuses; exact in sympy
    sp = pytest.importorskip("sympy")
    t, u, eta = sp.symbols("t u eta")
    # X4's raw defining equations, lin and q_eta, at its row image
    terms = catalog.membership_terms("X4", catalog._x4_vector(t, u, eta))
    quartic = sp.resultant(sum(terms["lin"]), sum(terms["q_eta"]), eta)
    for tv in (0.3 + 0.2j, 2.0, -1.7 + 1j):  # it is excellent_quartic
        got = excellent_quartic(tv)
        want = [complex(c.subs(t, tv))
                for c in sp.Poly(quartic, u).all_coeffs()]
        assert np.abs(np.array(got) - want).max() <= 1e-12
    # X4's u = 1 double root lies over t = +-sqrt3
    assert sp.expand(quartic.subs(u, 1) - (t ** 2 - 3) ** 2) == 0
    # the X1/X2 (alpha, mu) and (alpha, z) special pairs lie over
    # alpha = 2 +- 2sqrt2, that is over t = +-(1 + sqrt2) and t = +-(sqrt2 - 1)
    s2 = sp.sqrt(2)
    for bad_al, r in ((2 + 2 * s2, 1 + s2), (2 - 2 * s2, s2 - 1)):
        assert sp.expand(catalog._alpha(t) - bad_al - (t - r) * (t + r)) == 0
    exotic = ("X11", "X12", "X21", "X22")
    for cids, r in ((("X4",), sp.sqrt(3)), (exotic, 1 + s2), (exotic, s2 - 1)):
        for cid in cids:
            for z in (float(r), -float(r)):
                assert min(abs(z - bad) for bad in catalog.EXCLUDED_T[cid]) \
                    <= 1e-15, (cid, z)


def test_x4_inverse_pattern_locus_is_excluded():
    # u = t^2/2, eta = t lies on X4 exactly where t^4 - 6t^2 + 4 = 0, and
    # there t13 = 2: the character of x3 = x1^(-1). check_admissible
    # refuses each of its real roots +-sqrt(3 +- sqrt5); exact in sympy
    sp = pytest.importorskip("sympy")
    t = sp.Symbol("t")
    v = catalog._x4_vector(t, t ** 2 / 2, t)
    terms = catalog.membership_terms("X4", v)
    locus = t ** 4 - 6 * t ** 2 + 4
    gcd = sp.gcd(*(sp.expand(sum(terms[k])) for k in ("lin", "q_eta")))
    assert sp.Poly(gcd, t).monic().as_expr() == locus
    assert sp.expand(v.t13 - 2) == 0
    roots = sp.Poly(locus, t).real_roots()
    assert len(roots) == 4
    for r in roots:
        with pytest.raises(ExcludedParameter):
            check_admissible("X4", float(r))


def test_x4_double_u_locus_is_excluded():
    # the u-discriminant of X4's quartic is
    # 16 t^4 (t^2 - 6)^2 (t^2 - 3)^2 (t^2 - 2t - 1)(t^2 + 2t - 1), as
    # catalog's comment on _X4_EXCLUDED derives it. Over the roots
    # t = +-1 +- sqrt2 of the last two factors one u-quadratic of the tower
    # has a double root, which two of the four samples would share (6e-8
    # apart in floating point). check_admissible refuses each real root;
    # exact in sympy
    sp = pytest.importorskip("sympy")
    t, u, eta = sp.symbols("t u eta")
    terms = catalog.membership_terms("X4", catalog._x4_vector(t, u, eta))
    quartic = sp.resultant(sum(terms["lin"]), sum(terms["q_eta"]), eta)
    locus = (t ** 2 - 2 * t - 1) * (t ** 2 + 2 * t - 1)
    want = 16 * t ** 4 * (t ** 2 - 6) ** 2 * (t ** 2 - 3) ** 2 * locus
    ratio = sp.cancel(sp.discriminant(quartic, u) / want)
    assert ratio.is_number and ratio != 0
    roots = sp.Poly(locus, t).real_roots()
    assert len(roots) == 4
    for r in roots:
        with pytest.raises(ExcludedParameter):
            check_admissible("X4", float(r))
        with pytest.raises(ExcludedParameter):
            sample_component("X4", float(r))


@pytest.mark.parametrize("radius", [1e-3, 1, 2.5, 100, 3000, 1e4])
def test_x4_samples_match_mpmath_roots(radius):
    # against the roots of excellent_quartic to 60 digits, with eta read off
    # lin, every u and eta is right to 1e-14 relative to max(1, |c|). On
    # these circles the multiplication-matrix sampler that preceded the
    # tower missed by 3.2e-12 at |t| = 100 and 5.4e-5 at 3000, and raised
    # ConstraintViolated at 1e4
    mp = pytest.importorskip("mpmath")
    with mp.workdps(60):
        for k in range(12):
            t = radius * cmath.exp(2j * math.pi * (k + 0.3) / 12)
            tm = mp.mpc(t)
            # excellent_quartic's coefficients, in 60 digits
            quartic = [1, 2 - 2 * tm ** 2, tm ** 4 + 3, 2 - 2 * tm ** 4,
                       2 * tm ** 4 - 4 * tm ** 2 + 1]
            want = [(u, (u * u + u - tm * tm + 1) / tm)
                    for u in mp.polyroots(quartic, maxsteps=200,
                                          extraprec=200)]
            for smp in sample_component("X4", t):
                got = (smp.params["u"], smp.params["eta"])
                near = min(want, key=lambda w: sum(
                    abs(mp.mpc(g) - c) for g, c in zip(got, w)))
                want.remove(near)
                for g, c in zip(got, near):
                    assert abs(mp.mpc(g) - c) <= 1e-14 * max(1, abs(c)), \
                        (t, smp.branch)


def test_sampler_margin_keeps_samplers_off_degenerate_fibres():
    # on a circle just outside SAMPLER_MARGIN around each t over a special
    # pair, X4's u = 1 or a double root of one of X4's u-quadratics, every
    # sampler succeeds and its parameters keep their distance from the
    # degenerate values (least seen: 3.7e-3 for (alpha, mu), 1.0e-3 for
    # (alpha, z), 7.3e-4 for |u - 1|, 6.8e-2 between two of X4's four u
    # around t = +-(sqrt2 - 1) and 0.16 around t = +-(1 + sqrt2))
    s2 = math.sqrt(2)
    circle = [1.0001 * SAMPLER_MARGIN * cmath.exp(2j * math.pi * k / 180)
              for k in range(180)]
    special = {"mu": ((2 + 2 * s2, 2 * s2), (2 - 2 * s2, -2 * s2)),
               "z": ((2 + 2 * s2, s2), (2 - 2 * s2, -s2))}
    for cid, key in (("X11", "mu"), ("X12", "mu"), ("X21", "z"),
                     ("X22", "z")):
        for r in (1 + s2, -1 - s2, s2 - 1, 1 - s2):
            for dt in circle:
                for smp in sample_component(cid, r + dt):
                    p = smp.params
                    for bad_al, bad in special[key]:
                        assert max(abs(p["alpha"] - bad_al),
                                   abs(p[key] - bad)) >= 1e-4, (cid, r, dt)
    for r in (SQRT3.real, -SQRT3.real):
        for dt in circle:
            for smp in sample_component("X4", r + dt):
                assert abs(smp.params["u"] - 1) >= 1e-4, (r, dt)
    for r in (1 + s2, -1 - s2, s2 - 1, 1 - s2):
        for dt in circle:
            us = [smp.params["u"] for smp in sample_component("X4", r + dt)]
            assert min(abs(a - b) for a, b in itertools.combinations(us, 2)) \
                >= 1e-2, (r, dt)


@pytest.mark.parametrize("partner", ["X12", "X22", "X52", "X62"])
def test_partner_raises_where_its_base_raises(partner):
    # a partner samples its base and rotates: it must refuse the same t
    # with the same exception type, and name itself, not its base
    base = ROTATION_PAIR[partner]
    for t in EXCLUDED_T[base]:
        with pytest.raises(CharVarError) as want:
            sample_component(base, t)
        with pytest.raises(type(want.value)) as got:
            sample_component(partner, t)
        assert type(got.value) is type(want.value), t
        assert str(got.value) == str(want.value).replace(base, partner)


@pytest.mark.parametrize("t", [30.0, 100.0, 1000.0, 3000.0, 20j])
def test_partner_self_check_matches_its_base_at_large_t(t):
    # the self-check of a partner sample is its base's check of the base
    # sample: at large |t|, where some base samples miss SAMPLE_TOL, the
    # partner samples or raises exactly when its base does
    for partner in ("X12", "X22", "X52", "X62"):
        base = ROTATION_PAIR[partner]
        try:
            want = [smp.vector for smp in sample_component(base, t)]
        except ConstraintViolated as exc:
            with pytest.raises(ConstraintViolated) as got:
                sample_component(partner, t)
            assert str(got.value) == str(exc).replace(base, partner)
        else:
            got = sample_component(partner, t)
            assert [smp.vector.rotate() for smp in got] == want, partner


def _cold(cid, t):
    """repr of sample_component(cid, t) computed with the memo empty."""
    catalog._LAST.clear()
    return repr(sample_component(cid, t))


def test_sample_memo_matches_a_cold_computation_in_any_call_order():
    # the memo of the base components' checked samples hands out, bit for
    # bit, what a cold call computes: partners before or after their base,
    # each call repeated, and other t in between
    ts = [1.3 + 0.4j, -0.7 + 2.1j, 2.0, 30.0]
    want = {(cid, t): _cold(cid, t) for cid in COMPONENTS for t in ts}
    for order in (COMPONENTS, COMPONENTS[::-1]):
        catalog._LAST.clear()
        for cid in order:
            for t in ts:
                for _ in range(2):
                    assert repr(sample_component(cid, t)) == want[cid, t]
        catalog._LAST.clear()
        for t in ts:
            for cid in order:
                assert repr(sample_component(cid, t)) == want[cid, t]


def test_sample_memo_keeps_signed_zeros_apart():
    # 0j, -0 + 0j and -0j compare equal but have their own bits, which the
    # samples keep; the memo tells them apart whichever comes first
    zeros = (0j, complex(-0.0, 0.0), complex(0.0, -0.0))
    for cid in ("X3", "X4", "X51", "X52"):
        want = [_cold(cid, z) for z in zeros]
        assert len(set(want)) == 3, cid
        for order in itertools.permutations(range(3)):
            catalog._LAST.clear()
            for k in order:
                assert repr(sample_component(cid, zeros[k])) == want[k]


def test_returned_samples_and_census_are_new_each_call():
    # mutating what one call returns changes nothing the next call returns
    t = 1.3 + 0.4j
    for cid in ("X11", "X12", "X4"):
        want = _cold(cid, t)
        got = sample_component(cid, t)
        got[0].params.clear()
        got[-1].params["t"] = 5j
        got.pop()
        assert repr(sample_component(cid, t)) == want, cid
    census = enumerate_parabolic()
    want = repr(census)
    census.samples[0].params["u"] = 0j
    census.samples.pop()
    census.counts["X3"] = 99
    assert repr(enumerate_parabolic()) == want


def test_sample_memo_keeps_no_exception():
    # a refused sample leaves no entry behind, and each call raises anew
    # with its own id in the message, whichever of base and partner raised
    # first
    for base, partner, t, exc in (
            ("X21", "X22", 100.0, ConstraintViolated),
            ("X11", "X12", 1e200, ExcludedParameter),
            ("X51", "X52", 1e200, ExcludedParameter)):
        msgs = {}
        for order in ((base, partner), (partner, base)):
            catalog._LAST.clear()
            for cid in order * 2:
                with pytest.raises(exc) as got:
                    sample_component(cid, t)
                msgs.setdefault(cid, str(got.value))
                assert str(got.value) == msgs[cid]
                assert not catalog._LAST
        assert partner in msgs[partner] and base not in msgs[partner]
        assert msgs[partner] == msgs[base].replace(base, partner)


def test_one_ulp_moves_leave_row_residuals_at_rounding_level():
    # each coordinate equation of X3, X4, X5 and X6 is the coordinate minus
    # its row value, divided by max(1, largest term): a one-ulp move of any
    # coordinate of a sample stays at rounding level at |t| = 1000, where
    # the row values reach 1e6 (X6's 1e12)
    for k in range(12):
        t = 1000 * cmath.exp(2j * math.pi * (k + 0.5) / 12)
        for cid in ("X3", "X4", "X51", "X52", "X61", "X62"):
            for smp in sample_component(cid, t):
                for key in COORD_KEYS[1:]:
                    z = complex(getattr(smp.vector, key))
                    h = math.ulp(abs(z))
                    for step in (h, -h, 1j * h, -1j * h):
                        v = dataclasses.replace(smp.vector, **{key: z + step})
                        assert worst(cid, v) <= 1e-13, (cid, t, key, step)


def test_row_residual_keys_follow_coord_keys():
    for cid in ("X51", "X52", "X61", "X62"):
        v = sample_component(cid, 3.0)[0].vector
        assert tuple(membership_residual(cid, v)) == COORD_KEYS[1:], cid


def test_special_points_quartic_roots_match_oracle():
    # the closed forms at t = 1 and t = sqrt5, label by label, against the
    # Durand-Kerner roots of the quartic there in the same order
    pts = {lbl: params for lbl, params, _ in special_points()}
    for tag, t, coeffs in (("t2_1", 1, [1, 0, 4, 0, -1]),
                           ("t2_5", cmath.sqrt(5), [1, -8, 28, -48, 31])):
        want = catalog._sorted_roots(solve_poly(coeffs))
        for k, u in enumerate(want):
            params = pts[f"{tag}_root{k}"]
            assert abs(params["t"] - t) <= 1e-12, (tag, k)
            assert abs(params["u"] - u) <= 1e-12, (tag, k)


def test_special_points_all_satisfy_x4():
    pts = special_points()
    labels = [lbl for lbl, _, _ in pts]
    assert "hyperbolicity_limit" in labels
    for lbl, params, vec in pts:
        assert worst("X4", vec) <= 1e-10, lbl
    by_label = dict((lbl, p) for lbl, p, _ in pts)
    p = by_label["hyperbolicity_limit"]
    s2 = cmath.sqrt(2)
    assert abs(p["t"] - (1 - s2)) < 1e-15
    assert abs(p["u"] - (1 - s2)) < 1e-15
    assert abs(p["eta"] + s2) < 1e-15


def test_classify_exact_samples(rng):
    t = admissible_t(rng)
    for cid in ("X3", "X21", "X62"):
        smp = sample_component(cid, t)[0]
        y = np.array(_t_coords(smp.vector)[1:])
        f, _ = probe_f_jac(t, y[None])
        assert np.abs(f).max() <= 1e-8
        assert classify_point(smp.vector) == cid


def test_nan_coordinate_is_never_labelled():
    # a NaN anywhere fails the definitive relations, and a component whose
    # membership residuals hold a NaN never wins, wherever the NaN sits
    for cid in COMPONENTS:
        for smp in sample_component(cid, 1.3 + 0.4j):
            assert classify_point(smp.vector) == cid
            for key in COORD_KEYS:
                v = dataclasses.replace(smp.vector, **{key: complex(math.nan)})
                assert classify_point(v) == "non-character", (cid, key)
                label, value = best_membership(v)
                assert (label, value) == ("", math.inf), (cid, key)


def test_probe_system_matches_public_functions(rng):
    # the batched probe kernel must agree with the reference implementations
    for _ in range(10):
        coords = rng.standard_normal(11) + 1j * rng.standard_normal(11)
        v = TraceVector(*coords)
        s = s_from_t(v)
        ref = np.array(trace_equation_residuals(v) + typeII_residuals(s)
                       + typeI_residuals(s))[_PROBE_ROWS]
        got, _ = probe_f_jac(v.t, coords[None, 1:])
        assert np.abs(got[0] - ref).max() <= 1e-10 * max(
            1.0, np.abs(ref).max())


def test_probe_jacobian_matches_finite_differences(rng):
    h = 1e-6
    for _ in range(10):
        t = complex(*rng.standard_normal(2))
        y = rng.standard_normal((1, 10)) + 1j * rng.standard_normal((1, 10))
        _, jac = probe_f_jac(t, y)
        shifts = h * np.eye(10)
        hi, _ = probe_f_jac(t, y + shifts)   # row k: y shifted along k
        lo, _ = probe_f_jac(t, y - shifts)
        fd = ((hi - lo) / (2 * h)).T
        assert np.abs(fd - jac[0]).max() <= 1e-6 * max(
            1.0, np.abs(jac[0]).max())


def _typeI_by_cofactors(t, y):
    """The weighted type I rows of the probe system from all 90 cofactors of
    the ten kept Gram minors, each Jacobian entry the sum of the cofactors
    of the Gram entries that hold its pair, in row-major order."""
    n, nxt, aft, tt = len(y), [1, 2, 0], [2, 0, 1], t * t
    kept = len(_TYPEI_KEPT)
    ta, tb = np.divmod(_TYPEI_KEPT, 4)
    shift = _probe_kernel._SHIFT_COLS
    s = np.concatenate([np.full((n, 1), tt / 2 - 2), y[:, :6] - tt / 2], 1)
    st = y[:, 6:] - (t / 2) * y[:, shift].sum(axis=2) + t ** 3 / 2
    dst = np.zeros((4, 10), dtype=complex)
    dst[np.arange(4)[:, None], shift] = -t / 2
    dst[:, 6:] = np.eye(4)
    slots = _probe_kernel._GRAM.ravel()[
        np.array(_TYPEI_SLOTS)[list(_TYPEI_KEPT)]]             # (10, 9)
    minor = s[:, slots.reshape(kept, 3, 3)]
    r1, r2 = minor[:, :, nxt], minor[:, :, aft]
    cof = r1[..., nxt] * r2[..., aft] - r1[..., aft] * r2[..., nxt]
    det = (minor[..., 0, 0] * cof[..., 0, 0] + minor[..., 0, 1] * cof[..., 0, 1]
           + minor[..., 0, 2] * cof[..., 0, 2])
    sa, sb = st[:, ta], st[:, tb]
    jac = 2 * (sb[:, :, None] * dst[ta] + sa[:, :, None] * dst[tb])
    per_pair = np.zeros((n, kept, 6), dtype=complex)
    for r, e in zip(*np.nonzero(slots)):         # slot 0 is s0, no pair
        per_pair[:, r, slots[r, e] - 1] += cof.reshape(n, kept, 9)[:, r, e]
    jac[:, :, :6] += per_pair
    f = 2 * sa * sb + det
    paired = ta < tb
    f[:, paired] *= math.sqrt(2)
    jac[:, paired] *= math.sqrt(2)
    return f, jac


def test_minor_table_matches_cofactors_bitwise(rng):
    assert len(_probe_kernel._MINOR_OPS) == 41
    for t in (2 + 0j, 1e-3 + 2e-3j, 1.1 + 0.7j, -2.3 - 0.4j):
        for n in (1, 7, 32, 100):
            shape = (n, 10)
            y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            aug = _probe_kernel._ProbeSystem(t)(y)
            f, jac = -aug[:, :, 10], aug[:, :, :10]
            ref_f, ref_jac = _typeI_by_cofactors(t, y)
            assert f[:, 16:].tobytes() == ref_f.tobytes()
            assert jac[:, 16:].tobytes() == ref_jac.tobytes()


class _Dual:
    """a + b e with e^2 = 0 and b a gradient. The scalar kernels are plain
    field arithmetic, so on coordinates a + e_k e they return each residual
    with its exact gradient (forward-mode differentiation)."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def __add__(self, o):
        if isinstance(o, _Dual):
            return _Dual(self.a + o.a, self.b + o.b)
        return _Dual(self.a + o, self.b)

    __radd__ = __add__

    def __neg__(self):
        return _Dual(-self.a, -self.b)

    def __sub__(self, o):
        return self + -o

    def __rsub__(self, o):
        return -self + o

    def __mul__(self, o):
        if isinstance(o, _Dual):
            return _Dual(self.a * o.a, self.a * o.b + o.a * self.b)
        return _Dual(self.a * o, self.b * o)

    __rmul__ = __mul__


def _scalar_rows(t, y):
    """The 32 raw residuals of the scalar kernels at the coordinates y
    (COORD_KEYS[1:]) and their (32, 10) Jacobian in y."""
    eye = np.eye(10)
    v = TraceVector(t, *(_Dual(c, eye[k]) for k, c in enumerate(y.tolist())))
    s = s_from_t(v)
    rows = (trace_equation_residuals(v) + typeII_residuals(s)
            + typeI_residuals(s))
    return np.array([r.a for r in rows]), np.array([r.b for r in rows])


def test_weighted_rows_keep_the_normal_equations(rng, monkeypatch):
    # the 26 weighted rows of the probe system have the J^H J and J^H f of
    # all 32 equations of the scalar kernels, to rounding, so the Newton
    # step is that of all 16 type I relations: on random y, and on rows
    # whose rank-deficient J takes the lstsq fallback (X51's and X52's
    # samples, and the abelian character)
    svd_rows, svd_steps = [0], _probe_kernel._svd_steps

    def spy(j, r):
        svd_rows[0] += len(j)
        return svd_steps(j, r)

    monkeypatch.setattr(_probe_kernel, "_svd_steps", spy)
    for t in (1.3 + 0.4j, 2 + 0j, -2.3 - 0.4j):
        y = rng.standard_normal((5, 10)) + 1j * rng.standard_normal((5, 10))
        singular = np.array(
            [_t_coords(v)[1:] for v in (sample_component("X51", t)[0].vector,
                                        sample_component("X52", t)[0].vector,
                                        _abelian(t))])
        for rows, fallback in ((y, 0), (singular, len(singular))):
            aug = _probe_kernel._ProbeSystem(t)(rows)
            svd_rows[0] = 0
            _augmented_steps(aug, np.ones(len(rows), dtype=bool))
            assert svd_rows[0] == fallback, t
            for k, row in enumerate(rows):
                f, jac = _scalar_rows(t, row)
                jac_w, f_w = aug[k, :, :10], -aug[k, :, 10]
                scale = np.abs(jac).max() * max(np.abs(jac).max(),
                                                np.abs(f).max())
                for got, want in ((jac_w.conj().T @ jac_w,
                                   jac.conj().T @ jac),
                                  (jac_w.conj().T @ f_w, jac.conj().T @ f)):
                    assert np.abs(got - want).max() <= 1e-13 * scale, (t, k)


def test_stop_rules_read_the_unweighted_residual(rng):
    # the stop rules read each start's max |f| over all 32 equations, not
    # the max over the weighted rows, which can be up to sqrt 2 larger
    t = 1.3 + 0.4j
    y = rng.standard_normal((40, 10)) + 1j * rng.standard_normal((40, 10))
    aug = _probe_kernel._ProbeSystem(t)(y)
    got = _probe_kernel._max_residual(aug)
    weighted = np.abs(aug[:, :, 10]).max(axis=1)
    larger = 0
    for k, row in enumerate(y):
        want = np.abs(_scalar_rows(t, row)[0]).max()
        assert abs(got[k] - want) <= 1e-13 * want, k
        larger += weighted[k] > 1.2 * want
    assert larger >= 10


def test_probe_system_buffer_keeps_no_state(rng):
    # a system reuses one buffer across calls: after a call on NaN and inf
    # rows, a call on fewer rows, and the first rows again, each result is
    # a fresh system's, byte for byte
    t = 1.7421 + 0.3885j
    first = rng.standard_normal((_PROBE_BLOCK, 10)) \
        + 1j * rng.standard_normal((_PROBE_BLOCK, 10))
    first[3, 2] = np.nan
    first[40] = np.inf
    first[41, 7] = complex(-np.inf, np.nan)
    other = rng.standard_normal((7, 10)) + 1j * rng.standard_normal((7, 10))
    system = _probe_kernel._ProbeSystem(t)
    with np.errstate(over="ignore", invalid="ignore"):
        for y in (first, other, first):
            got = system(y)
            assert got.tobytes() == \
                _probe_kernel._ProbeSystem(t)(y).tobytes(), len(y)
        assert np.shares_memory(system(other), system(first))


@pytest.mark.filterwarnings("error")
def test_lstsq_steps_match_lstsq(rng, monkeypatch):
    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    jac, rhs = cplx(11, 32, 10), cplx(11, 32)
    jac[5, :, 9] = jac[5, :, 3]                  # rank 9: a repeated column
    jac[6] *= np.logspace(0, -10, 10)            # kappa about 1e10
    jac[7] = 0                                   # all-zero J
    rhs[8] = 0                                   # zero right-hand side
    # R^-1 near 1e200: its squared norm overflows in the gate
    jac[9] *= 1e-200
    rhs[9] *= 1e-200
    # R is this upper triangular J itself, whose inverse grows as 1e40^k:
    # the back substitution overflows to inf and then nan
    jac[10] = 0
    jac[10, :10] = np.eye(10) - 1e40 * np.triu(np.ones((10, 10)), 1)
    assert 1e9 < np.linalg.cond(jac[6]) < 1e11
    svd_rows, svd_steps = [], _probe_kernel._svd_steps

    def spy(j, r):
        svd_rows.extend(k for k in range(len(jac))
                        if any(np.array_equal(jac[k], x) for x in j))
        return svd_steps(j, r)

    monkeypatch.setattr(_probe_kernel, "_svd_steps", spy)
    fallback = [5, 6, 7, 9, 10]
    for pick in (range(len(jac)), fallback):
        svd_rows.clear()
        got = _augmented_steps(np.dstack([jac[pick], rhs[pick]]),
                               np.ones(len(pick), dtype=bool))
        assert sorted(svd_rows) == fallback
        for k, step in zip(pick, got):
            ref = np.linalg.lstsq(jac[k], rhs[k], rcond=None)[0]
            if k in fallback:
                assert step.tobytes() == ref.tobytes(), k
            else:
                assert np.linalg.norm(step - ref) <= 1e-9 * np.linalg.norm(ref)
    # the keep mask: each kept row's step is the same bytes as in the
    # compacted stack, in the kernel's entry-major layout too, and the
    # dropped rank-9 and all-zero rows never reach _svd_steps
    aug = np.dstack([jac, rhs])
    keep = np.ones(len(jac), dtype=bool)
    keep[[0, 5, 7, 8]] = False
    svd_rows.clear()
    want = _augmented_steps(aug[keep], np.ones(keep.sum(), dtype=bool))
    assert sorted(svd_rows) == [6, 9, 10]
    entry_major = np.ascontiguousarray(aug.transpose(1, 2, 0))
    for stack in (aug, entry_major.transpose(2, 0, 1)):
        svd_rows.clear()
        got = _augmented_steps(stack, keep)
        assert sorted(svd_rows) == [6, 9, 10]
        assert got.tobytes() == want.tobytes()
    svd_rows.clear()
    for stack, mask in ((aug, np.zeros(len(aug), dtype=bool)),
                        (np.empty((0, 32, 11), dtype=complex),
                         np.ones(0, dtype=bool))):
        got = _augmented_steps(stack, mask)
        assert got.shape == (0, 10) and svd_rows == []


@pytest.mark.filterwarnings("error")
def test_lstsq_steps_at_subnormal_scale(rng):
    # every singular value of J is near 1e-310, below the 5.6e-309 at which
    # 1 / sv overflows; the fallback still finds the exact solution x of
    # the consistent system J y = J x
    jac = rng.standard_normal((1, 32, 10)) \
        + 1j * rng.standard_normal((1, 32, 10))
    x = rng.standard_normal((1, 10)) + 1j * rng.standard_normal((1, 10))
    jac *= 1e-310
    got = _augmented_steps(np.dstack([jac, np.einsum("nij,nj->ni", jac, x)]),
                           np.ones(1, dtype=bool))
    assert np.linalg.norm(got - x) <= 1e-12 * np.linalg.norm(x)


@pytest.mark.parametrize("t,seed,attempts", [(2 + 1j, 3, 40),
                                              (1.1 + 0.7j, 5, 69)])
def test_explore_qr_steps_match_svd_steps(t, seed, attempts, monkeypatch):
    qr = explore_solve(t, seed, attempts)
    # the Newton loop solves each [J | -f] through _augmented_steps
    monkeypatch.setattr(
        _probe_kernel, "_augmented_steps", lambda aug, keep:
        _probe_kernel._svd_steps(aug[keep, :, :-1], aug[keep, :, -1]))
    svd = explore_solve(t, seed, attempts)
    assert [lbl for _, lbl in qr] == [lbl for _, lbl in svd]
    for (a, _), (b, _) in zip(qr, svd):
        assert max_dev(a, b) <= 1e-9


def test_explore_classifies(rng):
    found = explore_solve(2.0 + 1.0j, seed=3, attempts=40)
    assert found, "no converged points"
    labels = {lbl for _, lbl in found}
    assert "unclassified" not in labels
    assert "non-character" not in labels
    for v, lbl in found:
        if lbl in COMPONENTS:
            assert worst(lbl, v) <= 1e-6
    # pinned: the one-start-at-a-time finite-difference probe that the
    # batched probe replaced converged to this set from the same starts
    assert len(found) == 29
    assert Counter(lbl for _, lbl in found) == {
        "X11": 1, "X12": 5, "X21": 1, "X22": 1, "X3": 18, "X4": 3}


def test_explore_at_parabolic_slice(monkeypatch):
    # at t = 2 the fallback is heaviest: 1,312 of this call's Newton rows
    # go to _svd_steps, though the reducible starts, which took most of
    # them, stop on the abelian character
    svd_rows, svd_steps = [0], _probe_kernel._svd_steps

    def spy(j, r):
        svd_rows[0] += len(j)
        return svd_steps(j, r)

    monkeypatch.setattr(_probe_kernel, "_svd_steps", spy)
    found = explore_solve(2, seed=0, attempts=300)
    assert svd_rows[0] > 1000
    assert Counter(lbl for _, lbl in found) == {
        "reducible": 238, "X4": 53, "X61": 3, "X52": 2, "X51": 2, "X62": 1,
        "X3": 1}


def test_explore_starts_independent_of_blocking(monkeypatch):
    t = 1.1 + 0.7j
    assert explore_solve(t, seed=5, attempts=0) == []
    n = _PROBE_BLOCK + 5
    short = explore_solve(t, seed=5, attempts=n)
    full = explore_solve(t, seed=5, attempts=2 * _PROBE_BLOCK + 3)
    assert len(short) < len(full)
    assert repr(short) == repr(full[:len(short)])
    # width 1 runs one start at a time: the reference for every width; the
    # last width of each sweep exceeds the attempts and starts them all at
    # once, and the default width refills only in the second sweep
    for attempts, widths in ((69, (1, 7, 32, _PROBE_BLOCK, 300)),
                             (_PROBE_BLOCK + 41,
                              (32, _PROBE_BLOCK, _PROBE_BLOCK + 42))):
        found = []
        for width in widths:
            monkeypatch.setattr(_probe_kernel, "_PROBE_BLOCK", width)
            found.append(repr(explore_solve(t, seed=5, attempts=attempts)))
        assert found[0] != "[]"
        assert found == found[:1] * len(widths), (attempts, widths)


def _count_probe_rows(monkeypatch):
    """Wrap _ProbeSystem.__call__; the returned dict counts its calls
    (Newton iterations) and the rows it was given."""
    count = {"calls": 0, "rows": 0}
    call = _probe_kernel._ProbeSystem.__call__

    def counted(self, y):
        count["calls"] += 1
        count["rows"] += len(y)
        return call(self, y)

    monkeypatch.setattr(_probe_kernel._ProbeSystem, "__call__", counted)
    return count


def _explore_start(seed, k):
    """Start k of explore_solve(t, seed, ...) as a (1, 10) array."""
    return catalog._probe_start(seed, k)[None]


#: no exact samples: the Newton loop's near-sample stop never fires
_NO_SAMPLES = np.empty((0, 10), dtype=complex)


def _stop_rule_calls():
    """explore_solve calls whose output a stop rule must not change: the
    perfbench probe panel, each point as one of its sign images, as the
    benchmark draws them; criterion 11's t values and seeds; and the pinned
    call of test_explore_classifies."""
    calls = [(-1.3585 + 1.6948j, 7, 200), (-1.7421 - 0.3885j, 7, 200),
             (0.5667 - 1.1545j, 7, 200), (2 + 1j, 3, 40)]
    rng = np.random.default_rng(11)
    return calls + [(admissible_t(rng, margin_extra=1e-3), 100 + i, 200)
                    for i in range(5)]


def test_settle_rule_changes_no_explore_output(monkeypatch):
    calls = _stop_rule_calls()
    count = _count_probe_rows(monkeypatch)
    found, rows = [], []
    # -1: the rule never fires
    for settle in (_probe_kernel._SETTLE_STEP, -1.0):
        monkeypatch.setattr(_probe_kernel, "_SETTLE_STEP", settle)
        count["rows"] = 0
        found.append([repr(explore_solve(*c)) for c in calls])
        rows.append(count["rows"])
    assert found[0] == found[1]
    assert rows[0] < rows[1]


def _samples_at(t):
    """The exact catalog samples at t, in explore_solve's order, and their
    coordinates as the (m, 10) array the Newton loop is handed."""
    exact = [smp for cid in COMPONENTS for smp in sample_component(cid, t)]
    return exact, np.array([_t_coords(smp.vector)[1:] for smp in exact])


def _abelian(t):
    """The abelian character x1 = x2 = x3 = x4 at t."""
    d, c = t * t - 2, t ** 3 - 3 * t
    return TraceVector(t, *(d,) * 6, *(c,) * 4)


def _run_on_and_snap(t, seed, attempts):
    """explore_solve(t, seed, attempts) with no sample stop: every start
    runs on to its root, and each converged point is then snapped onto the
    first sample within _SNAP_RADIUS in max norm, then onto the abelian
    character, labelled "reducible", or else classified."""
    t = complex(t)
    exact, samples = _samples_at(t)
    targets = [(smp.vector, smp.id) for smp in exact]
    targets.append((_abelian(t), "reducible"))
    samples = np.concatenate([samples, [_t_coords(_abelian(t))[1:]]])
    starts = np.concatenate([_explore_start(seed, k) for k in range(attempts)])
    best, ok, on = _probe_kernel._newton_starts(t, starts, _NO_SAMPLES)
    assert (on == -1).all()
    out = []
    for y in best[ok]:
        near = np.abs(y - samples).max(axis=1) <= _probe_kernel._SNAP_RADIUS
        if near.any():
            out.append(targets[near.argmax()])
        else:
            v = TraceVector(t, *y.tolist())
            out.append((v, classify_point(v)))
    return out


def test_sample_stop_changes_no_explore_output(monkeypatch):
    # a start stopped on a sample, or on the abelian character, gets the
    # output that running it on to its root and snapping the root onto a
    # sample or the abelian character gives; the calls add the CI step's
    # explore commands, t = 2 among them, where most converged points are
    # reducible
    calls = _stop_rule_calls() + [
        (2, 0, 300), (1.7421 + 0.3885j, 7, 200), (1.7421 + 0.3885j, 7, 300)]
    count = _count_probe_rows(monkeypatch)
    found, rows = [], []
    for run in (explore_solve, _run_on_and_snap):
        count["rows"] = 0
        found.append([repr(run(*c)) for c in calls])
        rows.append(count["rows"])
    assert found[0] == found[1]
    assert rows[0] < rows[1]


def test_settle_rule_gives_up_a_settled_start(monkeypatch):
    # start 5 of the panel call at t = 1.7421+0.3885i, seed 7, settles at a
    # stationary point of |f|^2 above _WANDER_RES: the rule gives it up
    # long before _WANDER_ITER, and it counts as not converged either way
    t = 1.7421 + 0.3885j
    count = _count_probe_rows(monkeypatch)
    iterations = []
    for settle in (_probe_kernel._SETTLE_STEP, -1.0):
        monkeypatch.setattr(_probe_kernel, "_SETTLE_STEP", settle)
        count["calls"] = 0
        best, ok, on = _probe_kernel._newton_starts(t, _explore_start(7, 5),
                                                    _NO_SAMPLES)
        iterations.append(count["calls"])
        assert not ok[0]
        assert on[0] == -1
        f, _ = probe_f_jac(t, best)
        assert np.abs(f).max() > _probe_kernel._WANDER_RES
    # the iteration-50 rule evaluates the system once more, after step 50
    assert iterations[1] == _probe_kernel._WANDER_ITER + 1
    assert iterations[0] < _probe_kernel._WANDER_ITER // 2


#: a catalog point of each base family at t = 1.3+0.4i: (id, branch)
_ROOTS_AT_13 = (("X11", 2), ("X21", 3), ("X3", 0), ("X4", 3), ("X51", 0),
                ("X61", 0))


def test_settle_rule_spares_a_start_near_a_root(monkeypatch):
    # a start 1e-3 from a catalog point takes ever smaller steps too, but
    # its residual is below _WANDER_RES from the first, so the rule cannot
    # give it up even when every step counts as settled; with no samples
    # the loop runs it on to the root
    t = 1.3 + 0.4j
    rng = np.random.default_rng(5)
    monkeypatch.setattr(_probe_kernel, "_SETTLE_STEP", math.inf)
    for cid, branch in _ROOTS_AT_13:
        smp = sample_component(cid, t)[branch]
        root = np.array([_t_coords(smp.vector)[1:]])
        y = root + 1e-3 * np.exp(2j * np.pi * rng.random((1, 10)))
        f, _ = probe_f_jac(t, y)
        assert np.abs(f).max() <= _probe_kernel._WANDER_RES, cid
        best, ok, on = _probe_kernel._newton_starts(t, y, _NO_SAMPLES)
        assert ok[0], cid
        assert on[0] == -1, cid
        assert np.abs(best - root).max() <= 1e-6, cid


def test_sample_stop_ends_a_start_near_a_sample(monkeypatch):
    # starts 1e-5 from a catalog point, given every sample at t twice,
    # stop after the first system build and its step, on the first copy
    # of that point
    t = 1.3 + 0.4j
    rng = np.random.default_rng(6)
    _, samples = _samples_at(t)
    roots = np.array([_t_coords(sample_component(cid, t)[branch].vector)[1:]
                      for cid, branch in _ROOTS_AT_13])
    y = roots + 1e-5 * np.exp(2j * np.pi * rng.random(roots.shape))
    count = _count_probe_rows(monkeypatch)
    _, ok, on = _probe_kernel._newton_starts(
        t, y, np.concatenate([samples, samples]))
    assert count == {"calls": 1, "rows": len(roots)}
    assert ok.all()
    assert ((on >= 0) & (on < len(samples))).all()
    assert samples[on].tobytes() == roots.tobytes()


def test_abelian_stop_ends_a_start_near_it(monkeypatch):
    # starts 1e-5 from the abelian character, where the probe's reducible
    # starts end, stop on it after the first system build and its step:
    # each is labelled "reducible", with the exact vector
    rng = np.random.default_rng(8)
    count = _count_probe_rows(monkeypatch)
    for t in (1.3 + 0.4j, 2 + 0j, -0.3 + 2j):
        abelian = np.array(_t_coords(_abelian(t))[1:])
        near = abelian + 1e-5 * np.exp(2j * np.pi * rng.random((4, 10)))
        monkeypatch.setattr(catalog, "_probe_start", lambda seed, k: near[k])
        count.update(calls=0, rows=0)
        found = explore_solve(t, seed=0, attempts=len(near))
        assert count == {"calls": 1, "rows": len(near)}, t
        assert [lbl for _, lbl in found] == ["reducible"] * len(near), t
        assert {repr(v) for v, _ in found} == {repr(_abelian(t))}, t


def test_reducible_outputs_are_the_abelian_character():
    # at the probe benchmark's panel t, and just outside SAMPLER_MARGIN
    # around +-sqrt3 and +-sqrt5, where reducible characters meet the
    # components (Burde-de Rham), every "reducible" output is the abelian
    # character's exact vector
    calls = [(t, 7, 200) for t in (1.3585 + 1.6948j, 1.7421 + 0.3885j,
                                   0.5667 + 1.1545j)]
    calls += [(b + 1.02 * SAMPLER_MARGIN * cmath.exp(1j * a), 9, 100)
              for b in (SQRT3, -SQRT3, cmath.sqrt(5), -cmath.sqrt(5))
              for a in (0.3, 2.0)]
    reducible = 0
    for t, seed, attempts in calls:
        for v, lbl in explore_solve(t, seed, attempts):
            if lbl == "reducible":
                reducible += 1
                assert repr(v) == repr(_abelian(t)), t
    assert reducible >= 100


def test_sample_stop_waits_for_a_residual_below_wander_res(monkeypatch):
    # start 0 of seed 7 at t = 1.3+0.4i has max residual 45.3; its first
    # iterate, handed to the loop as the only sample, lies on that sample,
    # but the step came from above _WANDER_RES, so the start does not stop
    # there: only a start already in a root's basin is stopped on a sample
    t = 1.3 + 0.4j
    y = _explore_start(7, 0)
    f, _ = probe_f_jac(t, y)
    assert np.abs(f).max() > _probe_kernel._WANDER_RES
    seen = []                             # the rows of each system build
    call = _probe_kernel._ProbeSystem.__call__

    def recorded(self, rows):
        seen.append(rows.copy())
        return call(self, rows)

    monkeypatch.setattr(_probe_kernel._ProbeSystem, "__call__", recorded)
    _probe_kernel._newton_starts(t, y.copy(), _NO_SAMPLES)
    first = seen[1]
    seen.clear()
    on = _probe_kernel._newton_starts(t, y.copy(), first)[2]
    assert on[0] == -1
    assert len(seen) == 10


def test_probe_rows_bitwise_independent_of_block(rng):
    # each row's residuals, Jacobian and step are the same bytes in a block
    # of the default width as alone; the catalog rows include a rank-9 X51
    # Jacobian, so the block also takes the lstsq fallback
    for t in (2 + 0j, 1e-3 + 2e-3j, 1.1 + 0.7j, -2.3 - 0.4j):
        y = rng.standard_normal((_PROBE_BLOCK, 10)) \
            + 1j * rng.standard_normal((_PROBE_BLOCK, 10))
        for row, cid in zip((1, _PROBE_BLOCK // 2, -2), ("X51", "X61", "X3")):
            smp = sample_component(cid, t)[0]
            y[row] = _t_coords(smp.vector)[1:]
        aug = _probe_kernel._ProbeSystem(t)(y)
        steps = _augmented_steps(aug, np.ones(len(y), dtype=bool))
        for k in range(len(y)):
            alone = _probe_kernel._ProbeSystem(t)(y[k:k + 1])
            assert alone.tobytes() == aug[k:k + 1].tobytes(), (t, k)
            assert _augmented_steps(alone, np.ones(1, dtype=bool)
                                    ).tobytes() == \
                steps[k:k + 1].tobytes(), (t, k)


def test_probe_working_memory_is_bounded():
    # the Newton loop's temporaries grow with _PROBE_BLOCK; the bound and
    # its margin are stated at _PROBE_BLOCK. A first probe, at another t,
    # loads what a process loads once (numpy imports numpy.random on its
    # first use), so that the window holds the call's working memory alone
    # whether or not an earlier test has probed
    explore_solve(2 + 1j, seed=3, attempts=1)
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        explore_solve(1.7421 + 0.3885j, seed=7, attempts=200)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if started:
            tracemalloc.stop()
    assert peak < 2.06e6


def test_explore_excluded_t():
    with pytest.raises(ExcludedParameter):
        explore_solve(SQRT3, seed=0, attempts=1)


#: run in a fresh interpreter: whether the probe kernel is loaded after
#: importing the library and the CLI, after a probe at an excluded t, and
#: after one probe
_PROBE_IMPORT_CHECK = """
import math, sys
import charvar, charvar.cli
from charvar.errors import ExcludedParameter
loaded = ["charvar._probe_kernel" in sys.modules]
try:
    charvar.explore_solve(math.sqrt(3), 0, 1)
except ExcludedParameter:
    loaded.append("charvar._probe_kernel" in sys.modules)
charvar.explore_solve(2 + 1j, 3, 5)
loaded.append("charvar._probe_kernel" in sys.modules)
print(*loaded)
"""


def test_probe_kernel_loads_on_the_first_probe():
    # `import charvar` and the CLI do not build the kernel's tables, an
    # excluded t raises before the kernel loads, and one probe loads it
    src = os.path.dirname(os.path.dirname(charvar.__file__))
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run([sys.executable, "-c", _PROBE_IMPORT_CHECK],
                         env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "False", "True"]


@pytest.mark.parametrize("t", [math.nan, math.inf, complex(1, math.nan),
                               complex(0, -math.inf)])
def test_non_finite_t_is_excluded(t):
    # abs(nan - bad) < margin is False, so a NaN t once passed the margin
    # check and failed later, with a per-component error type and message
    for cid in COMPONENTS:
        for call in (check_admissible, sample_component):
            with pytest.raises(ExcludedParameter, match="not finite"):
                call(cid, t)
    with pytest.raises(ExcludedParameter, match="not finite"):
        explore_solve(t, seed=0, attempts=1)


def test_check_admissible_unknown_component():
    with pytest.raises(UnknownComponent, match="X9"):
        check_admissible("X9", 1.0)


def test_sample_component_unknown_component():
    # the id is checked before t: a t beyond the double range does not hide
    # an unknown id, as in check_admissible
    for t in (1.3 + 0.4j, 10 ** 400):
        with pytest.raises(UnknownComponent, match="X9"):
            sample_component("X9", t)


def test_membership_residual_unknown_component():
    v = sample_component("X3", 1.3 + 0.4j)[0].vector
    with pytest.raises(UnknownComponent, match="X9"):
        membership_residual("X9", v)
    # one typed error, still caught where a ValueError was
    assert issubclass(UnknownComponent, CharVarError)
    assert issubclass(UnknownComponent, ValueError)


def test_explore_negative_attempts():
    with pytest.raises(ValueError, match="attempts"):
        explore_solve(2 + 1j, seed=0, attempts=-1)


@pytest.mark.parametrize("t", [1e40, 1e80, 1e110, 1e160, 1e300])
def test_sampling_at_huge_t_is_finite_or_typed(t):
    # the arithmetic overflows at such t; a component must raise
    # ExcludedParameter or return finite samples, never inf or NaN
    # coordinates, and a finite sample must realize or raise a typed error
    for cid in COMPONENTS:
        try:
            samples = sample_component(cid, t)
        except ExcludedParameter:
            continue
        for smp in samples:
            coords = _t_coords(smp.vector)
            assert all(cmath.isfinite(c) for c in coords), (cid, smp.branch)
            try:
                realize_character(smp.vector)
            except CharVarError:
                pass


#: t a few sampler margins from an excluded value or from the parabolic
#: t = +-2, and t near 0, where the exotic components' triple invariants
#: collapse
_EDGE_CENTERS = sorted({*itertools.chain(*EXCLUDED_T.values()), 2.0, -2.0})
_edge_t = st.one_of(
    st.builds(lambda c, r, a: c + cmath.rect(r, a),
              st.sampled_from(_EDGE_CENTERS),
              st.floats(SAMPLER_MARGIN, 5 * SAMPLER_MARGIN),
              st.floats(0, 2 * math.pi)),
    st.builds(lambda e, a: cmath.rect(10 ** e, a),
              st.floats(-11, -2), st.floats(0, 2 * math.pi)))


@settings(derandomize=True, max_examples=50, deadline=None)
@given(t=_edge_t)
def test_samples_near_edges_realize_or_raise_typed(t):
    for cid in COMPONENTS:
        try:
            samples = sample_component(cid, t)
        except ExcludedParameter:
            continue
        assert samples, cid
        for smp in samples:
            try:
                q = realize_character(smp.vector)
            except CharVarError:
                continue
            ok, spread = is_representation(q)
            assert ok, (cid, smp.branch, spread)
            teq = necessary_conditions_residual(q)
            assert teq <= TRACE_EQ_TOL, (cid, smp.branch, teq)


@pytest.mark.parametrize("t", [20, 30, 100, 1000])
def test_x11_pair_traces_read_off_the_partner_root(t):
    # t23 = t34 = x' + 1, with x' = mu - x the other root of x's quadratic;
    # mu + 1 - x cancels where x is near mu, and missed by 1.8e-12 relative
    # at t = 20 and 1.0e-6 at t = 1000. Against each sample's own branch
    # solved to 50 digits, both are right to rounding (9.8e-17 at most)
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        al = mp.mpf(t) ** 2 - 1

        def root_near(b, c, z):
            d = mp.sqrt(b * b - 4 * c)
            return min(((-b + d) / 2, (-b - d) / 2),
                       key=lambda r: abs(r - mp.mpc(z)))

        for smp in sample_component("X11", t):
            mu = root_near(al * al - 4 * al, 4 * al * al - al ** 3,
                           smp.params["mu"])
            x = root_near(-mu, 2 * mu / al + al - 4, smp.params["x"])
            want = mu + 1 - x
            for got in (smp.vector.t23, smp.vector.t34):
                assert abs(mp.mpc(got) - want) <= 1e-15 * abs(want), smp


@pytest.mark.parametrize("t", [20, 30, 100])
def test_rotated_x11_samples_meet_x12_equations(t):
    # one rotate() of an X11 sample lies on X12, whose equations read mu
    # off the rotated t12 + t34, the sample's t23 + t14: with t23 read off
    # mu + 1 - x they missed SAMPLE_TOL by 3.7e-10, 2.2e-8 and 1.7e-5
    for smp in sample_component("X11", t):
        res = membership_residual("X12", smp.vector.rotate())
        assert max(map(abs, res.values())) <= catalog.SAMPLE_TOL, smp
