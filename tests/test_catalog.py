import cmath
import dataclasses
import itertools
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import admissible_t, match_multisets, solve_poly
from charvar import _probe_kernel, catalog
from charvar.catalog import (_PROBE_BLOCK, CLUSTER_TOL, COMPONENTS,
                             EXCLUDED_T, ROTATION_PAIR, SAMPLER_MARGIN,
                             ComponentSample, _augmented_steps, _dedup,
                             best_membership, check_admissible,
                             classify_point, enumerate_parabolic,
                             excellent_quartic, explore_solve,
                             membership_residual, sample_component,
                             special_points)
from charvar.errors import (CharVarError, ConstraintViolated,
                            ExcludedParameter, UnknownComponent)
from charvar.numfield import Poly
from charvar.reconstruct import realize_character
from charvar.tracealg import (_TYPEI_SLOTS, COORD_KEYS, TraceVector,
                              s_from_t, typeI_residuals, typeII_residuals)
from charvar.wirtinger import (TRACE_EQ_TOL, is_representation,
                               necessary_conditions_residual)

SQRT3 = cmath.sqrt(3)


def probe_f_jac(t, y):
    """The raw residuals f and the Jacobian J at each row of y."""
    aug = _probe_kernel._ProbeSystem(t)(y)
    return -aug[:, :, 10], aug[:, :, :10]


def worst(cid, v):
    return max(abs(r) for r in membership_residual(cid, v).values())


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
                assert a.vector.max_dev(b.vector) > 0.1, (step, i)


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
    assert match_multisets(us, solve_poly(Poly([1, -6, 19, -30, 17])), 1e-9)
    # census is deterministic and dedup idempotent
    rep2 = enumerate_parabolic()
    assert [s.id for s in rep2.samples] == [s.id for s in rep.samples]
    assert all(a.vector.max_dev(b.vector) == 0
               for a, b in zip(rep.samples, rep2.samples))


def _dedup_by_pairs(samples):
    """Census dedup as a pairwise loop: keep a sample unless every
    coordinate lies within CLUSTER_TOL of one already kept."""
    kept = []
    for smp in samples:
        key = list(smp.vector.coords().values())
        if not any(max(abs(a - b) for a, b in
                       zip(key, old.vector.coords().values())) <= CLUSTER_TOL
                   for old in kept):
            kept.append(smp)
    return kept


def _shifted(smp, key, delta):
    v = smp.vector.coords()
    return ComponentSample(smp.id, smp.branch, smp.params,
                           TraceVector(**{**v, key: v[key] + delta}))


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
        key = str(rng.choice(list(smp.vector.coords())))
        extra.append(_shifted(smp, key, rng.uniform(-2, 2) * CLUSTER_TOL))
    mixed = samples + extra
    kept = _dedup(mixed)
    assert kept == _dedup_by_pairs(mixed)
    assert kept[:26] == samples and kept[26:28] == extra[1:3]
    assert len(kept) < len(mixed)
    case = [mixed[i] for i in rng.permutation(len(mixed))]
    assert _dedup(case) == _dedup_by_pairs(case)


def test_excellent_quartic_frozen_slices():
    assert excellent_quartic(2.0).coeffs == (1, -6 + 0j, 19 + 0j, -30 + 0j,
                                             17 + 0j)
    assert excellent_quartic(0.0).coeffs == (1, 2 + 0j, 3 + 0j, 2 + 0j, 1 + 0j)


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
        got = np.array(excellent_quartic(t).coeffs)
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
    # missed the 1e-10 gate; t = 0; t where one fixed shift c of the
    # multiplication matrix collides (c = 1 at t = -1, c = -1 at t = 1,
    # c = 0.7390851332151607 at t = -1.3530241037995296); and larger t
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
        assert max(worst("X4", s.vector) for s in samples) <= 1e-10, t
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
        got = excellent_quartic(tv).coeffs
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


def test_sampler_margin_keeps_samplers_off_degenerate_fibres():
    # on a circle just outside SAMPLER_MARGIN around each t over a special
    # pair or X4's u = 1, every sampler succeeds and its parameters keep
    # their distance from the degenerate values (least seen: 3.7e-3 for
    # (alpha, mu), 1.0e-3 for (alpha, z), 7.3e-4 for |u - 1|)
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


def test_special_points_quartic_roots_match_oracle():
    # the closed forms at t = 1 and t = sqrt5, label by label, against the
    # Durand-Kerner roots of the quartic there in the same order
    pts = {lbl: params for lbl, params, _ in special_points()}
    for tag, t, coeffs in (("t2_1", 1, [1, 0, 4, 0, -1]),
                           ("t2_5", cmath.sqrt(5), [1, -8, 28, -48, 31])):
        want = catalog._sorted_roots(solve_poly(Poly(coeffs)))
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
        y = np.array(list(smp.vector.coords().values())[1:])
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
    from charvar.tracealg import TraceVector, trace_equation_residuals
    for _ in range(10):
        coords = rng.standard_normal(11) + 1j * rng.standard_normal(11)
        v = TraceVector(*coords)
        s = s_from_t(v)
        ref = np.array(trace_equation_residuals(v) + typeII_residuals(s)
                       + typeI_residuals(s))
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
    """The type I rows of the probe system from all 144 cofactors of the 16
    Gram minors, each Jacobian entry the sum of the cofactors of the Gram
    entries that hold its pair, in row-major order."""
    n, nxt, aft, tt = len(y), [1, 2, 0], [2, 0, 1], t * t
    ta, tb = _probe_kernel._TI_A, _probe_kernel._TI_B
    shift = _probe_kernel._SHIFT_COLS
    s = np.concatenate([np.full((n, 1), tt / 2 - 2), y[:, :6] - tt / 2], 1)
    st = y[:, 6:] - (t / 2) * y[:, shift].sum(axis=2) + t ** 3 / 2
    dst = np.zeros((4, 10), dtype=complex)
    dst[np.arange(4)[:, None], shift] = -t / 2
    dst[:, 6:] = np.eye(4)
    slots = _probe_kernel._GRAM.ravel()[np.array(_TYPEI_SLOTS)]  # (16, 9)
    minor = s[:, slots.reshape(16, 3, 3)]
    r1, r2 = minor[:, :, nxt], minor[:, :, aft]
    cof = r1[..., nxt] * r2[..., aft] - r1[..., aft] * r2[..., nxt]
    det = (minor[..., 0, 0] * cof[..., 0, 0] + minor[..., 0, 1] * cof[..., 0, 1]
           + minor[..., 0, 2] * cof[..., 0, 2])
    sa, sb = st[:, ta], st[:, tb]
    jac = 2 * (sb[:, :, None] * dst[ta] + sa[:, :, None] * dst[tb])
    per_pair = np.zeros((n, 16, 6), dtype=complex)
    for r, e in zip(*np.nonzero(slots)):         # slot 0 is s0, no pair
        per_pair[:, r, slots[r, e] - 1] += cof.reshape(n, 16, 9)[:, r, e]
    jac[:, :, :6] += per_pair
    return 2 * sa * sb + det, jac


def test_minor_table_matches_cofactors_bitwise(rng):
    assert len(_probe_kernel._MINOR_OPS) == 46
    for t in (2 + 0j, 1e-3 + 2e-3j, 1.1 + 0.7j, -2.3 - 0.4j):
        for n in (1, 7, 32, 100):
            shape = (n, 10)
            y = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            f, jac = probe_f_jac(t, y)
            ref_f, ref_jac = _typeI_by_cofactors(t, y)
            assert f[:, 16:].tobytes() == ref_f.tobytes()
            assert jac[:, 16:].tobytes() == ref_jac.tobytes()


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
    svd_rows, svd_steps = [], catalog._svd_steps

    def spy(j, r):
        svd_rows.extend(k for k in range(len(jac))
                        if any(np.array_equal(jac[k], x) for x in j))
        return svd_steps(j, r)

    monkeypatch.setattr(catalog, "_svd_steps", spy)
    fallback = [5, 6, 7, 9, 10]
    for pick in (range(len(jac)), fallback):
        svd_rows.clear()
        got = _augmented_steps(np.dstack([jac[pick], rhs[pick]]))
        assert sorted(svd_rows) == fallback
        for k, step in zip(pick, got):
            ref = np.linalg.lstsq(jac[k], rhs[k], rcond=None)[0]
            if k in fallback:
                assert step.tobytes() == ref.tobytes(), k
            else:
                assert np.linalg.norm(step - ref) <= 1e-9 * np.linalg.norm(ref)
    svd_rows.clear()
    got = _augmented_steps(np.empty((0, 32, 11), dtype=complex))
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
    got = _augmented_steps(np.dstack([jac, np.einsum("nij,nj->ni", jac, x)]))
    assert np.linalg.norm(got - x) <= 1e-12 * np.linalg.norm(x)


@pytest.mark.parametrize("t,seed,attempts", [(2 + 1j, 3, 40),
                                              (1.1 + 0.7j, 5, 69)])
def test_explore_qr_steps_match_svd_steps(t, seed, attempts, monkeypatch):
    qr = explore_solve(t, seed, attempts)
    # the Newton loop solves each [J | -f] through _augmented_steps
    monkeypatch.setattr(catalog, "_augmented_steps", lambda aug:
                        catalog._svd_steps(aug[:, :, :-1], aug[:, :, -1]))
    svd = explore_solve(t, seed, attempts)
    assert [lbl for _, lbl in qr] == [lbl for _, lbl in svd]
    for (a, _), (b, _) in zip(qr, svd):
        assert a.max_dev(b) <= 1e-9


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
    # at t = 2 the fallback is heaviest: 1,313 of this call's Newton rows
    # go to _svd_steps
    svd_rows, svd_steps = [0], catalog._svd_steps

    def spy(j, r):
        svd_rows[0] += len(j)
        return svd_steps(j, r)

    monkeypatch.setattr(catalog, "_svd_steps", spy)
    found = explore_solve(2, seed=0, attempts=100)
    assert svd_rows[0] > 1000
    assert Counter(lbl for _, lbl in found) == {
        "reducible": 79, "X4": 20, "X61": 1}


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
            monkeypatch.setattr(catalog, "_PROBE_BLOCK", width)
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


def _explore_start(t, seed, k):
    """Start k of explore_solve(t, seed, ...), drawn as explore_solve draws
    it, as a (1, 10) array."""
    rng = np.random.default_rng([seed, k])
    y = np.empty((1, 10), dtype=complex)
    y[0].real = rng.standard_normal(10) * 1.5
    y[0].imag = rng.standard_normal(10) * 1.5
    return y


def test_settle_rule_changes_no_explore_output(monkeypatch):
    # the perfbench probe panel, each point as one of its sign images, as
    # the benchmark draws them; criterion 11's t values and seeds; and the
    # pinned call of test_explore_classifies
    calls = [(-1.3585 + 1.6948j, 7, 200), (-1.7421 - 0.3885j, 7, 200),
             (0.5667 - 1.1545j, 7, 200), (2 + 1j, 3, 40)]
    rng = np.random.default_rng(11)
    calls += [(admissible_t(rng, margin_extra=1e-3), 100 + i, 200)
              for i in range(5)]
    count = _count_probe_rows(monkeypatch)
    found, rows = [], []
    for settle in (catalog._SETTLE_STEP, -1.0):    # -1: the rule never fires
        monkeypatch.setattr(catalog, "_SETTLE_STEP", settle)
        count["rows"] = 0
        found.append([repr(explore_solve(*c)) for c in calls])
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
    for settle in (catalog._SETTLE_STEP, -1.0):
        monkeypatch.setattr(catalog, "_SETTLE_STEP", settle)
        count["calls"] = 0
        best, ok = catalog._newton_starts(t, _explore_start(t, 7, 5))
        iterations.append(count["calls"])
        assert not ok[0]
        f, _ = probe_f_jac(t, best)
        assert np.abs(f).max() > catalog._WANDER_RES
    # the iteration-50 rule evaluates the system once more, after step 50
    assert iterations[1] == catalog._WANDER_ITER + 1
    assert iterations[0] < catalog._WANDER_ITER // 2


def test_settle_rule_spares_a_start_near_a_root(monkeypatch):
    # a start 1e-3 from a catalog point takes ever smaller steps too, but
    # its residual is below _WANDER_RES from the first, so the rule cannot
    # give it up even when every step counts as settled
    t = 1.3 + 0.4j
    rng = np.random.default_rng(5)
    monkeypatch.setattr(catalog, "_SETTLE_STEP", math.inf)
    for cid, branch in (("X11", 2), ("X21", 3), ("X3", 0), ("X4", 3),
                        ("X51", 0), ("X61", 0)):
        smp = sample_component(cid, t)[branch]
        root = np.array([list(smp.vector.coords().values())[1:]])
        y = root + 1e-3 * np.exp(2j * np.pi * rng.random((1, 10)))
        f, _ = probe_f_jac(t, y)
        assert np.abs(f).max() <= catalog._WANDER_RES, cid
        best, ok = catalog._newton_starts(t, y)
        assert ok[0], cid
        assert np.abs(best - root).max() <= 1e-6, cid


def test_probe_rows_bitwise_independent_of_block(rng):
    # each row's residuals, Jacobian and step are the same bytes in a block
    # of the default width as alone; the catalog rows include a rank-9 X51
    # Jacobian, so the block also takes the lstsq fallback
    for t in (2 + 0j, 1e-3 + 2e-3j, 1.1 + 0.7j, -2.3 - 0.4j):
        y = rng.standard_normal((_PROBE_BLOCK, 10)) \
            + 1j * rng.standard_normal((_PROBE_BLOCK, 10))
        for row, cid in zip((1, _PROBE_BLOCK // 2, -2), ("X51", "X61", "X3")):
            smp = sample_component(cid, t)[0]
            y[row] = list(smp.vector.coords().values())[1:]
        f, jac = probe_f_jac(t, y)
        steps = _augmented_steps(np.dstack([jac, -f]))
        for k in range(len(y)):
            fk, jk = probe_f_jac(t, y[k:k + 1])
            assert fk.tobytes() == f[k:k + 1].tobytes(), (t, k)
            assert jk.tobytes() == jac[k:k + 1].tobytes(), (t, k)
            assert _augmented_steps(np.dstack([jk, -fk])).tobytes() == \
                steps[k:k + 1].tobytes(), (t, k)


def test_probe_working_memory_is_bounded():
    # the Newton loop's temporaries grow with _PROBE_BLOCK; the bound and
    # its margin are stated at _PROBE_BLOCK
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
    assert peak < 2.2e6


def test_explore_excluded_t():
    with pytest.raises(ExcludedParameter):
        explore_solve(SQRT3, seed=0, attempts=1)


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
    with pytest.raises(UnknownComponent, match="X9"):
        sample_component("X9", 1.3 + 0.4j)


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
            coords = smp.vector.coords().values()
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
