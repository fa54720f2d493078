import cmath
from collections import Counter

import numpy as np
import pytest

from conftest import admissible_t
from charvar import catalog
from charvar.catalog import (_PROBE_BLOCK, COMPONENTS, ROTATION_PAIR,
                             _lstsq_steps, _probe_system, classify_point,
                             enumerate_parabolic, excellent_quartic,
                             explore_solve, membership_residual,
                             sample_component, special_points)
from charvar.errors import ExcludedParameter
from charvar.numfield import Poly, match_multisets, solve_poly
from charvar.tracealg import rotate, s_from_t, typeI_residuals, typeII_residuals

SQRT3 = cmath.sqrt(3)


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
                assert worst(ROTATION_PAIR[cid], rotate(smp.vector)) <= 1e-10


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


def test_excellent_quartic_frozen_slices():
    assert excellent_quartic(2.0).coeffs == (1, -6 + 0j, 19 + 0j, -30 + 0j,
                                             17 + 0j)
    assert excellent_quartic(0.0).coeffs == (1, 2 + 0j, 3 + 0j, 2 + 0j, 1 + 0j)


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
        if abs(t) <= 1e-3:
            continue
        roots = solve_poly(excellent_quartic(t))
        us = [s.params["u"] for s in sample_component("X4", t)]
        assert match_multisets(us, roots, 1e-7)


def test_x4_small_t_path():
    samples = sample_component("X4", 0.0)
    assert len(samples) == 4
    us = [s.params["u"] for s in samples]
    etas = [s.params["eta"] for s in samples]
    w = (-1 + 1j * SQRT3) / 2
    assert match_multisets(us, [w, w, w.conjugate(), w.conjugate()], 1e-9)
    assert match_multisets(etas, [cmath.sqrt(6), -cmath.sqrt(6)] * 2, 1e-9)
    # a slightly off-zero t still yields four clean samples
    samples = sample_component("X4", 5e-4 + 2e-4j)
    assert len(samples) == 4


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
        f, _ = _probe_system(t, y[None])
        assert np.abs(f).max() <= 1e-8
        assert classify_point(smp.vector) == cid


def test_probe_system_matches_public_functions(rng):
    # the batched probe kernel must agree with the reference implementations
    from charvar.tracealg import TraceVector, trace_equation_residuals
    for _ in range(10):
        coords = rng.standard_normal(11) + 1j * rng.standard_normal(11)
        v = TraceVector(*coords)
        s = s_from_t(v)
        ref = np.array(trace_equation_residuals(v) + typeII_residuals(s)
                       + typeI_residuals(s))
        got, _ = _probe_system(v.t, coords[None, 1:])
        assert np.abs(got[0] - ref).max() <= 1e-10 * max(
            1.0, np.abs(ref).max())


def test_probe_jacobian_matches_finite_differences(rng):
    h = 1e-6
    for _ in range(10):
        t = complex(*rng.standard_normal(2))
        y = rng.standard_normal((1, 10)) + 1j * rng.standard_normal((1, 10))
        _, jac = _probe_system(t, y)
        shifts = h * np.eye(10)
        hi, _ = _probe_system(t, y + shifts)   # row k: y shifted along k
        lo, _ = _probe_system(t, y - shifts)
        fd = ((hi - lo) / (2 * h)).T
        assert np.abs(fd - jac[0]).max() <= 1e-6 * max(
            1.0, np.abs(jac[0]).max())


@pytest.mark.filterwarnings("error")
def test_lstsq_steps_match_lstsq(rng, monkeypatch):
    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    jac, rhs = cplx(9, 32, 10), cplx(9, 32)
    jac[5, :, 9] = jac[5, :, 3]                  # rank 9: a repeated column
    jac[6] *= np.logspace(0, -10, 10)            # kappa about 1e10
    jac[7] = 0                                   # all-zero J
    rhs[8] = 0                                   # zero right-hand side
    assert 1e9 < np.linalg.cond(jac[6]) < 1e11
    svd_rows, svd_steps = [], catalog._svd_steps

    def spy(j, r):
        svd_rows.extend(k for k in range(len(jac))
                        if any(np.array_equal(jac[k], x) for x in j))
        return svd_steps(j, r)

    monkeypatch.setattr(catalog, "_svd_steps", spy)
    got = _lstsq_steps(jac, rhs)
    assert sorted(svd_rows) == [5, 6, 7]
    for k in range(len(jac)):
        ref = np.linalg.lstsq(jac[k], rhs[k], rcond=None)[0]
        assert np.linalg.norm(got[k] - ref) <= 1e-9 * np.linalg.norm(ref)


@pytest.mark.parametrize("t,seed,attempts", [(2 + 1j, 3, 40),
                                              (1.1 + 0.7j, 5, 69)])
def test_explore_qr_steps_match_svd_steps(t, seed, attempts, monkeypatch):
    qr = explore_solve(t, seed, attempts)
    monkeypatch.setattr(catalog, "_lstsq_steps", catalog._svd_steps)
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


def test_explore_starts_independent_of_blocking():
    n = _PROBE_BLOCK + 5
    short = explore_solve(1.1 + 0.7j, seed=5, attempts=n)
    full = explore_solve(1.1 + 0.7j, seed=5, attempts=2 * _PROBE_BLOCK + 3)
    assert len(short) < len(full)
    assert [lbl for _, lbl in short] == [lbl for _, lbl in full[:len(short)]]
    for (a, _), (b, _) in zip(short, full):
        assert a.max_dev(b) <= 1e-9


def test_explore_excluded_t():
    with pytest.raises(ExcludedParameter):
        explore_solve(SQRT3, seed=0, attempts=1)
