import cmath
import dataclasses
import itertools
import math

import pytest

from conftest import random_quadruple, random_t
from charvar.errors import ConstraintViolated, TraceMismatch
from charvar.catalog import (COMPONENTS, membership_residual,
                             sample_component)
from charvar.mat2 import (IDENTITY, Mat2, _rel, _worst, is_irreducible_pair,
                          random_gt)
from charvar.reconstruct import Quadruple
from charvar.tracealg import (COORD_KEYS, TRIPLES, SCoords, TraceVector,
                              _S_KEYS, _TYPEI_KEPT, _gram, _s_triples,
                              _t_coords, definitive_excess,
                              det_Sdiamond, s_from_t,
                              trace_equation_residuals, trace_vector_of,
                              typeI_residuals, typeII_residuals)
from charvar.wirtinger import is_representation, spread
from lemmas import eq19_residuals, max_dev, rel_dist


def make_vec(t, pairs, t13, t24, triples):
    t12, t23, t34, t14 = pairs
    t123, t124, t134, t234 = triples
    return TraceVector(t=t, t12=t12, t23=t23, t34=t34, t14=t14, t13=t13,
                       t24=t24, t123=t123, t124=t124, t134=t134, t234=t234)


def uniform_vec(t, tij, tijk):
    return make_vec(t, (tij,) * 4, tij, tij, (tijk,) * 4)


def test_s_from_t_flat_examples():
    s = s_from_t(uniform_vec(2.0, 1.0, 0.0))
    assert s.s0 == 0
    assert s.s12 == s.s13 == -1
    assert s.s123 == 0 - 1 * 3 + 4  # shift formula collapses to +1
    s = s_from_t(uniform_vec(0.0, 0.7, 0.3))
    assert s.s0 == -2 and s.s12 == 0.7 and s.s123 == 0.3


def test_s_matches_traceless_matrix_oracle(rng):
    for _ in range(50):
        t, xs = random_quadruple(rng)
        v = trace_vector_of(*xs)
        s = s_from_t(v)
        us = [x.traceless_part() for x in xs]
        sc = max(1.0, max(x.norm() for x in xs) ** 3)
        for (i, j, k), value in zip(TRIPLES, _s_triples(s)):
            oracle = (us[i - 1] @ us[j - 1] @ us[k - 1]).trace()
            assert abs(value - oracle) <= 1e-10 * sc
        g = _gram(s)
        for i, j in itertools.product((1, 2, 3, 4), repeat=2):
            oracle = (us[i - 1] @ us[j - 1]).trace()
            assert abs(g[4 * (i - 1) + j - 1] - oracle) <= 1e-10 * sc


def test_universal_identities(rng):
    for _ in range(100):
        t, xs = random_quadruple(rng)
        s = s_from_t(trace_vector_of(*xs))
        assert _worst(typeI_residuals(s, normalized=True)) <= 1e-8
        assert _worst(typeII_residuals(s, normalized=True)) <= 1e-8
        assert abs(det_Sdiamond(s, normalized=True)) <= 1e-8


def test_gram_diagonal(rng):
    t, xs = random_quadruple(rng)
    s = s_from_t(trace_vector_of(*xs))
    g = _gram(s)
    for i in range(4):
        assert g[5 * i] == s.s0
        for j in range(4):
            assert g[4 * i + j] == g[4 * j + i]


def test_typeI_exotic_component_alpha1():
    # genuine exotic-component data on the alpha = 1 slice (t^2 = 2) has
    # nonvanishing s123 yet satisfies every type I relation
    t = cmath.sqrt(2)
    for smp in sample_component("X11", t):
        s = s_from_t(smp.vector)
        assert abs(s.s123) > 1e-3
        assert _worst(typeI_residuals(s, normalized=True)) <= 1e-12


def test_typeI_diagonal_gram():
    s0 = -2.0
    s123 = cmath.sqrt(-s0 ** 3 / 2)
    s = SCoords(s0=s0, s12=0, s23=0, s34=0, s14=0, s13=0, s24=0,
                s123=s123, s124=0, s134=0, s234=0)
    assert abs(typeI_residuals(s)[0]) <= 1e-12


def test_typeII_zero_triples():
    s = SCoords(s0=1.0, s12=0.3, s23=-0.4, s34=2.0, s14=0.1, s13=0.9,
                s24=-1.0, s123=0, s124=0, s134=0, s234=0)
    assert all(abs(r) == 0 for r in typeII_residuals(s))


def test_typeII_x21_coupling():
    # on the z-symmetric component the four relations collapse to
    # z*s123 = -gamma*s234
    t = 1.7 - 0.6j
    smp = sample_component("X21", t)[0]
    s = s_from_t(smp.vector)
    z, g = smp.params["z"], smp.params["gamma"]
    assert _worst(typeII_residuals(s, normalized=True)) <= 1e-12
    sc = max(1.0, abs(z * s.s123), abs(g * s.s234))
    assert abs(z * s.s123 + g * s.s234) <= 1e-12 * sc


def test_det_sdiamond_rank_one():
    s = SCoords(s0=1.3, s12=1.3, s23=1.3, s34=1.3, s14=1.3, s13=1.3, s24=1.3,
                s123=0, s124=0, s134=0, s234=0)
    assert abs(det_Sdiamond(s)) <= 1e-12


def test_det_sdiamond_factored_form(rng):
    # with all adjacent pairs equal, the 4x4 determinant factors as
    # (s13-s0)(s24-s0)((s13+s0)(s24+s0)-(2-t^2)^2)
    for _ in range(20):
        t = random_t(rng)
        s0 = t * t / 2 - 2
        s1 = 1 - t * t / 2
        s13, s24 = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        s = SCoords(s0=s0, s12=s1, s23=s1, s34=s1, s14=s1, s13=s13, s24=s24,
                    s123=0, s124=0, s134=0, s234=0)
        factored = ((s13 - s0) * (s24 - s0)
                    * ((s13 + s0) * (s24 + s0) - (2 - t * t) ** 2))
        sc = max(1.0, abs(factored))
        assert abs(det_Sdiamond(s) - factored) <= 1e-10 * sc


def test_det_sdiamond_x61(rng):
    for _ in range(10):
        t = random_t(rng)
        if min(abs(t - b) for b in (3 ** 0.5, -(3 ** 0.5), 0)) < 1e-2:
            continue
        s = s_from_t(sample_component("X61", t)[0].vector)
        assert abs(det_Sdiamond(s, normalized=True)) <= 1e-10


def test_trace_equations_x61_t1():
    v = make_vec(1.0, (1, 1, 1, 1), 1, 1, (0, 2, 0, 2))
    assert _worst(trace_equation_residuals(v)) <= 1e-10


def test_trace_equations_x51_t2():
    v = make_vec(2.0, (1, 2, 1, 2), 1, 1, (0, 0, 0, 0))
    assert _worst(trace_equation_residuals(v)) <= 1e-10


def test_trace_equations_negative_control():
    # a generic asymmetric vector violates the battery decisively
    v = make_vec(3.0, (1.3, -0.7, 2.2, 0.4), 1.1, -2.0, (0.5, -1.5, 2.5, 0.9))
    assert _worst(trace_equation_residuals(v, normalized=True)) > 1e-3
    # the fully symmetric slice t_ij = t^2 - 2 satisfies the battery for any
    # common triple value: the equations degenerate there, so it is NOT a
    # usable negative control
    t = 3.0
    v = uniform_vec(t, t * t - 2, t ** 3 - 2 * t)
    assert _worst(trace_equation_residuals(v, normalized=True)) <= 1e-12


def test_residual_order_is_rotation_major():
    # perturbing t12 must hit the first block harder than a pure t34 change
    t = 1.3 + 0.2j
    base = sample_component("X51", t)[0].vector
    bumped = dataclasses.replace(base, t12=base.t12 + 0.1)
    r = trace_equation_residuals(bumped)
    assert abs(r[0]) > 0 or abs(r[1]) > 0 or abs(r[2]) > 0


def test_rotate_x61_to_x62_form():
    t = 1.1 - 0.4j
    q = 4 * t * t - 2 - t ** 4
    p = 3 * t - t ** 3
    v = make_vec(t, (1, 1, 1, 1), 1, q, (0, p, 0, p))
    w = v.rotate()
    assert max_dev(w, make_vec(t, (1, 1, 1, 1), q, 1, (p, 0, p, 0))) == 0


def test_rotate_fixes_symmetric_vector():
    v = uniform_vec(0.6 + 0.2j, 1.4 - 1j, 0.8)
    assert max_dev(v.rotate(), v) == 0


def test_rotate_order_four(rng):
    for _ in range(20):
        coords = rng.standard_normal(11) + 1j * rng.standard_normal(11)
        v = TraceVector(*coords)
        w = v
        for _ in range(4):
            w = w.rotate()
        assert max_dev(w, v) == 0


def test_rotate_matches_matrix_shift(rng):
    # rotating the vector equals re-reading traces off (x2, x3, x4, x1)
    for _ in range(30):
        t, xs = random_quadruple(rng)
        v = trace_vector_of(*xs)
        w = trace_vector_of(xs[1], xs[2], xs[3], xs[0])
        assert max_dev(v.rotate(), w) <= 1e-12 * max(1.0, max(
            abs(c) for c in _t_coords(v)))


def test_rotate_permutes_residual_battery(rng):
    for _ in range(20):
        coords = rng.standard_normal(11) + 1j * rng.standard_normal(11)
        v = TraceVector(*coords)
        a = trace_equation_residuals(v)
        b = trace_equation_residuals(v.rotate())
        rolled = a[3:] + a[:3]
        assert _worst([x - y for x, y in zip(b, rolled)]) <= 1e-12


def test_eq19_is_combination_of_eq16_eq17(rng):
    # identity: eq19 = t * eq17 - t^2 * eq16, at every rotation
    for _ in range(30):
        coords = rng.standard_normal(11) + 1j * rng.standard_normal(11)
        v = TraceVector(*coords)
        t = v.t
        r = trace_equation_residuals(v)
        for p, e19 in enumerate(eq19_residuals(v)):
            combo = t * r[3 * p + 1] - t * t * r[3 * p]
            assert abs(e19 - combo) <= 1e-10 * max(1.0, abs(combo))


def test_trace_vector_of_all_equal_t0(rng):
    x = random_gt(rng, 0.0)
    v = trace_vector_of(x, x, x, x)
    assert abs(v.t12 + 2) <= 1e-12  # tr(x^2) = t^2 - 2 = -2
    assert abs(v.t123) <= 1e-12 * max(1.0, x.norm() ** 3)


def test_trace_vector_of_mismatch(rng):
    x = random_gt(rng, 1.0)
    y = random_gt(rng, 1.5)
    with pytest.raises(TraceMismatch):
        trace_vector_of(x, x, x, y)


def test_json_round_trip(rng):
    t, xs = random_quadruple(rng)
    v = trace_vector_of(*xs)
    back = TraceVector(**{k: complex(*xy) for k, xy in v.to_json().items()})
    assert max_dev(back, v) == 0


def test_triples_in_every_order_match_matrix_oracle(rng):
    # tr(u_i u_j u_k) of the traceless parts is alternating in (i, j, k),
    # so every order of an ascending triple gives +-s_ijk; the three cyclic
    # orders of x_i x_j x_k all have the coordinate t_ijk as their trace
    for _ in range(20):
        t, xs = random_quadruple(rng)
        v = trace_vector_of(*xs)
        s = s_from_t(v)
        us = [x.traceless_part() for x in xs]
        sc = max(1.0, max(x.norm() for x in xs) ** 3)
        for asc, key, st in zip(TRIPLES, COORD_KEYS[7:], _s_triples(s)):
            cyclic = {asc[n:] + asc[:n] for n in range(3)}
            for i, j, k in itertools.permutations(asc):
                oracle = (us[i - 1] @ us[j - 1] @ us[k - 1]).trace()
                sign = 1 if (i, j, k) in cyclic else -1
                assert abs(sign * st - oracle) <= 1e-10 * sc
                if (i, j, k) in cyclic:
                    oracle = (xs[i - 1] @ xs[j - 1] @ xs[k - 1]).trace()
                    assert abs(getattr(v, key) - oracle) <= 1e-10 * sc


def test_pair_lookup_is_symmetric(rng):
    # Gram entry (i, j) of an SCoords is s_ij in either order, and s0 on
    # the diagonal
    coords = rng.standard_normal(11) + 1j * rng.standard_normal(11)
    s = SCoords(*coords)
    g = _gram(s)
    for i, j in itertools.permutations((1, 2, 3, 4), 2):
        key = "".join(map(str, sorted((i, j))))
        assert g[4 * (i - 1) + j - 1] == getattr(s, "s" + key)
    assert all(g[5 * i] == s.s0 for i in range(4))


@pytest.mark.parametrize("key", COORD_KEYS[1:])
def test_max_dev_propagates_nan(key):
    # a NaN in any coordinate makes the distance NaN, wherever it stands,
    # so that max_dev(...) <= tol fails on it
    v = uniform_vec(1.3 + 0.4j, 0.5, 0.25)
    w = dataclasses.replace(v, **{key: complex(math.nan)})
    assert math.isnan(max_dev(v, w)) and math.isnan(max_dev(w, v))
    assert max_dev(v, v) == 0


def _leave_errno_at_erange():
    """Fail one abs() by overflow, which leaves errno at ERANGE."""
    with pytest.raises(OverflowError):
        abs(complex(1.7e308, 1.7e308))


def test_nan_results_do_not_depend_on_errno():
    # CPython's abs() of a complex NaN raises OverflowError when an earlier
    # call left errno at ERANGE, and returns NaN otherwise. After such a
    # call, each residual and magnitude gate must give what it gives on a
    # clean errno: NaN, False, or its typed error
    v = dataclasses.replace(sample_component("X3", 1.3 + 0.4j)[0].vector,
                            t23=complex(1, math.nan))
    s = s_from_t(v)
    for kernel, arg in ((typeI_residuals, s), (typeII_residuals, s),
                        (det_Sdiamond, s), (trace_equation_residuals, v),
                        (eq19_residuals, v)):
        _leave_errno_at_erange()
        out = kernel(arg, normalized=True)
        out = out if isinstance(out, list) else [out]
        nans = [r for r in out if cmath.isnan(r)]
        assert nans and {repr(r) for r in nans} == {"(nan+nanj)"}, kernel
    _leave_errno_at_erange()
    assert any(map(math.isnan, definitive_excess(s, 1e-7)))
    for cid in COMPONENTS:
        _leave_errno_at_erange()
        assert any(map(cmath.isnan, membership_residual(cid, v).values()))
    w = dataclasses.replace(v, t=complex(1, math.nan))   # NaN comes first
    _leave_errno_at_erange()
    assert math.isnan(max_dev(w, v))
    m = Mat2(complex(1, math.nan), 0, 0, 1)
    for gate in (m.norm, lambda: rel_dist(m, IDENTITY),
                 lambda: spread((m, IDENTITY, IDENTITY, IDENTITY))):
        _leave_errno_at_erange()
        assert math.isnan(gate())
    _leave_errno_at_erange()
    assert math.isnan(_rel(complex(1, math.nan), 2))
    # an infinite entry is no scalar, whatever the other entries, nor is
    # one whose modulus overflows
    big = Mat2(1.5e308 + 1.5e308j, 0, 0, 1)
    for gate in (lambda: is_irreducible_pair(m, IDENTITY, 2 + 0j),
                 lambda: is_irreducible_pair(big, IDENTITY, 2 + 0j),
                 Mat2(1, complex(0, math.nan), 0, 1).is_scalar,
                 Mat2(math.inf, 5, 5, 1).is_scalar, big.is_scalar):
        _leave_errno_at_erange()
        assert gate() is False
    # nor is a NaN det, or one whose modulus overflows, singular: the
    # inverse reads no abs() of it, so neither m nor big raises, and a
    # quadruple holding one is no representation
    _leave_errno_at_erange()
    assert math.isnan(m.inverse().norm())
    for x in (m, big):
        _leave_errno_at_erange()
        ok, res = is_representation(
            Quadruple(x, IDENTITY, IDENTITY, IDENTITY, t=2 + 0j))
        assert ok is False and math.isnan(res)
    _leave_errno_at_erange()
    with pytest.raises(TraceMismatch):
        trace_vector_of(m, IDENTITY, IDENTITY, IDENTITY)
    # a NaN entry; infinite entries, whose det is -inf at trace 2; a finite
    # det 2 whose bound's squared norm overflows; and an overflowing norm
    for bad in (m, Mat2(1, math.inf, math.inf, 1), Mat2(1e200, 0, 0, 2e-200),
                big):
        _leave_errno_at_erange()
        with pytest.raises(ConstraintViolated):
            Quadruple(bad, bad, bad, bad, t=bad.trace()).validate()


def test_rotation_tables_match_rotated_vector(rng):
    # the residuals at rotation p are those of the p-times rotated vector at
    # rotation 0, value for value: same monomials on the same numbers
    for _ in range(20):
        coords = rng.standard_normal(11) + 1j * rng.standard_normal(11)
        v = TraceVector(*coords)
        for normalized in (False, True):
            teq = trace_equation_residuals(v, normalized)
            e19 = eq19_residuals(v, normalized)
            w = v
            for p in range(4):
                assert teq[3 * p:3 * p + 3] == \
                    trace_equation_residuals(w, normalized)[:3]
                assert e19[p] == eq19_residuals(w, normalized)[0]
                w = w.rotate()


def test_kernels_are_generic_over_sympy_symbols():
    sp = pytest.importorskip("sympy")
    s0, s12, s23, s34, s14, s13, s24, s123, s124, s134, s234 = sp.symbols(
        "s0 s12 s23 s34 s14 s13 s24 s123 s124 s134 s234")
    s = SCoords(s0, s12, s23, s34, s14, s13, s24, s123, s124, s134, s234)
    gram = sp.Matrix([[s0, s12, s13, s14],
                      [s12, s0, s23, s24],
                      [s13, s23, s0, s34],
                      [s14, s24, s34, s0]])
    triples = ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))
    invariant = dict(zip(triples, (s123, s124, s134, s234)))
    residuals = typeI_residuals(s)
    for a, I in enumerate(triples):
        for b, J in enumerate(triples):
            minor = gram.extract([i - 1 for i in I], [j - 1 for j in J])
            want = 2 * invariant[I] * invariant[J] + minor.det()
            assert sp.expand(residuals[4 * a + b] - want) == 0
    assert sp.expand(det_Sdiamond(s) - gram.det()) == 0


def test_typeI_relation_pairs_are_one_polynomial():
    # the Gram matrix is symmetric, so the minor of relation 4b + a is the
    # transpose of relation 4a + b's: the two are one polynomial, and the
    # probe keeps one relation of each such pair; the scalar kernel keeps
    # all 16
    sp = pytest.importorskip("sympy")
    residuals = typeI_residuals(SCoords(*sp.symbols(_S_KEYS)))
    assert len(residuals) == 16
    pairs = list(itertools.combinations(range(4), 2))
    assert len(pairs) == 6
    for a, b in pairs:
        assert sp.expand(residuals[4 * a + b] - residuals[4 * b + a]) == 0
    assert sorted(tuple(sorted(divmod(r, 4))) for r in _TYPEI_KEPT) == \
        sorted(itertools.combinations_with_replacement(range(4), 2))
