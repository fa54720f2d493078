"""The verify kernels against their plain reference forms, bit for bit.

`relators`, `spread`, `trace_vector_of`, the type I, type II,
trace-equation and eq. (19) residuals (the last in `lemmas`), `det_Sdiamond`,
`membership_residual`, the `mat2` identity residuals (`ch_residual`,
`xyx_expand`, `anticommutator_residual`) and the tr(xy) of
`is_irreducible_pair` compute in local scalars. The oracles below are the
same mathematics written the plain way: Mat2 products and differences, and
a list of monomials summed by `sum()` and divided by max(1, largest
monomial). Both must take the same operations in the same order, so `repr`
must agree exactly, the sign of a zero included. `random_gt` draws its
four normals at once; its oracle draws two pairs, the same stream.

`definitive_excess`, which tests the raw residuals before normalizing
them, and the gates that read `mat2._rel` are held against copies of the
plain gates, which normalize every residual and multiply the tolerance by
the scale: the same outcome, and on a rejection the same exception type
and message. Where a scale or a distance is not finite, or overflows, the
copies refuse, as `mat2._rel`'s NaN does.

`mat2._worst`, the one largest-magnitude rule, is held against the
`_nanmax` expression the gates used before it, by `repr`.

The Newton step solve, a back substitution for R^-1 and the step, is held
against the np.linalg.inv form it replaced. That cannot be bit for bit, as
the two round differently: the steps agree to about kappa * eps, the same
systems go to the lstsq fallback, and every probe point snapped to a catalog
sample is the same.
"""

import cmath
import dataclasses
import itertools
import json

import numpy as np
import pytest

from conftest import (E1, E2, E3, admissible_t, random_quadruple,
                      reducible_pair)
from charvar import _probe_kernel, catalog, cli, mat2
from charvar.catalog import (COMPONENTS, ROTATION_PAIR, _alpha,
                             _is_reducible_like, best_membership,
                             classify_point, explore_solve,
                             membership_residual, membership_terms,
                             sample_component)
from charvar.errors import (CharVarError, ConstraintViolated,
                            DegenerateCharacter, TraceMismatch)
from charvar.mat2 import (IDENTITY, Mat2, anticommutator_residual,
                          ch_residual, is_irreducible_pair, random_gt,
                          xyx_expand)
from charvar.reconstruct import (Quadruple, _realized_matrices,
                                 realize_character)
from charvar.tracealg import (_DET4, _EQ_IDX, _NORMALIZE, _TRIPLE_ROWS,
                              _TYPEI, COORD_KEYS, SCoords, TraceVector,
                              _S_KEYS, _gram, _n, _s_triples, _t_coords,
                              definitive_excess,
                              det_Sdiamond, s_from_t,
                              trace_equation_residuals, trace_vector_of,
                              typeI_residuals, typeII_residuals)
from charvar.wirtinger import relators, spread
from lemmas import dist, eq19_residuals, max_dev, scalar

#: corners of the verify square, where X11 and X12 coordinates reach about
#: 1e4 and their raw definitive residuals exceed the realization gate
CORNER_T = (-2.2951323803190267 - 2.4173618223573543j,
            2.4860496789460553 + 2.4041766938811504j)
#: every catalog sample at these t is realized; the verify-square corners,
#: the parabolic slice and real t among them
CATALOG_T = (1.3 + 0.4j, 2 + 0j, 3 + 0j, 0.7 + 0.3j) + CORNER_T
NAN = float("nan")


def _finish(terms, normalized):
    # left to right from 0, divided by one flat max that skips a NaN
    # magnitude wherever it stands, as the kernels are (see the tracealg
    # docstring): kernel and oracle agree on NaN inputs whatever a complex
    # divided by a float does with the finite part
    val = 0
    for x in terms:
        val = val + x
    if not normalized:
        return val
    return val / max(1.0, *map(abs, terms))


def _det3_terms(m00, m01, m02, m10, m11, m12, m20, m21, m22):
    return [m00 * m11 * m22, -m00 * m12 * m21, -m01 * m10 * m22,
            m01 * m12 * m20, m02 * m10 * m21, -m02 * m11 * m20]


def typeI_oracle(s, normalized=False):
    g = _gram(s)
    st = _s_triples(s)
    return [_finish([2 * st[a] * st[b], *_det3_terms(*minor(g))], normalized)
            for a, b, minor in _TYPEI]


def typeII_oracle(s, normalized=False):
    s123, s124, s134, s234 = _s_triples(s)
    g = _gram(s)
    out = []
    for r in range(0, 16, 4):
        r1, r2, r3, r4 = g[r:r + 4]
        out.append(_finish([r1 * s234, -r2 * s134, r3 * s124, -r4 * s123],
                           normalized))
    return out


def det_Sdiamond_oracle(s, normalized=False):
    g = _gram(s)
    terms = []
    for j, sign, minor in _DET4:
        terms.extend(sign * g[j] * x for x in _det3_terms(*minor(g)))
    return _finish(terms, normalized)


def eq19_oracle(v, normalized=False):
    t = v.t
    out = []
    for get in _EQ_IDX:
        t12, t13, t14, t23, t24, t123, t124 = get(v)
        terms = [t * t * (t12 - 1) * t124,
                 -t * t * (t12 - 1) * t123,
                 t * (t12 - 1) * t13,
                 -t * (t12 - 1) * t24,
                 -t * (t12 * t12 - t12 - 1) * t14,
                 t * (t12 * t12 - t12 - 1) * t23]
        out.append(_finish(terms, normalized))
    return out


def membership_oracle(cid, v):
    t = v.t
    al = _alpha(t)
    one = complex(1)
    r = []
    if cid in ("X11", "X12"):
        if cid == "X11":
            x = v.t12 - 1
            mu = v.t12 + v.t23 - 2
            r += [("t14", [v.t14, -v.t12]), ("t34", [v.t34, -v.t23]),
                  ("t13", [v.t13, -one])]
            tau_slot, e_a, e_b, e_p, e_m = v.t24, v.t123, v.t134, v.t124, v.t234
        else:
            x = v.t12 - 1
            mu = v.t12 + v.t34 - 2
            r += [("t23", [v.t23, -v.t12]), ("t14", [v.t14, -v.t34]),
                  ("t24", [v.t24, -one])]
            tau_slot, e_a, e_b, e_p, e_m = v.t13, v.t124, v.t234, v.t123, v.t134
        r += [
            ("tau", [al * tau_slot, -(al ** 3 - 3 * al * al + 4) * mu,
                     al ** 4 - 4 * al ** 3 + 7 * al]),
            ("tri_a", [al * e_a, -t * mu]),
            ("tri_b", [al * e_b, -t * mu]),
            ("sig_p", [al * e_p, -t * (1 + al) * mu, t * mu * mu,
                       2 * t * al, -t * mu * x]),
            ("sig_m", [al * e_m, -t * (1 + al) * mu, 2 * t * al, t * mu * x]),
            ("q_mu", [mu * mu, (al * al - 4 * al) * mu, 4 * al * al - al ** 3]),
            ("q_x", [al * x * x, -al * mu * x, 2 * mu, al * al - 4 * al]),
        ]
    elif cid in ("X21", "X22"):
        if cid == "X21":
            z = v.t23 - 1
            g = v.t12 - al + 1
            r += [("t14", [v.t14, -v.t23]),
                  ("t34g", [g * v.t34, -z * z, -(al - 1) * g])]
            e1a, e1b, e2a, e2b = v.t123, v.t124, v.t134, v.t234
        else:
            z = v.t12 - 1
            g = v.t23 - al + 1
            r += [("t34", [v.t34, -v.t12]),
                  ("t14g", [g * v.t14, -z * z, -(al - 1) * g])]
            e1a, e1b, e2a, e2b = v.t123, v.t234, v.t124, v.t134
        r += [
            ("t13", [v.t13, -one]), ("t24", [v.t24, -one]),
            ("q_z", [z * z, -al * z, al]),
            ("q_g", [g * g, ((al - 2) * z * z - 2 * z) * g, z * z]),
            ("tri_1", [al * e1a, -al * t, -t * z * g]),
            ("tri_1b", [e1b, -e1a]),
            ("tri_2", [al * g * e2a, -al * g * t, -t * z ** 3]),
            ("tri_2b", [e2b, -e2a]),
        ]
    elif cid == "X3":
        u = v.t12
        d = t * t - 2
        e = t * u - t
        r += [("t23", [v.t23, -u]), ("t34", [v.t34, -u]), ("t14", [v.t14, -u]),
              ("t13", [v.t13, -d]), ("t24", [v.t24, -d]),
              ("t123", [v.t123, -e]), ("t124", [v.t124, -e]),
              ("t134", [v.t134, -e]), ("t234", [v.t234, -e]),
              ("q_u", [u * u, -(t * t + 1) * u, 2 * t * t - 1])]
    elif cid == "X4":
        u = v.t12
        eta = v.t123
        d = 2 * u + 2 - t * t
        r += [("t23", [v.t23, -u]), ("t34", [v.t34, -u]), ("t14", [v.t14, -u]),
              ("t13", [v.t13, -d]), ("t24", [v.t24, -d]),
              ("t124", [v.t124, -eta]), ("t134", [v.t134, -eta]),
              ("t234", [v.t234, -eta]),
              ("lin", [t * eta, -u * u, -u, t * t, -one]),
              ("q_eta", [eta * eta, t * (t * t + 4 - 2 * u) * eta,
                         -5 * t * t * u, t ** 4, 4 * t * t, -6 * one])]
    else:
        # X5 and X6 are rows in t: each coordinate minus its row value
        d = t * t - 2
        q = 4 * t * t - 2 - t ** 4
        p = 3 * t - t ** 3
        row = {"X51": (1, d, 1, d, 1, 1, 0, 0, 0, 0),
               "X52": (d, 1, d, 1, 1, 1, 0, 0, 0, 0),
               "X61": (1, 1, 1, 1, 1, q, 0, p, 0, p),
               "X62": (1, 1, 1, 1, q, 1, p, 0, p, 0)}[cid]
        r += [(k, [getattr(v, k), -w]) for k, w in zip(COORD_KEYS[1:], row)]
    return {name: _finish(terms, normalized=True) for name, terms in r}


def definitive_oracle(s, tol):
    pre = [*typeI_oracle(s, normalized=True), *typeII_oracle(s, normalized=True)]
    return [abs(r) for r in pre if not abs(r) <= tol]


def validate_oracle(q):
    # a scale that is not finite, or overflows, refuses (mat2._rel's NaN)
    for m in q.matrices():
        scale = m.norm() * m.norm()
        if not (cmath.isfinite(scale)
                and abs(m.det() - 1) <= 1e-9 * max(1.0, scale)):
            raise ConstraintViolated(f"det = {m.det()}")
        if not (cmath.isfinite(q.t)
                and abs(m.trace() - q.t) <= 1e-9 * max(1.0, abs(q.t))):
            raise TraceMismatch(f"trace {m.trace()} vs t = {q.t}")


def realize_oracle(v):
    coords = {k: getattr(v, k) for k in COORD_KEYS}
    if not all(cmath.isfinite(c) for c in coords.values()):
        raise ConstraintViolated("non-finite trace coordinate")
    try:
        s = s_from_t(v)
    except OverflowError:
        raise ConstraintViolated("trace coordinates overflow") from None
    over = definitive_oracle(s, 1e-7)
    if over:
        raise ConstraintViolated(
            f"definitive-relation residual {max(over):.3e} exceeds 1.0e-07")
    st = _s_triples(s)
    k = max(range(4), key=lambda i: abs(st[i]))
    S = np.array(_gram(s), dtype=complex).reshape(4, 4)
    q = Quadruple(*_realized_matrices(S, _TRIPLE_ROWS[k], st[k],
                                      complex(v.t / 2)), t=v.t)
    validate_oracle(q)
    got = trace_vector_oracle(*q.matrices())
    for key, want in coords.items():
        if not abs(getattr(got, key) - want) <= 1e-8 * max(1.0, abs(want)):
            raise DegenerateCharacter(
                f"realization misses target at {key}: {getattr(got, key)} "
                f"vs {want}")
    return q


def classify_oracle(v):
    if definitive_oracle(s_from_t(v), 1e-6):
        return "non-character"
    if _is_reducible_like(v):
        return "reducible"
    cid, worst = best_membership(v)
    return cid if worst <= 1e-5 else "unclassified"


def outcome(fn, *args):
    """fn's result, or the type and message of the CharVarError it raised."""
    try:
        return fn(*args)
    except CharVarError as exc:
        return type(exc), str(exc)


def trace_equation_oracle(v, normalized=False):
    t = v.t
    out = []
    for get in _EQ_IDX:
        t12, t13, t14, t23, t24, t123, t124 = get(v)
        a = t * t - 1
        tr0 = [a * t124, -a * t123, t * t13, -t * t24,
               -t * (t12 - 1) * t14, t * (t12 - 1) * t23]
        c1 = t * (t12 + t * t - 2)
        c2 = t12 + t * t - 1
        c3 = t12 * t12 + a * t12 - t * t - 1
        tr12m = [c1 * t124, -c1 * t123, c2 * t13, -c2 * t24, -c3 * t14,
                 c3 * t23]
        d1 = t * (t * t - 2 - t12)
        d2 = t12 + 1 - t * t
        d3 = 1 - t12 * t12 + a * t12 - t * t
        tr12p = [d1 * t124, d1 * t123, d2 * t13, d2 * t24, -d3 * t14,
                 -d3 * t23]
        out += (_finish(tr0, normalized), _finish(tr12m, normalized),
                _finish(tr12p, normalized))
    return out


def relators_oracle(q):
    x = q.matrices()
    return tuple(x[i] @ x[(i + 1) % 4] @ x[i].inverse()
                 @ x[(i - 1) % 4] @ x[i] for i in range(4))


def spread_oracle(m):
    return max(dist(m[i], m[j]) for i in range(4)
               for j in range(i + 1, 4)) / max(1.0, m[0].norm())


def trace_vector_oracle(x1, x2, x3, x4):
    x12, x13, x23 = x1 @ x2, x1 @ x3, x2 @ x3
    return TraceVector(
        x1.trace(), x12.trace(), x23.trace(), (x3 @ x4).trace(),
        (x1 @ x4).trace(), x13.trace(), (x2 @ x4).trace(),
        (x12 @ x3).trace(), (x12 @ x4).trace(), (x13 @ x4).trace(),
        (x23 @ x4).trace())


def ch_oracle(x, t):
    return x @ x - t * x + IDENTITY


def xyx_oracle(x, y, t):
    return x @ y @ x - ((x @ y).trace() * x + y - scalar(t))


def anticommutator_oracle(u, v):
    return u @ v + v @ u - scalar((u @ v).trace())


def pair_oracle(x, y, t):
    txy = (x @ y).trace()
    # a scale or a distance that is not finite, or overflows, decides
    # False (mat2._rel's NaN)
    if not all(map(cmath.isfinite, (txy, t * t, txy - 2, txy - (t * t - 2)))):
        return False
    s = max(1.0, abs(txy), abs(t) ** 2)
    return abs(txy - 2) > 1e-9 * s and abs(txy - (t * t - 2)) > 1e-9 * s


def random_gt_oracle(rng, t):
    while True:
        a = complex(*rng.standard_normal(2))
        b = complex(*rng.standard_normal(2))
        if abs(b) > 0.1:
            return Mat2(a, b, (a * (t - a) - 1) / b, t - a)


@pytest.fixture(scope="module")
def samples():
    return [smp for t in CATALOG_T for cid in COMPONENTS
            for smp in sample_component(cid, t)]


@pytest.fixture(scope="module")
def quadruples(samples):
    rng = np.random.default_rng(20240817)
    qs = [realize_character(smp.vector) for smp in samples]
    for _ in range(300):
        t, xs = random_quadruple(rng)
        qs.append(Quadruple(*xs, t=t))
    # exact zeros, whose sign a reordered sum can flip
    for xs in itertools.permutations((E1, E2, E3, -E1)):
        qs.append(Quadruple(*xs, t=0j))
        qs.append(Quadruple(*(x * 0.5 + IDENTITY for x in xs), t=2 + 0j))
    return qs


def _with(v, key, value):
    return dataclasses.replace(v, **{key: value})


@pytest.fixture(scope="module")
def vectors(samples, quadruples):
    """Catalog samples, the characters of `quadruples`, each coordinate of
    the samples at one t set to a NaN in turn, and vectors of signed zeros
    and NaNs."""
    vs = [smp.vector for smp in samples]
    vs += [trace_vector_oracle(*q.matrices()) for q in quadruples]
    for smp in samples[:26]:
        for key in COORD_KEYS:
            vs += [_with(smp.vector, key, complex(NAN, 0.0)),
                   _with(smp.vector, key, complex(-0.0, NAN))]
    # signed zeros: a sum that does not start from 0 can end on -0.0
    zeros = np.array([0j, -0j, complex(-0.0, 0.0), complex(0.0, -0.0)])
    rng = np.random.default_rng(5)
    for k in range(400):
        v = rng.choice(zeros, 11).tolist()
        if k % 4 == 0:
            v[rng.integers(11)] = complex(NAN, -0.0)
        vs.append(TraceVector(*v))
    return vs


def test_trace_vector_of_matches_matmul_oracle_bitwise(quadruples):
    for q in quadruples:
        xs = q.matrices()
        assert repr(trace_vector_of(*xs)) == repr(trace_vector_oracle(*xs))


def test_relators_and_spread_match_mat2_chain_bitwise(quadruples):
    for q in quadruples:
        want = relators_oracle(q)
        got = relators(q)
        assert repr(got) == repr(want)
        assert repr(spread(got)) == repr(spread_oracle(want))


IDENTITY_KERNELS = (ch_residual, xyx_expand, anticommutator_residual,
                    is_irreducible_pair)
IDENTITY_ORACLES = (ch_oracle, xyx_oracle, anticommutator_oracle,
                    pair_oracle)


def _identity_outcomes(fns, x, y, t):
    """Each identity residual's repr and the pair criterion, or the type of
    the exception each raised. Each oracle call starts from errno 0: a bare
    abs() of a NaN raises OverflowError when an earlier case left errno at
    ERANGE. That the kernels do not depend on errno is
    test_nan_results_do_not_depend_on_errno's check."""
    out = []
    for fn, args in zip(fns, ((x, t), (x, y, t), (x, y), (x, y, t))):
        if fns is IDENTITY_ORACLES:
            abs(0j)   # a finite abs() sets errno to 0
        try:
            out.append(repr(fn(*args)))
        except ArithmeticError as exc:
            out.append(type(exc))
    return out


def test_identity_residuals_match_mat2_oracles_bitwise(quadruples):
    cases = []
    for q in quadruples:
        x1, x2, x3, _ = q.matrices()
        cases += [(x1, x2, q.t), (x2, x1, q.t), (x1, x1, q.t),
                  (x1.traceless_part(), x3.traceless_part(), q.t)]
    # reducible pairs and x with itself sit on the criterion's thresholds
    rng = np.random.default_rng(11)
    for _ in range(200):
        t, x, y = reducible_pair(rng)
        cases += [(x, y, t), (x, x, t)]
    # int entries, signed zeros, NaN, inf and 1e300, whose products overflow
    pool = [1, 0, -1, 2, 0.0, -0.0, 0j, -0j, complex(-0.0, 0.0),
            complex(0.0, -0.0), NAN, complex(NAN, -0.0), float("inf"),
            complex(-0.0, float("-inf")), 1e300, complex(1e300, -1e300),
            0.5 + 0.25j, np.complex128(-1.5 + 2j)]
    ts = [0, 2, -0.0, complex(-0.0, 0.0), NAN, float("inf"), 1e300,
          1.3 + 0.4j, np.complex128(1.3 + 0.4j)]
    cases += [(IDENTITY, IDENTITY, t) for t in ts]
    cases += [(E1, E2, t) for t in ts] + [(E2, -E2, t) for t in ts]
    # signed zeros alone: an entry's sign rests on every zero it sums
    zeros = [0, 0.0, -0.0, 0j, -0j, complex(-0.0, 0.0), complex(0.0, -0.0)]
    for pick, tpick in [(pool, ts)] * 4000 + [(zeros, zeros)] * 2000:
        x, y = (Mat2(*(pick[k] for k in rng.integers(len(pick), size=4)))
                for _ in range(2))
        cases.append((x, y, tpick[rng.integers(len(tpick))]))
    with np.errstate(all="ignore"):  # the numpy entry meets inf and NaN
        for x, y, t in cases:
            assert (_identity_outcomes(IDENTITY_KERNELS, x, y, t)
                    == _identity_outcomes(IDENTITY_ORACLES, x, y, t))


def test_random_gt_matches_two_draw_oracle():
    # the first b of seeds 178 and 300 is rejected (|b| <= 0.1)
    for seed in (178, 300):
        g = np.random.default_rng(seed)
        g.standard_normal(2)
        assert abs(complex(*g.standard_normal(2))) <= 0.1
    for seed in (178, 300, 0, 20240817):
        got, want = (np.random.default_rng(seed) for _ in range(2))
        for k in range(300):
            t = (0, 2, -0.0, 1.3 + 0.4j, complex(-2.5, 1.0))[k % 5]
            assert (repr(random_gt(got, t))
                    == repr(random_gt_oracle(want, t)))
        assert got.bit_generator.state == want.bit_generator.state
        assert got.standard_normal() == want.standard_normal()


@pytest.mark.parametrize("fault", [False, True])
def test_identities_report_matches_mat2_oracles(tmp_path, monkeypatch,
                                                fault):
    args = ["identities", "--seed", "3", "--n", "200"]
    args += ["--inject-fault"] if fault else []
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    code = cli.main(args + ["--out", str(new)])
    monkeypatch.setattr(mat2, "ch_residual", ch_oracle)
    monkeypatch.setattr(mat2, "xyx_expand", xyx_oracle)
    monkeypatch.setattr(mat2, "anticommutator_residual",
                        anticommutator_oracle)
    monkeypatch.setattr(cli, "is_irreducible_pair", pair_oracle)
    monkeypatch.setattr(cli, "random_gt", random_gt_oracle)
    assert cli.main(args + ["--out", str(old)]) == code == int(fault)
    assert new.read_bytes() == old.read_bytes()
    assert json.loads(new.read_text())["pass"] is not fault


@pytest.mark.parametrize("normalized", [False, True])
def test_residual_kernels_match_list_oracles_bitwise(vectors, normalized):
    pairs = [(v, s_from_t(v)) for v in vectors]
    # 1000 NaN-free signed-zero pairs, each TraceVector with its own SCoords
    zeros = np.array([0j, -0j, complex(-0.0, 0.0), complex(0.0, -0.0)])
    rng = np.random.default_rng(6)
    for _ in range(1000):
        v, s = rng.choice(zeros, (2, 11)).tolist()
        pairs.append((TraceVector(*v), SCoords(*s)))
    for v, s in pairs:
        assert (repr(typeI_residuals(s, normalized))
                == repr(typeI_oracle(s, normalized)))
        assert (repr(typeII_residuals(s, normalized))
                == repr(typeII_oracle(s, normalized)))
        assert (repr(det_Sdiamond(s, normalized))
                == repr(det_Sdiamond_oracle(s, normalized)))
        assert (repr(trace_equation_residuals(v, normalized))
                == repr(trace_equation_oracle(v, normalized)))
        assert (repr(eq19_residuals(v, normalized))
                == repr(eq19_oracle(v, normalized)))


def _normalized(fn, *args):
    try:
        return repr(fn(*args))
    except OverflowError:   # a finite term whose modulus overflows
        return OverflowError


def test_per_arity_normalizers_match_the_loop_form(vectors):
    # _n2 .. _n7 and _n state one rule: the same bits on the terms of every
    # membership equation and definitive relation of the oracle vectors, and
    # on tuples of ints, signed zeros, NaN, inf and 1e300; _finish agrees
    # wherever the sum is finite, and a sum that is not gives nan+nanj
    tuples = []
    for v in vectors:
        tuples += [t for cid in COMPONENTS
                   for t in membership_terms(cid, v).values()]
        s = s_from_t(v)
        g, st = _gram(s), _s_triples(s)
        tuples += [(2 * st[a] * st[b], *_det3_terms(*minor(g)))
                   for a, b, minor in _TYPEI]
        tuples += [(r1 * st[3], -r2 * st[2], r3 * st[1], -r4 * st[0])
                   for r1, r2, r3, r4 in (g[r:r + 4] for r in range(0, 16, 4))]
    pool = [1, 0, -1, 2, 0.0, -0.0, 0j, -0j, complex(-0.0, 0.0),
            complex(0.0, -0.0), NAN, complex(NAN, -0.0), complex(1, NAN),
            float("inf"), complex(-0.0, float("-inf")), 1e300,
            complex(1e300, -1e300), 1e308, 0.5 + 0.25j]
    rng = np.random.default_rng(27)
    for _ in range(5000):
        tuples.append(tuple(pool[k] for k in
                            rng.integers(len(pool), size=rng.integers(2, 8))))
    arities = set()
    for terms in tuples:
        got = _normalized(_NORMALIZE[len(terms)], *terms)
        assert got == _normalized(_n, terms), terms
        total = _finish(terms, normalized=False)
        if cmath.isfinite(total):
            assert got == _normalized(_finish, terms, True), terms
        else:
            assert got == "(nan+nanj)", terms
        arities.add(len(terms))
    assert arities == set(range(2, 8))


def _nanmax(*vals):
    total = sum(vals)
    return max(vals) if total == total else total


def worst_oracle(values):
    """The largest magnitude as the gates took it before mat2._worst."""
    return _nanmax(*[abs(z) if z == z else NAN for z in values])


def test_worst_matches_nanmax_of_guarded_magnitudes(vectors):
    # the coordinates, their differences and the normalized trace-equation
    # residuals of the oracle vectors, and tuples of ints, signed zeros,
    # NaN, inf and 1e308 + 1e308j, whose modulus 1.4e308 is just finite
    seqs = []
    for v, w in zip(vectors, vectors[1:] + vectors[:1]):
        a, b = list(_t_coords(v)), list(_t_coords(w))
        seqs += [a, [p - q for p, q in zip(a, b)],
                 trace_equation_residuals(v, normalized=True)]
    pool = [1, 0, -1, 0.0, -0.0, -0j, NAN, complex(NAN, -0.0),
            complex(1, NAN), float("inf"), complex(float("inf"), NAN),
            complex(-0.0, float("-inf")), 1e300, complex(1e308, 1e308),
            0.5 + 0.25j]
    rng = np.random.default_rng(28)
    for _ in range(3000):
        seqs.append([pool[k] for k in
                     rng.integers(len(pool), size=rng.integers(1, 8))])
    for seq in seqs:
        assert (_normalized(mat2._worst, seq)
                == _normalized(worst_oracle, seq)), seq
    # a NaN gives NaN wherever it stands, and an inf without one gives inf,
    # as does a finite value whose modulus overflows, where abs() raises
    base, big = [1, -2.5, 0.5 + 0.25j, complex(3, -4)], 1.5e308 + 1.5e308j
    assert mat2._worst(base) == 5.0
    for k in range(len(base) + 1):
        for bad in (NAN, complex(NAN, 1), complex(float("inf"), NAN)):
            for mid in ([bad], [bad, big], [big, bad]):
                assert cmath.isnan(mat2._worst(base[:k] + mid + base[k:]))
        for inf in (complex(0, float("-inf")), big):
            assert mat2._worst(base[:k] + [inf] + base[k:]) == float("inf")


#: the rotate() image of each base component in ROTATION_PAIR
PARTNERS = ("X12", "X22", "X52", "X62")


def test_membership_residual_matches_list_oracle_bitwise(vectors):
    # a partner's residuals are its base's equations at the rotated vector
    for v in vectors:
        for cid in COMPONENTS:
            want = (membership_oracle(ROTATION_PAIR[cid], v.rotate())
                    if cid in PARTNERS else membership_oracle(cid, v))
            assert repr(membership_residual(cid, v)) == repr(want)


@pytest.fixture(scope="module")
def rotation_pair_samples():
    """(base sample, partner sample) pairs at CATALOG_T and at 300 random
    admissible t."""
    rng = np.random.default_rng(2020)
    ts = [*CATALOG_T, *(admissible_t(rng) for _ in range(300))]
    return [(a, b) for t in ts for cid in PARTNERS
            for a, b in zip(sample_component(ROTATION_PAIR[cid], t),
                            sample_component(cid, t), strict=True)]


def test_partner_samples_are_rotated_base_samples(rotation_pair_samples):
    # each partner sample rotates onto its base sample, so that
    # membership_residual checks the partner at the base sample itself
    for a, b in rotation_pair_samples:
        assert (b.branch, b.params) == (a.branch, a.params)
        assert b.vector.rotate() == a.vector


def test_partner_samples_satisfy_explicit_partner_equations(
        rotation_pair_samples):
    # membership_oracle writes each partner's equations out by hand, an
    # independent reference for the rotation construction
    for _, b in rotation_pair_samples:
        res = membership_oracle(b.id, b.vector)
        assert max(map(abs, res.values())) <= catalog.SAMPLE_TOL, b


def test_explicit_partner_equations_miss_base_samples(rotation_pair_samples):
    # negative control: the partner equations do reject the unrotated
    # samples, so the test above is not vacuous
    for a, b in rotation_pair_samples:
        res = membership_oracle(b.id, a.vector)
        assert max(map(abs, res.values())) > 1e-3, a


def test_definitive_gates_match_normalized_gates(vectors):
    for v in vectors:
        s = s_from_t(v)
        for tol in (1e-7, 1e-6):
            assert (repr(definitive_excess(s, tol))
                    == repr(definitive_oracle(s, tol)))
        assert classify_point(v) == classify_oracle(v)


def test_raw_misses_take_the_normalized_fallback():
    # at the verify-square corners the first two branches of X11 and X12
    # miss the raw test of the realization gate (raw residuals 3.3e-7 to
    # 1.4e-6) and pass on the normalized values (at most 4.9e-16)
    for t in CORNER_T:
        missed = set()
        for cid in COMPONENTS:
            for smp in sample_component(cid, t):
                s = s_from_t(smp.vector)
                raw = [*typeI_residuals(s), *typeII_residuals(s)]
                if max(map(abs, raw)) > 1e-7:
                    missed.add((cid, smp.branch))
                assert definitive_excess(s, 1e-7) == []
                assert (repr(realize_character(smp.vector))
                        == repr(realize_oracle(smp.vector)))
                assert classify_point(smp.vector) == cid
        assert missed == {("X11", 0), ("X11", 1), ("X12", 0), ("X12", 1)}


def test_realize_character_matches_plain_gates(samples, rng):
    vs = [smp.vector for smp in samples]
    for _ in range(100):
        vs.append(trace_vector_of(*random_quadruple(rng)[1]))
    # the input of test_realize_character_rejects_noncharacter, a NaN
    # coordinate, an infinite one, and a near-miss of each kind
    t, xs = random_quadruple(np.random.default_rng(20240817))
    v = trace_vector_of(*xs)
    vs += [_with(v, "t13", v.t13 + 0.1), _with(v, "t13", complex(NAN, 0.0)),
           _with(v, "t24", complex(float("inf"), 0.0)),
           _with(v, "t13", v.t13 + 1e-9), _with(v, "t13", v.t13 + 1e-5)]
    rejected = 0
    for w in vs:
        got, want = outcome(realize_character, w), outcome(realize_oracle, w)
        assert repr(got) == repr(want)
        rejected += isinstance(want, tuple)
    assert rejected >= 3


def test_validate_matches_plain_gate(quadruples):
    x = quadruples[0].x1
    for q in quadruples[:40]:
        assert outcome(q.validate) == outcome(validate_oracle, q)
    for e in (1e-10, 2e-9, 1e-6):
        # det 1 + e against the bound 1e-9 * max(1, norm^2): within 1e-9,
        # or only within the bound, or beyond both
        r = (1 + e) ** 0.5
        for big in (1.0, 1e3):
            m = Mat2(r * x.a * big, r * x.b * big, r * x.c / big,
                     r * x.d / big)
            q = Quadruple(m, x, x, x, t=x.trace())
            assert outcome(q.validate) == outcome(validate_oracle, q)
    # a NaN entry, an infinite one (det -inf, norm inf) and a finite one
    # whose squared norm overflows
    inf = float("inf")
    for m in (Mat2(NAN, 0, 0, 1), Mat2(1, inf, inf, 1),
              Mat2(1e200, 0, 0, 2e-200)):
        q = Quadruple(m, x, x, x, t=x.trace())
        assert outcome(q.validate) == outcome(validate_oracle, q)


def test_raw_kernels_on_symbols_expand_to_oracle():
    # the raw kernels are plain field arithmetic: on sympy symbols they
    # build the oracle's polynomials
    sp = pytest.importorskip("sympy")
    s = SCoords(*sp.symbols(_S_KEYS))
    v = TraceVector(*sp.symbols(COORD_KEYS))
    pairs = [(typeI_residuals(s), typeI_oracle(s)),
             (typeII_residuals(s), typeII_oracle(s)),
             ([det_Sdiamond(s)], [det_Sdiamond_oracle(s)]),
             (trace_equation_residuals(v), trace_equation_oracle(v)),
             (eq19_residuals(v), eq19_oracle(v))]
    for got, want in pairs:
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g != 0 and sp.expand(g - w) == 0


def augmented_steps_oracle(aug):
    """The Newton step solve as it was before back substitution: R^-1 from
    np.linalg.inv of the triangular R, then R^-1 Q^H rhs by einsum, the
    whole stack in one QR call, and the same _QR_COND_MAX gate on
    ||R||_F ||R^-1||_F."""
    n, _, k = aug.shape
    k -= 1
    r = np.linalg.qr(aug, mode="r")
    tri, qtb = r[:, :k, :k], r[:, :k, k]
    steps = np.empty((n, k), dtype=r.dtype)
    rows = np.flatnonzero(
        (np.diagonal(tri, axis1=1, axis2=2) != 0).all(axis=1))
    with np.errstate(over="ignore", invalid="ignore"):
        rinv = np.linalg.inv(tri[rows])
        kappa = (np.linalg.norm(tri[rows], axis=(1, 2))
                 * np.linalg.norm(rinv, axis=(1, 2)))
    good = kappa <= _probe_kernel._QR_COND_MAX
    done = rows[good]
    steps[done] = np.einsum("nij,nj->ni", rinv[good], qtb[done])
    rest = np.ones(n, dtype=bool)
    rest[done] = False
    if rest.any():
        steps[rest] = _probe_kernel._svd_steps(aug[rest, :, :k],
                                               aug[rest, :, k])
    return steps


def test_augmented_steps_match_inverse_oracle(monkeypatch):
    # 135 systems with condition numbers up to about 1e6, and three planted
    # ones that the gate sends to _svd_steps
    rng = np.random.default_rng(19)
    n = 135
    def cplx(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    jac, rhs = cplx(n, 32, 10), cplx(n, 32)
    jac *= np.logspace(0, -1, 10) ** rng.uniform(0, 6, (n, 1, 1))
    planted = [3, 65, n - 2]
    jac[3, :, 9] = jac[3, :, 0]                  # rank 9
    jac[planted[1]] *= np.logspace(0, -10, 10)   # kappa about 1e10
    jac[n - 2] = 0
    svd_rows, svd_steps = [], _probe_kernel._svd_steps

    def spy(j, r):
        svd_rows.append(sorted(k for x in j for k in range(n)
                               if np.array_equal(jac[k], x)))
        return svd_steps(j, r)

    monkeypatch.setattr(_probe_kernel, "_svd_steps", spy)
    aug = np.dstack([jac, rhs])
    got = _probe_kernel._augmented_steps(aug, np.ones(n, dtype=bool))
    want = augmented_steps_oracle(aug)
    assert svd_rows == [planted, planted]      # one call each
    eps = np.finfo(float).eps
    for k in range(n):
        if k in planted:
            assert got[k].tobytes() == want[k].tobytes()
        else:
            kappa = np.linalg.cond(jac[k])
            assert kappa < 1e7
            assert (np.linalg.norm(got[k] - want[k])
                    <= 10 * kappa * eps * np.linalg.norm(want[k])), k


def test_explore_matches_inverse_oracle(monkeypatch):
    # the probe panel images at seed 7 and test_explore_classifies's call:
    # the same labels, catalog points snapped to the same sample, and the
    # stalls on the singular reducible locus within 1e-6
    calls = [(-1.3585 + 1.6948j, 7, 200), (-1.7421 - 0.3885j, 7, 200),
             (0.5667 - 1.1545j, 7, 200), (2 + 1j, 3, 40)]
    got = [explore_solve(*c) for c in calls]
    monkeypatch.setattr(_probe_kernel, "_augmented_steps",
                        lambda aug, keep: augmented_steps_oracle(aug[keep]))
    want = [explore_solve(*c) for c in calls]
    for g, w in zip(got, want):
        assert [lbl for _, lbl in g] == [lbl for _, lbl in w]
        for (a, lbl), (b, _) in zip(g, w):
            if lbl in COMPONENTS:
                assert repr(a) == repr(b)
            else:
                assert max_dev(a, b) <= 1e-6
