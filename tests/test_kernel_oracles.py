"""The verify kernels against their plain reference forms, bit for bit.

`relators`, `RelatorSet.spread`, `trace_vector_of` and the type I, type II
and trace-equation residuals compute in local scalars. The oracles below
are the same mathematics written the plain way: Mat2 products and
differences, and a list of monomials summed by `sum()` and divided by
max(1, largest monomial). Both must take the same operations in the same
order, so `repr` must agree exactly, the sign of a zero included.
"""

import itertools

import numpy as np
import pytest

from conftest import E1, E2, E3, random_quadruple
from charvar.catalog import COMPONENTS, sample_component
from charvar.mat2 import IDENTITY, dist
from charvar.reconstruct import Quadruple, realize_character
from charvar.tracealg import (_EQ_IDX, _TYPEI, COORD_KEYS, SCoords,
                              TraceVector, _S_KEYS, _gram, _s_triples,
                              s_from_t, trace_equation_residuals,
                              trace_vector_of, typeI_residuals,
                              typeII_residuals)
from charvar.wirtinger import RelatorSet, relators

#: every catalog sample at these t is realized; a verify-square corner,
#: the parabolic slice and a real t among them
CATALOG_T = (1.3 + 0.4j, 2 + 0j, 3 + 0j,
             -2.2951323803190267 - 2.4173618223573543j)


def _finish(terms, normalized):
    val = sum(terms)
    if not normalized:
        return val
    return val / max(1.0, max(map(abs, terms)))


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
    return RelatorSet(*(x[i] @ x[(i + 1) % 4] @ x[i].inverse()
                        @ x[(i - 1) % 4] @ x[i] for i in range(4)))


def spread_oracle(rs):
    m = rs.matrices()
    return max(dist(m[i], m[j]) for i in range(4)
               for j in range(i + 1, 4)) / max(1.0, m[0].norm())


def trace_vector_oracle(x1, x2, x3, x4):
    x12, x13, x23 = x1 @ x2, x1 @ x3, x2 @ x3
    return TraceVector(
        x1.trace(), x12.trace(), x23.trace(), (x3 @ x4).trace(),
        (x1 @ x4).trace(), x13.trace(), (x2 @ x4).trace(),
        (x12 @ x3).trace(), (x12 @ x4).trace(), (x13 @ x4).trace(),
        (x23 @ x4).trace())


@pytest.fixture(scope="module")
def quadruples():
    rng = np.random.default_rng(20240817)
    qs = [realize_character(smp.vector) for t in CATALOG_T
          for cid in COMPONENTS for smp in sample_component(cid, t)]
    for _ in range(300):
        t, xs = random_quadruple(rng)
        qs.append(Quadruple(*xs, t=t))
    # exact zeros, whose sign a reordered sum can flip
    for xs in itertools.permutations((E1, E2, E3, -E1)):
        qs.append(Quadruple(*xs, t=0j))
        qs.append(Quadruple(*(x * 0.5 + IDENTITY for x in xs), t=2 + 0j))
    return qs


def test_trace_vector_of_matches_matmul_oracle_bitwise(quadruples):
    for q in quadruples:
        xs = q.matrices()
        assert repr(trace_vector_of(*xs)) == repr(trace_vector_oracle(*xs))


def test_relators_and_spread_match_mat2_chain_bitwise(quadruples):
    for q in quadruples:
        want = relators_oracle(q)
        got = relators(q)
        assert repr(got) == repr(want)
        assert repr(got.spread()) == repr(spread_oracle(want))


@pytest.mark.parametrize("normalized", [False, True])
def test_residual_kernels_match_list_oracles_bitwise(quadruples, normalized):
    pairs = [(v, s_from_t(v)) for v in
             (trace_vector_oracle(*q.matrices()) for q in quadruples)]
    # signed zeros: a sum that does not start from 0 can end on -0.0
    zeros = np.array([0j, -0j, complex(-0.0, 0.0), complex(0.0, -0.0)])
    rng = np.random.default_rng(5)
    for _ in range(1000):
        v, s = rng.choice(zeros, (2, 11)).tolist()
        pairs.append((TraceVector(*v), SCoords(*s)))
    for v, s in pairs:
        assert (repr(typeI_residuals(s, normalized))
                == repr(typeI_oracle(s, normalized)))
        assert (repr(typeII_residuals(s, normalized))
                == repr(typeII_oracle(s, normalized)))
        assert (repr(trace_equation_residuals(v, normalized))
                == repr(trace_equation_oracle(v, normalized)))


def test_raw_kernels_on_symbols_expand_to_oracle():
    # the raw kernels are plain field arithmetic: on sympy symbols they
    # build the oracle's polynomials
    sp = pytest.importorskip("sympy")
    s = SCoords(*sp.symbols(_S_KEYS))
    v = TraceVector(*sp.symbols(COORD_KEYS))
    pairs = [(typeI_residuals(s), typeI_oracle(s)),
             (typeII_residuals(s), typeII_oracle(s)),
             (trace_equation_residuals(v), trace_equation_oracle(v))]
    for got, want in pairs:
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g != 0 and sp.expand(g - w) == 0
