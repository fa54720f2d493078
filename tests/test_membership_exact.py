"""The membership equations checked exactly, over sympy symbols.

`catalog.membership_terms` is the one statement of each component's
equations: `membership_residual` normalizes it, and these tests read it raw
through `exact`, whose towers the exact proofs reduce against.
"""

import pytest

sp = pytest.importorskip("sympy")

from exact import (BASES, T, raw_equations, remainder,  # noqa: E402
                   row_image, tower)
from charvar import catalog  # noqa: E402
from charvar.catalog import (COMPONENTS, ROTATION_PAIR,  # noqa: E402
                             membership_terms, sample_component)
from charvar.tracealg import (COORD_KEYS, TraceVector,  # noqa: E402
                              _t_coords)

#: a generic trace vector: one symbol per coordinate
GENERIC = TraceVector(*sp.symbols(COORD_KEYS))


def test_membership_terms_are_exact_polynomials_for_every_id():
    # plain field arithmetic: every term of every equation is a polynomial
    # in the coordinates with rational coefficients, for all ten ids
    for cid in COMPONENTS:
        for name, terms in membership_terms(cid, GENERIC).items():
            assert isinstance(terms, tuple) and terms, (cid, name)
            for term in map(sp.sympify, terms):
                assert term.is_polynomial(*_t_coords(GENERIC))
                assert not term.atoms(sp.Float, sp.I), (cid, name, term)


def test_partner_terms_are_the_rotated_base_terms():
    for partner, base in catalog._BASE.items():
        assert (membership_terms(partner, GENERIC)
                == membership_terms(base, GENERIC.rotate()))


def test_row_images_leave_only_the_defining_equations():
    # at each base row constructor's symbolic image every raw equation
    # vanishes identically except the ones that define the component; a
    # partner's (X3 and X4 are their own) at the rotate^3 image, where its
    # samples are built
    for cid, (_, _, names) in BASES.items():
        v = row_image(cid)
        for image_id, w in ((cid, v), (ROTATION_PAIR[cid],
                                       v.rotate().rotate().rotate())):
            left = {k for k, e in raw_equations(image_id, w).items()
                    if sp.cancel(e) != 0}
            assert left == set(names), (image_id, left)


def test_x4_polish_system_is_the_raw_x4_equations():
    # the X4 sampler polishes with _x4_system: the raw lin and q_eta
    u, eta = sp.symbols("u eta")
    eqs = raw_equations("X4", catalog._x4_vector(T, u, eta))
    for got, name in zip(catalog._x4_system(T, u, eta), ("lin", "q_eta")):
        assert sp.expand(got - eqs[name]) == 0


def _x4_matrix_misses(m_u, m_eta):
    """x * b_i - sum_j m_x[i][j] * b_j modulo X4's tower, for x = u and
    x = eta and each b_i of the quotient basis (1, u, eta, u*eta)."""
    u, eta = sp.symbols("u eta")
    basis = (1, u, eta, u * eta)
    return [remainder("X4", sp.expand(x * b - sum(
                m_ij * b_j for m_ij, b_j in zip(row, basis))))
            for x, m in ((u, m_u), (eta, m_eta)) for b, row in zip(basis, m)]


def test_x4_sampler_matrices_multiply_by_u_and_eta():
    # the X4 sampler's eigenvectors are (1, u, eta, u*eta) only if its
    # matrices are multiplication by u and eta modulo the raw X4 equations
    m_u, m_eta = catalog._x4_matrices(T)
    assert all(rem == 0 for rem in _x4_matrix_misses(m_u, m_eta))
    # negative control: one entry changed is caught
    bad = [list(row) for row in m_u]
    bad[3][1] += 1
    assert any(rem != 0 for rem in _x4_matrix_misses(bad, m_eta))


def test_towers_are_triangular_and_carry_the_samples():
    # one element per parameter, monic in it and free of the later ones;
    # the leading degrees multiply to the sampler's branch count, the
    # defining equations reduce to 0, and every sample is a root
    t = 1.3 + 0.4j
    for cid, (_, params, names) in BASES.items():
        polys = tower(cid)
        samples = sample_component(cid, t)
        count = 1
        for i, p in enumerate(polys):
            lm = p.LM[::-1]            # exponents in tower order
            assert [k for k, e in enumerate(lm) if e] == [i], (cid, p)
            assert p.LC == 1
            count *= lm[i]
        assert count == len(samples), cid
        if not polys:
            continue
        eqs = raw_equations(cid, row_image(cid))
        for name in names:
            assert remainder(cid, eqs[name]) == 0, (cid, name)
        for smp in samples:
            at = {T: t, **{sp.Symbol(k): smp.params[k] for k in params}}
            for p in polys:
                assert abs(complex(p.as_expr().subs(at))) <= 1e-9, (cid, smp)


def test_x4_polish_jacobian_is_the_raw_x4_jacobian():
    # the X4 sampler's Newton step reads _x4_jacobian: the Jacobian in
    # (u, eta) of the raw lin and q_eta, row by row
    u, eta = sp.symbols("u eta")
    eqs = raw_equations("X4", catalog._x4_vector(T, u, eta))
    for row, name in zip(catalog._x4_jacobian(T, u, eta), ("lin", "q_eta")):
        for got, var in zip(row, (u, eta)):
            assert sp.expand(got - sp.diff(eqs[name], var)) == 0


#: dyadic t, at which every coefficient of excellent_quartic is exact in
#: binary; each coefficient has degree <= 4 in t, so agreement at five or
#: more t is agreement for every t
DYADIC_T = (0.0, 0.5, -1.25, 1.5, 2.75, -3.0, 0.375)


def _charpoly_misses(m_u):
    """The t of DYADIC_T at which excellent_quartic(t)'s coefficients are
    not exactly those of the characteristic polynomial of m_u at t."""
    x = sp.Symbol("x")
    misses = []
    for t in DYADIC_T:
        want = sp.Matrix(m_u(sp.Rational(t))).charpoly(x).all_coeffs()
        got = catalog.excellent_quartic(t)
        if ([sp.Rational(c.real) for c in got] != want
                or any(c.imag for c in got)):
            misses.append(t)
    return misses


def test_excellent_quartic_is_the_charpoly_of_m_u_and_a_resultant():
    # the X4 sampler's u are the eigenvalues of m_u, the roots of
    # excellent_quartic; both are X4's equations with eta eliminated
    assert _charpoly_misses(lambda t: catalog._x4_matrices(t)[0]) == []
    u, eta = sp.symbols("u eta")
    eqs = raw_equations("X4", catalog._x4_vector(T, u, eta))
    charpoly = sp.Matrix(catalog._x4_matrices(T)[0]).charpoly(u).as_expr()
    assert sp.expand(sp.resultant(eqs["lin"], eqs["q_eta"], eta)
                     - charpoly) == 0

    # negative control: one entry of m_u changed is caught
    def bad(t):
        m_u = [list(row) for row in catalog._x4_matrices(t)[0]]
        m_u[3][1] += 1
        return m_u
    assert _charpoly_misses(bad)
