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


#: X4's sampler tower: r^2 = 6 - t^2, then u from the monic quadratic Q_r;
#: the sampler sets eta = t(u - 2) + r
U, R, ETA = sp.symbols("u r eta")
X4_TOWER = (R ** 2 + T ** 2 - 6,
            U ** 2 - (T ** 2 - 1) * U + T ** 2 + 1 - T * R)


def _x4_tower_misses(eta):
    """The names of X4's raw lin and q_eta that do not vanish at (u, eta)
    modulo X4_TOWER. Its leading monomials u^2 and r^2 are coprime, so it
    is a Groebner basis, and the remainder is 0 exactly on the tower."""
    eqs = raw_equations("X4", catalog._x4_vector(T, U, eta))
    return [name for name in ("lin", "q_eta")
            if sp.reduced(sp.expand(eqs[name]), X4_TOWER, U, R, T,
                          order="lex")[1] != 0]


def test_x4_sampler_tower_satisfies_lin_and_q_eta():
    # at eta = t(u - 2) + r both defining equations vanish on the tower,
    # which divides by nothing, t = 0 included
    assert _x4_tower_misses(T * (U - 2) + R) == []
    # negative control: the other sign of r is caught
    assert _x4_tower_misses(T * (U - 2) - R) == ["lin", "q_eta"]


def test_x4_samples_are_the_tower_points():
    # r = eta - t(u - 2) of each sample solves the tower, and each sign of
    # sqrt(6 - t^2) carries two of the four samples
    for t in (1.3 + 0.4j, 0j, -0.7 + 2.1j, 2.0, 1e-3j):
        r0 = (6 - t * t) ** 0.5
        rs = []
        for smp in sample_component("X4", t):
            u, eta = smp.params["u"], smp.params["eta"]
            r = eta - t * (u - 2)
            at = {T: t, U: u, R: r}
            assert all(abs(complex(p.subs(at))) <= 1e-12
                       for p in X4_TOWER), (t, smp.branch)
            rs.append(r)
        assert sorted(abs(r - r0) <= 1e-12 for r in rs) == [0, 0, 1, 1], t


#: dyadic t, at which every coefficient of excellent_quartic is exact in
#: binary; each coefficient has degree <= 4 in t, so agreement at five or
#: more t is agreement for every t
DYADIC_T = (0.0, 0.5, -1.25, 1.5, 2.75, -3.0, 0.375)


def _quartic_misses(quartic):
    """The t of DYADIC_T at which excellent_quartic(t)'s coefficients are
    not exactly those of quartic, a polynomial in u and t."""
    misses = []
    for t in DYADIC_T:
        want = sp.Poly(quartic.subs(T, sp.Rational(t)), U).all_coeffs()
        got = catalog.excellent_quartic(t)
        if ([sp.Rational(c.real) for c in got] != want
                or any(c.imag for c in got)):
            misses.append(t)
    return misses


def _norm(q):
    """q(r) q(-r) modulo r^2 = 6 - t^2: a polynomial in u and t."""
    return sp.reduced(sp.expand(q * q.subs(R, -R)), X4_TOWER[:1], R, U, T,
                      order="lex")[1]


def test_excellent_quartic_is_the_product_of_the_tower_quadratics():
    # Q_+ Q_- is X4's raw equations with eta eliminated, and its
    # coefficients are excellent_quartic's, exactly
    quartic = _norm(X4_TOWER[1])
    eqs = raw_equations("X4", catalog._x4_vector(T, U, ETA))
    assert sp.expand(sp.resultant(eqs["lin"], eqs["q_eta"], ETA)
                     - quartic) == 0
    assert _quartic_misses(quartic) == []
    # negative control: a quadratic with its constant term moved is caught
    assert _quartic_misses(_norm(X4_TOWER[1] + 1))
