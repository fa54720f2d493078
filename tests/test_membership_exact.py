"""The membership equations checked exactly, over sympy symbols.

`catalog.membership_terms` is the one statement of each component's
equations: `membership_residual` normalizes it, and these tests read it raw
through `exact`, whose towers the exact proofs reduce against.
"""

import pytest

sp = pytest.importorskip("sympy")

from exact import BASES, T, raw_equations, row_image, tower  # noqa: E402
from charvar import catalog  # noqa: E402
from charvar.catalog import (COMPONENTS, ROTATION_PAIR,  # noqa: E402
                             membership_terms, sample_component)
from charvar.tracealg import COORD_KEYS, TraceVector  # noqa: E402

#: a generic trace vector: one symbol per coordinate
GENERIC = TraceVector(*sp.symbols(COORD_KEYS))


def test_membership_terms_are_exact_polynomials_for_every_id():
    # plain field arithmetic: every term of every equation is a polynomial
    # in the coordinates with rational coefficients, for all ten ids
    for cid in COMPONENTS:
        for name, terms in membership_terms(cid, GENERIC).items():
            assert isinstance(terms, tuple) and terms, (cid, name)
            for term in map(sp.sympify, terms):
                assert term.is_polynomial(*GENERIC.coords().values())
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
        r = polys[0].ring
        eqs = raw_equations(cid, row_image(cid))
        for name in names:
            assert r.from_expr(eqs[name]).rem(list(polys)) == 0, (cid, name)
        for smp in samples:
            at = {T: t, **{sp.Symbol(k): smp.params[k] for k in params}}
            for p in polys:
                assert abs(complex(p.as_expr().subs(at))) <= 1e-9, (cid, smp)
