"""The base components over QQ(t), exactly, from the library's own formulas.

Each base component (X11, X21, X3, X4, X51, X61) has a row constructor
(`catalog._x1_vector` .. `_x6_vector`) that maps t and its parameters to a
trace vector, and a set of raw defining equations
(`catalog.membership_terms`, each summed). At the constructor's image with
symbolic parameters every other raw equation vanishes identically, so the
defining ones alone cut the component out. Their reduced lex Groebner basis
over QQ(t) is the component's tower: one polynomial per parameter, monic in
it and free of the parameters after it. X51 and X61 have no parameter and an
empty tower. Exact proofs about a component reduce against this tower,
through `remainder`, so they prove the library's formulas, not a hand copy
of them.
"""

from functools import cache

import sympy as sp
from sympy import QQ
from sympy.polys.groebnertools import groebner
from sympy.polys.orderings import lex
from sympy.polys.rings import ring

from charvar import catalog

T = sp.Symbol("t")

#: base id -> (row constructor, its parameters in tower order, named as in
#: the samples' params, and the names of its defining equations)
BASES = {
    # the sampler passes x's partner root, mu - x by Vieta
    "X11": (lambda t, mu, x: catalog._x1_vector(t, mu, x, mu - x), ("mu", "x"),
            ("q_mu", "q_x")),
    "X21": (catalog._x2_vector, ("z", "gamma"), ("q_z", "q_g")),
    "X3": (catalog._x3_vector, ("u",), ("q_u",)),
    "X4": (catalog._x4_vector, ("u", "eta"), ("lin", "q_eta")),
    "X51": (catalog._x5_vector, (), ()),
    "X61": (catalog._x6_vector, (), ()),
}


def row_image(cid):
    """Base component cid's row constructor at t and its parameters, all
    sympy symbols."""
    make, params, _ = BASES[cid]
    return make(T, *map(sp.Symbol, params))


def raw_equations(cid, v):
    """catalog.membership_terms(cid, v), each equation summed."""
    return {k: sum(terms)
            for k, terms in catalog.membership_terms(cid, v).items()}


@cache
def tower(cid):
    """Base component cid's tower: the reduced lex Groebner basis over QQ(t)
    of its defining raw equations at its row image, in tower order.

    The ring is QQ(t)[params] under lex with each parameter greater than the
    ones before it, so element i's leading monomial is a power of
    params[i] when the basis is triangular.
    """
    _, params, names = BASES[cid]
    if not params:
        return ()
    r = ring(params[::-1], QQ.frac_field(T), lex)[0]
    eqs = raw_equations(cid, row_image(cid))
    return tuple(sorted(groebner([r.from_expr(eqs[k]) for k in names], r),
                        key=lambda p: p.LM))


def remainder(cid, expr):
    """expr, a polynomial over QQ(t) in base component cid's parameters
    (sympy symbols named as in BASES), reduced modulo cid's tower: 0 exactly
    when expr vanishes on the component. cid must have a parameter."""
    polys = tower(cid)
    return polys[0].ring.from_expr(expr).rem(list(polys))
