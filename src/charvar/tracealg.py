"""Trace coordinates for quadruples in G(t)^4: the 11-coordinate embedding,
s-coordinates of traceless parts, the 20 definitive relations
of the rank-4 free group, and the knot-specific trace-equation battery.

Each residual is a sum of monomials, added left to right starting from 0,
so the bits do not depend on how a kernel holds its terms. Residual
functions return that raw sum by default. With ``normalized=True`` the
helpers ``_n1`` .. ``_n7`` and ``_n``, the only code that normalizes a
residual (``catalog.membership_residual`` uses them too), divide it by
max(1, largest monomial magnitude), the scale of the acceptance thresholds.
A sum that is not finite normalizes to the one constant nan+nanj, decided
before any abs() of a term: CPython's abs() of a complex NaN raises
OverflowError when an earlier call left errno at ERANGE.

A gate whose normalized value is not reported tests the raw residual
first: the divisor is at least 1, so a normalized magnitude is at most its
raw one, and a raw value within tolerance passes. Only a miss is
normalized and tested again. NaN and inf never pass the raw test, so they
always take the normalized path.

Every kernel reads fixed slots: index tables built once at import from
COORD_KEYS, PAIRS, TRIPLES and the subscript rotation say which coordinate
(or which entry of the Gram matrix) each monomial uses. They are plain int
tuples and the only statement of the coordinate layout: catalog's batched
Newton probe reads the same tables as numpy index arrays. The kernels are
plain arithmetic on the values they select, so they work unchanged on any
number type with field arithmetic, sympy symbols included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import add, attrgetter, itemgetter

from .errors import TraceMismatch
from .mat2 import Mat2, _worst

PAIR_KEYS = ("t12", "t23", "t34", "t14", "t13", "t24")
TRIPLE_KEYS = ("t123", "t124", "t134", "t234")
COORD_KEYS = ("t",) + PAIR_KEYS + TRIPLE_KEYS

#: ascending index pairs / triples in 1..4
PAIRS = ((1, 2), (2, 3), (3, 4), (1, 4), (1, 3), (2, 4))
TRIPLES = ((1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4))


#: SCoords field names, slot for slot with COORD_KEYS (s0 in the slot of t)
_S_KEYS = ("s0",) + tuple("s" + k[1:] for k in COORD_KEYS[1:])


def _shift(i: int, p: int) -> int:
    return (i - 1 + p) % 4 + 1


def _slot_tables():
    """Slots in COORD_KEYS by index tuple: each pair (i, j) in either order
    and each cyclic order of an ascending triple."""
    pair = {}
    for k, (i, j) in enumerate(PAIRS, start=1):
        pair[i, j] = pair[j, i] = k
    cyclic = {}
    for k, (a, b, c) in enumerate(TRIPLES, start=7):
        cyclic.update(dict.fromkeys(((a, b, c), (b, c, a), (c, a, b)), k))
    return pair, cyclic


_PAIR_SLOT, _TRIPLE_SLOT = _slot_tables()

#: slot of (t12, t13, t14, t23, t24, t123, t124) after the subscript
#: rotation by p, one row per p = 0..3
_EQ_SLOTS = tuple(
    tuple(_PAIR_SLOT[q] for q in ((i1, i2), (i1, i3), (i1, i4), (i2, i3),
                                  (i2, i4)))
    + (_TRIPLE_SLOT[i1, i2, i3], _TRIPLE_SLOT[i1, i2, i4])
    for i1, i2, i3, i4 in ([_shift(i, p) for i in (1, 2, 3, 4)]
                           for p in range(4)))
#: slot each coordinate of the rotated vector (i -> i+1 mod 4) reads
_ROTATE_SLOTS = (
    0, *(_PAIR_SLOT[_shift(i, 1), _shift(j, 1)] for i, j in PAIRS),
    *(_TRIPLE_SLOT[tuple(_shift(i, 1) for i in q)] for q in TRIPLES))
#: _S_KEYS slot of Gram entry (i, j), 0-based, at position 4 * i + j of the
#: flat row-major Gram matrix; s0 (slot 0) on the diagonal
_GRAM_SLOTS = tuple(_PAIR_SLOT.get((i, j), 0) for i in (1, 2, 3, 4)
                    for j in (1, 2, 3, 4))
#: 0-based Gram rows/columns of each ascending triple
_TRIPLE_ROWS = tuple(tuple(i - 1 for i in idx) for idx in TRIPLES)
#: positions in PAIRS (slot - 1) of the pairs (i, j), (j, k), (i, k) whose
#: sum shifts the triple trace t_ijk (s_from_t)
_SHIFT_PAIRS = tuple(tuple(_PAIR_SLOT[q] - 1 for q in ((i, j), (j, k), (i, k)))
                     for i, j, k in TRIPLES)


def _positions(rows, cols) -> tuple:
    """Flat Gram positions of a submatrix, row-major."""
    return tuple(4 * i + j for i in rows for j in cols)


#: flat Gram positions of the 3x3 minor of type I relation 4a + b: rows
#: TRIPLES[a], columns TRIPLES[b]
_TYPEI_SLOTS = tuple(_positions(_TRIPLE_ROWS[a], _TRIPLE_ROWS[b])
                     for a in range(4) for b in range(4))

#: the six pair / four triple values of a TraceVector, and the four triple
#: values of an SCoords, in PAIRS / TRIPLES order
_t_pairs = attrgetter(*PAIR_KEYS)
_t_triples = attrgetter(*TRIPLE_KEYS)
_s_triples = attrgetter(*_S_KEYS[7:])
#: all 11 values of a TraceVector, in COORD_KEYS order
_t_coords = attrgetter(*COORD_KEYS)
#: the 4x4 Gram matrix (s_ij) of an SCoords as a flat row-major 16-tuple:
#: entry (i, j), 0-based, is _gram(s)[4 * i + j]
_gram = attrgetter(*(_S_KEYS[k] for k in _GRAM_SLOTS))
#: the coordinates of the rotated vector, in COORD_KEYS order
_rotated = attrgetter(*(COORD_KEYS[k] for k in _ROTATE_SLOTS))


@dataclass(frozen=True, slots=True)
class TraceVector:
    """Candidate character of the 4-generator group, embedded in C^11."""

    t: complex
    t12: complex
    t23: complex
    t34: complex
    t14: complex
    t13: complex
    t24: complex
    t123: complex
    t124: complex
    t134: complex
    t234: complex

    def coords(self) -> dict[str, complex]:
        return {k: getattr(self, k) for k in COORD_KEYS}

    def rotate(self) -> "TraceVector":
        """Image under the order-4 subscript rotation i -> i+1 (mod 4)."""
        return TraceVector(*_rotated(self))

    def max_dev(self, other: "TraceVector") -> float:
        """Largest coordinate distance; NaN if one is NaN."""
        return _worst(a - b for a, b in zip(_t_coords(self), _t_coords(other)))

    def to_json(self):
        return {k: [getattr(self, k).real, getattr(self, k).imag]
                for k in COORD_KEYS}


@dataclass(frozen=True, slots=True)
class SCoords:
    """Pair/triple traces of the traceless parts; diagonal value is s0."""

    s0: complex
    s12: complex
    s23: complex
    s34: complex
    s14: complex
    s13: complex
    s24: complex
    s123: complex
    s124: complex
    s134: complex
    s234: complex


def s_from_t(v: TraceVector) -> SCoords:
    """s0 = t^2/2 - 2, s_ij = t_ij - t^2/2, and the triple-trace shift."""
    t = v.t
    h = t * t / 2
    half, cube = t / 2, t ** 3 / 2
    tp = _t_pairs(v)
    return SCoords(h - 2, *[x - h for x in tp],
                   *[x - half * (tp[a] + tp[b] + tp[c]) + cube
                     for x, (a, b, c) in zip(_t_triples(v), _SHIFT_PAIRS)])


_NAN = complex(math.nan, math.nan)   # every non-finite sum normalizes to it


# One helper per arity: a variadic _n(*terms) gave the same bits but made
# membership_residual 65% slower per call (17.5 against 10.6 us). s - s is
# 0 for a finite sum s, and NaN (true) for a NaN or inf one.
def _n1(a):
    s = 0 + a
    return _NAN if s - s else s / max(1.0, abs(a))


def _n2(a, b):
    s = 0 + a + b
    return _NAN if s - s else s / max(1.0, abs(a), abs(b))


def _n3(a, b, c):
    s = 0 + a + b + c
    return _NAN if s - s else s / max(1.0, abs(a), abs(b), abs(c))


def _n4(a, b, c, d):
    s = 0 + a + b + c + d
    return _NAN if s - s else s / max(1.0, abs(a), abs(b), abs(c), abs(d))


def _n5(a, b, c, d, e):
    s = 0 + a + b + c + d + e
    return _NAN if s - s else s / max(1.0, abs(a), abs(b), abs(c), abs(d),
                                      abs(e))


def _n6(a, b, c, d, e, f):
    s = 0 + a + b + c + d + e + f
    return _NAN if s - s else s / max(1.0, abs(a), abs(b), abs(c), abs(d),
                                      abs(e), abs(f))


def _n7(a, b, c, d, e, f, g):
    s = 0 + a + b + c + d + e + f + g
    return _NAN if s - s else s / max(1.0, abs(a), abs(b), abs(c), abs(d),
                                      abs(e), abs(f), abs(g))


def _n(terms):
    """The same rule for any number of terms."""
    s = reduce(add, terms, 0)
    return _NAN if s - s else s / max(1.0, *map(abs, terms))


_NORMALIZE = (None, _n1, _n2, _n3, _n4, _n5, _n6, _n7)   # by number of terms


#: type I relation 4a + b: (a, b, getter of its minor)
_TYPEI = tuple((r // 4, r % 4, itemgetter(*pos))
               for r, pos in enumerate(_TYPEI_SLOTS))


def typeI_residuals(s: SCoords, normalized: bool = False) -> list[complex]:
    """The 16 relations 2 s_I s_J + det((s_{i_a j_b})) over ordered pairs of
    ascending triples; universal identities on genuine quadruples."""
    g = _gram(s)
    st = _s_triples(s)
    out = []
    for a, b, minor in _TYPEI:
        m00, m01, m02, m10, m11, m12, m20, m21, m22 = minor(g)
        p0 = 2 * st[a] * st[b]
        # the 3x3 determinant of the minor, its six monomials in Leibniz order
        p1 = m00 * m11 * m22
        p2 = -m00 * m12 * m21
        p3 = -m01 * m10 * m22
        p4 = m01 * m12 * m20
        p5 = m02 * m10 * m21
        p6 = -m02 * m11 * m20
        out.append(_n7(p0, p1, p2, p3, p4, p5, p6) if normalized
                   else 0 + p0 + p1 + p2 + p3 + p4 + p5 + p6)
    return out


def typeII_residuals(s: SCoords, normalized: bool = False) -> list[complex]:
    """The four relations s_i1 s234 - s_i2 s134 + s_i3 s124 - s_i4 s123."""
    s123, s124, s134, s234 = _s_triples(s)
    g = _gram(s)
    out = []
    for r in range(0, 16, 4):
        r1, r2, r3, r4 = g[r:r + 4]
        p0, p1, p2, p3 = r1 * s234, -r2 * s134, r3 * s124, -r4 * s123
        out.append(_n4(p0, p1, p2, p3) if normalized
                   else 0 + p0 + p1 + p2 + p3)
    return out


def definitive_excess(s: SCoords, tol: float) -> list[float]:
    """Normalized magnitudes of the type I, then type II, residuals that do
    not lie within tol (NaN included), in relation order; empty when all 20
    do. The raw residuals are tested first (see the module docstring)."""
    for r in (*typeI_residuals(s), *typeII_residuals(s)):
        if not (r == r and abs(r) <= tol):   # no abs() of a NaN
            break
    else:
        return []
    mags = [abs(r) if r == r else math.nan   # see mat2._mag
            for r in (*typeI_residuals(s, True), *typeII_residuals(s, True))]
    return [m for m in mags if not m <= tol]


#: Laplace expansion along row 0: (column j, cofactor sign, getter of the
#: minor on rows 1..3 without column j)
_DET4 = tuple((j, -1 if j % 2 else 1,
               itemgetter(*_positions((1, 2, 3),
                                      [c for c in range(4) if c != j])))
              for j in range(4))


def det_Sdiamond(s: SCoords, normalized: bool = False) -> complex:
    """Determinant of the 4x4 Gram matrix; vanishes on genuine quadruples."""
    g = _gram(s)
    terms = []
    for j, sign, minor in _DET4:
        m00, m01, m02, m10, m11, m12, m20, m21, m22 = minor(g)
        c = sign * g[j]
        terms += (c * (m00 * m11 * m22), c * (-m00 * m12 * m21),
                  c * (-m01 * m10 * m22), c * (m01 * m12 * m20),
                  c * (m02 * m10 * m21), c * (-m02 * m11 * m20))
    return _n(terms) if normalized else reduce(add, terms, 0)


#: one getter per rotation p = 0..3 of the seven values _EQ_SLOTS[p] names
_EQ_IDX = tuple(attrgetter(*(COORD_KEYS[k] for k in row)) for row in _EQ_SLOTS)


def trace_equation_residuals(v: TraceVector,
                             normalized: bool = False) -> list[complex]:
    """Twelve residuals, ordered (position 1..4) x (tr0, tr1-tr2, tr1+tr2).

    They vanish exactly when the character-level necessary conditions for
    relator equality hold at every rotation.
    """
    t = v.t
    out = []
    for get in _EQ_IDX:
        t12, t13, t14, t23, t24, t123, t124 = get(v)
        a = t * t - 1
        c1 = t * (t12 + t * t - 2)
        c2 = t12 + t * t - 1
        c3 = t12 * t12 + a * t12 - t * t - 1
        d1 = t * (t * t - 2 - t12)
        d2 = t12 + 1 - t * t
        d3 = 1 - t12 * t12 + a * t12 - t * t
        for p0, p1, p2, p3, p4, p5 in (
                (a * t124, -a * t123, t * t13, -t * t24,
                 -t * (t12 - 1) * t14, t * (t12 - 1) * t23),
                (c1 * t124, -c1 * t123, c2 * t13, -c2 * t24, -c3 * t14,
                 c3 * t23),
                (d1 * t124, d1 * t123, d2 * t13, d2 * t24, -d3 * t14,
                 -d3 * t23)):
            out.append(_n6(p0, p1, p2, p3, p4, p5) if normalized
                       else 0 + p0 + p1 + p2 + p3 + p4 + p5)
    return out


def eq19_residuals(v: TraceVector, normalized: bool = False) -> list[complex]:
    """The redundant fourth equation at each rotation; identically equal to
    t*(tr1-tr2) - t^2*tr0, kept as an independent cross-check."""
    t = v.t
    out = []
    for get in _EQ_IDX:
        t12, t13, t14, t23, t24, t123, t124 = get(v)
        p0 = t * t * (t12 - 1) * t124
        p1 = -t * t * (t12 - 1) * t123
        p2 = t * (t12 - 1) * t13
        p3 = -t * (t12 - 1) * t24
        p4 = -t * (t12 * t12 - t12 - 1) * t14
        p5 = t * (t12 * t12 - t12 - 1) * t23
        out.append(_n6(p0, p1, p2, p3, p4, p5) if normalized
                   else 0 + p0 + p1 + p2 + p3 + p4 + p5)
    return out


def trace_vector_of(x1: Mat2, x2: Mat2, x3: Mat2, x4: Mat2) -> TraceVector:
    """The 11 trace coordinates of a quadruple sharing a common trace.

    x1x2, x1x3 and x2x3 are formed as local entries p, q and r, and every
    trace of a product P Q is (P.a Q.a + P.b Q.c) + (P.c Q.b + P.d Q.d):
    the operations of (P @ Q).trace(), in the same order.
    """
    t = x1.trace()
    for m in (x2, x3, x4):
        d = m.trace() - t   # a NaN fails before an abs() of it (mat2._mag)
        if not (d == d and abs(d) <= 1e-9 * max(1.0, abs(t))):
            raise TraceMismatch(f"traces {t} vs {m.trace()}")
    a1, b1, c1, d1 = x1.entries()
    a2, b2, c2, d2 = x2.entries()
    a3, b3, c3, d3 = x3.entries()
    a4, b4, c4, d4 = x4.entries()
    pa, pb, pc, pd = (a1 * a2 + b1 * c2, a1 * b2 + b1 * d2,
                      c1 * a2 + d1 * c2, c1 * b2 + d1 * d2)
    qa, qb, qc, qd = (a1 * a3 + b1 * c3, a1 * b3 + b1 * d3,
                      c1 * a3 + d1 * c3, c1 * b3 + d1 * d3)
    ra, rb, rc, rd = (a2 * a3 + b2 * c3, a2 * b3 + b2 * d3,
                      c2 * a3 + d2 * c3, c2 * b3 + d2 * d3)
    return TraceVector(
        t, pa + pd, ra + rd,
        (a3 * a4 + b3 * c4) + (c3 * b4 + d3 * d4),
        (a1 * a4 + b1 * c4) + (c1 * b4 + d1 * d4),
        qa + qd,
        (a2 * a4 + b2 * c4) + (c2 * b4 + d2 * d4),
        (pa * a3 + pb * c3) + (pc * b3 + pd * d3),
        (pa * a4 + pb * c4) + (pc * b4 + pd * d4),
        (qa * a4 + qb * c4) + (qc * b4 + qd * d4),
        (ra * a4 + rb * c4) + (rc * b4 + rd * d4))
