"""The batched residual-and-Jacobian kernel of the Newton probe.

The probe system is {12 trace equations, 4 type II, 16 type I} in the ten
coordinates COORD_KEYS[1:] at a fixed trace t, the same equations that
tracealg's scalar kernels evaluate one vector at a time. Here they are
evaluated, with their exact derivatives, for many vectors at once, from
index tables built on tracealg's slot tables. Its caller is the Newton loop
of catalog.explore_solve.
"""

from __future__ import annotations

import numpy as np

from .tracealg import _EQ_SLOTS, _GRAM_SLOTS, _SHIFT_PAIRS, _TYPEI_SLOTS

# The probe's unknowns y are COORD_KEYS[1:], so COORD_KEYS slot k of the
# tracealg tables is column k - 1 of y; its s-array holds s0 and the six
# s-pairs in their SCoords slots 0..6. The Newton loop solves the system
# [J | -f]: 32 equations, each with its 10 derivatives and then its negated
# residual, so entry (i, j) of a row's system is entry 11 i + j of the row.

# columns of (t12, t13, t14, t23, t24, t123, t124) after each subscript
# rotation p; they enter the residual rows 3p + (tr0, tr1-tr2, tr1+tr2)
_EQ_COLS = np.array(_EQ_SLOTS) - 1
# the trace-equation entries of rows 3p..3p+2: a (20, 4) table over (entry,
# rotation p) of those that vary with y (the three residuals, then columns
# 0, 2, 3 of row 3p and all seven of rows 3p + 1 and 3p + 2), a (4, 4) table
# of the constant ones (columns 1, 4, 5, 6 of row 3p: t, -t, -a, a), and
# the zeros (the three columns a row's rotation does not use)
_EQ_VARY = np.array(
    [[11 * (3 * p + k) + 10 for p in range(4)] for k in range(3)]
    + [[33 * p + _EQ_COLS[p, c] for p in range(4)] for c in (0, 2, 3)]
    + [[11 * (3 * p + k) + _EQ_COLS[p, c] for p in range(4)]
       for k in (1, 2) for c in range(7)])
_EQ_CONST = np.array([[33 * p + _EQ_COLS[p, c] for c in (1, 4, 5, 6)]
                      for p in range(4)])
_EQ_ZERO = np.array([11 * (3 * p + k) + c for p in range(4) for k in range(3)
                     for c in range(10) if c not in _EQ_COLS[p]])
_GRAM = np.array(_GRAM_SLOTS).reshape(4, 4)     # s-slot of Gram entry (i, j)
_SHIFT_COLS = np.array(_SHIFT_PAIRS)            # pair columns of each shift
_ALT = np.array([1, -1, 1, -1])
# type II: each off-diagonal s_ij of relation i, as (i, column, j)
_II_ROWS, _II_COLS, _II_J = np.array(
    [(i, _GRAM[i, j] - 1, j) for i in range(4) for j in range(4)
     if i != j]).T
# type I: row 16 + 4a + b pairs triples I = TRIPLES[a] and J = TRIPLES[b]
_TI_A, _TI_B = np.divmod(np.arange(16), 4)


def _minor_table():
    """Index tables of the type I Gram minors, in plain ints.

    Cofactor (i, j) of a 3x3 minor M is M[i', j'] M[i'', j''] -
    M[i', j''] M[i'', j'] with i' = i + 1 and i'' = i + 2 (mod 3), the same
    for j. The 144 cofactors of the 16 minors are, up to sign, 46 distinct
    2x2 minors s_a s_b - s_c s_d of the s-array, with operand order kept
    (complex products need not commute bitwise). Returns the (46, 4) slots
    (a, b, c, d); the column of each cofactor in mx = [m, -m, 0], the
    minors, their negatives and a zero; and, as two (16, 6) tables, the mx
    columns of the entries (row-major) of minor r that hold pair column k.
    A pair sits in at most two entries, and a missing one points at the
    zero column; diagonal entries are the constant s0 and hold no pair.
    """
    seen, signed = {}, []      # minor -> its index; (index, negated)
    for pos in _TYPEI_SLOTS:
        g = [_GRAM_SLOTS[p] for p in pos]
        rows = g[:3], g[3:6], g[6:]
        for i in range(3):
            r1, r2 = rows[i - 2], rows[i - 1]      # rows i + 1, i + 2 (mod 3)
            for j in range(3):
                key = (r1[j - 2], r2[j - 1], r1[j - 1], r2[j - 2])
                neg = key[2:] + key[:2]
                signed.append((seen[neg], True) if neg in seen
                              else (seen.setdefault(key, len(seen)), False))
    ops = list(seen)
    cof = [k + len(ops) if negated else k for k, negated in signed]
    gather = [[[2 * len(ops)] * 6 for _ in _TYPEI_SLOTS] for _ in range(2)]
    for r, pos in enumerate(_TYPEI_SLOTS):
        used = [0] * 6
        for e, p in enumerate(pos):
            k = _GRAM_SLOTS[p] - 1
            if k >= 0:
                gather[used[k]][r][k] = cof[9 * r + e]
                used[k] += 1
    return ops, cof, gather


_MINOR_OPS, _COF, _TI_GATHER = map(np.array, _minor_table())
_COF = _COF.reshape(16, 3, 3)
_TI_GATHER = _TI_GATHER.reshape(2, 96)      # entries (r, c < 6), r-major
_TI_ROW0 = _GRAM.ravel()[np.array(_TYPEI_SLOTS)[:, :3]]  # s-slots, row 0


def _typeI_jac_table():
    """Index tables of the type I Jacobian before its pair cofactors.

    Entry (r, c) of row r = 4a + b is 2 (st_b dst[a, c] + st_a dst[b, c]),
    with dst = d st / dy. An entry of dst is -t/2 on the pair columns of
    its shift, 1 on the shift's own column and 0 elsewhere, so each product
    is one of 12: st_i times value v, row 4 v + i of a (12, n) table. The
    160 sums have 84 distinct operand pairs. Returns their product rows as
    two lists, the st_b product first as the sum adds them; and the pair of
    each entry (r, c), r-major, for c < 6 and for c >= 6.
    """
    def value(i, c):                      # 0, 1 or -t/2, as 0, 1 or 2
        return 2 if c in _SHIFT_PAIRS[i] else int(c == 6 + i)

    seen, k = {}, []
    for r in range(16):
        a, b = divmod(r, 4)
        k.append([seen.setdefault((4 * value(a, c) + b, 4 * value(b, c) + a),
                                  len(seen)) for c in range(10)])
    sum_b, sum_a = zip(*seen)
    k = np.array(k)
    return sum_b, sum_a, k[:, :6].ravel(), k[:, 6:].ravel()


_TI_SUM_B, _TI_SUM_A, _TI_SUM_PAIR, _TI_SUM_REST = map(
    np.array, _typeI_jac_table())
# rows 11 r + c of the (176, n) type I entries, for c < 6 and for c >= 6
_TI_PAIR_ROWS = (11 * np.arange(16)[:, None] + np.arange(6)).ravel()
_TI_REST_ROWS = (11 * np.arange(16)[:, None] + np.arange(6, 10)).ravel()


class _ProbeSystem:
    """The systems [J | -f] of {12 trace equations, 4 type II, 16 type I}
    at one trace t, for each row of y, an (n, 10) array of the coordinates
    COORD_KEYS[1:]: the raw residuals f, ordered as trace_equation_residuals,
    typeII_residuals and typeI_residuals list them, and their exact
    derivatives J.

    Every equation has degree <= 3 and the s-coordinates are affine in y,
    so the type I derivatives are the cofactors of the 3x3 Gram minors
    mapped back onto the pair columns; each distinct cofactor is computed
    once (see _minor_table).

    The tables that depend on t alone (d st / dy in its type II and type I
    forms, s0, and the constant trace-equation entries) are computed once
    per t. A call on an (n, 10) array y writes the entries of its n systems
    into the first 352 n entries of a buffer the system owns, entry-major
    (entry e of all n rows is one contiguous run), and returns the
    (n, 32, 11) view of them. The buffer grows only when a call has more
    rows than any before it, so a Newton loop does not allocate and free
    its largest array every iteration; the view is valid only until the
    next call, which overwrites it. Every entry is written on every call,
    by the same operations in the same operand order whatever the other
    rows are, so a row's system does not depend on the rows it is computed
    with, nor on earlier calls.
    """

    def __init__(self, t: complex):
        tt = t * t
        a = tt - 1
        self.t, self.tt, self.a = t, tt, a
        self.s0, self.half_tt = tt / 2 - 2, tt / 2
        self.half_t, self.half_t3 = t / 2, t ** 3 / 2
        dst = np.zeros((4, 10), dtype=complex)   # d st / dy, for every row
        dst[np.arange(4)[:, None], _SHIFT_COLS] = -t / 2
        dst[:, 6:] = np.eye(4)
        self.dst_ii = _ALT[:, None] * dst[::-1]
        self.dst_values = (0j, 1 + 0j, -t / 2)   # by _typeI_jac_table code
        self.eq_const = np.array([t, -t, -a, a])[:, None]
        self._buf = np.empty(0, dtype=complex)

    def __call__(self, y: np.ndarray) -> np.ndarray:
        n = len(y)
        if self._buf.size < 352 * n:
            self._buf = np.empty(352 * n, dtype=complex)
        ent = self._buf[:352 * n].reshape(352, n)  # entry 11 i + j of a row
        ent[_EQ_CONST] = self.eq_const
        ent[_EQ_ZERO] = 0
        self._trace_rows(y, ent)
        s = np.empty((n, 7), dtype=complex)
        s[:, 0] = self.s0
        np.subtract(y[:, :6], self.half_tt, out=s[:, 1:])
        st = (y[:, 6:] - self.half_t * y[:, _SHIFT_COLS].sum(axis=2)
              + self.half_t3)
        ent = ent.reshape(32, 11, n)
        self._typeII_rows(s, st, ent[12:16])
        self._typeI_rows(s.T, st.T, ent[16:])
        np.negative(ent[:, 10], out=ent[:, 10])
        return ent.transpose(2, 0, 1)

    def _trace_rows(self, y, ent):
        """Rows 0..11: the trace equations under the four rotations."""
        t, tt, a = self.t, self.tt, self.a
        vary = np.empty((20, 4, len(y)), dtype=complex)
        # in _EQ_VARY's order: residual k, entry (0, c) as j0c, then the
        # entries of rows 1 and 2, each named by its value
        f0, f1, f2, j00, j02, j03, j10, c2, mc3, c3, mc2, mc1, c1, \
            j20, d2, md3, md3_, d2_, d1, d1_ = vary
        t12, t13, t14, t23, t24, t123, t124 = y.T[_EQ_COLS.T]
        dq, sq = t124 - t123, t124 + t123
        dm, dp = t13 - t24, t13 + t24
        em, ep = t14 - t23, t14 + t23
        tm = np.multiply(t, t12 - 1, out=j03)
        np.multiply(t, t12 + tt - 2, out=c1)
        np.subtract(t12 + tt, 1, out=c2)
        np.subtract(t12 * t12 + a * t12 - tt, 1, out=c3)
        np.multiply(t, tt - 2 - t12, out=d1)
        np.subtract(t12 + 1, tt, out=d2)
        d3 = 1 - t12 * t12 + a * t12 - tt
        np.subtract(a * dq + t * dm, tm * em, out=f0)
        np.subtract(c1 * dq + c2 * dm, c3 * em, out=f1)
        np.subtract(d1 * sq + d2 * dp, d3 * ep, out=f2)
        np.multiply(-t, em, out=j00)
        np.negative(tm, out=j02)
        np.subtract(t * dq + dm, (2 * t12 + a) * em, out=j10)
        np.negative(c3, out=mc3)
        np.negative(c2, out=mc2)
        np.negative(c1, out=mc1)
        np.subtract(dp - t * sq, (a - 2 * t12) * ep, out=j20)
        np.negative(d3, out=md3)
        md3_[...], d2_[...], d1_[...] = md3, d2, d1
        ent[_EQ_VARY] = vary

    def _typeII_rows(self, s, st, ent):
        """Rows 12..15: the type II relations, from the (n, 4, 4) Gram
        matrices of the (n, 7) s-array s and the (n, 4) shifts st."""
        gram = s[:, _GRAM]
        w = st[:, ::-1] * _ALT                   # s_i1 s234 - s_i2 s134 + ...
        ent[:, 10] = (gram * w[:, None, :]).sum(axis=2).T
        ent[:, :10] = np.einsum("nij,jk->ikn", gram, self.dst_ii)
        ent[_II_ROWS, _II_COLS] += w[:, _II_J].T

    def _typeI_rows(self, s, st, ent):
        """Rows 16..31: the type I relations, from the 46 minors of the
        entry-major (7, n) s-array s and (4, n) shifts st."""
        nm, n = len(_MINOR_OPS), s.shape[1]
        mx = np.empty((2 * nm + 1, n), dtype=complex)
        a, b, c, d = _MINOR_OPS.T
        np.subtract(s[a] * s[b], s[c] * s[d], out=mx[:nm])
        np.negative(mx[:nm], out=mx[nm:2 * nm])
        mx[2 * nm] = 0
        row, cof = s[_TI_ROW0], mx[_COF[:, 0, :]]       # (16, 3, n) each
        sa, sb = st[_TI_A], st[_TI_B]
        np.add(2 * sa * sb, row[:, 0] * cof[:, 0] + row[:, 1] * cof[:, 1]
               + row[:, 2] * cof[:, 2], out=ent[:, 10])
        del row, cof                  # before the Jacobian's temporaries
        # every operand below is contiguous and of the result's shape, or
        # a scalar, so no ufunc goes through numpy's buffered iterator
        pairs = mx[_TI_GATHER[0]]
        pairs += mx[_TI_GATHER[1]]
        del mx
        prod = np.empty((3, 4, n), dtype=complex)
        for v, value in enumerate(self.dst_values):
            np.multiply(sb[:4], value, out=prod[v])    # sb[:4] is st
        prod = prod.reshape(12, n)
        sums = prod[_TI_SUM_B]
        sums += prod[_TI_SUM_A]
        del prod
        np.multiply(2, sums, out=sums)
        np.add(sums[_TI_SUM_PAIR], pairs, out=pairs)
        flat = ent.reshape(176, n)
        flat[_TI_PAIR_ROWS] = pairs
        flat[_TI_REST_ROWS] = sums[_TI_SUM_REST]

