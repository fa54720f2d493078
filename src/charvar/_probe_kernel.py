"""The Newton probe's solver: the batched [J | -f] kernel, the step solve,
and the Newton loop with its stop rules.

The probe system is {12 trace equations, 4 type II, 10 type I} in the ten
coordinates COORD_KEYS[1:] at a fixed trace t, the same equations that
tracealg's scalar kernels evaluate one vector at a time. Of the 16 type I
relations it keeps the ten distinct ones (tracealg._TYPEI_KEPT): each of
the six that stands for two, 4a + b and 4b + a, carries weight sqrt 2, so
J^H J and J^H f, and with them every least-squares step, are those of all
16, with 26 rows in place of 32. _ProbeSystem
evaluates them, with their exact derivatives, for many vectors at once,
from index tables built on tracealg's slot tables; _newton_starts runs
undamped Gauss-Newton on them from many starts at once, and
_augmented_steps solves each iteration's steps. This module owns the
[J | -f] system: its layout, its buffer, its step solve and the rules that
stop a start. Its caller is catalog.explore_solve, which imports it on its
first call, so a command that never probes does not build its tables.
"""

from __future__ import annotations

import numpy as np

from .tracealg import (_EQ_SLOTS, _GRAM_SLOTS, _SHIFT_PAIRS, _TYPEI_KEPT,
                       _TYPEI_SLOTS)

# The probe's unknowns y are COORD_KEYS[1:], so COORD_KEYS slot k of the
# tracealg tables is column k - 1 of y; its s-array holds s0 and the six
# s-pairs in their SCoords slots 0..6. The Newton loop solves the system
# [J | -f]: 26 equations, each with its 10 derivatives and then its negated
# residual, so entry (i, j) of a row's system is entry 11 i + j of the row.
_EQS = 16 + len(_TYPEI_KEPT)

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
# type I: row 16 + r is relation _TYPEI_KEPT[r] = 4a + b, which pairs
# triples I = TRIPLES[a] and J = TRIPLES[b]; rows 16..19 have a = b, and
# rows 20..25, with a < b, each stand for two relations and carry weight
# sqrt 2 (entries and residual), which the stop rules divide back out
# (_max_residual)
_TI_SLOTS = tuple(_TYPEI_SLOTS[r] for r in _TYPEI_KEPT)
_TI_A, _TI_B = np.divmod(np.array(_TYPEI_KEPT), 4)
_TI_PAIRED = 16 + int(np.count_nonzero(_TI_A == _TI_B))  # 1st weighted row
_SQRT2 = np.sqrt(2)


def _minor_table():
    """Index tables of the type I Gram minors, in plain ints.

    Cofactor (i, j) of a 3x3 minor M is M[i', j'] M[i'', j''] -
    M[i', j''] M[i'', j'] with i' = i + 1 and i'' = i + 2 (mod 3), the same
    for j. The 90 cofactors of the ten kept minors are, up to sign, 41
    distinct 2x2 minors s_a s_b - s_c s_d of the s-array, with operand
    order kept (complex products need not commute bitwise). Returns the
    (41, 4) slots (a, b, c, d); the column of each cofactor in
    mx = [m, -m, 0], the minors, their negatives and a zero; and, as two
    (10, 6) tables, the mx columns of the entries (row-major) of minor r
    that hold pair column k.
    A pair sits in at most two entries, and a missing one points at the
    zero column; diagonal entries are the constant s0 and hold no pair.
    """
    seen, signed = {}, []      # minor -> its index; (index, negated)
    for pos in _TI_SLOTS:
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
    gather = [[[2 * len(ops)] * 6 for _ in _TI_SLOTS] for _ in range(2)]
    for r, pos in enumerate(_TI_SLOTS):
        used = [0] * 6
        for e, p in enumerate(pos):
            k = _GRAM_SLOTS[p] - 1
            if k >= 0:
                gather[used[k]][r][k] = cof[9 * r + e]
                used[k] += 1
    return ops, cof, gather


_MINOR_OPS, _COF, _TI_GATHER = map(np.array, _minor_table())
_COF = _COF.reshape(-1, 3, 3)
_TI_GATHER = _TI_GATHER.reshape(2, -1)      # entries (r, c < 6), r-major
_TI_ROW0 = _GRAM.ravel()[np.array(_TI_SLOTS)[:, :3]]  # s-slots, row 0


def _typeI_jac_table():
    """Index tables of the type I Jacobian before its pair cofactors.

    Entry (r, c) of row r, relation 4a + b, is
    2 (st_b dst[a, c] + st_a dst[b, c]), with dst = d st / dy. An entry of
    dst is -t/2 on the pair columns of its shift, 1 on the shift's own
    column and 0 elsewhere, so each product is one of 12: st_i times value
    v, row 4 v + i of a (12, n) table. The 100 sums have 48 distinct
    operand pairs. Returns their product rows as two lists, the st_b
    product first as the sum adds them; and the pair of each entry (r, c),
    r-major, for c < 6 and for c >= 6.
    """
    def value(i, c):                      # 0, 1 or -t/2, as 0, 1 or 2
        return 2 if c in _SHIFT_PAIRS[i] else int(c == 6 + i)

    seen, k = {}, []
    for a, b in zip(_TI_A.tolist(), _TI_B.tolist()):
        k.append([seen.setdefault((4 * value(a, c) + b, 4 * value(b, c) + a),
                                  len(seen)) for c in range(10)])
    sum_b, sum_a = zip(*seen)
    k = np.array(k)
    return sum_b, sum_a, k[:, :6].ravel(), k[:, 6:].ravel()


_TI_SUM_B, _TI_SUM_A, _TI_SUM_PAIR, _TI_SUM_REST = map(
    np.array, _typeI_jac_table())
# rows 11 r + c of the (110, n) type I entries, for c < 6 and for c >= 6
_TI_PAIR_ROWS = (11 * np.arange(len(_TI_A))[:, None] + np.arange(6)).ravel()
_TI_REST_ROWS = (11 * np.arange(len(_TI_A))[:, None]
                 + np.arange(6, 10)).ravel()


class _ProbeSystem:
    """The systems [J | -f] of {12 trace equations, 4 type II, 10 type I}
    at one trace t, for each row of y, an (n, 10) array of the coordinates
    COORD_KEYS[1:]: the raw residuals f, ordered as trace_equation_residuals
    and typeII_residuals list them and then as tracealg._TYPEI_KEPT picks
    them from typeI_residuals, and their exact derivatives J. The six type
    I rows that stand for two relations are scaled by sqrt 2, f and J alike.

    Every equation has degree <= 3 and the s-coordinates are affine in y,
    so the type I derivatives are the cofactors of the 3x3 Gram minors
    mapped back onto the pair columns; each distinct cofactor is computed
    once (see _minor_table).

    The tables that depend on t alone (d st / dy in its type II and type I
    forms, s0, and the constant trace-equation entries) are computed once
    per t. A call on an (n, 10) array y writes the entries of its n systems
    into the first 286 n entries of a buffer the system owns, entry-major
    (entry e of all n rows is one contiguous run), and returns the
    (n, 26, 11) view of them. The buffer grows only when a call has more
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
        n, size = len(y), 11 * _EQS * len(y)
        if self._buf.size < size:
            self._buf = np.empty(size, dtype=complex)
        ent = self._buf[:size].reshape(11 * _EQS, n)  # entry 11 i + j of a row
        ent[_EQ_CONST] = self.eq_const
        ent[_EQ_ZERO] = 0
        self._trace_rows(y, ent)
        s = np.empty((n, 7), dtype=complex)
        s[:, 0] = self.s0
        np.subtract(y[:, :6], self.half_tt, out=s[:, 1:])
        st = (y[:, 6:] - self.half_t * y[:, _SHIFT_COLS].sum(axis=2)
              + self.half_t3)
        ent = ent.reshape(_EQS, 11, n)
        self._typeII_rows(s, st, ent[12:16])
        self._typeI_rows(s.T, st.T, ent[16:])
        ent[_TI_PAIRED:] *= _SQRT2
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
        """Rows 16..25, unweighted: the kept type I relations, from the 41
        minors of the entry-major (7, n) s-array s and (4, n) shifts st."""
        nm, n = len(_MINOR_OPS), s.shape[1]
        mx = np.empty((2 * nm + 1, n), dtype=complex)
        a, b, c, d = _MINOR_OPS.T
        np.subtract(s[a] * s[b], s[c] * s[d], out=mx[:nm])
        np.negative(mx[:nm], out=mx[nm:2 * nm])
        mx[2 * nm] = 0
        row, cof = s[_TI_ROW0], mx[_COF[:, 0, :]]       # (10, 3, n) each
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
        flat = ent.reshape(11 * len(_TI_A), n)
        flat[_TI_PAIR_ROWS] = pairs
        flat[_TI_REST_ROWS] = sums[_TI_SUM_REST]


# ---------------------------------------------------------------------------
# the Newton loop: working set, stop rules and step solve

#: the Newton loop's working set: at most this many starts are advanced
#: together as one array, and a start that stops hands its row to the next
#: unstarted one (each start's iterates do not depend on it). A row's
#: system [J | -f] takes 4576 bytes of the buffer that the call keeps, and
#: an iteration about 11.4 KB a row at its peak (that system,
#: np.linalg.qr's copy of it and the R of every row). Each iteration also
#: pays about 100 C-level calls whatever its width (numpy and builtins, as
#: counted by sys.setprofile); 128 rows spread them over more starts (41
#: iterations for the 200 starts of a call at a probe benchmark panel t,
#: 92 at width 32: the mean of the three panel t at seed 7), and the
#: probe benchmark ran 1.25-1.36x faster than at width 32 with 3% more
#: peak RSS (2-vCPU Xeon VM). One explore_solve(1.7421+0.3885j, 7, 200)
#: peaks at 1.60 MB of traced memory (numpy 2.4, Python 3.11);
#: test_probe_working_memory_is_bounded holds it under 2.06 MB.
_PROBE_BLOCK = 128

# Newton stop rules (see _newton_starts), on the max raw residual of a
# start over the unweighted rows (_max_residual)

#: iteration cap; a start still running then is judged on its best point
_NEWTON_ITERS = 100
#: converged: near the double-precision floor of the raw residuals, whose
#: roots have coordinates up to about 10 in modulus at |t| <= 2.5
_ROOT_TOL = 1e-13
#: the largest max residual accepted as a root: at a multiple root Newton
#: stalls above _ROOT_TOL, with coordinate error about sqrt(residual)
_STALL_TOL = 1e-9
#: below _STALL_TOL, a step that lowers the residual by less than this
#: factor has stalled: even at a double root Newton's residual falls about
#: 4-fold a step, so a smaller decrease is rounding noise
_STALL_RATIO = 0.7
#: a start still above _WANDER_RES after _WANDER_ITER iterations is given
#: up. Nearly all such starts have settled long before (see _SETTLE_STEP);
#: this is the backstop for the rare one that never settles
_WANDER_ITER = 50
_WANDER_RES = 1e-1
#: a start above _WANDER_RES whose step is at most this times
#: max(1, max|y|) has settled at a stationary point of |f|^2 that is not a
#: root, and is given up (MINPACK's x-convergence test, applied above the
#: root floor). Over 50,509 starts at 254 t (|t| < 6, and a few sampler
#: margins from every excluded t), 4,702 of the 4,847 starts given up at
#: _WANDER_ITER had settled so, at a median iteration of 17. No start that
#: converged took a step below 4.5e-5 relative while above _WANDER_RES,
#: 45 times this bound.
_SETTLE_STEP = 1e-6
#: a coordinate beyond this modulus has diverged: far outside every root
_DIVERGED = 1e8
#: the stall radius of multiple roots: a start whose step lands within this
#: max-norm distance of an exact catalog sample from inside _WANDER_RES
#: stops on that sample (see _newton_starts), which explore_solve returns
_SNAP_RADIUS = 1e-4
#: largest Frobenius condition number ||R||_F ||R^-1||_F of a step solved
#: from its QR factor, tested squared on the R^-1 of the back substitution:
#: kappa_2 <= kappa_F, so every singular value of such a system is far
#: above lstsq's cutoff and its step is unique (see _augmented_steps)
_QR_COND_MAX = 1e8


def _svd_steps(jac: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solutions of jac[k] x = rhs[k], by
    np.linalg.lstsq(rcond=None) one system at a time: singular values at
    most eps * max(jac shape) times the largest count as zero."""
    steps = np.empty(jac.shape[::2], dtype=np.result_type(jac, rhs))
    for k, (j, r) in enumerate(zip(jac, rhs)):
        steps[k] = np.linalg.lstsq(j, r, rcond=None)[0]
    return steps


def _augmented_steps(aug: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """The minimum-norm least-squares solutions of jac[i] x = rhs[i] that
    _svd_steps computes, for the systems aug[i] = [jac[i] | rhs[i]] of the
    (n, m, k + 1) stack aug, with m >= k and in any memory layout, that the
    (n,) bool mask keep selects; one row each, in order.

    One batched R-only QR of [jac | rhs] gives R and Q^H rhs for the whole
    stack: np.linalg.qr copies aug anyway, so it is passed unmasked, and
    the kept rows are selected from the small R. Each kept system is then
    solved at once by back substitution,
    R [X | x] = [I | Q^H rhs], from the last row up: X = R^-1 and
    x = R^-1 Q^H rhs. A system with
    ||R||_F^2 ||X||_F^2 <= _QR_COND_MAX^2, a Frobenius condition number at
    most _QR_COND_MAX, has full column rank, lstsq drops none of its
    singular values, and its unique solution is x (Golub & Van Loan, Matrix
    Computations, 5.3); back substitution is backward stable (Higham,
    Accuracy and Stability of Numerical Algorithms, ch. 8), so the two
    agree to about kappa * eps. Every other system (rank-deficient, where a
    zero diagonal of R makes X inf or nan, ill-conditioned, or with an X
    that overflows) is solved by _svd_steps, numpy's lstsq one system at a
    time; a row that keep drops never reaches it. For finite input no
    LinAlgError is raised. Each row's step is the same bytes whatever rows
    share its stack, kept or not.
    """
    k = aug.shape[2] - 1
    rows = np.flatnonzero(keep)
    n = rows.size
    r = np.linalg.qr(aug, mode="r")[rows]
    # contiguous: .view(float) refuses a strided view, and matmul on one
    # need not give the same bytes
    tri = r[:, :k, :k].copy()
    z = np.empty((n, k, k + 1), dtype=aug.dtype)   # [X | x]
    z[:, :, :k] = np.eye(k)
    z[:, :, k] = r[:, :k, k]
    del r
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for i in range(k - 1, -1, -1):
            z[:, i] -= np.matmul(tri[:, i:i + 1, i + 1:], z[:, i + 1:])[:, 0]
            z[:, i] /= tri[:, i, i:i + 1]     # * (1 / r_ii) rounds otherwise
        tf, xf = tri.view(float), z[:, :, :k].view(float)
        bad = ~(np.einsum("nij,nij->n", tf, tf)
                * np.einsum("nij,nij->n", xf, xf)
                <= _QR_COND_MAX ** 2)         # true for inf and nan
    steps = z[:, :, k].copy()
    if bad.any():
        steps[bad] = _svd_steps(aug[rows[bad], :, :k], aug[rows[bad], :, k])
    return steps


def _max_residual(aug: np.ndarray) -> np.ndarray:
    """Each system's max |f| over the unweighted rows of the (n, 26, 11)
    stack aug: its max over all 32 equations, up to rounding."""
    res = np.abs(aug[:, :, -1])
    res[:, _TI_PAIRED:] /= _SQRT2
    return res.max(axis=1)


def _newton_starts(t: complex, y: np.ndarray, samples: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Undamped Gauss-Newton from every start row of y (overwritten): each
    step is the minimum-norm least-squares solution of J dy = -f, solved by
    QR, or by numpy's lstsq for the rare ill-conditioned J (see
    _augmented_steps).

    At most _PROBE_BLOCK starts are live at a time, in start order; when a
    start stops or fails, or has taken _NEWTON_ITERS steps, the next
    unstarted one takes its row. An iteration builds the (n, 26, 11) stack
    [J | -f] of its n live rows (_ProbeSystem, whose per-t tables and
    buffer are made once per call), applies the stop rules, and solves the
    rows that go on, in order, from the unmasked stack (_augmented_steps
    drops the others after its QR, which copies the stack anyway); it then
    checks each step. Every rule reads a start's max |f| over the
    unweighted rows (_max_residual), which is its max over all 32
    equations up to rounding. A start stops when its max residual reaches
    _ROOT_TOL, stalls at or below _STALL_TOL (less than a _STALL_RATIO
    decrease), or is still above _WANDER_RES after _WANDER_ITER of its
    iterations. It also stops once its residual is above _WANDER_RES and
    its step at most _SETTLE_STEP times max(1, max|y|): settled at a
    stationary point of |f|^2 that is not a root, it would be given up at
    _WANDER_ITER anyway. It fails when a coordinate turns non-finite or
    exceeds _DIVERGED in modulus. A start whose last residual was at most
    _WANDER_RES and whose step takes it within _SNAP_RADIUS of a row of the
    (m, 10) array samples, in max norm, is in that sample's basin: it stops
    on the first such row before its next [J | -f] is built, and counts as
    converged. A start that never comes that near runs as it would with no
    samples; the step that ends a start's _NEWTON_ITERS is not tested, as
    no system follows it. Every rule reads only the start's own residual,
    step and y.
    Returns each start's lowest-residual iterate; whether it stopped on a
    sample or reached a residual of at most _STALL_TOL, without failure;
    and the (n,) index of the sample it stopped on, -1 if none.
    """
    n = len(y)
    best_y = y.copy()
    best_res = np.full(n, np.inf)
    prev = np.full(n, np.inf)
    failed = np.zeros(n, dtype=bool)
    on = np.full(n, -1)                       # the sample a start stopped on
    iters = np.zeros(n, dtype=int)            # iterations each start has taken
    live = np.arange(min(n, _PROBE_BLOCK))
    unstarted = live.size                     # the next start to take a row
    system = _ProbeSystem(t)
    with np.errstate(over="ignore", invalid="ignore"):
        while live.size:
            aug = system(y[live])
            fmax = _max_residual(aug)
            better = fmax < best_res[live]
            best_y[live[better]] = y[live[better]]
            best_res[live[better]] = fmax[better]
            stop = ((fmax <= _ROOT_TOL)
                    # stalled at the rounding floor of a multiple root
                    | ((fmax <= _STALL_TOL) & (fmax > _STALL_RATIO * prev[live]))
                    # wandering; basin unlikely
                    | ((iters[live] >= _WANDER_ITER) & (fmax > _WANDER_RES)))
            prev[live] = fmax
            keep = ~stop
            live = live[keep]
            steps = _augmented_steps(aug, keep)
            # settled above the root floor: stationary, but not at a root
            scale = np.maximum(np.abs(y[live]).max(axis=1), 1.0)
            settled = ((prev[live] > _WANDER_RES)
                       & (np.abs(steps).max(axis=1) <= _SETTLE_STEP * scale))
            y[live] += steps
            del steps
            moved = y[live]
            bad = (~np.isfinite(moved).all(axis=1)
                   | (np.abs(moved).max(axis=1) > _DIVERGED))
            failed[live[bad]] = True
            live = live[~(bad | settled)]
            iters[live] += 1
            live = live[iters[live] < _NEWTON_ITERS]
            if len(samples):              # argmax of an empty table raises
                basin = live[prev[live] <= _WANDER_RES]
                # its (b, m, 10) difference is the largest temporary, and
                # basin has at most _PROBE_BLOCK rows
                near = (np.abs(y[basin, None] - samples).max(axis=2)
                        <= _SNAP_RADIUS)
                hit = near.any(axis=1)
                on[basin[hit]] = near[hit].argmax(axis=1)
                live = live[on[live] < 0]
            refill = min(_PROBE_BLOCK - live.size, n - unstarted)
            live = np.concatenate(
                [live, np.arange(unstarted, unstarted + refill)])
            unstarted += refill
    return best_y, ~failed & ((on >= 0) | (best_res <= _STALL_TOL)), on
