"""Banded KKT machinery shared by the QP solvers, and a direct active-set
solver built on it.

Both solvers (this one and the interior-point method of
:mod:`~centroidal_bcd.qp.ipm`) factor matrices of the form
P + shift I + A' diag(w) A: the quasi-definite KKT system
[[P + shift I, A'], [A, -diag(1/w)]] with its
multiplier block eliminated, symmetric positive definite for shift > 0 and
w >= 0. It is factored as a band matrix in the problem's own column order
with LAPACK's banded Cholesky routine. Both trajectory QPs are local in time
(every constraint row couples at most two consecutive timesteps) and their
builders lay each timestep's pairs out before its state, which bands both at
24 however long the horizon; that stage-wise layout is the classic band
structure of time-structured QPs (Rao, Wright and Rawlings, JOTA 1998). The
band is held in LAPACK lower storage and factored as L L'; a back-solve is
one ``dpbtrs`` call on the factor itself, a sweep with L and a transposed
one with L'. (Upper storage would run both sweeps down the band's columns,
but ``dpbtrf`` then feeds its rank-one updates strided vectors, which
OpenBLAS sends through its threaded path: with two BLAS threads one
factorization at n = 9,072 took 13-15 ms instead of 1.2 ms.)

The band is assembled through a map built once per handle from the patterns
of P and A. Every lower-band entry of A' W A is a sum of products A_ki A_kj
over the rows k that hold both columns, so the map lists each such pair of
A entries (one orientation, lower triangle) with its row and its slot in the
Fortran-ordered band, together with P's lower entries and the diagonal.
Listed row by row, then P, then the diagonal, the terms are already grouped
by their weight in [w, 1, shift]: they are the ``data`` of a CSC matrix with
one column per weight and one row per band slot. Its values are refreshed
only when P or A values change; the band is then that matrix times the
weights, one sparse product, and a factorization adds LAPACK's ``dpbtrf``.

A set of rows held at given values (equality rows plus inequality rows held
at one of their bounds) is solved as the delta-regularized KKT system with
weight w = 1/delta on the held rows and 0 elsewhere, refined against the
unregularized system, and judged on its unscaled residuals and the signs of
its multipliers (:meth:`BandedKkt._held_set_pass`). The interior-point
polish and each pass of the direct active-set solve are one such pass.

:class:`BandedActiveSetSolver` is a primal active-set method on that solve
(Nocedal and Wright, *Numerical Optimization*, section 16.5): each pass
solves with the equality rows and the working set held, accepts when the
unscaled residuals meet the solver tolerances and every multiplier pushes
from the bound its row is held at, and otherwise adds the violated
inequality rows and drops the rows whose multipliers have the wrong sign.
Each solve starts from the previous accepted working set, as warm-started
active-set methods do on sequences of related QPs (Ferreau et al., qpOASES,
Math. Prog. Comp. 2014). It runs no scaling and keeps no factorization
between passes. It suits QPs whose working set is small and changes little
between solves, such as the contact QP, whose only active rows are its
equality rows on the shipped scenarios; a solve that is not accepted within
ten passes reports so, and the caller falls back to the interior-point
method.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
from scipy.linalg.lapack import dpbtrf, dpbtrs

from .problem import INFTY, QpSolution, SolverSettings, SparseQP

__all__ = ["BandedActiveSetSolver", "BandedKkt"]

_EQUALITY_GAP = 1e-12   # rows with hi - lo below this are equality rows
# Regularization of the direct solve's KKT system. Each refinement step
# shrinks the held rows' residual by about delta / (delta + mu), mu the
# smallest eigenvalue of A_h P^-1 A_h', which a large proximal weight in P
# makes small: at 1e-10, three steps leave bound's third contact QP with
# foothold copies 1.3e-8 apart; at 1e-11, 1.4e-11.
_DIRECT_DELTA = 1e-11
_REFINE_STEPS = 3       # refinement steps of every held-set pass
_MAX_PASSES = 10


def _entry_cols(M: sp.csc_matrix) -> np.ndarray:
    """Column index of every stored entry of a CSC matrix."""
    return np.repeat(np.arange(M.shape[1]), np.diff(M.indptr))


def _entries_by_row(M: sp.csc_matrix) -> tuple[np.ndarray, np.ndarray]:
    """Positions of a CSC matrix's stored entries grouped by row (stable),
    and the start of each row's group (with the total as a last element)."""
    order = np.argsort(M.indices, kind="stable")
    row_ptr = np.zeros(M.shape[0] + 1, dtype=np.intp)
    np.cumsum(np.bincount(M.indices, minlength=M.shape[0]), out=row_ptr[1:])
    return order, row_ptr


def _finite(values, name: str) -> np.ndarray:
    """``values`` as a flat float array; NaN or inf raise, naming ``name``."""
    v = np.array(values, dtype=float).reshape(-1)
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} holds non-finite values")
    return v


def _bound(values, name: str) -> np.ndarray:
    """Row bounds as a flat float array with infinities clipped to the
    sentinel; NaN raises, naming ``name``."""
    v = np.asarray(values, dtype=float).reshape(-1)
    if np.any(np.isnan(v)):
        raise ValueError(f"{name} holds NaN")
    return np.clip(v, -INFTY, INFTY)


def _max_abs(v: np.ndarray) -> float:
    # The array method skips np.max's Python wrapper: half the time per call
    # on the interior-point method's vectors.
    return float(np.abs(v).max(initial=0.0))


def _wrongly_signed(y: np.ndarray, low: np.ndarray, upp: np.ndarray,
                    settings: SolverSettings) -> np.ndarray:
    """Mask of the held rows whose multiplier pulls against their bound: in
    the handles' sign convention a row held at its lower bound needs
    y <= 0, one at its upper bound y >= 0, to within eps_abs + eps_rel
    max |y|. A wrongly signed row means the held set is not the solution's
    active set."""
    tol = settings.eps_abs + settings.eps_rel * _max_abs(y)
    return (low & (y > tol)) | (upp & (y < -tol))


class _BandMap:
    """Where every term of P + shift I + A' diag(w) A lands in its lower
    band, for fixed patterns of P and A, in the problem's own column order.

    A term is the product of two stored values of ``[A.data, P.data, 1]``,
    weighted by one of ``[w, 1, shift]``: a pair of A entries sharing a row
    k of A (in the lower-triangle orientation only) with weight w_k, a lower
    entry of P times 1 with weight 1, or 1 times 1 on the diagonal with
    weight shift. The band is LAPACK lower storage in Fortran order, so band
    entry (i - j, j) sits at flat position j (bandwidth + 1) + i - j, the
    half-bandwidth being the largest i - j among the terms.

    The terms are listed by weight (A's rows in order, then P, then the
    diagonal), which makes them the ``data`` of a CSC matrix with one column
    per weight and one row per band slot: the band is that matrix times the
    weights.
    """

    def __init__(self, P: sp.csc_matrix, A: sp.csc_matrix, by_row: np.ndarray,
                 row_ptr: np.ndarray):
        n, m = P.shape[1], A.shape[0]
        # A's entries grouped by row (``_entries_by_row(A)``); each entry
        # pairs with every entry of its row (itself included), the lower
        # orientation kept.
        rows = A.indices[by_row].astype(np.intp)
        cols = _entry_cols(A)[by_row]
        reps = np.diff(row_ptr)[rows]
        a = np.repeat(np.arange(rows.size), reps)
        b = np.arange(a.size) - np.repeat(np.cumsum(reps) - reps - row_ptr[rows], reps)
        lower = cols[a] >= cols[b]
        a, b = a[lower], b[lower]
        p_rows, p_cols = P.indices, _entry_cols(P)
        p_lower = np.flatnonzero(p_rows >= p_cols)
        # Indices into [A.data, P.data, 1], and the column of each term's
        # weight in [w, 1, shift]: nondecreasing, since the A pairs run
        # through A's rows in order.
        one, diagonal = A.nnz + P.nnz, np.arange(n)
        self.left = np.concatenate([by_row[a], A.nnz + p_lower, np.full(n, one)])
        self.right = np.concatenate([by_row[b], np.full(p_lower.size + n, one)])
        weight = np.concatenate([rows[a], np.full(p_lower.size, m), np.full(n, m + 1)])
        i = np.concatenate([cols[a], p_rows[p_lower], diagonal])
        j = np.concatenate([cols[b], p_cols[p_lower], diagonal])
        self.half_bandwidth = int(np.max(i - j, initial=0))
        width = self.half_bandwidth + 1
        self.n, self.shape = n, (n * width, m + 2)
        self.slot = (j * width + (i - j)).astype(np.int32)
        self.indptr = np.zeros(m + 3, dtype=np.int32)
        np.cumsum(np.bincount(weight, minlength=m + 2), out=self.indptr[1:])
        # Half-width term indices: the map is most of a handle's memory, and
        # these gathers run only when P or A values change.
        self.left, self.right = (v.astype(np.int32) for v in (self.left, self.right))

    def term_values(self, P_data: np.ndarray, A_data: np.ndarray) -> np.ndarray:
        """Every unweighted term for the given values of the two patterns,
        in the order of the term matrix's ``data``."""
        values = np.concatenate([A_data, P_data, [1.0]])
        return values[self.left] * values[self.right]

    def terms(self, P_data: np.ndarray, A_data: np.ndarray) -> sp.csc_matrix:
        """The term matrix: each unweighted term in its band slot's row and
        its weight's column. It is built once per handle; a value update
        assigns new :meth:`term_values` to its ``data``, which skips the
        20-50 us of format checks that building a scipy matrix costs."""
        return sp.csc_matrix((self.term_values(P_data, A_data), self.slot, self.indptr),
                             shape=self.shape)

    def band(self, terms: sp.csc_matrix, w: np.ndarray, shift: float) -> np.ndarray:
        """The lower band of P + shift I + A' diag(w) A, Fortran-ordered."""
        band = terms @ np.concatenate([w, [1.0, shift]])
        return band.reshape(self.n, -1).T


class BandedKkt:
    """One QP's unscaled data, the band map of its reduced KKT matrices and
    their banded factorization.

    Multipliers inside a handle follow P x + q + A' y = 0 (the negative of
    the ``QpSolution`` convention). Non-finite matrix or q values and NaN
    bounds raise ``ValueError`` naming the field; a QP of at most 200
    variables is then checked by ``SparseQP.validate`` (symmetric,
    positive semidefinite P). Single-threaded per handle.
    """

    def __init__(self, qp: SparseQP, settings: SolverSettings | None = None):
        self.settings = settings or SolverSettings()
        self.n = qp.n
        self.m = qp.m_c
        self._P = qp.P.tocsc(copy=True)
        self._A = qp.A.tocsc(copy=True)
        # A' kept beside A (refreshed with its values): scipy builds a new
        # matrix on every ``A.T``, which at trot N = 75 costs twice the
        # product itself.
        self._AT = self._A.T
        _finite(self._P.data, "P")
        _finite(self._A.data, "A")
        self._q = _finite(qp.q, "q")
        self._lo = _bound(qp.lo, "lo")
        self._hi = _bound(qp.hi, "hi")
        if qp.n <= 200:
            qp.validate()
        self._P_cols = _entry_cols(self._P)
        self._A_cols = _entry_cols(self._A)
        # A's entries grouped by row, for the band map and the row maxima
        # of the interior-point method's equilibration.
        self._A_by_row = _entries_by_row(self._A)
        self._map = _BandMap(self._P, self._A, *self._A_by_row)
        self._terms = self._map.terms(self._P.data, self._A.data)
        self.half_bandwidth = self._map.half_bandwidth
        self.band_solves = 0

    def _band_factor(self, terms: sp.csc_matrix, w: np.ndarray, shift: float) -> np.ndarray:
        """Banded Cholesky factor L of P + shift I + A' diag(w) A from the
        band map's ``terms`` of P and A, as a LAPACK lower band."""
        # LAPACK's dpbtrf itself: scipy's cholesky_banded wrapper adds about
        # 7 us of argument handling to each call.
        L, info = dpbtrf(self._map.band(terms, w, shift), lower=1, overwrite_ab=1)
        if info:
            raise ValueError(f"reduced KKT matrix is not positive definite (dpbtrf info {info})")
        return L

    def _band_solve(self, L: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve with a factor of :meth:`_band_factor`, on a copy of ``rhs``:
        LAPACK's ``dpbtrs`` sweeps L y = b, then L' x = y, the two ``dtbsv``
        calls in one. ``band_solves`` counts the calls."""
        self.band_solves += 1
        return dpbtrs(L, rhs, lower=1)[0]

    def _held_set_pass(self, eq: np.ndarray, side: np.ndarray, delta: float):
        """Solve the QP with the equality rows ``eq`` and the rows of
        ``side`` (-1 held at lo, +1 at hi, 0 free) pinned, and judge the
        result.

        One factorization of the delta-regularized KKT system and
        ``_REFINE_STEPS`` refinement steps against the unregularized one:
        with the multipliers eliminated, x solves
        (P + delta I + A_h' A_h / delta) x = -q + A_h' b / delta, and
        y_h = (A_h x - b) / delta; rows not held keep y = 0. Returns x, y,
        A x, the unscaled primal and dual residuals, their tolerances
        (eps_abs + eps_rel times the norms of their terms) and the mask of
        the held rows whose multipliers have the wrong sign. Raises
        ``ValueError`` when the matrix is not numerically positive
        definite."""
        P, A, AT, q, lo, hi = self._P, self._A, self._AT, self._q, self._lo, self._hi
        st = self.settings
        low, upp = side < 0, side > 0
        b = np.where(eq | low, lo, hi)
        w = np.where(eq | low | upp, 1.0 / delta, 0.0)
        L = self._band_factor(self._terms, w, delta)
        # Refinement from zero, whose residuals need no products: the first
        # step is the regularized solve itself.
        x, y = np.zeros(self.n), np.zeros(self.m)
        r_x, r_y = -q, w * b
        for step in range(1 + _REFINE_STEPS):
            if step:
                r_x = -q - P @ x - AT @ y
                r_y = w * (b - A @ x)
            dx = self._band_solve(L, r_x + AT @ r_y)
            x = x + dx
            y = y + w * (A @ dx) - r_y
        Ax, Px, Aty = A @ x, P @ x, AT @ y
        z = np.minimum(np.maximum(Ax, lo), hi)
        pri, dua = _max_abs(Ax - z), _max_abs(Px + q + Aty)
        pri_tol = st.eps_abs + st.eps_rel * max(_max_abs(Ax), _max_abs(z))
        dua_tol = st.eps_abs + st.eps_rel * max(_max_abs(Px), _max_abs(Aty), _max_abs(q))
        return x, y, Ax, pri, dua, pri_tol, dua_tol, _wrongly_signed(y, low, upp, st)

    # -- value updates ----------------------------------------------------

    @staticmethod
    def _extract_values(new_values, reference: sp.csc_matrix, name: str) -> np.ndarray:
        """Values of ``new_values`` in the order of ``reference.data``. A
        sparse matrix must repeat the setup pattern; a raw array is taken as
        the ``data`` of that pattern."""
        if sp.issparse(new_values):
            M = new_values.tocsc()
            if (M.shape != reference.shape
                    or not np.array_equal(M.indptr, reference.indptr)
                    or not np.array_equal(M.indices, reference.indices)):
                raise ValueError(f"{name} sparsity pattern does not match the setup pattern")
            new_values = M.data
        data = _finite(new_values, name)
        if data.shape != reference.data.shape:
            raise ValueError(f"{name} has {data.size} values, pattern holds {reference.nnz}")
        return data

    def update_values(self, new_q=None, new_lo=None, new_hi=None, new_P_values=None,
                      new_A_values=None) -> None:
        """Replace problem values without touching the sparsity pattern;
        nothing is factored until a solve. Matrix values come as sparse
        matrices of the setup pattern or as raw ``data`` arrays of it.
        Non-finite matrix or q values and NaN bounds raise ``ValueError``;
        infinite bounds are legal."""
        if new_P_values is not None:
            self._P.data = self._extract_values(new_P_values, self._P, "P")
        if new_A_values is not None:
            self._A.data = self._extract_values(new_A_values, self._A, "A")
            self._AT = self._A.T
        if new_q is not None:
            q = _finite(new_q, "q")
            if q.shape != (self.n,):
                raise ValueError("q length mismatch")
            self._q = q
        if new_lo is not None:
            self._lo = _bound(new_lo, "lo")
        if new_hi is not None:
            self._hi = _bound(new_hi, "hi")
        if self._lo.shape != (self.m,) or self._hi.shape != (self.m,):
            raise ValueError("bound length mismatch")
        if np.any(self._lo > self._hi):
            raise ValueError("lo > hi after update")
        if new_P_values is not None or new_A_values is not None:
            self._terms.data = self._map.term_values(self._P.data, self._A.data)


class BandedActiveSetSolver(BandedKkt):
    """Direct solver handle: a primal active-set method whose every pass is
    one banded factorization of the held-rows KKT system.

    ``working_set`` holds, per row, the bound an inequality row is held at
    (-1 lo, +1 hi, 0 free); each solve starts from it and an accepted solve
    leaves its own there. ``factorizations`` counts the passes that factored.
    """

    def __init__(self, qp: SparseQP, settings: SolverSettings | None = None):
        super().__init__(qp, settings)
        self.working_set = np.zeros(self.m, dtype=np.int8)
        self.factorizations = 0

    def solve(self) -> QpSolution:
        """Run active-set passes until one is accepted or ``_MAX_PASSES`` are
        spent. The status is ``solved``, ``max_iter`` (pass cap),
        ``stalled`` (a pass left the working set unchanged) or
        ``not_positive_definite`` (a factorization failed); ``iterations``
        counts the passes."""
        t0 = time.perf_counter()
        P, q, lo, hi = self._P, self._q, self._lo, self._hi
        eq = (hi - lo) < _EQUALITY_GAP
        side = np.where(eq, 0, self.working_set).astype(np.int8)
        x, y = np.zeros(self.n), np.zeros(self.m)
        pri = dua = float("nan")
        status, passes = "max_iter", 0
        factored_before, solved_before = self.factorizations, self.band_solves
        for passes in range(1, _MAX_PASSES + 1):
            try:
                x, y, Ax, pri, dua, pri_tol, dua_tol, wrong = self._held_set_pass(
                    eq, side, _DIRECT_DELTA)
            except ValueError:
                status = "not_positive_definite"
                break
            self.factorizations += 1
            if pri <= pri_tol and dua <= dua_tol and not wrong.any():
                status = "solved"
                self.working_set = side
                break
            update = side.copy()
            update[wrong] = 0
            update[~eq & (lo - Ax > pri_tol)] = -1
            update[~eq & (Ax - hi > pri_tol)] = 1
            if np.array_equal(update, side):
                status = "stalled"
                break
            side = update
        objective = float(0.5 * x @ (P @ x) + q @ x)
        return QpSolution(x=x, y=-y, status=status, objective=objective, iterations=passes,
                          solve_time=time.perf_counter() - t0, primal_residual=pri,
                          dual_residual=dua, factorizations=self.factorizations - factored_before,
                          band_solves=self.band_solves - solved_before)
