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
one column per weight and one row per band slot. The band is that matrix
times the weights, one sparse product, and a factorization adds LAPACK's
``dpbtrf``. A held-set pass computes the terms of the unscaled P and A when
it runs, once per active-set solve or polish; the interior-point method
keeps the terms of its scaled P and A, which every iteration factors.

A handle takes new values in one form, ``update_values(qp)``: a QP of the
setup's P and A patterns, whose values pass the same checks as the
setup's. Nothing is factored until a solve.

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

scipy is imported where it is used, not with this module: each handle binds
LAPACK's ``dpbtrf`` and ``dpbtrs`` once when it is built, and the band
map's term matrix imports ``scipy.sparse``. A process that builds no handle
never loads scipy.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

import numpy as np

from .problem import INFTY, QpSolution, SolverSettings, SparseQP

if TYPE_CHECKING:
    import scipy.sparse as sp

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
    weights. A must store each (row, column) once: the pairs are generated
    in each row's column order, which a duplicate entry would break, so one
    raises ``ValueError`` naming A.
    """

    def __init__(self, P: sp.csc_matrix, A: sp.csc_matrix, by_row: np.ndarray,
                 row_ptr: np.ndarray):
        n, m = P.shape[1], A.shape[0]
        # A's entries grouped by row (``_entries_by_row(A)``): within a row
        # they run in column order, since CSC positions grow with the column.
        rows = A.indices[by_row].astype(np.intp)
        cols = _entry_cols(A)[by_row]
        same = (rows[1:] == rows[:-1]) & (cols[1:] == cols[:-1])
        if same.any():
            k = int(np.argmax(same))
            raise ValueError(f"A holds duplicate entries at ({rows[k]}, {cols[k]})")
        # Without duplicates the columns rise strictly within a row, so each
        # entry's lower-orientation partners are the entries of its row up to
        # itself: entry a, the k-th of its row, pairs with the first k + 1.
        reps = np.arange(rows.size) - row_ptr[rows] + 1
        a = np.repeat(np.arange(rows.size), reps)
        b = np.arange(a.size) - np.repeat(np.cumsum(reps) - reps - row_ptr[rows], reps)
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
        # these gathers run once per held-set solve or scaled value update.
        self.left, self.right = (v.astype(np.int32) for v in (self.left, self.right))

    def term_values(self, P_data: np.ndarray, A_data: np.ndarray) -> np.ndarray:
        """Every unweighted term for the given values of the two patterns,
        in the order of the term matrix's ``data``."""
        values = np.concatenate([A_data, P_data, [1.0]])
        return values[self.left] * values[self.right]

    def terms(self, P_data: np.ndarray, A_data: np.ndarray) -> sp.csc_matrix:
        """The term matrix: each unweighted term in its band slot's row and
        its weight's column. A matrix refreshed on every value update keeps
        its structure and takes new :meth:`term_values` as its ``data``,
        which skips the 20-50 us of format checks that building a scipy
        matrix costs."""
        import scipy.sparse as sp
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
    the ``QpSolution`` convention). Setup and every value update take the
    QP's values through one intake (:meth:`_take_values`): P and A must
    keep the setup's patterns (``SparseQP`` has rejected non-finite matrix
    or q values, NaN bounds and lo > hi when the QP was made). Duplicate
    entries of A raise at setup; a QP of at most 200 variables is then
    checked by ``SparseQP.validate`` (symmetric, positive semidefinite P).
    Single-threaded per handle.
    """

    def __init__(self, qp: SparseQP, settings: SolverSettings | None = None):
        # LAPACK's banded Cholesky routines themselves: scipy's
        # cholesky_banded wrapper adds about 7 us of argument handling to
        # each call.
        from scipy.linalg.lapack import dpbtrf, dpbtrs
        self._dpbtrf, self._dpbtrs = dpbtrf, dpbtrs
        self.settings = settings or SolverSettings()
        self.n = qp.n
        self.m = qp.m_c
        # The setup's patterns, whose values every update replaces.
        self._P = qp.P.tocsc(copy=True)
        self._A = qp.A.tocsc(copy=True)
        # A' kept beside A, built once: scipy builds a new matrix on every
        # ``A.T``, which at trot N = 75 costs twice the product itself. The
        # intake assigns A's new ``data`` to both.
        self._AT = self._A.T
        self._take_values(qp)
        if qp.n <= 200:
            qp.validate()
        self._P_cols = _entry_cols(self._P)
        self._A_cols = _entry_cols(self._A)
        # A's entries grouped by row, for the band map and the row maxima
        # of the interior-point method's equilibration.
        self._A_by_row = _entries_by_row(self._A)
        self._map = _BandMap(self._P, self._A, *self._A_by_row)
        self.half_bandwidth = self._map.half_bandwidth
        self.band_solves = 0

    def _take_values(self, qp: SparseQP) -> None:
        """Make ``qp``'s values the handle's; a QP whose patterns differ
        from the setup's leaves the handle as it was. ``SparseQP`` itself
        has checked the values."""
        P, A = qp.P.tocsc(), qp.A.tocsc()
        for name, M, setup in (("P", P, self._P), ("A", A, self._A)):
            if (M.shape != setup.shape or not np.array_equal(M.indptr, setup.indptr)
                    or not np.array_equal(M.indices, setup.indices)):
                raise ValueError(f"{name} sparsity pattern does not match the setup pattern")
        # Copies, which the caller's later writes to its arrays cannot reach;
        # infinite bounds become the sentinel.
        self._P.data = np.array(P.data, dtype=float)
        self._A.data = self._AT.data = np.array(A.data, dtype=float)
        self._q = qp.q.copy()
        self._lo, self._hi = np.clip(qp.lo, -INFTY, INFTY), np.clip(qp.hi, -INFTY, INFTY)

    def update_values(self, qp: SparseQP) -> None:
        """Take the values of ``qp``, a QP of the setup's P and A patterns;
        nothing is factored until a solve. Infinite bounds are legal."""
        self._take_values(qp)

    def _band_factor(self, terms: sp.csc_matrix, w: np.ndarray, shift: float) -> np.ndarray:
        """Banded Cholesky factor L of P + shift I + A' diag(w) A from the
        band map's ``terms`` of P and A, as a LAPACK lower band."""
        L, info = self._dpbtrf(self._map.band(terms, w, shift), lower=1, overwrite_ab=1)
        if info:
            raise ValueError(f"reduced KKT matrix is not positive definite (dpbtrf info {info})")
        return L

    def _band_solve(self, L: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve with a factor of :meth:`_band_factor`, on a copy of ``rhs``:
        LAPACK's ``dpbtrs`` sweeps L y = b, then L' x = y, the two ``dtbsv``
        calls in one. ``band_solves`` counts the calls."""
        self.band_solves += 1
        return self._dpbtrs(L, rhs, lower=1)[0]

    def _held_set_pass(self, terms: sp.csc_matrix, eq: np.ndarray, side: np.ndarray,
                       delta: float):
        """Solve the QP with the equality rows ``eq`` and the rows of
        ``side`` (-1 held at lo, +1 at hi, 0 free) pinned, and judge the
        result; ``terms`` is the band map's term matrix of the handle's P
        and A.

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
        L = self._band_factor(terms, w, delta)
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
        terms = self._map.terms(self._P.data, self._A.data)
        for passes in range(1, _MAX_PASSES + 1):
            try:
                x, y, Ax, pri, dua, pri_tol, dua_tol, wrong = self._held_set_pass(
                    terms, eq, side, _DIRECT_DELTA)
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
