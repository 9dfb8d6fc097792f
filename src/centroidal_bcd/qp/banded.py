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

The band is assembled through the band map of the QP's symbolic record
(:mod:`~centroidal_bcd.qp.pattern`), which a trajectory builder makes once
per plan and a QP from anywhere else gets at setup. Every lower-band entry
of A' W A is a sum of products A_ki A_kj over the rows k that hold both
columns, so the map lists each such pair of A entries (one orientation,
lower triangle) with its slot in the Fortran-ordered band, together with
P's lower entries and the diagonal. Listed row by row, then P, then the
diagonal, the terms are already grouped by their weight in [w, 1, shift]:
they are the ``data`` of a CSC matrix with one column per weight and one
row per band slot. The band is that matrix times the weights, one sparse
product, and a factorization adds LAPACK's ``dpbtrf``. A held-set pass
refreshes the handle's terms of the unscaled P and A when it runs, once per
active-set solve or polish; the interior-point method keeps the terms of
its scaled P and A, which every iteration factors.

A factorization that ``dpbtrf`` rejects is retried with the shift 100 times
larger, up to ``_MAX_SHIFT``, and w as it is; each attempt counts as a
factorization. The larger shift makes a step or pass inexact, not wrong:
both are judged on residuals of the unshifted data. No shipped solve needs
a retry; low-friction plans' late force solves can.

A handle holds references to the record's arrays and copies none. It takes
new values in one form, ``update_values(qp)``: a QP of the setup's P and A
patterns, whose values pass the same checks as the setup's. A builder's QP
holds the record's own index arrays, which the update recognizes by
identity; any other QP has its index arrays compared. Nothing is factored
until a solve.

A set of rows held at given values (equality rows plus inequality rows held
at one of their bounds) is solved as the delta-regularized KKT system with
weight w = 1/delta on the held rows and 0 elsewhere, refined against the
unregularized system, and judged on its unscaled residuals and the signs of
its multipliers (:meth:`BandedKkt._held_set_pass`). The interior-point
polish and each pass of the direct active-set solve are one such pass. The
polish refines a fixed three steps; a direct pass refines until the held
system's residual meets a target, with a cap and a stop once a step no
longer lowers it, the usual rule of iterative refinement (Higham,
"Iterative refinement for linear systems and LAPACK", IMA J. Numer. Anal.
17, 1997).

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
``_MAX_PASSES`` passes reports its status, which the caller raises.

scipy is imported where it is used, not with this module: each handle binds
LAPACK's ``dpbtrf`` and ``dpbtrs`` once when it is built, and the record
imports ``scipy.sparse`` where it makes a matrix. A process that builds no
handle never loads scipy, nor the record's module.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING

import numpy as np

from .problem import QpSolution, SolverSettings, SparseQP

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = ["BandedActiveSetSolver", "BandedKkt"]

_EQUALITY_GAP = 1e-12   # rows with hi - lo below this are equality rows
# Regularization of the direct solve's KKT system. Each refinement step
# shrinks the held system's residual by about delta / (delta + mu), mu the
# smallest eigenvalue of A_h P^-1 A_h', which a large proximal weight in P
# makes small, so a direct pass refines until that residual is at most
# _REFINE_TARGET times eps_abs (1e-10 at the default, which holds foothold
# copies together to about 1e-11), until a step no longer lowers it, or
# for _REFINE_CAP steps.
_DIRECT_DELTA = 1e-11
_REFINE_TARGET = 1e-3
_REFINE_CAP = 300       # about twice the most a pass has taken (142, at a weight of 1e8)
_REFINE_STEPS = 3       # refinement steps of the interior-point polish
_MAX_SHIFT = 1e-2       # the largest shift a failed factorization is retried with
_MAX_PASSES = 20


def _check_pattern(name: str, M: sp.csc_matrix, setup: sp.csc_matrix) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``M`` has the pattern of
    ``setup``."""
    if (M.shape != setup.shape or not np.array_equal(M.indptr, setup.indptr)
            or not np.array_equal(M.indices, setup.indices)):
        raise ValueError(f"{name} sparsity pattern does not match the setup pattern")


def _max_abs(v: np.ndarray) -> float:
    # The array method skips np.max's Python wrapper: half the time per call
    # on the interior-point method's vectors.
    return float(np.abs(v).max(initial=0.0))


def _wrongly_signed(y: np.ndarray, low: np.ndarray, upp: np.ndarray,
                    settings: SolverSettings) -> np.ndarray:
    """Mask of the held rows whose multiplier pulls against their bound: a
    row held at its lower bound needs y >= 0, one at its upper bound
    y <= 0, to within eps_abs + eps_rel max |y|. A wrongly signed row means
    the held set is not the solution's active set."""
    tol = settings.eps_abs + settings.eps_rel * _max_abs(y)
    return (low & (y < -tol)) | (upp & (y > tol))


class BandedKkt:
    """One QP's unscaled data, the band map of its reduced KKT matrices and
    their banded factorization.

    Multipliers follow the ``QpSolution`` convention, P x + q = A' y, inside
    a handle too, and infinite bounds stay +-inf. ``pattern`` is the QP's
    symbolic record (``QpPattern``), the builder's or one made at setup.
    Setup and every value update take the QP's values through one intake
    (:meth:`_take_values`): P and A must keep the setup's patterns
    (``SparseQP`` has rejected non-finite matrix or q values, NaN bounds and
    rows no x meets when the QP was made). Duplicate entries of A raise at
    setup; a QP of at most 200 variables is then checked by
    ``SparseQP.validate`` (symmetric, positive semidefinite P).
    Single-threaded per handle.
    """

    def __init__(self, qp: SparseQP, settings: SolverSettings | None = None):
        # LAPACK's banded Cholesky routines themselves: scipy's
        # cholesky_banded wrapper adds about 7 us of argument handling to
        # each call.
        from scipy.linalg.lapack import dpbtrf, dpbtrs

        from .pattern import QpPattern
        self._dpbtrf, self._dpbtrs = dpbtrf, dpbtrs
        self.settings = settings or SolverSettings()
        self.n = qp.n
        self.m = qp.m_c
        # The builder's record, or one built here from the QP's own
        # matrices; the handle's matrices hold its index arrays, and every
        # update replaces their values.
        self.pattern = pattern = (qp.pattern if qp.pattern is not None and qp.pattern.holds(qp)
                                  else QpPattern.of(qp))
        self._P = pattern.p_matrix(np.zeros(pattern.p_indices.size))
        self._A = pattern.a_matrix(np.zeros(pattern.nnz))
        # A' kept beside A, built once: scipy builds a new matrix on every
        # ``A.T``, which at trot N = 75 costs twice the product itself. The
        # two share one ``data`` array, which the intake writes in place.
        self._AT = self._A.T
        self._AT.data = self._A.data
        self._take_values(qp)
        if qp.n <= 200:
            qp.validate()
        self._map = pattern.band_map
        self.half_bandwidth = self._map.half_bandwidth
        self.band_solves = 0
        self._terms = None

    def _take_values(self, qp: SparseQP) -> None:
        """Make ``qp``'s values the handle's; a QP whose patterns differ
        from the setup's leaves the handle as it was. A QP of the handle's
        own record is recognized by identity (``QpPattern.holds``); any
        other has its index arrays compared. ``SparseQP`` itself has checked
        the values."""
        if self.pattern.holds(qp):
            P, A = qp.P, qp.A
        else:
            from .pattern import canonical
            P, A = canonical(qp.P), canonical(qp.A)
            _check_pattern("P", P, self._P)
            _check_pattern("A", A, self._A)
        # Copies into the handle's own arrays, which the caller's later
        # writes cannot reach.
        np.copyto(self._P.data, P.data)
        np.copyto(self._A.data, A.data)
        self._q, self._lo, self._hi = qp.q.copy(), qp.lo.copy(), qp.hi.copy()
        # One equality test for every solver: SparseQP leaves no row with
        # one infinity on both sides, so hi - lo is never inf - inf.
        self._is_eq = (self._hi - self._lo) < _EQUALITY_GAP

    def update_values(self, qp: SparseQP) -> None:
        """Take the values of ``qp``, a QP of the setup's P and A patterns;
        nothing is factored until a solve. Infinite bounds are legal."""
        self._take_values(qp)

    def _unscaled_terms(self) -> sp.csc_matrix:
        """The band map's term matrix of the handle's unscaled P and A, made
        on first use and refreshed in place on later calls."""
        if self._terms is None:
            self._terms = self._map.terms(self._P.data, self._A.data)
        else:
            self._map.term_values(self._P.data, self._A.data, out=self._terms.data)
        return self._terms

    def _band_factor(self, terms: sp.csc_matrix, w: np.ndarray,
                     shift: float) -> tuple[np.ndarray, int]:
        """Banded Cholesky factor L of P + shift I + A' diag(w) A from the
        band map's ``terms`` of P and A, as a LAPACK lower band, and the
        number of factorizations it took: one that fails is retried with the
        shift 100 times larger, up to ``_MAX_SHIFT``, and w as it is."""
        attempts = 1
        while True:
            L, info = self._dpbtrf(self._map.band(terms, w, shift), lower=1, overwrite_ab=1)
            if not info:
                return L, attempts
            shift *= 100.0
            if shift > _MAX_SHIFT:
                raise ValueError(
                    f"reduced KKT matrix is not positive definite (dpbtrf info {info})")
            attempts += 1

    def _band_solve(self, L: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """Solve with a factor of :meth:`_band_factor`, on a copy of ``rhs``:
        LAPACK's ``dpbtrs`` sweeps L y = b, then L' x = y, the two ``dtbsv``
        calls in one. ``band_solves`` counts the calls."""
        self.band_solves += 1
        return self._dpbtrs(L, rhs, lower=1)[0]

    def _held_set_pass(self, terms: sp.csc_matrix, eq: np.ndarray, side: np.ndarray,
                       delta: float, steps: int | None = None):
        """Solve the QP with the equality rows ``eq`` and the rows of
        ``side`` (-1 held at lo, +1 at hi, 0 free) pinned, and judge the
        result; ``terms`` is the band map's term matrix of the handle's P
        and A.

        One factorization of the delta-regularized KKT system and refinement
        steps against the unregularized one: with the multipliers
        eliminated, x solves
        (P + delta I + A_h' A_h / delta) x = -q + A_h' b / delta, and
        y_h = (b - A_h x) / delta; rows not held keep y = 0 and b = 0. It
        takes ``steps`` refinement steps, or without them at least one and
        then more until the held system's residual, the larger of
        |P x + q - A_h' y| and |b - A_h x|, is at most ``_REFINE_TARGET``
        times eps_abs, stops falling, or has taken ``_REFINE_CAP`` steps.
        Returns x, y, A x, the unscaled primal and dual residuals, their
        tolerances (eps_abs + eps_rel times the norms of their terms), the
        mask of the held rows whose multipliers have the wrong sign and the
        factorizations taken (:meth:`_band_factor`). Raises ``ValueError``
        when the matrix is not numerically positive definite at the largest
        shift."""
        P, A, AT, q, lo, hi = self._P, self._A, self._AT, self._q, self._lo, self._hi
        st = self.settings
        low, upp = side < 0, side > 0
        b = np.where(eq | low, lo, np.where(upp, hi, 0.0))
        w = np.where(eq | low | upp, 1.0 / delta, 0.0)
        L, attempts = self._band_factor(terms, w, delta)
        target = _REFINE_TARGET * st.eps_abs
        last = np.inf
        # Refinement from zero, whose residuals need no products: the first
        # step is the regularized solve itself.
        x, y = np.zeros(self.n), np.zeros(self.m)
        r_x, r_y = -q, w * b
        for step in range(1 + (_REFINE_CAP if steps is None else steps)):
            dx = self._band_solve(L, r_x + AT @ r_y)
            x = x + dx
            y = y - w * (A @ dx) + r_y
            Ax, Px, Aty = A @ x, P @ x, AT @ y
            r_x = -q - Px + Aty
            r_y = w * (b - Ax)
            if steps is None:
                # r_y is the held rows' residual times 1/delta.
                residual = max(_max_abs(r_x), delta * _max_abs(r_y))
                if step and (residual <= target or residual >= last):
                    break
                last = residual
        z = np.minimum(np.maximum(Ax, lo), hi)
        pri, dua = _max_abs(Ax - z), _max_abs(r_x)
        pri_tol = st.eps_abs + st.eps_rel * max(_max_abs(Ax), _max_abs(z))
        dua_tol = st.eps_abs + st.eps_rel * max(_max_abs(Px), _max_abs(Aty), _max_abs(q))
        return x, y, Ax, pri, dua, pri_tol, dua_tol, _wrongly_signed(y, low, upp, st), attempts


class BandedActiveSetSolver(BandedKkt):
    """Direct solver handle: a primal active-set method whose every pass is
    one banded factorization of the held-rows KKT system.

    ``working_set`` holds, per row, the bound an inequality row is held at
    (-1 lo, +1 hi, 0 free); each solve starts from it and an accepted solve
    leaves its own there. ``factorizations`` counts the passes'
    factorizations, retried ones once per attempt.
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
        P, q, lo, hi, eq = self._P, self._q, self._lo, self._hi, self._is_eq
        side = np.where(eq, 0, self.working_set).astype(np.int8)
        x, y = np.zeros(self.n), np.zeros(self.m)
        pri = dua = float("nan")
        status, passes = "max_iter", 0
        factored_before, solved_before = self.factorizations, self.band_solves
        terms = self._unscaled_terms()
        for passes in range(1, _MAX_PASSES + 1):
            try:
                x, y, Ax, pri, dua, pri_tol, dua_tol, wrong, attempts = self._held_set_pass(
                    terms, eq, side, _DIRECT_DELTA)
            except ValueError:
                status = "not_positive_definite"
                break
            self.factorizations += attempts
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
        return QpSolution(x=x, y=y, status=status, objective=objective, iterations=passes,
                          solve_time=time.perf_counter() - t0, primal_residual=pri,
                          dual_residual=dua, factorizations=self.factorizations - factored_before,
                          band_solves=self.band_solves - solved_before)
