"""Operator-splitting (ADMM) solver for sparse QPs with factorization caching.

Solves the canonical problem of :mod:`centroidal_bcd.qp.problem` by iterating
the standard splitting (OSQP, Stellato et al. 2020)

    (P + sigma I + A' R A) x~ = sigma x - q + A' (R z - y),   z~ = A x~
    x+ = alpha x~ + (1 - alpha) x
    z+ = clamp(alpha z~ + (1 - alpha) z + y / rho, lo, hi)
    y+ = rho (alpha z~ + (1 - alpha) z + y / rho - z+)

with R = diag(rho), on Ruiz-equilibrated data with an adaptive penalty. This
is the quasi-definite KKT system [[P + sigma I, A'], [A, -R^-1]] with its
multiplier block eliminated: the reduced matrix S = P + sigma I + A' R A is
symmetric positive definite for sigma > 0 and rho > 0. Its band map and
banded Cholesky factorization, in the problem's own column order, are those
of :mod:`centroidal_bcd.qp.banded`: the ADMM step, the penalty updates and
the polish all factor through it. Value-only updates of q and the bounds
reuse the factorization; updates touching P or A values trigger exactly one
refactorization.

Both sweeps of the back-solve run on the right-hand side itself, and the
other vectors (x, rho z - y, the pre-projection vector, z and y) are updated
in place in work arrays allocated once per call, with the same formulas in
the same order as the plain iteration above.

Since a refactorization costs about ten iterations, the penalty adapts at
every termination check where the primal/dual balance ratio leaves
[1/2, 2] (OSQP's default band is [1/5, 5]).

The Ruiz equilibration runs once per handle, directly on the stored entries
of P and A: column and row maxima are segment reductions over the entry
arrays, and each round multiplies the entries by their row and column
factors, so no scaled matrix is assembled.

Every solved call is polished on the detected active set: the held-rows
solve of :mod:`~centroidal_bcd.qp.banded` at delta = 1e-7 with three
refinement steps, whose pattern lies inside that of S. The polished point is
kept only if its residuals do not grow and every multiplier pushes from the
bound its row is held at. (At delta = 1e-10 the first force polish of trot
and bound is rejected.)

The force QP is solved here. The contact QP goes to the direct solver of
:mod:`~centroidal_bcd.qp.banded` and reaches this solver only as a
fallback.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.linalg.blas import dtbsv

from .banded import _EQUALITY_GAP, BandedKkt, _entries_by_row, _wrongly_signed
from .problem import INFTY, QpSolution, SolverSettings, SparseQP

__all__ = ["AdmmSolver", "setup"]

_SIGMA = 1e-6          # primal regularization of the reduced matrix
_RHO_START = 0.1       # initial penalty
_RHO_EQ_FACTOR = 1e3   # stiffer penalty on equality rows
_RHO_MIN, _RHO_MAX = 1e-6, 1e6
_RHO_ADAPT_THRESHOLD = 2.0
_ALPHA = 1.6           # over-relaxation
_CHECK_TERMINATION_EVERY = 50
_EPS_PRIM_INF = 1e-6   # infeasibility certificate tolerances
_EPS_DUAL_INF = 1e-6
_RUIZ_ITERATIONS = 10
_POLISH_DELTA = 1e-7
_POLISH_REFINE_STEPS = 3


def _group_max(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Largest of ``values[indptr[i]:indptr[i + 1]]`` for every group i; 0
    for an empty group. ``values`` are nonnegative."""
    out = np.zeros(indptr.size - 1)
    nonempty = indptr[1:] > indptr[:-1]
    if values.size:
        out[nonempty] = np.maximum.reduceat(values, indptr[:-1][nonempty])
    return out


def _guarded_inv_sqrt(norms: np.ndarray) -> np.ndarray:
    safe = np.where(norms > 1e-8, norms, 1.0)
    return np.clip(1.0 / np.sqrt(safe), 1e-4, 1e4)


class AdmmSolver(BandedKkt):
    """Solver handle owning the scaled problem data and the banded Cholesky
    factor of the reduced KKT matrix.

    Single-threaded per handle: do not solve and update one handle
    concurrently. Distinct handles are independent.
    """

    def __init__(self, qp: SparseQP, settings: SolverSettings | None = None,
                 validate: bool | None = None):
        super().__init__(qp, settings, validate)
        self.kkt_refactorizations = 0
        self.polish_factorizations = 0
        self._scale()
        self._refresh_scaled_matrices()
        self._refresh_scaled_vectors()
        self._rho_base = _RHO_START
        self._build_rho()
        self._factorize()
        self._last_x: np.ndarray | None = None
        self._last_y: np.ndarray | None = None

    # -- problem scaling -------------------------------------------------

    def _scale(self) -> None:
        """Ruiz equilibration, computed on the stored entries of P and A.

        Each round scales the columns by the largest entries of [P; A], the
        rows by the largest entries of A, then the cost by its magnitude.
        """
        P, A = self._P, self._A
        # A's entries grouped by row, for the row maxima.
        by_row, row_ptr = _entries_by_row(A)
        self._d = np.ones(self.n)
        self._e = np.ones(self.m)
        self._c = 1.0
        p, a, qb = P.data.copy(), A.data.copy(), self._q.copy()
        for _ in range(_RUIZ_ITERATIONS):
            abs_a = np.abs(a)
            dx = _guarded_inv_sqrt(np.maximum(_group_max(np.abs(p), P.indptr),
                                              _group_max(abs_a, A.indptr)))
            dy = _guarded_inv_sqrt(_group_max(abs_a[by_row], row_ptr))
            p = dx[P.indices] * p * dx[self._P_cols]
            qb = dx * qb
            a = dy[A.indices] * a * dx[self._A_cols]
            self._d *= dx
            self._e *= dy
            cost_norm = max(float(np.mean(_group_max(np.abs(p), P.indptr))),
                            float(np.max(np.abs(qb), initial=0.0)))
            gamma = 1.0 / cost_norm if cost_norm > 1e-8 else 1.0
            p = p * gamma
            qb = qb * gamma
            self._c *= gamma

    def _refresh_scaled_matrices(self) -> None:
        """Scale P and A with the fixed equilibration computed at setup, and
        refresh the band map's terms of both the scaled and unscaled data."""
        d, e, c = self._d, self._e, self._c
        self._Ps = self._P.copy()
        self._Ps.data = c * d[self._P.indices] * d[self._P_cols] * self._P.data
        self._As = self._A.copy()
        if self.m:
            self._As.data = e[self._A.indices] * d[self._A_cols] * self._A.data
        self._AsT = self._As.T
        self._terms = self._map.terms(self._P.data, self._A.data)
        self._terms_s = self._map.terms(self._Ps.data, self._As.data)

    def _refresh_scaled_vectors(self) -> None:
        """Scale q and the bounds with the fixed equilibration."""
        d, e, c = self._d, self._e, self._c
        self._qs = c * d * self._q
        self._los = e * self._lo
        self._his = e * self._hi

    # -- penalty and reduced-matrix factorization ----------------------------

    def _build_rho(self) -> None:
        is_eq = (self._hi - self._lo) < _EQUALITY_GAP
        is_free = (self._lo <= -INFTY) & (self._hi >= INFTY)
        rho = np.full(self.m, self._rho_base)
        rho[is_eq] = np.clip(self._rho_base * _RHO_EQ_FACTOR, _RHO_MIN, _RHO_MAX)
        rho[is_free] = _RHO_MIN
        self._rho = rho
        self._rho_inv = 1.0 / rho if self.m else np.zeros(0)

    def _factorize(self) -> None:
        """Refactor the ADMM step's S = P + sigma I + A' R A (scaled data)."""
        self._chol = self._band_factor(self._terms_s, self._rho, _SIGMA)
        self.kkt_refactorizations += 1

    # -- value updates ----------------------------------------------------

    def update_values(self, new_q=None, new_lo=None, new_hi=None,
                      new_P_values=None, new_A_values=None) -> None:
        """Replace problem values without touching the sparsity pattern.

        q/lo/hi updates keep the cached factorization; P or A value updates
        refactorize once, immediately. Matrix values come as sparse matrices
        of the setup pattern or as raw ``data`` arrays of it. Non-finite
        matrix or q values and NaN bounds raise ``ValueError``; infinite
        bounds are legal.
        """
        needs_refactor = self._set_values(new_q, new_lo, new_hi, new_P_values, new_A_values)
        self._refresh_scaled_vectors()
        if needs_refactor:
            self._refresh_scaled_matrices()
            self._build_rho()
            self._factorize()

    def warm_start_point(self) -> tuple[np.ndarray, np.ndarray] | None:
        """Primal/dual pair of the previous solve, if any."""
        if self._last_x is None:
            return None
        return self._last_x.copy(), self._last_y.copy()

    # -- residual helpers --------------------------------------------------

    def _residuals(self, x, y, z):
        """Unscaled primal/dual residual norms plus the relative normalization
        terms for the termination test. Termination is always evaluated on the
        unscaled problem so that a solved status certifies true residuals."""
        Ax = self._As @ x
        rp = Ax - z
        rd = self._Ps @ x + self._qs + (self._AsT @ y if self.m else 0.0)
        e_inv = 1.0 / self._e if self.m else self._e
        d_inv = 1.0 / self._d
        pri = float(np.max(np.abs(e_inv * rp), initial=0.0))
        dua = float(np.max(np.abs(d_inv * rd), initial=0.0)) / self._c
        pri_norm = max(float(np.max(np.abs(e_inv * Ax), initial=0.0)),
                       float(np.max(np.abs(e_inv * z), initial=0.0)))
        dua_norm = max(float(np.max(np.abs(d_inv * (self._Ps @ x)), initial=0.0)),
                       float(np.max(np.abs(d_inv * (self._AsT @ y)), initial=0.0))
                       if self.m else 0.0,
                       float(np.max(np.abs(d_inv * self._qs), initial=0.0))) / self._c
        return pri, dua, pri_norm, dua_norm

    def _is_primal_infeasible(self, dy_scaled) -> bool:
        eps = _EPS_PRIM_INF
        dy = self._e * dy_scaled / self._c
        norm = float(np.max(np.abs(dy), initial=0.0))
        if norm <= eps:
            return False
        v = dy / norm
        pos, neg = np.maximum(v, 0.0), np.minimum(v, 0.0)
        hi_inf = self._hi >= INFTY
        lo_inf = self._lo <= -INFTY
        if np.any(pos[hi_inf] > eps) or np.any(neg[lo_inf] < -eps):
            return False
        support = float(self._hi[~hi_inf] @ pos[~hi_inf] + self._lo[~lo_inf] @ neg[~lo_inf])
        if support >= -eps:
            return False
        return float(np.max(np.abs(self._A.T @ v), initial=0.0)) < eps

    def _is_dual_infeasible(self, dx_scaled) -> bool:
        eps = _EPS_DUAL_INF
        dx = self._d * dx_scaled
        norm = float(np.max(np.abs(dx), initial=0.0))
        if norm <= eps:
            return False
        v = dx / norm
        if self._q @ v >= -eps:
            return False
        if float(np.max(np.abs(self._P @ v), initial=0.0)) >= eps:
            return False
        Av = self._A @ v if self.m else np.zeros(0)
        hi_fin = self._hi < INFTY
        lo_fin = self._lo > -INFTY
        if np.any(Av[hi_fin] > eps) or np.any(Av[lo_fin] < -eps):
            return False
        return True

    # -- main solve --------------------------------------------------------

    def solve(self, warm_start: tuple | None = None) -> QpSolution:
        """Run ADMM to the configured tolerances within the configured
        iteration budget.

        ``warm_start`` is an (x, y) pair in solution coordinates (the
        QpSolution dual convention). Exhaustion of the budget is reported
        through ``status``, never as a silent success.
        """
        t0 = time.perf_counter()
        st = self.settings
        n, m = self.n, self.m
        if warm_start is not None:
            x0, y0 = warm_start
            x = np.asarray(x0, dtype=float) / self._d
            y = -self._c * np.asarray(y0, dtype=float) / self._e if m else np.zeros(0)
            z = self._As @ x if m else np.zeros(0)
        else:
            x = np.zeros(n)
            z = np.zeros(m)
            y = np.zeros(m)
        As, AsT, qs, k = self._As, self._AsT, self._qs, self.half_bandwidth
        rho, rho_inv, (L, reversed_t) = self._rho, self._rho_inv, self._chol
        rhs, x_prev, y_prev = np.empty(n), np.empty(n), np.empty(m)
        v, zc = np.empty(m), np.empty(m)
        rho_updates = 0
        status = "max_iter"
        iterations = st.max_iterations
        for it in range(1, st.max_iterations + 1):
            check = it % _CHECK_TERMINATION_EVERY == 0 or it == st.max_iterations
            if check:
                np.copyto(x_prev, x)
                np.copyto(y_prev, y)
            # rhs = sigma x - q + A' (rho z - y)
            np.multiply(x, _SIGMA, out=rhs)
            rhs -= qs
            if m:
                np.multiply(rho, z, out=v)
                v -= y
                rhs += AsT @ v
            x_tilde = dtbsv(k, L, rhs, lower=1, overwrite_x=1)
            x_tilde = dtbsv(k, reversed_t, x_tilde, incx=-1, lower=1, overwrite_x=1)
            z_tilde = As @ x_tilde if m else None
            # x = alpha x~ + (1 - alpha) x
            x_tilde *= _ALPHA
            x *= 1.0 - _ALPHA
            x += x_tilde
            if m:
                # zc = alpha z~ + (1 - alpha) z + y / rho, z = clamp(zc),
                # y = rho (zc - z); np.minimum/np.maximum in place of np.clip,
                # without its per-call dispatch overhead.
                z_tilde *= _ALPHA
                np.multiply(z, 1.0 - _ALPHA, out=zc)
                zc += z_tilde
                np.multiply(rho_inv, y, out=z_tilde)
                zc += z_tilde
                np.maximum(zc, self._los, out=z)
                np.minimum(z, self._his, out=z)
                np.subtract(zc, z, out=y)
                y *= rho
            if check:
                pri, dua, pri_norm, dua_norm = self._residuals(x, y, z)
                if (pri <= st.eps_abs + st.eps_rel * pri_norm
                        and dua <= st.eps_abs + st.eps_rel * dua_norm):
                    status, iterations = "solved", it
                    break
                if m and self._is_primal_infeasible(y - y_prev):
                    status, iterations = "primal_infeasible", it
                    break
                if self._is_dual_infeasible(x - x_prev):
                    status, iterations = "dual_infeasible", it
                    break
                if m and self._maybe_adapt_rho(pri, dua, pri_norm, dua_norm):
                    rho, rho_inv, (L, reversed_t) = self._rho, self._rho_inv, self._chol
                    rho_updates += 1
        x_out = self._d * x
        y_int = self._e * y / self._c if m else np.zeros(0)
        polished = False
        if status == "solved":
            if m:
                x_out, y_int, polished = self._polish(x_out, y_int, z / self._e)
            self._last_x, self._last_y = x_out.copy(), -y_int
        objective = float(0.5 * x_out @ (self._P @ x_out) + self._q @ x_out)
        return QpSolution(x=x_out, y=-y_int, status=status, objective=objective,
                          iterations=iterations, solve_time=time.perf_counter() - t0,
                          polished=polished, rho_updates=rho_updates,
                          primal_residual=pri, dual_residual=dua)

    def _maybe_adapt_rho(self, pri, dua, pri_norm, dua_norm) -> bool:
        """Rescale the penalty by the primal/dual balance ratio, and
        refactorize, when that ratio leaves the adaptation band."""
        num = pri / max(pri_norm, 1e-12)
        den = dua / max(dua_norm, 1e-12)
        if den <= 0.0 or num <= 0.0:
            return False
        ratio = np.sqrt(num / den)
        if 1.0 / _RHO_ADAPT_THRESHOLD <= ratio <= _RHO_ADAPT_THRESHOLD:
            return False
        self._rho_base = float(np.clip(self._rho_base * ratio, _RHO_MIN, _RHO_MAX))
        self._build_rho()
        self._factorize()
        return True

    # -- polish ------------------------------------------------------------

    def _polish(self, x, y_int, z):
        """Solve the reduced KKT system on the detected active set; keep the
        result only when it does not degrade the unscaled residuals and its
        multipliers have the signs of the bounds they hold."""
        eq = (self._hi - self._lo) < _EQUALITY_GAP
        low = (z - self._lo < -y_int) & ~eq
        upp = (self._hi - z < y_int) & ~eq
        act = eq | low | upp
        b = np.where(eq | low, self._lo, self._hi)
        try:
            x_pol, y_pol = self._held_rows_solve(act, b, _POLISH_DELTA, _POLISH_REFINE_STEPS)
        except ValueError:
            return x, y_int, False
        self.polish_factorizations += 1
        z_pol = self._A @ x_pol
        pri_pol = float(np.max(np.maximum(self._lo - z_pol, z_pol - self._hi), initial=0.0))
        dua_pol = float(np.max(np.abs(self._P @ x_pol + self._q + self._A.T @ y_pol),
                               initial=0.0))
        z_cur = self._A @ x
        pri_cur = float(np.max(np.maximum(self._lo - z_cur, z_cur - self._hi), initial=0.0))
        dua_cur = float(np.max(np.abs(self._P @ x + self._q + self._A.T @ y_int), initial=0.0))
        # Both residuals must improve (or stay at noise level); comparing them
        # jointly would let a mis-detected active set through whenever the
        # other residual is large.
        if (pri_pol <= max(pri_cur, 1e-10) and dua_pol <= max(dua_cur, 1e-10)
                and not _wrongly_signed(y_pol, low, upp, self.settings).any()):
            return x_pol, y_pol, True
        return x, y_int, False


def setup(qp: SparseQP, settings: SolverSettings | None = None,
          validate: bool | None = None) -> AdmmSolver:
    """Create a solver handle with a cached factorization for ``qp``."""
    return AdmmSolver(qp, settings, validate=validate)
