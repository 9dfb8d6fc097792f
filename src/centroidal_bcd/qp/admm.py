"""Operator-splitting (ADMM) solver for sparse QPs with factorization caching.

Solves the canonical problem of :mod:`centroidal_bcd.qp.problem` by iterating
the standard splitting (OSQP, Stellato et al. 2020)

    (P + sigma I + A' R A) x~ = sigma x - q + A' (R z - y),   z~ = A x~
    x+ = alpha x~ + (1 - alpha) x
    z+ = clamp(alpha z~ + (1 - alpha) z + y / rho, lo, hi)
    y+ = rho (alpha z~ + (1 - alpha) z + y / rho - z+)

with R = diag(rho). This is the quasi-definite KKT system
[[P + sigma I, A'], [A, -R^-1]] with its multiplier block eliminated: the
reduced matrix S = P + sigma I + A' R A is symmetric positive definite for
sigma > 0 and rho > 0, so it has a Cholesky factor. Its sparsity pattern is
fixed per handle; a reverse Cuthill-McKee ordering of that pattern, computed
once at setup, turns S into a band matrix, which is factored and back-solved
with LAPACK's banded Cholesky routines. The force QP is local in time (every
constraint row couples at most two consecutive timesteps), so its band stays
narrow however long the horizon; the contact QP's phase footholds couple
whole phases and widen its band. Value-only updates of q and the bounds
reuse the factorization; updates touching P or A values trigger exactly one
refactorization. Optional Ruiz equilibration and a post-solve polish step
(reduced KKT solve on the detected active set) sharpen the returned solution.
"""

from __future__ import annotations

import time
from dataclasses import replace

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import LinAlgError, cholesky_banded
from scipy.linalg.lapack import dpbtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee

from .problem import INFTY, QpSolution, SolverSettings, SparseQP

__all__ = ["AdmmSolver", "setup"]

_SIGMA = 1e-6          # primal regularization of the reduced matrix
_RHO_START = 0.1       # initial penalty
_RHO_EQ_FACTOR = 1e3   # stiffer penalty on equality rows
_RHO_MIN, _RHO_MAX = 1e-6, 1e6
_RHO_ADAPT_THRESHOLD = 5.0
_ALPHA = 1.6           # over-relaxation
_RUIZ_ITERATIONS = 10
_POLISH_DELTA = 1e-7
_POLISH_REFINE_STEPS = 3


def _colmax_abs(M: sp.csc_matrix) -> np.ndarray:
    out = np.asarray(abs(M).max(axis=0).todense()).ravel() if M.nnz else np.zeros(M.shape[1])
    return out if out.size == M.shape[1] else np.zeros(M.shape[1])


def _rowmax_abs(M: sp.csc_matrix) -> np.ndarray:
    out = np.asarray(abs(M).max(axis=1).todense()).ravel() if M.nnz else np.zeros(M.shape[0])
    return out if out.size == M.shape[0] else np.zeros(M.shape[0])


def _guarded_inv_sqrt(norms: np.ndarray) -> np.ndarray:
    safe = np.where(norms > 1e-8, norms, 1.0)
    return np.clip(1.0 / np.sqrt(safe), 1e-4, 1e4)


def _entry_cols(M: sp.csc_matrix) -> np.ndarray:
    """Column index of every stored entry of a CSC matrix."""
    return np.repeat(np.arange(M.shape[1]), np.diff(M.indptr))


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


class AdmmSolver:
    """Solver handle owning the scaled problem data and the banded Cholesky
    factor of the reduced KKT matrix.

    Single-threaded per handle: do not solve and update one handle
    concurrently. Distinct handles are independent.
    """

    def __init__(self, qp: SparseQP, settings: SolverSettings | None = None,
                 validate: bool | None = None):
        self.settings = settings or SolverSettings()
        if validate is None:
            validate = qp.n <= 200
        if validate:
            qp.validate()
        self.n = qp.n
        self.m = qp.m_c
        self._P = qp.P.tocsc(copy=True)
        self._A = qp.A.tocsc(copy=True)
        _finite(self._P.data, "P")
        _finite(self._A.data, "A")
        self._q = _finite(qp.q, "q")
        self._lo = _bound(qp.lo, "lo")
        self._hi = _bound(qp.hi, "hi")
        self._P_cols = _entry_cols(self._P)
        self._A_cols = _entry_cols(self._A)
        self.kkt_refactorizations = 0
        self.polish_factorizations = 0
        self._order_reduced_matrix()
        self._scale()
        self._rho_base = _RHO_START
        self._build_rho()
        self._factorize()
        self._last_x: np.ndarray | None = None
        self._last_y: np.ndarray | None = None

    # -- problem scaling -------------------------------------------------

    def _scale(self) -> None:
        n, m = self.n, self.m
        self._d = np.ones(n)
        self._e = np.ones(m)
        self._c = 1.0
        if self.settings.scaled_termination:
            Pb = self._P.copy()
            Ab = self._A.copy()
            qb = self._q.copy()
            for _ in range(_RUIZ_ITERATIONS):
                col_norm = np.maximum(_colmax_abs(Pb), _colmax_abs(Ab))
                dx = _guarded_inv_sqrt(col_norm)
                dy = _guarded_inv_sqrt(_rowmax_abs(Ab)) if m else np.ones(0)
                Dx = sp.diags(dx)
                Pb = (Dx @ Pb @ Dx).tocsc()
                qb = dx * qb
                if m:
                    Ab = (sp.diags(dy) @ Ab @ Dx).tocsc()
                self._d *= dx
                self._e *= dy
                cost_norm = max(float(np.mean(_colmax_abs(Pb))),
                                float(np.max(np.abs(qb), initial=0.0)))
                gamma = 1.0 / cost_norm if cost_norm > 1e-8 else 1.0
                Pb = Pb * gamma
                qb = qb * gamma
                self._c *= gamma
        self._refresh_scaled_values()

    def _refresh_scaled_values(self) -> None:
        """Recompute scaled problem data from the unscaled data and the fixed
        equilibration computed at setup."""
        d, e, c = self._d, self._e, self._c
        self._Ps = self._P.copy()
        self._Ps.data = c * d[self._P.indices] * d[self._P_cols] * self._P.data
        self._As = self._A.copy()
        if self.m:
            self._As.data = e[self._A.indices] * d[self._A_cols] * self._A.data
        self._AsT = self._As.T
        self._qs = c * d * self._q
        self._los = e * self._lo
        self._his = e * self._hi

    # -- penalty and reduced-matrix factorization ----------------------------

    def _build_rho(self) -> None:
        is_eq = (self._hi - self._lo) < 1e-14
        is_free = (self._lo <= -INFTY) & (self._hi >= INFTY)
        rho = np.full(self.m, self._rho_base)
        rho[is_eq] = np.clip(self._rho_base * _RHO_EQ_FACTOR, _RHO_MIN, _RHO_MAX)
        rho[is_free] = _RHO_MIN
        self._rho = rho
        self._rho_inv = 1.0 / rho if self.m else np.zeros(0)

    def _order_reduced_matrix(self) -> None:
        """Fix the band layout of S = P + sigma I + A' R A. Its pattern
        depends only on the patterns of P and A, so one reverse Cuthill-McKee
        ordering serves every refactorization of this handle."""
        P, A = (sp.csc_matrix((np.ones(M.nnz), M.indices, M.indptr), shape=M.shape)
                for M in (self._P, self._A))
        pattern = (P + A.T @ A + sp.eye(self.n)).tocsr()
        # Native index width: gathers with int32 indices cost twice as much.
        self._perm = reverse_cuthill_mckee(pattern, symmetric_mode=True).astype(np.intp)
        self._iperm = np.empty_like(self._perm)
        self._iperm[self._perm] = np.arange(self.n)
        coo = pattern.tocoo()
        self.half_bandwidth = int(np.max(self._iperm[coo.row] - self._iperm[coo.col],
                                         initial=0))

    def _factorize(self) -> None:
        """Assemble S in the RCM order as a lower band and factor it."""
        if self.m:
            S = (self._Ps + self._AsT @ (sp.diags(self._rho) @ self._As)).tocsc()
        else:
            S = self._Ps.copy()
        S.sum_duplicates()
        i, j = self._iperm[S.indices], self._iperm[_entry_cols(S)]
        lower = i >= j
        band = np.zeros((self.half_bandwidth + 1, self.n))
        band[i[lower] - j[lower], j[lower]] = S.data[lower]
        band[0] += _SIGMA
        try:
            self._chol = cholesky_banded(band, overwrite_ab=True, lower=True)
        except LinAlgError as exc:
            raise ValueError(f"reduced KKT matrix is not positive definite: {exc}") from exc
        self.kkt_refactorizations += 1

    def _solve_reduced(self, rhs: np.ndarray) -> np.ndarray:
        """S^-1 rhs through the cached banded factor."""
        sol, info = dpbtrs(self._chol, rhs[self._perm], lower=1)
        if info:
            raise ValueError(f"banded back-solve failed (LAPACK info {info})")
        return sol[self._iperm]

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

    def update_values(self, new_q=None, new_lo=None, new_hi=None,
                      new_P_values=None, new_A_values=None) -> None:
        """Replace problem values without touching the sparsity pattern.

        q/lo/hi updates keep the cached factorization; P or A value updates
        refactorize once, immediately. Matrix values come as sparse matrices
        of the setup pattern or as raw ``data`` arrays of it. Non-finite
        matrix or q values and NaN bounds raise ``ValueError``; infinite
        bounds are legal.
        """
        needs_refactor = False
        if new_P_values is not None:
            self._P.data = self._extract_values(new_P_values, self._P, "P")
            needs_refactor = True
        if new_A_values is not None:
            self._A.data = self._extract_values(new_A_values, self._A, "A")
            needs_refactor = True
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
        self._refresh_scaled_values()
        if needs_refactor:
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
        eps = self.settings.eps_prim_inf
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
        eps = self.settings.eps_dual_inf
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

    def solve(self, warm_start: tuple | None = None,
              max_iterations: int | None = None) -> QpSolution:
        """Run ADMM to the configured tolerances.

        ``warm_start`` is an (x, y) pair in solution coordinates (the
        QpSolution dual convention). ``max_iterations`` overrides the
        configured budget for this call. Exhaustion of the budget is reported
        through ``status``, never as a silent success.
        """
        t0 = time.perf_counter()
        st = self.settings
        if max_iterations is not None:
            st = replace(st, max_iterations=max_iterations)
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
        rho, rho_inv = self._rho, self._rho_inv
        status = "max_iter"
        iterations = st.max_iterations
        for it in range(1, st.max_iterations + 1):
            x_prev, y_prev = x, y
            rhs = _SIGMA * x - self._qs
            if m:
                rhs += self._AsT @ (rho * z - y)
            x_tilde = self._solve_reduced(rhs)
            x = _ALPHA * x_tilde + (1.0 - _ALPHA) * x
            if m:
                z_tilde = self._As @ x_tilde
                zc = _ALPHA * z_tilde + (1.0 - _ALPHA) * z + rho_inv * y
                # Same as np.clip, without its per-call dispatch overhead.
                z = np.minimum(np.maximum(zc, self._los), self._his)
                y = rho * (zc - z)
            if it % st.check_termination_every == 0 or it == st.max_iterations:
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
                if st.adaptive_penalty and m:
                    self._maybe_adapt_rho(pri, dua, pri_norm, dua_norm)
                    rho, rho_inv = self._rho, self._rho_inv
        x_out = self._d * x
        y_int = self._e * y / self._c if m else np.zeros(0)
        polished = False
        if status == "solved":
            if st.polish and m:
                x_out, y_int, polished = self._polish(x_out, y_int, z / self._e if m else z)
            self._last_x, self._last_y = x_out.copy(), -y_int
        objective = float(0.5 * x_out @ (self._P @ x_out) + self._q @ x_out)
        return QpSolution(x=x_out, y=-y_int, status=status, objective=objective,
                          iterations=iterations, solve_time=time.perf_counter() - t0,
                          polished=polished)

    def _maybe_adapt_rho(self, pri, dua, pri_norm, dua_norm) -> None:
        num = pri / max(pri_norm, 1e-12)
        den = dua / max(dua_norm, 1e-12)
        if den <= 0.0 or num <= 0.0:
            return
        ratio = np.sqrt(num / den)
        if ratio > _RHO_ADAPT_THRESHOLD or ratio < 1.0 / _RHO_ADAPT_THRESHOLD:
            self._rho_base = float(np.clip(self._rho_base * ratio, _RHO_MIN, _RHO_MAX))
            self._build_rho()
            self._factorize()

    # -- polish ------------------------------------------------------------

    def _polish(self, x, y_int, z):
        """Solve the reduced KKT system on the detected active set; keep the
        result only when it does not degrade the unscaled residuals."""
        n = self.n
        eq = (self._hi - self._lo) < 1e-12
        low = (z - self._lo < -y_int) & ~eq
        upp = (self._hi - z < y_int) & ~eq
        act = np.flatnonzero(eq | low | upp)
        bounds = np.where(eq | low, self._lo, self._hi)[act]
        A_csr = self._A.tocsr()
        Ared = A_csr[act]
        n_act = act.size
        kred = sp.bmat([[self._P + _POLISH_DELTA * sp.eye(n), Ared.T],
                        [Ared, -_POLISH_DELTA * sp.eye(n_act)]], format="csc") \
            if n_act else (self._P + _POLISH_DELTA * sp.eye(n, format="csc")).tocsc()
        try:
            lu = spla.splu(kred)
        except RuntimeError:
            return x, y_int, False
        self.polish_factorizations += 1
        rhs = np.concatenate([-self._q, bounds])
        sol = lu.solve(rhs)
        if _POLISH_REFINE_STEPS and n_act:
            k_exact = sp.bmat([[self._P, Ared.T], [Ared, None]], format="csc")
            for _ in range(_POLISH_REFINE_STEPS):
                sol = sol + lu.solve(rhs - k_exact @ sol)
        x_pol = sol[:n]
        y_pol = np.zeros(self.m)
        y_pol[act] = sol[n:]
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
        if pri_pol <= max(pri_cur, 1e-10) and dua_pol <= max(dua_cur, 1e-10):
            return x_pol, y_pol, True
        return x, y_int, False


def setup(qp: SparseQP, settings: SolverSettings | None = None,
          validate: bool | None = None) -> AdmmSolver:
    """Create a solver handle with a cached factorization for ``qp``."""
    return AdmmSolver(qp, settings, validate=validate)
