"""Primal-dual interior-point solver for sparse QPs on banded KKT matrices.

Solves the canonical problem of :mod:`centroidal_bcd.qp.problem` by
Mehrotra's predictor-corrector method (Nocedal and Wright, *Numerical
Optimization*, section 16.6). Every finite bound of an inequality row is one
constraint g'x >= b with slack s >= 0 and multiplier lam >= 0 (g = a_i at a
lower bound, -a_i at an upper one); equality rows A_e x = b_e keep free
multipliers y_e. Multipliers follow the ``QpSolution`` convention
P x + q = A' y throughout: a row's y is lam at its lower bound, -lam at
its upper one, and y_e on an equality row. A step solves the primal-dual
regularized Newton system (Friedlander and Orban, Math. Prog. Comp. 2012)

    (P + delta I) dx - A_e' dy_e - G' dlam = -r_d
    A_e dx + delta dy_e                   = -r_e
    G dx + delta dlam - ds                = -r_g
    S dlam + Lam ds                       = -r_c

with delta = 1e-8. The regularization perturbs the Newton matrix, not the
residuals, so a fixed point of the iteration is an exact KKT point. With the
multipliers and slacks eliminated, dx solves

    (P + delta I + A' diag(W) A) dx = -r_d - A' u,

W = 1/delta on equality rows and lam / (s + delta lam) summed over each
inequality row's bounds. That is the matrix :mod:`~centroidal_bcd.qp.banded`
assembles and factors as a band; the predictor (r_c = s lam) and the
corrector (r_c = s lam + ds_aff dlam_aff - sigma mu, sigma = (mu_aff / mu)^3)
both solve with the one factor of their iteration, and a step goes 0.99 of
the way to the boundary of s, lam >= 0.

Past the factorization and its back-solves, an iteration's cost is mostly
numpy and scipy call overhead, the same at every size, so the iteration is
kept to few calls: the slacks and multipliers live in one array [s; lam],
which one step length and one update serve; the step length divides without
masks (:func:`_max_step`); each side's termination norms come from one
reduction. Every one of these leaves the iterates bitwise as they were.

The data are Ruiz-equilibrated (Ruiz, RAL-TR-2001-034, 2001) once per
handle, on the stored entries of P and A at setup: column and row maxima are
``np.maximum.at`` over each entry's column and row, and each round
multiplies the entries by their row and column factors, so no scaled matrix
is assembled.
Two rounds are run. Further rounds buy no iterations: on the 27 scenarios
of the benchmark's workloads at seeds 1-3 (one parameter perturbed by up to
0.1%), starting from x = 0, 10 rounds took 662 force iterations in all, 4
rounds 648, 3 rounds 615 and 2 rounds 603, while each round costs about
0.5 ms of the force handle's setup at trot N=300. One round is too few:
warm re-solves then no longer land on a fresh handle's solution to 1e-6. A
value update applies the setup's factors to the new data and does not
equilibrate again, so every solve of a handle iterates in the same scaled
coordinates.

Every solve starts by one rule, at a point (x, y_e, lam) in scaled units
(Yildirim and Wright, SIAM J. Optim. 2002): the slacks are measured as
G x - b on the current data, and the slacks and multipliers are floored at
1e-2. A warm solve starts at the last interior-point iterate of a solved
call, a cold one at the QP's start point ``SparseQP.x0`` (x = 0 when it has
none) with zero multipliers; no start step precedes the first iteration, so
``iterations`` counts predictor-corrector steps only. The force QP's start
point (the reference momentum, the weight shared among the active contacts)
brings its cold solves to 8 iterations at every trot horizon from N = 75 to
600, and to 4-11 over the shipped scenarios; from x = 0 the same solves take
15-46. (Mehrotra's heuristic, Nocedal and Wright section 16.6, which spent a
cold solve's first iteration on an affine-scaling step that raised every
slack and multiplier to at least 1, took 10 on trot and 6-13 over the
scenarios, and 181 force iterations over the scenarios and trot N=300 where
this rule takes 151.) A handle scales the start point with the rest of a
QP's values, at setup and on every value update, so a cold solve begins at
the start point of the latest QP. A solve starts cold after a call that did
not end ``solved``, and after a bound update that moves a row between the
equality and inequality sets or changes which of its bounds are finite.

A point is accepted on unscaled residuals: the primal and dual infinity
norms against eps_abs + eps_rel times the norms of their terms, and the
largest product of a multiplier with its bound distance against the smaller
of those two tolerances. A solve may loosen its optimality test (the
``optimality_rel`` of :meth:`InteriorPointSolver.solve`): the dual residual
and that product are then each held to eps_abs + optimality_rel times the
largest of |P x|, |A'y| and |q|, and the primal test stays. The block
descent solves its proximal force QPs so (1e-3): their iterates feed the
next contact solve and must be feasible, not optimal, and trot's middle
force solve then takes 2 iterations instead of 5. Such a solve's polish is
judged against its own residuals, and the next solve starts warm from its
iterate. Diverging multipliers that certify A'v = 0 with
lo'max(v, 0) + hi'min(v, 0) > 0, which no x within the bounds allows, end
the solve as ``primal_infeasible``; a Newton matrix that fails to factor
ends it as ``not_positive_definite``. There is no unboundedness
certificate: every QP the block descent builds is strictly convex, and a QP
that is unbounded below ends ``max_iter`` when its budget is spent.

Every solved call is polished on the detected active set: one held-set
pass of :mod:`~centroidal_bcd.qp.banded` at delta = 1e-7, refined three
steps. The polished point is kept only if neither residual exceeds the
larger of the interior point's residual and 1% of eps_abs, and every
multiplier pushes from the bound its row is held at. A handle whose polish
was rejected once (or whose polish factorization failed) polishes none of
its later solves. A rejected polish costs a factorization and four
back-solves and returns the interior point unchanged, and the solves of one
handle are rejected alike: over the shipped scenarios, trot at N = 75-600
and 27 perturbed scenarios, 57 polishes were skipped, of which one (trot
N = 75, final force solve) would have been accepted.

A solve after an accepted polish first runs the polish's pass on that
polish's held set, the hot start of active-set methods (Ferreau et al.,
qpOASES, Math. Prog. Comp. 2014). When both of its unscaled residuals are
at most 1% of eps_abs, the floor the polish rule holds polished points to,
and every held multiplier pushes from its bound, the solve returns the pass
after no iteration: one factorization and four back-solves. Otherwise the
interior point runs from the last iterate as above, and when it detects the
set just tried, the pass, which depends only on the set and the data, is
judged as its polish and not factored again. Stand and the jumps land their
final force solve this way; trot's second force solve at N = 60 and 75
misses (primal residual about 1e-6) and detects the same set. The tried set
is dropped with the warm start and after a rejected polish. Judging the
pass on the solve's own tolerances, as the direct solve does, took trot
N=300's warm solves to no iteration but raised its final cost by 2.2e-4
relative and its dynamics residual from 6e-15 to 7.5e-9.
"""

from __future__ import annotations

import time

import numpy as np

from .banded import _REFINE_STEPS, BandedKkt, _max_abs
from .problem import QpSolution, SolverSettings, SparseQP

__all__ = ["InteriorPointSolver"]

_DELTA = 1e-8              # primal and dual regularization of the Newton matrix
_TO_BOUNDARY = 0.99        # fraction of the step to the boundary of s, lam >= 0
_START_FLOOR = 1e-2        # floor of a start's slacks and multipliers (scaled)
_EPS_PRIM_INF = 1e-6       # infeasibility certificate tolerance
_RUIZ_ITERATIONS = 2
_POLISH_DELTA = 1e-7


def _group_max(values: np.ndarray, group: np.ndarray, count: int) -> np.ndarray:
    """Largest of ``values`` in each of ``count`` groups, ``group`` giving
    the group of each value; 0 for an empty group. ``values`` are
    nonnegative."""
    out = np.zeros(count)
    np.maximum.at(out, group, values)
    return out


def _guarded_inv_sqrt(norms: np.ndarray) -> np.ndarray:
    safe = np.where(norms > 1e-8, norms, 1.0)
    return np.clip(1.0 / np.sqrt(safe), 1e-4, 1e4)


def _max_abs_rows(M: np.ndarray) -> np.ndarray:
    """Largest magnitude in each row of ``M``; 0 for empty rows."""
    return np.abs(M).max(axis=1, initial=0.0)


def _max_step(v: np.ndarray, dv: np.ndarray) -> float:
    """Largest alpha <= 1 / _TO_BOUNDARY with v + alpha dv >= 0, for v > 0.

    No mask: an entry that shrinks by at least half of v gives its ratio
    v / -dv as it is, and every other entry gives v / (v / 2) = 2, which
    is past the cap (and past its own ratio, if it shrinks at all)."""
    return float((v / np.maximum(-dv, 0.5 * v)).min(initial=1.0 / _TO_BOUNDARY))


class InteriorPointSolver(BandedKkt):
    """Solver handle owning the scaled problem data; each iteration of a
    solve factors the regularized Newton matrix once.

    ``kkt_refactorizations`` counts those factorizations and
    ``polish_factorizations`` the polish passes', the tried held-set passes
    included, a retried factorization once per attempt; ``polish_rejected``
    tells whether a polish was rejected, after which the handle polishes no
    more solves. Single-threaded per handle: do not solve and update one
    handle concurrently. Distinct handles are independent.
    """

    def __init__(self, qp: SparseQP, settings: SolverSettings | None = None):
        super().__init__(qp, settings)
        self.kkt_refactorizations = 0
        self.polish_factorizations = 0
        # Set once a polish is rejected; later solves then skip the polish.
        self.polish_rejected = False
        # Scaled (x, y_eq, lam) of the last solved call, where the next
        # solve starts; None starts it cold, at the QP's start point.
        self._last = None
        # The held rows (-1 lo, +1 hi, 0 free) of the last accepted polish,
        # which the next solve tries first; None tries nothing.
        self._held = None
        self._scale()
        # The scaled matrices hold the record's index arrays, and are built
        # once (A' on A's ``data``), as is the term matrix of the scaled P
        # and A, which every iteration factors; a value update writes their
        # ``data`` in place.
        self._Ps = self.pattern.p_matrix(np.empty(self._P.data.size))
        self._As = self.pattern.a_matrix(np.empty(self._A.data.size))
        self._AsT = self._As.T
        self._AsT.data = self._As.data
        self._scale_values(qp)
        self._terms_s = self._map.terms(self._Ps.data, self._As.data)

    def update_values(self, qp: SparseQP) -> None:
        """:meth:`BandedKkt.update_values`, then the setup's equilibration
        scales the new values and the band terms of the scaled P and A."""
        super().update_values(qp)
        self._scale_values(qp)
        self._map.term_values(self._Ps.data, self._As.data, out=self._terms_s.data)

    # -- problem scaling -------------------------------------------------

    def _scale(self) -> None:
        """Ruiz equilibration, computed on the stored entries of P and A at
        setup.

        Each round scales the columns by the largest entries of [P; A], the
        rows by the largest entries of A, then the cost by its magnitude.
        """
        P, A, n, m = self._P, self._A, self.n, self.m
        # The row and column of every stored entry, as gather indices.
        p_rows, a_rows = P.indices.astype(np.intp), A.indices.astype(np.intp)
        p_cols = np.repeat(np.arange(n), np.diff(P.indptr))
        a_cols = np.repeat(np.arange(n), np.diff(A.indptr))
        self._d = np.ones(self.n)
        self._e = np.ones(self.m)
        self._c = 1.0
        # A's entries are scaled in place, through two buffers of their size.
        p, a, qb = P.data.copy(), A.data.copy(), self._q.copy()
        abs_a, scaled = np.empty_like(a), np.empty_like(a)
        for _ in range(_RUIZ_ITERATIONS):
            np.abs(a, out=abs_a)
            dx = _guarded_inv_sqrt(np.maximum(_group_max(np.abs(p), p_cols, n),
                                              _group_max(abs_a, a_cols, n)))
            dy = _guarded_inv_sqrt(_group_max(abs_a, a_rows, m))
            p = dx[p_rows] * p * dx[p_cols]
            qb = dx * qb
            np.take(dy, a_rows, out=scaled)
            scaled *= a
            scaled *= np.take(dx, a_cols, out=abs_a)
            a, scaled = scaled, a
            self._d *= dx
            self._e *= dy
            cost_norm = max(float(np.mean(_group_max(np.abs(p), p_cols, n))),
                            float(np.max(np.abs(qb), initial=0.0)))
            gamma = 1.0 / cost_norm if cost_norm > 1e-8 else 1.0
            p = p * gamma
            qb = qb * gamma
            self._c *= gamma
        # The factors each stored entry of P and A is scaled by, fixed from
        # here on.
        d, e = self._d, self._e
        self._p_factor = self._c * d[p_rows] * d[p_cols]
        self._a_factor = e[a_rows] * d[a_cols]

    def _scale_values(self, qp: SparseQP) -> None:
        """Scale P, A, q, the bounds and ``qp``'s start point (x = 0
        without one), where cold solves begin, by the setup's factors, and
        sort the rows into equality rows and the one-sided constraints
        g'x >= b of the finite inequality bounds. A new partition drops the
        warm start, whose multipliers and slacks belong to the old one."""
        d, e, lo, hi, is_eq = self._d, self._e, self._lo, self._hi, self._is_eq
        np.multiply(self._p_factor, self._P.data, out=self._Ps.data)
        np.multiply(self._a_factor, self._A.data, out=self._As.data)
        self._x0 = np.zeros(self.n) if qp.x0 is None else qp.x0 / d
        self._qs = self._c * d * self._q
        low = np.flatnonzero(~is_eq & np.isfinite(lo))
        upp = np.flatnonzero(~is_eq & np.isfinite(hi))
        eq = np.flatnonzero(is_eq)
        rows = np.concatenate([low, upp])
        sign = np.repeat([1.0, -1.0], [low.size, upp.size])
        if self._last is not None and not (np.array_equal(eq, self._eq)
                                           and np.array_equal(rows, self._rows)
                                           and np.array_equal(sign, self._sign)):
            self._last = self._held = None
        self._eq, self._rows, self._sign = eq, rows, sign
        self._b_eq = e[eq] * lo[eq]
        self._b = sign * e[rows] * np.concatenate([lo[low], hi[upp]])

    # -- iteration ---------------------------------------------------------

    def _row_sums(self, values: np.ndarray) -> np.ndarray:
        """Per row of A, the sum of ``values`` over its inequality bounds."""
        # bincount returns integers when its weights are empty.
        return np.bincount(self._rows, values, minlength=self.m).astype(float, copy=False)

    def _newton(self, factor, W, sign_W, v, neg_r_d, u_eq, r_g, r_c):
        """(dx, dv, A dx) of the regularized Newton system with
        complementarity residual ``r_c``, from the factor of its reduced
        matrix; v = [s; lam] and dv = [ds; dlam]. W holds each
        constraint's weight lam / (s + delta lam), ``sign_W`` its product
        with the constraint's sign; ``neg_r_d`` is -r_d and ``u_eq`` is
        r_e / delta."""
        p = W.size
        s, lam = v[:p], v[p:]
        t = W * (r_g + r_c / lam)
        u = self._row_sums(self._sign * t)
        u[self._eq] = u_eq
        dx = self._band_solve(factor, neg_r_d - self._AsT @ u)
        a_dx = self._As @ dx
        dv = np.empty(2 * p)
        ds, dlam = dv[:p], dv[p:]
        np.multiply(sign_W, a_dx[self._rows], out=dlam)
        np.add(dlam, t, out=dlam)
        np.negative(dlam, out=dlam)
        np.multiply(s, dlam, out=ds)
        np.add(ds, r_c, out=ds)
        np.divide(ds, lam, out=ds)
        np.negative(ds, out=ds)
        return dx, dv, a_dx

    def _direction(self, v, r_d, r_e, r_g):
        """Mehrotra's predictor-corrector direction (dx, dy_e, dv), and A dx,
        from one factorization of the reduced Newton matrix, where v and dv
        stack the slacks over the multipliers."""
        p = v.size // 2
        s, lam = v[:p], v[p:]
        W = lam / (s + _DELTA * lam)
        w = self._row_sums(W)
        w[self._eq] = 1.0 / _DELTA
        factor, attempts = self._band_factor(self._terms_s, w, _DELTA)
        self.kkt_refactorizations += attempts
        # Shared by the predictor and the corrector.
        sign_W, s_lam, neg_r_d, u_eq = self._sign * W, s * lam, -r_d, r_e / _DELTA
        dx, dv, a_dx = self._newton(factor, W, sign_W, v, neg_r_d, u_eq, r_g, s_lam)
        if p:
            alpha = min(1.0, _max_step(v, dv))
            mu = float(s_lam.sum()) / p
            end = v + alpha * dv
            sigma = (float(end[:p] @ end[p:]) / p / mu) ** 3
            r_c = dv[:p] * dv[p:]
            r_c += s_lam
            r_c -= sigma * mu
            dx, dv, a_dx = self._newton(factor, W, sign_W, v, neg_r_d, u_eq, r_g, r_c)
        return dx, -(a_dx[self._eq] + r_e) / _DELTA, dv, a_dx

    # -- certificates ------------------------------------------------------

    def _is_primal_infeasible(self, y_scaled, aty_norm: float) -> bool:
        """Whether v = y / |y| certifies infeasibility: A'v = 0 (``aty_norm``
        is the unscaled |A'y|), although every x within the bounds has
        v'A x >= lo'max(v, 0) + hi'min(v, 0) > 0. That bound needs v <= 0 on
        rows open below and v >= 0 on rows open above."""
        eps = _EPS_PRIM_INF
        y = self._e * y_scaled
        norm = _max_abs(y) / self._c
        if norm <= eps or aty_norm >= eps * norm:
            return False
        v = y / self._c / norm
        pos, neg = np.maximum(v, 0.0), np.minimum(v, 0.0)
        lo_inf, hi_inf = np.isinf(self._lo), np.isinf(self._hi)
        if np.any(pos[lo_inf] > eps) or np.any(neg[hi_inf] < -eps):
            return False
        support = float(self._lo[~lo_inf] @ pos[~lo_inf] + self._hi[~hi_inf] @ neg[~hi_inf])
        return support > eps

    # -- main solve --------------------------------------------------------

    def solve(self, optimality_rel: float | None = None) -> QpSolution:
        """Run predictor-corrector iterations to the configured tolerances
        within the configured iteration budget, starting from the last
        solved call's iterate when there is one; a handle whose last polish
        was accepted first tries that polish's held set, and returns its
        pass without iterating when the pass lands. ``iterations`` counts
        the predictor-corrector steps taken; exhaustion of the budget is
        reported through ``status``, never as a silent success.

        ``optimality_rel`` loosens this solve's optimality test: the dual
        residual and the complementarity are each held to eps_abs +
        ``optimality_rel`` times the largest of the unscaled |P x|, |A'y|
        and |q|, while the primal test stays as configured."""
        t0 = time.perf_counter()
        factored_before = self.kkt_refactorizations + self.polish_factorizations
        solved_before = self.band_solves
        tried = None
        if self._held is not None:
            tried = self._held, self._polish_pass(self._held)
            # Judged as a polish of an interior point with zero residuals:
            # both of its own at most 1% of eps_abs.
            if self._keeps(tried[1], 0.0, 0.0):
                x, y, pri, dua, _ = tried[1]
                return self._solution(x, y, "solved", 0, t0, True, pri, dua,
                                      factored_before, solved_before, warm=True)
        st = self.settings
        rows, sign, eq = self._rows, self._sign, self._eq
        e_inv, d_inv, c = 1.0 / self._e, 1.0 / self._d, self._c
        q_norm = _max_abs(d_inv * self._qs) / c
        p = self._b.size
        warm = self._last is not None
        # Every solve starts at (x, y_eq, lam): the last solved iterate, or
        # cold at the QP's start point with zero multipliers. The slacks are
        # measured there on the current data, and the slacks and multipliers
        # share one array v = [s; lam], floored off their boundary, so that
        # one step length and one update serve both.
        x, y_eq, lam = (self._last if warm else (self._x0, np.zeros(eq.size), np.zeros(p)))
        x, y_eq = x.copy(), y_eq.copy()
        v = np.concatenate([sign * (self._As @ x)[rows] - self._b, lam])
        np.maximum(v, _START_FLOOR, out=v)
        status = "max_iter"
        for iterations in range(st.max_iterations + 1):
            s, lam = v[:p], v[p:]
            # Row multipliers: lam at lower bounds, -lam at upper ones.
            y = self._row_sums(sign * lam)
            y[eq] = y_eq
            ax_s, px_s, aty_s = self._As @ x, self._Ps @ x, self._AsT @ y
            r_d = px_s + self._qs - aty_s
            r_e = ax_s[eq] - self._b_eq
            gap = sign * ax_s[rows] - self._b
            # Termination on the unscaled residuals; the norms of each side
            # come from one reduction over its stacked vectors.
            ax = e_inv * ax_s
            z = np.minimum(np.maximum(ax, self._lo), self._hi)
            pri, ax_norm, z_norm = _max_abs_rows(np.array([ax - z, ax, z])).tolist()
            dua, aty, px = (_max_abs_rows(d_inv * np.array([r_d, aty_s, px_s])) / c).tolist()
            pri_tol = st.eps_abs + st.eps_rel * max(ax_norm, z_norm)
            if optimality_rel is None:
                dua_tol = st.eps_abs + st.eps_rel * max(px, aty, q_norm)
                comp_tol = min(pri_tol, dua_tol)
            else:
                dua_tol = comp_tol = st.eps_abs + optimality_rel * max(px, aty, q_norm)
            comp = _max_abs(lam * gap) / c
            if pri <= pri_tol and dua <= dua_tol and comp <= comp_tol:
                status = "solved"
                break
            if self._is_primal_infeasible(y, aty):
                status = "primal_infeasible"
                break
            if iterations == st.max_iterations:
                break
            try:
                dx, dy_eq, dv, a_dx = self._direction(v, r_d, r_e, gap - s)
            except ValueError:
                status = "not_positive_definite"
                break
            alpha = _TO_BOUNDARY * _max_step(v, dv)
            x += alpha * dx
            y_eq += alpha * dy_eq
            v += alpha * dv
        self._last = (x, y_eq, lam) if status == "solved" else None
        x_out = self._d * x
        y_out = self._e * y / c
        polished = False
        if status == "solved" and self.m and not self.polish_rejected:
            x_out, y_out, polished = self._polish(x_out, y_out, z, pri, dua, tried)
            self.polish_rejected = not polished
        if not polished:
            self._held = None
        return self._solution(x_out, y_out, status, iterations, t0, polished, pri, dua,
                              factored_before, solved_before, warm=warm)

    def _solution(self, x, y, status, iterations, t0, polished, pri, dua,
                  factored_before, solved_before, *, warm) -> QpSolution:
        """The solve's result for (x, y), with the work done since the counts
        ``factored_before`` and ``solved_before``."""
        objective = float(0.5 * x @ (self._P @ x) + self._q @ x)
        factorizations = self.kkt_refactorizations + self.polish_factorizations - factored_before
        return QpSolution(x=x, y=y, status=status, objective=objective,
                          iterations=iterations, solve_time=time.perf_counter() - t0,
                          polished=polished, primal_residual=pri, dual_residual=dua,
                          warm_started=warm, factorizations=factorizations,
                          band_solves=self.band_solves - solved_before)

    # -- polish ------------------------------------------------------------

    def _polish_pass(self, side):
        """The polish's held-set pass with the equality rows and the rows
        of ``side`` held: (x, y, pri, dua, mask of wrongly signed rows), or
        None when its matrix does not factor."""
        try:
            x, y, _, pri, dua, _, _, wrong, attempts = self._held_set_pass(
                self._unscaled_terms(), self._is_eq, side, _POLISH_DELTA, _REFINE_STEPS)
        except ValueError:
            return None
        self.polish_factorizations += attempts
        return x, y, pri, dua, wrong

    def _polish(self, x, y, z, pri, dua, tried):
        """One held-set pass on the detected active set; keep its result
        only when it does not degrade the unscaled residuals ``pri`` and
        ``dua`` of (x, y) and its multipliers have the signs of the
        bounds they hold. ``tried`` is the held set this solve tried first
        and its pass, or None: the pass depends only on the set and the
        data, so a detected set equal to it reuses it unfactored. Returns
        (x, y, whether the polish was kept); a kept polish's held set is
        the one the next solve tries first."""
        eq = self._is_eq
        # A row is held at the bound its multiplier outweighs its distance to.
        side = np.zeros(self.m, dtype=np.int8)
        side[(z - self._lo < y) & ~eq] = -1
        side[(self._hi - z < -y) & ~eq] = 1
        if tried is not None and np.array_equal(side, tried[0]):
            result = tried[1]
        else:
            result = self._polish_pass(side)
        if not self._keeps(result, pri, dua):
            return x, y, False
        self._held = side
        return result[0], result[1], True

    def _keeps(self, result, pri, dua) -> bool:
        """Whether the polish pass ``result`` (None when it did not factor)
        is kept over an interior point of unscaled residuals ``pri`` and
        ``dua``."""
        if result is None:
            return False
        _, _, pri_pol, dua_pol, wrong = result
        # Both residuals must improve or stay below 1% of eps_abs; comparing
        # them jointly would let a mis-detected active set through whenever
        # the other residual is large. (Full Newton steps leave interior
        # points with linear residuals near 1e-15, which the refined polish
        # cannot match: trot's first force polish holds its equality rows to
        # 2.4e-10.)
        noise = 1e-2 * self.settings.eps_abs
        return pri_pol <= max(pri, noise) and dua_pol <= max(dua, noise) and not wrong.any()
