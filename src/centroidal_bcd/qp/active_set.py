"""Dense active-set solver for strictly convex QPs.

Independent reference implementation used to cross-check the banded
interior-point and active-set backends on desk-scale problems: a textbook
primal active-set method working directly on dense KKT systems, plus a
literal active-set enumeration for very small instances. Both speak the same
canonical form as :class:`~centroidal_bcd.qp.problem.SparseQP` and use the
same dual sign convention (P x + q = A' y).
"""

from __future__ import annotations

import itertools

import numpy as np

from .problem import INFTY, SparseQP

__all__ = ["solve_active_set", "solve_enumeration"]

_FEAS_TOL = 1e-9
_ZERO_STEP = 1e-11


def _dense(qp: SparseQP):
    P = qp.P.toarray()
    A = qp.A.toarray() if qp.m_c else np.zeros((0, qp.n))
    lo = np.clip(qp.lo, -INFTY, INFTY)
    hi = np.clip(qp.hi, -INFTY, INFTY)
    return P, np.asarray(qp.q, dtype=float), A, lo, hi


def _feasible_point(A, lo, hi):
    """Phase-I LP: minimize the uniform bound slack."""
    from scipy.optimize import linprog

    m, n = A.shape
    if m == 0:
        return np.zeros(n)
    rows, rhs = [], []
    for i in range(m):
        if hi[i] < INFTY:
            rows.append(np.append(A[i], -1.0))
            rhs.append(hi[i])
        if lo[i] > -INFTY:
            rows.append(np.append(-A[i], -1.0))
            rhs.append(-lo[i])
    c = np.zeros(n + 1)
    c[-1] = 1.0
    bounds = [(None, None)] * n + [(0.0, None)]
    res = linprog(c, A_ub=np.array(rows), b_ub=np.array(rhs), bounds=bounds, method="highs")
    if not res.success or res.x[-1] > 1e-7:
        raise ValueError("no feasible point found for the active-set oracle")
    return res.x[:n]


def _eqp(P, q, A_w, b_w):
    """Equality-constrained QP by one dense KKT solve: returns (x, lambda)."""
    n = P.shape[0]
    k = A_w.shape[0]
    K = np.zeros((n + k, n + k))
    K[:n, :n] = P
    if k:
        K[:n, n:] = A_w.T
        K[n:, :n] = A_w
    rhs = np.concatenate([-q, b_w])
    try:
        sol = np.linalg.solve(K, rhs)
    except np.linalg.LinAlgError:
        sol, *_ = np.linalg.lstsq(K, rhs, rcond=None)
    return sol[:n], sol[n:]


def solve_active_set(qp: SparseQP, x0=None, max_iter: int = 500):
    """Primal active-set method; requires strictly convex P and a feasible
    problem. Returns (x, y, objective)."""
    P, q, A, lo, hi = _dense(qp)
    m, n = A.shape
    x = np.asarray(x0, dtype=float).copy() if x0 is not None else _feasible_point(A, lo, hi)
    eq = (hi - lo) < 1e-14
    # Working set holds directed rows (i, side): side +1 pins A_i x = hi_i,
    # side -1 pins A_i x = lo_i. Equality rows are permanent members.
    work: list[tuple[int, int]] = [(i, 1) for i in np.flatnonzero(eq)]
    n_eq = len(work)
    for _ in range(max_iter):
        if work:
            A_w = np.array([side * A[i] for i, side in work])
            b_w = np.array([hi[i] if side == 1 else -lo[i] for i, side in work])
        else:
            A_w = np.zeros((0, n))
            b_w = np.zeros(0)
        x_eqp, lam = _eqp(P, q, A_w, b_w)
        d = x_eqp - x
        if np.max(np.abs(d), initial=0.0) < _ZERO_STEP:
            x = x_eqp
            if len(work) == n_eq or np.all(lam[n_eq:] >= -1e-9):
                y = np.zeros(m)
                for (i, side), l in zip(work, lam):
                    y[i] += -side * l
                obj = float(0.5 * x @ P @ x + q @ x)
                return x, y, obj
            worst = n_eq + int(np.argmin(lam[n_eq:]))
            work.pop(worst)
            continue
        # Largest feasible step along d; add the blocking row if clipped.
        alpha, blocking = 1.0, None
        Ad = A @ d
        Ax = A @ x
        for i in range(m):
            if eq[i]:
                continue
            if Ad[i] > _ZERO_STEP and hi[i] < INFTY and (i, 1) not in work:
                a = (hi[i] - Ax[i]) / Ad[i]
                if a < alpha - 1e-14:
                    alpha, blocking = a, (i, 1)
            elif Ad[i] < -_ZERO_STEP and lo[i] > -INFTY and (i, -1) not in work:
                a = (lo[i] - Ax[i]) / Ad[i]
                if a < alpha - 1e-14:
                    alpha, blocking = a, (i, -1)
        x = x + max(alpha, 0.0) * d
        if blocking is not None:
            work.append(blocking)
    raise RuntimeError("active-set method did not terminate")


def solve_enumeration(qp: SparseQP, max_rows: int = 12):
    """Brute-force oracle: try every assignment of inactive/lower/upper per
    inequality row, solve the resulting equality-constrained QP, keep the best
    feasible KKT point. Exponential; only for tiny problems."""
    P, q, A, lo, hi = _dense(qp)
    m, n = A.shape
    eq_idx = np.flatnonzero((hi - lo) < 1e-14)
    ineq_idx = [i for i in range(m) if i not in set(eq_idx)]
    if len(ineq_idx) > max_rows:
        raise ValueError(f"enumeration limited to {max_rows} inequality rows, got {len(ineq_idx)}")
    best = None
    for assignment in itertools.product((0, 1, -1), repeat=len(ineq_idx)):
        rows = [(int(i), 1) for i in eq_idx]
        rows += [(i, s) for i, s in zip(ineq_idx, assignment) if s != 0]
        if len(rows) > n:
            continue
        skip = False
        for i, s in zip(ineq_idx, assignment):
            if (s == 1 and hi[i] >= INFTY) or (s == -1 and lo[i] <= -INFTY):
                skip = True
                break
        if skip:
            continue
        A_w = np.array([s * A[i] for i, s in rows]) if rows else np.zeros((0, n))
        b_w = np.array([hi[i] if s == 1 else -lo[i] for i, s in rows])
        x, lam = _eqp(P, q, A_w, b_w)
        Ax = A @ x
        if np.any(Ax > hi + _FEAS_TOL) or np.any(Ax < lo - _FEAS_TOL):
            continue
        if np.any(lam[len(eq_idx):] < -1e-8):
            continue
        obj = float(0.5 * x @ P @ x + q @ x)
        if best is None or obj < best[2] - 1e-12:
            y = np.zeros(m)
            for (i, s), l in zip(rows, lam):
                y[i] += -s * l
            best = (x, y, obj)
    if best is None:
        raise ValueError("enumeration found no feasible KKT point")
    return best
