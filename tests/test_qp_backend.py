from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, strategies as st

from centroidal_bcd.qp import (
    BandedActiveSetSolver,
    InteriorPointSolver,
    SolverSettings,
    SparseQP,
    kkt_residuals,
)
from centroidal_bcd.bcd import optimize
from centroidal_bcd.contact_qp import ContactQpInputs, build_contact_qp, nominal_footholds
from centroidal_bcd.force_qp import ForceQpInputs, _structure as force_structure, build_force_qp
from centroidal_bcd.gaits import make_gait, shipped_scenarios
from centroidal_bcd.qp.active_set import solve_active_set, solve_enumeration
from centroidal_bcd.qp.banded import _EQUALITY_GAP, _MAX_SHIFT, _REFINE_STEPS, BandedKkt
from centroidal_bcd.qp import ipm
from centroidal_bcd.qp.ipm import _DELTA, _POLISH_DELTA, _RUIZ_ITERATIONS, _START_FLOOR, \
    _guarded_inv_sqrt
from centroidal_bcd.qp.pattern import QpPattern
from centroidal_bcd.scenarios import materialize

from conftest import diagonal, pattern_hash


def _qp(P, q, A=None, lo=None, hi=None):
    P = np.atleast_2d(np.asarray(P, dtype=float))
    n = P.shape[0]
    if A is None:
        A = np.zeros((0, n))
        lo = np.zeros(0)
        hi = np.zeros(0)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    return SparseQP(n=n, m_c=A.shape[0], P=sp.csc_matrix(P), q=np.asarray(q, dtype=float),
                    A=sp.csc_matrix(A), lo=np.asarray(lo, dtype=float),
                    hi=np.asarray(hi, dtype=float))


def _random_qp(rng, n=None, m=None, one_sided=0.3):
    n = n or int(rng.integers(2, 31))
    m = m or int(rng.integers(1, 41))
    B = rng.normal(size=(n, n))
    P = B.T @ B + 0.1 * np.eye(n)
    q = rng.normal(size=n)
    A = rng.normal(size=(m, n))
    x0 = rng.normal(size=n)
    ax = A @ x0
    lo = ax - rng.uniform(0.05, 2.0, size=m)
    hi = ax + rng.uniform(0.05, 2.0, size=m)
    drop = rng.random(m) < one_sided
    lo = np.where(drop, -np.inf, lo)
    return _qp(P, q, A, lo, hi), x0


def test_single_variable_unconstrained():
    h = InteriorPointSolver(_qp([[1.0]], [-1.0]))
    assert h.n == 1
    sol = h.solve()
    assert sol.solved
    assert sol.x[0] == pytest.approx(1.0, abs=1e-8)
    assert sol.objective == pytest.approx(-0.5, abs=1e-8)


def test_active_lower_bound_dual_sign():
    h = InteriorPointSolver(_qp([[1.0]], [0.0], [[1.0]], [2.0], [np.inf]))
    sol = h.solve()
    assert sol.solved
    assert sol.x[0] == pytest.approx(2.0, abs=1e-8)
    assert sol.y[0] == pytest.approx(2.0, abs=1e-7)


def test_negative_eigenvalue_rejected_in_validating_mode():
    qp = _qp([[-1.0]], [0.0])
    with pytest.raises(ValueError, match="eigenvalue"):
        InteriorPointSolver(qp)


def test_solution_matches_enumeration_oracle():
    # Expected values come from the exhaustive active-set enumeration.
    rng = np.random.default_rng(42)
    qp, x0 = _random_qp(rng, n=20, m=10, one_sided=0.0)
    x_enum, y_enum, obj_enum = solve_enumeration(qp)
    sol = InteriorPointSolver(qp).solve()
    assert sol.solved
    assert np.max(np.abs(sol.x - x_enum)) < 1e-6
    assert sol.objective == pytest.approx(obj_enum, abs=1e-8)


def test_enumeration_agrees_with_iterative_active_set():
    rng = np.random.default_rng(7)
    for _ in range(5):
        qp, x0 = _random_qp(rng, n=6, m=6, one_sided=0.0)
        x_enum, _, obj_enum = solve_enumeration(qp)
        x_as, _, obj_as = solve_active_set(qp, x0=x0)
        assert np.max(np.abs(x_enum - x_as)) < 1e-8
        assert obj_enum == pytest.approx(obj_as, abs=1e-10)


def test_updates_factor_nothing_and_each_iteration_factors_once():
    # Setup and value updates only store and scale data. A solve factors the
    # Newton matrix once per iteration; the polish of each solved call is
    # counted on its own. A re-solve of unchanged data lands on the first
    # polish's held set at once: one polish factorization, no iteration.
    rng = np.random.default_rng(3)
    qp, _ = _random_qp(rng, n=10, m=12)
    h = InteriorPointSolver(qp)
    assert (h.kkt_refactorizations, h.polish_factorizations) == (0, 0)
    h.update_values(replace(qp, q=qp.q * 0.5))
    h.update_values(replace(qp, q=qp.q * 0.5, P=qp.P * 1.5))
    h.update_values(replace(qp, q=qp.q * 0.5, A=qp.A * 2.0))
    assert (h.kkt_refactorizations, h.polish_factorizations) == (0, 0)
    first = h.solve()
    assert first.solved and first.polished and first.iterations > 0
    assert (h.kkt_refactorizations, h.polish_factorizations) == (first.iterations, 1)
    again = h.solve()
    assert again.solved and again.polished and again.iterations == 0
    assert (again.factorizations, again.band_solves) == (1, 1 + _REFINE_STEPS)
    assert (h.kkt_refactorizations, h.polish_factorizations) == (first.iterations, 2)
    h.update_values(qp)
    assert (h.kkt_refactorizations, h.polish_factorizations) == (first.iterations, 2)


def test_value_updates_keep_each_matrix_and_refresh_its_transpose():
    # A handle builds its matrices (unscaled and scaled, and their
    # transposes) once; an update assigns their values, and each transpose
    # holds the same values as its matrix.
    rng = np.random.default_rng(5)
    qp, _ = _random_qp(rng, n=10, m=12)
    h = InteriorPointSolver(qp)
    names = ("_P", "_A", "_AT", "_Ps", "_As", "_AsT")
    before = [getattr(h, name) for name in names]
    h.update_values(replace(qp, P=1.5 * qp.P, A=-2.0 * qp.A))
    assert all(getattr(h, name) is M for name, M in zip(names, before))
    assert np.array_equal(h._A.toarray(), -2.0 * qp.A.toarray())
    assert np.array_equal(h._AT.toarray(), h._A.toarray().T)
    assert np.array_equal(h._AsT.toarray(), h._As.toarray().T)
    d, e, c = h._d, h._e, h._c
    assert np.array_equal(h._As.toarray(), e[:, None] * d[None, :] * h._A.toarray())
    assert np.array_equal(h._Ps.toarray(), c * d[:, None] * d[None, :] * h._P.toarray())


def test_update_rejects_pattern_mismatch():
    rng = np.random.default_rng(4)
    qp, _ = _random_qp(rng, n=8, m=9)
    h = InteriorPointSolver(qp)
    with pytest.raises(ValueError, match="^P sparsity pattern"):
        h.update_values(replace(qp, P=sp.csc_matrix(np.eye(8))))
    A = qp.A.toarray()
    A[0, 0] = 0.0  # one stored entry fewer
    with pytest.raises(ValueError, match="^A sparsity pattern"):
        h.update_values(replace(qp, A=sp.csc_matrix(A)))


def _moved_entry(A):
    """``A`` with its first stored entry moved to a free row of its column:
    the same number of entries in another pattern."""
    A = A.tocoo()
    rows = A.row.copy()
    stored = set(rows[A.col == A.col[0]])
    rows[0] = next(r for r in range(A.shape[0]) if r not in stored)
    return sp.csc_matrix((A.data, (rows, A.col)), shape=A.shape)


@pytest.mark.parametrize("handle", [InteriorPointSolver, BandedActiveSetSolver])
def test_an_update_with_the_setups_nnz_in_another_pattern_is_rejected(trot_qps, handle):
    qp = trot_qps["contact"]
    h = handle(qp)
    other = _moved_entry(qp.A)
    assert other.nnz == qp.A.nnz
    with pytest.raises(ValueError, match="^A sparsity pattern does not match"):
        h.update_values(replace(trot_qps["contact_next"], A=other))
    # A rejected update leaves the handle's values as they were.
    assert np.array_equal(h._A.data, qp.A.data) and np.array_equal(h._q, qp.q)


def test_a_cold_solve_after_an_update_starts_at_the_new_start_point(monkeypatch):
    qp, x0 = _random_qp(np.random.default_rng(19), n=12, m=15)
    h = InteriorPointSolver(replace(qp, x0=np.zeros(qp.n)))
    assert h.solve().solved
    # A bound update that changes the row partition, with a new start point.
    lo = qp.lo.copy()
    lo[int(np.flatnonzero(np.isfinite(lo))[0])] = -np.inf
    updated = replace(qp, lo=lo, x0=x0)
    h.update_values(updated)
    h.settings = SolverSettings(max_iterations=1)
    points = _record_directions(monkeypatch, h)
    sol = h.solve()
    assert sol.status == "max_iter" and not sol.warm_started and x0.any()
    # The first direction starts from the slacks at the new start point,
    # and its step is a fresh handle's first step on the updated QP.
    gap = h._sign * (h._As @ (x0 / h._d))[h._rows] - h._b
    assert np.array_equal(points[0][0], np.maximum(gap, _START_FLOOR))
    fresh = InteriorPointSolver(updated, SolverSettings(max_iterations=1)).solve()
    assert np.array_equal(sol.x, fresh.x)


@pytest.mark.parametrize("handle", [InteriorPointSolver, BandedActiveSetSolver])
def test_band_terms_are_computed_once_per_update_or_held_set_solve(trot_qps, handle,
                                                                    monkeypatch):
    # An interior-point update refreshes the terms of its scaled data, which
    # its iterations factor; an active-set update refreshes none. The terms
    # of the unscaled data are computed when a held-set pass runs: once per
    # active-set solve, however many passes, and once per polish.
    h = handle(trot_qps["contact"])
    calls = []
    term_values = h._map.term_values

    def counting(P_data, A_data, out=None):
        calls.append(P_data)
        return term_values(P_data, A_data, out=out)

    monkeypatch.setattr(h._map, "term_values", counting)
    h.update_values(trot_qps["contact_next"])
    scaled = handle is InteriorPointSolver
    assert len(calls) == scaled
    if scaled:
        assert calls[0] is h._Ps.data
    polishes = h.polish_factorizations if scaled else 0
    sol = h.solve()
    assert sol.solved
    held_set_solves = h.polish_factorizations - polishes if scaled else 1
    assert len(calls) == scaled + held_set_solves


@pytest.mark.parametrize("field", ["P", "A", "q", "lo", "hi"])
def test_non_finite_data_is_named_not_solved(field):
    # A NaN used to come back as a false infeasibility certificate.
    qp, _ = _random_qp(np.random.default_rng(10), n=8, m=9, one_sided=0.0)
    values = {"P": qp.P.copy(), "A": qp.A.copy(), "q": qp.q.copy(), "lo": qp.lo.copy(),
              "hi": qp.hi.copy()}
    raw = values[field].data if field in ("P", "A") else values[field]
    raw[0] = np.nan
    with pytest.raises(ValueError, match=f"^{field} "):
        InteriorPointSolver(replace(qp, **values))
    h = InteriorPointSolver(qp)
    with pytest.raises(ValueError, match=f"^{field} "):
        h.update_values(replace(qp, **values))
    raw[0] = -np.inf if field == "lo" else np.inf
    if field in ("lo", "hi"):
        h.update_values(replace(qp, **values))  # infinite bounds stay legal
        assert h.solve().solved
    else:
        with pytest.raises(ValueError, match=f"^{field} "):
            h.update_values(replace(qp, **values))


@pytest.fixture(scope="module")
def trot_qps():
    """Force and contact QPs of a trot at nominal geometry, and the force
    QP's force columns."""
    plan, refs, _, weights = materialize(make_gait("trot", N=60))
    p = nominal_footholds(plan, refs)
    ell = p - refs[plan.pair_table.t, 0:3]
    force = build_force_qp(ForceQpInputs(plan=plan, ell_fixed=ell, p_fixed=p,
                                         references=refs, weights=weights))
    rng = np.random.default_rng(12)
    f = np.array([np.array([0.0, 0.0, 0.5 * plan.mass * 9.81]) + rng.normal(size=3)
                  for _ in plan.active_pairs()])
    h_reg = refs
    contact = build_contact_qp(ContactQpInputs(
        plan=plan, f_fixed=f, h_reg=h_reg, references=refs, weights=weights, l_prox=100.0))
    # The same patterns with the values of a later outer iteration: moved
    # lever arms and a momentum pull for the force QP, other forces and a
    # stronger foothold pull for the contact QP.
    force_next = build_force_qp(ForceQpInputs(
        plan=plan, ell_fixed=ell + 0.01 * rng.normal(size=ell.shape), p_fixed=p,
        references=refs, weights=weights, h_reg=h_reg, l_prox=100.0))
    f_next = np.array([value + rng.normal(size=3) for value in f])
    contact_next = build_contact_qp(ContactQpInputs(
        plan=plan, f_fixed=f_next, h_reg=h_reg, references=refs, weights=weights,
        p_reg=p, l_prox=1e4))
    return {"force": force, "contact": contact, "force_next": force_next,
            "contact_next": contact_next, "force_f_cols": force_structure(plan).f_cols}


def _ruiz_reference(qp):
    """Ruiz equilibration with sparse matrix products: the handle's scaling
    must reproduce it bit for bit, since the iterates depend on the scaled
    data."""

    def colmax(M):
        return np.asarray(abs(M).max(axis=0).todense()).ravel() if M.nnz else np.zeros(M.shape[1])

    def rowmax(M):
        return np.asarray(abs(M).max(axis=1).todense()).ravel() if M.nnz else np.zeros(M.shape[0])

    P, A, q = qp.P.tocsc(), qp.A.tocsc(), np.array(qp.q, dtype=float)
    d, e, c = np.ones(qp.n), np.ones(qp.m_c), 1.0
    for _ in range(_RUIZ_ITERATIONS):
        dx = _guarded_inv_sqrt(np.maximum(colmax(P), colmax(A)))
        dy = _guarded_inv_sqrt(rowmax(A)) if qp.m_c else np.ones(0)
        Dx = sp.diags(dx)
        P = (Dx @ P @ Dx).tocsc()
        q = dx * q
        if qp.m_c:
            A = (sp.diags(dy) @ A @ Dx).tocsc()
        d *= dx
        e *= dy
        cost_norm = max(float(np.mean(colmax(P))), float(np.max(np.abs(q), initial=0.0)))
        gamma = 1.0 / cost_norm if cost_norm > 1e-8 else 1.0
        P = P * gamma
        q = q * gamma
        c *= gamma
    return d, e, c


def _guarded_scaling_qp():
    """Column 2 is empty in A and stores only an explicit zero in P; row 1 of
    A is empty. Both take the guarded inverse."""
    A = sp.csc_matrix(np.array([[1e3, -2.0, 0.0, 0.5], [0.0, 0.0, 0.0, 0.0],
                                [0.0, 3e-3, 0.0, -7.0]]))
    return SparseQP(n=4, m_c=3, P=diagonal(np.array([2.0, 1e-4, 0.0, 5e2])),
                    q=np.array([1.0, -3.0, 0.0, 2e2]), A=A, lo=-np.ones(3), hi=np.ones(3))


def test_array_ruiz_scaling_matches_sparse_products_bitwise(trot_qps):
    rng = np.random.default_rng(5)
    qps = [_random_qp(rng)[0] for _ in range(5)]
    qps += [trot_qps["force"], trot_qps["contact"], _guarded_scaling_qp()]
    for qp in qps:
        h = InteriorPointSolver(qp)
        d, e, c = _ruiz_reference(qp)
        assert h._d.tobytes() == d.tobytes()
        assert h._e.tobytes() == e.tobytes()
        assert h._c == c
        # A value update keeps the setup's factors and applies them to the
        # new data: every solve of a handle iterates in one scaling.
        new = replace(qp, P=qp.P * 3.0, A=qp.A * 0.25, q=2.0 * qp.q - 1.0,
                      lo=qp.lo - 0.5, hi=qp.hi + 0.5)
        h.update_values(new)
        assert h._d.tobytes() == d.tobytes()
        assert h._e.tobytes() == e.tobytes()
        assert h._c == c
        D, E = sp.diags(d), sp.diags(e)
        tol = dict(rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(h._Ps.toarray(), (c * (D @ new.P @ D)).toarray(), **tol)
        np.testing.assert_allclose(h._As.toarray(), (E @ new.A @ D).toarray(), **tol)
        np.testing.assert_allclose(h._qs, c * d * new.q, **tol)
        np.testing.assert_allclose(h._b, h._sign * e[h._rows] * np.where(
            h._sign > 0, new.lo[h._rows], new.hi[h._rows]), **tol)


def _max_step(v, dv, cap=1.0):
    """Largest alpha <= cap keeping v + alpha dv >= 0."""
    with np.errstate(over="ignore", under="ignore"):
        ratios = [float(-vi / di) for vi, di in zip(v, dv) if di < 0.0]
    return min([cap] + ratios)


_positive = st.floats(min_value=1e-300, max_value=1e300)
_any_finite = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)


@st.composite
def _steps(draw):
    """(v > 0, dv): each dv entry arbitrary, a signed zero, or -f v with f
    around the ratios the cap separates."""
    v = draw(st.lists(_positive, max_size=12))
    dv = [draw(st.one_of(_any_finite, st.sampled_from([0.0, -0.0]),
                         st.floats(0.0, 4.0).map(lambda f, vi=vi: -f * vi)))
          for vi in v]
    return np.array(v, dtype=float), np.array(dv, dtype=float)


@given(_steps())
@example((np.array([1.0, 2.0, 1e-300]), np.array([0.0, 3.0, 1e300])))   # every dv >= 0
@example((np.array([1.0, 1e-300]), np.array([-0.0, -0.0])))
@example((np.array([1e-300, 2e-300, 1e-300]), np.array([-1e-300, -0.99e-300, -5e-301])))
@example((np.array([1.0, 1.0]), np.array([-0.99, -1.0 / 0.99])))
@example((np.zeros(0), np.zeros(0)))
def test_mask_free_step_length_matches_the_masked_reference(step):
    v, dv = step
    assert ipm._max_step(v, dv) == _max_step(v, dv, cap=1.0 / ipm._TO_BOUNDARY)


@pytest.mark.parametrize("mu", [1e-6, 0.1, 1e6])
@pytest.mark.parametrize("name", ["random", "force", "contact"])
def test_one_step_matches_dense_quasi_definite_kkt_solve(trot_qps, name, mu):
    # One predictor-corrector direction, from a point whose products s lam
    # spread over four decades around mu, against dense solves of the full
    # regularized KKT system in the handle's scaled coordinates. Its 1/delta
    # weights leave the two solves of the force QP about 5e-8 apart.
    if name == "random":  # dense, non-diagonal P
        qp, _ = _random_qp(np.random.default_rng(13), n=30, m=40)
    else:
        qp = trot_qps[name]
    h = InteriorPointSolver(qp)
    rng = np.random.default_rng(14)
    eq, rows, sign, b = h._eq, h._rows, h._sign, h._b
    n, n_eq, n_in = qp.n, eq.size, b.size
    x, y_eq = rng.normal(size=n), rng.normal(size=n_eq)
    s = np.sqrt(mu) * 10.0 ** rng.uniform(-1.0, 1.0, n_in)
    lam = mu / s * 10.0 ** rng.uniform(-1.0, 1.0, n_in)

    Ps, As = h._Ps.toarray(), h._As.toarray()
    A_eq, G = As[eq], sign[:, None] * As[rows]
    r_d = Ps @ x + h._qs - A_eq.T @ y_eq - G.T @ lam
    r_e = A_eq @ x - h._b_eq
    r_g = G @ x - b - s
    before = h.kkt_refactorizations
    dx, dy_eq, dv, _ = h._direction(np.concatenate([s, lam]), r_d, r_e, r_g)
    assert h.kkt_refactorizations == before + 1

    Z = np.zeros
    kkt = np.block([
        [Ps + _DELTA * np.eye(n), -A_eq.T, -G.T, Z((n, n_in))],
        [A_eq, _DELTA * np.eye(n_eq), Z((n_eq, 2 * n_in))],
        [G, Z((n_in, n_eq)), _DELTA * np.eye(n_in), -np.eye(n_in)],
        [Z((n_in, n + n_eq)), np.diag(s), np.diag(lam)]])

    def direction(r_c):
        sol = np.linalg.solve(kkt, -np.concatenate([r_d, r_e, r_g, r_c]))
        return np.split(sol, np.cumsum([n, n_eq, n_in]))

    _, _, dlam, ds = direction(s * lam)
    alpha = min(_max_step(s, ds), _max_step(lam, dlam))
    mu_now = np.mean(s * lam)
    sigma = (np.mean((s + alpha * ds) * (lam + alpha * dlam)) / mu_now) ** 3
    dx_, dy_, dlam_, ds_ = direction(s * lam + ds * dlam - sigma * mu_now)
    for a, b_ in zip((dx, dy_eq, dv), (dx_, dy_, np.concatenate([ds_, dlam_]))):
        assert np.linalg.norm(a - b_) <= 1e-6 * np.linalg.norm(b_)


def _dense_from_band(h, band):
    """The symmetric matrix held in a lower band."""
    n = h.n
    S = np.zeros((n, n))
    for d in range(band.shape[0]):
        k = np.arange(n - d)
        S[k + d, k] = band[d, :n - d]
    return S + np.tril(S, -1).T


def _assert_map_matches_sparse_products(h, P, A, terms, w, shift):
    expected = (P + A.T @ sp.diags(w) @ A).toarray() + shift * np.eye(h.n)
    got = _dense_from_band(h, h._map.band(terms, w, shift))
    assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))


def _gathered_band(h, P, A, w, shift):
    """The lower band of P + shift I + A' diag(w) A by gather, multiply and
    bincount: (A_ki A_kj) w_k for every pair i >= j of entries in row k, the
    rows in order, then P's lower entries, then shift on the diagonal."""
    A, P = A.tocsr(), P.tocoo()
    kb = h.half_bandwidth
    rows, cols, terms = [], [], []
    for k in range(A.shape[0]):
        idx, val = A.indices[A.indptr[k]:A.indptr[k + 1]], A.data[A.indptr[k]:A.indptr[k + 1]]
        i, j = np.triu_indices(idx.size)
        i, j = np.where(idx[i] >= idx[j], i, j), np.where(idx[i] >= idx[j], j, i)
        rows.append(idx[i])
        cols.append(idx[j])
        terms.append(val[i] * val[j] * w[k])
    lower = P.row >= P.col
    diagonal = np.arange(h.n)
    r = np.concatenate(rows + [P.row[lower], diagonal]).astype(np.intp)
    c = np.concatenate(cols + [P.col[lower], diagonal]).astype(np.intp)
    t = np.concatenate(terms + [P.data[lower] * 1.0, np.full(h.n, shift)])
    band = np.bincount(c * (kb + 1) + (r - c), t, minlength=h.n * (kb + 1))
    return band.reshape(h.n, kb + 1).T


def _no_constraint_qp():
    return SparseQP(n=3, m_c=0, P=sp.csc_matrix(np.array([[2.0, 0.5, 0.0], [0.5, 1.0, 0.0],
                                                          [0.0, 0.0, 3.0]])),
                    q=np.ones(3), A=sp.csc_matrix((0, 3)), lo=np.zeros(0), hi=np.zeros(0))


def _scrambled_chain_qp():
    """A chain of rows coupling neighbouring columns, its columns shuffled:
    in its own order it bands at 51 of 60."""
    n, rng = 60, np.random.default_rng(21)
    rows = np.repeat(np.arange(n - 1), 2)
    cols = (rows + np.tile([0, 1], n - 1))
    chain = sp.csc_matrix((rng.normal(size=rows.size), (rows, cols)), shape=(n - 1, n))
    shuffled = chain[:, rng.permutation(n)]
    return _qp(np.eye(n), rng.normal(size=n), shuffled.toarray(), -np.ones(n - 1),
               np.ones(n - 1))


def test_band_map_matches_sparse_product_assembly(trot_qps):
    rng = np.random.default_rng(16)
    qps = [_random_qp(rng)[0] for _ in range(5)]
    # Guarded-scaling QP: an empty A row, and a column that only P holds.
    chain = _scrambled_chain_qp()
    qps += [trot_qps["force"], trot_qps["contact"], _guarded_scaling_qp(), _no_constraint_qp(),
            chain]
    for qp in qps:
        h = InteriorPointSolver(qp)
        m = qp.m_c
        pattern = (abs(qp.P) + abs(qp.A.T) @ abs(qp.A)).tocoo()
        assert h.half_bandwidth == max(pattern.row - pattern.col, default=0)
        # The Newton matrix on scaled data, at random weights and at the
        # equality rows' 1/delta.
        for w in (rng.uniform(1e-3, 1e3, size=m), np.full(m, 1.0 / _DELTA)):
            _assert_map_matches_sparse_products(h, h._Ps, h._As, h._terms_s, w, _DELTA)
        # The polish matrix on unscaled data: weight 1/delta on a random
        # active set, 0 elsewhere.
        w = np.where(rng.random(m) < 0.5, 1.0 / _POLISH_DELTA, 0.0)
        _assert_map_matches_sparse_products(h, qp.P, qp.A, h._map.terms(qp.P.data, qp.A.data),
                                            w, _POLISH_DELTA)
        # A value update gives the handle the new values, and refreshes the
        # terms of the scaled ones.
        P2, A2 = 2.0 * qp.P, -0.5 * qp.A
        h.update_values(replace(qp, P=P2, A=A2))
        _assert_map_matches_sparse_products(h, P2, A2, h._map.terms(h._P.data, h._A.data),
                                            np.ones(m), 1.0)
        _assert_map_matches_sparse_products(h, h._Ps, h._As, h._terms_s, np.ones(m), _DELTA)
    # The chain's shuffled band is factored as it is, and still solves.
    assert InteriorPointSolver(chain).solve().solved


def test_band_product_is_bitwise_the_gathered_assembly(trot_qps):
    # The band is one product of the handle's term matrix with the weights
    # [w, 1, shift]; it must equal a gather-multiply-bincount assembly bit
    # for bit, on scaled and unscaled data and after a value update.
    rng = np.random.default_rng(17)
    qps = [trot_qps["force"], trot_qps["contact"]] + [_random_qp(rng)[0] for _ in range(5)]
    for qp in qps:
        h = InteriorPointSolver(qp)
        m = qp.m_c
        for w, shift in ((rng.uniform(1e-3, 1e3, size=m), _DELTA),
                         (np.where(rng.random(m) < 0.5, 1.0 / _POLISH_DELTA, 0.0), _POLISH_DELTA)):
            for P, A, terms in ((h._Ps, h._As, h._terms_s),
                                (qp.P, qp.A, h._map.terms(qp.P.data, qp.A.data))):
                band = h._map.band(terms, w, shift)
                assert band.flags.f_contiguous
                assert band.tobytes() == _gathered_band(h, P, A, w, shift).tobytes()
        h.update_values(replace(qp, P=3.0 * qp.P, A=-0.5 * qp.A))
        w = rng.uniform(1e-3, 1e3, size=m)
        assert (h._map.band(h._terms_s, w, _DELTA).tobytes()
                == _gathered_band(h, h._Ps, h._As, w, _DELTA).tobytes())


def _filtered_pair_map(P, A):
    """The band map's (slot, indptr, left, right) built by forming every
    ordered pair of entries in each row of A and keeping the pairs whose
    first column is the larger: the reference for the map's direct
    generation of the kept pairs."""
    P, A = P.tocsc(), A.tocsc()
    n, m = P.shape[1], A.shape[0]
    by_row = np.argsort(A.indices, kind="stable")
    row_ptr = np.concatenate([[0], np.cumsum(np.bincount(A.indices, minlength=m))])
    rows = A.indices[by_row].astype(np.intp)
    cols = np.repeat(np.arange(n), np.diff(A.indptr))[by_row]
    reps = np.diff(row_ptr)[rows]
    a = np.repeat(np.arange(rows.size), reps)
    b = np.arange(a.size) - np.repeat(np.cumsum(reps) - reps - row_ptr[rows], reps)
    lower = cols[a] >= cols[b]
    a, b = a[lower], b[lower]
    p_rows, p_cols = P.indices, np.repeat(np.arange(n), np.diff(P.indptr))
    p_lower = np.flatnonzero(p_rows >= p_cols)
    one = A.nnz + P.nnz
    left = np.concatenate([by_row[a], A.nnz + p_lower, np.full(n, one)])
    right = np.concatenate([by_row[b], np.full(p_lower.size + n, one)])
    weight = np.concatenate([rows[a], np.full(p_lower.size, m), np.full(n, m + 1)])
    i = np.concatenate([cols[a], p_rows[p_lower], np.arange(n)])
    j = np.concatenate([cols[b], p_cols[p_lower], np.arange(n)])
    width = int(np.max(i - j, initial=0)) + 1
    return j * width + (i - j), np.cumsum(np.bincount(weight, minlength=m + 2)), left, right


def _first_qps(doc):
    """The first force and contact QPs ``optimize`` would build for a
    scenario, at nominal geometry."""
    plan, refs, _, weights = materialize(doc)
    p = nominal_footholds(plan, refs)
    force = build_force_qp(ForceQpInputs(
        plan=plan, ell_fixed=p - refs[plan.pair_table.t, 0:3], p_fixed=p,
        references=refs, weights=weights))
    f0 = np.tile([0.0, 0.0, plan.mass * 9.81 / 4], (len(plan.active_pairs()), 1))
    contact = build_contact_qp(ContactQpInputs(plan=plan, f_fixed=f0, h_reg=refs,
                                               references=refs, weights=weights, l_prox=100.0))
    return force, contact


def test_band_map_keeps_exactly_the_pairs_the_all_pairs_filter_kept():
    qps = [qp for doc in shipped_scenarios().values() for qp in _first_qps(doc)]
    rng = np.random.default_rng(16)
    qps += [_random_qp(rng)[0] for _ in range(20)]
    qps += [_guarded_scaling_qp(), _no_constraint_qp(), _scrambled_chain_qp()]
    for qp in qps:
        band_map = BandedKkt(qp)._map
        slot, indptr, left, right = _filtered_pair_map(qp.P, qp.A)
        assert np.array_equal(band_map.slot, slot)
        assert np.array_equal(band_map.indptr[1:], indptr) and band_map.indptr[0] == 0
        assert np.array_equal(band_map.left, left)
        assert np.array_equal(band_map.right, right)


def test_duplicate_entries_of_a_are_named():
    # Two stored entries at (0, 1): the band map pairs the entries of a row
    # in column order, which needs each (row, column) stored once.
    A = sp.csc_matrix((np.array([1.0, 2.0, 3.0]), np.array([0, 0, 0]), np.array([0, 1, 3])),
                      shape=(1, 2))
    qp = SparseQP(n=2, m_c=1, P=diagonal(np.ones(2)), q=np.zeros(2), A=A,
                  lo=np.zeros(1), hi=np.ones(1))
    for handle in (InteriorPointSolver, BandedActiveSetSolver):
        with pytest.raises(ValueError, match=r"^A holds duplicate entries at \(0, 1\)"):
            handle(qp)


@pytest.mark.parametrize("name", ["random", "force", "contact"])
def test_band_solve_matches_dense_reduced_solve(trot_qps, name):
    # A forward sweep with the factor and a transposed one with the same
    # factor must together solve the reduced Newton system.
    if name == "random":  # dense, non-diagonal P
        qp, _ = _random_qp(np.random.default_rng(13), n=30, m=40)
    else:
        qp = trot_qps[name]
    h = InteriorPointSolver(qp)
    rng = np.random.default_rng(15)
    w = rng.uniform(1e-3, 1e3, size=qp.m_c)
    As = h._As.toarray()
    S = h._Ps.toarray() + _DELTA * np.eye(qp.n) + As.T @ (w[:, None] * As)
    rhs = rng.normal(size=qp.n)
    expected = np.linalg.solve(S, rhs)
    got = h._band_solve(h._band_factor(h._terms_s, w, _DELTA)[0], rhs)
    assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)


def test_solution_reports_the_last_checks_unscaled_residuals(trot_qps):
    qp = trot_qps["force"]
    sol = InteriorPointSolver(qp, SolverSettings(max_iterations=5)).solve()
    assert sol.status == "max_iter" and sol.iterations == 5
    # Unpolished: the dual residual is that of the returned pair, and the
    # primal one (against the projection of A x on the bounds) is its bound
    # violation.
    primal, dual, _ = kkt_residuals(qp, sol.x, sol.y)
    assert sol.dual_residual == pytest.approx(dual, rel=1e-9)
    assert sol.primal_residual >= primal * (1.0 - 1e-9) and sol.primal_residual > 0.0
    # A solved call reports the check that passed, before the polish.
    solved = InteriorPointSolver(qp).solve()
    assert solved.solved and solved.polished
    assert np.isfinite([solved.primal_residual, solved.dual_residual]).all()


@pytest.mark.parametrize("name", ["random", "force"])
def test_polish_lands_on_the_active_set_solution(trot_qps, name):
    if name == "random":
        qp, _ = _random_qp(np.random.default_rng(13), n=30, m=40)
    else:
        qp = trot_qps[name]
    h = InteriorPointSolver(qp)
    sol = h.solve()
    assert sol.solved and sol.polished
    assert h.polish_factorizations == 1
    pri, dua, comp = kkt_residuals(qp, sol.x, sol.y)
    assert max(pri, dua) <= 1e-9
    # On an equality row the product is |y| times that row's primal residual.
    assert comp <= 1e-9 * max(1.0, np.abs(sol.y).max())
    # The polish factorizations are counted on their own: the re-solve after
    # a q-only update adds one Newton factorization per iteration. On the
    # random QP the first polish's held set lands at once, with no
    # iteration. On the force QP, halving q moves the active set: the pass
    # on the first polish's held set is tried and rejected, the interior
    # point detects another set, and its polish factors once more.
    base = h.kkt_refactorizations
    h.update_values(replace(qp, q=0.5 * qp.q))
    again = h.solve()
    assert again.solved and again.warm_started
    assert h.kkt_refactorizations == base + again.iterations
    passes = {"random": 1, "force": 2}[name]
    assert (again.iterations == 0) == (name == "random")
    assert h.polish_factorizations == 1 + passes
    assert again.factorizations == again.iterations + passes


def _widened(qp):
    """Bounds of ``qp`` with every finite inequality bound moved outward:
    the same partition into equality rows and one- or two-sided rows."""
    eq = (qp.hi - qp.lo) < _EQUALITY_GAP
    lo = np.where(eq, qp.lo, qp.lo - 0.01 * (1.0 + np.abs(qp.lo)))
    hi = np.where(eq, qp.hi, qp.hi + 0.01 * (1.0 + np.abs(qp.hi)))
    return lo, hi


@pytest.mark.parametrize("name", ["random", "force", "contact"])
def test_warm_re_solves_match_a_fresh_handle(trot_qps, name):
    # A q update, then new q, P and A values, then wider bounds; each is
    # followed by a warm re-solve, which must land on a fresh handle's
    # solution of the updated QP within criterion 5's 1e-6, on x and on the
    # KKT residuals, relative to |x| where that exceeds 1 (the solver's own
    # tests are relative). The force QP's P holds only 2e-9 on the forces,
    # so how they split among the feet is not determined to 1e-6: a cold solve
    # in the first handle's scaling splits them up to 0.4 away from a fresh
    # handle, at the same objective to 1e-10. There x is compared on the
    # momentum columns.
    if name == "random":
        rng = np.random.default_rng(17)
        qps = []
        for _ in range(5):
            qp, _ = _random_qp(rng)
            # A scaled by 0.9 keeps x0 / 0.9 feasible.
            qps.append((qp, replace(qp, q=qp.q + rng.normal(size=qp.n), P=qp.P * 1.5,
                                    A=qp.A * 0.9)))
    else:
        qps = [(trot_qps[name], trot_qps[f"{name}_next"])]
    for qp, nxt in qps:
        lo, hi = _widened(nxt)
        determined = np.ones(qp.n, dtype=bool)
        if name == "force":
            determined[trot_qps["force_f_cols"]] = False
        h = InteriorPointSolver(qp)
        first = h.solve()
        assert first.solved and not first.warm_started
        current = qp
        for values in ({"q": 0.5 * qp.q}, {"q": nxt.q, "P": nxt.P, "A": nxt.A},
                       {"lo": lo, "hi": hi}):
            current = replace(current, **values)
            h.update_values(current)
            warm = h.solve()
            fresh = InteriorPointSolver(current).solve()
            assert warm.solved and warm.warm_started
            assert fresh.solved and not fresh.warm_started
            tol = 1e-6 * max(1.0, np.abs(fresh.x).max())
            assert np.max(np.abs(warm.x - fresh.x)[determined]) <= tol
            assert warm.objective == pytest.approx(fresh.objective, rel=1e-9)
            assert max(kkt_residuals(current, warm.x, warm.y)) <= tol
            assert max(kkt_residuals(current, fresh.x, fresh.y)) <= tol


def test_a_solve_after_an_unsolved_call_starts_cold(trot_qps):
    h = InteriorPointSolver(trot_qps["force"])
    assert h.solve().solved
    h.update_values(replace(trot_qps["force"], q=trot_qps["force_next"].q))
    h.settings = SolverSettings(max_iterations=1)
    capped = h.solve()
    assert capped.status == "max_iter" and capped.warm_started
    h.settings = SolverSettings()
    cold = h.solve()
    assert cold.solved and not cold.warm_started
    assert h.solve().warm_started


def _record_directions(monkeypatch, h):
    """The (slacks, multipliers) every Newton direction of ``h`` starts from,
    recorded as the solves run."""
    points = []
    direction = h._direction

    def recording(v, *args, **kwargs):
        s, lam = np.split(v, 2)
        points.append((s.copy(), lam.copy()))
        return direction(v, *args, **kwargs)

    monkeypatch.setattr(h, "_direction", recording)
    return points


@pytest.mark.parametrize("start", ["x0", "zero"])
def test_a_cold_solve_takes_the_first_newton_point_of_a_warm_start_at_x0(
        trot_qps, monkeypatch, start):
    # One start rule serves every solve: a cold solve's first iteration is
    # the one of a solve started warm from (x0, y_eq = 0, lam = 0), x0 the
    # QP's start point or 0 without one. Both factor once and take one
    # predictor-corrector step from the same point, which moves x.
    qp = trot_qps["force"] if start == "x0" else replace(trot_qps["force"], x0=None)
    capped = InteriorPointSolver(qp, SolverSettings(max_iterations=1))
    cold_points = _record_directions(monkeypatch, capped)
    cold = capped.solve()
    assert (cold.status, cold.iterations, capped.kkt_refactorizations) == ("max_iter", 1, 1)
    assert cold.factorizations == 1 and not cold.warm_started
    warm_handle = InteriorPointSolver(qp, SolverSettings(max_iterations=1))
    warm_handle._last = (warm_handle._x0.copy(), np.zeros(warm_handle._eq.size),
                         np.zeros(warm_handle._b.size))
    warm_points = _record_directions(monkeypatch, warm_handle)
    warm = warm_handle.solve()
    assert warm.warm_started and warm.iterations == 1
    for (s, lam), (s_warm, lam_warm) in zip(cold_points, warm_points, strict=True):
        assert np.array_equal(s, s_warm) and np.array_equal(lam, lam_warm)
    assert np.array_equal(cold.x, warm.x) and np.array_equal(cold.y, warm.y)
    x0 = np.zeros(qp.n) if qp.x0 is None else qp.x0
    assert not np.allclose(cold.x, x0, rtol=1e-6, atol=0.0)


def test_a_cold_solve_starts_at_the_qps_start_point(trot_qps, monkeypatch):
    # With a start point, the first direction starts from the slacks of that
    # point and zero multipliers, all floored at the start floor.
    qp = trot_qps["force"]
    h = InteriorPointSolver(qp)
    points = _record_directions(monkeypatch, h)
    assert h.solve().solved
    gap = h._sign * (h._As @ (qp.x0 / h._d))[h._rows] - h._b
    s0, lam0 = points[0]
    assert np.array_equal(s0, np.maximum(gap, _START_FLOOR))
    assert np.array_equal(lam0, np.full(lam0.size, _START_FLOOR))


@pytest.mark.parametrize("x0, error", [(np.zeros(3), r"x0 must have shape \(2,\), got \(3,\)"),
                                       (np.array([0.0, np.nan]), "x0 must be finite"),
                                       (np.array([0.0, np.inf]), "x0 must be finite")],
                         ids=["shape", "nan", "inf"])
def test_a_malformed_start_point_is_named(x0, error):
    with pytest.raises(ValueError, match=f"^{error}$"):
        replace(_qp(np.eye(2), np.zeros(2)), x0=x0)


def test_a_solve_after_a_failed_call_takes_the_same_start(trot_qps, monkeypatch):
    qp = trot_qps["force"]
    fresh = InteriorPointSolver(qp)
    fresh_points = _record_directions(monkeypatch, fresh)
    expected = fresh.solve()
    h = InteriorPointSolver(qp)
    assert h.solve().solved
    band_factor = h._band_factor

    def fail(terms, w, shift):
        raise ValueError("reduced KKT matrix is not positive definite")

    h._band_factor = fail
    assert h.solve().status == "not_positive_definite"
    h._band_factor = band_factor
    points = _record_directions(monkeypatch, h)
    sol = h.solve()
    assert sol.solved and not sol.warm_started and sol.iterations == expected.iterations
    for (s, lam), (s_fresh, lam_fresh) in zip(points[:2], fresh_points[:2]):
        assert np.array_equal(s, s_fresh) and np.array_equal(lam, lam_fresh)
    # The cold start's multipliers: zero, floored.
    assert np.array_equal(points[0][1], np.full(lam.size, _START_FLOOR))
    assert np.array_equal(sol.x, expected.x)


@pytest.mark.parametrize("change", ["equality row", "infinite side"])
def test_a_bound_update_that_changes_the_row_partition_starts_cold(change):
    qp, x0 = _random_qp(np.random.default_rng(19), n=12, m=15)
    h = InteriorPointSolver(qp)
    assert h.solve().solved
    lo, hi = qp.lo.copy(), qp.hi.copy()
    h.update_values(replace(qp, lo=lo - 0.1, hi=hi + 0.1))  # the same partition
    assert h.solve().warm_started
    row = int(np.flatnonzero(np.isfinite(lo))[0])
    if change == "equality row":
        lo[row] = hi[row] = (qp.A @ x0)[row]
    else:
        lo[row] = -np.inf
    h.update_values(replace(qp, lo=lo, hi=hi))
    sol = h.solve()
    assert sol.solved and not sol.warm_started


def test_failed_polish_factorization_returns_the_admm_point(monkeypatch):
    qp, _ = _random_qp(np.random.default_rng(13), n=30, m=40)
    h = InteriorPointSolver(qp)
    band_factor = h._band_factor

    def fail_polish(terms, w, shift):
        if shift == _POLISH_DELTA:
            raise ValueError("reduced KKT matrix is not positive definite")
        return band_factor(terms, w, shift)

    monkeypatch.setattr(h, "_band_factor", fail_polish)
    sol = h.solve()
    assert sol.solved and not sol.polished
    assert h.polish_factorizations == 0
    assert max(kkt_residuals(qp, sol.x, sol.y)[:2]) > 1e-9  # an unpolished interior point
    # A failed polish counts as rejected: the next solve runs no polish.
    assert h.polish_rejected
    h.update_values(replace(qp, q=0.5 * qp.q))
    again = h.solve()
    assert again.solved and again.factorizations == again.iterations


def test_a_handle_skips_the_polish_after_one_is_rejected():
    # The polish of trot's first force QP at N = 150 is rejected; the
    # handle's later solves then factor and back-solve only for their
    # iterations.
    plan, refs, _, weights = materialize(make_gait("trot", N=150))
    p = nominal_footholds(plan, refs)
    ell = p - refs[plan.pair_table.t, 0:3]
    qp = build_force_qp(ForceQpInputs(plan=plan, ell_fixed=ell, p_fixed=p,
                                      references=refs, weights=weights))
    h = InteriorPointSolver(qp)
    first = h.solve()
    assert first.solved and not first.polished and h.polish_rejected
    assert first.factorizations == first.iterations + 1 and h.polish_factorizations == 1
    h.update_values(replace(qp, q=0.5 * qp.q))
    again = h.solve()
    assert again.solved and again.warm_started and not again.polished
    assert again.factorizations == again.iterations and h.polish_factorizations == 1
    assert again.band_solves == 2 * again.iterations


@pytest.mark.parametrize("kind", ["jump_in_place", "jump_forward", "jump_twist"])
def test_jump_force_solves_keep_polishing(kind):
    # Every force polish of a jump lands, so its force handle polishes each
    # solve: the first and the final one.
    result = optimize(*materialize(shipped_scenarios()[kind]))
    force = (*result.records, result.final_record)
    assert len(force) == 2
    assert all(r.force_polished for r in force)
    assert all(r.force_factorizations == r.force_solver_iterations + 1 for r in force)


def _held_set_qp():
    """A random QP whose polish lands holding inequality rows at both
    bounds, its solved handle and the held rows (-1 lo, +1 hi, 0 free)."""
    qp, _ = _random_qp(np.random.default_rng(13), n=30, m=40)
    h = InteriorPointSolver(qp)
    sol = h.solve()
    assert sol.solved and sol.polished
    held = h._held
    assert (held < 0).any() and (held > 0).any()
    return qp, h, sol, held


def _invalidated(qp, sol, held, change):
    """``qp`` with bounds under which the pass on ``held`` is no longer
    accepted, in the same row partition: a held row's bound relaxed, so
    that its multiplier pulls against it, or a free two-sided row's lower
    bound raised past the polished point."""
    lo, hi = qp.lo.copy(), qp.hi.copy()
    if change == "held row relaxed":
        row = np.flatnonzero(held)[0]
        if held[row] < 0:
            lo[row] -= 1.0
        else:
            hi[row] += 1.0
    else:
        row = np.flatnonzero((held == 0) & np.isfinite(qp.lo))[0]
        lo[row] = (qp.A @ sol.x)[row] + 0.1
        hi[row] = max(hi[row], lo[row] + 1.0)
    return replace(qp, lo=lo, hi=hi)


@pytest.mark.parametrize("change", ["held row relaxed", "free row tightened"])
def test_a_held_set_that_no_longer_lands_falls_through_to_the_interior_point(change):
    # The tried pass factors once; the interior point then runs warm and
    # polishes on the set it detects, and lands on a fresh handle's
    # solution.
    qp, h, sol, held = _held_set_qp()
    new = _invalidated(qp, sol, held, change)
    h.update_values(new)
    warm = h.solve()
    fresh = InteriorPointSolver(new).solve()
    assert warm.solved and warm.warm_started and warm.polished and warm.iterations > 0
    assert warm.factorizations == warm.iterations + 2
    assert fresh.solved and not fresh.warm_started
    assert np.max(np.abs(warm.x - fresh.x)) <= 1e-6 * max(1.0, np.abs(fresh.x).max())
    assert max(kkt_residuals(new, warm.x, warm.y)) <= 1e-6


def test_a_failed_solve_clears_the_held_set():
    # After a call that ends unsolved, the handle neither starts warm nor
    # tries the held set it had: a re-solve of the first QP, which that set
    # would solve with no iteration, starts cold.
    qp, h, sol, held = _held_set_qp()
    h.update_values(_invalidated(qp, sol, held, "held row relaxed"))
    h.settings = SolverSettings(max_iterations=1)
    capped = h.solve()
    assert capped.status == "max_iter" and capped.factorizations == 2
    h.settings = SolverSettings()
    h.update_values(qp)
    again = h.solve()
    assert again.solved and again.polished and not again.warm_started
    assert again.iterations == sol.iterations and again.factorizations == sol.iterations + 1
    assert np.array_equal(again.x, sol.x)


def test_failed_newton_factorization_is_named_not_raised(monkeypatch):
    qp, _ = _random_qp(np.random.default_rng(13), n=30, m=40)
    h = InteriorPointSolver(qp)

    def fail(terms, w, shift):
        raise ValueError("reduced KKT matrix is not positive definite")

    monkeypatch.setattr(h, "_band_factor", fail)
    sol = h.solve()
    assert (sol.status, sol.iterations, h.kkt_refactorizations) == ("not_positive_definite", 0, 0)


@pytest.mark.parametrize("handle", [InteriorPointSolver, BandedActiveSetSolver])
def test_a_failed_factorization_is_retried_with_a_larger_shift(trot_qps, handle, monkeypatch):
    # dpbtrf reports a pivot that is not positive once: the band is factored
    # again with the shift 100 times larger and the same weights, the solve
    # still succeeds, and the extra attempt counts as a factorization.
    qp = _random_qp(np.random.default_rng(13), n=30, m=40)[0] if handle is InteriorPointSolver \
        else trot_qps["contact"]
    h = handle(qp)
    dpbtrf, band, calls = h._dpbtrf, h._map.band, []

    def failing_once(ab, **kwargs):
        L, info = dpbtrf(ab, **kwargs)
        return (L, 1) if len(calls) == 1 else (L, info)

    def recording(terms, w, shift):
        calls.append((w.copy(), shift))
        return band(terms, w, shift)

    h._dpbtrf = failing_once
    monkeypatch.setattr(h._map, "band", recording)
    sol = h.solve()
    assert sol.solved
    (w0, shift0), (w1, shift1) = calls[:2]
    assert shift1 == 100.0 * shift0 and np.array_equal(w0, w1)
    if handle is InteriorPointSolver:
        assert shift0 == _DELTA
        assert h.kkt_refactorizations == sol.iterations + 1
        assert sol.factorizations == sol.iterations + 1 + h.polish_factorizations
    else:
        assert sol.factorizations == h.factorizations == sol.iterations + 1
    assert sol.factorizations == len(calls)


def test_a_factorization_that_fails_at_the_largest_shift_is_named(monkeypatch):
    # Every retry fails too: the shift climbs 100-fold to _MAX_SHIFT and the
    # solve ends not_positive_definite, with no factorization counted.
    qp, _ = _random_qp(np.random.default_rng(13), n=30, m=40)
    h = InteriorPointSolver(qp)
    dpbtrf, shifts = h._dpbtrf, []
    band = h._map.band

    def recording(terms, w, shift):
        shifts.append(shift)
        return band(terms, w, shift)

    h._dpbtrf = lambda ab, **kwargs: (dpbtrf(ab, **kwargs)[0], 1)
    monkeypatch.setattr(h._map, "band", recording)
    sol = h.solve()
    assert (sol.status, sol.iterations, h.kkt_refactorizations) == ("not_positive_definite", 0, 0)
    assert shifts == pytest.approx([_DELTA, 1e-6, 1e-4, _MAX_SHIFT], rel=1e-12)


def test_accepted_polish_keeps_multiplier_signs_on_bound(monkeypatch):
    # On bound the polish used to accept multipliers pushing from an
    # infinite bound, up to 2.07e-3 against max|y| = 3.14e3. Bound's first
    # force polish is now rejected (and the later ones skipped), and the
    # jump's accepted: every returned multiplier is checked, polished or not.
    checked = []
    real_solve = InteriorPointSolver.solve

    def checking_solve(self, *args, **kwargs):
        sol = real_solve(self, *args, **kwargs)
        wrong = np.maximum(np.where(self._lo == -np.inf, sol.y, 0.0),
                           np.where(self._hi == np.inf, -sol.y, 0.0))
        tol = self.settings.eps_abs + self.settings.eps_rel * np.abs(sol.y).max()
        checked.append((sol.polished, wrong.max(), tol))
        return sol

    monkeypatch.setattr(InteriorPointSolver, "solve", checking_solve)
    for kind in ("bound", "jump_in_place"):
        optimize(*materialize(shipped_scenarios()[kind]))
    assert any(polished for polished, _, _ in checked)
    assert all(wrong <= tol for _, wrong, tol in checked), checked


def test_direct_solve_is_exact_when_accepted_and_says_so_when_not():
    # On dense random QPs the working set of the bulk add/drop passes may
    # not settle within the pass cap; a solved status still certifies the
    # active-set solution, and anything else is reported, never returned as
    # solved.
    rng = np.random.default_rng(31)
    statuses = []
    for _ in range(20):
        qp, x0 = _random_qp(rng)
        sol = BandedActiveSetSolver(qp).solve()
        statuses.append(sol.status)
        if sol.solved:
            x_ref, _, _ = solve_active_set(qp, x0=x0)
            assert np.max(np.abs(sol.x - x_ref)) <= 1e-8
            assert max(kkt_residuals(qp, sol.x, sol.y)) <= 1e-8
        else:
            assert sol.status in ("max_iter", "stalled")
    assert statuses.count("solved") >= 5


def test_equality_constrained_matches_dense_kkt():
    rng = np.random.default_rng(5)
    for n in (5, 20, 50):
        m = n // 2
        B = rng.normal(size=(n, n))
        P = B.T @ B + 0.5 * np.eye(n)
        q = rng.normal(size=n)
        A = rng.normal(size=(m, n))
        b = rng.normal(size=m)
        K = np.block([[P, A.T], [A, np.zeros((m, m))]])
        ref = np.linalg.solve(K, np.concatenate([-q, b]))[:n]
        sol = InteriorPointSolver(_qp(P, q, A, b, b)).solve()
        assert sol.solved
        assert np.max(np.abs(sol.x - ref)) < 1e-8


def test_kkt_residuals_within_ten_tolerances():
    rng = np.random.default_rng(6)
    st = SolverSettings()
    for _ in range(5):
        qp, _ = _random_qp(rng)
        sol = InteriorPointSolver(qp, st).solve()
        assert sol.solved
        pri, dua, comp = kkt_residuals(qp, sol.x, sol.y)
        assert pri <= 10 * st.eps_abs + 1e-12
        assert dua <= 10 * st.eps_abs * max(1.0, np.abs(qp.q).max())
        assert comp <= 1e-6


@pytest.mark.parametrize("lo, hi, y", [(-np.inf, 1.0, 0.5), (-1.0, np.inf, -0.5)])
def test_kkt_residuals_report_a_multiplier_against_an_infinite_bound(lo, hi, y):
    # One row, x at its finite bound: the multiplier's sign decides whether
    # the pair is a KKT point. q makes P x + q = A' y hold exactly.
    x = hi if np.isfinite(hi) else lo
    P = np.array([[1.0]])
    qp = _qp(P, [-y - x], [[1.0]], [lo], [hi])
    assert kkt_residuals(qp, [x], [-y]) == (0.0, 0.0, 0.0)
    qp = _qp(P, [y - x], [[1.0]], [lo], [hi])
    assert kkt_residuals(qp, [x], [y]) == (0.0, 0.0, abs(y))


def test_primal_infeasible_certificate():
    # x >= 1 and x <= 0 cannot hold.
    qp = _qp([[1.0]], [0.0], [[1.0], [1.0]], [1.0, -np.inf], [np.inf, 0.0])
    sol = InteriorPointSolver(qp).solve()
    assert sol.status == "primal_infeasible"


@pytest.mark.parametrize("q, lo, hi", [
    (1.0, None, None),        # no rows: zero curvature, q pulls x down
    (-1.0, 1.0, np.inf),      # 100 x >= 1: unbounded as x grows
    (1.0, -np.inf, 5.0),      # 100 x <= 5: unbounded as x falls
    (-1.0, -np.inf, 5.0)],    # x grows until 100 x = 5
    ids=["no_rows", "open_above", "open_below", "bounded"])
def test_unbounded_qps_end_max_iter_and_a_bounded_one_solves(q, lo, hi):
    # A linear cost on one variable. No QP the block descent builds is
    # unbounded, and no certificate detects one: an unbounded QP spends its
    # whole iteration budget and is never reported solved.
    qp = _qp([[0.0]], [q]) if lo is None else _qp([[0.0]], [q], [[100.0]], [lo], [hi])
    settings = SolverSettings()
    sol = InteriorPointSolver(qp, settings).solve()
    if q < 0.0 and hi == 5.0:
        assert sol.solved and sol.x[0] == pytest.approx(0.05, abs=1e-9)
    else:
        assert (sol.status, sol.iterations) == ("max_iter", settings.max_iterations)


def test_rows_below_the_equality_gap_get_the_equality_penalty():
    # One equality test for the Newton matrix, the polish and the direct
    # solve: a row whose bounds differ by less than _EQUALITY_GAP is an
    # equality row, weighted 1/delta in the Newton matrix, with no slacks.
    qp = _qp(np.eye(2), [1.0, -1.0], [[1.0, 1.0], [1.0, -1.0]], [0.5, -1.0],
             [0.5 + 1e-13, 1.0])
    assert 0.0 < qp.hi[0] - qp.lo[0] < _EQUALITY_GAP
    h = InteriorPointSolver(qp)
    assert h._eq.tolist() == [0]
    assert h._rows.tolist() == [1, 1]  # the lower and upper bound of row 1
    factored = []
    band_factor = h._band_factor

    def recording(terms, w, shift):
        factored.append(w.copy())
        return band_factor(terms, w, shift)

    h._band_factor = recording
    assert h.solve().solved
    assert all(w[0] == 1.0 / _DELTA and w[1] < 1.0 / _DELTA for w in factored[:-1])


def test_max_iter_is_reported_not_silent():
    rng = np.random.default_rng(8)
    qp, _ = _random_qp(rng, n=20, m=30)
    h = InteriorPointSolver(qp, SolverSettings(max_iterations=1))
    sol = h.solve()
    assert sol.status == "max_iter"


def test_bounds_validation():
    with pytest.raises(ValueError, match="lo > hi"):
        _qp([[1.0]], [0.0], [[1.0]], [1.0], [0.0]).validate()


@pytest.mark.parametrize("bound", [np.inf, -np.inf])
def test_a_row_with_one_infinity_on_both_sides_is_rejected(bound):
    # No x meets A x >= +inf or A x <= -inf; such a row is rejected when the QP
    # is made, so no solver computes inf - inf in its equality test.
    with pytest.raises(ValueError, match=r"lo = \+inf or hi = -inf"):
        _qp([[1.0]], [0.0], [[1.0]], [bound], [bound])


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["eps_abs", "eps_rel", "max_iterations"])
def test_solver_settings_reject_non_finite_values(field, value):
    expected = "an integer" if field == "max_iterations" else "finite"
    with pytest.raises(ValueError, match=f"^{field} must be {expected}"):
        SolverSettings(**{field: value})


def test_pattern_sums_duplicates_and_keeps_zeros():
    pat = QpPattern.from_entries([0, 0, 1], [0, 0, 1], (2, 2))
    M = pat.a_matrix(pat.assemble(np.array([1.0, 2.0, 0.0])))
    assert M[0, 0] == 3.0
    assert M.nnz == 2  # explicit zero at (1, 1) survives
    M2 = pat.a_matrix(pat.assemble(np.array([5.0, 0.0, 7.0])))
    assert pattern_hash(M) == pattern_hash(M2)
    with pytest.raises(ValueError, match="entry values"):
        pat.assemble(np.array([1.0]))
    with pytest.raises(ValueError, match="out of range"):
        QpPattern.from_entries([0, 2], [0, 0], (2, 2))
