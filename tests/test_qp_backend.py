from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from centroidal_bcd.qp import (
    AdmmSolver,
    SolverSettings,
    SparseQP,
    TripletPattern,
    VariableLayout,
    kkt_residuals,
    pattern_hash,
    setup,
)
from centroidal_bcd.contact_qp import ContactQpInputs, build_contact_qp, nominal_footholds
from centroidal_bcd.force_qp import ForceQpInputs, build_force_qp
from centroidal_bcd.gaits import make_gait
from centroidal_bcd.qp.active_set import solve_active_set, solve_enumeration
from centroidal_bcd.qp.admm import _ALPHA, _RHO_MAX, _RHO_MIN, _RHO_START, _SIGMA
from centroidal_bcd.scenarios import materialize


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
    h = setup(_qp([[1.0]], [-1.0]))
    assert h.n == 1
    sol = h.solve()
    assert sol.solved
    assert sol.x[0] == pytest.approx(1.0, abs=1e-8)
    assert sol.objective == pytest.approx(-0.5, abs=1e-8)


def test_active_lower_bound_dual_sign():
    h = setup(_qp([[1.0]], [0.0], [[1.0]], [2.0], [np.inf]))
    sol = h.solve()
    assert sol.solved
    assert sol.x[0] == pytest.approx(2.0, abs=1e-8)
    assert sol.y[0] == pytest.approx(2.0, abs=1e-7)


def test_negative_eigenvalue_rejected_in_validating_mode():
    qp = _qp([[-1.0]], [0.0])
    with pytest.raises(ValueError, match="eigenvalue"):
        setup(qp, validate=True)


def test_solution_matches_enumeration_oracle():
    # Expected values come from the exhaustive active-set enumeration.
    rng = np.random.default_rng(42)
    qp, x0 = _random_qp(rng, n=20, m=10, one_sided=0.0)
    x_enum, y_enum, obj_enum = solve_enumeration(qp)
    sol = setup(qp, validate=False).solve()
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


def test_warm_start_previous_solution_converges_fast():
    rng = np.random.default_rng(1)
    qp, _ = _random_qp(rng, n=15, m=20)
    h = setup(qp, validate=False)
    first = h.solve()
    assert first.solved
    again = h.solve(warm_start=(first.x, first.y))
    assert again.solved
    assert again.iterations <= h.settings.check_termination_every


def test_update_q_reuses_factorization():
    rng = np.random.default_rng(2)
    qp, _ = _random_qp(rng, n=10, m=12)
    h = setup(qp, validate=False)
    sol = h.solve()
    base = h.kkt_refactorizations  # may include penalty adaptations of the first solve
    h.update_values(new_q=qp.q * 0.5)
    sol2 = h.solve(warm_start=(sol.x, sol.y))
    assert sol2.solved
    assert h.kkt_refactorizations == base  # no refactorization for a q-only update


def test_update_matrix_values_refactorizes_once():
    rng = np.random.default_rng(3)
    qp, _ = _random_qp(rng, n=10, m=12)
    h = setup(qp, validate=False)
    base = h.kkt_refactorizations
    newP = qp.P.copy()
    newP.data = newP.data * 1.5
    h.update_values(new_P_values=newP)
    assert h.kkt_refactorizations == base + 1
    # Raw data arrays of the setup pattern, as the BCD driver passes them.
    h.update_values(new_P_values=qp.P.data, new_A_values=qp.A.data * 2.0)
    assert h.kkt_refactorizations == base + 2


def test_update_rejects_pattern_mismatch():
    rng = np.random.default_rng(4)
    qp, _ = _random_qp(rng, n=8, m=9)
    h = setup(qp, validate=False)
    other = sp.csc_matrix(np.eye(8))
    with pytest.raises(ValueError, match="pattern"):
        h.update_values(new_P_values=other)
    with pytest.raises(ValueError, match="values"):
        h.update_values(new_A_values=np.zeros(qp.A.nnz + 1))


@pytest.mark.parametrize("field", ["P", "A", "q", "lo", "hi"])
def test_non_finite_data_is_named_not_solved(field):
    # A NaN used to come back as a false infeasibility certificate.
    qp, _ = _random_qp(np.random.default_rng(10), n=8, m=9, one_sided=0.0)
    values = {"P": qp.P.copy(), "A": qp.A.copy(), "q": qp.q.copy(), "lo": qp.lo.copy(),
              "hi": qp.hi.copy()}
    raw = values[field].data if field in ("P", "A") else values[field]
    update = {"P": "new_P_values", "A": "new_A_values", "q": "new_q", "lo": "new_lo",
              "hi": "new_hi"}[field]
    raw[0] = np.nan
    with pytest.raises(ValueError, match=f"^{field} "):
        setup(replace(qp, **values), validate=False)
    h = setup(qp, validate=False)
    with pytest.raises(ValueError, match=f"^{field} "):
        h.update_values(**{update: values[field]})
    raw[0] = -np.inf if field == "lo" else np.inf
    if field in ("lo", "hi"):
        h.update_values(**{update: values[field]})  # infinite bounds stay legal
        assert h.solve().solved
    else:
        with pytest.raises(ValueError, match=f"^{field} "):
            h.update_values(**{update: values[field]})


@pytest.fixture(scope="module")
def trot_qps():
    """Force and contact QPs of a trot at nominal geometry."""
    plan, refs, _, weights = materialize(make_gait("trot", N=60))
    p = nominal_footholds(plan, refs)
    ell = {(t, e): p[(t, e)] - refs.h_kin[t].r for t, e in plan.active_pairs()}
    force = build_force_qp(ForceQpInputs(plan=plan, ell_fixed=ell, p_fixed=p,
                                         references=refs, weights=weights))
    rng = np.random.default_rng(12)
    f = {pair: np.array([0.0, 0.0, 0.5 * plan.mass * 9.81]) + rng.normal(size=3)
         for pair in plan.active_pairs()}
    h_reg = tuple(refs.h_kin)
    contact = build_contact_qp(ContactQpInputs(
        plan=plan, f_fixed=f, l_reg=tuple(s.l for s in h_reg), h_reg=h_reg,
        references=refs, weights=weights, l_prox=100.0))
    return {"force": force, "contact": contact}


@pytest.mark.parametrize("rho_base", [_RHO_MIN, _RHO_START, _RHO_MAX])
@pytest.mark.parametrize("name", ["random", "force", "contact"])
def test_one_step_matches_dense_quasi_definite_kkt_solve(trot_qps, name, rho_base):
    if name == "random":  # dense, non-diagonal P
        qp, _ = _random_qp(np.random.default_rng(13), n=30, m=40)
    else:
        qp = trot_qps[name]
    h = setup(qp, SolverSettings(adaptive_penalty=False, polish=False), validate=False)
    h._rho_base = rho_base
    h._build_rho()
    h._factorize()
    rng = np.random.default_rng(14)
    x0, y0 = rng.normal(size=qp.n), rng.normal(size=qp.m_c)
    step = h.solve(warm_start=(x0, y0), max_iterations=1)

    # The same step through the full KKT system, in the handle's scaled
    # coordinates (the warm start maps into them as solve() does).
    Ps, As, rho = h._Ps.toarray(), h._As.toarray(), h._rho
    x, y = x0 / h._d, -h._c * y0 / h._e
    z = As @ x
    kkt = np.block([[Ps + _SIGMA * np.eye(qp.n), As.T], [As, -np.diag(1.0 / rho)]])
    sol = np.linalg.solve(kkt, np.concatenate([_SIGMA * x - h._qs, z - y / rho]))
    x_tilde, z_tilde = sol[:qp.n], z + (sol[qp.n:] - y) / rho
    zc = _ALPHA * z_tilde + (1.0 - _ALPHA) * z + y / rho
    z_next = np.clip(zc, h._los, h._his)
    x_next = h._d * (_ALPHA * x_tilde + (1.0 - _ALPHA) * x)
    y_next = -h._e * rho * (zc - z_next) / h._c

    def rel(a, b):
        return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)

    assert step.iterations == 1
    assert rel(step.x, x_next) < 1e-8
    assert rel(step.y, y_next) < 1e-8


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
        sol = setup(_qp(P, q, A, b, b), validate=False).solve()
        assert sol.solved
        assert np.max(np.abs(sol.x - ref)) < 1e-8


def test_kkt_residuals_within_ten_tolerances():
    rng = np.random.default_rng(6)
    st = SolverSettings()
    for _ in range(5):
        qp, _ = _random_qp(rng)
        sol = setup(qp, st, validate=False).solve()
        assert sol.solved
        pri, dua, comp = kkt_residuals(qp, sol.x, sol.y)
        assert pri <= 10 * st.eps_abs + 1e-12
        assert dua <= 10 * st.eps_abs * max(1.0, np.abs(qp.q).max())
        assert comp <= 1e-6


def test_primal_infeasible_certificate():
    # x >= 1 and x <= 0 cannot hold.
    qp = _qp([[1.0]], [0.0], [[1.0], [1.0]], [1.0, -np.inf], [np.inf, 0.0])
    sol = setup(qp, validate=False).solve()
    assert sol.status == "primal_infeasible"


def test_dual_infeasible_certificate():
    # Unbounded below: zero curvature along a descent direction.
    qp = _qp([[0.0]], [1.0])
    sol = setup(qp, validate=False).solve()
    assert sol.status == "dual_infeasible"


def test_max_iter_is_reported_not_silent():
    rng = np.random.default_rng(8)
    qp, _ = _random_qp(rng, n=20, m=30)
    h = setup(qp, SolverSettings(check_termination_every=50, max_iterations=1),
              validate=False)
    sol = h.solve()
    assert sol.status == "max_iter"


def test_bounds_validation():
    with pytest.raises(ValueError, match="lo > hi"):
        _qp([[1.0]], [0.0], [[1.0]], [1.0], [0.0]).validate()


def test_triplet_pattern_sums_duplicates_and_keeps_zeros():
    pat = TripletPattern([0, 0, 1], [0, 0, 1], shape=(2, 2))
    M = pat.assemble([1.0, 2.0, 0.0])
    assert M[0, 0] == 3.0
    assert M.nnz == 2  # explicit zero at (1, 1) survives
    M2 = pat.assemble([5.0, 0.0, 7.0])
    assert pattern_hash(M) == pattern_hash(M2)
    with pytest.raises(ValueError, match="slot"):
        pat.assemble([1.0])


def test_variable_layout_contracts():
    layout = VariableLayout(n=5, entries=(("r", 0, None, 0, 3), ("f", 0, "FL", 3, 5)))
    assert layout.span("r", 0) == slice(0, 3)
    assert layout.span("f", 0, "FL") == slice(3, 5)
    with pytest.raises(KeyError):
        layout.span("f", 1, "FL")
    with pytest.raises(ValueError, match="overlap"):
        VariableLayout(n=4, entries=(("r", 0, None, 0, 3), ("f", 0, "FL", 2, 4)))
    with pytest.raises(ValueError, match="cover"):
        VariableLayout(n=6, entries=(("r", 0, None, 0, 3),))
    entries = (("r", 0, None, 0, 3), ("p", 0, "FL", 3, 5))
    shared = VariableLayout(n=5, entries=entries, _lookup={("p", 1, "FL"): (3, 5)})
    assert shared.span("p", 1, "FL") == shared.span("p", 0, "FL") == slice(3, 5)
    for bad in ({("p", 1, "FL"): (3, 6)}, {("p", 1, "FL"): (4, 5)},
                {("r", 0, None): (3, 5)}):
        with pytest.raises(ValueError, match="entry range"):
            VariableLayout(n=5, entries=entries, _lookup=bad)
