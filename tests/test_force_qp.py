import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest

import centroidal_bcd.force_qp as force_qp_module

from centroidal_bcd.bcd import force_trajectory
from centroidal_bcd.contact_qp import nominal_footholds
from centroidal_bcd.force_qp import (
    CostWeights,
    ForceQpInputs,
    QpNotSolved,
    build_force_qp,
    extract_force_iterate,
    force_original_cost,
)
from centroidal_bcd.gaits import make_gait, shipped_scenarios
from centroidal_bcd.model import verify_trajectory
from centroidal_bcd.qp import InteriorPointSolver, QpSolution, SolverSettings
from centroidal_bcd.scenarios import materialize

from conftest import flat_foot_plan, hover_plan, hover_references, monopod_plan, pattern_hash, \
    qp_arrays


def _nominal_geometry(plan, refs):
    """(pairs, 3) lever arms and footholds at the phases' foothold hints, in
    ``plan.active_pairs()`` order."""
    p_fixed = np.array([plan.phase_at(t, e).foothold_hint for t, e in plan.active_pairs()])
    return p_fixed - refs[plan.pair_table.t, 0:3], p_fixed


def _inputs(plan, refs, weights=None, **kw):
    ell, p = _nominal_geometry(plan, refs)
    return ForceQpInputs(plan=plan, ell_fixed=ell, p_fixed=p, references=refs,
                         weights=weights or CostWeights(), **kw)


def test_single_step_point_contact_dimensions():
    plan = monopod_plan(N=1)
    refs = hover_references(plan)
    qp = build_force_qp(_inputs(plan, refs))
    assert qp.n == 12  # 9 state + 3 force
    eq_rows = int(np.sum((qp.hi - qp.lo) < 1e-14))
    assert eq_rows == 9  # transitions
    # Friction pyramid: |fx|<=mu fz, |fy|<=mu fz unfold to four one-sided rows,
    # which imply fz >= 0; the kinematic box is three two-sided rows. The
    # pair's rows come first, the timestep's transitions last.
    assert qp.m_c == 4 + 3 + 9
    finite_ineq_bounds = int(np.sum(np.isfinite(qp.lo[0:4])) + np.sum(np.isfinite(qp.hi[0:4])))
    assert finite_ineq_bounds == 4
    kin = slice(4, 7)
    assert np.all(np.isfinite(qp.lo[kin])) and np.all(np.isfinite(qp.hi[kin]))


def test_hover_equilibrium_force_distribution():
    # Static-equilibrium oracle: total vertical force mg, split equally by
    # symmetry; linear momentum stays at zero.
    plan = hover_plan(N=10)
    refs = hover_references(plan)
    qp = build_force_qp(_inputs(plan, refs))
    sol = InteriorPointSolver(qp, SolverSettings()).solve()
    assert sol.solved
    it = extract_force_iterate(sol, plan)
    forces = dict(zip(plan.active_pairs(), it.f))
    mg = plan.mass * 9.81
    for t in range(plan.horizon):
        total = sum(forces[(t, e)][2] for e in plan.effector_ids)
        assert total == pytest.approx(mg, abs=1e-6)
        for e in plan.effector_ids:
            assert forces[(t, e)][2] == pytest.approx(mg / 4, abs=1e-4)
        assert np.max(np.abs(it.h[t, 3:6])) < 1e-6


def test_zero_lever_arms_freeze_angular_momentum():
    plan = hover_plan(N=6)
    refs = hover_references(plan)
    ell, p = _nominal_geometry(plan, refs)
    ell = np.zeros_like(ell)
    qp = build_force_qp(ForceQpInputs(plan=plan, ell_fixed=ell, p_fixed=p, references=refs))
    sol = InteriorPointSolver(qp).solve()
    assert sol.solved
    it = extract_force_iterate(sol, plan)
    for k in it.h[:, 6:9]:
        assert np.max(np.abs(k - plan.h0[6:9])) < 1e-9


def test_extraction_round_trip_is_bijective():
    for plan in (hover_plan(N=4), flat_foot_plan()):
        refs = hover_references(plan)
        qp = build_force_qp(_inputs(plan, refs))
        s = force_qp_module._structure(plan)
        # The state, f, tau and z columns partition [0, n).
        cols = np.concatenate([c.reshape(-1) for c in
                               (s.state_cols, s.f_cols, s.tau_cols, s.z_cols)])
        assert s.n == qp.n and np.array_equal(np.sort(cols), np.arange(qp.n))
        rng = np.random.default_rng(0)
        x = rng.normal(size=qp.n)
        sol = QpSolution(x=x, y=np.zeros(qp.m_c), status="solved", objective=0.0,
                         iterations=1, solve_time=0.0)
        it = extract_force_iterate(sol, plan)
        rebuilt = np.empty(qp.n)
        for t in range(plan.horizon):
            rebuilt[s.state_cols[t]] = it.h[t]
        for quantity in ("f", "tau", "z"):
            for cols, value in zip(getattr(s, f"{quantity}_cols"), getattr(it, quantity)):
                rebuilt[cols] = value
        assert np.array_equal(rebuilt, x)


def test_infeasible_geometry_propagates_status():
    # Foothold pinned far below anything the CoM can reach in one step.
    plan = monopod_plan(N=2)
    refs = hover_references(plan)
    ell, p = _nominal_geometry(plan, refs)
    p = np.tile([0.0, 0.0, -2.0], (len(p), 1))
    qp = build_force_qp(ForceQpInputs(plan=plan, ell_fixed=ell, p_fixed=p, references=refs))
    sol = InteriorPointSolver(qp).solve()
    assert sol.status == "primal_infeasible"
    with pytest.raises(QpNotSolved, match="primal_infeasible"):
        extract_force_iterate(sol, plan)


def test_sparsity_pattern_invariant_to_lever_values():
    plan = hover_plan(N=5)
    refs = hover_references(plan)
    qp1 = build_force_qp(_inputs(plan, refs))
    ell, p = _nominal_geometry(plan, refs)
    rng = np.random.default_rng(1)
    ell2 = np.array([v + rng.normal(scale=0.05, size=3) for v in ell])
    qp2 = build_force_qp(ForceQpInputs(plan=plan, ell_fixed=ell2, p_fixed=p,
                                       references=refs, h_reg=refs,
                                       l_prox=123.0))
    assert pattern_hash(qp1.A) == pattern_hash(qp2.A)
    assert pattern_hash(qp1.P) == pattern_hash(qp2.P)
    assert not np.array_equal(qp1.A.data, qp2.A.data)


def test_block_banded_rows_touch_adjacent_timesteps_only():
    plan = hover_plan(N=6)
    refs = hover_references(plan)
    qp = build_force_qp(_inputs(plan, refs))
    A = qp.A.tocoo()
    # Column block boundaries per timestep (entry_step is per stored entry).
    starts = list(force_qp_module._structure(plan).state_cols[:, 0]) + [qp.n]
    entry_step = np.searchsorted(starts, A.col, side="right") - 1
    row_step = np.empty(qp.m_c, dtype=int)
    # Rows are emitted timestep-major; recover each row's timestep by the
    # maximum column timestep it touches.
    for r in range(qp.m_c):
        row_step[r] = entry_step[A.row == r].max()
    for pos in range(A.nnz):
        assert entry_step[pos] in (row_step[A.row[pos]], row_step[A.row[pos]] - 1)


def test_reduced_matrix_bands_at_24_in_the_builders_order():
    # Rows couple steps t-1 and t only, so the Newton matrix
    # P + delta I + A' W A has a narrow band whatever the horizon; a layout
    # that breaks time locality widens it. Each timestep lays its pairs out
    # before its state, so a pair's rows reach back to the previous state and
    # forward to its own: the builder's order bands the step matrix at 24,
    # where reverse Cuthill-McKee gets 34-38.
    docs = {**shipped_scenarios(), "trot N=600": make_gait("trot", N=600)}
    for kind, doc in docs.items():
        plan, refs, _, weights = materialize(doc)
        qp = build_force_qp(_inputs(plan, refs, weights))
        assert InteriorPointSolver(qp).half_bandwidth <= 24, kind


def test_proximal_weight_pulls_monotonically_toward_target():
    plan = monopod_plan(N=2)
    refs = hover_references(plan)
    target = np.hstack([refs[:, 0:3] + np.array([0.02, 0.0, 0.01]),
                        np.tile([0.1, 0, 0, 0, 0.01, 0], (plan.horizon, 1))])
    dists = []
    for L in (0.0, 1.0, 10.0, 100.0, 1e4, 1e6):
        qp = build_force_qp(_inputs(plan, refs, h_reg=target, l_prox=L))
        sol = InteriorPointSolver(qp).solve()
        assert sol.solved
        it = extract_force_iterate(sol, plan)
        d = sum(float(np.sum((h - tg) ** 2)) for h, tg in zip(it.h, target))
        dists.append(d)
    assert all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))


@pytest.mark.parametrize("field, value", [
    ("force", np.nan), ("foothold", np.inf), ("tracking", [1.0, np.nan, 1.0]),
    ("terminal", [np.inf] * 9),
])
def test_cost_weights_reject_non_finite_values(field, value):
    with pytest.raises(ValueError, match=f"^{field} (weight )?must be finite"):
        CostWeights(**{field: value})


def test_input_validation():
    plan = hover_plan(N=3)
    refs = hover_references(plan)
    ell, p = _nominal_geometry(plan, refs)
    with pytest.raises(ValueError, match="nonnegative"):
        CostWeights(force=-1.0)
    with pytest.raises(ValueError, match=r"^ell_fixed must have shape \(12, 3\), got \(11, 3\)"):
        ForceQpInputs(plan=plan, ell_fixed=ell[1:], p_fixed=p, references=refs)
    with pytest.raises(ValueError, match="regularization target"):
        ForceQpInputs(plan=plan, ell_fixed=ell, p_fixed=p, references=refs, l_prox=5.0)


def test_original_cost_matches_quadratic_objective_when_unregularized():
    # With no proximal term the QP objective differs from the original cost
    # only by the constant reference terms.
    plan = hover_plan(N=4)
    refs = hover_references(plan)
    w = CostWeights()
    qp = build_force_qp(_inputs(plan, refs, weights=w))
    sol = InteriorPointSolver(qp).solve()
    it = extract_force_iterate(sol, plan)
    const = 0.0
    for t in range(plan.horizon):
        track = w.tracking.copy()
        if t == plan.horizon - 1:
            track = track + w.terminal
        h_ref = refs[t]
        const += float(h_ref @ ((track + w.running_h) * h_ref))
    assert force_original_cost(it, refs, w, plan) == pytest.approx(
        sol.objective + const, abs=1e-6)


def test_flat_feet_carry_torques_and_centers_of_pressure():
    plan = flat_foot_plan()
    refs = hover_references(plan)
    ell, p = _nominal_geometry(plan, refs)
    qp = build_force_qp(_inputs(plan, refs))
    sol = InteriorPointSolver(qp).solve()
    assert sol.solved
    it = extract_force_iterate(sol, plan)
    flat = {pair for pair in plan.active_pairs() if plan.phase_at(*pair).flat_foot}
    assert {plan.active_pairs()[i] for i in np.flatnonzero(plan.pair_table.flat)} == flat
    assert it.tau.shape == (len(flat), 3) and it.z.shape == (len(flat), 2)
    report = verify_trajectory(force_trajectory(it, ell, p, plan), plan, tol=1e-6)
    assert report.feasible, report.as_dict()


def test_start_point_is_the_reference_at_static_equilibrium():
    # The state columns hold the reference, the pairs of each timestep share
    # the weight -m g equally (flat_foot_plan has one to three pairs per
    # timestep), and torques and offsets are zero.
    plan = flat_foot_plan()
    refs = hover_references(plan)
    qp = build_force_qp(_inputs(plan, refs))
    start = extract_force_iterate(QpSolution(x=qp.x0, y=np.zeros(qp.m_c), status="solved",
                                             objective=0.0, iterations=0, solve_time=0.0),
                                  plan)
    table = plan.pair_table
    assert np.array_equal(start.h, refs)
    pairs_at_t = np.diff(table.start)[table.t]
    assert np.allclose(start.f * pairs_at_t[:, None], -plan.mass * plan.gravity, rtol=1e-15)
    assert not start.tau.any() and not start.z.any()


def test_cold_solves_from_the_start_point_reach_the_zero_start_objective_sooner():
    # The first force QP optimize() builds, solved cold from its start point
    # and from x = 0: the same objective to the solver's tolerance, and fewer
    # iterations over the suite.
    docs = {**shipped_scenarios(), "trot N=300": make_gait("trot", N=300)}
    iterations = {"start point": 0, "zero": 0}
    settings = SolverSettings()
    for kind, doc in docs.items():
        plan, refs, _, weights = materialize(doc)
        p = nominal_footholds(plan, refs)
        qp = build_force_qp(ForceQpInputs(
            plan=plan, ell_fixed=p - refs[plan.pair_table.t, 0:3], p_fixed=p,
            references=refs, weights=weights))
        assert qp.x0 is not None and qp.x0.any(), kind
        from_start = InteriorPointSolver(qp, settings).solve()
        from_zero = InteriorPointSolver(replace(qp, x0=None), settings).solve()
        assert from_start.solved and from_zero.solved, kind
        assert not from_start.warm_started, kind
        tol = settings.eps_abs + settings.eps_rel * abs(from_zero.objective)
        assert abs(from_start.objective - from_zero.objective) <= tol, kind
        iterations["start point"] += from_start.iterations
        iterations["zero"] += from_zero.iterations
    assert iterations["start point"] < iterations["zero"], iterations


def test_cached_structure_keeps_builds_independent():
    # The plan-only structure is cached; each build must still return its own
    # arrays, determined by its own inputs alone.
    plan_a, plan_b = flat_foot_plan(), hover_plan(N=4)
    refs_a = hover_references(plan_a)
    x = _inputs(plan_a, refs_a)
    rng = np.random.default_rng(4)
    y = ForceQpInputs(plan=plan_a,
                      ell_fixed=x.ell_fixed + rng.normal(scale=0.05, size=x.ell_fixed.shape),
                      p_fixed=x.p_fixed + 0.01,
                      references=refs_a, h_reg=refs_a, l_prox=3.0)
    first = build_force_qp(x)
    expected = qp_arrays(first)
    first.A.data[:] = 7.0
    first.lo[:] = -7.0
    second = build_force_qp(y)
    assert not np.array_equal(second.A.data, expected[5])
    second.A.data[:] = 5.0
    second.lo[:] = -5.0
    build_force_qp(_inputs(plan_b, hover_references(plan_b)))
    for got, want in zip(qp_arrays(build_force_qp(x)), expected):
        assert np.array_equal(got, want)


def test_cached_structure_is_released_with_its_plan():
    plan = hover_plan(N=3)
    structure = weakref.ref(force_qp_module._structure(plan))
    build_force_qp(_inputs(plan, hover_references(plan)))
    assert structure() is force_qp_module._structure(plan)  # built once
    del plan
    gc.collect()
    assert structure() is None
