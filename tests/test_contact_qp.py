from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, strategies as st
from scipy.sparse.csgraph import connected_components

import centroidal_bcd.bcd as bcd_module
from centroidal_bcd.contact_qp import (
    _structure,
    _surface_rows,
    ContactQpInputs,
    build_contact_qp,
    extract_contact_iterate,
    nominal_footholds,
)
from centroidal_bcd.force_qp import ForceQpInputs, _structure as force_structure, build_force_qp, \
    extract_force_iterate
from centroidal_bcd.gaits import make_gait, shipped_scenarios
from centroidal_bcd.model import Polytope, integrate_step, polygon_to_halfspaces, skew
from centroidal_bcd.qp import BandedActiveSetSolver, InteriorPointSolver, QpSolution, \
    SolverSettings
from centroidal_bcd.qp.active_set import solve_active_set
from centroidal_bcd.scenarios import materialize
from centroidal_bcd.structure import CostWeights

from conftest import flat_foot_plan, flat_patch, hover_plan, hover_references, monopod_plan, \
    pattern_hash, qp_arrays

vec3 = st.lists(st.floats(-50, 50, allow_nan=False), min_size=3, max_size=3)


def _zero_weights(**kw):
    base = dict(tracking=np.zeros(9), running_h=np.zeros(9), terminal=np.zeros(9),
                force=0.0, torque=0.0, zmp=0.0, foothold=1.0)
    base.update(kw)
    return CostWeights(**base)


def _contact_inputs(plan, refs, f_fixed, h_reg, weights=None, **kw):
    return ContactQpInputs(plan=plan, f_fixed=f_fixed, h_reg=h_reg,
                           references=refs, weights=weights or CostWeights(), **kw)


def test_zero_forces_keep_angular_momentum_and_nominal_footholds():
    plan = hover_plan(N=6)
    refs = hover_references(plan)
    f0 = np.zeros((len(plan.active_pairs()), 3))
    qp = build_contact_qp(_contact_inputs(plan, refs, f0, refs, l_prox=100.0))
    sol = InteriorPointSolver(qp).solve()
    assert sol.solved
    it = extract_contact_iterate(sol, plan)
    for k in it.h[:, 6:9]:
        assert np.max(np.abs(k - plan.h0[6:9])) < 1e-9
    for (t, e), p in zip(plan.active_pairs(), it.p):
        hint = plan.phase_at(t, e).foothold_hint
        assert np.max(np.abs(p - hint)) < 1e-6


def test_single_step_lever_matches_scalar_kkt_oracle():
    # One timestep, fixed vertical force; the optimum trades the proximal cost
    # of moving the CoM (and the momentum it implies) against the foothold
    # penalty to meet an angular momentum target. Expected offset from the
    # stationarity system of the reduced scalar problem.
    plan = monopod_plan(N=1, mass=1.0)
    dt = plan.dt
    fz = 10.0
    K = -0.1  # target k_y after one step
    L, w_p = 10.0, 1.0
    f0 = np.array([[0.0, 0.0, fz]])
    h_reg = np.concatenate([plan.h0[0:3], np.zeros(3), [0.0, K, 0.0]])[None]
    weights = _zero_weights(foothold=w_p)
    qp = build_contact_qp(_contact_inputs(plan, h_reg, f0, h_reg, weights=weights,
                                          l_prox=L))
    sol = InteriorPointSolver(qp).solve()
    assert sol.solved
    it = extract_contact_iterate(sol, plan)
    d_x = (it.h[0, 0:3] - it.p[0])[0]

    # Oracle: J(a, b) = (L/2) ((c(a+b) - K)^2 + a^2 + (a/dt)^2) + w_p b^2 with
    # c = dt * fz, a the CoM shift, b the negative foothold shift, k free.
    c = dt * fz
    H = np.array([[L / 2 * (1 + 1 / dt ** 2) + L / 2 * c * c, L / 2 * c * c],
                  [L / 2 * c * c, w_p + L / 2 * c * c]]) * 2.0
    g = -2.0 * np.array([L / 2 * c * K, L / 2 * c * K])
    a, b = np.linalg.solve(H, -g)
    assert d_x == pytest.approx(a + b, abs=1e-8)
    # With a stiff angular momentum pull (and a target small enough that no
    # box constraint activates) the lever approaches K / (dt fz).
    K2 = -0.02
    h_reg2 = np.concatenate([plan.h0[0:3], np.zeros(3), [0.0, K2, 0.0]])[None]
    qp2 = build_contact_qp(_contact_inputs(
        plan, h_reg2, f0, h_reg2,
        weights=_zero_weights(foothold=1e-6), l_prox=1e6))
    it2 = extract_contact_iterate(InteriorPointSolver(qp2).solve(), plan)
    d2 = (it2.h[0, 0:3] - it2.p[0])[0]
    assert d2 == pytest.approx(K2 / (dt * fz), abs=1e-3)


def test_point_contact_lever_is_foot_minus_com():
    plan = hover_plan(N=4)
    refs = hover_references(plan)
    f0 = np.tile([0.0, 0.0, plan.mass * 9.81 / 4], (len(plan.active_pairs()), 1))
    qp = build_contact_qp(_contact_inputs(plan, refs, f0, refs, l_prox=100.0))
    sol = InteriorPointSolver(qp).solve()
    it = extract_contact_iterate(sol, plan)
    for t, ell, p in zip(plan.pair_table.t, it.ell, it.p):
        assert np.allclose(ell, p - it.h[t, 0:3])


def test_hover_lever_arms_match_nominal_offsets():
    # Symmetric-equilibrium oracle: after one force + contact round the lever
    # arms recover the nominal stance offsets.
    plan = hover_plan(N=8)
    refs = hover_references(plan)
    geometry = nominal_footholds(plan, refs)
    ell0 = geometry - refs[plan.pair_table.t, 0:3]
    fqp = build_force_qp(ForceQpInputs(plan=plan, ell_fixed=ell0, p_fixed=geometry,
                                       references=refs))
    fit = extract_force_iterate(InteriorPointSolver(fqp).solve(), plan)
    cqp = build_contact_qp(_contact_inputs(plan, refs, fit.f, fit.h, l_prox=100.0))
    cit = extract_contact_iterate(InteriorPointSolver(cqp).solve(), plan)
    for (t, e), ell in zip(plan.active_pairs(), cit.ell):
        assert np.max(np.abs(ell - plan.nominal_offsets[e])) < 1e-3


def _assert_same_entries(got, expected):
    assert list(got) == list(expected)
    for key, value in expected.items():
        assert got[key].tobytes() == value.tobytes(), key


def test_extraction_gathers_what_a_per_entry_scan_reads():
    # Random solution vectors: extraction is pure indexing, so every value
    # must equal the per-(t, effector) slice of the structure's columns bit
    # for bit, in the same order.
    plan = flat_foot_plan()
    cases = [(plan, hover_references(plan)), materialize(make_gait("walk"))[:2]]
    rng = np.random.default_rng(8)
    for plan, refs in cases:
        p_nom = nominal_footholds(plan, refs)
        ell = p_nom - refs[plan.pair_table.t, 0:3]
        fqp = build_force_qp(ForceQpInputs(plan=plan, ell_fixed=ell, p_fixed=p_nom,
                                           references=refs))
        x = rng.normal(size=fqp.n)
        fit = extract_force_iterate(QpSolution(x, np.zeros(fqp.m_c), "solved", 0.0, 0, 0.0),
                                    plan)
        pairs = plan.active_pairs()
        flat = [pair for pair, is_flat in zip(pairs, plan.pair_table.flat) if is_flat]
        fs = force_structure(plan)
        parts = {quantity: {key: x[cols].copy() for key, cols in zip(keys, quantity_cols)}
                 for quantity, keys, quantity_cols in (("f", pairs, fs.f_cols),
                                                       ("tau", flat, fs.tau_cols))}
        _assert_same_entries(dict(zip(pairs, fit.f)), parts["f"])
        _assert_same_entries(dict(zip(flat, fit.tau)), parts["tau"])

        cqp = build_contact_qp(_contact_inputs(plan, refs, fit.f, fit.h, tau_fixed=fit.tau,
                                               l_prox=100.0))
        x = rng.normal(size=cqp.n)
        cit = extract_contact_iterate(QpSolution(x, np.zeros(cqp.m_c), "solved", 0.0, 0, 0.0),
                                      plan)
        cs = _structure(plan)
        z_cols = dict(zip(flat, cs.z_cols))
        footholds, zmps, ells = {}, {}, {}
        for (t, e), p_cols in zip(pairs, cs.p_cols):
            ph = plan.phase_at(t, e)
            footholds[(t, e)] = x[p_cols].copy()
            ells[(t, e)] = footholds[(t, e)] - cit.h[t, 0:3]
            if ph.flat_foot:
                zmps[(t, e)] = x[z_cols[(t, e)]].copy()
                ells[(t, e)] = ells[(t, e)] + ph.rotation[:, :2] @ zmps[(t, e)]
        _assert_same_entries(dict(zip(pairs, cit.p)), footholds)
        _assert_same_entries(dict(zip(flat, cit.z)), zmps)
        _assert_same_entries(dict(zip(pairs, cit.ell)), ells)
        assert any(ph.flat_foot for ph in plan.phases) == bool(zmps)


def test_every_column_reaches_a_state_through_the_constraints():
    # A column whose constraint rows touch no state column is decoupled from
    # the dynamics: nothing the trajectory depends on reads it. Each column,
    # taken through A's rows, must reach some timestep's (r, l, k).
    docs = {kind: materialize(doc)[:2] for kind, doc in shipped_scenarios().items()}
    flat = flat_foot_plan()
    docs["flat_foot_plan"] = (flat, hover_references(flat))
    for kind, (plan, refs) in docs.items():
        p = nominal_footholds(plan, refs)
        f = np.tile([0.0, 0.0, 1.0], (p.shape[0], 1))
        qps = {"force": (build_force_qp(ForceQpInputs(
                   plan=plan, ell_fixed=p - refs[plan.pair_table.t, 0:3], p_fixed=p,
                   references=refs)), force_structure(plan)),
               "contact": (build_contact_qp(_contact_inputs(plan, refs, f, refs)),
                           _structure(plan))}
        for block, (qp, s) in qps.items():
            A = qp.A.tocsc()
            pattern = sp.csc_matrix((np.ones(A.nnz), A.indices, A.indptr), shape=A.shape)
            _, label = connected_components(pattern.T @ pattern, directed=False)
            lonely = ~np.isin(label, label[s.state_cols.reshape(-1)])
            assert not lonely.any(), (kind, block, np.flatnonzero(lonely))


@given(vec3, vec3, vec3, vec3)
def test_cross_product_rearrangement_identity(r, p, f, tau):
    # kappa written with the force on the left equals the lever-arm form.
    r, p, f, tau = map(np.array, (r, p, f, tau))
    z = np.array([0.01, -0.02])
    R = np.eye(3)
    ell = p - r + R[:, :2] @ z
    kappa_force_side = skew(ell) @ f + tau
    kappa_contact_side = np.cross(f, r - p) - np.cross(f, R[:, :2] @ z) + tau
    assert np.allclose(kappa_force_side, kappa_contact_side, atol=1e-9)


def test_extracted_momentum_satisfies_transitions():
    plan = hover_plan(N=6)
    refs = hover_references(plan)
    rng = np.random.default_rng(2)
    f0 = np.array([[rng.normal(0, 1), rng.normal(0, 1), rng.uniform(4, 8)]
                   for _ in plan.active_pairs()])
    qp = build_contact_qp(_contact_inputs(plan, refs, f0, refs, l_prox=50.0))
    sol = InteriorPointSolver(qp).solve()
    it = extract_contact_iterate(sol, plan)
    forces, footholds = (dict(zip(plan.active_pairs(), a)) for a in (f0, it.p))
    prev_k = plan.h0[6:9]
    for t in range(plan.horizon):
        kappa = np.zeros(3)
        for ph in plan.active_contacts(t):
            e = ph.end_effector_id
            kappa += np.cross(forces[(t, e)], it.h[t, 0:3] - footholds[(t, e)])
        expected = prev_k + kappa * plan.dt
        assert np.max(np.abs(it.h[t, 6:9] - expected)) < 1e-7
        prev_k = it.h[t, 6:9]


def test_footholds_constant_within_phase_and_inside_surface():
    plan = hover_plan(N=7)
    refs = hover_references(plan)
    f0 = np.tile([0.1, -0.2, 6.0], (len(plan.active_pairs()), 1))
    qp = build_contact_qp(_contact_inputs(plan, refs, f0, refs, l_prox=100.0))
    it = extract_contact_iterate(InteriorPointSolver(qp).solve(), plan)
    footholds = dict(zip(plan.active_pairs(), it.p))
    for e in plan.effector_ids:
        ps = [footholds[(t, e)] for t in range(plan.horizon)]
        for p in ps[1:]:
            assert np.array_equal(p, ps[0])  # one shared variable per phase
        ph = plan.phase_at(0, e)
        assert ph.surface.violation(ps[0]) <= 1e-7


def test_phase_foothold_balances_every_timesteps_pulls():
    # With zero forces the footholds only meet their cost, surface and box.
    # Each timestep pulls its copy toward the nominal placement and toward
    # the previous solve's foothold of that timestep; tied together, the
    # phase foothold minimizes the sum of those pulls.
    plan = hover_plan(N=6)
    refs = hover_references(plan)
    f0 = np.zeros((len(plan.active_pairs()), 3))
    w_p, prox = 1.0, 3.0
    nominal = nominal_footholds(plan, refs)
    rng = np.random.default_rng(9)
    p_reg = nominal + np.column_stack([rng.normal(0.0, 0.02, size=(len(nominal), 2)),
                                       np.zeros(len(nominal))])
    qp = build_contact_qp(_contact_inputs(plan, refs, f0, refs,
                                          _zero_weights(foothold=w_p), l_prox=prox,
                                          p_reg=p_reg))
    it = extract_contact_iterate(InteriorPointSolver(qp).solve(), plan)
    phase = plan.pair_table.phase
    for j in range(len(plan.phases)):
        pulls = (2.0 * w_p * nominal[phase == j] + prox * p_reg[phase == j]) / (2.0 * w_p + prox)
        assert np.max(np.abs(it.p[phase == j] - pulls.mean(axis=0))) < 1e-6


def test_pattern_stable_under_different_forces():
    plan = hover_plan(N=5)
    refs = hover_references(plan)
    pairs = len(plan.active_pairs())
    f1 = np.zeros((pairs, 3))
    f2 = np.tile([1.0, 2.0, 3.0], (pairs, 1))
    qp1 = build_contact_qp(_contact_inputs(plan, refs, f1, refs, l_prox=1.0))
    qp2 = build_contact_qp(_contact_inputs(plan, refs, f2, refs,
                                           l_prox=7.0, p_reg=nominal_footholds(plan, refs)))
    assert pattern_hash(qp1.A) == pattern_hash(qp2.A)
    assert pattern_hash(qp1.P) == pattern_hash(qp2.P)


def test_a_phase_reads_its_foothold_from_its_first_copy_and_columns_partition():
    # One foothold per phase: every timestep of a phase reads it from the
    # columns of the phase's first copy, and the state, copy and z columns
    # cover [0, n) once each.
    for plan in (materialize(make_gait("trot", N=60))[0], flat_foot_plan()):
        s = _structure(plan)
        first = {}
        for (t, e), p_cols, copy_cols in zip(plan.active_pairs(), s.p_cols, s.copy_cols):
            t0 = plan.phase_at(t, e).t_start
            if t == t0:
                first[(t0, e)] = copy_cols
            assert np.array_equal(p_cols, first[(t0, e)])
        cols = np.concatenate([c.reshape(-1) for c in (s.state_cols, s.copy_cols, s.z_cols)])
        assert np.array_equal(np.sort(cols), np.arange(s.n))


@pytest.mark.parametrize("value", [np.nan, np.inf, -1.0])
@pytest.mark.parametrize("block", ["force", "contact"])
def test_an_unusable_proximal_weight_is_named(block, value):
    # NaN passed, and the handle then reported non-finite P values without
    # naming the field; infinity warned in the build's arithmetic first.
    plan = hover_plan(N=3)
    refs = hover_references(plan)
    p = nominal_footholds(plan, refs)
    with pytest.raises(ValueError, match="^l_prox must be finite and >= 0, got "):
        if block == "force":
            ForceQpInputs(plan=plan, ell_fixed=p - refs[plan.pair_table.t, 0:3], p_fixed=p,
                          references=refs, h_reg=refs, l_prox=value)
        else:
            _contact_inputs(plan, refs, np.zeros_like(p), refs, l_prox=value)


def test_missing_force_rejected():
    plan = hover_plan(N=3)
    refs = hover_references(plan)
    partial = np.zeros((len(plan.active_pairs()) - 1, 3))
    with pytest.raises(ValueError, match=r"^f_fixed must have shape \(12, 3\), got \(11, 3\)"):
        _contact_inputs(plan, refs, partial, refs)


def test_flat_foot_momentum_includes_center_of_pressure_and_torque():
    # Angular momentum rows carry ell x f + tau with ell = p - r + R^{xy} z.
    plan = flat_foot_plan()
    refs = hover_references(plan)
    rng = np.random.default_rng(6)
    f0 = np.array([[rng.normal(0, 1), rng.normal(0, 1), rng.uniform(4, 8)]
                   for _ in plan.active_pairs()])
    flat = [pair for pair in plan.active_pairs() if plan.phase_at(*pair).flat_foot]
    # The first flat pair carries no torque.
    tau = np.array([np.zeros(3)] + [rng.normal(0, 0.05, size=3) for _ in flat[1:]])
    qp = build_contact_qp(_contact_inputs(plan, refs, f0, refs, l_prox=50.0,
                                          tau_fixed=tau))
    sol = InteriorPointSolver(qp).solve()
    assert sol.solved
    it = extract_contact_iterate(sol, plan)
    assert np.array_equal(np.flatnonzero(plan.pair_table.flat),
                          [plan.active_pairs().index(pair) for pair in flat])
    assert len(it.z) == len(flat)
    assert np.max(np.abs(it.z)) > 1e-4
    forces, footholds, ells = (dict(zip(plan.active_pairs(), a)) for a in (f0, it.p, it.ell))
    zmps, torques = dict(zip(flat, it.z)), dict(zip(flat, tau))
    prev_k = plan.h0[6:9]
    for t in range(plan.horizon):
        kappa = np.zeros(3)
        for ph in plan.active_contacts(t):
            pair = (t, ph.end_effector_id)
            ell = footholds[pair] - it.h[t, 0:3]
            if ph.flat_foot:
                ell = ell + ph.rotation[:, :2] @ zmps[pair]
            assert np.allclose(ell, ells[pair])
            kappa += np.cross(ell, forces[pair]) + torques.get(pair, np.zeros(3))
        assert np.max(np.abs(it.h[t, 6:9] - (prev_k + kappa * plan.dt))) < 1e-7
        prev_k = it.h[t, 6:9]


def test_cached_structure_keeps_builds_independent():
    # The plan-only structure is cached; each build must still return its own
    # arrays, determined by its own inputs alone.
    plan_a, plan_b = flat_foot_plan(), hover_plan(N=4)
    refs_a, refs_b = hover_references(plan_a), hover_references(plan_b)
    pairs, flat = len(plan_a.active_pairs()), int(plan_a.pair_table.flat.sum())
    x = _contact_inputs(plan_a, refs_a, np.tile([0.1, -0.2, 6.0], (pairs, 1)),
                        refs_a, l_prox=10.0,
                        tau_fixed=np.tile([0.01, 0.0, -0.02], (flat, 1)))
    rng = np.random.default_rng(7)
    y = _contact_inputs(plan_a, refs_a, np.array([rng.normal(size=3) for _ in range(pairs)]),
                        refs_a, l_prox=30.0,
                        p_reg=nominal_footholds(plan_a, refs_a),
                        tau_fixed=np.array([rng.normal(size=3) for _ in range(flat)]))
    first = build_contact_qp(x)
    expected = qp_arrays(first)
    first.A.data[:] = 7.0
    with pytest.raises(ValueError, match="read-only"):
        first.lo[:] = -7.0
    second = build_contact_qp(y)
    assert not np.array_equal(second.A.data, expected[5])
    assert not np.array_equal(second.lo, expected[7])
    second.A.data[:] = 5.0
    with pytest.raises(ValueError, match="read-only"):
        second.lo[:] = -5.0
    f_b = np.zeros((len(plan_b.active_pairs()), 3))
    build_contact_qp(_contact_inputs(plan_b, refs_b, f_b, refs_b))
    for got, want in zip(qp_arrays(build_contact_qp(x)), expected):
        assert np.array_equal(got, want)


def test_reduced_matrix_bands_at_24_on_the_shipped_suite_and_a_long_trot():
    # Each foothold copy couples timesteps t-1 and t only, so the Newton
    # matrix keeps a narrow band in the builder's order; a variable shared by
    # a whole phase widens it to the phase length.
    docs = {**shipped_scenarios(), "trot N=600": make_gait("trot", N=600)}
    for kind, doc in docs.items():
        plan, refs, _, weights = materialize(doc)
        f0 = np.tile([0.0, 0.0, plan.mass * 9.81 / 4], (len(plan.active_pairs()), 1))
        qp = build_contact_qp(_contact_inputs(plan, refs, f0, refs, weights,
                                              l_prox=100.0))
        assert InteriorPointSolver(qp).half_bandwidth <= 24, kind


@pytest.fixture(scope="module")
def shipped_contact_solves():
    """Every contact solve of the shipped suite: the plan, the QP, the
    solution optimize() extracted, and the factorizations its direct solve
    used; plus the QPs interior-point handles were built from and the
    results."""
    solves, ipm_qps, results = [], [], []
    real_build = bcd_module.build_contact_qp
    real_extract = bcd_module.extract_contact_iterate
    real_solve = BandedActiveSetSolver.solve
    real_ipm = InteriorPointSolver.__init__

    def build(inputs):
        qp = real_build(inputs)
        solves.append({"qp": qp})
        return qp

    def solve(self):
        before = self.factorizations
        sol = real_solve(self)
        solves[-1]["factorizations"] = self.factorizations - before
        return sol

    def extract(sol, plan):
        solves[-1].update(sol=sol, plan=plan)
        return real_extract(sol, plan)

    def ipm(self, qp, *args, **kwargs):
        ipm_qps.append(qp)
        real_ipm(self, qp, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bcd_module, "build_contact_qp", build)
        mp.setattr(bcd_module, "extract_contact_iterate", extract)
        mp.setattr(BandedActiveSetSolver, "solve", solve)
        mp.setattr(InteriorPointSolver, "__init__", ipm)
        for kind, doc in shipped_scenarios().items():
            plan, refs, settings, weights = materialize(doc)
            results.append(bcd_module.optimize(plan, refs, settings, weights))
    return solves, ipm_qps, results


def test_foothold_copies_match_their_phase_foothold_on_the_shipped_suite(
        shipped_contact_solves):
    # Extraction reads the phase foothold; the copies the kinematic and
    # momentum rows see must agree with it. The direct solve ties them to
    # the precision of its refined equality rows.
    solves, _, _ = shipped_contact_solves
    assert len(solves) >= len(shipped_scenarios())
    for solve in solves:
        sol, plan = solve["sol"], solve["plan"]
        s = _structure(plan)
        later = ~plan.pair_table.first
        assert not np.any(np.isin(s.copy_cols[later], s.p_cols))
        assert np.max(np.abs(sol.x[s.copy_cols] - sol.x[s.p_cols])) <= 1e-10


def test_contact_block_solves_directly_on_the_shipped_suite(shipped_contact_solves):
    # Every contact QP is accepted in at most two factorizations; no
    # interior-point handle, so no Ruiz scaling and no Newton factorization,
    # is ever built from a contact QP.
    solves, ipm_qps, results = shipped_contact_solves
    assert all(solve["sol"].solved and 1 <= solve["factorizations"] <= 2 for solve in solves)
    assert len(ipm_qps) == len(results)  # one force handle per optimize()
    contact_qps = {id(solve["qp"]) for solve in solves}
    assert not any(id(qp) in contact_qps for qp in ipm_qps)


def test_direct_contact_solve_matches_admm_on_the_shipped_suite(shipped_contact_solves):
    # The reference is the interior-point method (which replaced ADMM) at
    # 1e-9, as ADMM was: at 1e-7 ADMM stopped with equality rows off by up to
    # 1e-8, enough to lower the objective by up to 4.7e-8 relative.
    solves, _, _ = shipped_contact_solves
    eps_abs = SolverSettings().eps_abs
    tight = SolverSettings(eps_abs=1e-9, eps_rel=1e-9)
    for solve in solves:
        qp, sol = solve["qp"], solve["sol"]
        ipm = InteriorPointSolver(qp, tight).solve()
        assert ipm.solved
        assert sol.objective <= ipm.objective + 1e-8 * abs(ipm.objective)
        ax = qp.A @ sol.x
        inequality = qp.hi - qp.lo > 1e-12
        violation = np.maximum(qp.lo - ax, ax - qp.hi)[inequality]
        assert violation.max() <= eps_abs


def _direct_and_oracle(qp):
    h = BandedActiveSetSolver(qp)
    sol = h.solve()
    assert sol.solved
    x_ref, _, obj_ref = solve_active_set(qp)
    return h, sol, x_ref, obj_ref


def test_direct_contact_solve_matches_the_dense_active_set_oracle():
    flat = flat_foot_plan()
    trot = materialize(make_gait("trot", N=20))[:2]
    for plan, refs in ((flat, hover_references(flat)), trot):
        rng = np.random.default_rng(3)
        f0 = np.column_stack([rng.normal(0.0, 1.0, size=(len(plan.active_pairs()), 2)),
                              rng.uniform(4.0, 8.0, size=len(plan.active_pairs()))])
        qp = build_contact_qp(_contact_inputs(plan, refs, f0, refs, l_prox=100.0))
        _, sol, x_ref, obj_ref = _direct_and_oracle(qp)
        assert np.max(np.abs(sol.x - x_ref)) <= 1e-8
        assert sol.objective == pytest.approx(obj_ref, rel=1e-9)


def _kinematic_rows(qp, plan):
    return np.flatnonzero((qp.lo == -plan.kinematic_limit) & (qp.hi == plan.kinematic_limit))


def test_direct_solve_adds_the_violated_kinematic_rows():
    # The hover footholds sit 0.22 m below the reference CoM, out of reach
    # of a 0.2 m kinematic box: the first pass, on the equality rows alone,
    # violates the vertical box rows, which the second pass holds.
    plan = replace(hover_plan(N=4), kinematic_limit=0.2)
    refs = hover_references(plan)
    f0 = np.tile([0.0, 0.0, plan.mass * 9.81 / 4], (len(plan.active_pairs()), 1))
    qp = build_contact_qp(_contact_inputs(plan, refs, f0, refs, l_prox=100.0))
    h, sol, x_ref, _ = _direct_and_oracle(qp)
    assert sol.iterations == h.factorizations == 2
    held = np.flatnonzero(h.working_set)
    assert held.size and np.isin(held, _kinematic_rows(qp, plan)).all()
    assert np.max(np.abs(sol.x - x_ref)) <= 1e-8
    # The next solve starts from that working set and is accepted at once.
    assert h.solve().iterations == 1


def test_direct_solve_drops_a_row_held_with_the_wrong_sign():
    # Holding a kinematic row at its upper bound pulls the foothold away
    # from where it rests; its multiplier has the wrong sign, the second
    # pass frees the row and lands on the solution.
    plan = hover_plan(N=4)
    refs = hover_references(plan)
    f0 = np.tile([0.0, 0.0, plan.mass * 9.81 / 4], (len(plan.active_pairs()), 1))
    qp = build_contact_qp(_contact_inputs(plan, refs, f0, refs, l_prox=100.0))
    h = BandedActiveSetSolver(qp)
    h.working_set[_kinematic_rows(qp, plan)[0]] = 1
    sol = h.solve()
    assert sol.solved and sol.iterations == 2
    assert not h.working_set.any()
    clean = BandedActiveSetSolver(qp).solve()
    assert clean.iterations == 1
    assert np.max(np.abs(sol.x - clean.x)) <= 1e-12


def test_plane_pins_become_equality_rows():
    plane = polygon_to_halfspaces([[0.0, 0.0, 0.1], [0.3, 0.0, 0.1], [0.3, 0.2, 0.1],
                                   [0.0, 0.2, 0.1]])
    count, A, lo, hi = _surface_rows([plane])
    assert np.array_equal(count, [5])
    assert A.shape == (5, 3) and np.sum(lo == hi) == 1
    assert lo[0] == hi[0] == plane.b[0] and np.array_equal(A[0], plane.A[0])
    assert np.array_equal(A[1:], plane.A[2:]) and np.array_equal(hi[1:], plane.b[2:])
    assert np.all(lo[1:] == -np.inf)
    # A halfspace surface with an exact opposite pair merges it in place of
    # its first row; one whose pair bounds a slab keeps both rows.
    patch = flat_patch(0.1, -0.2, z=0.05)
    count, A, lo, hi = _surface_rows([patch])
    assert A.shape == (5, 3) and lo[0] == hi[0] == 0.05
    assert np.array_equal(A[1:], patch.A[2:]) and np.all(lo[1:] == -np.inf)
    slab = Polytope(patch.A, patch.b + np.array([0.01, 0, 0, 0, 0, 0]))
    count, A, lo, hi = _surface_rows([slab])
    assert np.array_equal(A, slab.A) and np.array_equal(hi, slab.b) and np.all(lo == -np.inf)
    # All surfaces at once: each keeps its own rows, in order.
    count, A, lo, hi = _surface_rows([plane, slab, patch])
    assert np.array_equal(count, [5, 6, 5])
    assert np.array_equal(A[5:11], slab.A) and np.all(lo[5:11] == -np.inf)
    assert lo[11] == hi[11] == 0.05 and np.array_equal(A[12:], patch.A[2:])
    # A row opposite two others (a repeated halfspace) joins only the first
    # pair it meets; the repeat stays an inequality row.
    up = np.array([0.0, 0.0, 1.0])
    repeated = Polytope(np.array([up, -up, up]), np.array([0.1, -0.1, 0.1]))
    count, A, lo, hi = _surface_rows([patch, repeated])
    assert np.array_equal(count, [5, 2])
    assert np.array_equal(A[5:], [up, up]) and np.array_equal(lo[5:], [0.1, -np.inf])
    assert np.array_equal(hi[5:], [0.1, 0.1]) and lo[0] == hi[0] == 0.05
    # In the assembled QP each phase's surface adds one equality row.
    plan = hover_plan(N=3)
    refs = hover_references(plan)
    f0 = np.zeros((len(plan.active_pairs()), 3))
    qp = build_contact_qp(_contact_inputs(plan, refs, f0, refs))
    ties = 3 * int(np.sum(~plan.pair_table.first))
    assert np.sum(qp.lo == qp.hi) == 6 * plan.horizon + ties + len(plan.phases)
