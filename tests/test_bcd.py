import io
from dataclasses import fields, replace

import numpy as np
import pytest

import centroidal_bcd.bcd as bcd_module
import centroidal_bcd.qp.banded as banded_module
from centroidal_bcd.bcd import (
    L_PROX_CAP,
    BcdIterationRecord,
    BcdSettings,
    BlockSolveError,
    consensus_metric,
    force_trajectory,
    optimize,
)
from centroidal_bcd.cli import EXIT_INFEASIBLE, main
from centroidal_bcd.model import ContactPhase, ContactPlan, verify_trajectory
from centroidal_bcd.gaits import make_gait, shipped_scenarios
from centroidal_bcd.qp import BandedActiveSetSolver, InteriorPointSolver, SolverSettings, banded, \
    kkt_residuals
from centroidal_bcd.qp.pattern import QpPattern
from centroidal_bcd.scenarios import materialize
from centroidal_bcd.structure import Entries
from centroidal_bcd.trajectory_io import read_trajectory_csv, write_trajectory_csv

from conftest import QUAD_OFFSETS, flat_foot_plan, flat_patch, hover_plan, hover_references


def test_consensus_metric_zero_for_identical_levers():
    v = np.arange(12.0)
    assert consensus_metric(v, v, 4) == 0.0


def test_consensus_metric_arithmetic():
    # One effector over four timesteps, all components change by one.
    prev = np.zeros(12)
    new = np.ones(12)
    assert consensus_metric(new, prev, 4) == pytest.approx(3.0)


def test_consensus_metric_threshold_semantics():
    prev = np.zeros(300)
    new = prev.copy()
    new[17] = 1e-3
    assert consensus_metric(new, prev, 100) == pytest.approx(1e-8)
    assert consensus_metric(new, prev, 100) < BcdSettings().eps_f


def test_consensus_metric_length_mismatch():
    with pytest.raises(ValueError, match=r"^ell_k must have shape \(6,\), got \(3,\)$"):
        consensus_metric(np.zeros(3), np.zeros(6), 2)
    with pytest.raises(ValueError, match="horizon"):
        consensus_metric(np.zeros(3), np.zeros(3), 0)


def test_hover_converges_first_iteration_with_equilibrium_forces(quad_hover):
    plan, refs = quad_hover
    res = optimize(plan, refs, BcdSettings())
    assert res.converged
    assert len(res.records) == 1
    assert res.residuals.feasible
    mg = plan.mass * 9.81
    for contacts in res.contacts:
        for e in plan.effector_ids:
            assert contacts[e].f[2] == pytest.approx(mg / 4, abs=1e-4)


def test_proximal_weights_grow_geometrically(quad_hover):
    plan, refs = quad_hover
    settings = BcdSettings(L0=100.0, alpha=100.0, eps_f=0.0, max_outer_iterations=4)
    res = optimize(plan, refs, settings)
    assert not res.converged
    assert len(res.records) == 4
    assert res.records[0].force_prox_weight == 0.0  # no contact solve yet
    # 1e2, 1e4, 1e6, and then the cap (1e6) in place of 1e8.
    for i, rec in enumerate(res.records):
        weight = min(100.0 * 100.0 ** i, L_PROX_CAP)
        assert rec.contact_prox_weight == pytest.approx(weight)
        if i > 0:
            assert rec.force_prox_weight == pytest.approx(weight)
    assert res.records[-1].contact_prox_weight == L_PROX_CAP < 100.0 * 100.0 ** 3


def test_forced_non_convergence_still_returns_final_solve(quad_hover):
    plan, refs = quad_hover
    settings = BcdSettings(eps_f=0.0, max_outer_iterations=2)
    res = optimize(plan, refs, settings)
    assert not res.converged
    assert len(res.records) == 2
    assert res.residuals.feasible  # final force solve still applied
    assert res.final_record.contact_qp_time == 0.0


def test_zero_eps_f_runs_to_the_cap_even_on_an_exact_consensus(quad_hover, monkeypatch):
    # BcdSettings documents that eps_f = 0 forces the iteration cap: a
    # consensus of exactly 0 must not end the loop.
    plan, refs = quad_hover
    monkeypatch.setattr(bcd_module, "consensus_metric", lambda *args: 0.0)
    res = optimize(plan, refs, BcdSettings(eps_f=0.0, max_outer_iterations=3))
    assert not res.converged
    assert len(res.records) == 3
    assert res.eps_trace == [0.0, 0.0, 0.0]
    # A positive threshold still converges on it.
    assert optimize(plan, refs, BcdSettings(eps_f=1e-12, max_outer_iterations=3)).converged


def test_deterministic_records(quad_hover):
    plan, refs = quad_hover
    r1 = optimize(plan, refs, BcdSettings())
    r2 = optimize(plan, refs, BcdSettings())
    assert len(r1.records) == len(r2.records)
    for a, b in zip(r1.records, r2.records):
        assert a.eps_f_value == b.eps_f_value
        assert a.original_cost == b.original_cost
        assert a.force_solver_iterations == b.force_solver_iterations
        assert a.contact_solver_iterations == b.contact_solver_iterations
    assert all(np.array_equal(s1.stacked(), s2.stacked())
               for s1, s2 in zip(r1.states, r2.states))


def test_every_force_iterate_is_feasible_for_its_geometry(quad_hover):
    plan, refs = quad_hover
    res = optimize(plan, refs, BcdSettings(eps_f=0.0, max_outer_iterations=3),
                   keep_force_iterates=True)
    assert len(res.force_iterates) == 4  # three loop solves plus the final one
    for iterate, ell_fixed, p_fixed in res.force_iterates:
        report = verify_trajectory(force_trajectory(iterate, ell_fixed, p_fixed, plan),
                                   plan, tol=1e-5)
        assert report.feasible


def test_flat_feet_return_the_offsets_their_lever_arms_were_built_from():
    # The returned lever arms, footholds and centers of pressure come from
    # one contact solve, so p - r + R^{xy} z rebuilds the lever arms up to
    # the CoM's move in the final force solve. Offsets from elsewhere left a
    # gap of 8.9e-5 m here.
    plan = flat_foot_plan()
    result = optimize(plan, hover_references(plan))
    assert result.converged and result.residuals.feasible, result.residuals.as_dict()
    assert result.residuals.lever_consistency <= 1e-6
    fh = io.StringIO()
    write_trajectory_csv(fh, result.states, result.contacts, plan)
    traj = read_trajectory_csv(io.StringIO(fh.getvalue()), plan)
    assert verify_trajectory(traj, plan).as_dict() == result.residuals.as_dict()


def test_infeasible_block_is_identified():
    # Surfaces a full kinematic limit away from the reference CoM: the first
    # force solve cannot satisfy its kinematic box.
    offsets = {"FL": np.array([2.0, 0.0, -0.22])}
    phases = [ContactPhase("FL", 0, 4, flat_patch(2.0, 0.0, half=0.05),
                           foothold_hint=np.array([2.0, 0.0, 0.0]))]
    plan = ContactPlan(effector_ids=("FL",), phases=tuple(phases), horizon=4, dt=0.01,
                       mass=1.0, h0=(0, 0, 0.22, 0, 0, 0, 0, 0, 0),
                       kinematic_limit=0.3, nominal_offsets=offsets)
    refs = hover_references(plan)
    with pytest.raises(BlockSolveError) as err:
        optimize(plan, refs, BcdSettings())
    assert err.value.block == "force"
    assert err.value.iteration == 1


def test_block_at_its_iteration_cap_fails_after_one_solve(monkeypatch):
    # Exhausting the configured budget is a named failure, not a cue for a
    # longer solve: the worst case of a block is one budget. Five iterations
    # are fewer than any force solve of walk takes.
    plan, refs, _, weights = materialize(make_gait("walk"))
    iterations = []
    real_solve = InteriorPointSolver.solve

    def counting(self, *args, **kwargs):
        sol = real_solve(self, *args, **kwargs)
        iterations.append(sol.iterations)
        return sol

    monkeypatch.setattr(InteriorPointSolver, "solve", counting)
    with pytest.raises(BlockSolveError) as err:
        optimize(plan, refs, BcdSettings(solver=SolverSettings(max_iterations=5)),
                 weights=weights)
    assert (err.value.block, err.value.iteration, err.value.status) == ("force", 1, "max_iter")
    assert iterations == [5]


def test_every_force_solve_takes_at_most_40_interior_point_iterations():
    # A work count that no host speed moves: the shipped suite, a long trot
    # and the proximal-weight grid of acceptance criterion 2 take 4-11
    # iterations on a run's first, cold force solve (8-10 on the N=300
    # runs). Every later force solve starts warm from the one before and
    # takes at most 9.
    runs = {name: materialize(doc) for name, doc in shipped_scenarios().items()}
    runs["trot N=300"] = materialize(make_gait("trot", N=300))
    for kind in ("walk", "trot", "bound"):
        plan, refs, settings, weights = materialize(make_gait(kind, N=300))
        for L0 in (1e2, 1e4, 1e6):
            runs[f"{kind} N=300 L0={L0:g}"] = (plan, refs, replace(
                settings, L0=L0, alpha=100.0, eps_f=1e-7), weights)
    worst, cold, worst_warm = {}, {}, {}
    for name, (plan, refs, settings, weights) in runs.items():
        result = optimize(plan, refs, settings, weights)
        worst[name] = max(r.force_solver_iterations
                          for r in (*result.records, result.final_record))
        later = (*result.records[1:], result.final_record)
        assert all(r.force_warm_started for r in later), name
        assert not result.records[0].force_warm_started
        cold[name] = result.records[0].force_solver_iterations
        worst_warm[name] = max(r.force_solver_iterations for r in later)
    assert max(worst.values()) <= 40, worst
    assert max(cold.values()) <= 16, cold
    assert max(worst_warm.values()) <= 15, worst_warm


def test_the_suite_and_a_long_trot_take_at_most_151_force_iterations():
    # A work count that no host speed moves: the force solves of the shipped
    # suite and trot N=300 take 151 interior-point iterations in all (181
    # when a cold solve spent its first iteration on Mehrotra's start step).
    # A cold solve starts as a warm one does, at the QP's start point, and
    # trot's takes the same count at every horizon.
    runs = {name: materialize(doc) for name, doc in shipped_scenarios().items()}
    runs["trot N=300"] = materialize(make_gait("trot", N=300))
    total = 0
    for plan, refs, settings, weights in runs.values():
        result = optimize(plan, refs, settings, weights)
        total += sum(r.force_solver_iterations for r in (*result.records, result.final_record))
    assert total <= 151
    cold = {N: optimize(*materialize(make_gait("trot", N=N))).records[0].force_solver_iterations
            for N in (75, 150, 300, 600)}
    assert len(set(cold.values())) == 1, cold


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-5])
def test_optimize_rejects_an_unusable_tolerance_before_any_solve(quad_hover, monkeypatch, tol):
    plan, refs = quad_hover
    built = []
    monkeypatch.setattr(bcd_module, "build_force_qp", built.append)
    with pytest.raises(ValueError, match="^residual_tol must be finite and >= 0, got "):
        optimize(plan, refs, residual_tol=tol)
    assert built == []


def test_progress_callback_receives_all_records(quad_hover):
    plan, refs = quad_hover
    seen = []
    res = optimize(plan, refs, BcdSettings(), on_iteration=seen.append)
    assert len(seen) == len(res.records) + 1  # loop records plus final solve
    assert seen[-1].contact_solver_iterations == 0


def test_settings_validation():
    with pytest.raises(ValueError, match="alpha"):
        BcdSettings(alpha=1.0)
    with pytest.raises(ValueError, match="eps_f"):
        BcdSettings(eps_f=-1e-9)
    with pytest.raises(ValueError, match="^L0 must be finite and >= 0"):
        BcdSettings(L0=-1.0)


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("field", ["L0", "alpha", "eps_f", "max_outer_iterations"])
def test_settings_reject_non_finite_values(field, value):
    # NaN passes every comparison test, so each field is checked for it; a
    # float is no iteration budget.
    expected = "an integer" if field == "max_outer_iterations" else "finite"
    with pytest.raises(ValueError, match=f"^{field} must be {expected}"):
        BcdSettings(**{field: value})


@pytest.mark.parametrize("value", [2.5, 2.0, True])
def test_iteration_budgets_must_be_integers(value):
    # 10.5 solver iterations died in the solver with a TypeError, and 2.5 or
    # True outer iterations ran without a word.
    with pytest.raises(ValueError, match="^max_outer_iterations must be an integer"):
        BcdSettings(max_outer_iterations=value)
    with pytest.raises(ValueError, match="^max_iterations must be an integer"):
        SolverSettings(max_iterations=value)
    solver = SolverSettings(max_iterations=np.int64(3))
    assert BcdSettings(max_outer_iterations=np.int64(2), solver=solver).solver is solver


def test_each_block_builds_one_layout_per_optimize(monkeypatch):
    # A block's structure, its columns included, depends only on the plan:
    # one optimize() builds it once per block, however many QPs it assembles.
    plan, refs, settings, weights = materialize(make_gait("trot", N=60))
    constructed = []
    real_build = Entries.build

    def counting_build(self):
        constructed.append(self)
        return real_build(self)

    monkeypatch.setattr(Entries, "build", counting_build)
    result = optimize(plan, refs, settings, weights)
    assert len(result.records) >= 2  # at least three force and two contact builds
    assert len(constructed) == 2


def test_a_second_optimize_builds_no_record_and_compares_no_patterns(monkeypatch):
    # Each block's symbolic record is built with its structure, once per
    # plan: a second optimize() on the same plan builds none. Every handle
    # takes the builder's record, so no value update compares index arrays,
    # and the handles' matrices hold the record's own arrays.
    plan, refs, settings, weights = materialize(make_gait("trot", N=60))
    records, compared, handles = [], [], []
    real_from_entries = QpPattern.__dict__["from_entries"].__func__

    def counting_from_entries(cls, *args, **kwargs):
        records.append(real_from_entries(cls, *args, **kwargs))
        return records[-1]

    def counting_check(name, M, setup, _real=banded._check_pattern):
        compared.append(name)
        _real(name, M, setup)

    for solver in (InteriorPointSolver, BandedActiveSetSolver):
        def kept(self, qp, settings=None, _real=solver.__init__):
            _real(self, qp, settings)
            handles.append(self)

        monkeypatch.setattr(solver, "__init__", kept)
    monkeypatch.setattr(QpPattern, "from_entries", classmethod(counting_from_entries))
    monkeypatch.setattr(banded, "_check_pattern", counting_check)
    first = optimize(plan, refs, settings, weights)
    assert len(records) == 2 and len(handles) == 2
    assert len(first.records) >= 2  # every handle took at least one value update
    second = optimize(plan, refs, settings, weights)
    assert len(records) == 2 and len(handles) == 4 and compared == []
    assert second.final_record.original_cost == first.final_record.original_cost
    for h in handles:
        assert h.pattern in records
        assert h._A.indices is h.pattern.a_indices and h._P.indptr is h.pattern.p_indptr


def _observe_block_solves(monkeypatch, field):
    """Record ``field`` of every block solve's solution, in call order: the
    force block's interior-point solves and the contact block's direct
    solves."""
    seen = []
    for solver in (InteriorPointSolver, BandedActiveSetSolver):
        def observed(self, *args, _real=solver.solve, **kwargs):
            sol = _real(self, *args, **kwargs)
            seen.append(field(sol))
            return sol

        monkeypatch.setattr(solver, "solve", observed)
    return seen


def _optimality_scale(qp, sol) -> float:
    """The largest of the unscaled |P x|, |A'y| and |q| at a solution, which
    the interior point's dual and complementarity tolerances scale with."""
    return max(np.abs(qp.P @ sol.x).max(), np.abs(qp.A.T @ sol.y).max(), np.abs(qp.q).max())


def _primal_tolerance(qp, sol, st) -> float:
    """The default primal tolerance of ``st`` at a solution: eps_abs plus
    eps_rel times the larger of the unscaled |A x| and its projection on the
    bounds."""
    ax = qp.A @ sol.x
    return st.eps_abs + st.eps_rel * max(np.abs(ax).max(),
                                         np.abs(np.clip(ax, qp.lo, qp.hi)).max())


def _capture_force_qps(monkeypatch) -> list:
    """Every force QP ``optimize`` builds, in call order."""
    qps = []
    build = bcd_module.build_force_qp
    monkeypatch.setattr(bcd_module, "build_force_qp",
                        lambda inputs: qps.append(build(inputs)) or qps[-1])
    return qps


def test_records_carry_each_blocks_exit_residuals(monkeypatch):
    # Each record carries the unscaled residuals of its block's last
    # termination check, in call order: force, contact, ..., final force.
    # Every exact solve ends below 1e-2 on both; a force solve with a
    # proximal pull (trot N=60's middle one ends with a dual residual of
    # 0.128) keeps its primal residual there and its dual residual within
    # its own loose tolerance.
    plan, refs, settings, weights = materialize(make_gait("trot", N=60))
    qps = _capture_force_qps(monkeypatch)
    solutions = _observe_block_solves(monkeypatch, lambda sol: sol)
    result = optimize(plan, refs, settings, weights)
    residuals = [(sol.primal_residual, sol.dual_residual) for sol in solutions]
    recorded = [pair for r in result.records
                for pair in ((r.force_primal_residual, r.force_dual_residual),
                             (r.contact_primal_residual, r.contact_dual_residual))]
    final = result.final_record
    assert residuals == recorded + [(final.force_primal_residual, final.force_dual_residual)]
    force = (*result.records, final)
    assert [r.force_prox_weight > 0.0 for r in force] == [False, True, False]
    assert all(0.0 < value < 1e-2 for pair in residuals[:2] + residuals[3:] for value in pair)
    pri, dua = residuals[2]
    loose = settings.solver.eps_abs + bcd_module.PROX_OPTIMALITY_REL * _optimality_scale(
        qps[1], solutions[2])
    assert 0.0 < pri <= _primal_tolerance(qps[1], solutions[2], settings.solver)
    assert 1e-2 < dua <= loose
    row = result.records[0].as_dict()
    assert (row["contact_primal_residual"], row["contact_dual_residual"]) == residuals[1]


def test_a_loose_solve_of_a_proximal_force_qp_stays_primal_exact(monkeypatch):
    # Trot N=60's second force QP carries a proximal pull. A loose solve of
    # it ends solved with its primal residual inside the default tolerance,
    # in fewer iterations than a default solve; a default solve that follows
    # on the same handle, from the loose iterate, lands where a fresh
    # handle's does within criterion 5's 1e-6 (on the momentum columns: how
    # the forces split among the feet is not determined to 1e-6, see
    # test_qp_backend's warm re-solves).
    from centroidal_bcd.force_qp import _structure as force_structure

    plan, refs, settings, weights = materialize(make_gait("trot", N=60))
    qps = _capture_force_qps(monkeypatch)
    optimize(plan, refs, settings, weights)
    qp, st = qps[1], settings.solver
    handle = InteriorPointSolver(qp, st)
    loose = handle.solve(bcd_module.PROX_OPTIMALITY_REL)
    pri_tol = _primal_tolerance(qp, loose, st)
    assert loose.solved and loose.primal_residual <= pri_tol
    assert kkt_residuals(qp, loose.x, loose.y)[0] <= pri_tol
    exact = handle.solve()
    fresh = InteriorPointSolver(qp, st).solve()
    assert exact.solved and exact.warm_started and fresh.solved
    assert loose.iterations < fresh.iterations
    momentum = np.ones(qp.n, dtype=bool)
    momentum[force_structure(plan).f_cols] = False
    assert np.abs(exact.x - fresh.x)[momentum].max() <= 1e-6 * max(1.0, np.abs(fresh.x).max())
    assert exact.objective == pytest.approx(fresh.objective, rel=1e-9)


@pytest.mark.parametrize("L0, loose", [(100.0, [False, True, False]), (0.0, [False] * 4)])
def test_only_force_solves_with_a_proximal_pull_are_loose(L0, loose, monkeypatch):
    # The first force solve has no pull yet and the final one drops it: both
    # keep the default rule and end within its dual tolerance. With L0 = 0
    # no solve carries a pull, so every solve keeps the default rule.
    plan, refs, settings, weights = materialize(make_gait("trot", N=60))
    qps = _capture_force_qps(monkeypatch)
    solutions, rels = [], []
    real_solve = InteriorPointSolver.solve

    def recording(self, optimality_rel=None):
        rels.append(optimality_rel)
        solutions.append(real_solve(self, optimality_rel))
        return solutions[-1]

    monkeypatch.setattr(InteriorPointSolver, "solve", recording)
    result = optimize(plan, refs, replace(settings, L0=L0), weights)
    force = (*result.records, result.final_record)
    assert [r.force_prox_weight > 0.0 for r in force] == loose
    assert rels == [bcd_module.PROX_OPTIMALITY_REL if pull else None for pull in loose]
    st = settings.solver
    for qp, sol, pull in zip(qps, solutions, loose):
        if not pull:
            assert sol.dual_residual <= st.eps_abs + st.eps_rel * _optimality_scale(qp, sol)


def test_record_dict_holds_every_field_but_the_solve_and_setup_times():
    # as_dict follows the record's fields, so a new field reaches
    # convergence.json with no further code, and no solve or setup time does.
    names = [f.name for f in fields(BcdIterationRecord)]
    record = BcdIterationRecord(**{name: float(i) for i, name in enumerate(names)})
    timings = ("force_qp_time", "contact_qp_time", "force_setup_time", "contact_setup_time")
    expected = {("eps_f" if name == "eps_f_value" else name): float(i)
                for i, name in enumerate(names) if name not in timings}
    assert record.as_dict() == expected


def test_records_carry_each_blocks_setup_time(tmp_path):
    # Each block's build plus handle setup or value update is timed on its
    # record (the final force solve has no contact block); the result's
    # setup time is their sum, and timing.csv carries them per row.
    from centroidal_bcd.trajectory_io import write_timing_csv

    plan, refs, settings, weights = materialize(make_gait("trot", N=60))
    result = optimize(plan, refs, settings, weights)
    records = (*result.records, result.final_record)
    assert all(r.force_setup_time > 0.0 for r in records)
    assert all(r.contact_setup_time > 0.0 for r in result.records)
    assert result.final_record.contact_setup_time == 0.0
    assert result.setup_time == pytest.approx(
        sum(r.force_setup_time + r.contact_setup_time for r in records))
    path = tmp_path / "timing.csv"
    with open(path, "w", newline="") as fh:
        write_timing_csv(fh, result)
    header, *rows = [line.split(",") for line in path.read_text().splitlines()]
    assert header == ["phase", "force_qp_time_s", "contact_qp_time_s", "force_setup_time_s",
                      "contact_setup_time_s"]
    assert [float(v) for v in rows[0][3:]] == [result.records[0].force_setup_time,
                                               result.records[0].contact_setup_time]
    assert rows[-2][0] == "final" and rows[-1][0] == "setup"
    # The setup row holds the run's setup time under the setup columns, per
    # block and the final record included, and no solve time.
    assert rows[-1][1:3] == ["", ""]
    force, contact = (float(v) for v in rows[-1][3:])
    assert force == sum(r.force_setup_time for r in records)
    assert contact == sum(r.contact_setup_time for r in records)
    assert force + contact == pytest.approx(result.setup_time)


def test_records_count_each_blocks_factorizations(monkeypatch):
    # A host-independent work count: a force solve factors the Newton matrix
    # once per iteration and its polish once, until a polish is rejected;
    # the contact block's direct solve factors once per active-set pass.
    # convergence.json carries both. A solve after an accepted polish first
    # tries that polish's held set; on trot the pass is not accepted, and
    # the interior point detects the same set, whose pass is then judged as
    # its polish, not factored twice.
    plan, refs, settings, weights = materialize(make_gait("trot", N=60))
    counts = _observe_block_solves(monkeypatch, lambda sol: sol.factorizations)
    result = optimize(plan, refs, settings, weights)
    final = result.final_record
    recorded = [n for r in result.records
                for n in (r.force_factorizations, r.contact_factorizations)]
    assert counts == recorded + [final.force_factorizations]
    force = (*result.records, final)
    # Trot's first force polish lands, its second (the tried pass) is
    # rejected and its last is skipped: the handle stops polishing after a
    # rejected polish.
    assert [r.force_polished for r in force] == [True, False, False]
    assert [r.force_factorizations - r.force_solver_iterations for r in force] == [1, 1, 0]
    assert all(r.contact_factorizations == r.contact_solver_iterations
               for r in result.records)
    assert final.contact_factorizations == 0
    row = final.as_dict()
    assert (row["force_factorizations"], row["contact_factorizations"]) == (counts[-1], 0)


def test_records_count_each_blocks_band_solves(monkeypatch):
    # Back-solves, counted where they run: an interior-point iteration
    # back-solves twice (predictor and corrector), cold or warm, and a
    # polish or active-set pass once plus once per refinement step: a
    # polish refines a fixed number of steps, a pass at least one and at
    # most the cap.
    plan, refs, settings, weights = materialize(make_gait("trot", N=60))
    counts = _observe_block_solves(monkeypatch, lambda sol: sol.band_solves)
    result = optimize(plan, refs, settings, weights)
    final = result.final_record
    recorded = [n for r in result.records for n in (r.force_band_solves, r.contact_band_solves)]
    assert counts == recorded + [final.force_band_solves]
    polish = 1 + banded_module._REFINE_STEPS
    force = (*result.records, final)
    # Polished, rejected, skipped (see the factorization count above): the
    # second solve's tried pass back-solves once, as its polish.
    assert [r.force_polished for r in force] == [True, False, False]
    for r, attempted in zip(force, (1, 1, 0)):
        assert r.force_band_solves == 2 * r.force_solver_iterations + attempted * polish
    assert all(2 * r.contact_solver_iterations <= r.contact_band_solves
               <= (1 + banded_module._REFINE_CAP) * r.contact_solver_iterations
               for r in result.records)
    row = final.as_dict()
    assert (row["force_band_solves"], row["contact_band_solves"]) == (counts[-1], 0)


@pytest.mark.parametrize("kind", ["stand", "jump_in_place", "jump_forward", "jump_twist"])
def test_final_force_solve_is_one_pass_on_the_last_polishs_held_set(kind, monkeypatch):
    # Each force polish of stand and the jumps holds the equality rows and
    # no inequality row, and that set still lands on the final force QP:
    # the final solve is one held-set pass with no interior-point iteration,
    # and returns what a fresh handle's solve and polish of that QP return,
    # bit for bit.
    qps = []
    build = bcd_module.build_force_qp
    monkeypatch.setattr(bcd_module, "build_force_qp",
                        lambda inputs: qps.append(build(inputs)) or qps[-1])
    solutions = _observe_block_solves(monkeypatch, lambda sol: sol)
    plan, refs, settings, weights = materialize(shipped_scenarios()[kind])
    final = optimize(plan, refs, settings, weights).final_record
    assert (final.force_solver_iterations, final.force_factorizations,
            final.force_band_solves) == (0, 1, 1 + banded_module._REFINE_STEPS)
    assert final.force_polished and final.force_warm_started
    fresh = InteriorPointSolver(qps[-1], settings.solver).solve()
    assert fresh.polished and not fresh.warm_started and fresh.iterations > 0
    assert np.array_equal(solutions[-1].x, fresh.x)


@pytest.mark.parametrize("N", [60, 75])
def test_trot_force_solves_factor_no_more_than_before_the_held_set_is_tried(N):
    # Trot's first force polish holds 12 inequality rows. The second solve's
    # pass on them is not accepted (primal residual about 1e-6), and the
    # interior point detects the same set, so the pass serves as its polish
    # without a second factorization. Per solve, the factorizations of the
    # force and contact blocks are at most these counts, pinned before the
    # held set was tried. The second solve carries a proximal pull and ends
    # at the loose optimality tolerance, after 2 iterations where an exact
    # solve takes 5.
    result = optimize(*materialize(make_gait("trot", N=N)))
    force = (*result.records, result.final_record)
    assert len(force) == 3
    assert all(r.force_factorizations <= pinned for r, pinned in zip(force, (11, 6, 5)))
    assert all(r.contact_factorizations <= 1 for r in result.records)
    assert [r.force_solver_iterations for r in force] == [8, 2, 5]
    assert [r.force_factorizations for r in force] == [9, 3, 5]


@pytest.mark.parametrize("kind, N, mu, L_max", [
    ("stairs_down", 40, None, 0.245),
    ("trot", 60, 1e-6, None),
    ("walk", 67, 1.11e-3, 0.2905),  # 0.83 of the default 0.35 m
    ("bound", 90, 1.38e-3, None),
])
def test_plans_that_need_many_passes_or_refinement_steps_solve_directly(
        kind, N, mu, L_max, monkeypatch):
    # Plans the direct solve settled only with more than three refinement
    # steps or ten passes: the stairs plan near its kinematic limit takes
    # 11 passes on its first contact QP, and the low-friction plans reach a
    # proximal weight of 1e8, whose held rows need more refinement steps.
    # Every contact solve is accepted and the run ends converged and
    # feasible.
    doc = make_gait(kind, N=N, **({} if mu is None else {"mu": mu}))
    if L_max is not None:
        doc = {**doc, "robot": {**doc["robot"], "L_max": L_max}}
    plan, refs, settings, weights = materialize(doc)
    statuses = []
    real_solve = BandedActiveSetSolver.solve

    def recording(self):
        sol = real_solve(self)
        statuses.append(sol.status)
        return sol

    monkeypatch.setattr(BandedActiveSetSolver, "solve", recording)
    result = optimize(plan, refs, settings, weights)
    assert statuses == ["solved"] * len(result.records)
    assert result.converged and result.residuals.feasible


def test_a_contact_solve_that_is_not_accepted_is_a_named_failure(quad_hover, monkeypatch,
                                                                  tmp_path, capsys):
    # With no active-set pass allowed the direct solve is never accepted:
    # the first contact solve raises, as a force solve does, and the CLI
    # reports it with the solver-failure exit code.
    monkeypatch.setattr(banded_module, "_MAX_PASSES", 0)
    solves = []
    real_solve = BandedActiveSetSolver.solve

    def counting(self):
        solves.append(self)
        return real_solve(self)

    monkeypatch.setattr(BandedActiveSetSolver, "solve", counting)
    plan, refs = quad_hover
    with pytest.raises(BlockSolveError) as err:
        optimize(plan, refs)
    assert (err.value.block, err.value.iteration, err.value.status) == ("contact", 1, "max_iter")
    assert len(solves) == 1
    scn = tmp_path / "stand.scn"
    assert main(["gait", "--kind", "stand", "--horizon", "20", "--out", str(scn)]) == 0
    capsys.readouterr()
    assert main(["solve", "--scenario", str(scn), "--out", str(tmp_path / "out")]) \
        == EXIT_INFEASIBLE
    assert capsys.readouterr().err == ("solver failure: contact QP failed at outer iteration 1: "
                                       "max_iter\n")
