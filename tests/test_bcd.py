import io
from dataclasses import fields, replace

import numpy as np
import pytest

import centroidal_bcd.bcd as bcd_module
import centroidal_bcd.qp.banded as banded_module
from centroidal_bcd.bcd import (
    BcdIterationRecord,
    BcdSettings,
    BlockSolveError,
    consensus_metric,
    force_trajectory,
    optimize,
)
from centroidal_bcd.model import ContactPhase, ContactPlan, verify_trajectory
from centroidal_bcd.gaits import make_gait, shipped_scenarios
from centroidal_bcd.qp import BandedActiveSetSolver, InteriorPointSolver, SolverSettings, banded
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
    with pytest.raises(ValueError, match="length"):
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
    for i, rec in enumerate(res.records):
        assert rec.contact_prox_weight == pytest.approx(100.0 * 100.0 ** i)
        if i > 0:
            assert rec.force_prox_weight == pytest.approx(100.0 * 100.0 ** i)


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
    # and the proximal-weight grid of acceptance criterion 2 take 7-15
    # iterations on a run's first, cold force solve, Mehrotra's start step
    # included (13-14 on the N=300 runs; 8-21 from the bound distances at
    # x = 0 without the start step). Every later force solve starts warm
    # from the one before and takes 4-12.
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


def test_records_carry_each_blocks_exit_residuals(monkeypatch):
    # Each record carries the unscaled residuals of its block's last
    # termination check, in call order: force, contact, ..., final force.
    plan, refs, settings, weights = materialize(make_gait("trot", N=60))
    residuals = _observe_block_solves(
        monkeypatch, lambda sol: (sol.primal_residual, sol.dual_residual))
    result = optimize(plan, refs, settings, weights)
    recorded = [pair for r in result.records
                for pair in ((r.force_primal_residual, r.force_dual_residual),
                             (r.contact_primal_residual, r.contact_dual_residual))]
    final = result.final_record
    assert residuals == recorded + [(final.force_primal_residual, final.force_dual_residual)]
    assert all(0.0 < value < 1e-2 for pair in residuals for value in pair)
    row = result.records[0].as_dict()
    assert (row["contact_primal_residual"], row["contact_dual_residual"]) == residuals[1]


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


def test_records_count_each_blocks_factorizations(monkeypatch):
    # A host-independent work count: a force solve factors the Newton matrix
    # once per iteration and its polish once, until a polish is rejected;
    # the contact block's direct solve factors once per active-set pass.
    # convergence.json carries both.
    plan, refs, settings, weights = materialize(make_gait("trot", N=60))
    counts = _observe_block_solves(monkeypatch, lambda sol: sol.factorizations)
    result = optimize(plan, refs, settings, weights)
    final = result.final_record
    recorded = [n for r in result.records
                for n in (r.force_factorizations, r.contact_factorizations)]
    assert counts == recorded + [final.force_factorizations]
    force = (*result.records, final)
    # Trot's first force polish lands, its second is rejected and its last
    # is skipped: the handle stops polishing after a rejected polish.
    assert [r.force_polished for r in force] == [True, False, False]
    assert [r.force_factorizations - r.force_solver_iterations for r in force] == [1, 1, 0]
    assert all(r.contact_factorizations == r.contact_solver_iterations
               for r in result.records)
    assert final.contact_factorizations == 0
    row = final.as_dict()
    assert (row["force_factorizations"], row["contact_factorizations"]) == (counts[-1], 0)


def test_records_count_each_blocks_band_solves(monkeypatch):
    # Back-solves, counted where they run: an interior-point iteration
    # back-solves twice (predictor and corrector; the cold start step once),
    # and a polish or active-set pass once plus once per refinement step.
    plan, refs, settings, weights = materialize(make_gait("trot", N=60))
    counts = _observe_block_solves(monkeypatch, lambda sol: sol.band_solves)
    result = optimize(plan, refs, settings, weights)
    final = result.final_record
    recorded = [n for r in result.records for n in (r.force_band_solves, r.contact_band_solves)]
    assert counts == recorded + [final.force_band_solves]
    polish = direct = 1 + banded_module._REFINE_STEPS
    force = (*result.records, final)
    # Polished, rejected, skipped (see the factorization count above).
    assert [r.force_polished for r in force] == [True, False, False]
    for r, attempted in zip(force, (1, 1, 0)):
        start = 0 if r.force_warm_started else 1
        assert r.force_band_solves == 2 * r.force_solver_iterations - start + attempted * polish
    assert all(r.contact_band_solves == direct * r.contact_solver_iterations
               for r in result.records)
    row = final.as_dict()
    assert (row["force_band_solves"], row["contact_band_solves"]) == (counts[-1], 0)


def test_a_stairs_plan_near_its_kinematic_limit_reaches_the_contact_fallback(caplog):
    # A plan, not a patched pass budget, that the direct solve does not
    # settle: stairs_down with the kinematic limit cut to 0.245 m. Its first
    # contact QP exhausts the active-set passes, the interior-point method
    # solves it, and the descent still ends converged and feasible.
    doc = make_gait("stairs_down", N=40)
    plan, refs, settings, weights = materialize(
        {**doc, "robot": {**doc["robot"], "L_max": 0.245}})
    with caplog.at_level("WARNING", logger="centroidal_bcd.bcd"):
        result = optimize(plan, refs, settings, weights)
    first = result.records[0]
    assert first.contact_fallback and first.contact_solver_iterations > 0
    assert "at outer iteration 1 (max_iter after" in caplog.text
    assert result.converged and result.residuals.feasible


def test_contact_block_falls_back_to_the_ipm_when_the_direct_solve_is_not_accepted(
        quad_hover, monkeypatch, caplog):
    # With no active-set pass allowed the direct solve is never accepted:
    # the interior-point method solves each contact QP through one handle,
    # built on the first fallback, and every record counts the fallback and
    # its iterations.
    plan, refs = quad_hover
    settings = BcdSettings(eps_f=0.0, max_outer_iterations=2)
    direct = optimize(plan, refs, settings)
    monkeypatch.setattr(banded_module, "_MAX_PASSES", 0)
    built = []
    real_init = InteriorPointSolver.__init__

    def counting_init(self, qp, *args, **kwargs):
        built.append(qp.n)
        real_init(self, qp, *args, **kwargs)

    monkeypatch.setattr(InteriorPointSolver, "__init__", counting_init)
    with caplog.at_level("WARNING", logger="centroidal_bcd.bcd"):
        result = optimize(plan, refs, settings)
    assert len(built) == 2  # the force handle and the contact fallback's
    assert [r.contact_fallback for r in result.records] == [True, True]
    cap = SolverSettings().max_iterations
    assert all(0 < r.contact_solver_iterations < cap for r in result.records)
    # No pass factors; the fallback factors once per iteration and polish.
    assert all(r.contact_factorizations == r.contact_solver_iterations + 1
               for r in result.records)
    assert result.records[0].as_dict()["contact_fallback"] is True
    assert not any(r.contact_fallback for r in direct.records)
    assert sum("falling back to the interior-point method" in m
               for m in caplog.messages) == 2
    assert result.residuals.feasible
    # Both solvers land on the same contact solutions, to the tolerance of
    # the interior-point method.
    assert np.max(np.abs(result.trajectory.h - direct.trajectory.h)) < 1e-6
