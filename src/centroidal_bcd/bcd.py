"""Block coordinate descent driver alternating the force and contact QPs.

One outer iteration solves the Force-QP for the momentum trajectory and
contact forces against the current lever arms, then the Contact-QP for the
CoM, footholds, centers of pressure and recovered lever arms against those
forces. Both solves carry proximal pulls toward the other block's latest
trajectory, under one weight that grows geometrically, damping the
alternation into consensus; the loop stops when the squared change of the
stacked lever arms per horizon step falls below the consensus threshold (or
the iteration cap is hit), after which one final Force-QP re-solves the
dynamics against the settled geometry. The returned momentum and forces
satisfy the dynamics with the returned lever arms; the geometric gap between
those lever arms and the ones the returned CoM and footholds imply is
reported as ``residuals.lever_consistency`` (2.6e-2 m on bound), not
closed.

Every force solve, including intermediate ones, yields a trajectory that is
feasible with respect to its own fixed lever geometry, which is what makes
the scheme usable anytime.

The Force-QP is solved by the interior-point method of
:mod:`~centroidal_bcd.qp.ipm`, the Contact-QP by the direct active-set solve
of :mod:`~centroidal_bcd.qp.banded`, which falls back to the interior-point
method when a solve is not accepted; each block keeps its handles for the
whole run. A solve that ends in any status but ``solved``, its iteration
budget included, raises ``BlockSolveError`` naming the block, the outer
iteration and the status.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Mapping, Sequence

import numpy as np

from .contact_qp import ContactQpInputs, build_contact_qp, extract_contact_iterate, \
    nominal_footholds
from .force_qp import ForceIterate, ForceQpInputs, build_force_qp, extract_force_iterate, \
    force_original_cost
from .model import CentroidalState, ContactPlan, EffectorContact, ResidualReport, Trajectory, \
    _integer, _nonnegative, _real, state_array, verify_trajectory
from .qp.banded import BandedActiveSetSolver
from .qp.ipm import InteriorPointSolver
from .qp.problem import QpSolution, SolverSettings
from .structure import CostWeights

__all__ = [
    "BcdSettings",
    "BcdIterationRecord",
    "TrajectoryResult",
    "BlockSolveError",
    "consensus_metric",
    "optimize",
    "force_trajectory",
]

log = logging.getLogger(__name__)

# Growing the proximal weights geometrically overflows useful double range
# after a handful of iterations; growth is capped here.
L_PROX_CAP = 1e12


class BlockSolveError(RuntimeError):
    """A subproblem failed; carries which block and which outer iteration."""

    def __init__(self, block: str, iteration: int, status: str):
        super().__init__(f"{block} QP failed at outer iteration {iteration}: {status}")
        self.block = block
        self.iteration = iteration
        self.status = status


@dataclass(frozen=True)
class BcdSettings:
    """Outer loop configuration: the initial proximal weight of both blocks,
    its growth factor, the consensus threshold on the lever arms (0 runs to
    the cap), and the iteration cap."""

    L0: float = 100.0
    alpha: float = 100.0
    eps_f: float = 1e-7
    max_outer_iterations: int = 10
    solver: SolverSettings = field(default_factory=SolverSettings)

    def __post_init__(self):
        _nonnegative(self.L0, "L0")
        if _real(self.alpha, "alpha") <= 1.0:
            raise ValueError(f"alpha must be > 1, got {self.alpha!r}")
        _nonnegative(self.eps_f, "eps_f")
        _integer(self.max_outer_iterations, "max_outer_iterations", 1)


@dataclass(frozen=True)
class BcdIterationRecord:
    """Bookkeeping for one outer iteration (or the final force solve, which
    carries zero contact times and repeats the last consensus value)."""

    iteration: int
    force_qp_time: float
    contact_qp_time: float
    eps_f_value: float
    original_cost: float
    force_solver_iterations: int
    # Active-set passes of the contact block's direct solve, or the
    # interior-point iterations of its fallback when ``contact_fallback`` is
    # set.
    contact_solver_iterations: int
    # Proximal weights actually applied (the force weight is zero on the
    # first iteration, which has no contact solve to regularize toward).
    force_prox_weight: float = 0.0
    contact_prox_weight: float = 0.0
    # Whether the contact block's direct solve was not accepted and the
    # interior-point method solved the contact QP instead.
    contact_fallback: bool = False
    # Unscaled primal and dual residuals of each block's last termination
    # check (the contact block's accepted active-set pass).
    force_primal_residual: float = 0.0
    force_dual_residual: float = 0.0
    contact_primal_residual: float = 0.0
    contact_dual_residual: float = 0.0
    # Whether the force solve started from the force handle's last solved
    # iterate (every force solve after a run's first, unless one failed).
    force_warm_started: bool = False
    # Whether the force solve's polish was accepted. A force handle stops
    # polishing after its first rejected polish, so with
    # ``force_factorizations`` a record reads as polished, rejected
    # (factorizations = iterations + 1) or skipped (= iterations).
    force_polished: bool = False
    # Matrices each block's solve factored: the force block's Newton and
    # polish factorizations, the contact block's active-set passes plus its
    # fallback's factorizations. Host-independent work counts.
    force_factorizations: int = 0
    contact_factorizations: int = 0
    # Back-solves with those factors: two per interior-point iteration, and
    # one plus the refinement steps per polish or active-set pass.
    force_band_solves: int = 0
    contact_band_solves: int = 0
    # Seconds each block spent before its solve: building its QP (the
    # plan's structure included, on the plan's first build) and setting up
    # its solver handle or updating its values (the contact block's
    # fallback handle included).
    force_setup_time: float = 0.0
    contact_setup_time: float = 0.0

    def as_dict(self) -> dict:
        """Every field but the solve and setup times, which differ from run
        to run and are written to timing.csv; ``eps_f_value`` is named
        ``eps_f``."""
        return {("eps_f" if f.name == "eps_f_value" else f.name): getattr(self, f.name)
                for f in fields(self) if not f.name.endswith(("_qp_time", "_setup_time"))}


@dataclass(frozen=True)
class TrajectoryResult:
    """Final trajectory plus the convergence trace of the outer loop;
    ``states`` and ``contacts`` are the trajectory's object views."""

    trajectory: Trajectory
    records: tuple[BcdIterationRecord, ...]
    final_record: BcdIterationRecord
    converged: bool
    residuals: ResidualReport
    # The records' setup times summed: every block's builds and handle
    # setups or value updates.
    setup_time: float = 0.0
    force_iterates: tuple | None = None

    @property
    def states(self) -> Sequence[CentroidalState]:
        return self.trajectory.states

    @property
    def contacts(self) -> Sequence[Mapping[str, EffectorContact]]:
        return self.trajectory.contacts

    @property
    def eps_trace(self) -> list[float]:
        return [r.eps_f_value for r in self.records]

    @property
    def force_time(self) -> float:
        """Pure solve time of every force solve, the final one included."""
        return sum(r.force_qp_time for r in self.records) + self.final_record.force_qp_time

    @property
    def contact_time(self) -> float:
        """Pure solve time of every contact solve."""
        return sum(r.contact_qp_time for r in self.records)

    @property
    def solve_time(self) -> float:
        """Total pure solve time over all subproblem solves."""
        return self.force_time + self.contact_time

    @property
    def force_time_share(self) -> float:
        total = self.solve_time
        return self.force_time / total if total > 0 else float("nan")


def consensus_metric(ell_k, ell_prev, horizon: int) -> float:
    """Squared norm of the stacked lever-arm change divided by the horizon."""
    a = np.asarray(ell_k, dtype=float).ravel()
    b = np.asarray(ell_prev, dtype=float).ravel()
    if a.shape != b.shape:
        raise ValueError(f"lever-arm stacks differ in length: {a.shape} vs {b.shape}")
    _integer(horizon, "horizon", 1)
    d = a - b
    return float(d @ d) / horizon


def force_trajectory(iterate: ForceIterate, ell_fixed, p_fixed, plan: ContactPlan,
                     z_fixed=None) -> Trajectory:
    """The trajectory of a force iterate with the lever geometry it was
    solved against ((pairs, 3) arrays), ready for verify_trajectory; it
    carries offsets only given ``z_fixed``, the (flat pairs, 2) centers of
    pressure of the contact solve that built ``ell_fixed``."""
    table = plan.pair_table
    return Trajectory(plan, h=iterate.h, f=iterate.f, p=p_fixed, ell=ell_fixed,
                      z=None if z_fixed is None else table.scatter(z_fixed, table.flat),
                      tau=table.scatter(iterate.tau, table.flat))


def _block_fields(block: str, sol: QpSolution, setup_time: float) -> dict:
    """The fields of a ``BcdIterationRecord`` that one block's solve fills,
    named ``<block>_<field>``."""
    values = {
        "qp_time": sol.solve_time,
        "setup_time": setup_time,
        "solver_iterations": sol.iterations,
        "primal_residual": sol.primal_residual,
        "dual_residual": sol.dual_residual,
        "factorizations": sol.factorizations,
        "band_solves": sol.band_solves,
    }
    if block == "force":  # the contact block's direct solve starts no iterate, polishes none
        values.update(warm_started=sol.warm_started, polished=sol.polished)
    return {f"{block}_{name}": value for name, value in values.items()}


def _set_up(handle, kind, qp, settings: SolverSettings):
    """The block's handle of type ``kind``, set up on ``qp`` or given its
    values, and the seconds that took."""
    t0 = time.perf_counter()
    if handle is None:
        handle = kind(qp, settings)
    else:
        handle.update_values(qp)
    return handle, time.perf_counter() - t0


def _solve_block(handle: InteriorPointSolver | None, qp, settings: SolverSettings,
                 block: str, iteration: int):
    """Set up or value-update the block's solver handle and solve once; any
    status but ``solved``, the iteration cap included, raises
    ``BlockSolveError``. Returns the handle, the solution and the setup
    seconds."""
    handle, setup = _set_up(handle, InteriorPointSolver, qp, settings)
    sol = handle.solve()
    if not sol.solved:
        raise BlockSolveError(block, iteration, sol.status)
    return handle, sol, setup


def _solve_contact(direct: BandedActiveSetSolver | None,
                   fallback: InteriorPointSolver | None, qp, settings: SolverSettings,
                   iteration: int):
    """Solve the contact QP directly; when the active-set solve is not
    accepted, log why and solve it with the interior-point method instead,
    through a handle created on the first fallback. Returns both handles,
    the solution (timed over both attempts), whether it fell back and the
    setup seconds of both handles."""
    direct, setup = _set_up(direct, BandedActiveSetSolver, qp, settings)
    sol = direct.solve()
    if sol.solved:
        return direct, fallback, sol, False, setup
    log.warning("contact QP direct solve not accepted at outer iteration %d (%s after %d "
                "passes); falling back to the interior-point method", iteration, sol.status,
                sol.iterations)
    fallback, ipm, fallback_setup = _solve_block(fallback, qp, settings, "contact", iteration)
    sol = replace(ipm, solve_time=sol.solve_time + ipm.solve_time,
                  factorizations=sol.factorizations + ipm.factorizations,
                  band_solves=sol.band_solves + ipm.band_solves)
    return direct, fallback, sol, True, setup + fallback_setup


def optimize(plan: ContactPlan, references: np.ndarray,
             settings: BcdSettings | None = None,
             weights: CostWeights | None = None,
             on_iteration: Callable[[BcdIterationRecord], None] | None = None,
             keep_force_iterates: bool = False,
             residual_tol: float = 1e-5) -> TrajectoryResult:
    """Run the block coordinate descent on one contact plan, tracking the
    (N, 9) ``references``, which are checked here (see ``state_array``).

    ``on_iteration`` receives each iteration record as it completes (the CLI
    uses this for progress reports). With ``keep_force_iterates`` the result
    additionally carries every force iterate together with the lever arms and
    footholds it was solved against, for anytime-feasibility audits. The
    returned trajectory carries the lever arms, footholds and centers of
    pressure of the last contact solve.
    """
    _nonnegative(residual_tol, "residual_tol")
    settings = settings or BcdSettings()
    weights = weights or CostWeights()
    references = state_array(references, plan.horizon, "references")

    # Lever-arm initialization: nominal footholds against the interpolated
    # CoM reference. The first force solve runs without momentum
    # regularization since no contact solve has happened yet.
    p_fixed = nominal_footholds(plan, references)
    ell = p_fixed - references[plan.pair_table.t, 0:3]
    h_reg = None
    p_reg = None
    l_prox = settings.L0

    force_handle: InteriorPointSolver | None = None
    contact_handle: BandedActiveSetSolver | None = None
    contact_fallback_handle: InteriorPointSolver | None = None
    records: list[BcdIterationRecord] = []
    kept = [] if keep_force_iterates else None
    converged = False
    eps_value = float("inf")

    def run_force(iteration: int, l_prox: float):
        nonlocal force_handle
        t0 = time.perf_counter()
        qp = build_force_qp(ForceQpInputs(
            plan=plan, ell_fixed=ell, p_fixed=p_fixed, references=references,
            weights=weights, h_reg=h_reg, l_prox=l_prox if h_reg is not None else 0.0))
        # The build and the handle's setup or value update are timed apart
        # from the solve.
        build = time.perf_counter() - t0
        force_handle, sol, setup = _solve_block(force_handle, qp, settings.solver,
                                                "force", iteration)
        iterate = extract_force_iterate(sol, plan)
        if kept is not None:
            kept.append((iterate, ell, p_fixed))
        return iterate, sol, build + setup

    k = 0
    while k < settings.max_outer_iterations:
        k += 1
        force_iterate, force_sol, force_setup = run_force(k, l_prox)

        t0 = time.perf_counter()
        qp_c = build_contact_qp(ContactQpInputs(
            plan=plan, f_fixed=force_iterate.f, h_reg=force_iterate.h,
            references=references, weights=weights,
            p_reg=p_reg, tau_fixed=force_iterate.tau, l_prox=l_prox))
        build = time.perf_counter() - t0
        contact_handle, contact_fallback_handle, contact_sol, fell_back, contact_setup = \
            _solve_contact(contact_handle, contact_fallback_handle, qp_c, settings.solver, k)
        contact_iterate = extract_contact_iterate(contact_sol, plan)

        eps_value = consensus_metric(contact_iterate.ell, ell, plan.horizon)
        record = BcdIterationRecord(
            iteration=k, eps_f_value=eps_value,
            original_cost=force_original_cost(force_iterate, references, weights, plan),
            force_prox_weight=l_prox if h_reg is not None else 0.0, contact_prox_weight=l_prox,
            contact_fallback=fell_back, **_block_fields("force", force_sol, force_setup),
            **_block_fields("contact", contact_sol, build + contact_setup))
        records.append(record)
        if on_iteration is not None:
            on_iteration(record)
        l_prox = min(l_prox * settings.alpha, L_PROX_CAP)
        if l_prox == L_PROX_CAP:
            log.debug("proximal weight capped at %.1e", L_PROX_CAP)

        ell = contact_iterate.ell
        p_fixed = p_reg = contact_iterate.p
        h_reg = contact_iterate.h
        # eps_f = 0 never converges: it forces the iteration cap.
        if settings.eps_f > 0.0 and eps_value <= settings.eps_f:
            converged = True
            break

    # One final force solve against the settled geometry yields the
    # profiles that are returned, which satisfy the dynamics with the
    # returned lever arms. It runs without the
    # proximal pull: damping has done its job once the loop exits, and keeping
    # the grown weight would only bias the returned profiles away from the
    # task optimum at the settled lever geometry.
    final_iterate, final_sol, final_setup = run_force(k + 1, 0.0)
    final_record = BcdIterationRecord(
        iteration=k + 1, contact_qp_time=0.0, contact_solver_iterations=0,
        eps_f_value=eps_value,
        original_cost=force_original_cost(final_iterate, references, weights, plan),
        **_block_fields("force", final_sol, final_setup))
    if on_iteration is not None:
        on_iteration(final_record)

    traj = force_trajectory(final_iterate, ell, p_fixed, plan, contact_iterate.z)
    residuals = verify_trajectory(traj, plan, tol=residual_tol)
    return TrajectoryResult(
        trajectory=traj,
        records=tuple(records),
        final_record=final_record,
        converged=converged,
        residuals=residuals,
        setup_time=sum(r.force_setup_time + r.contact_setup_time for r in records)
        + final_record.force_setup_time,
        force_iterates=tuple(kept) if kept is not None else None)
