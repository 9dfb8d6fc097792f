"""Block coordinate descent driver alternating the force and contact QPs.

One outer iteration solves the Force-QP for the momentum trajectory and
contact forces against the current lever arms, then the Contact-QP for the
CoM, footholds, and recovered lever arms against those forces. Both solves
carry proximal pulls toward the other block's latest trajectory whose weights
grow geometrically, damping the alternation into consensus; the loop stops
when the squared change of the stacked lever arms per horizon step falls
below the consensus threshold (or the iteration cap is hit), after which one
final Force-QP re-solves the dynamics against the settled geometry so the
returned profiles are dynamically consistent.

Every force solve, including intermediate ones, yields a trajectory that is
feasible with respect to its own fixed lever geometry, which is what makes
the scheme usable anytime.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from .contact_qp import ContactQpInputs, build_contact_qp, extract_contact_iterate, \
    nominal_footholds
from .force_qp import CostWeights, ForceIterate, ForceQpInputs, build_force_qp, \
    extract_force_iterate, force_original_cost, stack_vectors
from .model import CentroidalState, ContactPlan, EffectorContact, ResidualReport, \
    verify_trajectory
from .qp.admm import AdmmSolver
from .qp.problem import SolverSettings
from .references import ReferenceSet

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
    """Outer loop configuration: initial proximal weights, their growth factor,
    the consensus threshold on the lever arms, and the iteration cap."""

    L0_force: float = 100.0
    L0_contact: float = 100.0
    alpha: float = 100.0
    eps_f: float = 1e-7
    max_outer_iterations: int = 10
    solver: SolverSettings = field(default_factory=SolverSettings)

    def __post_init__(self):
        if self.alpha <= 1.0:
            raise ValueError("alpha must be > 1")
        if self.eps_f < 0.0:
            raise ValueError("eps_f must be >= 0 (0 forces the iteration cap)")
        if self.L0_force < 0.0 or self.L0_contact < 0.0:
            raise ValueError("initial proximal weights must be >= 0")
        if self.max_outer_iterations < 1:
            raise ValueError("need at least one outer iteration")


@dataclass(frozen=True)
class BcdIterationRecord:
    """Bookkeeping for one outer iteration (or the final force solve, which
    carries a zero contact time and repeats the last consensus value)."""

    iteration: int
    force_qp_time: float
    contact_qp_time: float
    eps_f_value: float
    original_cost: float
    force_solver_iterations: int
    contact_solver_iterations: int
    # Proximal weights actually applied (the force weight is zero on the
    # first iteration, which has no contact solve to regularize toward).
    force_prox_weight: float = 0.0
    contact_prox_weight: float = 0.0

    def as_dict(self) -> dict:
        return {
            "iteration": self.iteration,
            "eps_f": self.eps_f_value,
            "original_cost": self.original_cost,
            "force_solver_iterations": self.force_solver_iterations,
            "contact_solver_iterations": self.contact_solver_iterations,
            "force_prox_weight": self.force_prox_weight,
            "contact_prox_weight": self.contact_prox_weight,
        }


@dataclass(frozen=True)
class TrajectoryResult:
    """Final trajectories plus the convergence trace of the outer loop."""

    states: tuple[CentroidalState, ...]
    contacts: tuple[Mapping[str, EffectorContact], ...]
    records: tuple[BcdIterationRecord, ...]
    final_record: BcdIterationRecord
    converged: bool
    residuals: ResidualReport
    setup_time: float = 0.0
    force_iterates: tuple | None = None

    @property
    def eps_trace(self) -> list[float]:
        return [r.eps_f_value for r in self.records]

    @property
    def solve_time(self) -> float:
        """Total pure solve time over all subproblem solves."""
        return sum(r.force_qp_time + r.contact_qp_time for r in self.records) \
            + self.final_record.force_qp_time

    @property
    def force_time_share(self) -> float:
        total = self.solve_time
        force = sum(r.force_qp_time for r in self.records) + self.final_record.force_qp_time
        return force / total if total > 0 else float("nan")


def consensus_metric(ell_k, ell_prev, horizon: int) -> float:
    """Squared norm of the stacked lever-arm change divided by the horizon."""
    a = np.asarray(ell_k, dtype=float).ravel()
    b = np.asarray(ell_prev, dtype=float).ravel()
    if a.shape != b.shape:
        raise ValueError(f"lever-arm stacks differ in length: {a.shape} vs {b.shape}")
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    d = a - b
    return float(d @ d) / horizon


def force_trajectory(iterate: ForceIterate, ell_fixed, p_fixed, plan: ContactPlan):
    """Assemble (state, contacts) pairs from a force iterate and the lever
    geometry it was solved against, suitable for verify_trajectory."""
    traj = []
    for t, state in enumerate(iterate.states):
        contacts = {}
        for ph in plan.active_contacts(t):
            e = ph.end_effector_id
            contacts[e] = EffectorContact(
                f=iterate.forces[(t, e)],
                p=p_fixed[(t, e)],
                ell=ell_fixed[(t, e)],
                z=iterate.zmps.get((t, e)),
                tau=iterate.torques.get((t, e)),
            )
        traj.append((state, contacts))
    return traj


def _solve_block(handle: AdmmSolver | None, qp, settings: SolverSettings,
                 block: str, iteration: int):
    """Set up or value-update the block's solver handle, then solve with the
    retry-once policy on iteration exhaustion."""
    if handle is None:
        handle = AdmmSolver(qp, settings, validate=False)
        warm = None
    else:
        # Builders keep one pattern per plan, so the raw value arrays line up
        # with the handle's pattern without a per-call comparison.
        handle.update_values(new_q=qp.q, new_lo=qp.lo, new_hi=qp.hi,
                             new_P_values=qp.P.data, new_A_values=qp.A.data)
        warm = handle.warm_start_point()
    sol = handle.solve(warm_start=warm)
    if sol.status == "max_iter":
        log.warning("%s QP hit the iteration cap at outer iteration %d; retrying with 10x",
                    block, iteration)
        sol = handle.solve(warm_start=(sol.x, sol.y),
                           max_iterations=10 * settings.max_iterations)
    if not sol.solved:
        raise BlockSolveError(block, iteration, sol.status)
    return handle, sol


def optimize(plan: ContactPlan, references: ReferenceSet,
             settings: BcdSettings | None = None,
             weights: CostWeights | None = None,
             on_iteration: Callable[[BcdIterationRecord], None] | None = None,
             keep_force_iterates: bool = False,
             residual_tol: float = 1e-5) -> TrajectoryResult:
    """Run the block coordinate descent on one contact plan.

    ``on_iteration`` receives each iteration record as it completes (the CLI
    uses this for progress reports). With ``keep_force_iterates`` the result
    additionally carries every force iterate together with the lever geometry
    it was solved against, for anytime-feasibility audits.
    """
    settings = settings or BcdSettings()
    weights = weights or CostWeights()
    if len(references) != plan.horizon:
        raise ValueError("references must cover the plan horizon")

    # Lever-arm initialization: nominal footholds against the interpolated
    # CoM reference. The first force solve runs without momentum
    # regularization since no contact solve has happened yet.
    p_fixed = nominal_footholds(plan, references)
    ell = {(t, e): p_fixed[(t, e)] - references.h_kin[t].r
           for (t, e) in plan.active_pairs()}
    h_reg = None
    p_reg = None
    L_force = settings.L0_force
    L_contact = settings.L0_contact

    force_handle: AdmmSolver | None = None
    contact_handle: AdmmSolver | None = None
    records: list[BcdIterationRecord] = []
    kept = [] if keep_force_iterates else None
    converged = False
    eps_value = float("inf")

    setup_time = 0.0

    def run_force(iteration: int, l_prox: float):
        nonlocal force_handle, setup_time
        t0 = time.perf_counter()
        qp = build_force_qp(ForceQpInputs(
            plan=plan, ell_fixed=ell, p_fixed=p_fixed, references=references,
            weights=weights, h_reg=h_reg, l_prox=l_prox if h_reg is not None else 0.0))
        force_handle, sol = _solve_block(force_handle, qp, settings.solver,
                                         "force", iteration)
        # Assembly, setup, and factorization updates are accounted separately
        # from pure solve time.
        setup_time += time.perf_counter() - t0 - sol.solve_time
        iterate = extract_force_iterate(sol, qp.layout)
        if kept is not None:
            kept.append((iterate, dict(ell), dict(p_fixed)))
        return iterate, sol, sol.solve_time

    k = 0
    while k < settings.max_outer_iterations:
        k += 1
        L_force_used = L_force if h_reg is not None else 0.0
        L_contact_used = L_contact
        force_iterate, force_sol, force_time = run_force(k, L_force)
        L_force = min(L_force * settings.alpha, L_PROX_CAP)
        if L_force == L_PROX_CAP:
            log.debug("force proximal weight capped at %.1e", L_PROX_CAP)

        t0 = time.perf_counter()
        qp_c = build_contact_qp(ContactQpInputs(
            plan=plan, f_fixed=force_iterate.forces,
            l_reg=tuple(s.l for s in force_iterate.states),
            h_reg=force_iterate.states, references=references, weights=weights,
            p_reg=p_reg, tau_fixed=force_iterate.torques, l_prox=L_contact))
        contact_handle, contact_sol = _solve_block(contact_handle, qp_c,
                                                   settings.solver, "contact", k)
        contact_time = contact_sol.solve_time
        setup_time += time.perf_counter() - t0 - contact_time
        contact_iterate = extract_contact_iterate(contact_sol, qp_c.layout, plan)
        L_contact = min(L_contact * settings.alpha, L_PROX_CAP)

        pairs = plan.active_pairs()
        eps_value = consensus_metric(stack_vectors(contact_iterate.ells[p] for p in pairs),
                                     stack_vectors(ell[p] for p in pairs), plan.horizon)
        record = BcdIterationRecord(
            iteration=k, force_qp_time=force_time, contact_qp_time=contact_time,
            eps_f_value=eps_value,
            original_cost=force_original_cost(force_iterate, references, weights, plan),
            force_solver_iterations=force_sol.iterations,
            contact_solver_iterations=contact_sol.iterations,
            force_prox_weight=L_force_used,
            contact_prox_weight=L_contact_used)
        records.append(record)
        if on_iteration is not None:
            on_iteration(record)

        ell = dict(contact_iterate.ells)
        p_fixed = dict(contact_iterate.footholds)
        h_reg = contact_iterate.states
        p_reg = dict(contact_iterate.footholds)
        if eps_value <= settings.eps_f:
            converged = True
            break

    # One final force solve against the settled geometry yields the
    # dynamically consistent profiles that are returned. It runs without the
    # proximal pull: damping has done its job once the loop exits, and keeping
    # the grown weight would only bias the returned profiles away from the
    # task optimum at the settled lever geometry.
    final_iterate, final_sol, final_time = run_force(k + 1, 0.0)
    final_record = BcdIterationRecord(
        iteration=k + 1, force_qp_time=final_time, contact_qp_time=0.0,
        eps_f_value=eps_value,
        original_cost=force_original_cost(final_iterate, references, weights, plan),
        force_solver_iterations=final_sol.iterations, contact_solver_iterations=0)
    if on_iteration is not None:
        on_iteration(final_record)

    traj = force_trajectory(final_iterate, ell, p_fixed, plan)
    residuals = verify_trajectory(traj, plan, tol=residual_tol)
    return TrajectoryResult(
        states=tuple(s for s, _ in traj),
        contacts=tuple(c for _, c in traj),
        records=tuple(records),
        final_record=final_record,
        converged=converged,
        residuals=residuals,
        setup_time=setup_time,
        force_iterates=tuple(kept) if kept is not None else None)
