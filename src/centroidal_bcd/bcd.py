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
the scheme usable anytime. That needs primal feasibility, not optimality, so
the force solves that carry a proximal pull (all but a run's first, which
has no pull yet, and its final one, which drops it) stop at a loose
optimality tolerance, ``PROX_OPTIMALITY_REL``, with the primal test kept
exact: inexact block coordinate descent with controlled block errors
(Tappenden, Richtarik and Gondzio, JOTA 170, 2016). Over the shipped
scenarios and trot N=300 the force solves take 151 interior-point
iterations where exact ones take 193, with the same outer iterations;
loosening the first solve as well takes 126 but raises trot N=300's
returned lever gap from 9.1e-5 to 3.8e-3 m. The first and final force
solves and every contact solve stay exact.

The Force-QP is solved by the interior-point method of
:mod:`~centroidal_bcd.qp.ipm`, the Contact-QP by the direct active-set solve
of :mod:`~centroidal_bcd.qp.banded`; each block keeps its handle for the
whole run, and every solve of either block is one step: build, set up or
update the handle, solve, extract. A solve that ends in any status but
``solved``, its iteration budget included, raises ``BlockSolveError``
naming the block, the outer iteration and the status.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field, fields
from typing import Callable, Mapping, Sequence

import numpy as np

from .contact_qp import ContactQpInputs, build_contact_qp, extract_contact_iterate, \
    nominal_footholds
from .force_qp import ForceIterate, ForceQpInputs, build_force_qp, extract_force_iterate, \
    force_original_cost
from .model import CentroidalState, ContactPlan, EffectorContact, ResidualReport, Trajectory, \
    _array, _integer, _nonnegative, _real, state_array, verify_trajectory
from .qp.banded import BandedActiveSetSolver
from .qp.ipm import InteriorPointSolver
from .qp.problem import SolverSettings
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

# The proximal weights grow geometrically and stop at this cap. Above it the
# force block's Newton matrices lose their conditioning: at 1e12, 10 of 400
# random low-friction plans (``tests/random_plans.py``, seed 61) spent a
# proximal force solve's iteration budget, 4 at 1e6. The shipped scenarios
# end within 3 outer iterations, so at the default L0 and growth (100 each)
# their weights never pass the cap.
L_PROX_CAP = 1e6
# Relative optimality tolerance of the force solves that carry a proximal
# pull (see ``InteriorPointSolver.solve``); their primal test stays exact.
# At 1e-2 bound's final cost rose 0.11%; 1e-4 saves 36 of the 42 iterations
# that 1e-3 saves over the shipped scenarios and trot N=300.
PROX_OPTIMALITY_REL = 1e-3


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
    # Active-set passes of the contact block's direct solve.
    contact_solver_iterations: int
    # Proximal weights actually applied (the force weight is zero on the
    # first iteration, which has no contact solve to regularize toward).
    force_prox_weight: float = 0.0
    contact_prox_weight: float = 0.0
    # Unscaled primal and dual residuals of each block's last termination
    # check (the contact block's accepted active-set pass). A force solve
    # with a proximal pull stops at the loose optimality tolerance
    # ``PROX_OPTIMALITY_REL``, so its dual residual can reach 1e-3 of its
    # terms' norms (0.128 on trot N=60's middle solve); the first and final
    # force solves end at the default tolerances.
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
    # (factorizations = iterations + 1) or skipped (= iterations). A solve
    # after an accepted polish first tries that polish's held set, which
    # counts as its polish: one that lands there takes no iteration, and a
    # missed set detected again is not factored twice (one detected
    # elsewhere adds a factorization).
    force_polished: bool = False
    # Matrices each block's solve factored: the force block's Newton and
    # polish factorizations, the contact block's active-set passes.
    # Host-independent work counts.
    force_factorizations: int = 0
    contact_factorizations: int = 0
    # Back-solves with those factors: two per interior-point iteration, and
    # one plus the refinement steps per polish or active-set pass.
    force_band_solves: int = 0
    contact_band_solves: int = 0
    # Seconds each block spent before its solve: building its QP (the
    # plan's structure included, on the plan's first build) and setting up
    # its solver handle or updating its values.
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
    def setup_time(self) -> float:
        """The records' setup times summed: every block's builds and handle
        setups or value updates."""
        return (sum(r.force_setup_time + r.contact_setup_time for r in self.records)
                + self.final_record.force_setup_time)

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
    b = _array(ell_prev, "ell_prev", np.shape(ell_prev))
    d = _array(ell_k, "ell_k", b.shape) - b
    return float(np.vdot(d, d)) / _integer(horizon, "horizon", 1)


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

    handles: dict[str, InteriorPointSolver | BandedActiveSetSolver] = {}  # kept for the run
    records: list[BcdIterationRecord] = []
    kept = [] if keep_force_iterates else None
    converged = False
    eps_value = float("inf")

    def step(block: str, inputs: ForceQpInputs | ContactQpInputs, iteration: int):
        """Solve one block on ``inputs``: returns the iterate and the record
        fields the solve fills. Builders and extractors are looked up in this
        module at each call, so wrappers swapped in (tracing, QP capture)
        see every solve."""
        force = block == "force"
        t0 = time.perf_counter()
        qp = (build_force_qp if force else build_contact_qp)(inputs)
        if block in handles:
            handles[block].update_values(qp)
        else:
            handles[block] = (InteriorPointSolver if force else BandedActiveSetSolver)(
                qp, settings.solver)
        # The build and the handle's setup or value update are timed apart.
        setup = time.perf_counter() - t0
        # A force solve with a proximal pull is an intermediate iterate,
        # which needs primal feasibility, not optimality.
        sol = (handles[block].solve(PROX_OPTIMALITY_REL) if force and inputs.l_prox > 0.0
               else handles[block].solve())
        if not sol.solved:
            raise BlockSolveError(block, iteration, sol.status)
        iterate = (extract_force_iterate if force else extract_contact_iterate)(sol, plan)
        if force and kept is not None:
            kept.append((iterate, inputs.ell_fixed, inputs.p_fixed))
        values = dict(qp_time=sol.solve_time, setup_time=setup, solver_iterations=sol.iterations,
                      primal_residual=sol.primal_residual, dual_residual=sol.dual_residual,
                      factorizations=sol.factorizations, band_solves=sol.band_solves,
                      prox_weight=inputs.l_prox)
        if force:  # the contact block's direct solve starts no iterate, polishes none
            values.update(warm_started=sol.warm_started, polished=sol.polished)
        return iterate, {f"{block}_{name}": value for name, value in values.items()}

    def force_inputs(l_prox: float) -> ForceQpInputs:
        # No proximal pull before a contact solve has given it a target.
        return ForceQpInputs(plan=plan, ell_fixed=ell, p_fixed=p_fixed, references=references,
                             weights=weights, h_reg=h_reg,
                             l_prox=l_prox if h_reg is not None else 0.0)

    k = 0
    while k < settings.max_outer_iterations:
        k += 1
        force_iterate, force_values = step("force", force_inputs(l_prox), k)
        contact_iterate, contact_values = step("contact", ContactQpInputs(
            plan=plan, f_fixed=force_iterate.f, h_reg=force_iterate.h,
            references=references, weights=weights,
            p_reg=p_reg, tau_fixed=force_iterate.tau, l_prox=l_prox), k)

        eps_value = consensus_metric(contact_iterate.ell, ell, plan.horizon)
        record = BcdIterationRecord(
            iteration=k, eps_f_value=eps_value,
            original_cost=force_original_cost(force_iterate, references, weights, plan),
            **force_values, **contact_values)
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
    final_iterate, final_values = step("force", force_inputs(0.0), k + 1)
    final_record = BcdIterationRecord(
        iteration=k + 1, contact_qp_time=0.0, contact_solver_iterations=0,
        eps_f_value=eps_value,
        original_cost=force_original_cost(final_iterate, references, weights, plan),
        **final_values)
    if on_iteration is not None:
        on_iteration(final_record)

    traj = force_trajectory(final_iterate, ell, p_fixed, plan, contact_iterate.z)
    residuals = verify_trajectory(traj, plan, tol=residual_tol)
    return TrajectoryResult(trajectory=traj, records=tuple(records), final_record=final_record,
                            converged=converged, residuals=residuals,
                            force_iterates=tuple(kept) if kept is not None else None)
