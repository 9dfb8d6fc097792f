"""Force-QP assembly: the full discretized momentum problem with lever arms fixed.

With the lever arms frozen at the previous contact solve's values, the angular
momentum rate kappa = ell x f + tau is linear in the forces and torques, so
the whole trajectory problem over (h, f, tau, z) is one convex QP:

  - equality rows: the momentum transitions, timestep t touching only states
    at t-1 and t (block banded);
  - inequality rows: friction pyramids in each contact frame, per-axis
    kinematic boxes of the CoM around the fixed footholds, and
    center-of-pressure bounds for flat feet;
  - diagonal quadratic cost: running penalties, reference tracking, and the
    proximal pull toward the previous contact solve's momentum trajectory.

The layout, sparsity pattern, constant entries and bounds depend only on the
contact plan, so they are built once per plan; each build copies them and
fills in the lever-arm, foothold and cost values with numpy. The helpers both
trajectory QPs share (state columns, recursion and center-of-pressure rows,
state extraction) live here too.
"""

from __future__ import annotations

import functools
import weakref
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .model import CentroidalState, ContactPlan
from .qp.problem import QpSolution, RowBuilder, SparseQP, TripletPattern, VariableLayout, \
    diagonal
from .references import ReferenceSet

__all__ = [
    "CostWeights",
    "ForceQpInputs",
    "ForceIterate",
    "QpNotSolved",
    "build_force_qp",
    "extract_force_iterate",
    "force_original_cost",
]


class QpNotSolved(RuntimeError):
    """Raised when extraction is attempted on a non-solved QP solution."""

    def __init__(self, status: str):
        super().__init__(f"QP did not solve: status={status}")
        self.status = status


def _weights9(x, name: str) -> np.ndarray:
    w = np.asarray(x, dtype=float).reshape(-1)
    if w.size == 3:
        w = np.repeat(w, 3)
    if w.shape != (9,):
        raise ValueError(f"{name} must have 3 (per r/l/k) or 9 entries")
    if np.any(w < 0.0):
        raise ValueError(f"{name} must be nonnegative")
    w.setflags(write=False)
    return w


@dataclass(frozen=True)
class CostWeights:
    """Diagonal cost weights shared by both trajectory subproblems.

    ``tracking`` is the reference-tracking weight over the stacked state
    (r, l, k); ``running_h`` is the extra running penalty on the same
    deviation (kept separate so the contact subproblem, which carries no
    tracking term, can still see the state). ``terminal`` is added on the last
    timestep. Scalars weigh the squared magnitudes of forces, contact torques
    and center-of-pressure offsets, and the pull of footholds toward their
    nominal placement.
    """

    tracking: np.ndarray = field(default_factory=lambda: np.array([1e2, 1e1, 1e3]))
    running_h: np.ndarray = field(default_factory=lambda: np.array([1e2, 1e1, 1e3]))
    terminal: np.ndarray = field(default_factory=lambda: np.array([1e3, 1e4, 1e4]))
    force: float = 1e-9
    torque: float = 1e-4
    zmp: float = 1e-2
    foothold: float = 1e2

    def __post_init__(self):
        object.__setattr__(self, "tracking", _weights9(self.tracking, "tracking"))
        object.__setattr__(self, "running_h", _weights9(self.running_h, "running_h"))
        object.__setattr__(self, "terminal", _weights9(self.terminal, "terminal"))
        for name in ("force", "torque", "zmp", "foothold"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} weight must be nonnegative")

    def state(self, references: ReferenceSet) -> np.ndarray:
        """(N, 9) weights on each state's deviation from its reference:
        tracking, plus ``terminal`` on the last timestep, plus ``running_h``."""
        W = np.array([references.weight_at(t, self.tracking) for t in range(len(references))])
        W[-1] += self.terminal
        return W + self.running_h


@dataclass(frozen=True)
class ForceQpInputs:
    """Data defining one Force-QP instance.

    ``ell_fixed`` and ``p_fixed`` come from the previous contact solve (or the
    nominal initialization) and must cover exactly the plan's active (t,
    effector) pairs. ``h_reg`` is the proximal target; it is absent on the
    first outer iteration, where ``l_prox`` must be zero.
    """

    plan: ContactPlan
    ell_fixed: Mapping[tuple[int, str], np.ndarray]
    p_fixed: Mapping[tuple[int, str], np.ndarray]
    references: ReferenceSet
    weights: CostWeights = field(default_factory=CostWeights)
    h_reg: tuple[CentroidalState, ...] | None = None
    l_prox: float = 0.0

    def __post_init__(self):
        if self.l_prox < 0.0:
            raise ValueError("proximal weight must be nonnegative")
        if self.l_prox > 0.0 and self.h_reg is None:
            raise ValueError("proximal weight set but no regularization target")
        if len(self.references) != self.plan.horizon:
            raise ValueError("references must cover the horizon")
        if self.h_reg is not None and len(self.h_reg) != self.plan.horizon:
            raise ValueError("h_reg must cover the horizon")
        active = set(self.plan.active_pairs())
        for name in ("ell_fixed", "p_fixed"):
            keys = set(getattr(self, name).keys())
            if keys != active:
                missing = active - keys
                extra = keys - active
                raise ValueError(
                    f"{name} must cover exactly the active pairs "
                    f"(missing {sorted(missing)!r}, extra {sorted(extra)!r})")


# Off-diagonal (i, j) entries of a 3x3 cross-product matrix, and the sign and
# component of v giving skew(v)[i, j] for each.
SKEW_IJ = ((0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1))
_SKEW_SIGN = np.array([-1.0, 1.0, 1.0, -1.0, -1.0, 1.0])
_SKEW_COMPONENT = np.array([2, 1, 2, 0, 1, 0])


def skew_entries(V: np.ndarray) -> np.ndarray:
    """(k, 6) values of skew(v) at ``SKEW_IJ`` for each row v of ``V``."""
    return _SKEW_SIGN * V[:, _SKEW_COMPONENT]


def per_plan(build):
    """Cache ``build(plan)`` for as long as the plan lives. Plans hash by
    identity; the cached value must not refer back to its plan."""
    cache = weakref.WeakKeyDictionary()

    @functools.wraps(build)
    def cached(plan: ContactPlan):
        if plan not in cache:
            cache[plan] = build(plan)
        return cache[plan]

    return cached


def stack_vectors(vectors, width: int = 3) -> np.ndarray:
    """(k, width) float array, one row per vector."""
    return np.array(list(vectors), dtype=float).reshape(-1, width)


def stack_states(states) -> np.ndarray:
    """(N, 9) stacked (r, l, k) of a state sequence."""
    return stack_vectors((s.stacked() for s in states), width=9)


def state_columns(layout: VariableLayout) -> np.ndarray:
    """(N, 9) columns of the state at each timestep. Both trajectory layouts
    place (r, l, k) of one timestep in nine consecutive columns."""
    return layout.columns("r")[::3, None] + np.arange(9)


def extract_states(x: np.ndarray, layout: VariableLayout) -> tuple[CentroidalState, ...]:
    return tuple(CentroidalState.from_stacked(h) for h in x[state_columns(layout)])


def recursion_rows(rb: RowBuilder, plan: ContactPlan, cols: np.ndarray, t: int,
                   quantity: str, rhs: np.ndarray) -> int:
    """Open the rows x_t - x_{t-1} (+ terms placed by the caller) = rhs of the
    state quantity "r", "l" or "k", with x_{-1} the plan's initial state
    moved to the right-hand side. Returns the first row."""
    c = 3 * "rlk".index(quantity)
    if t == 0:
        rhs = rhs + plan.h0.stacked()[c:c + 3]
    row = rb.rows(rhs, rhs)
    rb.diag(row, cols[t, c], 1.0)
    if t > 0:
        rb.diag(row, cols[t - 1, c], -1.0)
    return row


def com_rows(rb: RowBuilder, plan: ContactPlan, cols: np.ndarray, t: int) -> None:
    """CoM recursion r_t - r_{t-1} - (dt/m) l_t = 0."""
    row = recursion_rows(rb, plan, cols, t, "r", np.zeros(3))
    rb.diag(row, cols[t, 3], -plan.dt / plan.mass)


def zmp_rows(rb: RowBuilder, phase, z0: int) -> None:
    """Center-of-pressure box of a flat-foot contact."""
    zlo, zhi = phase.zmp_lo_hi()
    rb.diag(rb.rows(zlo, zhi), z0, 1.0, size=2)


def _force_layout(plan: ContactPlan) -> VariableLayout:
    entries = []
    col = 0
    for t in range(plan.horizon):
        for quantity in ("r", "l", "k"):
            entries.append((quantity, t, None, col, col + 3))
            col += 3
        for ph in plan.active_contacts(t):
            e = ph.end_effector_id
            entries.append(("f", t, e, col, col + 3))
            col += 3
            if ph.flat_foot:
                entries.append(("tau", t, e, col, col + 3))
                col += 3
                entries.append(("z", t, e, col, col + 2))
                col += 2
    return VariableLayout(n=col, entries=tuple(entries))


@dataclass(frozen=True)
class _Structure:
    """Plan-only part of the Force-QP. Per-pair arrays follow
    ``plan.active_pairs()``."""

    layout: VariableLayout
    pattern: TripletPattern
    a_data: np.ndarray        # constant entries; the skew slots hold zero
    lo: np.ndarray            # kinematic rows hold -L and +L; builds add p_fixed
    hi: np.ndarray
    state_cols: np.ndarray    # (N, 9)
    pairs: tuple[tuple[int, str], ...]
    skew_pos: np.ndarray      # (pairs, 6) A.data positions of -dt skew(ell)
    kin_rows: np.ndarray      # (pairs, 3)
    weight_kind: np.ndarray   # (n,) scalar cost weight per column: 1 f, 2 tau, 3 z, 0 none


@per_plan
def _structure(plan: ContactPlan) -> _Structure:
    N, dt, m = plan.horizon, plan.dt, plan.mass
    layout = _force_layout(plan)
    cols = state_columns(layout)
    rb = RowBuilder()
    skew_slots, kin_rows = [], []
    for t in range(N):
        contacts = plan.active_contacts(t)
        com_rows(rb, plan, cols, t)
        # l_t - l_{t-1} - dt sum_e f = m g dt
        row = recursion_rows(rb, plan, cols, t, "l", m * plan.gravity * dt)
        for ph in contacts:
            rb.diag(row, layout.span("f", t, ph.end_effector_id).start, -dt)
        # k_t - k_{t-1} - dt sum_e (ell x f + tau) = 0. The coefficient on f
        # is -dt skew(ell); its six off-diagonal slots stay structural so the
        # pattern does not depend on the lever arms.
        row = recursion_rows(rb, plan, cols, t, "k", np.zeros(3))
        for ph in contacts:
            e = ph.end_effector_id
            skew_slots.append(rb.slots(row, layout.span("f", t, e).start, SKEW_IJ))
            if ph.flat_foot:
                rb.diag(row, layout.span("tau", t, e).start, -dt)
        for ph in contacts:
            e = ph.end_effector_id
            f0 = layout.span("f", t, e).start
            R, mu = ph.rotation, ph.friction_coeff
            rx, ry, rz = R[:, 0], R[:, 1], R[:, 2]
            # Friction pyramid in the contact frame.
            row = rb.rows([-np.inf, 0.0, -np.inf, 0.0, 0.0], [0.0, np.inf, 0.0, np.inf, np.inf])
            rb.block(row, f0, [rx - mu * rz, rx + mu * rz, ry - mu * rz, ry + mu * rz, rz])
            # Per-axis kinematic box |p_fixed - r| <= L_max.
            row = rb.rows(np.full(3, -plan.kinematic_limit), plan.kinematic_limit)
            rb.diag(row, cols[t, 0], 1.0)
            kin_rows.append(range(row, row + 3))
            if ph.flat_foot:
                zmp_rows(rb, ph, layout.span("z", t, e).start)
    pattern, a_data, lo, hi = rb.build(layout.n)
    weight_kind = np.zeros(layout.n, dtype=np.int64)
    for kind, quantity in enumerate(("f", "tau", "z"), start=1):
        weight_kind[layout.columns(quantity)] = kind
    return _Structure(
        layout=layout, pattern=pattern, a_data=a_data, lo=lo, hi=hi, state_cols=cols,
        pairs=tuple(plan.active_pairs()),
        skew_pos=pattern.positions(np.array(skew_slots, dtype=np.int64).reshape(-1, 6)),
        kin_rows=np.array(kin_rows, dtype=np.int64).reshape(-1, 3), weight_kind=weight_kind)


def build_force_qp(inputs: ForceQpInputs) -> SparseQP:
    s = _structure(inputs.plan)
    w, layout = inputs.weights, s.layout
    ell = stack_vectors(inputs.ell_fixed[pair] for pair in s.pairs)
    a_data = s.a_data.copy()
    a_data[s.skew_pos] = -inputs.plan.dt * skew_entries(ell)
    p_fixed = stack_vectors(inputs.p_fixed[pair] for pair in s.pairs)
    lo, hi = s.lo.copy(), s.hi.copy()
    lo[s.kin_rows] += p_fixed
    hi[s.kin_rows] += p_fixed

    W = w.state(inputs.references)
    d = 2.0 * np.array([0.0, w.force, w.torque, w.zmp])[s.weight_kind]
    d[s.state_cols] = 2.0 * W + inputs.l_prox
    q_state = -2.0 * W * stack_states(inputs.references.h_kin)
    if inputs.h_reg is not None and inputs.l_prox > 0.0:
        q_state = q_state - inputs.l_prox * stack_states(inputs.h_reg)
    q = np.zeros(layout.n)
    q[s.state_cols] = q_state
    return SparseQP(n=layout.n, m_c=lo.size, P=diagonal(d), q=q,
                    A=s.pattern.matrix(a_data), lo=lo, hi=hi, layout=layout)


@dataclass(frozen=True)
class ForceIterate:
    """Solution of one Force-QP scattered back to trajectory quantities."""

    states: tuple[CentroidalState, ...]
    forces: Mapping[tuple[int, str], np.ndarray]
    torques: Mapping[tuple[int, str], np.ndarray]
    zmps: Mapping[tuple[int, str], np.ndarray]


def extract_force_iterate(sol: QpSolution, layout: VariableLayout) -> ForceIterate:
    if not sol.solved:
        raise QpNotSolved(sol.status)
    parts = {quantity: dict(zip(layout.keys(quantity),
                                sol.x[layout.columns(quantity)].reshape(-1, width)))
             for quantity, width in (("f", 3), ("tau", 3), ("z", 2))}
    return ForceIterate(states=extract_states(sol.x, layout), forces=parts["f"],
                        torques=parts["tau"], zmps=parts["z"])


def force_original_cost(iterate: ForceIterate, references: ReferenceSet,
                        weights: CostWeights, plan: ContactPlan) -> float:
    """Running plus tracking cost of a force iterate, without proximal terms."""
    total = 0.0
    for state, h_kin, wh in zip(iterate.states, references.h_kin, weights.state(references)):
        dh = state.stacked() - h_kin.stacked()
        total += float(dh @ (wh * dh))
    for f in iterate.forces.values():
        total += weights.force * float(f @ f)
    for tau in iterate.torques.values():
        total += weights.torque * float(tau @ tau)
    for z in iterate.zmps.values():
        total += weights.zmp * float(z @ z)
    return total
