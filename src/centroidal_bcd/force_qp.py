"""Force-QP assembly: the full discretized momentum problem with lever arms fixed.

With the lever arms frozen at the previous contact solve's values, the angular
momentum rate kappa = ell x f + tau is linear in the forces and torques, so
the whole trajectory problem over the states h, the forces f and the flat
feet's torques tau is one convex QP:

  - equality rows: the momentum transitions, timestep t touching only states
    at t-1 and t (block banded);
  - inequality rows: friction pyramids in each contact frame and per-axis
    kinematic boxes of the CoM around the fixed footholds. A flat foot's
    center-of-pressure offset z enters the dynamics only through its lever
    arm, so it is a variable of the contact QP alone;
  - diagonal quadratic cost: running penalties, reference tracking, and the
    proximal pull toward the previous contact solve's momentum trajectory.

The columns of each quantity, the sparsity pattern, constant entries and
bounds depend only on the contact plan, so they are built once per plan,
with array arithmetic over the timesteps and the plan's active pairs; each
build copies them and fills in the lever-arm, foothold and cost values with
numpy, and extraction reads the iterate through the same columns. Inputs and
iterates are arrays: one row per active pair in ``plan.active_pairs()``
order, and (N, 9) state arrays, the references among them. What both
trajectory QPs share (cost weights, column and row offsets, recursion rows,
entry placement, and the block record that fills, assembles and reads back
each build) lives in :mod:`~centroidal_bcd.structure`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .model import ContactPlan, _nonnegative, state_array
from .structure import SKEW_I, SKEW_J, BlockStructure, CostWeights, Entries, com_rows, \
    per_plan, recursion_rows, skew_entries, timestep_blocks

if TYPE_CHECKING:
    from .qp.problem import QpSolution, SparseQP

__all__ = [
    "ForceQpInputs",
    "ForceIterate",
    "build_force_qp",
    "extract_force_iterate",
    "force_original_cost",
]


@dataclass(frozen=True)
class ForceQpInputs:
    """Data defining one Force-QP instance.

    ``ell_fixed`` and ``p_fixed`` come from the previous contact solve (or the
    nominal initialization) and ``h_reg`` is the proximal target, absent on
    the first outer iteration, where ``l_prox`` must be zero. ``ell_fixed``
    and ``p_fixed`` are (pairs, 3) arrays in ``plan.active_pairs()`` order,
    ``references`` and ``h_reg`` (N, 9) state arrays; each is stored
    validated and read-only (see ``PairTable.rows`` and ``state_array``).
    """

    plan: ContactPlan
    ell_fixed: np.ndarray
    p_fixed: np.ndarray
    references: np.ndarray
    weights: CostWeights = field(default_factory=CostWeights)
    h_reg: np.ndarray | None = None
    l_prox: float = 0.0

    def __post_init__(self):
        if _nonnegative(self.l_prox, "l_prox") > 0.0 and self.h_reg is None:
            raise ValueError("proximal weight set but no regularization target")
        object.__setattr__(self, "references",
                           state_array(self.references, self.plan.horizon, "references"))
        if self.h_reg is not None:
            object.__setattr__(self, "h_reg", state_array(self.h_reg, self.plan.horizon, "h_reg"))
        for name in ("ell_fixed", "p_fixed"):
            object.__setattr__(self, name, self.plan.pair_table.rows(getattr(self, name), name))


@dataclass(frozen=True)
class _Structure(BlockStructure):
    """Plan-only part of the Force-QP: the skew slots of A hold zero, and the
    kinematic rows' bounds -L and +L, to which builds add p_fixed. Per-pair
    arrays follow ``plan.active_pairs()``."""

    f_cols: np.ndarray        # (pairs, 3)
    tau_cols: np.ndarray      # (flat pairs, 3)
    skew_pos: np.ndarray      # (pairs, 6) A.data positions of -dt skew(ell)
    kin_rows: np.ndarray      # (pairs, 3)


@per_plan
def _structure(plan: ContactPlan) -> _Structure:
    table, dt, m = plan.pair_table, plan.dt, plan.mass
    t, flat = table.t, table.flat
    # Columns: (r, l, k) of each timestep, then per pair f, plus tau for
    # flat feet.
    t_col, pair_col, n = timestep_blocks(table, 9, 3 + 3 * flat)
    cols = t_col[:, None] + np.arange(9)
    f_cols = pair_col[:, None] + np.arange(3)
    tau_cols = f_cols[flat] + 3
    # Rows: the r, l and k recursions of each timestep, then per pair the
    # friction pyramid and the kinematic box.
    t_row, pair_row, m_c = timestep_blocks(table, 9, 7)
    e = Entries((m_c, n))
    com_rows(e, plan, cols, t_row)
    # l_t - l_{t-1} - dt sum_e f = m g dt
    l_rows = recursion_rows(e, plan, cols, t_row + 3, "l", m * plan.gravity * dt)
    e.add(l_rows[t], f_cols, -dt)
    # k_t - k_{t-1} - dt sum_e (ell x f + tau) = 0. The coefficient on f is
    # -dt skew(ell); its six off-diagonal slots stay structural so the
    # pattern does not depend on the lever arms.
    k_rows = recursion_rows(e, plan, cols, t_row + 6, "k", np.zeros(3))
    skew_slots = e.add(k_rows[t][:, SKEW_I], f_cols[:, SKEW_J])
    e.add(k_rows[t[flat]], tau_cols, -dt)
    # Friction pyramid in the contact frame. Its rows imply a nonnegative
    # normal force, rows 1 and 2 summing to 2 mu rz.f >= 0 with mu > 0.
    rx, ry, rz = (table.rotation[:, :, j] for j in range(3))
    mu_rz = table.friction[:, None] * rz
    friction = pair_row[:, None] + np.arange(4)
    e.add(friction[:, :, None], f_cols[:, None, :],
          np.stack([rx - mu_rz, rx + mu_rz, ry - mu_rz, ry + mu_rz], axis=1))
    e.lo[friction] = [-np.inf, 0.0, -np.inf, 0.0]
    e.hi[friction] = [0.0, np.inf, 0.0, np.inf]
    # Per-axis kinematic box |p_fixed - r| <= L_max.
    kin_rows = pair_row[:, None] + 4 + np.arange(3)
    e.add(kin_rows, cols[t, 0:3], 1.0)
    e.lo[kin_rows], e.hi[kin_rows] = -plan.kinematic_limit, plan.kinematic_limit
    pattern, a_data, lo, hi = e.build()
    return _Structure(n=n, pattern=pattern, a_data=a_data, lo=lo, hi=hi, state_cols=cols,
                      f_cols=f_cols, tau_cols=tau_cols,
                      skew_pos=pattern.positions(skew_slots), kin_rows=kin_rows)


def build_force_qp(inputs: ForceQpInputs) -> SparseQP:
    s = _structure(inputs.plan)
    w = inputs.weights
    a_data, lo, hi, d, q = s.fill(w.state(inputs.plan.horizon), inputs)
    a_data[s.skew_pos] = -inputs.plan.dt * skew_entries(inputs.ell_fixed)
    lo[s.kin_rows] += inputs.p_fixed
    hi[s.kin_rows] += inputs.p_fixed
    d[s.f_cols] = 2.0 * w.force
    d[s.tau_cols] = 2.0 * w.torque
    # The interior-point method's cold start: the reference momentum, and
    # each active pair carrying an equal share of the weight, -m g over the
    # pairs active at its timestep; torques zero.
    plan, table = inputs.plan, inputs.plan.pair_table
    x0 = np.zeros(s.n)
    x0[s.state_cols] = inputs.references
    x0[s.f_cols] = -plan.mass * plan.gravity / np.diff(table.start)[table.t, None]
    return s.qp(a_data, lo, hi, d, q, x0)


@dataclass(frozen=True, eq=False)
class ForceIterate:
    """Solution of one Force-QP: states ``h`` (N, 9), forces ``f`` per active
    pair and torques ``tau`` per flat-foot pair. The centers of pressure
    belong to the contact QP's iterate."""

    h: np.ndarray
    f: np.ndarray
    tau: np.ndarray


def extract_force_iterate(sol: QpSolution, plan: ContactPlan) -> ForceIterate:
    """The iterate of a solved Force-QP built on ``plan``."""
    s = _structure(plan)
    x = s.solution(sol)
    return ForceIterate(h=x[s.state_cols], f=x[s.f_cols], tau=x[s.tau_cols])


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a_i . b_i of every row pair, each by the same dot product as a_i @ b_i."""
    return np.matmul(a[:, None, :], b[:, :, None]).reshape(-1)


def force_original_cost(iterate: ForceIterate, references: np.ndarray,
                        weights: CostWeights, plan: ContactPlan) -> float:
    """Running plus tracking cost of a force iterate, without proximal terms.
    The terms are summed one at a time: states, forces, torques."""
    dh = iterate.h - references
    terms = np.concatenate([_row_dots(dh, weights.state(plan.horizon) * dh),
                            weights.force * _row_dots(iterate.f, iterate.f),
                            weights.torque * _row_dots(iterate.tau, iterate.tau)])
    total = 0.0
    for term in terms.tolist():
        total += term
    return total
