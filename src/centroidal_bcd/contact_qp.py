"""Contact-QP assembly: CoM, footholds, and momentum with the forces fixed.

With the forces frozen at the previous force solve's values, the angular
momentum rate rearranges through a x b = -b x a into

    kappa = f x (r - p) - f x (R^{xy} z) + tau_fixed

which is linear in the remaining unknowns (r, p, z), so the geometry problem
over (r, l, k, p, z) is again one convex QP:

  - equality rows: the CoM recursion r_t = r_{t-1} + l_t dt / m and the
    angular momentum recursion. There are deliberately no linear momentum
    transition rows: l stays free and is only pulled proximally toward the
    force solve's momentum, which lets the CoM trade position against
    momentum when shaping kappa.
  - one foothold variable p per contact phase, constrained to the phase's
    surface polytope. A plane the surface pins with two opposite half-spaces
    (as ``polygon_to_halfspaces`` does) becomes one equality row: the pair
    has an empty interior, and both of its rows active make the active set
    rank-deficient. Every later timestep of the phase holds its own copy,
    tied to the previous timestep's copy (or to p) by equality rows, so the
    foothold stays constant while every row couples timesteps t-1 and t only
    and the KKT matrix stays narrowly banded. Each timestep's
    kinematic box around the CoM and its angular momentum row use that
    timestep's copy;
  - diagonal quadratic cost: foothold pull toward nominal placements,
    center-of-pressure penalties, and proximal pulls of h toward the force
    solve and of the footholds toward the previous contact solve. The
    foothold terms of a timestep sit on its copy, which on the feasible set
    gives the phase foothold the same cost as one shared variable.

As on the force side, the structure depends only on the plan and is built
once per plan with array arithmetic: the fixed forces fill dedicated skew
slots that exist even when zero, and each build copies the cached structure
and fills in the force, torque, reference and proximal values with numpy.
Inputs and iterates are per-pair arrays in ``plan.active_pairs()`` order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .model import ContactPlan, Polytope, _lever_geometry, _nonnegative, state_array
from .qp.problem import QpSolution, SparseQP
from .structure import SKEW_I, SKEW_J, CostWeights, Entries, QpNotSolved, com_rows, per_plan, \
    recursion_rows, skew_entries, timestep_blocks

if TYPE_CHECKING:
    from .qp.pattern import QpPattern

__all__ = [
    "ContactQpInputs",
    "ContactIterate",
    "build_contact_qp",
    "extract_contact_iterate",
    "nominal_footholds",
]


@dataclass(frozen=True)
class ContactQpInputs:
    """Data defining one Contact-QP instance.

    ``f_fixed`` (and ``tau_fixed`` for flat feet) come from the force solve of
    the same outer iteration; ``h_reg`` is its state trajectory (momentum
    included), ``p_reg`` the previous contact solve's footholds (absent on
    the first outer iteration). ``f_fixed`` and ``p_reg`` are (pairs, 3)
    arrays in ``plan.active_pairs()`` order, ``tau_fixed`` has one row per
    flat-foot pair (None means zeros), and ``h_reg`` and ``references`` are
    (N, 9) state arrays; each is stored validated and read-only (see
    ``PairTable.rows`` and ``state_array``).
    """

    plan: ContactPlan
    f_fixed: np.ndarray
    h_reg: np.ndarray
    references: np.ndarray
    weights: CostWeights = field(default_factory=CostWeights)
    p_reg: np.ndarray | None = None
    tau_fixed: np.ndarray | None = None
    l_prox: float = 0.0

    def __post_init__(self):
        _nonnegative(self.l_prox, "l_prox")
        table, N = self.plan.pair_table, self.plan.horizon
        object.__setattr__(self, "references", state_array(self.references, N, "references"))
        object.__setattr__(self, "h_reg", state_array(self.h_reg, N, "h_reg"))
        object.__setattr__(self, "f_fixed", table.rows(self.f_fixed, "f_fixed"))
        if self.p_reg is not None:
            object.__setattr__(self, "p_reg", table.rows(self.p_reg, "p_reg"))
        tau = np.zeros((int(table.flat.sum()), 3)) if self.tau_fixed is None else self.tau_fixed
        object.__setattr__(self, "tau_fixed", table.rows(tau, "tau_fixed", flat_only=True))


def nominal_footholds(plan: ContactPlan, references: np.ndarray) -> np.ndarray:
    """(pairs, 3) nominal foothold target of each active pair, in
    ``plan.active_pairs()`` order: its phase's explicit hint, or else the
    phase-mean of reference CoM plus nominal offset."""
    target = np.empty((len(plan.phases), 3))
    r = references[:, 0:3]
    for j, ph in enumerate(plan.phases):
        if ph.foothold_hint is not None:
            target[j] = ph.foothold_hint
        else:
            # A sequential sum from zero; np.sum would pair the terms differently.
            steps = r[ph.t_start:ph.t_end] + plan.nominal_offsets[ph.end_effector_id]
            target[j] = np.cumsum(np.vstack([np.zeros(3), steps]), axis=0)[-1] / len(steps)
    return target[plan.pair_table.phase]


@dataclass(frozen=True)
class _Structure:
    """Plan-only part of the Contact-QP. Per-pair arrays follow
    ``plan.active_pairs()``; per-flat-pair arrays its flat-foot subset."""

    n: int                    # columns
    pattern: QpPattern
    a_data: np.ndarray        # constant entries; the skew slots hold zero
    lo: np.ndarray            # k rows hold only the initial state's term
    hi: np.ndarray
    state_cols: np.ndarray    # (N, 9) (r, l, k) of each timestep
    r_skew_pos: np.ndarray    # (pairs, 6) A.data positions of -dt skew(f) on r_t
    p_skew_pos: np.ndarray    # (pairs, 6) A.data positions of dt skew(f) on the copy
    p_cols: np.ndarray        # (pairs, 3) phase foothold columns, shared within a phase
    copy_cols: np.ndarray     # (pairs, 3) the pair's own foothold copy (p at a phase start)
    z_rotation: np.ndarray    # (flat pairs, 3, 2) R^{xy}
    z_pos: np.ndarray         # (flat pairs, 6) A.data positions of dt skew(f) R^{xy}
    k_rows: np.ndarray        # (flat pairs, 3) angular momentum rows
    z_cols: np.ndarray        # (flat pairs, 2) center-of-pressure columns


def _surface_rows(surfaces: list[Polytope]) -> tuple[np.ndarray, ...]:
    """Rows (A, lo, hi) of lo <= A p <= hi describing each of ``surfaces``,
    concatenated, and the number of rows of each. Each exact opposite pair
    of halfspaces (A_j = -A_i and b_j = -b_i, i < j) becomes the equality
    row A_i p = b_i in place of row i, and row j is dropped; every other
    halfspace stays a row A_i p <= b_i. A slab (b_j != -b_i) keeps both of
    its rows. All surfaces are compared at once, padded with NaN rows,
    which match nothing."""
    size = np.array([s.b.size for s in surfaces], dtype=np.intp)
    rows = np.arange(size.max(initial=0)) < size[:, None]
    A, b = np.full((*rows.shape, 3), np.nan), np.full(rows.shape, np.nan)
    if surfaces:
        A[rows] = np.concatenate([s.A for s in surfaces])
        b[rows] = np.concatenate([s.b for s in surfaces])
    above = np.triu(np.ones((rows.shape[1],) * 2, dtype=bool), 1)
    opposite = (np.all(A[:, :, None, :] == -A[:, None, :, :], axis=3)
                & (b[:, :, None] == -b[:, None, :]) & above)
    keep, lo = rows.copy(), np.full(b.shape, -np.inf)
    # Each row joins at most one pair, the first it meets in row order.
    for k, i, j in zip(*np.nonzero(opposite)):
        if keep[k, i] and keep[k, j] and lo[k, i] == -np.inf:
            keep[k, j], lo[k, i] = False, b[k, i]
    return keep.sum(axis=1), A[keep], lo[keep], b[keep]


# Entries of a dense 3x2 block in row-major order.
_BLOCK32_I, _BLOCK32_J = np.divmod(np.arange(6), 2)


@per_plan
def _structure(plan: ContactPlan) -> _Structure:
    table = plan.pair_table
    t, flat, first = table.t, table.flat, table.first
    later = ~first
    # Columns: (r, l, k) of each timestep, then per pair a foothold copy and
    # z for flat feet. At a phase's first timestep the copy is the phase
    # foothold p itself.
    t_col, pair_col, n = timestep_blocks(table, 9, 3 + 2 * flat)
    cols = t_col[:, None] + np.arange(9)
    copy_cols = pair_col[:, None] + np.arange(3)
    phase_p = np.empty(len(plan.phases), dtype=np.int64)
    phase_p[table.phase[first]] = pair_col[first]
    p_col = phase_p[table.phase]
    p_cols = p_col[:, None] + np.arange(3)
    z_cols = (pair_col + 3)[flat, None] + np.arange(2)
    # Rows: the r and k recursions of each timestep, then per pair the
    # kinematic box, the center-of-pressure box and, at the phase's first
    # timestep, the surface, or later, the tie to the previous copy.
    # The surface rows of every phase, reordered to follow its first pair.
    count, surf_A, surf_lo, surf_hi = _surface_rows([ph.surface for ph in plan.phases])
    count, start = count[table.phase[first]], (np.cumsum(count) - count)[table.phase[first]]
    offset, surf_row = np.cumsum(count) - count, np.arange(count.sum())
    surf = np.repeat(start - offset, count) + surf_row
    tail = np.full(t.size, 3, dtype=np.int64)
    tail[first] = count
    t_row, pair_row, m_c = timestep_blocks(table, 6, 3 + 2 * flat + tail)
    e = Entries((m_c, n))
    com_rows(e, plan, cols, t_row)
    # k_t - k_{t-1} - dt sum_e [skew(f) r_t - skew(f) p_e - skew(f) R z]
    #   = dt sum_e tau_fixed. The skew slots stay structural so the pattern
    # does not depend on the forces.
    k_rows = recursion_rows(e, plan, cols, t_row + 3, "k", np.zeros(3))[t]
    r_skew = e.add(k_rows[:, SKEW_I], cols[t][:, SKEW_J])
    p_skew = e.add(k_rows[:, SKEW_I], copy_cols[:, SKEW_J])
    # - skew(f) R^{xy} z, a dense 3x2 block.
    z_slots = e.add(k_rows[flat][:, _BLOCK32_I], z_cols[:, _BLOCK32_J])
    # Per-axis kinematic box |p - r_t| <= L_max.
    kin_rows = pair_row[:, None] + np.arange(3)
    e.add(kin_rows, copy_cols, 1.0)
    e.add(kin_rows, cols[t, 0:3], -1.0)
    e.lo[kin_rows], e.hi[kin_rows] = -plan.kinematic_limit, plan.kinematic_limit
    # Center-of-pressure box of each flat-foot pair.
    zmp_rows = pair_row[flat, None] + 3 + np.arange(2)
    box = np.array([ph.zmp_lo_hi() if ph.flat_foot else np.zeros((2, 2))
                    for ph in plan.phases]).reshape(-1, 2, 2)[table.phase[flat]]
    e.add(zmp_rows, z_cols, 1.0)
    e.lo[zmp_rows], e.hi[zmp_rows] = box[:, 0], box[:, 1]
    tail_row = pair_row + 3 + 2 * flat
    surf_rows = np.repeat(tail_row[first] - offset, count) + surf_row
    e.add(surf_rows[:, None], np.repeat(p_cols[first], count, axis=0), surf_A[surf])
    e.lo[surf_rows], e.hi[surf_rows] = surf_lo[surf], surf_hi[surf]
    # Copy ties: each later copy equals its phase's copy one timestep
    # earlier, the same effector's pair there.
    pair_at = np.zeros((plan.horizon, len(plan.effector_ids)), dtype=np.intp)
    pair_at[t, table.effector] = np.arange(t.size)
    tie_rows = tail_row[later, None] + np.arange(3)
    e.add(tie_rows, copy_cols[later], 1.0)
    e.add(tie_rows, copy_cols[pair_at[t[later] - 1, table.effector[later]]], -1.0)
    e.lo[tie_rows] = e.hi[tie_rows] = 0.0
    pattern, a_data, lo, hi = e.build()
    return _Structure(
        n=n, pattern=pattern, a_data=a_data, lo=lo, hi=hi, state_cols=cols,
        r_skew_pos=pattern.positions(r_skew), p_skew_pos=pattern.positions(p_skew),
        p_cols=p_cols, copy_cols=copy_cols, z_rotation=table.rotation[flat][:, :, :2],
        z_pos=pattern.positions(z_slots), k_rows=k_rows[flat], z_cols=z_cols)


def build_contact_qp(inputs: ContactQpInputs) -> SparseQP:
    plan = inputs.plan
    s = _structure(plan)
    w, dt = inputs.weights, plan.dt
    f = inputs.f_fixed
    a_data = s.a_data.copy()
    skew_f = dt * skew_entries(f)
    # Several contacts at one timestep share the r_t slots: accumulate.
    np.add.at(a_data, s.r_skew_pos, -skew_f)
    a_data[s.p_skew_pos] = skew_f
    # skew(f) R^{xy} column j is f x R[:, j].
    z_block = np.cross(f[plan.pair_table.flat, None, :], s.z_rotation.transpose(0, 2, 1))
    a_data[s.z_pos] = dt * z_block.transpose(0, 2, 1).reshape(-1, 6)
    tau = dt * inputs.tau_fixed
    lo, hi = s.lo.copy(), s.hi.copy()
    np.add.at(lo, s.k_rows, tau)
    np.add.at(hi, s.k_rows, tau)

    # No tracking term here: the state is anchored through the proximal pull
    # toward the force solve. Each timestep's foothold terms sit on its own
    # copy; the ties make the sum over a phase's copies the phase's cost.
    p_prox = inputs.l_prox if inputs.p_reg is not None else 0.0
    d = np.zeros(s.n)
    d[s.z_cols] = 2.0 * w.zmp
    d[s.copy_cols] = 2.0 * w.foothold + p_prox
    d[s.state_cols] = 2.0 * w.running_h + inputs.l_prox
    q = np.zeros(s.n)
    q[s.state_cols] = (-2.0 * w.running_h * inputs.references
                       - inputs.l_prox * inputs.h_reg)
    q[s.copy_cols] = -2.0 * w.foothold * nominal_footholds(plan, inputs.references)
    if inputs.p_reg is not None:
        q[s.copy_cols] -= p_prox * inputs.p_reg
    return SparseQP(n=s.n, m_c=lo.size, P=s.pattern.p_matrix(d), q=q,
                    A=s.pattern.a_matrix(a_data), lo=lo, hi=hi, pattern=s.pattern)


@dataclass(frozen=True)
class ContactIterate:
    """Solution of one Contact-QP: states ``h`` (N, 9), footholds ``p`` and
    recovered lever arms ``ell`` per active pair, center-of-pressure offsets
    ``z`` per flat-foot pair."""

    h: np.ndarray
    p: np.ndarray
    z: np.ndarray
    ell: np.ndarray


def extract_contact_iterate(sol: QpSolution, plan: ContactPlan) -> ContactIterate:
    """The iterate of a solved Contact-QP built on ``plan``."""
    if not sol.solved:
        raise QpNotSolved(sol.status)
    s, table = _structure(plan), plan.pair_table
    h, p, z = sol.x[s.state_cols], sol.x[s.p_cols], sol.x[s.z_cols]
    ell = _lever_geometry(p, h[table.t, 0:3], table.scatter(z, table.flat), table.rotation)
    return ContactIterate(h=h, p=p, z=z, ell=ell)
