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
  - one foothold variable per contact phase (constancy by construction),
    constrained to the phase's surface polytope and to the per-axis kinematic
    box around the CoM at every covered timestep;
  - diagonal quadratic cost: foothold pull toward nominal placements,
    center-of-pressure penalties, and proximal pulls of h toward the force
    solve and of p toward the previous contact solve.

As on the force side, the structure depends only on the plan and is built
once per plan: the fixed forces fill dedicated skew slots that exist even
when zero, and each build copies the cached structure and fills in the force,
torque, reference and proximal values with numpy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .force_qp import SKEW_IJ, CostWeights, QpNotSolved, com_rows, extract_states, \
    per_plan, recursion_rows, skew_entries, stack_states, stack_vectors, state_columns, \
    zmp_rows
from .model import CentroidalState, ContactPlan
from .qp.problem import QpSolution, RowBuilder, SparseQP, TripletPattern, VariableLayout, \
    diagonal
from .references import ReferenceSet

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
    the first outer iteration).
    """

    plan: ContactPlan
    f_fixed: Mapping[tuple[int, str], np.ndarray]
    h_reg: tuple[CentroidalState, ...]
    references: ReferenceSet
    weights: CostWeights = field(default_factory=CostWeights)
    p_reg: Mapping[tuple[int, str], np.ndarray] | None = None
    tau_fixed: Mapping[tuple[int, str], np.ndarray] | None = None
    l_prox: float = 0.0

    def __post_init__(self):
        if self.l_prox < 0.0:
            raise ValueError("proximal weight must be nonnegative")
        N = self.plan.horizon
        if len(self.h_reg) != N or len(self.references) != N:
            raise ValueError("regularization targets and references must cover the horizon")
        active = set(self.plan.active_pairs())
        if set(self.f_fixed.keys()) != active:
            raise ValueError("f_fixed must cover exactly the active (t, effector) pairs")


def nominal_footholds(plan: ContactPlan, references: ReferenceSet) -> dict[tuple[int, str], np.ndarray]:
    """Per-phase nominal foothold targets, replicated over the phase's
    timesteps. A phase's explicit hint wins; otherwise the phase-mean of
    reference CoM plus nominal offset."""
    out: dict[tuple[int, str], np.ndarray] = {}
    for ph in plan.phases:
        e = ph.end_effector_id
        if ph.foothold_hint is not None:
            target = np.asarray(ph.foothold_hint, dtype=float)
        else:
            acc = np.zeros(3)
            for t in range(ph.t_start, ph.t_end):
                acc += references.h_kin[t].r + plan.nominal_offsets[e]
            target = acc / (ph.t_end - ph.t_start)
        for t in range(ph.t_start, ph.t_end):
            out[(t, e)] = target
    return out


def _contact_layout(plan: ContactPlan) -> VariableLayout:
    entries = []
    shared: dict[tuple[str, int, str], tuple[int, int]] = {}
    col = 0
    for t in range(plan.horizon):
        for quantity in ("r", "l", "k"):
            entries.append((quantity, t, None, col, col + 3))
            col += 3
        for ph in plan.active_contacts(t):
            e = ph.end_effector_id
            if t == ph.t_start:
                # One foothold per phase, resolved from every covered timestep.
                entries.append(("p", t, e, col, col + 3))
                for t_later in range(t + 1, ph.t_end):
                    shared[("p", t_later, e)] = (col, col + 3)
                col += 3
            if ph.flat_foot:
                entries.append(("z", t, e, col, col + 2))
                col += 2
    return VariableLayout(n=col, entries=tuple(entries), _lookup=shared)


@dataclass(frozen=True)
class _Structure:
    """Plan-only part of the Contact-QP. Per-pair arrays follow
    ``plan.active_pairs()``; per-flat-pair arrays its flat-foot subset."""

    layout: VariableLayout
    pattern: TripletPattern
    a_data: np.ndarray        # constant entries; the skew slots hold zero
    lo: np.ndarray            # k rows hold only the initial state's term
    hi: np.ndarray
    state_cols: np.ndarray    # (N, 9)
    pairs: tuple[tuple[int, str], ...]
    r_skew_pos: np.ndarray    # (pairs, 6) A.data positions of -dt skew(f) on r_t
    p_skew_pos: np.ndarray    # (pairs, 6) A.data positions of dt skew(f) on p
    p_cols: np.ndarray        # (pairs, 3) foothold columns, shared within a phase
    pair_t: np.ndarray        # (pairs,) timestep of each pair
    flat: np.ndarray          # (flat pairs,) indices into pairs
    z_rotation: np.ndarray    # (flat pairs, 3, 2) R^{xy}
    z_pos: np.ndarray         # (flat pairs, 6) A.data positions of dt skew(f) R^{xy}
    k_rows: np.ndarray        # (flat pairs, 3) angular momentum rows
    z_cols: np.ndarray        # columns of every center-of-pressure offset


@per_plan
def _structure(plan: ContactPlan) -> _Structure:
    layout = _contact_layout(plan)
    cols = state_columns(layout)
    rb = RowBuilder()
    r_skew, p_skew, p_cols, flat, z_rotation, z_slots, k_rows = ([] for _ in range(7))
    for t in range(plan.horizon):
        contacts = plan.active_contacts(t)
        com_rows(rb, plan, cols, t)
        # k_t - k_{t-1} - dt sum_e [skew(f) r_t - skew(f) p_e - skew(f) R z]
        #   = dt sum_e tau_fixed. The skew slots stay structural so the pattern
        # does not depend on the forces.
        row = recursion_rows(rb, plan, cols, t, "k", np.zeros(3))
        for ph in contacts:
            e = ph.end_effector_id
            p0 = layout.span("p", t, e).start
            r_skew.append(rb.slots(row, cols[t, 0], SKEW_IJ))
            p_skew.append(rb.slots(row, p0, SKEW_IJ))
            p_cols.append(range(p0, p0 + 3))
            if ph.flat_foot:
                # - skew(f) R^{xy} z, a dense 3x2 block.
                flat.append(len(p_cols) - 1)
                z_rotation.append(ph.rotation[:, :2])
                z_slots.append(rb.slots(row, layout.span("z", t, e).start,
                                        tuple(np.ndindex(3, 2))))
                k_rows.append(range(row, row + 3))
        for ph in contacts:
            e = ph.end_effector_id
            p0 = layout.span("p", t, e).start
            # Per-axis kinematic box |p - r_t| <= L_max.
            row = rb.rows(np.full(3, -plan.kinematic_limit), plan.kinematic_limit)
            rb.diag(row, p0, 1.0)
            rb.diag(row, cols[t, 0], -1.0)
            if ph.flat_foot:
                zmp_rows(rb, ph, layout.span("z", t, e).start)
            if t == ph.t_start:
                S = ph.surface
                rb.block(rb.rows(np.full(S.b.size, -np.inf), S.b), p0, S.A)
    pattern, a_data, lo, hi = rb.build(layout.n)
    pairs = plan.active_pairs()

    def positions(slots):
        return pattern.positions(np.array(slots, dtype=np.int64).reshape(-1, 6))

    return _Structure(
        layout=layout, pattern=pattern, a_data=a_data, lo=lo, hi=hi, state_cols=cols,
        pairs=tuple(pairs), pair_t=np.array([t for t, _ in pairs], dtype=np.int64),
        r_skew_pos=positions(r_skew), p_skew_pos=positions(p_skew),
        p_cols=np.array(p_cols, dtype=np.int64).reshape(-1, 3),
        flat=np.array(flat, dtype=np.int64),
        z_rotation=np.array(z_rotation, dtype=float).reshape(-1, 3, 2),
        z_pos=positions(z_slots), k_rows=np.array(k_rows, dtype=np.int64).reshape(-1, 3),
        z_cols=layout.columns("z"))


def build_contact_qp(inputs: ContactQpInputs) -> SparseQP:
    plan = inputs.plan
    s = _structure(plan)
    w, layout, dt = inputs.weights, s.layout, plan.dt
    f = stack_vectors(inputs.f_fixed[pair] for pair in s.pairs)
    a_data = s.a_data.copy()
    skew_f = dt * skew_entries(f)
    # Several contacts at one timestep share the r_t slots: accumulate.
    np.add.at(a_data, s.r_skew_pos, -skew_f)
    a_data[s.p_skew_pos] = skew_f
    # skew(f) R^{xy} column j is f x R[:, j].
    z_block = np.cross(f[s.flat, None, :], s.z_rotation.transpose(0, 2, 1))
    a_data[s.z_pos] = dt * z_block.transpose(0, 2, 1).reshape(-1, 6)
    # Flat feet without a fixed torque contribute none.
    tau_fixed = inputs.tau_fixed or {}
    tau = dt * stack_vectors(tau_fixed.get(s.pairs[i], np.zeros(3)) for i in s.flat)
    lo, hi = s.lo.copy(), s.hi.copy()
    np.add.at(lo, s.k_rows, tau)
    np.add.at(hi, s.k_rows, tau)

    # No tracking term here: the state is anchored through the proximal pull
    # toward the force solve.
    p_prox = inputs.l_prox if inputs.p_reg is not None else 0.0
    d = np.zeros(layout.n)
    d[s.z_cols] = 2.0 * w.zmp
    np.add.at(d, s.p_cols, 2.0 * w.foothold + p_prox)
    d[s.state_cols] = 2.0 * w.running_h + inputs.l_prox
    reg = stack_states(inputs.h_reg)
    q = np.zeros(layout.n)
    q[s.state_cols] = (-2.0 * w.running_h * stack_states(inputs.references.h_kin)
                       - inputs.l_prox * reg)
    p_nom = nominal_footholds(plan, inputs.references)
    q_p = [-2.0 * w.foothold * stack_vectors(p_nom[pair] for pair in s.pairs)]
    if inputs.p_reg is not None:
        q_p.append(-p_prox * stack_vectors(inputs.p_reg[pair] for pair in s.pairs))
    # A phase's foothold gathers one term per covered timestep, summed in
    # timestep order with the nominal pull before the proximal one.
    q_p = np.stack(q_p, axis=1)
    np.add.at(q, np.broadcast_to(s.p_cols[:, None, :], q_p.shape), q_p)
    return SparseQP(n=layout.n, m_c=lo.size, P=diagonal(d), q=q,
                    A=s.pattern.matrix(a_data), lo=lo, hi=hi, layout=layout)


@dataclass(frozen=True)
class ContactIterate:
    """Solution of one Contact-QP: geometry trajectory plus recovered lever arms."""

    states: tuple[CentroidalState, ...]
    footholds: Mapping[tuple[int, str], np.ndarray]
    zmps: Mapping[tuple[int, str], np.ndarray]
    ells: Mapping[tuple[int, str], np.ndarray]


def extract_contact_iterate(sol: QpSolution, layout: VariableLayout,
                            plan: ContactPlan) -> ContactIterate:
    if not sol.solved:
        raise QpNotSolved(sol.status)
    s = _structure(plan)
    states = extract_states(sol.x, layout)
    p = sol.x[s.p_cols]
    z = sol.x[s.z_cols].reshape(-1, 2)
    ell = p - sol.x[s.state_cols[s.pair_t, 0:3]]
    ell[s.flat] = ell[s.flat] + (s.z_rotation @ z[:, :, None])[..., 0]
    return ContactIterate(states=states, footholds=dict(zip(s.pairs, p)),
                          zmps=dict(zip((s.pairs[i] for i in s.flat), z)),
                          ells=dict(zip(s.pairs, ell)))
