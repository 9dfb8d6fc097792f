"""Centroidal momentum model: states, contact data, discrete dynamics, feasibility checks.

The reduced-order state of a floating-base robot is h = (r, l, k): center of
mass position, linear momentum, and angular momentum about the center of mass.
Contacts act on the state through world-frame forces f applied at lever arms

    ell = p - r + R^{xy} z

where p is the contact point, z the center-of-pressure offset inside a flat
foot (expressed in the contact frame, first two columns of R), and R the
contact-frame rotation. A contact with ``flat_foot=False`` is a point contact:
z and tau are removed and ell = p - r.

Everything in this module is immutable value data and pure functions. A
plan's active (timestep, effector) pairs are laid out once, as the arrays of
its ``PairTable``; a ``Trajectory`` carries an (N, 9) state array and
(pairs, k) contact arrays in that order from the QP solutions through
verification and the CSV files, and builds per-timestep ``CentroidalState``
and ``EffectorContact`` objects only when a consumer reads them.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field, fields
from typing import Mapping

import numpy as np

__all__ = [
    "CentroidalState",
    "ContactPhase",
    "ContactPlan",
    "EffectorContact",
    "PairTable",
    "TimestepContacts",
    "Trajectory",
    "state_array",
    "Polytope",
    "ResidualReport",
    "skew",
    "integrate_step",
    "verify_trajectory",
    "polygon_to_halfspaces",
]

GRAVITY_DEFAULT = (0.0, 0.0, -9.81)

_ORTHONORMAL_TOL = 1e-10


def _as_vector(x, size: int, name: str) -> np.ndarray:
    v = _float_array(x, name).reshape(-1)
    if v.shape != (size,):
        raise ValueError(f"{name} must have {size} components, got shape {np.shape(x)}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite, got {v}")
    v.setflags(write=False)
    return v


def _float_array(values, name: str) -> np.ndarray:
    """``values`` as a new float array; a mapping or a sequence of objects is
    a ValueError naming ``name``, where numpy raises a TypeError."""
    try:
        return np.array(values, dtype=float)
    except TypeError:
        raise ValueError(f"{name} must be an array of numbers, "
                         f"got {type(values).__name__}") from None


def _tolerance(value: float, name: str) -> float:
    """``value`` as a feasibility tolerance, finite and >= 0, or a ValueError
    naming ``name``: against NaN every trajectory would be infeasible."""
    if not (math.isfinite(value) and value >= 0.0):
        raise ValueError(f"{name}: must be finite and >= 0, got {value}")
    return value


def _positive(value: float, name: str) -> None:
    """Reject a non-finite or nonpositive ``value``, naming ``name``: NaN
    passes a plain ``<= 0`` test, and infinity passes it too."""
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    if value <= 0.0:
        raise ValueError(f"{name} must be positive, got {value}")


def skew(v) -> np.ndarray:
    """Cross-product matrix: skew(v) @ u == np.cross(v, u)."""
    x, y, z = np.asarray(v, dtype=float).reshape(3)
    if not (math.isfinite(x) and math.isfinite(y) and math.isfinite(z)):
        raise ValueError(f"skew requires finite input, got {v}")
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


@dataclass(frozen=True)
class CentroidalState:
    """Momentum state at one timestep: CoM position r [m], linear momentum l
    [kg m/s], angular momentum k [kg m^2/s]."""

    r: np.ndarray
    l: np.ndarray
    k: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "r", _as_vector(self.r, 3, "r"))
        object.__setattr__(self, "l", _as_vector(self.l, 3, "l"))
        object.__setattr__(self, "k", _as_vector(self.k, 3, "k"))

    def stacked(self) -> np.ndarray:
        """(r, l, k) stacked into a 9-vector."""
        return np.concatenate([self.r, self.l, self.k])

    @staticmethod
    def from_stacked(h) -> "CentroidalState":
        h = np.asarray(h, dtype=float).reshape(9)
        return CentroidalState(h[0:3], h[3:6], h[6:9])


@dataclass(frozen=True)
class Polytope:
    """Convex region {x : A x <= b} in world frame."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        b = np.asarray(self.b, dtype=float).reshape(-1)
        if A.shape[0] != b.shape[0] or A.shape[1] != 3:
            raise ValueError(f"halfspace shapes inconsistent: A {A.shape}, b {b.shape}")
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
            raise ValueError("halfspace data must be finite")
        A.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

    def violation(self, x) -> float:
        """Largest halfspace violation at x (<= 0 means inside)."""
        return float(np.max(self.A @ np.asarray(x, dtype=float) - self.b))

    def is_empty(self) -> bool:
        from scipy.optimize import linprog

        res = linprog(np.zeros(3), A_ub=self.A, b_ub=self.b, bounds=[(None, None)] * 3,
                      method="highs")
        return not res.success


def polygon_to_halfspaces(vertices) -> Polytope:
    """Convert a planar convex polygon (>= 3 world-frame vertices) to halfspaces.

    Emits two rows pinning the supporting plane and one row per edge. Vertices
    need not be ordered; they are sorted by angle in the plane.
    """
    V = np.atleast_2d(np.asarray(vertices, dtype=float))
    if V.shape[0] < 3 or V.shape[1] != 3:
        raise ValueError(f"need at least 3 vertices of dimension 3, got {V.shape}")
    c = V.mean(axis=0)
    # Plane basis from the two dominant directions of the centered vertices.
    _, s, vt = np.linalg.svd(V - c)
    if s[1] < 1e-12:
        raise ValueError("polygon vertices are collinear")
    u, v, n = vt[0], vt[1], vt[2]
    if s[2] > 1e-9:
        raise ValueError("polygon vertices are not coplanar")
    rows = [n, -n]
    offs = [float(n @ c), float(-(n @ c))]
    P2 = np.column_stack([(V - c) @ u, (V - c) @ v])
    order = np.argsort(np.arctan2(P2[:, 1], P2[:, 0]))
    P2 = P2[order]
    m = P2.shape[0]
    for i in range(m):
        a, bpt = P2[i], P2[(i + 1) % m]
        edge = bpt - a
        if np.linalg.norm(edge) < 1e-12:
            continue
        n2 = np.array([edge[1], -edge[0]])  # outward: centroid is at the 2-D origin
        if n2 @ a < 0:
            n2 = -n2
        n3 = n2[0] * u + n2[1] * v
        rows.append(n3)
        offs.append(float(n3 @ (c + a[0] * u + a[1] * v)))
    return Polytope(np.array(rows), np.array(offs))


@dataclass(frozen=True)
class ContactPhase:
    """One stance window of one end-effector.

    The window [t_start, t_end) is half-open in timestep indices. ``surface``
    constrains the foothold, ``rotation`` maps contact frame to world frame,
    and ``friction_coeff`` scales the pyramid. Flat-foot phases additionally
    carry center-of-pressure bounds used for the z variables.
    """

    end_effector_id: str
    t_start: int
    t_end: int
    surface: Polytope
    rotation: np.ndarray = field(default_factory=lambda: np.eye(3))
    friction_coeff: float = 0.7
    flat_foot: bool = False
    zmp_bounds: tuple[tuple[float, float], tuple[float, float]] | None = None
    # Optional preferred foothold (world frame, inside the surface); scenario
    # generators use it to seat footholds on terrain patches.
    foothold_hint: np.ndarray | None = None

    def __post_init__(self):
        if self.t_start >= self.t_end:
            raise ValueError(
                f"phase window [{self.t_start}, {self.t_end}) for {self.end_effector_id} is empty")
        R = np.asarray(self.rotation, dtype=float).reshape(3, 3)
        if not np.all(np.isfinite(R)):
            raise ValueError(f"rotation for {self.end_effector_id} must be finite")
        if np.max(np.abs(R.T @ R - np.eye(3))) > _ORTHONORMAL_TOL:
            raise ValueError(f"rotation for {self.end_effector_id} is not orthonormal")
        R.setflags(write=False)
        object.__setattr__(self, "rotation", R)
        _positive(self.friction_coeff, "friction_coeff")
        if self.flat_foot:
            if self.zmp_bounds is None:
                raise ValueError("flat-foot phase requires zmp_bounds")
            (xlo, xhi), (ylo, yhi) = self.zmp_bounds
            if not all(map(math.isfinite, (xlo, xhi, ylo, yhi))):
                raise ValueError(f"zmp_bounds for {self.end_effector_id} must be finite, "
                                 f"got {self.zmp_bounds}")
            if xlo > xhi or ylo > yhi:
                raise ValueError(f"zmp bounds inverted: {self.zmp_bounds}")
        hint = self.foothold_hint
        if hint is not None:
            hint = np.asarray(hint, dtype=float).reshape(-1)
        hint_inside = (hint is not None and hint.shape == (3,) and bool(np.all(np.isfinite(hint)))
                       and self.surface.violation(hint) <= 1e-9)
        # A hint inside the surface witnesses that it is non-empty; only
        # surfaces without one need the LP.
        if not hint_inside and self.surface.is_empty():
            raise ValueError(f"surface polytope for {self.end_effector_id} is empty")
        if hint is not None:
            object.__setattr__(self, "foothold_hint",
                               _as_vector(self.foothold_hint, 3, "foothold_hint"))
            if not hint_inside:
                raise ValueError(
                    f"foothold hint for {self.end_effector_id} lies outside its surface")

    def zmp_lo_hi(self) -> tuple[np.ndarray, np.ndarray]:
        (xlo, xhi), (ylo, yhi) = self.zmp_bounds
        return np.array([xlo, ylo]), np.array([xhi, yhi])


@dataclass(frozen=True, eq=False)
class ContactPlan:
    """Contact schedule plus the physical constants of one optimization problem.

    ``horizon`` timesteps of length ``dt`` start from ``h0``, the stacked
    (r, l, k) before the first step; end-effector activity is defined by
    ``phases``. ``nominal_offsets`` are per-effector foot positions relative to
    the CoM, used for reference generation and lever-arm initialization.

    Plans compare and hash by identity, so structures derived from one plan
    can be cached against it.
    """

    effector_ids: tuple[str, ...]
    phases: tuple[ContactPhase, ...]
    horizon: int
    dt: float
    mass: float
    h0: np.ndarray  # (9,), read-only
    kinematic_limit: float
    nominal_offsets: Mapping[str, np.ndarray]
    gravity: np.ndarray = field(default_factory=lambda: np.array(GRAVITY_DEFAULT))

    def __post_init__(self):
        object.__setattr__(self, "effector_ids", tuple(self.effector_ids))
        object.__setattr__(self, "phases", tuple(self.phases))
        object.__setattr__(self, "gravity", _as_vector(self.gravity, 3, "gravity"))
        object.__setattr__(self, "h0", _as_vector(self.h0, 9, "h0"))
        offsets = {e: _as_vector(v, 3, f"nominal_offsets[{e}]")
                   for e, v in dict(self.nominal_offsets).items()}
        object.__setattr__(self, "nominal_offsets", offsets)
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        for name in ("dt", "mass", "kinematic_limit"):
            _positive(getattr(self, name), name)
        known = set(self.effector_ids)
        for ph in self.phases:
            if ph.end_effector_id not in known:
                raise ValueError(f"phase references undeclared effector {ph.end_effector_id!r}")
            if ph.t_start < 0 or ph.t_end > self.horizon:
                raise ValueError(
                    f"phase window [{ph.t_start}, {ph.t_end}) outside horizon {self.horizon}")
            if ph.end_effector_id not in offsets:
                raise ValueError(f"no nominal offset for effector {ph.end_effector_id!r}")
        table = PairTable.of(self)
        # Overlapping phases of one effector repeat a (t, effector) pair.
        repeated = np.flatnonzero((np.diff(table.t) == 0) & (np.diff(table.effector) == 0))
        if repeated.size:
            t, e = table.keys[repeated[0]]
            raise ValueError(f"effector {e!r} has overlapping phases at timestep {t}")
        object.__setattr__(self, "pair_table", table)

    def phase_at(self, t: int, effector: str) -> ContactPhase | None:
        for ph in self.active_contacts(t):
            if ph.end_effector_id == effector:
                return ph
        return None

    def active_contacts(self, t: int) -> list[ContactPhase]:
        """Phases active at timestep t, in declared effector order."""
        if not 0 <= t < self.horizon:
            return []
        table = self.pair_table
        return [self.phases[j] for j in table.phase[table.start[t]:table.start[t + 1]]]

    def active_pairs(self) -> list[tuple[int, str]]:
        """All (t, effector) pairs with an active contact, t-major order."""
        return list(self.pair_table.keys)


@dataclass(frozen=True, eq=False)
class PairTable:
    """A plan's active (timestep, effector) pairs as arrays, t-major and in
    declared effector order within a timestep: the row order of every
    per-pair array in this package."""

    keys: tuple[tuple[int, str], ...]
    t: np.ndarray          # (pairs,) timestep
    start: np.ndarray      # (N + 1,) the pairs of timestep t are start[t]:start[t + 1]
    effector: np.ndarray   # (pairs,) index into plan.effector_ids
    phase: np.ndarray      # (pairs,) index into plan.phases
    first: np.ndarray      # (pairs,) bool: the first timestep of its phase
    flat: np.ndarray       # (pairs,) bool: a flat-foot phase
    rotation: np.ndarray   # (pairs, 3, 3) contact frame
    friction: np.ndarray   # (pairs,) friction coefficient

    @staticmethod
    def of(plan: "ContactPlan") -> "PairTable":
        phases = plan.phases
        rank = {e: i for i, e in enumerate(plan.effector_ids)}
        t0 = np.array([ph.t_start for ph in phases], dtype=np.intp)
        length = np.array([ph.t_end for ph in phases], dtype=np.intp) - t0
        phase = np.repeat(np.arange(len(phases)), length)
        t = t0[phase] + np.arange(phase.size) - np.repeat(np.cumsum(length) - length, length)
        effector = np.array([rank[ph.end_effector_id] for ph in phases], dtype=np.intp)[phase]
        order = np.lexsort((effector, t))
        t, phase, effector = t[order], phase[order], effector[order]
        table = PairTable(
            keys=tuple(zip(t.tolist(), [plan.effector_ids[i] for i in effector.tolist()])),
            t=t, start=np.searchsorted(t, np.arange(plan.horizon + 1)), effector=effector,
            phase=phase, first=t == t0[phase],
            flat=np.array([ph.flat_foot for ph in phases], dtype=bool)[phase],
            rotation=np.array([ph.rotation for ph in phases]).reshape(-1, 3, 3)[phase],
            friction=np.array([ph.friction_coeff for ph in phases], dtype=float)[phase])
        for a in vars(table).values():
            if isinstance(a, np.ndarray):
                a.setflags(write=False)
        return table

    def rows(self, values, name: str, width: int = 3, flat_only: bool = False,
             optional: bool = False) -> np.ndarray:
        """(pairs, width) read-only array of ``values`` in pair order,
        validated once. With ``flat_only`` only the flat-foot pairs count;
        with ``optional``, NaN rows mark absent values and None means all
        absent."""
        count = int(self.flat.sum()) if flat_only else self.t.size
        if values is None:
            values = np.full((count, width), np.nan)
        a = _float_array(values, name)
        if a.size == 0:
            a = a.reshape(0, width)
        if a.shape != (count, width):
            raise ValueError(f"{name} must have shape ({count}, {width}), got {a.shape}")
        if not np.all(np.isfinite(a).all(axis=1) | (optional & np.isnan(a).all(axis=1))):
            raise ValueError(f"{name} must be finite" + (", or NaN if absent" * optional))
        a.setflags(write=False)
        return a

    def scatter(self, values: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Pair-sized rows holding ``values`` at ``mask`` and NaN elsewhere."""
        out = np.full((self.t.size, values.shape[1]), np.nan)
        out[mask] = values
        return out


@dataclass(frozen=True)
class EffectorContact:
    """Contact data of one end-effector at one timestep.

    ``ell`` is the combined lever arm. When omitted it is derived from the
    geometry as p - r + R^{xy} z; when supplied (as the block descent does with
    the lever arms a Force-QP was solved against) it takes precedence in the
    dynamics.
    """

    f: np.ndarray
    p: np.ndarray
    ell: np.ndarray | None = None
    z: np.ndarray | None = None
    tau: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "f", _as_vector(self.f, 3, "f"))
        object.__setattr__(self, "p", _as_vector(self.p, 3, "p"))
        if self.ell is not None:
            object.__setattr__(self, "ell", _as_vector(self.ell, 3, "ell"))
        if self.z is not None:
            object.__setattr__(self, "z", _as_vector(self.z, 2, "z"))
        if self.tau is not None:
            object.__setattr__(self, "tau", _as_vector(self.tau, 3, "tau"))


# Active contacts at one timestep, keyed by end-effector id. Inactive
# end-effectors carry no entry.
TimestepContacts = Mapping[str, EffectorContact]


# EffectorContact fields and their widths, in the order the arrays go.
_CONTACT_FIELDS = (("f", 3), ("p", 3), ("ell", 3), ("z", 2), ("tau", 3))


def _rows(contacts, name: str, width: int) -> np.ndarray:
    """(len(contacts), width) rows of one EffectorContact field; NaN where
    absent."""
    absent = np.full(width, np.nan)
    return np.array([absent if getattr(c, name) is None else getattr(c, name)
                     for c in contacts]).reshape(-1, width)


def _lever_geometry(p, r, z, R) -> np.ndarray:
    """p - r + R^{xy} z of every row; rows without an offset (NaN z) use
    p - r."""
    geom = p - r
    offset = ~np.isnan(z[:, 0])
    geom[offset] = geom[offset] + (R[offset, :, :2] @ z[offset, :, None])[..., 0]
    return geom


def _step(prev: np.ndarray, plan: ContactPlan, t: np.ndarray, R: np.ndarray, f, p, ell, z,
          tau) -> np.ndarray:
    """Stacked (r, l, k) after one dynamics step from each row of ``prev``
    (timesteps, 9), see ``integrate_step``, under contact rows at timestep
    indices ``t`` (sorted) with rotations ``R``. Contacts of one timestep are
    summed in row order; an absent (NaN) lever arm is derived from r_t."""
    m, dt, g = plan.mass, plan.dt, plan.gravity
    # slots[j]: the rows that are the j-th contact of their timestep.
    rank = np.arange(t.size) - np.searchsorted(t, t)
    slots = [np.flatnonzero(rank == j) for j in range(rank.max(initial=-1) + 1)]
    f_total = np.zeros((prev.shape[0], 3))
    for idx in slots:
        f_total[t[idx]] += f[idx]
    l_new = prev[:, 3:6] + m * g * dt + f_total * dt
    r_new = prev[:, 0:3] + l_new * dt / m
    ell = np.where(np.isnan(ell[:, :1]), _lever_geometry(p, r_new[t], z, R), ell)
    kappa = np.cross(ell, f)
    torque = ~np.isnan(tau[:, 0])
    kappa[torque] = kappa[torque] + tau[torque]
    k_new = prev[:, 6:9].copy()
    for idx in slots:
        k_new[t[idx]] += kappa[idx] * dt
    return np.hstack([r_new, l_new, k_new])


def integrate_step(h_prev: CentroidalState, contacts: TimestepContacts,
                   plan: ContactPlan, t: int | None = None) -> CentroidalState:
    """One step of the discrete centroidal dynamics.

    l_t = l_{t-1} + m g dt + sum_e f dt, r_t = r_{t-1} + l_t dt / m (the l_t
    update is applied first), and k_t = k_{t-1} + sum_e kappa dt with
    kappa = ell x f + tau. Rotations for the z offsets are looked up from the
    plan when ``t`` is given.
    """
    phases = [plan.phase_at(t, eff) if t is not None else None for eff in contacts]
    R = np.array([np.eye(3) if ph is None else ph.rotation for ph in phases]).reshape(-1, 3, 3)
    h = _step(h_prev.stacked()[None], plan, np.zeros(len(phases), dtype=np.intp), R,
              *(_rows(contacts.values(), name, width) for name, width in _CONTACT_FIELDS))
    return CentroidalState.from_stacked(h[0])


@dataclass(frozen=True)
class ResidualReport:
    """Worst-case constraint violations of a candidate trajectory.

    ``feasible`` gates on the five constraint families of the optimization
    problem. ``lever_consistency`` (the gap between the stored lever arms and
    p - r + R^{xy} z) is diagnostic only: intermediate block-descent iterates
    are feasible with respect to their fixed lever geometry while the foothold
    block still moves.
    """

    dynamics: float
    friction: float
    kinematic: float
    surface: float
    zmp: float
    lever_consistency: float
    tol: float

    @property
    def feasible(self) -> bool:
        return self.worst()[1] <= self.tol

    def worst(self) -> tuple[str, float]:
        """The largest violation of a constraint family, with its field."""
        vals = {f.name: getattr(self, f.name) for f in fields(self)
                if f.name not in ("lever_consistency", "tol")}
        name = max(vals, key=vals.get)
        return name, vals[name]

    def as_dict(self) -> dict:
        """Every field in order, then ``feasible``."""
        return {**{f.name: getattr(self, f.name) for f in fields(self)}, "feasible": self.feasible}


def state_array(states, horizon: int, name: str) -> np.ndarray:
    """(N, 9) read-only array of the stacked (r, l, k) ``states``, validated."""
    h = _float_array(states, name)
    if h.shape != (horizon, 9):
        raise ValueError(f"{name} must cover the horizon: shape ({horizon}, 9), got {h.shape}")
    if not np.all(np.isfinite(h)):
        raise ValueError(f"{name} must be finite")
    h.setflags(write=False)
    return h


@dataclass(frozen=True, eq=False)
class Trajectory:
    """A candidate trajectory of one plan as arrays, validated once, here.

    ``h`` holds the post-step (r, l, k) of every timestep, the contact arrays
    one row per active pair in ``plan.active_pairs()`` order. NaN rows of
    ``ell``, ``z`` and ``tau`` are absent: such a lever arm is derived as
    p - r + R^{xy} z, such an offset or torque contributes nothing.
    Iterating yields (CentroidalState, {effector: EffectorContact}) per
    timestep, ``states`` and ``contacts`` being its two columns; these
    objects are built when first read.
    """

    plan: ContactPlan
    h: np.ndarray                    # (N, 9)
    f: np.ndarray                    # (pairs, 3)
    p: np.ndarray                    # (pairs, 3)
    ell: np.ndarray | None = None    # (pairs, 3)
    z: np.ndarray | None = None      # (pairs, 2)
    tau: np.ndarray | None = None    # (pairs, 3)

    def __post_init__(self):
        table = self.plan.pair_table
        object.__setattr__(self, "h", state_array(self.h, self.plan.horizon, "states"))
        for name, width in _CONTACT_FIELDS:
            object.__setattr__(self, name, table.rows(getattr(self, name), name, width,
                                                      optional=name not in ("f", "p")))

    @staticmethod
    def from_pairs(plan: ContactPlan,
                   traj: Sequence[tuple[CentroidalState, TimestepContacts]]) -> "Trajectory":
        """Gather (state, contacts) pairs, one per timestep, into arrays.
        Raises on length mismatch or when the contacts at some timestep
        disagree with the plan's activity pattern."""
        if len(traj) != plan.horizon:
            raise ValueError(f"trajectory length {len(traj)} != plan horizon {plan.horizon}")
        table, rows = plan.pair_table, []
        for t, (_, contacts) in enumerate(traj):
            active = [plan.effector_ids[i]
                      for i in table.effector[table.start[t]:table.start[t + 1]]]
            if set(contacts.keys()) != set(active):
                raise ValueError(
                    f"timestep {t}: trajectory contacts {sorted(contacts)} do not match "
                    f"plan activity {sorted(active)}")
            rows += [contacts[e] for e in active]
        return Trajectory(plan, [s.stacked() for s, _ in traj],
                          *(_rows(rows, name, width) for name, width in _CONTACT_FIELDS))

    def given(self, name: str) -> np.ndarray:
        """Mask of the pairs that carry ``name`` ("ell", "z" or "tau")."""
        return ~np.isnan(getattr(self, name)[:, 0])

    def lever_geometry(self) -> np.ndarray:
        """p - r + R^{xy} z of every pair, r the stored CoM of its timestep
        (pairs without an offset use p - r)."""
        table = self.plan.pair_table
        return _lever_geometry(self.p, self.h[table.t, 0:3], self.z, table.rotation)

    @functools.cached_property
    def _objects(self) -> tuple[tuple[CentroidalState, ...], tuple[dict, ...]]:
        table, ids = self.plan.pair_table, self.plan.effector_ids

        def row(a, i):
            return None if np.isnan(a[i, 0]) else a[i]

        contacts = tuple(
            {ids[table.effector[i]]: EffectorContact(
                f=self.f[i], p=self.p[i], ell=row(self.ell, i), z=row(self.z, i),
                tau=row(self.tau, i)) for i in range(table.start[t], table.start[t + 1])}
            for t in range(self.plan.horizon))
        return tuple(CentroidalState.from_stacked(h) for h in self.h), contacts

    @property
    def states(self) -> Sequence[CentroidalState]:
        return _Column(self, 0)

    @property
    def contacts(self) -> Sequence[TimestepContacts]:
        return _Column(self, 1)

    def __len__(self) -> int:
        return self.plan.horizon

    def __iter__(self):
        return zip(*self._objects)


class _Column(Sequence):
    """The states or the contact mappings of a trajectory, built on first
    read. ``trajectory`` gives writers the arrays behind them."""

    def __init__(self, trajectory: Trajectory, index: int):
        self.trajectory, self._index = trajectory, index

    def __len__(self) -> int:
        return len(self.trajectory)

    def __getitem__(self, t):
        return self.trajectory._objects[self._index][t]


def verify_trajectory(traj: Sequence[tuple[CentroidalState, TimestepContacts]],
                      plan: ContactPlan, tol: float = 1e-5) -> ResidualReport:
    """Certify a candidate trajectory against the plan's constraints.

    ``traj`` is a ``Trajectory`` of this plan, checked on its arrays as they
    are, or one (state, contacts) pair per timestep, gathered into one first
    (see ``Trajectory.from_pairs``). States are the post-step values; the
    initial state comes from the plan.
    """
    _tolerance(tol, "tol")
    if not (isinstance(traj, Trajectory) and traj.plan is plan):
        traj = Trajectory.from_pairs(plan, traj)
    table, states = plan.pair_table, traj.h
    prev = np.vstack([plan.h0, states[:-1]])
    res_dyn = float(np.max(np.abs(_step(prev, plan, table.t, table.rotation, traj.f, traj.p,
                                        traj.ell, traj.z, traj.tau) - states)))

    # Per-phase data: surfaces and center-of-pressure bounds, one batch each.
    order = np.argsort(table.phase, kind="stable")
    bounds = np.searchsorted(table.phase[order], np.arange(len(plan.phases) + 1))
    res_surf = res_zmp = 0.0
    for ph, idx in zip(plan.phases, np.split(order, bounds[1:-1])):
        S = ph.surface
        res_surf = max(res_surf, float(np.max((S.A @ traj.p[idx, :, None])[..., 0] - S.b)))
        z = traj.z[idx][traj.given("z")[idx]]
        if ph.flat_foot and z.size:
            zlo, zhi = ph.zmp_lo_hi()
            res_zmp = max(res_zmp, float(np.max(np.maximum(zlo - z, z - zhi))))
    # Friction pyramid in the contact frame.
    fc = (table.rotation.transpose(0, 2, 1) @ traj.f[:, :, None])[..., 0]
    mu = table.friction
    res_fric = np.max(np.maximum(np.maximum(np.abs(fc[:, 0]) - mu * fc[:, 2],
                                            np.abs(fc[:, 1]) - mu * fc[:, 2]), -fc[:, 2]),
                      initial=0.0)
    res_kin = np.max(np.max(np.abs(traj.p - states[table.t, 0:3]), axis=1, initial=0.0)
                     - plan.kinematic_limit, initial=0.0)
    gap = np.abs(traj.ell - traj.lever_geometry())[traj.given("ell")]
    return ResidualReport(dynamics=res_dyn, friction=float(res_fric), kinematic=float(res_kin),
                          surface=res_surf, zmp=res_zmp,
                          lever_consistency=float(np.max(gap, initial=0.0)), tol=tol)
