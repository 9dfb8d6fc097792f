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
import numbers
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


# The rules every layer checks its scalar and array inputs by. Each raises a
# ValueError whose message starts with ``name``; the scenario reader turns it
# into a ScenarioError at the field's path.

def _float_array(values, name: str) -> np.ndarray:
    """``values`` as a new float array. Booleans, text, a mapping or a
    sequence of objects are a ValueError naming ``name``: numpy would read
    True as 1.0 and "0.7" as 0.7. A list or tuple is scanned for booleans
    among its numbers, which numpy promotes before its type shows them; an
    array is taken by its dtype alone."""
    try:
        a = np.asarray(values)
    except ValueError:  # nested sequences of unequal lengths
        raise ValueError(f"{name} must be an array of numbers, got a ragged sequence") from None
    kind = a.dtype.kind
    if kind in "iuf" and isinstance(values, (list, tuple)) and any(
            isinstance(x, (bool, np.bool_)) for x in np.asarray(values, dtype=object).flat):
        kind = "b"
    if kind not in "iuf":
        got = {"b": "booleans", "U": "text", "S": "text"}.get(kind, type(values).__name__)
        raise ValueError(f"{name} must be an array of numbers, got {got}")
    return np.array(a, dtype=float)


def _array(values, name: str, shape: tuple, absent: bool = False,
           infinite: bool = False) -> np.ndarray:
    """``values`` as a new read-only float array (see ``_float_array``) of
    exactly ``shape``, where a None dimension takes any length, and with
    every entry finite. With ``absent``, whole rows of NaN mark absent
    values; with ``infinite``, entries may be +-inf but not NaN. Nothing is
    reshaped: a (3, 1) array is no 3-vector."""
    a = _float_array(values, name)
    if a.ndim != len(shape) or any(d not in (None, n) for d, n in zip(shape, a.shape)):
        want = ", ".join("k" if d is None else str(d) for d in shape) + "," * (len(shape) == 1)
        raise ValueError(f"{name} must have shape ({want}), got {a.shape}")
    if infinite:
        if np.isnan(a).any():
            raise ValueError(f"{name} must not be NaN")
    elif not (np.isfinite(a).all(axis=-1) | (absent and np.isnan(a).all(axis=-1))).all():
        raise ValueError(f"{name} must be finite" + ", or NaN if absent" * absent)
    a.setflags(write=False)
    return a


def _real(value, name: str, requirement: str = "finite") -> float:
    """``value`` as a float if it is a finite real number, or a ValueError
    naming ``name`` (and, for a non-finite value, ``requirement``). A bool or
    a string is not a number, and NaN and infinity pass the plain
    comparisons the other rules make."""
    # float and int first: they decide without the slower ABC check.
    if isinstance(value, bool) or not isinstance(value, (float, int, numbers.Real)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ValueError(f"{name} must be {requirement}, got {value!r}")
    return float(value)


def _positive(value, name: str) -> float:
    """``value`` as a float if it is a finite number > 0 (see ``_real``)."""
    v = _real(value, name)
    if v <= 0.0:
        raise ValueError(f"{name} must be positive, got {value!r}")
    return v


def _nonnegative(value, name: str) -> float:
    """``value`` as a float if it is a finite number >= 0 (see ``_real``)."""
    v = _real(value, name, "finite and >= 0")
    if v < 0.0:
        raise ValueError(f"{name} must be finite and >= 0, got {value!r}")
    return v


def _integer(value, name: str, least: int) -> int:
    """``value`` as an int if it is an integer >= ``least``, or a ValueError
    naming ``name``. A bool is not an integer, nor is a float such as 20.0:
    a count or a timestep is never rounded."""
    if isinstance(value, bool) or not isinstance(value, (int, numbers.Integral)) \
            or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


def _flag(value, name: str) -> bool:
    """``value`` if it is a bool, or a ValueError naming ``name``: "no" and
    0 are not flags."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be true or false, got {value!r}")
    return bool(value)


def skew(v) -> np.ndarray:
    """Cross-product matrix: skew(v) @ u == np.cross(v, u)."""
    x, y, z = _array(v, "skew input", (3,))
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


@dataclass(frozen=True)
class CentroidalState:
    """Momentum state at one timestep: CoM position r [m], linear momentum l
    [kg m/s], angular momentum k [kg m^2/s]."""

    r: np.ndarray
    l: np.ndarray
    k: np.ndarray

    def __post_init__(self):
        for name in ("r", "l", "k"):
            object.__setattr__(self, name, _array(getattr(self, name), name, (3,)))

    def stacked(self) -> np.ndarray:
        """(r, l, k) stacked into a 9-vector."""
        return np.concatenate([self.r, self.l, self.k])

    @staticmethod
    def from_stacked(h) -> "CentroidalState":
        h = _array(h, "h", (9,))
        return CentroidalState(h[0:3], h[3:6], h[6:9])


@dataclass(frozen=True)
class Polytope:
    """Convex region {x : A x <= b} in world frame."""

    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        A = _array(self.A, "A", (None, 3))
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", _array(self.b, "b", (A.shape[0],)))

    def violation(self, x) -> float:
        """Largest halfspace violation at x (<= 0 means inside)."""
        return float(np.max(self.A @ x - self.b))

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
    V = _array(vertices, "vertices", (None, 3))
    if V.shape[0] < 3:
        raise ValueError(f"need at least 3 vertices, got {V.shape[0]}")
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
    # ((x_lo, x_hi), (y_lo, y_hi)), stored as a (2, 2) array.
    zmp_bounds: np.ndarray | None = None
    # Optional preferred foothold (world frame, inside the surface); scenario
    # generators use it to seat footholds on terrain patches.
    foothold_hint: np.ndarray | None = None

    def __post_init__(self):
        if _integer(self.t_start, "t_start", 0) >= _integer(self.t_end, "t_end", 0):
            raise ValueError(
                f"phase window [{self.t_start}, {self.t_end}) for {self.end_effector_id} is empty")
        R = _array(self.rotation, f"rotation for {self.end_effector_id}", (3, 3))
        if np.max(np.abs(R.T @ R - np.eye(3))) > _ORTHONORMAL_TOL:
            raise ValueError(f"rotation for {self.end_effector_id} is not orthonormal")
        object.__setattr__(self, "rotation", R)
        _positive(self.friction_coeff, "friction_coeff")
        if _flag(self.flat_foot, "flat_foot"):
            if self.zmp_bounds is None:
                raise ValueError("flat-foot phase requires zmp_bounds")
            bounds = _array(self.zmp_bounds, f"zmp_bounds for {self.end_effector_id}", (2, 2))
            if np.any(bounds[:, 0] > bounds[:, 1]):
                raise ValueError(f"zmp bounds inverted: {self.zmp_bounds}")
            object.__setattr__(self, "zmp_bounds", bounds)
        hint = self.foothold_hint
        if hint is not None:
            hint = _array(hint, "foothold_hint", (3,))
            object.__setattr__(self, "foothold_hint", hint)
        hint_inside = hint is not None and self.surface.violation(hint) <= 1e-9
        # A hint inside the surface witnesses that it is non-empty; only
        # surfaces without one need the LP.
        if not hint_inside and self.surface.is_empty():
            raise ValueError(f"surface polytope for {self.end_effector_id} is empty")
        if hint is not None and not hint_inside:
            raise ValueError(f"foothold hint for {self.end_effector_id} lies outside its surface")

    def zmp_lo_hi(self) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.zmp_bounds.T
        return lo, hi


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
        object.__setattr__(self, "gravity", _array(self.gravity, "gravity", (3,)))
        object.__setattr__(self, "h0", _array(self.h0, "h0", (9,)))
        offsets = {e: _array(v, f"nominal_offsets[{e}]", (3,))
                   for e, v in dict(self.nominal_offsets).items()}
        object.__setattr__(self, "nominal_offsets", offsets)
        _integer(self.horizon, "horizon", 1)
        for name in ("dt", "mass", "kinematic_limit"):
            _positive(getattr(self, name), name)
        known = set(self.effector_ids)
        for ph in self.phases:
            if ph.end_effector_id not in known:
                raise ValueError(f"phase references undeclared effector {ph.end_effector_id!r}")
            if ph.t_end > self.horizon:
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
            rotation=np.reshape([ph.rotation for ph in phases], (len(phases), 3, 3))[phase],
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
        return _array(values, name, (count, width), absent=optional)

    def scatter(self, values: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Pair-sized rows holding ``values`` at ``mask`` and NaN elsewhere."""
        out = np.full((self.t.size, values.shape[1]), np.nan)
        out[mask] = values
        return out


# EffectorContact fields and their widths, in the order the arrays go.
_CONTACT_FIELDS = (("f", 3), ("p", 3), ("ell", 3), ("z", 2), ("tau", 3))


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
        for name, width in _CONTACT_FIELDS:
            if getattr(self, name) is not None or name in ("f", "p"):
                object.__setattr__(self, name, _array(getattr(self, name), name, (width,)))


# Active contacts at one timestep, keyed by end-effector id. Inactive
# end-effectors carry no entry.
TimestepContacts = Mapping[str, EffectorContact]


def _rows(contacts, name: str, width: int) -> np.ndarray:
    """(len(contacts), width) rows of one EffectorContact field; NaN where
    absent."""
    absent = np.full(width, np.nan)
    return np.reshape([absent if getattr(c, name) is None else getattr(c, name)
                       for c in contacts], (len(contacts), width))


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
    R = np.reshape([np.eye(3) if ph is None else ph.rotation for ph in phases],
                   (len(phases), 3, 3))
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
    return _array(states, name, (horizon, 9))


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
    _nonnegative(tol, "tol")
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
