"""Centroidal momentum model: states, contact data, discrete dynamics, feasibility checks.

The reduced-order state of a floating-base robot is h = (r, l, k): center of
mass position, linear momentum, and angular momentum about the center of mass.
Contacts act on the state through world-frame forces f applied at lever arms

    ell = p - r + R^{xy} z

where p is the contact point, z the center-of-pressure offset inside a flat
foot (expressed in the contact frame, first two columns of R), and R the
contact-frame rotation. A contact with ``flat_foot=False`` is a point contact:
z and tau are removed and ell = p - r.

Everything in this module is immutable value data and pure functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

__all__ = [
    "CentroidalState",
    "ContactPhase",
    "ContactPlan",
    "EffectorContact",
    "TimestepContacts",
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
    v = np.asarray(x, dtype=float).reshape(-1)
    if v.shape != (size,):
        raise ValueError(f"{name} must have {size} components, got shape {np.shape(x)}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite, got {v}")
    v.setflags(write=False)
    return v


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

    def contains(self, x, tol: float = 0.0) -> bool:
        return bool(np.all(self.A @ np.asarray(x, dtype=float) <= self.b + tol))

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
        if np.max(np.abs(R.T @ R - np.eye(3))) > _ORTHONORMAL_TOL:
            raise ValueError(f"rotation for {self.end_effector_id} is not orthonormal")
        R.setflags(write=False)
        object.__setattr__(self, "rotation", R)
        if self.friction_coeff <= 0.0:
            raise ValueError(f"friction coefficient must be positive, got {self.friction_coeff}")
        if self.flat_foot:
            if self.zmp_bounds is None:
                raise ValueError("flat-foot phase requires zmp_bounds")
            (xlo, xhi), (ylo, yhi) = self.zmp_bounds
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

    ``horizon`` timesteps of length ``dt``; end-effector activity is defined by
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
    h0: CentroidalState
    kinematic_limit: float
    nominal_offsets: Mapping[str, np.ndarray]
    gravity: np.ndarray = field(default_factory=lambda: np.array(GRAVITY_DEFAULT))

    def __post_init__(self):
        object.__setattr__(self, "effector_ids", tuple(self.effector_ids))
        object.__setattr__(self, "phases", tuple(self.phases))
        object.__setattr__(self, "gravity", _as_vector(self.gravity, 3, "gravity"))
        offsets = {e: _as_vector(v, 3, f"nominal_offsets[{e}]")
                   for e, v in dict(self.nominal_offsets).items()}
        object.__setattr__(self, "nominal_offsets", offsets)
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.dt <= 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if self.mass <= 0.0:
            raise ValueError(f"mass must be positive, got {self.mass}")
        if self.kinematic_limit <= 0.0:
            raise ValueError(f"kinematic limit must be positive, got {self.kinematic_limit}")
        known = set(self.effector_ids)
        for ph in self.phases:
            if ph.end_effector_id not in known:
                raise ValueError(f"phase references undeclared effector {ph.end_effector_id!r}")
            if ph.t_start < 0 or ph.t_end > self.horizon:
                raise ValueError(
                    f"phase window [{ph.t_start}, {ph.t_end}) outside horizon {self.horizon}")
            if ph.end_effector_id not in offsets:
                raise ValueError(f"no nominal offset for effector {ph.end_effector_id!r}")
        active = [[] for _ in range(self.horizon)]
        for e in self.effector_ids:
            windows = sorted((p for p in self.phases if p.end_effector_id == e),
                             key=lambda p: p.t_start)
            for a, b in zip(windows, windows[1:]):
                if b.t_start < a.t_end:
                    raise ValueError(f"effector {e!r} has overlapping phases at timesteps "
                                     f"[{b.t_start}, {a.t_end})")
            for ph in windows:
                for t in range(ph.t_start, ph.t_end):
                    active[t].append(ph)
        object.__setattr__(self, "_active", {t: tuple(a) for t, a in enumerate(active)})

    @property
    def n_effectors(self) -> int:
        return len(self.effector_ids)

    def phase_at(self, t: int, effector: str) -> ContactPhase | None:
        for ph in self._active.get(t, ()):
            if ph.end_effector_id == effector:
                return ph
        return None

    def active_contacts(self, t: int) -> list[ContactPhase]:
        """Phases active at timestep t, in declared effector order."""
        return list(self._active.get(t, ()))

    def active_pairs(self) -> list[tuple[int, str]]:
        """All (t, effector) pairs with an active contact, t-major order."""
        return [(t, ph.end_effector_id)
                for t in range(self.horizon) for ph in self.active_contacts(t)]


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


@dataclass(frozen=True)
class _Pairs:
    """Contact data of a run of timesteps as arrays, one row per (timestep,
    effector) pair: timestep-major, and within a timestep in the order its
    contacts mapping lists them. Rows of absent lever arms, offsets and
    torques hold NaN."""

    t: np.ndarray     # (pairs,) timestep index within the run
    f: np.ndarray     # (pairs, 3)
    p: np.ndarray
    ell: np.ndarray
    z: np.ndarray     # (pairs, 2)
    tau: np.ndarray
    R: np.ndarray     # (pairs, 3, 3) contact rotation, identity if unknown

    @staticmethod
    def gather(rows) -> "_Pairs":
        """From (timestep index, EffectorContact, rotation or None) rows in
        timestep order."""
        contacts = [c for _, c, _ in rows]

        def stack(name, width):
            absent = np.full(width, np.nan)
            return np.array([absent if getattr(c, name) is None else getattr(c, name)
                             for c in contacts]).reshape(-1, width)

        eye = np.eye(3)
        return _Pairs(t=np.array([t for t, _, _ in rows], dtype=np.intp),
                      f=stack("f", 3), p=stack("p", 3), ell=stack("ell", 3),
                      z=stack("z", 2), tau=stack("tau", 3),
                      R=np.array([eye if R is None else R for *_, R in rows]).reshape(-1, 3, 3))

    def given(self, name: str) -> np.ndarray:
        """Mask of the pairs that carry ``name`` ("ell", "z" or "tau")."""
        return ~np.isnan(getattr(self, name)[:, 0])

    def offsets(self, mask: np.ndarray) -> np.ndarray:
        """R^{xy} z of the masked pairs."""
        return (self.R[mask, :, :2] @ self.z[mask, :, None])[..., 0]


def _step(prev: np.ndarray, pairs: _Pairs, plan: ContactPlan) -> np.ndarray:
    """Stacked (r, l, k) after one dynamics step from each row of ``prev``
    (timesteps, 9) under the contacts in ``pairs``; see ``integrate_step``.
    Contacts of one timestep are summed in their listed order."""
    m, dt, g = plan.mass, plan.dt, plan.gravity
    # slots[j]: the pairs that are the j-th contact of their timestep.
    rank = np.arange(pairs.t.size) - np.searchsorted(pairs.t, pairs.t)
    slots = [np.flatnonzero(rank == j) for j in range(rank.max(initial=-1) + 1)]
    f_total = np.zeros((prev.shape[0], 3))
    for idx in slots:
        f_total[pairs.t[idx]] += pairs.f[idx]
    l_new = prev[:, 3:6] + m * g * dt + f_total * dt
    r_new = prev[:, 0:3] + l_new * dt / m
    ell = pairs.ell.copy()
    derived = ~pairs.given("ell")
    ell[derived] = pairs.p[derived] - r_new[pairs.t[derived]]
    offset = derived & pairs.given("z")
    ell[offset] = ell[offset] + pairs.offsets(offset)
    kappa = np.cross(ell, pairs.f)
    torque = pairs.given("tau")
    kappa[torque] = kappa[torque] + pairs.tau[torque]
    k_new = prev[:, 6:9].copy()
    for idx in slots:
        k_new[pairs.t[idx]] += kappa[idx] * dt
    return np.hstack([r_new, l_new, k_new])


def integrate_step(h_prev: CentroidalState, contacts: TimestepContacts,
                   plan: ContactPlan, t: int | None = None) -> CentroidalState:
    """One step of the discrete centroidal dynamics.

    l_t = l_{t-1} + m g dt + sum_e f dt, r_t = r_{t-1} + l_t dt / m (the l_t
    update is applied first), and k_t = k_{t-1} + sum_e kappa dt with
    kappa = ell x f + tau. Rotations for the z offsets are looked up from the
    plan when ``t`` is given.
    """
    rows = []
    for eff, c in contacts.items():
        ph = plan.phase_at(t, eff) if t is not None else None
        rows.append((0, c, ph.rotation if ph is not None else None))
    return CentroidalState.from_stacked(_step(h_prev.stacked()[None], _Pairs.gather(rows),
                                              plan)[0])


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
        return max(self.dynamics, self.friction, self.kinematic,
                   self.surface, self.zmp) <= self.tol

    def worst(self) -> tuple[str, float]:
        vals = {"dynamics": self.dynamics, "friction": self.friction,
                "kinematic": self.kinematic, "surface": self.surface, "zmp": self.zmp}
        name = max(vals, key=vals.get)
        return name, vals[name]

    def as_dict(self) -> dict:
        return {
            "dynamics": self.dynamics,
            "friction": self.friction,
            "kinematic": self.kinematic,
            "surface": self.surface,
            "zmp": self.zmp,
            "lever_consistency": self.lever_consistency,
            "tol": self.tol,
            "feasible": self.feasible,
        }


def verify_trajectory(traj: Sequence[tuple[CentroidalState, TimestepContacts]],
                      plan: ContactPlan, tol: float = 1e-5) -> ResidualReport:
    """Certify a candidate trajectory against the plan's constraints.

    ``traj`` holds one (state, contacts) pair per timestep; states are the
    post-step values, the initial state comes from the plan. Raises on length
    mismatch or when the contacts at some timestep disagree with the plan's
    activity pattern.
    """
    if len(traj) != plan.horizon:
        raise ValueError(f"trajectory length {len(traj)} != plan horizon {plan.horizon}")
    rows, groups = [], {}
    for t, (_, contacts) in enumerate(traj):
        active = {ph.end_effector_id: ph for ph in plan.active_contacts(t)}
        if set(contacts.keys()) != set(active.keys()):
            raise ValueError(
                f"timestep {t}: trajectory contacts {sorted(contacts)} do not match "
                f"plan activity {sorted(active)}")
        for eff, c in contacts.items():
            ph = active[eff]
            groups.setdefault(id(ph), (ph, []))[1].append(len(rows))
            rows.append((t, c, ph.rotation))
    pairs = _Pairs.gather(rows)
    states = np.array([s.stacked() for s, _ in traj])
    prev = np.vstack([plan.h0.stacked(), states[:-1]])
    res_dyn = float(np.max(np.abs(_step(prev, pairs, plan) - states)))

    # Per-phase data: surfaces and center-of-pressure bounds, one batch each.
    mu = np.empty(len(rows))
    res_surf = res_zmp = 0.0
    for ph, idx in groups.values():
        mu[idx] = ph.friction_coeff
        S = ph.surface
        res_surf = max(res_surf, float(np.max((S.A @ pairs.p[idx, :, None])[..., 0] - S.b)))
        z = pairs.z[idx][pairs.given("z")[idx]]
        if ph.flat_foot and z.size:
            zlo, zhi = ph.zmp_lo_hi()
            res_zmp = max(res_zmp, float(np.max(np.maximum(zlo - z, z - zhi))))
    # Friction pyramid in the contact frame.
    fc = (pairs.R.transpose(0, 2, 1) @ pairs.f[:, :, None])[..., 0]
    res_fric = np.max(np.maximum(np.maximum(np.abs(fc[:, 0]) - mu * fc[:, 2],
                                            np.abs(fc[:, 1]) - mu * fc[:, 2]), -fc[:, 2]),
                      initial=0.0)
    r = states[pairs.t, 0:3]
    res_kin = np.max(np.max(np.abs(pairs.p - r), axis=1, initial=0.0) - plan.kinematic_limit,
                     initial=0.0)
    geom = pairs.p - r
    offset = pairs.given("z")
    geom[offset] = geom[offset] + pairs.offsets(offset)
    gap = np.abs(pairs.ell - geom)[pairs.given("ell")]
    return ResidualReport(dynamics=res_dyn, friction=float(res_fric), kinematic=float(res_kin),
                          surface=res_surf, zmp=res_zmp,
                          lever_consistency=float(np.max(gap, initial=0.0)), tol=tol)
