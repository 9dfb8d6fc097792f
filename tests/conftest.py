import numpy as np
import pytest

from centroidal_bcd.model import CentroidalState, ContactPhase, ContactPlan, EffectorContact, \
    Polytope, integrate_step

# Top-level scenario blocks replaced by a value of the wrong JSON type, and
# the type the block needs.
WRONG_TYPE_BLOCKS = [
    *((block, value, "mapping")
      for block in ("robot", "horizon", "initial_state", "references", "weights", "bcd", "gait")
      for value in (3, [1.0], "text")),
    ("contacts", 3, "list"),
    ("contacts", {"a": 1}, "list"),
    ("gravity", 3, "list"),
    # A name of any type used to be accepted and written into summary.txt.
    ("name", ["a", 1], "string"),
]

QUAD_OFFSETS = {
    "FL": np.array([0.19, 0.11, -0.22]),
    "FR": np.array([0.19, -0.11, -0.22]),
    "HL": np.array([-0.19, 0.11, -0.22]),
    "HR": np.array([-0.19, -0.11, -0.22]),
}


def flat_patch(cx, cy, z=0.0, half=0.3) -> Polytope:
    A = np.array([[0, 0, 1.0], [0, 0, -1.0], [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]])
    b = np.array([z, -z, cx + half, -(cx - half), cy + half, -(cy - half)])
    return Polytope(A, b)


def hover_plan(N=10, mass=2.5, mu=0.7, offsets=QUAD_OFFSETS) -> ContactPlan:
    r0 = np.array([0.0, 0.0, 0.22])
    phases = [
        ContactPhase(e, 0, N, flat_patch(off[0], off[1]), friction_coeff=mu,
                     foothold_hint=np.array([off[0], off[1], 0.0]))
        for e, off in offsets.items()
    ]
    return ContactPlan(effector_ids=tuple(offsets), phases=tuple(phases), horizon=N,
                       dt=0.01, mass=mass, h0=np.concatenate([r0, np.zeros(6)]),
                       kinematic_limit=0.35, nominal_offsets=offsets)


def hover_references(plan: ContactPlan) -> np.ndarray:
    """The initial CoM at rest, held over the horizon: (N, 9) stacked
    (r, l, k)."""
    rest = np.concatenate([plan.h0[0:3], np.zeros(6)])
    return np.tile(rest, (plan.horizon, 1))


@pytest.fixture
def quad_hover():
    plan = hover_plan()
    return plan, hover_references(plan)


def monopod_plan(N=5, mass=2.0, mu=0.8, L_max=0.4) -> ContactPlan:
    r0 = np.array([0.0, 0.0, 0.22])
    offsets = {"FOOT": np.array([0.0, 0.0, -0.22])}
    phases = [ContactPhase("FOOT", 0, N, flat_patch(0.0, 0.0, half=0.25), friction_coeff=mu,
                           foothold_hint=np.zeros(3))]
    return ContactPlan(effector_ids=("FOOT",), phases=tuple(phases), horizon=N, dt=0.02,
                       mass=mass, h0=np.concatenate([r0, np.zeros(6)]),
                       kinematic_limit=L_max, nominal_offsets=offsets)


def _tilt(angle: float) -> np.ndarray:
    c, s = np.cos(angle), np.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def flat_foot_plan(N=8) -> ContactPlan:
    """Two flat feet on tilted contact frames (one lifting off and landing
    again) plus a point contact that joins late."""
    zmp = ((-0.05, 0.05), (-0.03, 0.03))
    feet = {"FL": [(0, 4, 0.2), (6, N, -0.1)], "FR": [(0, N, 0.15)]}
    phases = [ContactPhase(e, t0, t1, flat_patch(*QUAD_OFFSETS[e][:2]), rotation=_tilt(a),
                           flat_foot=True, zmp_bounds=zmp,
                           foothold_hint=np.array([*QUAD_OFFSETS[e][:2], 0.0]))
              for e, windows in feet.items() for t0, t1, a in windows]
    off = QUAD_OFFSETS["HL"]
    phases.append(ContactPhase("HL", 2, N, flat_patch(off[0], off[1]),
                               foothold_hint=np.array([off[0], off[1], 0.0])))
    offsets = {e: QUAD_OFFSETS[e] for e in ("FL", "FR", "HL")}
    return ContactPlan(effector_ids=tuple(offsets), phases=tuple(phases), horizon=N, dt=0.01,
                       mass=2.5, h0=(0.0, 0.0, 0.22, 0.0, 0.0, 0.0, 0.0, 0.01, 0.0),
                       kinematic_limit=0.35, nominal_offsets=offsets)


def flat_foot_replay(plan: ContactPlan, lever: bool, seed: int = 4) -> list:
    """Replayed trajectory with random forces, offsets and torques; lever
    arms given (from the previous CoM) or derived."""
    rng = np.random.default_rng(seed)
    traj, h = [], CentroidalState.from_stacked(plan.h0)
    for t in range(plan.horizon):
        contacts = {}
        for ph in plan.active_contacts(t):
            fz = rng.uniform(3.0, 9.0)
            f = ph.rotation @ np.array([0.3 * fz * rng.uniform(-1, 1),
                                        0.3 * fz * rng.uniform(-1, 1), fz])
            z = rng.uniform(-0.03, 0.03, size=2) if ph.flat_foot else None
            tau = rng.normal(scale=0.05, size=3) if ph.flat_foot else None
            p = ph.foothold_hint
            contacts[ph.end_effector_id] = EffectorContact(
                f=f, p=p, ell=p - h.r if lever else None, z=z, tau=tau)
        h = integrate_step(h, contacts, plan, t=t)
        traj.append((h, contacts))
    return traj


def pattern_hash(M) -> int:
    """Structural hash of a sparse matrix (shape and pattern, not values)."""
    M = M.tocsc()
    return hash((M.shape, M.indptr.tobytes(), M.indices.tobytes()))


def qp_arrays(qp) -> list[np.ndarray]:
    """Copies of every array of an assembled QP: P and A (indptr, indices,
    data), q, lo and hi."""
    return [np.array(a) for a in (qp.P.indptr, qp.P.indices, qp.P.data, qp.A.indptr,
                                  qp.A.indices, qp.A.data, qp.q, qp.lo, qp.hi)]
