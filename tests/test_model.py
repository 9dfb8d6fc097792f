import numpy as np
import pytest
from hypothesis import given, strategies as st

from centroidal_bcd.model import (
    CentroidalState,
    ContactPhase,
    ContactPlan,
    EffectorContact,
    Polytope,
    integrate_step,
    polygon_to_halfspaces,
    skew,
    verify_trajectory,
)

from centroidal_bcd.gaits import shipped_scenarios
from centroidal_bcd.scenarios import materialize

from conftest import QUAD_OFFSETS, flat_patch, hover_plan

vec3 = st.lists(st.floats(-100, 100, allow_nan=False), min_size=3, max_size=3)


def test_skew_zero_is_zero_matrix():
    assert np.array_equal(skew((0, 0, 0)), np.zeros((3, 3)))


def test_skew_unit_cross_product():
    assert np.allclose(skew((0, 0, 1)) @ np.array([1.0, 0, 0]), [0, 1, 0])


def test_skew_rejects_non_finite():
    with pytest.raises(ValueError):
        skew((np.nan, 0, 0))
    with pytest.raises(ValueError):
        skew((np.inf, 1, 2))


@given(vec3)
def test_skew_antisymmetric(v):
    M = skew(v)
    assert np.array_equal(M + M.T, np.zeros((3, 3)))


@given(vec3, vec3)
def test_skew_matches_cross_and_anticommutes(v, w):
    v, w = np.array(v), np.array(w)
    assert np.allclose(skew(v) @ w, np.cross(v, w), atol=1e-9)
    assert np.allclose(skew(v) @ w, -(skew(w) @ v), atol=1e-9)


def _single_contact_plan(N=1, mass=1.0, dt=0.01, gravity=(0, 0, -9.81)):
    phases = [ContactPhase("F", 0, N, flat_patch(0.0, 0.0, half=1.0), friction_coeff=1.0)]
    return ContactPlan(effector_ids=("F",), phases=tuple(phases), horizon=N, dt=dt,
                       mass=mass, h0=CentroidalState((0, 0, 0.3), (0, 0, 0), (0, 0, 0)),
                       kinematic_limit=2.0, nominal_offsets={"F": (0, 0, -0.3)},
                       gravity=np.array(gravity))


def test_integrate_ballistic_step():
    plan = _single_contact_plan(mass=1.0)
    h1 = integrate_step(plan.h0, {}, plan)
    assert np.allclose(h1.l, [0, 0, -0.0981])
    assert np.allclose(h1.k, plan.h0.k)


def test_integrate_static_equilibrium():
    plan = _single_contact_plan(mass=1.0)
    contacts = {"F": EffectorContact(f=(0, 0, 9.81), p=(0, 0, 0), ell=(0, 0, -0.3))}
    h1 = integrate_step(plan.h0, contacts, plan, t=0)
    assert np.allclose(h1.l, [0, 0, 0], atol=1e-12)


def test_integrate_hand_cross_product():
    # kappa = (0.2, 0, -0.3) x (0, 0, 5) = (0, -1, 0); dt = 0.01.
    plan = _single_contact_plan(mass=1.0, gravity=(0, 0, 0))
    lever = np.array([0.2, 0.0, -0.3])
    contacts = {"F": EffectorContact(f=(0, 0, 5.0), p=(1, 1, 1), ell=lever)}
    h1 = integrate_step(plan.h0, contacts, plan, t=0)
    assert np.allclose(h1.k, [0, -0.01, 0], atol=1e-15)
    # Same step through the geometric path: p placed so p - r_1 equals the lever.
    l1 = np.array([0, 0, 5.0]) * plan.dt
    r1 = plan.h0.r + l1 * plan.dt / plan.mass
    contacts_geom = {"F": EffectorContact(f=(0, 0, 5.0), p=r1 + lever)}
    h1_geom = integrate_step(plan.h0, contacts_geom, plan, t=0)
    assert np.allclose(h1_geom.k, h1.k, atol=1e-15)


@given(vec3, vec3, st.floats(0.5, 5.0))
def test_integrate_zero_force_zero_gravity_identity(l0, k0, mass):
    plan = _single_contact_plan(mass=mass, gravity=(0, 0, 0))
    h0 = CentroidalState((0, 0, 0.3), l0, k0)
    h1 = integrate_step(h0, {}, plan)
    assert np.allclose(h1.l, h0.l)
    assert np.allclose(h1.k, h0.k)
    assert np.allclose(h1.r, h0.r + np.array(l0) * plan.dt / mass)


def test_verify_replay_has_zero_dynamics_residual():
    plan = hover_plan(N=8)
    rng = np.random.default_rng(3)
    traj = []
    h = plan.h0
    for t in range(plan.horizon):
        contacts = {}
        for ph in plan.active_contacts(t):
            fz = rng.uniform(3.0, 9.0)
            f = np.array([0.3 * fz * rng.uniform(-1, 1), 0.3 * fz * rng.uniform(-1, 1), fz])
            contacts[ph.end_effector_id] = EffectorContact(
                f=f, p=ph.foothold_hint, ell=ph.foothold_hint - h.r)
        h = integrate_step(h, contacts, plan, t=t)
        traj.append((h, contacts))
    report = verify_trajectory(traj, plan, tol=1e-9)
    assert report.dynamics <= 1e-12


def test_verify_friction_violation_magnitude():
    plan = _single_contact_plan(mass=1.0)
    phases = [ContactPhase("F", 0, 1, flat_patch(0, 0, half=1.0), friction_coeff=0.6)]
    plan = ContactPlan(effector_ids=("F",), phases=tuple(phases), horizon=1, dt=0.01,
                       mass=1.0, h0=plan.h0, kinematic_limit=2.0,
                       nominal_offsets={"F": (0, 0, -0.3)})
    contacts = {"F": EffectorContact(f=(10.0, 0, 1.0), p=(0, 0, 0))}
    h1 = integrate_step(plan.h0, contacts, plan, t=0)
    report = verify_trajectory([(h1, contacts)], plan, tol=1e-5)
    assert report.friction == pytest.approx(10.0 - 0.6 * 1.0)
    assert not report.feasible


def test_verify_rejects_length_and_activity_mismatch():
    plan = hover_plan(N=3)
    with pytest.raises(ValueError, match="length"):
        verify_trajectory([], plan)
    h = plan.h0
    bad = [(h, {}) for _ in range(3)]  # plan expects four active effectors
    with pytest.raises(ValueError, match="do not match"):
        verify_trajectory(bad, plan)


def test_polygon_to_halfspaces_square():
    poly = polygon_to_halfspaces([(0, 0, 0.1), (1, 0, 0.1), (1, 1, 0.1), (0, 1, 0.1)])
    assert poly.contains((0.5, 0.5, 0.1), tol=1e-9)
    assert not poly.contains((0.5, 0.5, 0.2))   # off the plane
    assert not poly.contains((1.5, 0.5, 0.1))   # outside an edge
    assert not poly.is_empty()


def test_polygon_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        polygon_to_halfspaces([(0, 0, 0), (1, 0, 0), (2, 0, 0)])  # collinear
    with pytest.raises(ValueError):
        polygon_to_halfspaces([(0, 0, 0), (1, 0, 0), (1, 1, 1), (0, 1, 0.5)])  # non-planar


def test_contact_phase_invariants():
    surf = flat_patch(0, 0)
    with pytest.raises(ValueError, match="empty"):
        ContactPhase("F", 5, 3, surf)
    with pytest.raises(ValueError, match="orthonormal"):
        ContactPhase("F", 0, 5, surf, rotation=np.eye(3) * 1.01)
    with pytest.raises(ValueError, match="friction"):
        ContactPhase("F", 0, 5, surf, friction_coeff=0.0)
    with pytest.raises(ValueError, match="zmp_bounds"):
        ContactPhase("F", 0, 5, surf, flat_foot=True)
    with pytest.raises(ValueError, match="outside"):
        ContactPhase("F", 0, 5, surf, foothold_hint=(9.0, 0.0, 0.0))
    empty = Polytope(np.array([[1.0, 0, 0], [-1.0, 0, 0]]), np.array([-1.0, -1.0]))
    with pytest.raises(ValueError, match="empty"):
        ContactPhase("F", 0, 5, empty)


def test_contact_plan_rejects_overlapping_phases():
    surf = flat_patch(0.19, 0.11)
    phases = [ContactPhase("FL", 0, 6, surf), ContactPhase("FL", 4, 9, surf)]
    with pytest.raises(ValueError, match="overlapping"):
        ContactPlan(effector_ids=("FL",), phases=tuple(phases), horizon=10, dt=0.01,
                    mass=1.0, h0=CentroidalState((0, 0, 0.2), (0, 0, 0), (0, 0, 0)),
                    kinematic_limit=0.4, nominal_offsets={"FL": QUAD_OFFSETS["FL"]})


def test_centroidal_state_requires_finite_components():
    with pytest.raises(ValueError):
        CentroidalState((np.nan, 0, 0), (0, 0, 0), (0, 0, 0))
    h = CentroidalState((1, 2, 3), (4, 5, 6), (7, 8, 9))
    assert np.array_equal(h.stacked(), np.arange(1.0, 10.0))
    assert np.array_equal(CentroidalState.from_stacked(h.stacked()).r, h.r)


def test_active_contacts_match_a_scan_of_the_phases():
    # The per-timestep active sets are computed once per plan; they must agree
    # with a direct scan of the phases, also one step outside the horizon.
    for name, doc in shipped_scenarios().items():
        plan = materialize(doc)[0]
        for t in range(-1, plan.horizon + 1):
            scan = {e: [ph for ph in plan.phases if ph.end_effector_id == e
                        and ph.t_start <= t < ph.t_end] for e in plan.effector_ids}
            expected = [ph for e in plan.effector_ids for ph in scan[e]]
            got = plan.active_contacts(t)
            assert len(got) == len(expected) and all(
                a is b for a, b in zip(got, expected)), (name, t)
            for e in plan.effector_ids:
                assert plan.phase_at(t, e) is (scan[e][0] if scan[e] else None), (name, t, e)


def test_contact_plans_compare_by_identity():
    a, b = hover_plan(N=4), hover_plan(N=4)
    assert a == a and a != b
    assert len({a, b, a}) == 2
