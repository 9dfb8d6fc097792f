from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from centroidal_bcd.model import (
    CentroidalState,
    ContactPhase,
    ContactPlan,
    EffectorContact,
    Polytope,
    ResidualReport,
    integrate_step,
    polygon_to_halfspaces,
    skew,
    verify_trajectory,
)

from centroidal_bcd.bcd import BcdSettings, force_trajectory, optimize
from centroidal_bcd.contact_qp import ContactQpInputs
from centroidal_bcd.force_qp import ForceQpInputs
from centroidal_bcd.gaits import make_gait, shipped_scenarios
from centroidal_bcd.qp import SolverSettings
from centroidal_bcd.scenarios import materialize
from centroidal_bcd.structure import CostWeights

from conftest import QUAD_OFFSETS, flat_foot_plan, flat_foot_replay, flat_patch, hover_plan, \
    hover_references

vec3 = st.lists(st.floats(-100, 100, allow_nan=False), min_size=3, max_size=3)


def _initial(plan) -> CentroidalState:
    """The plan's initial state as the object ``integrate_step`` takes."""
    return CentroidalState.from_stacked(plan.h0)


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


def _single_contact_plan(N=1, mass=1.0, dt=0.01, gravity=(0, 0, -9.81),
                         h0=(0, 0, 0.3, 0, 0, 0, 0, 0, 0), t_end=None):
    phases = [ContactPhase("F", 0, N if t_end is None else t_end,
                           flat_patch(0.0, 0.0, half=1.0), friction_coeff=1.0)]
    return ContactPlan(effector_ids=("F",), phases=tuple(phases), horizon=N, dt=dt,
                       mass=mass, h0=h0,
                       kinematic_limit=2.0, nominal_offsets={"F": (0, 0, -0.3)},
                       gravity=np.array(gravity))


def test_integrate_ballistic_step():
    plan = _single_contact_plan(mass=1.0)
    h1 = integrate_step(_initial(plan), {}, plan)
    assert np.allclose(h1.l, [0, 0, -0.0981])
    assert np.allclose(h1.k, plan.h0[6:9])


def test_integrate_static_equilibrium():
    plan = _single_contact_plan(mass=1.0)
    contacts = {"F": EffectorContact(f=(0, 0, 9.81), p=(0, 0, 0), ell=(0, 0, -0.3))}
    h1 = integrate_step(_initial(plan), contacts, plan, t=0)
    assert np.allclose(h1.l, [0, 0, 0], atol=1e-12)


def test_integrate_hand_cross_product():
    # kappa = (0.2, 0, -0.3) x (0, 0, 5) = (0, -1, 0); dt = 0.01.
    plan = _single_contact_plan(mass=1.0, gravity=(0, 0, 0))
    lever = np.array([0.2, 0.0, -0.3])
    contacts = {"F": EffectorContact(f=(0, 0, 5.0), p=(1, 1, 1), ell=lever)}
    h1 = integrate_step(_initial(plan), contacts, plan, t=0)
    assert np.allclose(h1.k, [0, -0.01, 0], atol=1e-15)
    # Same step through the geometric path: p placed so p - r_1 equals the lever.
    l1 = np.array([0, 0, 5.0]) * plan.dt
    r1 = plan.h0[0:3] + l1 * plan.dt / plan.mass
    contacts_geom = {"F": EffectorContact(f=(0, 0, 5.0), p=r1 + lever)}
    h1_geom = integrate_step(_initial(plan), contacts_geom, plan, t=0)
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
    h = _initial(plan)
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
    h1 = integrate_step(_initial(plan), contacts, plan, t=0)
    report = verify_trajectory([(h1, contacts)], plan, tol=1e-5)
    assert report.friction == pytest.approx(10.0 - 0.6 * 1.0)
    assert not report.feasible


def test_verify_rejects_length_and_activity_mismatch():
    plan = hover_plan(N=3)
    with pytest.raises(ValueError, match="length"):
        verify_trajectory([], plan)
    bad = [(_initial(plan), {}) for _ in range(3)]  # plan expects four active effectors
    with pytest.raises(ValueError, match="do not match"):
        verify_trajectory(bad, plan)


@pytest.mark.parametrize("tol", [np.nan, np.inf, -1e-5])
def test_verify_rejects_an_unusable_tolerance(tol):
    plan = hover_plan(N=3)
    with pytest.raises(ValueError, match="^tol must be finite and >= 0, got "):
        verify_trajectory([], plan, tol=tol)


def test_residual_report_dict_and_worst_follow_the_fields():
    report = ResidualReport(dynamics=1e-9, friction=3e-6, kinematic=0.0, surface=2e-6,
                            zmp=0.0, lever_consistency=0.5, tol=1e-5)
    assert list(report.as_dict()) == [f.name for f in fields(ResidualReport)] + ["feasible"]
    assert report.as_dict()["feasible"] is True
    # The lever gap is diagnostic: it is neither the worst violation nor a
    # reason to call the trajectory infeasible.
    assert report.worst() == ("friction", 3e-6)
    assert not replace(report, surface=2e-5).feasible


def test_polygon_to_halfspaces_square():
    poly = polygon_to_halfspaces([(0, 0, 0.1), (1, 0, 0.1), (1, 1, 0.1), (0, 1, 0.1)])
    assert poly.violation((0.5, 0.5, 0.1)) <= 1e-9
    assert poly.violation((0.5, 0.5, 0.2)) > 0.0   # off the plane
    assert poly.violation((1.5, 0.5, 0.1)) > 0.0   # outside an edge
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


@pytest.mark.parametrize("field", ["dt", "mass", "kinematic_limit"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_contact_plan_rejects_non_finite_constants(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        replace(hover_plan(), **{field: value})


def test_contact_phase_rejects_non_finite_friction_and_rotation():
    surf = flat_patch(0, 0)
    for mu in (np.nan, np.inf):
        with pytest.raises(ValueError, match="^friction_coeff must be finite"):
            ContactPhase("F", 0, 5, surf, friction_coeff=mu)
    with pytest.raises(ValueError, match="^rotation for F must be finite"):
        ContactPhase("F", 0, 5, surf, rotation=np.full((3, 3), np.nan))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("slot", range(4))
def test_contact_phase_rejects_non_finite_zmp_bounds(slot, value):
    bounds = [-0.02, 0.02, -0.02, 0.02]
    bounds[slot] = value
    with pytest.raises(ValueError, match="^zmp_bounds for F must be finite"):
        ContactPhase("F", 0, 5, flat_patch(0, 0), flat_foot=True,
                     zmp_bounds=(tuple(bounds[:2]), tuple(bounds[2:])))


def _with_l_prox(block, value):
    plan = hover_plan(N=3)
    refs = hover_references(plan)
    zeros = np.zeros((len(plan.active_pairs()), 3))
    if block == "force":
        return ForceQpInputs(plan=plan, ell_fixed=zeros, p_fixed=zeros, references=refs,
                             h_reg=refs, l_prox=value)
    return ContactQpInputs(plan=plan, f_fixed=zeros, h_reg=refs, references=refs, l_prox=value)


# Each was accepted, or failed naming no field: a fractional horizon built a
# pair table, True read as 1 and "no" as a flat foot.
UNUSABLE_API_VALUES = {
    "plan horizon": (lambda: replace(hover_plan(N=20), horizon=20.5),
                     "horizon must be an integer >= 1, got 20.5"),
    "phase end": (lambda: _single_contact_plan(N=20, t_end=19.5),
                  "t_end must be an integer >= 0, got 19.5"),
    "flat-foot flag": (lambda: ContactPhase("F", 0, 5, flat_patch(0, 0), flat_foot="no",
                                            zmp_bounds=((-0.01, 0.01), (-0.01, 0.01))),
                       "flat_foot must be true or false, got 'no'"),
    "solver tolerance": (lambda: SolverSettings(eps_abs=True),
                         "eps_abs must be a number, got True"),
    "proximal weight": (lambda: BcdSettings(L0="100"), "L0 must be a number, got '100'"),
    "cost weight": (lambda: CostWeights(force=True), "force must be a number, got True"),
    "state weights": (lambda: CostWeights(tracking=[True, False, True]),
                      "tracking must be an array of numbers, got booleans"),
    # numpy promotes a boolean among numbers before the dtype shows it.
    "halfspace row": (lambda: Polytope([[0.0, 0.0, 1.0], [True, 0.0, 0.0]], [0.0, 0.1]),
                      "A must be an array of numbers, got booleans"),
    "force l_prox": (lambda: _with_l_prox("force", True), "l_prox must be a number, got True"),
    "contact l_prox": (lambda: _with_l_prox("contact", "1"), "l_prox must be a number, got '1'"),
    "gait mu": (lambda: make_gait("stand", mu=True), "mu must be a number, got True"),
    "gait stride": (lambda: make_gait("walk", stride="0.1"),
                    "stride must be a number, got '0.1'"),
}


@pytest.mark.parametrize("case", UNUSABLE_API_VALUES)
def test_unusable_api_values_are_rejected_naming_the_field(case):
    build, message = UNUSABLE_API_VALUES[case]
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


def test_contact_plan_rejects_overlapping_phases():
    surf = flat_patch(0.19, 0.11)
    phases = [ContactPhase("FL", 0, 6, surf), ContactPhase("FL", 4, 9, surf)]
    with pytest.raises(ValueError, match="overlapping"):
        ContactPlan(effector_ids=("FL",), phases=tuple(phases), horizon=10, dt=0.01,
                    mass=1.0, h0=(0, 0, 0.2, 0, 0, 0, 0, 0, 0),
                    kinematic_limit=0.4, nominal_offsets={"FL": QUAD_OFFSETS["FL"]})


def test_the_initial_state_is_a_read_only_nine_vector():
    h0 = [0.0, 0.0, 0.3, 0.1, 0.0, 0.0, 0.0, 0.02, 0.0]
    plan = _single_contact_plan(h0=h0)
    assert plan.h0.shape == (9,) and plan.h0.tolist() == h0
    assert not plan.h0.flags.writeable


@pytest.mark.parametrize("h0, message", [
    ((0, 0, np.nan, 0, 0, 0, 0, 0, 0), "h0 must be finite"),
    ((0, 0, np.inf, 0, 0, 0, 0, 0, 0), "h0 must be finite"),
    ((0, 0, 0.3), "h0 must have 9 components"),
    (np.zeros(10), "h0 must have 9 components"),
    (CentroidalState((0, 0, 0.3), (0, 0, 0), (0, 0, 0)), "h0 must be an array of numbers"),
], ids=["nan", "inf", "3 components", "10 components", "state object"])
def test_an_unusable_initial_state_is_rejected_naming_h0(h0, message):
    with pytest.raises(ValueError, match=f"^{message}"):
        _single_contact_plan(h0=h0)


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


# -- vectorized verification against per-step references ----------------------

RESIDUALS = ("dynamics", "friction", "kinematic", "surface", "zmp", "lever_consistency")


def _scalar_step(h_prev, contacts, plan, t):
    """Stacked state after one step, summed contact by contact."""
    m, dt, g = plan.mass, plan.dt, plan.gravity
    f_total = np.zeros(3)
    for c in contacts.values():
        f_total = f_total + c.f
    l_new = h_prev.l + m * g * dt + f_total * dt
    r_new = h_prev.r + l_new * dt / m
    k_new = np.array(h_prev.k)
    for eff, c in contacts.items():
        ell = c.ell
        if ell is None:
            ell = c.p - r_new
            if c.z is not None:
                ell = ell + plan.phase_at(t, eff).rotation[:, :2] @ c.z
        kappa = np.cross(ell, c.f)
        if c.tau is not None:
            kappa = kappa + c.tau
        k_new = k_new + kappa * dt
    return np.concatenate([r_new, l_new, k_new])


def _verify_per_step(traj, plan) -> dict:
    """verify_trajectory's residuals, one timestep and one contact at a time."""
    res = dict.fromkeys(RESIDUALS, 0.0)
    prev = _initial(plan)
    for t, (state, contacts) in enumerate(traj):
        predicted = integrate_step(prev, contacts, plan, t=t)
        res["dynamics"] = max(res["dynamics"],
                              float(np.max(np.abs(predicted.stacked() - state.stacked()))))
        for eff, c in contacts.items():
            ph = plan.phase_at(t, eff)
            fc, mu = ph.rotation.T @ c.f, ph.friction_coeff
            res["friction"] = max(res["friction"], abs(fc[0]) - mu * fc[2],
                                  abs(fc[1]) - mu * fc[2], -fc[2])
            res["kinematic"] = max(res["kinematic"], float(np.max(np.abs(c.p - state.r)))
                                   - plan.kinematic_limit)
            res["surface"] = max(res["surface"], ph.surface.violation(c.p))
            if ph.flat_foot and c.z is not None:
                zlo, zhi = ph.zmp_lo_hi()
                res["zmp"] = max(res["zmp"], float(np.max(np.maximum(zlo - c.z, c.z - zhi))))
            if c.ell is not None:
                geom = c.p - state.r
                if c.z is not None:
                    geom = geom + ph.rotation[:, :2] @ c.z
                res["lever_consistency"] = max(res["lever_consistency"],
                                               float(np.max(np.abs(c.ell - geom))))
        prev = state
    return res


def _assert_verify_matches_reference(traj, plan):
    report = verify_trajectory(traj, plan)
    expected = _verify_per_step(traj, plan)
    for name in RESIDUALS:
        assert float(getattr(report, name)).hex() == float(expected[name]).hex(), name
    return report


def _without_levers(traj):
    return [(s, {e: replace(c, ell=None) for e, c in cs.items()}) for s, cs in traj]


@pytest.fixture(scope="module")
def shipped_results():
    out = {}
    for name, doc in shipped_scenarios().items():
        plan, refs, settings, weights = materialize(doc)
        out[name] = plan, optimize(plan, refs, settings, weights, keep_force_iterates=True)
    return out


def test_verify_matches_per_step_reference_on_shipped_results(shipped_results):
    for name, (plan, result) in shipped_results.items():
        traj = list(zip(result.states, result.contacts))
        report = _assert_verify_matches_reference(traj, plan)
        assert float(report.dynamics).hex() == float(result.residuals.dynamics).hex(), name
        _assert_verify_matches_reference(_without_levers(traj), plan)
        for iterate, ell, p in result.force_iterates:
            _assert_verify_matches_reference(force_trajectory(iterate, ell, p, plan), plan)


def test_integrate_step_matches_scalar_step(shipped_results):
    plans = [(plan, _without_levers(zip(result.states, result.contacts)))
             for plan, result in shipped_results.values()]
    plan = flat_foot_plan()
    plans += [(plan, flat_foot_replay(plan, lever=False))]
    for plan, traj in plans:
        prev = _initial(plan)
        for t, (state, contacts) in enumerate(traj):
            step = integrate_step(prev, contacts, plan, t=t).stacked()
            assert step.tobytes() == _scalar_step(prev, contacts, plan, t).tobytes()
            prev = state


def test_verify_matches_per_step_reference_with_offsets_and_torques():
    plan = flat_foot_plan()
    for lever in (True, False):
        traj = flat_foot_replay(plan, lever)
        report = _assert_verify_matches_reference(traj, plan)
        assert report.feasible
    # One perturbation per residual family, each of which must register.
    traj = flat_foot_replay(plan, lever=True)
    t = 3
    state, contacts = traj[t]
    c = contacts["FL"]
    R = plan.phase_at(t, "FL").rotation
    perturbed = {
        "dynamics": (replace(state, l=state.l + 1e-3), contacts),
        "friction": (state, {**contacts, "FL": replace(c, f=c.f + R @ [20.0, 0.0, 0.0])}),
        "kinematic": (state, {**contacts, "FL": replace(c, p=c.p + [1.0, 0.0, 0.0])}),
        "surface": (state, {**contacts, "FL": replace(c, p=c.p + [0.0, 0.0, 1e-2])}),
        "zmp": (state, {**contacts, "FL": replace(c, z=[0.2, 0.0])}),
        "lever_consistency": (state, {**contacts, "FL": replace(c, ell=c.ell + 1e-2)}),
    }
    for family, step in perturbed.items():
        report = _assert_verify_matches_reference(traj[:t] + [step] + traj[t + 1:], plan)
        assert getattr(report, family) > 1e-3, family


def test_verify_mismatch_messages():
    plan = hover_plan(N=3)
    with pytest.raises(ValueError, match=r"^trajectory length 0 != plan horizon 3$"):
        verify_trajectory([], plan)
    bad = [(_initial(plan), {}) for _ in range(3)]
    with pytest.raises(ValueError, match=r"^timestep 0: trajectory contacts \[\] do not match "
                                         r"plan activity \['FL', 'FR', 'HL', 'HR'\]$"):
        verify_trajectory(bad, plan)


def test_inside_hint_skips_the_emptiness_lp(monkeypatch):
    calls = []
    is_empty = Polytope.is_empty
    monkeypatch.setattr(Polytope, "is_empty", lambda self: calls.append(1) or is_empty(self))
    surf = flat_patch(0, 0)
    ContactPhase("F", 0, 5, surf, foothold_hint=(0.1, 0.0, 0.0))
    assert calls == []
    ContactPhase("F", 0, 5, surf)
    assert len(calls) == 1
    # A hint outside the surface proves nothing; an empty surface still
    # reports "empty" before the hint is blamed.
    empty = Polytope(np.array([[1.0, 0, 0], [-1.0, 0, 0]]), np.array([-1.0, -1.0]))
    with pytest.raises(ValueError, match="empty"):
        ContactPhase("F", 0, 5, empty, foothold_hint=(0.0, 0.0, 0.0))
    assert len(calls) == 2


@pytest.mark.parametrize("form", ["mapping", "state objects"])
@pytest.mark.parametrize("field", ["ell_fixed", "f_fixed", "h_reg", "references"])
def test_inputs_other_than_arrays_are_rejected_naming_the_field(field, form):
    # QP inputs and references are arrays; a (t, effector) mapping or a
    # sequence of CentroidalState objects is an error that names the field.
    plan = hover_plan(N=3)
    refs = hover_references(plan)
    zeros = np.zeros((len(plan.active_pairs()), 3))
    bad = ({pair: np.zeros(3) for pair in plan.active_pairs()} if form == "mapping"
           else tuple(CentroidalState.from_stacked(h) for h in refs))
    build = {
        "ell_fixed": lambda: ForceQpInputs(plan=plan, ell_fixed=bad, p_fixed=zeros,
                                           references=refs),
        "f_fixed": lambda: ContactQpInputs(plan=plan, f_fixed=bad, h_reg=refs,
                                           references=refs),
        "h_reg": lambda: ContactQpInputs(plan=plan, f_fixed=zeros, h_reg=bad, references=refs),
        "references": lambda: optimize(plan, bad),
    }[field]
    with pytest.raises(ValueError, match=f"^{field} must be an array of numbers, got "):
        build()
