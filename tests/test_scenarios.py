import dataclasses
import json
import math

import numpy as np
import pytest
import yaml
from conftest import WRONG_TYPE_BLOCKS

from centroidal_bcd.bcd import BcdSettings, optimize
from centroidal_bcd.model import CentroidalState, Polytope
from centroidal_bcd.gaits import (
    GAIT_KINDS,
    make_gait,
    pitch_reference_to_momentum,
    shipped_scenarios,
)
from centroidal_bcd.scenarios import (
    ScenarioError,
    ScenarioFile,
    emit_scenario,
    materialize,
    parse_scenario,
)

MINIMAL_HOVER = """
schema_version: 1
name: minimal-hover
robot:
  mass: 2.5
  nominal_offsets:
    FL: [0.19, 0.11, -0.22]
    FR: [0.19, -0.11, -0.22]
    HL: [-0.19, 0.11, -0.22]
    HR: [-0.19, -0.11, -0.22]
  L_max: 0.35
horizon: {N: 12}
initial_state: {r: [0.0, 0.0, 0.22], l: [0.0, 0.0, 0.0], k: [0.0, 0.0, 0.0]}
contacts:
  - effector: FL
    window: [0, 12]
    surface: {vertices: [[0.09, 0.01, 0.0], [0.29, 0.01, 0.0], [0.29, 0.21, 0.0], [0.09, 0.21, 0.0]]}
  - effector: FR
    window: [0, 12]
    surface: {vertices: [[0.09, -0.21, 0.0], [0.29, -0.21, 0.0], [0.29, -0.01, 0.0], [0.09, -0.01, 0.0]]}
  - effector: HL
    window: [0, 12]
    surface: {vertices: [[-0.29, 0.01, 0.0], [-0.09, 0.01, 0.0], [-0.09, 0.21, 0.0], [-0.29, 0.21, 0.0]]}
  - effector: HR
    window: [0, 12]
    surface: {vertices: [[-0.29, -0.21, 0.0], [-0.09, -0.21, 0.0], [-0.09, -0.01, 0.0], [-0.29, -0.01, 0.0]]}
references:
  com_waypoints: [[0, 0.0, 0.0, 0.22], [11, 0.0, 0.0, 0.22]]
"""


def test_minimal_hover_document_loads():
    plan, refs, settings, weights = materialize(parse_scenario(MINIMAL_HOVER.encode()))
    assert len(plan.effector_ids) == 4
    assert plan.horizon == 12
    assert plan.dt == 0.01  # default timestep
    assert len(plan.phases) == 4
    for ph in plan.phases:
        assert (ph.t_start, ph.t_end) == (0, 12)
    assert len(refs) == 12
    assert np.allclose(refs[5, 0:3], [0, 0, 0.22])


def test_inverted_window_rejected():
    bad = MINIMAL_HOVER.replace("window: [0, 12]", "window: [5, 3]", 1)
    with pytest.raises(ScenarioError, match="window"):
        materialize(parse_scenario(bad.encode()))


def test_undeclared_effector_rejected():
    bad = MINIMAL_HOVER.replace("- effector: FL", "- effector: XX", 1)
    with pytest.raises(ScenarioError, match="undeclared"):
        materialize(parse_scenario(bad.encode()))


def test_schema_version_and_missing_fields():
    with pytest.raises(ScenarioError, match="schema_version"):
        parse_scenario(b"schema_version: 99\nname: x\n")
    with pytest.raises(ScenarioError, match="missing required"):
        parse_scenario(b"schema_version: 1\nname: x\n")
    with pytest.raises(ScenarioError, match="YAML"):
        parse_scenario(b"{unbalanced")


@pytest.mark.parametrize("block, value, expected", WRONG_TYPE_BLOCKS)
def test_a_block_of_the_wrong_type_is_named(block, value, expected):
    # Each used to end in a TypeError or ValueError naming no field, and a
    # mapping of contacts was read as the list of its keys.
    doc = make_gait("stand", N=20).to_mapping()
    doc[block] = value
    with pytest.raises(ScenarioError, match=f"^{block}: expected a {expected}, got "):
        parse_scenario(json.dumps(doc))


def test_round_trip_all_shipped_scenarios():
    for name, sf in shipped_scenarios().items():
        assert parse_scenario(emit_scenario(sf)) == sf, name


@pytest.mark.parametrize("kind", GAIT_KINDS)
def test_yaml_documents_read_as_pyyaml_reads_them(kind):
    # Text that is not JSON goes to PyYAML's loader (libyaml's when built).
    sf = make_gait(kind)
    text = yaml.safe_dump(sf.to_mapping(), sort_keys=False)
    with pytest.raises(json.JSONDecodeError):
        json.loads(text)
    assert parse_scenario(text) == ScenarioFile.from_mapping(yaml.safe_load(text)) == sf


@pytest.mark.parametrize("kind", GAIT_KINDS)
def test_the_gait_block_regenerates_its_document(kind):
    # bench regenerates a document from its gait block at other horizons.
    for N in (None, 100):
        doc = make_gait(kind) if N is None else make_gait(kind, N=N)
        again = make_gait(kind, N=doc.horizon["N"], **doc.gait["params"])
        assert emit_scenario(again) == emit_scenario(doc), (kind, N)


@pytest.mark.parametrize("kind", GAIT_KINDS)
def test_emitted_documents_are_json_in_schema_order(kind):
    sf = make_gait(kind)
    doc = json.loads(emit_scenario(sf))
    assert doc == sf.to_mapping()
    assert list(doc) == list(sf.to_mapping())
    assert parse_scenario(emit_scenario(sf)) == sf


def test_a_float_written_without_a_dot_round_trips():
    # YAML 1.1 resolvers read 1e-05 as a string; the JSON reader does not.
    sf = ScenarioFile.from_mapping({**make_gait("stand", N=20).to_mapping(),
                                    "weights": {"force": 1e-05}})
    blob = emit_scenario(sf)
    assert b'"force": 1e-05' in blob
    back = parse_scenario(blob)
    assert back == sf
    assert back.weights["force"] == 1e-05


def test_malformed_yaml_is_a_scenario_error():
    for text in (b"{unbalanced", b"a: [1, 2\nb: 3", b"key: value\n  bad indent: 1\n"):
        with pytest.raises(ScenarioError, match="YAML"):
            parse_scenario(text)
    with pytest.raises(ScenarioError, match="UTF-8"):
        parse_scenario(b"name: \x80\n")


def _stand_with(**changes):
    """The mapping of a short stand scenario with ``changes`` applied, each
    keyed by a dotted path of mappings."""
    doc = make_gait("stand", N=20).to_mapping()
    doc = json.loads(json.dumps(doc))  # a deep copy
    for path, value in changes.items():
        *parents, leaf = path.split(".")
        node = doc
        for key in parents:
            node = node[key]
        node[leaf] = value
    return doc


@pytest.mark.parametrize("field, value", [
    ("robot.mass", math.nan),
    ("robot.mass", -1.0),
    ("robot.mass", "heavy"),
    ("robot.L_max", math.inf),
    ("horizon.dt", math.inf),
    ("horizon.dt", 0.0),
    ("horizon.N", math.nan),
    ("initial_state.r", [0.0, math.nan, 0.22]),
    ("gravity", [0.0, 0.0, -math.inf]),
    ("weights", {"force": math.nan}),
    ("bcd", {"solver": {"eps_abs": math.inf}}),
    ("weights", {"tracking": [1.0, math.nan, 1.0]}),
    ("bcd", {"alpha": math.nan}),
])
def test_non_finite_and_out_of_range_values_name_their_field(field, value):
    doc = _stand_with(**{field: value})
    for text in (emit_scenario(ScenarioFile.from_mapping(doc)),
                 yaml.safe_dump(doc, sort_keys=False).encode()):
        with pytest.raises(ScenarioError) as info:
            materialize(parse_scenario(text))
        assert info.value.path.startswith(field), (field, info.value.path)


def test_non_finite_waypoints_and_contact_values_name_their_field():
    doc = _stand_with()
    doc["references"]["com_waypoints"][1][2] = math.inf
    with pytest.raises(ScenarioError) as info:
        materialize(ScenarioFile.from_mapping(doc))
    assert info.value.path == "references.com_waypoints[1]"
    doc = _stand_with()
    doc["contacts"][2]["friction"] = math.nan
    with pytest.raises(ScenarioError) as info:
        materialize(ScenarioFile.from_mapping(doc))
    assert info.value.path == "contacts[2].friction"
    doc = _stand_with()
    doc["contacts"][0]["window"] = [0, "end"]
    with pytest.raises(ScenarioError) as info:
        materialize(ScenarioFile.from_mapping(doc))
    assert info.value.path == "contacts[0].window"


def test_an_overflowing_pitch_profile_is_a_reference_error():
    sf = make_gait("bound")
    pitch = {**sf.references["pitch_profile"], "inertia_scale": 1e308}
    sf = dataclasses.replace(sf, references={**sf.references, "pitch_profile": pitch})
    with np.errstate(over="ignore"), pytest.raises(ScenarioError) as info:
        materialize(sf)
    assert info.value.path == "references"


def test_materialize_builds_no_per_timestep_state_objects(monkeypatch):
    # The references go to the builders as one read-only (N, 9) array and
    # the initial state is a 9-vector: a scenario builds no state object.
    built = []
    real_post_init = CentroidalState.__post_init__

    def counting_post_init(self):
        built.append(self)
        real_post_init(self)

    monkeypatch.setattr(CentroidalState, "__post_init__", counting_post_init)
    for name, sf in shipped_scenarios().items():
        built.clear()
        plan, refs, _, _ = materialize(sf)
        assert built == [], name
        assert plan.h0.shape == (9,) and not plan.h0.flags.writeable, name
        assert refs.shape == (plan.horizon, 9) and not refs.flags.writeable, name


def test_hinted_phases_need_no_emptiness_lp(monkeypatch):
    calls = []
    monkeypatch.setattr(Polytope, "is_empty", lambda self: calls.append(self) or False)
    for sf in shipped_scenarios().values():
        materialize(sf)
    assert calls == []


def test_shipped_suite_covers_required_kinds():
    names = set(shipped_scenarios())
    assert names == set(GAIT_KINDS)
    assert {"stand", "walk", "trot", "bound", "stairs_up", "stairs_down",
            "incline_stones", "jump_in_place", "jump_forward", "jump_twist"} <= names


def test_stand_has_one_full_phase_per_effector():
    plan, *_ = materialize(make_gait("stand", N=40))
    assert len(plan.phases) == 4
    for ph in plan.phases:
        assert (ph.t_start, ph.t_end) == (0, 40)


def test_bound_alternates_front_and_hind_pairs_every_quarter_second():
    # Front/hind stance blocks switch every 0.25 s (25 steps at dt = 0.01).
    plan, *_ = materialize(make_gait("bound", N=300))
    lead = 12
    front = {"FL", "FR"}
    hind = {"HL", "HR"}
    for t in range(lead, 280):
        active = {ph.end_effector_id for ph in plan.active_contacts(t)}
        slot = (t - lead) // 25 % 2
        expected = front if slot == 0 else hind
        assert active == expected, (t, active)


def test_trot_alternates_diagonal_pairs():
    plan, *_ = materialize(make_gait("trot", N=120))
    for t in range(12, 110):
        active = {ph.end_effector_id for ph in plan.active_contacts(t)}
        assert active in ({"FL", "HR"}, {"FR", "HL"})


def test_walk_keeps_at_least_two_contacts():
    plan, *_ = materialize(make_gait("walk", N=160))
    for t in range(plan.horizon):
        assert len(plan.active_contacts(t)) >= 2


def test_stairs_heights_are_in_the_published_band():
    sf = make_gait("stairs_up")
    step = sf.gait["params"]["step_height"]
    com_height = sf.initial_state["r"][2]
    assert 0.125 <= step / com_height <= 0.35
    plan, *_ = materialize(sf)
    hints = sorted({round(float(ph.foothold_hint[2]), 4) for ph in plan.phases})
    assert len(hints) > 1  # footholds actually climb
    assert all(h >= 0 for h in hints)


def test_stairs_down_descends():
    plan, *_ = materialize(make_gait("stairs_down"))
    hints = [float(ph.foothold_hint[2]) for ph in plan.phases]
    assert min(hints) < 0.0


def test_incline_rotations_are_orthonormal_and_bounded():
    plan, *_ = materialize(make_gait("incline_stones"))
    angles = []
    for ph in plan.phases:
        R = ph.rotation
        assert np.allclose(R.T @ R, np.eye(3), atol=1e-10)
        angles.append(np.degrees(np.arccos(np.clip(R[2, 2], -1, 1))))
    assert max(angles) <= 30.0 + 1e-9
    assert max(angles) > 5.0


def test_jump_has_flight_phase_with_ballistic_momentum():
    sf = make_gait("jump_in_place", flight_time=0.3)
    plan, refs, settings, weights = materialize(sf)
    flight = [t for t in range(plan.horizon) if not plan.active_contacts(t)]
    assert len(flight) == 30
    res = optimize(plan, refs, settings, weights)
    assert res.converged and res.residuals.feasible
    m, g, dt = plan.mass, plan.gravity[2], plan.dt
    for t in flight[1:]:
        dl = res.states[t].l - res.states[t - 1].l
        assert dl[2] == pytest.approx(m * g * dt, abs=1e-9)  # ballistic oracle
        assert np.allclose(res.states[t].k, res.states[t - 1].k, atol=1e-9)


def test_stride_exceeding_reach_rejected():
    with pytest.raises(ValueError, match="stride"):
        make_gait("walk", stride=2.0)


def test_unknown_gait_kind_rejected():
    with pytest.raises(ValueError, match="unknown gait"):
        make_gait("gallop")


def test_pitch_reference_constant_profile_is_zero():
    assert np.allclose(pitch_reference_to_momentum(np.full(50, 0.3), 1.0, 0.01), 0.0)


def test_pitch_reference_ramp_gives_constant_rate():
    # 0 -> 0.26 rad over 1 s at dt = 0.01.
    pitch = np.linspace(0.0, 0.26, 101)
    k_y = pitch_reference_to_momentum(pitch, 1.0, 0.01)
    assert np.allclose(k_y, 0.26, atol=1e-12)


def test_pitch_reference_sinusoid_leads_by_quarter_period():
    dt = 0.01
    t = np.arange(200) * dt
    period = 0.5
    omega = 2 * np.pi / period
    amp = np.deg2rad(15)
    pitch = amp * np.sin(omega * t)
    k_y = pitch_reference_to_momentum(pitch, 1.0, dt)
    # Exact forward-difference identity: the output is a cosine, i.e. a
    # quarter-period phase lead over the pitch profile.
    expected = amp * (2 / dt) * np.sin(omega * dt / 2) * np.cos(omega * (t + dt / 2))
    assert np.max(np.abs(k_y[:-1] - expected[:-1])) < 1e-12


def test_weight_and_bcd_overrides_flow_through():
    sf = make_gait("stand", N=20)
    sf2 = ScenarioFile.from_mapping({**sf.to_mapping(),
                                     "weights": {"force": 1e-7},
                                     "bcd": {"eps_f": 1e-9,
                                             "solver": {"eps_abs": 1e-8}}})
    plan, refs, settings, weights = materialize(sf2)
    assert weights.force == 1e-7
    assert settings.eps_f == 1e-9
    assert settings.solver.eps_abs == 1e-8
    with pytest.raises(ScenarioError, match="weights"):
        materialize(ScenarioFile.from_mapping({**sf.to_mapping(),
                                               "weights": {"bogus": 1.0}}))


@pytest.mark.parametrize("solver", [{"polish": False}, {"check_termination_every": 10}])
def test_removed_solver_settings_are_rejected(solver):
    # The solver exposes only eps_abs, eps_rel and max_iterations.
    sf = make_gait("stand", N=20)
    doc = {**sf.to_mapping(), "bcd": {"solver": solver}}
    with pytest.raises(ScenarioError) as info:
        materialize(ScenarioFile.from_mapping(doc))
    assert info.value.path == "bcd"
