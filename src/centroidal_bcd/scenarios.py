"""Scenario documents: the on-disk description of one optimization problem.

A scenario is a document (``schema_version: 1``) describing the robot,
horizon, contact phases, tracking references, and optional weight/solver
overrides, all in SI units. In memory a document is a plain mapping, the
dict that JSON reads, and every function here takes and returns that form.
``emit_scenario`` writes it as indented JSON; ``parse_scenario`` reads JSON,
and falls back to PyYAML for text that is not JSON, so hand-written YAML
documents keep working. ``parse(emit(x)) == x``. ``parse_scenario`` and
``build_plan`` check a document's top level (its version, required keys, a
string name and the type of each block); ``materialize`` builds the
in-memory problem and checks what the blocks hold: a value the problem
cannot use (text or a boolean for a number, a count that is no integer, a
non-finite value, a non-positive mass or timestep) is rejected there, by the
rules of ``model``, with the field's path, or in the ``weights`` and ``bcd``
blocks with the block's path and the field's name.

Surfaces may be given as convex polygon vertices (converted to halfspaces
here) or as halfspaces directly. References are waypoint lists interpolated
piecewise-linearly over the horizon; a bound-style pitch profile can be
attached instead of explicit angular momentum waypoints.
"""

from __future__ import annotations

import json
from typing import Mapping

import numpy as np

from .bcd import BcdSettings
from .model import ContactPhase, ContactPlan, Polytope, _array, _flag, _integer, _positive, \
    _real, polygon_to_halfspaces, state_array
from .qp.problem import SolverSettings
from .structure import CostWeights

__all__ = [
    "SCHEMA_VERSION",
    "ScenarioError",
    "parse_scenario",
    "emit_scenario",
    "build_plan",
    "materialize",
    "pitch_reference_to_momentum",
]

SCHEMA_VERSION = 1

class ScenarioError(ValueError):
    """Scenario document rejected; message carries the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


# The top-level keys of a document in the order ``emit_scenario`` writes them.
_KEYS = ("schema_version", "name", "robot", "horizon", "initial_state", "gravity",
         "contacts", "references", "weights", "bcd", "gait")
_REQUIRED = ("name", "robot", "horizon", "initial_state", "contacts", "references")
_GRAVITY = (0.0, 0.0, -9.81)
# The optional blocks and the value that leaves each out of an emitted document.
_OMITTED = {"weights": {}, "bcd": {}, "gait": None}


def _document(doc) -> dict:
    """``doc`` if its top level is a document of this schema: a mapping with
    an integer ``schema_version`` of 1, every required key, a string
    ``name``, and each block a mapping or list as the schema has it (a
    ``gait`` may be null). What the blocks hold is checked as it is read."""
    if not isinstance(doc, Mapping):
        raise ScenarioError("$", "document must be a mapping")
    version = _field(_integer, doc.get("schema_version"), "schema_version", 1)
    if version != SCHEMA_VERSION:
        raise ScenarioError("schema_version", f"expected {SCHEMA_VERSION}, got {version!r}")
    for key in _REQUIRED:
        if key not in doc:
            raise ScenarioError(key, "missing required field")
    if not isinstance(doc["name"], str):
        raise ScenarioError("name", f"expected a string, got {type(doc['name']).__name__}")
    for key in ("robot", "horizon", "initial_state"):
        _mapping(doc[key], key)
    _list(doc["contacts"], "contacts")
    _mapping(doc["references"], "references")
    _list(doc.get("gravity", _GRAVITY), "gravity")
    for key in ("weights", "bcd"):
        _mapping(doc.get(key, {}), key)
    if doc.get("gait") is not None:
        _mapping(doc["gait"], "gait")
    return doc


def _field(rule, value, path: str, *args):
    """``rule(value, path, *args)``, one of the rules of ``model``; the
    ValueError it raises is a ScenarioError at ``path``."""
    try:
        return rule(value, path, *args)
    except ValueError as exc:
        raise ScenarioError(path, str(exc).removeprefix(f"{path} ")) from None


def _list(value, path: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ScenarioError(path, f"expected a list, got {type(value).__name__}")
    return value


def _mapping(value, path: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise ScenarioError(path, f"expected a mapping, got {type(value).__name__}")
    return value


def _surface(spec, path) -> Polytope:
    if not isinstance(spec, Mapping):
        raise ScenarioError(path, "surface must carry 'vertices' or 'halfspaces'")
    if "vertices" in spec:
        verts = [_field(_array, v, f"{path}.vertices[{i}]", (3,))
                 for i, v in enumerate(_list(spec["vertices"], path + ".vertices"))]
        try:
            return polygon_to_halfspaces(verts)
        except ValueError as exc:
            raise ScenarioError(path + ".vertices", str(exc)) from None
    if "halfspaces" in spec:
        hs, path = spec["halfspaces"], path + ".halfspaces"
        if not isinstance(hs, Mapping) or "A" not in hs or "b" not in hs:
            raise ScenarioError(path, "expected a mapping with 'A' and 'b'")
        A = _field(_array, hs["A"], f"{path}.A", (None, 3))
        return Polytope(A, _field(_array, hs["b"], f"{path}.b", (A.shape[0],)))
    raise ScenarioError(path, "surface must carry 'vertices' or 'halfspaces'")


def _interpolate_waypoints(waypoints, N: int, dim: int, path: str) -> np.ndarray:
    """Piecewise-linear interpolation of [t, v...] rows onto timesteps 0..N-1;
    two rows at one timestep would make the reference depend on their order."""
    if not waypoints:
        raise ScenarioError(path, "at least one waypoint required")
    _list(waypoints, path)
    try:  # all rows at once; a failure is checked row by row, to name the row
        rows = _array(waypoints, path, (None, dim + 1))
    except ValueError:
        rows = np.array([_field(_array, wp, f"{path}[{i}]", (dim + 1,))
                         for i, wp in enumerate(waypoints)])
    # A stable sort keeps the rows of one timestep in document order: each
    # row after the first of its timestep repeats it.
    order = np.argsort(rows[:, 0], kind="stable")
    t = rows[order, 0]
    repeats = order[1:][t[1:] == t[:-1]]
    if repeats.size:
        i = repeats.min()
        raise ScenarioError(f"{path}[{i}]",
                            f"repeats the timestep {rows[i, 0]:g} of an earlier row")
    rows = rows[order]
    out = np.empty((N, dim))
    for j in range(dim):
        out[:, j] = np.interp(np.arange(N), rows[:, 0], rows[:, j + 1])
    return out


def _phase(c, path: str, offsets: Mapping, N: int) -> ContactPhase:
    """The contact phase of document entry ``c`` (at ``path``), for the
    effectors of ``offsets`` on a horizon of ``N`` steps."""
    if not isinstance(c, Mapping) or "effector" not in c or "window" not in c:
        raise ScenarioError(path, "needs 'effector' and 'window'")
    eff = str(c["effector"])
    if eff not in offsets:
        raise ScenarioError(f"{path}.effector", f"undeclared effector {eff!r}")
    window = _list(c["window"], f"{path}.window")
    if len(window) != 2:
        raise ScenarioError(f"{path}.window", "expected [t_start, t_end]")
    t0, t1 = (_field(_integer, t, f"{path}.window", 0) for t in window)
    if not (t0 < t1 <= N):
        raise ScenarioError(f"{path}.window",
                            f"[{t0}, {t1}) must be non-empty and within [0, {N})")
    zmp = None
    flat_foot = _field(_flag, c.get("flat_foot", False), f"{path}.flat_foot")
    if flat_foot:
        zb = c.get("zmp_bounds")
        if not isinstance(zb, Mapping) or "min" not in zb or "max" not in zb:
            raise ScenarioError(f"{path}.zmp_bounds",
                                "flat-foot phases need {min: [x, y], max: [x, y]}")
        zmp = np.column_stack([_field(_array, zb[key], f"{path}.zmp_bounds.{key}", (2,))
                               for key in ("min", "max")])
    rotation = np.eye(3)
    if "rotation" in c:
        rotation = _field(_array, c["rotation"], f"{path}.rotation", (3, 3))
    surface = _surface(c.get("surface"), f"{path}.surface")
    friction = _field(_positive, c.get("friction", 0.7), f"{path}.friction")
    hint = None
    if "foothold_hint" in c:
        hint = _field(_array, c["foothold_hint"], f"{path}.foothold_hint", (3,))
    try:
        return ContactPhase(
            end_effector_id=eff, t_start=t0, t_end=t1, surface=surface, rotation=rotation,
            friction_coeff=friction, flat_foot=flat_foot,
            zmp_bounds=zmp, foothold_hint=hint)
    except ValueError as exc:
        raise ScenarioError(path, str(exc)) from None


def build_plan(doc: Mapping) -> ContactPlan:
    """The contact plan of a document: robot, horizon, initial state and
    contact phases, without the references, weights or solver settings."""
    robot = _document(doc)["robot"]
    for key in ("mass", "nominal_offsets", "L_max"):
        if key not in robot:
            raise ScenarioError(f"robot.{key}", "missing required field")
    mass = _field(_positive, robot["mass"], "robot.mass")
    L_max = _field(_positive, robot["L_max"], "robot.L_max")
    if not isinstance(robot["nominal_offsets"], Mapping):
        raise ScenarioError("robot.nominal_offsets", "expected a mapping of effector offsets")
    offsets = {str(e): _field(_array, v, f"robot.nominal_offsets.{e}", (3,))
               for e, v in robot["nominal_offsets"].items()}
    effector_ids = tuple(offsets.keys())

    N = _field(_integer, doc["horizon"].get("N"), "horizon.N", 1)
    dt = _field(_positive, doc["horizon"].get("dt", 0.01), "horizon.dt")

    h0 = np.concatenate([_field(_array, doc["initial_state"].get(x, [0, 0, 0]),
                                f"initial_state.{x}", (3,)) for x in "rlk"])

    gravity = _field(_array, doc.get("gravity", _GRAVITY), "gravity", (3,))
    phases = tuple(_phase(c, f"contacts[{i}]", offsets, N)
                   for i, c in enumerate(doc["contacts"]))
    # What is left to fail is how the phases fit the effectors and each other.
    try:
        return ContactPlan(
            effector_ids=effector_ids, phases=phases, horizon=N, dt=dt,
            mass=mass, h0=h0, kinematic_limit=L_max, nominal_offsets=offsets,
            gravity=gravity)
    except ValueError as exc:
        raise ScenarioError("contacts", str(exc)) from None


def pitch_reference_to_momentum(pitch_profile, inertia_scale: float, dt: float) -> np.ndarray:
    """Angular momentum (pitch axis) reference from a pitch angle profile.

    Forward finite difference scaled by the lumped inertia; the last entry
    repeats so the output length matches the input.
    """
    pitch = _array(pitch_profile, "pitch_profile", (None,))
    if pitch.size < 2:
        return np.zeros(pitch.size)
    k = inertia_scale * np.diff(pitch) / dt
    return np.append(k, k[-1])


def materialize(doc: Mapping) -> tuple[ContactPlan, np.ndarray, BcdSettings, CostWeights]:
    """Turn a document into the numerical problem description; the
    references are a read-only (N, 9) state array."""
    plan = build_plan(doc)
    N, dt = plan.horizon, plan.dt
    refs = doc["references"]
    # The stacked (r, l, k) of every timestep, as the QP builders read it.
    h = np.zeros((N, 9))
    h[:, 0:3] = _interpolate_waypoints(refs.get("com_waypoints"), N, 3, "references.com_waypoints")
    if refs.get("momentum_waypoints"):
        h[:, 3:9] = _interpolate_waypoints(refs["momentum_waypoints"], N, 6,
                                           "references.momentum_waypoints")
    elif N > 1:
        # Default linear momentum from the CoM reference velocity.
        h[:, 3:6] = plan.mass * np.gradient(h[:, 0:3], dt, axis=0)
    if refs.get("pitch_profile"):
        pp = refs["pitch_profile"]
        path = "references.pitch_profile"
        if not isinstance(pp, Mapping):
            raise ScenarioError(path, "expected a mapping")
        amplitude = np.deg2rad(_field(_real, pp.get("amplitude_deg", 15.0),
                                      f"{path}.amplitude_deg"))
        period = _field(_positive, pp.get("period_s", 0.5), f"{path}.period_s")
        scale = _field(_real, pp.get("inertia_scale", 0.05), f"{path}.inertia_scale")
        t_axis = np.arange(N) * dt
        pitch = amplitude * np.sin(2.0 * np.pi * t_axis / period)
        h[:, 7] += pitch_reference_to_momentum(pitch, scale, dt)
    try:
        h = state_array(h, N, "references")
    except ValueError as exc:
        raise ScenarioError("references", str(exc)) from None

    try:
        weights = CostWeights(**doc.get("weights", {}))
    except (TypeError, ValueError) as exc:
        raise ScenarioError("weights", str(exc)) from None
    bcd_doc = dict(doc.get("bcd", {}))
    solver_doc = bcd_doc.pop("solver", {})
    try:
        solver = SolverSettings(**solver_doc) if solver_doc else SolverSettings()
        settings = BcdSettings(solver=solver, **bcd_doc)
    except (TypeError, ValueError) as exc:
        raise ScenarioError("bcd", str(exc)) from None
    return plan, h, settings, weights


def _load_yaml(text: str):
    """PyYAML's safe loader, libyaml's C class when PyYAML was built with it.
    Imported on first use: only documents that are not JSON need it."""
    import yaml

    try:
        return yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        raise ScenarioError("$", f"neither JSON nor valid YAML: {exc}") from None


def parse_scenario(text: bytes | str) -> dict:
    """Read a document: JSON as ``emit_scenario`` writes it, or YAML."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ScenarioError("$", f"not UTF-8 text: {exc}") from None
    try:
        doc = json.loads(text)
    except json.JSONDecodeError:
        doc = _load_yaml(text)
    return _document(doc)


def emit_scenario(doc: Mapping) -> bytes:
    """The document as indented JSON, keys in schema order. A missing
    ``schema_version`` or ``gravity`` is written with its default, empty
    ``weights`` and ``bcd`` and a null ``gait`` are left out, and keys
    outside the schema are dropped. Floats are written as ``repr`` writes
    them, so ``parse_scenario`` gives ``doc`` back.
    The text is YAML 1.2 too, but not always YAML 1.1: PyYAML reads a float
    written without a '.' (1e-05) as a string, so read emitted files with
    ``parse_scenario``, which takes them as JSON."""
    doc = {"schema_version": SCHEMA_VERSION, "gravity": _GRAVITY, **doc}
    written = {key: doc[key] for key in _KEYS
               if key in doc and (key not in _OMITTED or doc[key] != _OMITTED[key])}
    return (json.dumps(written, indent=2) + "\n").encode("utf-8")
