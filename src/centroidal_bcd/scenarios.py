"""Scenario documents: the on-disk description of one optimization problem.

A scenario is a document (``schema_version: 1``) describing the robot,
horizon, contact phases, tracking references, and optional weight/solver
overrides, all in SI units. ``emit_scenario`` writes it as indented JSON;
``parse_scenario`` reads JSON, and falls back to PyYAML for text that is not
JSON, so hand-written YAML documents keep working. ``parse(emit(x)) == x``
structurally. ``materialize`` validates a parsed document and builds the
in-memory problem; numbers the problem cannot use (non-finite values,
non-positive masses or timesteps) are rejected there with the field's path,
or in the ``weights`` and ``bcd`` blocks with the block's path and the
field's name.

Surfaces may be given as convex polygon vertices (converted to halfspaces
here) or as halfspaces directly. References are waypoint lists interpolated
piecewise-linearly over the horizon; a bound-style pitch profile can be
attached instead of explicit angular momentum waypoints.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .bcd import BcdSettings
from .force_qp import CostWeights
from .model import ContactPhase, ContactPlan, Polytope, polygon_to_halfspaces, state_array
from .qp.problem import SolverSettings

__all__ = [
    "SCHEMA_VERSION",
    "ScenarioError",
    "ScenarioFile",
    "parse_scenario",
    "emit_scenario",
    "build_plan",
    "materialize",
]

SCHEMA_VERSION = 1

class ScenarioError(ValueError):
    """Scenario document rejected; message carries the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class ScenarioFile:
    """Plain-data document model (shapes mirror the document schema).

    Numeric content is kept as lists/floats so that parse(emit(x)) == x
    structurally; numerical types only appear after materialization.
    """

    name: str
    robot: dict
    horizon: dict
    initial_state: dict
    contacts: list
    references: dict
    schema_version: int = SCHEMA_VERSION
    gravity: list = field(default_factory=lambda: [0.0, 0.0, -9.81])
    weights: dict = field(default_factory=dict)
    bcd: dict = field(default_factory=dict)
    gait: dict | None = None

    def to_mapping(self) -> dict:
        doc = {
            "schema_version": self.schema_version,
            "name": self.name,
            "robot": self.robot,
            "horizon": self.horizon,
            "initial_state": self.initial_state,
            "gravity": self.gravity,
            "contacts": self.contacts,
            "references": self.references,
        }
        if self.weights:
            doc["weights"] = self.weights
        if self.bcd:
            doc["bcd"] = self.bcd
        if self.gait is not None:
            doc["gait"] = self.gait
        return doc

    @staticmethod
    def from_mapping(doc: Mapping) -> "ScenarioFile":
        if not isinstance(doc, Mapping):
            raise ScenarioError("$", "document must be a mapping")
        version = doc.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ScenarioError("schema_version", f"expected {SCHEMA_VERSION}, got {version!r}")
        for key in ("name", "robot", "horizon", "initial_state", "contacts", "references"):
            if key not in doc:
                raise ScenarioError(key, "missing required field")
        return ScenarioFile(
            name=doc["name"],
            robot=_mapping(doc["robot"], "robot"),
            horizon=_mapping(doc["horizon"], "horizon"),
            initial_state=_mapping(doc["initial_state"], "initial_state"),
            contacts=list(_list(doc["contacts"], "contacts")),
            references=_mapping(doc["references"], "references"),
            gravity=list(_list(doc.get("gravity", [0.0, 0.0, -9.81]), "gravity")),
            weights=_mapping(doc.get("weights", {}), "weights"),
            bcd=_mapping(doc.get("bcd", {}), "bcd"),
            gait=_mapping(doc["gait"], "gait") if doc.get("gait") is not None else None,
        )


def _number(value, path: str) -> float:
    """``value`` as a finite float; anything else is a ScenarioError at ``path``."""
    try:
        v = float(value)
    except (TypeError, ValueError):
        raise ScenarioError(path, f"expected a number, got {value!r}") from None
    if not math.isfinite(v):
        raise ScenarioError(path, f"must be finite, got {value!r}")
    return v


def _positive(value, path: str) -> float:
    v = _number(value, path)
    if v <= 0.0:
        raise ScenarioError(path, f"must be positive, got {value!r}")
    return v


def _integer(value, path: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ScenarioError(path, f"expected an integer, got {value!r}") from None


def _numbers(values, path: str, size: int) -> list[float]:
    """``values`` as a list of ``size`` finite floats."""
    try:
        v = [_number(x, path) for x in values]
    except TypeError:  # not iterable; _number handles its own
        raise ScenarioError(path, f"expected {size} numbers") from None
    if len(v) != size:
        raise ScenarioError(path, f"expected {size} components, got {len(v)}")
    return v


def _list(value, path: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ScenarioError(path, f"expected a list, got {type(value).__name__}")
    return value


def _mapping(value, path: str) -> dict:
    if not isinstance(value, Mapping):
        raise ScenarioError(path, f"expected a mapping, got {type(value).__name__}")
    return dict(value)


def _vec(doc, path, size=3):
    return np.array(_numbers(doc, path, size))


def _surface(spec, path) -> Polytope:
    if not isinstance(spec, Mapping):
        raise ScenarioError(path, "surface must carry 'vertices' or 'halfspaces'")
    if "vertices" in spec:
        verts = [tuple(_numbers(v, f"{path}.vertices[{i}]", 3))
                 for i, v in enumerate(_list(spec["vertices"], path + ".vertices"))]
        try:
            return polygon_to_halfspaces(verts)
        except ValueError as exc:
            raise ScenarioError(path + ".vertices", str(exc)) from None
    if "halfspaces" in spec:
        hs = spec["halfspaces"]
        try:
            return Polytope(np.array(hs["A"], dtype=float), np.array(hs["b"], dtype=float))
        except (KeyError, TypeError, ValueError) as exc:
            raise ScenarioError(path + ".halfspaces", str(exc)) from None
    raise ScenarioError(path, "surface must carry 'vertices' or 'halfspaces'")


def _interpolate_waypoints(waypoints, N: int, dim: int, path: str) -> np.ndarray:
    """Piecewise-linear interpolation of [t, v...] rows onto timesteps 0..N-1."""
    if not waypoints:
        raise ScenarioError(path, "at least one waypoint required")
    rows = [_numbers(wp, f"{path}[{i}]", dim + 1)
            for i, wp in enumerate(_list(waypoints, path))]
    rows.sort(key=lambda r: r[0])
    ts = np.array([r[0] for r in rows])
    vals = np.array([r[1:] for r in rows])
    out = np.empty((N, dim))
    for j in range(dim):
        out[:, j] = np.interp(np.arange(N), ts, vals[:, j])
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
    t0, t1 = (_integer(t, f"{path}.window") for t in window)
    if not (0 <= t0 < t1 <= N):
        raise ScenarioError(f"{path}.window",
                            f"[{t0}, {t1}) must be non-empty and within [0, {N})")
    zmp = None
    if c.get("flat_foot", False):
        zb = c.get("zmp_bounds")
        if not isinstance(zb, Mapping) or "min" not in zb or "max" not in zb:
            raise ScenarioError(f"{path}.zmp_bounds",
                                "flat-foot phases need {min: [x, y], max: [x, y]}")
        lo = _numbers(zb["min"], f"{path}.zmp_bounds.min", 2)
        hi = _numbers(zb["max"], f"{path}.zmp_bounds.max", 2)
        zmp = ((lo[0], hi[0]), (lo[1], hi[1]))
    rotation = np.eye(3)
    if "rotation" in c:
        try:
            rotation = np.array(c["rotation"], dtype=float)
        except (TypeError, ValueError):
            raise ScenarioError(f"{path}.rotation", "expected a 3x3 matrix") from None
        if not np.all(np.isfinite(rotation)):
            raise ScenarioError(f"{path}.rotation", "must be finite")
    surface = _surface(c.get("surface"), f"{path}.surface")
    friction = _positive(c.get("friction", 0.7), f"{path}.friction")
    hint = _vec(c["foothold_hint"], f"{path}.foothold_hint") if "foothold_hint" in c else None
    try:
        return ContactPhase(
            end_effector_id=eff, t_start=t0, t_end=t1, surface=surface, rotation=rotation,
            friction_coeff=friction, flat_foot=bool(c.get("flat_foot", False)),
            zmp_bounds=zmp, foothold_hint=hint)
    except ValueError as exc:
        raise ScenarioError(path, str(exc)) from None


def build_plan(sf: ScenarioFile) -> ContactPlan:
    """The contact plan of a validated document: robot, horizon, initial
    state and contact phases, without the references, weights or solver
    settings."""
    robot = sf.robot
    for key in ("mass", "nominal_offsets", "L_max"):
        if key not in robot:
            raise ScenarioError(f"robot.{key}", "missing required field")
    mass = _positive(robot["mass"], "robot.mass")
    L_max = _positive(robot["L_max"], "robot.L_max")
    if not isinstance(robot["nominal_offsets"], Mapping):
        raise ScenarioError("robot.nominal_offsets", "expected a mapping of effector offsets")
    offsets = {str(e): _vec(v, f"robot.nominal_offsets.{e}")
               for e, v in robot["nominal_offsets"].items()}
    effector_ids = tuple(offsets.keys())

    N = _integer(sf.horizon.get("N", 0), "horizon.N")
    if N < 1:
        raise ScenarioError("horizon.N", f"must be >= 1, got {N}")
    dt = _positive(sf.horizon.get("dt", 0.01), "horizon.dt")

    h0 = np.concatenate([_vec(sf.initial_state.get(x, [0, 0, 0]), f"initial_state.{x}")
                         for x in "rlk"])

    gravity = _vec(sf.gravity, "gravity")
    phases = tuple(_phase(c, f"contacts[{i}]", offsets, N)
                   for i, c in enumerate(sf.contacts))
    # What is left to fail is how the phases fit the effectors and each other.
    try:
        return ContactPlan(
            effector_ids=effector_ids, phases=phases, horizon=N, dt=dt,
            mass=mass, h0=h0, kinematic_limit=L_max, nominal_offsets=offsets,
            gravity=gravity)
    except ValueError as exc:
        raise ScenarioError("contacts", str(exc)) from None


def materialize(sf: ScenarioFile) -> tuple[ContactPlan, np.ndarray, BcdSettings, CostWeights]:
    """Turn a validated document into the numerical problem description;
    the references are a read-only (N, 9) state array."""
    plan = build_plan(sf)
    N, dt = plan.horizon, plan.dt
    refs = sf.references
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
        from .gaits import pitch_reference_to_momentum

        pp = refs["pitch_profile"]
        path = "references.pitch_profile"
        if not isinstance(pp, Mapping):
            raise ScenarioError(path, "expected a mapping")
        amplitude = np.deg2rad(_number(pp.get("amplitude_deg", 15.0), f"{path}.amplitude_deg"))
        period = _positive(pp.get("period_s", 0.5), f"{path}.period_s")
        scale = _number(pp.get("inertia_scale", 0.05), f"{path}.inertia_scale")
        t_axis = np.arange(N) * dt
        pitch = amplitude * np.sin(2.0 * np.pi * t_axis / period)
        h[:, 7] += pitch_reference_to_momentum(pitch, scale, dt)
    try:
        h = state_array(h, N, "references")
    except ValueError as exc:
        raise ScenarioError("references", str(exc)) from None

    try:
        weights = CostWeights(**sf.weights) if sf.weights else CostWeights()
    except (TypeError, ValueError) as exc:
        raise ScenarioError("weights", str(exc)) from None
    bcd_doc = dict(sf.bcd)
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


def parse_scenario(text: bytes | str) -> ScenarioFile:
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
    return ScenarioFile.from_mapping(doc)


def emit_scenario(sf: ScenarioFile) -> bytes:
    """The document as indented JSON, keys in schema order. Floats are
    written as ``repr`` writes them, so ``parse_scenario`` gives ``sf`` back.
    The text is YAML 1.2 too, but not always YAML 1.1: PyYAML reads a float
    written without a '.' (1e-05) as a string, so read emitted files with
    ``parse_scenario``, which takes them as JSON."""
    return (json.dumps(sf.to_mapping(), indent=2) + "\n").encode("utf-8")
