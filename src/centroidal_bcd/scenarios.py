"""Scenario documents: the on-disk description of one optimization problem.

A scenario is a YAML document (``schema_version: 1``) describing the robot,
horizon, contact phases, tracking references, and optional weight/solver
overrides, all in SI units. ``load_scenario`` validates a document and
materializes the in-memory problem; ``emit_scenario`` writes one back out
(round-tripping to structural equality).

Surfaces may be given as convex polygon vertices (converted to halfspaces
here) or as halfspaces directly. References are waypoint lists interpolated
piecewise-linearly over the horizon; a bound-style pitch profile can be
attached instead of explicit angular momentum waypoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np
import yaml

from .bcd import BcdSettings
from .force_qp import CostWeights
from .model import CentroidalState, ContactPhase, ContactPlan, Polytope, \
    polygon_to_halfspaces
from .qp.problem import SolverSettings
from .references import ReferenceSet

__all__ = [
    "SCHEMA_VERSION",
    "ScenarioError",
    "ScenarioFile",
    "load_scenario",
    "parse_scenario",
    "emit_scenario",
    "build_plan",
    "materialize",
]

SCHEMA_VERSION = 1

# libyaml's C loader and dumper when PyYAML was built with it: they read and
# write the same documents as the pure-Python classes, several times faster.
_Loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
_Dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)


class ScenarioError(ValueError):
    """Scenario document rejected; message carries the offending field path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


@dataclass(frozen=True)
class ScenarioFile:
    """Plain-data document model (shapes mirror the YAML schema).

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
            robot=dict(doc["robot"]),
            horizon=dict(doc["horizon"]),
            initial_state=dict(doc["initial_state"]),
            contacts=list(doc["contacts"]),
            references=dict(doc["references"]),
            gravity=list(doc.get("gravity", [0.0, 0.0, -9.81])),
            weights=dict(doc.get("weights", {})),
            bcd=dict(doc.get("bcd", {})),
            gait=dict(doc["gait"]) if doc.get("gait") is not None else None,
        )


def _vec(doc, path, size=3):
    try:
        v = [float(x) for x in doc]
    except (TypeError, ValueError):
        raise ScenarioError(path, f"expected a {size}-vector") from None
    if len(v) != size:
        raise ScenarioError(path, f"expected {size} components, got {len(v)}")
    return np.array(v)


def _surface(spec, path) -> Polytope:
    if not isinstance(spec, Mapping):
        raise ScenarioError(path, "surface must carry 'vertices' or 'halfspaces'")
    if "vertices" in spec:
        verts = [(float(v[0]), float(v[1]), float(v[2])) for v in spec["vertices"]]
        try:
            return polygon_to_halfspaces(verts)
        except ValueError as exc:
            raise ScenarioError(path + ".vertices", str(exc)) from None
    if "halfspaces" in spec:
        hs = spec["halfspaces"]
        try:
            return Polytope(np.array(hs["A"], dtype=float), np.array(hs["b"], dtype=float))
        except (KeyError, ValueError) as exc:
            raise ScenarioError(path + ".halfspaces", str(exc)) from None
    raise ScenarioError(path, "surface must carry 'vertices' or 'halfspaces'")


def _interpolate_waypoints(waypoints, N: int, dim: int, path: str) -> np.ndarray:
    """Piecewise-linear interpolation of [t, v...] rows onto timesteps 0..N-1."""
    if not waypoints:
        raise ScenarioError(path, "at least one waypoint required")
    rows = []
    for i, wp in enumerate(waypoints):
        if len(wp) != dim + 1:
            raise ScenarioError(f"{path}[{i}]", f"expected [t, {dim} values]")
        rows.append([float(x) for x in wp])
    rows.sort(key=lambda r: r[0])
    ts = np.array([r[0] for r in rows])
    vals = np.array([r[1:] for r in rows])
    out = np.empty((N, dim))
    for j in range(dim):
        out[:, j] = np.interp(np.arange(N), ts, vals[:, j])
    return out


def build_plan(sf: ScenarioFile) -> ContactPlan:
    """The contact plan of a validated document: robot, horizon, initial
    state and contact phases, without the references, weights or solver
    settings."""
    robot = sf.robot
    for key in ("mass", "nominal_offsets", "L_max"):
        if key not in robot:
            raise ScenarioError(f"robot.{key}", "missing required field")
    offsets = {str(e): _vec(v, f"robot.nominal_offsets.{e}")
               for e, v in robot["nominal_offsets"].items()}
    effector_ids = tuple(offsets.keys())

    N = int(sf.horizon.get("N", 0))
    if N < 1:
        raise ScenarioError("horizon.N", f"must be >= 1, got {N}")
    dt = float(sf.horizon.get("dt", 0.01))

    h0 = CentroidalState(
        _vec(sf.initial_state.get("r", [0, 0, 0]), "initial_state.r"),
        _vec(sf.initial_state.get("l", [0, 0, 0]), "initial_state.l"),
        _vec(sf.initial_state.get("k", [0, 0, 0]), "initial_state.k"))

    phases = []
    for i, c in enumerate(sf.contacts):
        path = f"contacts[{i}]"
        if "effector" not in c or "window" not in c:
            raise ScenarioError(path, "needs 'effector' and 'window'")
        eff = str(c["effector"])
        if eff not in offsets:
            raise ScenarioError(f"{path}.effector", f"undeclared effector {eff!r}")
        t0, t1 = int(c["window"][0]), int(c["window"][1])
        if not (0 <= t0 < t1 <= N):
            raise ScenarioError(f"{path}.window",
                                f"[{t0}, {t1}) must be non-empty and within [0, {N})")
        zmp = None
        if c.get("flat_foot", False):
            zb = c.get("zmp_bounds")
            if zb is None:
                raise ScenarioError(f"{path}.zmp_bounds", "required for flat-foot phases")
            zmp = ((float(zb["min"][0]), float(zb["max"][0])),
                   (float(zb["min"][1]), float(zb["max"][1])))
        try:
            phases.append(ContactPhase(
                end_effector_id=eff, t_start=t0, t_end=t1,
                surface=_surface(c.get("surface"), f"{path}.surface"),
                rotation=np.array(c["rotation"], dtype=float) if "rotation" in c else np.eye(3),
                friction_coeff=float(c.get("friction", 0.7)),
                flat_foot=bool(c.get("flat_foot", False)),
                zmp_bounds=zmp,
                foothold_hint=_vec(c["foothold_hint"], f"{path}.foothold_hint")
                if "foothold_hint" in c else None,
            ))
        except ValueError as exc:
            raise ScenarioError(path, str(exc)) from None

    try:
        plan = ContactPlan(
            effector_ids=effector_ids, phases=tuple(phases), horizon=N, dt=dt,
            mass=float(robot["mass"]), h0=h0,
            kinematic_limit=float(robot["L_max"]), nominal_offsets=offsets,
            gravity=_vec(sf.gravity, "gravity"))
    except ValueError as exc:
        raise ScenarioError("contacts", str(exc)) from None
    return plan


def materialize(sf: ScenarioFile) -> tuple[ContactPlan, ReferenceSet, BcdSettings, CostWeights]:
    """Turn a validated document into the numerical problem description."""
    plan = build_plan(sf)
    N, dt = plan.horizon, plan.dt
    refs = sf.references
    r_ref = _interpolate_waypoints(refs.get("com_waypoints"), N, 3, "references.com_waypoints")
    if "momentum_waypoints" in refs and refs["momentum_waypoints"]:
        lk = _interpolate_waypoints(refs["momentum_waypoints"], N, 6,
                                    "references.momentum_waypoints")
    else:
        lk = np.zeros((N, 6))
        # Default linear momentum from the CoM reference velocity.
        if N > 1:
            vel = np.gradient(r_ref, dt, axis=0)
            lk[:, 0:3] = plan.mass * vel
    if "pitch_profile" in refs and refs["pitch_profile"]:
        from .gaits import pitch_reference_to_momentum

        pp = refs["pitch_profile"]
        amplitude = np.deg2rad(float(pp.get("amplitude_deg", 15.0)))
        period = float(pp.get("period_s", 0.5))
        scale = float(pp.get("inertia_scale", 0.05))
        t_axis = np.arange(N) * dt
        pitch = amplitude * np.sin(2.0 * np.pi * t_axis / period)
        lk[:, 4] = lk[:, 4] + pitch_reference_to_momentum(pitch, scale, dt)
    h_kin = tuple(CentroidalState(r_ref[t], lk[t, 0:3], lk[t, 3:6]) for t in range(N))
    reference_set = ReferenceSet(h_kin)

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
    return plan, reference_set, settings, weights


def parse_scenario(text: bytes | str) -> ScenarioFile:
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    try:
        doc = yaml.load(text, Loader=_Loader)
    except yaml.YAMLError as exc:
        raise ScenarioError("$", f"not valid YAML: {exc}") from None
    return ScenarioFile.from_mapping(doc)


def load_scenario(text: bytes | str) -> tuple[ContactPlan, ReferenceSet, BcdSettings, CostWeights]:
    """Parse, validate, and materialize a scenario document."""
    return materialize(parse_scenario(text))


def emit_scenario(sf: ScenarioFile) -> bytes:
    return yaml.dump(sf.to_mapping(), Dumper=_Dumper, sort_keys=False).encode("utf-8")
