"""Gait and terrain scenario generators.

Each generator returns a scenario document, the plain mapping that
:mod:`~centroidal_bcd.scenarios` reads and writes, describing a quadruped
task: cyclic gaits (walk, trot, bound), jumps with a flight phase, and terrain
variants (stairs, inclined stepping stones) built on the walking cycle.
Contact surfaces are small convex patches around each planned foothold;
references interpolate the CoM through the stance geometry with momentum
targets derived from the motion (ballistic profiles for jumps, a
pitch-derived angular momentum profile for bounding).

Generated documents carry a ``gait`` metadata block so benchmarks can
regenerate the same scenario at other horizons.
"""

from __future__ import annotations

import functools
import inspect
import math
from typing import Callable

import numpy as np

from .model import _integer, _positive, _real
from .scenarios import SCHEMA_VERSION

__all__ = ["GAIT_KINDS", "make_gait", "shipped_scenarios"]

# Default quadruped: mass and geometry in SI units.
_MASS = 2.5
_COM_HEIGHT = 0.22
_OFFSETS = {
    "FL": (0.19, 0.11, -_COM_HEIGHT),
    "FR": (0.19, -0.11, -_COM_HEIGHT),
    "HL": (-0.19, 0.11, -_COM_HEIGHT),
    "HR": (-0.19, -0.11, -_COM_HEIGHT),
}
_L_MAX = 0.35

GAIT_KINDS = ("stand", "walk", "trot", "bound", "jump_in_place", "jump_forward",
              "jump_twist", "stairs_up", "stairs_down", "incline_stones")


def _flat_patch(cx: float, cy: float, z: float, half: float = 0.12) -> dict:
    cx, cy, z = float(cx), float(cy), float(z)
    A = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 0.0, 0.0],
         [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, -1.0, 0.0]]
    b = [z, -z, cx + half, -(cx - half), cy + half, -(cy - half)]
    return {"halfspaces": {"A": A, "b": b}}


def _tilted_patch(center, pitch_angle: float, half: float = 0.10) -> tuple[dict, list]:
    """Patch tilted about the y axis; returns (surface spec, rotation rows)."""
    c = np.asarray(center, dtype=float)
    ct, st = math.cos(pitch_angle), math.sin(pitch_angle)
    R = np.array([[ct, 0.0, st], [0.0, 1.0, 0.0], [-st, 0.0, ct]])
    n, u, v = R[:, 2], R[:, 0], R[:, 1]
    A = [n.tolist(), (-n).tolist(), u.tolist(), (-u).tolist(), v.tolist(), (-v).tolist()]
    b = [float(n @ c), float(-n @ c), float(u @ c + half), float(-(u @ c - half)),
         float(v @ c + half), float(-(v @ c - half))]
    return {"halfspaces": {"A": A, "b": b}}, [list(map(float, row)) for row in R]


def _stance_complement(swings: list[tuple[int, int]], N: int) -> list[tuple[int, int]]:
    """Stance windows of one effector given its swing windows."""
    windows = []
    cursor = 0
    for a, b in sorted(swings):
        a, b = max(a, 0), min(b, N)
        if a >= b:
            continue
        if cursor < a:
            windows.append((cursor, a))
        cursor = max(cursor, b)
    if cursor < N:
        windows.append((cursor, N))
    return windows


def _cyclic_contacts(N: int, dt: float, swing_groups: list[list[str]], slot_steps: int,
                     lead_steps: int, speed: float, mu: float,
                     patch_fn: Callable[[str, float, float, int], tuple[dict, list | None, list]],
                     ) -> list[dict]:
    """Contacts for cyclic gaits: groups swing in turn after a full-stance
    lead-in; foothold targets advance with the commanded CoM speed."""
    contacts = []
    stone_index = 0
    for eff in _OFFSETS:
        off = np.array(_OFFSETS[eff])
        swings = []
        slot = next((i for i, g in enumerate(swing_groups) if eff in g), None)
        if slot is not None and slot_steps > 0:
            start = lead_steps + slot * slot_steps
            cycle = len(swing_groups) * slot_steps
            while start < N:
                swings.append((start, min(start + slot_steps, N)))
                start += cycle
        for a, b in _stance_complement(swings, N):
            t_mid = 0.5 * (a + b - 1)
            x_nom = off[0] + speed * dt * t_mid
            y_nom = off[1]
            surface, rotation, hint = patch_fn(eff, x_nom, y_nom, stone_index)
            stone_index += 1
            reach = abs(speed * dt * (b - 1 - a) / 2.0) + max(abs(off[0]), abs(off[1]))
            if reach > 0.95 * _L_MAX:
                raise ValueError(
                    f"stride too long: effector {eff} would need reach {reach:.3f} m "
                    f"against a kinematic limit of {_L_MAX} m")
            entry = {
                "effector": eff,
                "window": [int(a), int(b)],
                "surface": surface,
                "friction": mu,
                "foothold_hint": [float(hint[0]), float(hint[1]), float(hint[2])],
            }
            if rotation is not None:
                entry["rotation"] = rotation
            contacts.append(entry)
    return contacts


def _com_waypoints(contacts: list[dict], N: int, dt: float, speed: float,
                   z_of_x: Callable[[float], float] | None = None, sway: float = 0.0,
                   smooth_steps: int = 0, sample_every: int = 20) -> list[list[float]]:
    """CoM reference interpolated through the active-support centroids.

    The raw straight-line progression is blended by ``sway`` toward the
    per-timestep centroid of the active foothold targets (the sway a
    crawling gait needs), then smoothed so the momentum reference stays
    gentle. At the default sway of 0 the waypoints lie on the line.
    """
    hints = np.zeros((N, 2))
    counts = np.zeros(N)
    for c in contacts:
        a, b = c["window"]
        hx, hy, _ = c["foothold_hint"]
        hints[a:b, 0] += hx
        hints[a:b, 1] += hy
        counts[a:b] += 1
    line = np.column_stack([speed * dt * np.arange(N), np.zeros(N)])
    centroid = np.where(counts[:, None] > 0, hints / np.maximum(counts, 1)[:, None], line)
    target = line + sway * (centroid - line)
    if smooth_steps > 1:
        kernel = np.ones(smooth_steps) / smooth_steps
        pad = smooth_steps // 2
        for j in range(2):
            padded = np.concatenate([np.full(pad, target[0, j]), target[:, j],
                                     np.full(pad, target[-1, j])])
            target[:, j] = np.convolve(padded, kernel, mode="same")[pad:pad + N]
    wps = []
    for t in sorted(set(list(range(0, N, sample_every)) + [N - 1])):
        z = _COM_HEIGHT + (z_of_x(float(target[t, 0])) if z_of_x is not None else 0.0)
        wps.append([float(t), float(target[t, 0]), float(target[t, 1]), float(z)])
    return wps


def _base_document(name: str, N: int, dt: float, contacts, references) -> dict:
    """The document of one generated scenario, its keys in schema order;
    ``make_gait`` adds the ``gait`` block."""
    return {
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "robot": {"mass": _MASS,
                  "nominal_offsets": {e: list(map(float, v)) for e, v in _OFFSETS.items()},
                  "L_max": _L_MAX},
        "horizon": {"N": int(N), "dt": float(dt)},
        "initial_state": {"r": [0.0, 0.0, _COM_HEIGHT], "l": [0.0, 0.0, 0.0],
                          "k": [0.0, 0.0, 0.0]},
        "gravity": [0.0, 0.0, -9.81],
        "contacts": contacts,
        "references": references,
    }


def _flat_patch_fn(terrain: Callable[[float], float] | None = None,
                   snap: Callable[[float], float] | None = None, half: float = 0.12):
    def fn(eff, x_nom, y_nom, index):
        x = snap(x_nom) if snap is not None else x_nom
        z = terrain(x) if terrain is not None else 0.0
        return _flat_patch(x, y_nom, z, half=half), None, [x, y_nom, z]
    return fn


def _make_stand(N: int = 60, dt: float = 0.01, mu: float = 0.7) -> dict:
    contacts = _cyclic_contacts(N, dt, [], 0, 0, 0.0, mu, _flat_patch_fn())
    refs = {"com_waypoints": _com_waypoints(contacts, N, dt, 0.0)}
    return _base_document("stand", N, dt, contacts, refs)


def _walk_cycle(N: int, dt: float, stride: float, swing_steps: int, lead_steps: int,
                mu: float, name: str, patch_fn, z_of_x=None) -> dict:
    """The walking cycle on the patches ``patch_fn`` places, the CoM
    reference lifted by ``z_of_x``."""
    groups = [["FL"], ["HR"], ["FR"], ["HL"]]
    cycle_time = 4 * swing_steps * dt
    speed = stride / cycle_time
    contacts = _cyclic_contacts(N, dt, groups, swing_steps, lead_steps, speed, mu, patch_fn)
    refs = {"com_waypoints": _com_waypoints(
        contacts, N, dt, speed, z_of_x, sway=0.35, smooth_steps=2 * swing_steps,
        sample_every=max(swing_steps // 2, 3))}
    return _base_document(name, N, dt, contacts, refs)


def _make_walk(N: int = 160, dt: float = 0.01, stride: float = 0.08,
               swing_steps: int = 12, lead_steps: int = 12, mu: float = 0.7) -> dict:
    return _walk_cycle(N, dt, stride, swing_steps, lead_steps, mu, "walk", _flat_patch_fn())


def _make_trot(N: int = 160, dt: float = 0.01, stride: float = 0.06,
               stance_steps: int = 14, lead_steps: int = 12, mu: float = 0.7) -> dict:
    groups = [["FR", "HL"], ["FL", "HR"]]
    cycle_time = 2 * stance_steps * dt
    speed = stride / cycle_time
    contacts = _cyclic_contacts(N, dt, groups, stance_steps, lead_steps, speed, mu,
                                _flat_patch_fn())
    refs = {"com_waypoints": _com_waypoints(contacts, N, dt, speed)}
    return _base_document("trot", N, dt, contacts, refs)


def _make_bound(N: int = 160, dt: float = 0.01, stride: float = 0.04,
                pair_steps: int = 25, lead_steps: int = 12, mu: float = 0.7,
                pitch_amplitude_deg: float = 15.0, inertia_scale: float = 0.05) -> dict:
    # Front and hind pairs alternate stance every pair_steps (0.25 s at the
    # default dt); the pitch oscillation is tracked through angular momentum.
    groups = [["HL", "HR"], ["FL", "FR"]]
    cycle_time = 2 * pair_steps * dt
    speed = stride / cycle_time
    contacts = _cyclic_contacts(N, dt, groups, pair_steps, lead_steps, speed, mu,
                                _flat_patch_fn(half=0.14))
    refs = {
        "com_waypoints": _com_waypoints(contacts, N, dt, speed),
        "pitch_profile": {"amplitude_deg": pitch_amplitude_deg,
                          "period_s": cycle_time, "inertia_scale": inertia_scale},
    }
    return _base_document("bound", N, dt, contacts, refs)


def _make_jump(kind: str, N: int = 120, dt: float = 0.01, flight_time: float = 0.3,
               ramp_steps: int = 15, mu: float = 0.8, forward: float = 0.0,
               twist_deg: float = 0.0, inertia_scale: float = 0.05) -> dict:
    flight_steps = int(round(flight_time / dt))
    t_to = max(ramp_steps + 20, (N - flight_steps) // 2)
    t_land = t_to + flight_steps
    if t_land + ramp_steps >= N:
        raise ValueError(f"horizon {N} too short for a {flight_time} s flight phase")
    g = 9.81
    m = _MASS
    # Takeoff momentum for a ballistic arc spanning the flight window, and a
    # forward velocity that covers the commanded displacement including the
    # push-off and absorption ramps.
    v_up = 0.5 * g * flight_steps * dt
    vx = forward / ((flight_steps + ramp_steps) * dt) if flight_steps else 0.0
    kz = inertia_scale * math.radians(twist_deg) / (flight_steps * dt) if flight_steps else 0.0

    contacts = []
    for eff, off in _OFFSETS.items():
        for (a, b, shift) in ((0, t_to, 0.0), (t_land, N, forward)):
            x, y = off[0] + shift, off[1]
            contacts.append({
                "effector": eff, "window": [int(a), int(b)],
                "surface": _flat_patch(x, y, 0.0, half=0.14),
                "friction": mu,
                "foothold_hint": [float(x), float(y), 0.0],
            })

    # Momentum profile per step, then the CoM reference by the same forward
    # recursion the dynamics rows use, so the references are exactly
    # consistent with the transition model.
    l_z = np.zeros(N)
    l_x = np.zeros(N)
    k_z = np.zeros(N)
    for t in range(N):
        if t < t_to - ramp_steps:
            frac = 0.0
        elif t < t_to:
            frac = (t - (t_to - ramp_steps) + 1) / ramp_steps
        elif t < t_land:
            frac = None  # flight
        elif t < t_land + ramp_steps:
            frac = 1.0 - (t - t_land + 1) / ramp_steps
        else:
            frac = 0.0
        if frac is None:
            l_z[t] = m * v_up - m * g * dt * (t - t_to + 1)
            l_x[t] = m * vx
            k_z[t] = kz
        else:
            l_z[t] = frac * m * v_up if t < t_to else -frac * m * v_up
            l_x[t] = frac * m * vx
            k_z[t] = frac * kz
    r_x = np.cumsum(l_x) * dt / m
    r_z = _COM_HEIGHT + np.cumsum(l_z) * dt / m
    com = [[float(t), float(r_x[t]), 0.0, float(r_z[t])] for t in range(N)]
    momentum = [[float(t), float(l_x[t]), 0.0, float(l_z[t]), 0.0, 0.0, float(k_z[t])]
                for t in range(N)]
    refs = {"com_waypoints": com, "momentum_waypoints": momentum}
    return _base_document(kind, N, dt, contacts, refs)


def _make_stairs(direction: int, N: int = 150, dt: float = 0.01, stride: float = 0.10,
                 swing_steps: int = 12, lead_steps: int = 12, mu: float = 0.7,
                 step_height: float = 0.05, step_depth: float = 0.16) -> dict:
    # Step height defaults to ~23% of the CoM height.
    first_edge = 0.24

    def step_index(x: float) -> int:
        return max(0, int(math.floor((x - first_edge) / step_depth)) + 1)

    def terrain(x: float) -> float:
        return direction * step_height * step_index(x)

    def snap(x: float) -> float:
        # Keep each foothold patch centered on its step, away from edges.
        idx = step_index(x)
        if idx == 0:
            return min(x, first_edge - 0.07)
        lo = first_edge + (idx - 1) * step_depth
        return lo + 0.5 * step_depth

    name = "stairs_up" if direction > 0 else "stairs_down"
    return _walk_cycle(N, dt, stride, swing_steps, lead_steps, mu, name,
                       _flat_patch_fn(terrain=terrain, snap=snap), z_of_x=terrain)


def _make_incline_stones(N: int = 150, dt: float = 0.01, stride: float = 0.08,
                         swing_steps: int = 12, lead_steps: int = 12, mu: float = 0.7,
                         max_angle_deg: float = 25.0) -> dict:
    # Inclines alternate through 0 / +-60% / +-100% of the maximum angle.
    angles = [0.0, 0.6, -0.6, 1.0, -1.0]

    def patch_fn(eff, x_nom, y_nom, index):
        angle = math.radians(max_angle_deg) * angles[index % len(angles)]
        center = [float(x_nom), float(y_nom), 0.02 * (index % 3)]
        surface, rotation = _tilted_patch(center, angle)
        return surface, rotation, center

    return _walk_cycle(N, dt, stride, swing_steps, lead_steps, mu, "incline_stones", patch_fn)


_GENERATORS = {
    "stand": _make_stand,
    "walk": _make_walk,
    "trot": _make_trot,
    "bound": _make_bound,
    "jump_in_place": functools.partial(_make_jump, "jump_in_place"),
    "jump_forward": functools.partial(_make_jump, "jump_forward", forward=0.12),
    "jump_twist": functools.partial(_make_jump, "jump_twist", twist_deg=20.0),
    "stairs_up": functools.partial(_make_stairs, +1),
    "stairs_down": functools.partial(_make_stairs, -1),
    "incline_stones": _make_incline_stones,
}


# The least value of each integer parameter: a horizon or a step count that
# sets a gait's period is at least 1 (a zero period divides by zero).
_LEAST = {"N": 1, "swing_steps": 1, "stance_steps": 1, "pair_steps": 1,
          "lead_steps": 0, "ramp_steps": 0}


def _check_params(params: dict) -> None:
    """Reject a parameter value no generator can use, naming it: an integer
    parameter that is not an integer of at least its least value, a number
    that is not finite, or a ``dt`` or ``mu`` that is not positive."""
    for name, value in params.items():
        if name in _LEAST:
            _integer(value, name, _LEAST[name])
        elif name in ("dt", "mu"):
            _positive(value, name)
        else:
            _real(value, name)


def make_gait(kind: str, **params) -> dict:
    """Generate a scenario document for one of the built-in gait kinds. A
    keyword that is no parameter of the generator is a TypeError naming it,
    before any value is checked. The ``gait`` block records every parameter
    but ``N``, defaults included, so the document can be regenerated at
    another horizon."""
    if kind not in _GENERATORS:
        raise ValueError(f"unknown gait kind {kind!r}; choose from {GAIT_KINDS}")
    generator = _GENERATORS[kind]
    bound = inspect.signature(generator).bind(**params)
    _check_params(params)
    bound.apply_defaults()
    gait = {"kind": kind, "params": {k: v for k, v in bound.arguments.items() if k != "N"}}
    return {**generator(**params), "gait": gait}


def shipped_scenarios() -> dict[str, dict]:
    """The bundled scenario suite at its default sizes."""
    return {kind: make_gait(kind) for kind in GAIT_KINDS}
