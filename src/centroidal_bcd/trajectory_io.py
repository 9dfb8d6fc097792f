"""Trajectory and report serialization.

One CSV row per timestep: the momentum state, then per end-effector the
force, contact point, and lever arm (plus contact torque and
center-of-pressure columns for effectors with flat-foot phases). Inactive
effectors carry zeros; activity is defined by the contact plan, which is
required again when reading.

Both directions work on the arrays of a ``model.Trajectory``, placed into or
read out of one (N, columns) table.

The convergence report JSON deliberately carries no timing fields so that
repeated runs with identical inputs produce byte-identical files; timings go
to their own CSV.
"""

from __future__ import annotations

import csv
import json
from typing import Mapping, Sequence

import numpy as np

from .bcd import TrajectoryResult
from .model import CentroidalState, ContactPlan, EffectorContact, Trajectory

__all__ = [
    "TrajectoryFormatError",
    "trajectory_header",
    "write_trajectory_csv",
    "read_trajectory_csv",
    "convergence_report",
    "write_convergence_json",
    "write_timing_csv",
]


class TrajectoryFormatError(ValueError):
    """Trajectory CSV does not match the expected structure."""


_STATE_COLUMNS = ["r_x", "r_y", "r_z", "l_x", "l_y", "l_z", "k_x", "k_y", "k_z"]


def _flat_foot_effectors(plan: ContactPlan) -> set[str]:
    return {ph.end_effector_id for ph in plan.phases if ph.flat_foot}


def trajectory_header(plan: ContactPlan) -> list[str]:
    header = ["t"] + _STATE_COLUMNS
    flat = _flat_foot_effectors(plan)
    for e in plan.effector_ids:
        for quantity in ("f", "p", "ell"):
            header += [f"{quantity}_{e}_{axis}" for axis in "xyz"]
        if e in flat:
            header += [f"tau_{e}_{axis}" for axis in "xyz"]
            header += [f"z_{e}_{axis}" for axis in "xy"]
    return header


def _pair_columns(plan: ContactPlan, header: list[str]) -> np.ndarray:
    """Table column of each active pair's f, p, ell, tau and z values
    (pairs, 14); -1 where its effector has no tau and z columns."""
    ids = plan.effector_ids
    base = np.array([header.index(f"f_{e}_x") for e in ids])[plan.pair_table.effector, None]
    width = np.array([14 if f"z_{e}_x" in header else 9 for e in ids])[plan.pair_table.effector]
    return np.where(np.arange(14) < width[:, None], base + np.arange(14), -1)


def write_trajectory_csv(stream, states: Sequence[CentroidalState],
                         contacts: Sequence[Mapping[str, EffectorContact]],
                         plan: ContactPlan) -> None:
    """Write one row per timestep from the arrays of the ``Trajectory`` that
    ``states`` and ``contacts`` view, or from per-timestep objects. A missing
    lever arm is written as the model derives it, p - r + R^{xy} z; a
    missing torque or offset as zeros."""
    traj = getattr(states, "trajectory", None)
    if traj is None or getattr(contacts, "trajectory", None) is not traj or traj.plan is not plan:
        traj = Trajectory.from_pairs(plan, list(zip(states, contacts)))
    header = trajectory_header(plan)
    cols = _pair_columns(plan, header)
    at = cols >= 0
    ell = np.where(np.isnan(traj.ell), traj.lever_geometry(), traj.ell)
    data = np.nan_to_num(np.hstack([traj.f, traj.p, ell, traj.tau, traj.z]), nan=0.0)
    values = np.zeros((plan.horizon, len(header)))
    values[:, 1:10] = traj.h
    values[np.broadcast_to(plan.pair_table.t[:, None], cols.shape)[at], cols[at]] = data[at]
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(header)
    for t, row in enumerate(values[:, 1:].tolist()):
        writer.writerow([t, *map(repr, row)])


def read_trajectory_csv(stream, plan: ContactPlan) -> Trajectory:
    """Parse a trajectory CSV into a ``Trajectory`` of the plan, which
    decides the active effectors; iterating it yields (state, contacts)
    pairs. A malformed file, including a non-zero value in a column of an
    effector out of contact, raises ``TrajectoryFormatError``."""
    reader = csv.reader(stream)
    try:
        header = next(reader)
    except StopIteration:
        raise TrajectoryFormatError("empty trajectory file") from None
    expected = trajectory_header(plan)
    if header != expected:
        raise TrajectoryFormatError(
            f"header mismatch: expected {len(expected)} columns for this plan, "
            f"got {len(header)} ({header[:4]}...)")
    rows = list(reader)
    values = np.empty((len(rows), len(expected)))
    for t, row in enumerate(rows):
        if len(row) != len(expected):
            raise TrajectoryFormatError(f"row {t}: expected {len(expected)} fields, got {len(row)}")
        try:
            values[t] = [float(x) for x in row]
        except ValueError as exc:
            raise TrajectoryFormatError(f"row {t}: {exc}") from None
    bad = np.argwhere(~np.isfinite(values))
    if bad.size:
        t, col = bad[0]
        raise TrajectoryFormatError(f"row {t}: {expected[col]} is {values[t, col]!r}")
    bad = np.flatnonzero(values[:, 0] != np.arange(len(rows)))
    if bad.size:
        raise TrajectoryFormatError(f"row {bad[0]}: timestep column says {values[bad[0], 0]}")
    if len(rows) != plan.horizon:
        raise TrajectoryFormatError(
            f"trajectory has {len(rows)} timesteps, plan horizon is {plan.horizon}")
    cols = _pair_columns(plan, expected)
    at = np.broadcast_to(plan.pair_table.t[:, None], cols.shape)[cols >= 0], cols[cols >= 0]
    data = np.full(cols.shape, np.nan)
    data[cols >= 0] = values[at]
    # The columns of an effector that is not in contact hold zeros.
    idle = np.ones(values.shape, dtype=bool)
    idle[:, :10] = False
    idle[at] = False
    bad = np.argwhere(idle & (values != 0.0))
    if bad.size:
        t, col = bad[0]
        raise TrajectoryFormatError(
            f"row {t}: {expected[col]} is {values[t, col]!r}, but that effector is not in "
            f"contact")
    f, p, ell, tau, z = np.split(data, [3, 6, 9, 12], axis=1)
    return Trajectory(plan, values[:, 1:10], f, p, ell, z, tau)


def convergence_report(result: TrajectoryResult, scenario_name: str = "") -> dict:
    return {
        "scenario": scenario_name,
        "converged": result.converged,
        "outer_iterations": len(result.records),
        "eps_f_trace": result.eps_trace,
        "records": [r.as_dict() for r in result.records],
        "final_record": result.final_record.as_dict(),
        "final_original_cost": result.final_record.original_cost,
        "residuals": result.residuals.as_dict(),
    }


def write_convergence_json(stream, result: TrajectoryResult, scenario_name: str = "") -> None:
    json.dump(convergence_report(result, scenario_name), stream, indent=2, sort_keys=True)
    stream.write("\n")


def write_timing_csv(stream, result: TrajectoryResult) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(["phase", "force_qp_time_s", "contact_qp_time_s", "force_setup_time_s",
                     "contact_setup_time_s"])
    for r in (*result.records, result.final_record):
        phase = "final" if r is result.final_record else f"iteration_{r.iteration}"
        writer.writerow([phase, repr(r.force_qp_time), repr(r.contact_qp_time),
                         repr(r.force_setup_time), repr(r.contact_setup_time)])
    writer.writerow(["setup", repr(result.setup_time), repr(0.0), "", ""])
