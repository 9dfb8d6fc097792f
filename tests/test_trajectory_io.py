import io

import pytest

from centroidal_bcd.bcd import optimize
from centroidal_bcd.gaits import make_gait
from centroidal_bcd.model import verify_trajectory
from centroidal_bcd.scenarios import materialize
from centroidal_bcd.trajectory_io import read_trajectory_csv, write_trajectory_csv

from conftest import flat_foot_plan, flat_foot_replay


def _trot_result():
    plan, refs, settings, weights = materialize(make_gait("trot", N=60))
    result = optimize(plan, refs, settings, weights)
    return plan, list(result.states), list(result.contacts)


def _flat_foot_replay():
    # Lever arms left out: the writer must derive them as p - r + R^{xy} z.
    plan = flat_foot_plan()
    traj = flat_foot_replay(plan, lever=False)
    return plan, [s for s, _ in traj], [c for _, c in traj]


@pytest.mark.parametrize("case", [_trot_result, _flat_foot_replay], ids=["trot", "flat_foot"])
def test_csv_round_trip_keeps_bytes_and_residuals(case):
    plan, states, contacts = case()
    first = io.StringIO()
    write_trajectory_csv(first, states, contacts, plan)
    traj = read_trajectory_csv(io.StringIO(first.getvalue()), plan)
    second = io.StringIO()
    write_trajectory_csv(second, [s for s, _ in traj], [c for _, c in traj], plan)
    assert second.getvalue() == first.getvalue()
    in_memory = verify_trajectory(list(zip(states, contacts)), plan)
    assert verify_trajectory(traj, plan).as_dict() == in_memory.as_dict()
    assert in_memory.feasible
