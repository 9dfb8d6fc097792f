import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from centroidal_bcd.bcd import optimize
from centroidal_bcd.gaits import make_gait
from centroidal_bcd.model import Trajectory, verify_trajectory
from centroidal_bcd.scenarios import materialize
from centroidal_bcd.trajectory_io import TrajectoryFormatError, read_trajectory_csv, \
    write_trajectory_csv

from conftest import QUAD_OFFSETS, flat_foot_plan, flat_foot_replay, hover_plan


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


def _flat_foot_lines():
    """A valid flat-foot trajectory CSV as lists of fields, one per line; FL
    is out of contact at timesteps 4 and 5, HL at 0 and 1."""
    plan, states, contacts = _flat_foot_replay()
    buf = io.StringIO()
    write_trajectory_csv(buf, states, contacts, plan)
    return plan, [line.split(",") for line in buf.getvalue().splitlines()]


def _text(lines) -> str:
    return "".join(",".join(fields) + "\n" for fields in lines)


def _set(lines, t, column, text):
    lines[t + 1][lines[0].index(column)] = text


def _empty_file(lines):
    lines.clear()


def _no_header_column(lines):
    del lines[0][-1]


def _short_row(lines):
    del lines[4][-1]


def _long_row(lines):
    lines[6].append("0.0")


def _text_field(lines):
    _set(lines, 2, "l_x", "abc")


def _quoted_comma_field(lines):
    _set(lines, 3, "p_FR_z", '"1,5"')


def _nan_field(lines):
    _set(lines, 6, "f_FR_y", "nan")


def _inf_field(lines):
    _set(lines, 1, "r_z", "-inf")


def _oversized_field(lines):
    # Past csv's field size limit, 131,072 characters by default.
    _set(lines, 2, "l_y", "0" * 200_000)


def _wrong_timestep(lines):
    lines[5][0] = "7"


def _too_few_rows(lines):
    del lines[-1]


def _idle_effector_force(lines):
    _set(lines, 0, "f_HL_x", "1.5")


def _idle_flat_foot_offset(lines):
    _set(lines, 5, "z_FL_y", "-0.01")


def _blank_trailing_line(lines):
    lines.append([])


_K = 47  # columns of the flat-foot plan
_HEADER_START = ["t", "r_x", "r_y", "r_z"]


@pytest.mark.parametrize("mutate, message", [
    (_empty_file, "empty trajectory file"),
    (_no_header_column, f"header mismatch: expected {_K} columns for this plan, got {_K - 1} "
                        f"({_HEADER_START}...)"),
    (_short_row, f"row 3: expected {_K} fields, got {_K - 1}"),
    (_long_row, f"row 5: expected {_K} fields, got {_K + 1}"),
    (_text_field, "row 2: could not convert string to float: 'abc'"),
    (_quoted_comma_field, "row 3: could not convert string to float: '1,5'"),
    (_nan_field, "row 6: f_FR_y is nan"),
    (_inf_field, "row 1: r_z is -inf"),
    (_oversized_field, "line 4: field larger than field limit (131072)"),
    (_wrong_timestep, "row 4: timestep column says 7.0"),
    (_too_few_rows, "trajectory has 7 timesteps, plan horizon is 8"),
    (_idle_effector_force,
     "row 0: f_HL_x is 1.5, but that effector is not in contact"),
    (_idle_flat_foot_offset,
     "row 5: z_FL_y is -0.01, but that effector is not in contact"),
    # csv reads a blank line as a row of no fields.
    (_blank_trailing_line, f"row 8: expected {_K} fields, got 0"),
], ids=lambda v: v.__name__.strip("_") if callable(v) else "")
def test_each_format_error_names_its_cause(mutate, message):
    plan, lines = _flat_foot_lines()
    assert len(lines[0]) == _K and lines[0][:4] == _HEADER_START
    mutate(lines)
    with pytest.raises(TrajectoryFormatError) as info:
        read_trajectory_csv(io.StringIO(_text(lines)), plan)
    assert str(info.value) == message


def test_a_quoted_number_reads_as_the_number():
    plan, lines = _flat_foot_lines()
    plain = read_trajectory_csv(io.StringIO(_text(lines)), plan)
    lines[4] = [f'"{field}"' for field in lines[4]]
    quoted = read_trajectory_csv(io.StringIO(_text(lines)), plan)
    for name in ("h", "f", "p", "ell", "z", "tau"):
        assert getattr(quoted, name).tobytes() == getattr(plain, name).tobytes(), name


def _write(traj: Trajectory) -> str:
    buf = io.StringIO()
    write_trajectory_csv(buf, traj.states, traj.contacts, traj.plan)
    return buf.getvalue()


_FLAT_PLAN = flat_foot_plan()
# Signed zero, the smallest subnormal, the largest magnitudes and whole
# numbers among any finite float.
_FINITE = st.one_of(st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, -3.0, 1e16]),
                    st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_any_finite_table_round_trips_as_the_repr_of_its_values(data):
    plan = _FLAT_PLAN
    pairs = plan.pair_table.t.size
    h, f, p, ell, tau = (data.draw(arrays(float, shape, elements=_FINITE))
                         for shape in [(plan.horizon, 9)] + [(pairs, 3)] * 4)
    z = data.draw(arrays(float, (pairs, 2), elements=_FINITE))
    # HL has no flat-foot phase, so the table has no torque or offset columns for it.
    point = plan.pair_table.effector == plan.effector_ids.index("HL")
    tau[point], z[point] = np.nan, np.nan
    traj = Trajectory(plan, h, f, p, ell, z, tau)
    first = _write(traj)
    back = read_trajectory_csv(io.StringIO(first), plan)
    assert _write(back) == first
    for name in ("h", "f", "p", "ell", "z", "tau"):
        assert getattr(back, name).tobytes() == getattr(traj, name).tobytes(), name
    for t, line in enumerate(first.splitlines()[1:]):
        t_field, *fields = line.split(",")
        assert t_field == str(t)
        assert all(field == repr(float(field)) for field in fields)


def test_only_absent_lever_arms_are_derived():
    # At 1e308 a derived p - r overflows, and warnings are errors here: the
    # given lever arms are written as they are, without a derivation.
    plan = _FLAT_PLAN
    big = np.full((plan.pair_table.t.size, 3), 1e308)
    traj = Trajectory(plan, np.full((plan.horizon, 9), -1e308), big, big, big)
    back = read_trajectory_csv(io.StringIO(_write(traj)), plan)
    assert np.array_equal(back.ell, traj.ell)


def test_an_effector_id_with_a_comma_and_a_quote_round_trips():
    offsets = {'F,"L': QUAD_OFFSETS["FL"], "FR": QUAD_OFFSETS["FR"]}
    plan = hover_plan(N=3, offsets=offsets)
    rng = np.random.default_rng(0)
    pairs = plan.pair_table.t.size
    traj = Trajectory(plan, rng.normal(size=(3, 9)), *rng.normal(size=(3, pairs, 3)))
    text = _write(traj)
    header = text.splitlines()[0]
    assert header.startswith('t,r_x,r_y,r_z,l_x,l_y,l_z,k_x,k_y,k_z,"f_F,""L_x","f_F,""L_y",')
    back = read_trajectory_csv(io.StringIO(text), plan)
    assert _write(back) == text
    assert back.f.tobytes() == traj.f.tobytes()
