"""Each trajectory QP's symbolic record is built once per plan from the
entries its builder places, duplicates included. It must equal a lexsort of
those entries (the CSC pattern and the position of every entry) and the
record a handle builds from the assembled matrices (the band map, with
bitwise equal bands), and its band must be P + shift I + A' diag(w) A."""

import numpy as np
import pytest
import scipy.sparse as sp

from centroidal_bcd import contact_qp, force_qp
from centroidal_bcd.gaits import make_gait, shipped_scenarios
from centroidal_bcd.model import ContactPhase, ContactPlan, polygon_to_halfspaces
from centroidal_bcd.qp import SparseQP
from centroidal_bcd.qp.pattern import QpPattern
from centroidal_bcd.scenarios import materialize

from conftest import QUAD_OFFSETS, flat_foot_plan


def _built_afresh(builder, plan, monkeypatch):
    """``builder``'s plan-only structure built on ``plan`` past its cache,
    and the rows and columns of the entries it placed."""
    seen = []
    real = QpPattern.__dict__["from_entries"].__func__

    def spy(cls, rows, cols, *args, **kwargs):
        seen.append((np.array(rows), np.array(cols)))
        return real(cls, rows, cols, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(QpPattern, "from_entries", classmethod(spy))
        structure = builder.__wrapped__(plan)
    return structure, *seen[0]


def _sorted_pattern(rows, cols, shape):
    """CSC pattern of the entries and each entry's position in it, by one
    lexsort of the whole matrix; entries on one (row, column) share one."""
    order = np.lexsort((rows, cols))
    r, c = rows[order], cols[order]
    new = np.ones(r.size, dtype=bool)
    new[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
    position = np.empty(r.size, dtype=np.intp)
    position[order] = np.cumsum(new) - 1
    indptr = np.concatenate([[0], np.cumsum(np.bincount(c[new], minlength=shape[1]))])
    return indptr, r[new], position


def _assert_record_equals_sorted(structure, rows, cols):
    record = structure.pattern
    indptr, indices, position = _sorted_pattern(rows, cols, (record.m, record.n))
    assert np.array_equal(record.a_indptr, indptr)
    assert np.array_equal(record.a_indices, indices)
    assert np.array_equal(record.slot_pos, position)
    rng = np.random.default_rng(record.nnz)
    A = sp.csc_matrix((rng.normal(size=record.nnz), indices, indptr),
                      shape=(record.m, record.n))
    qp = SparseQP(n=record.n, m_c=record.m, P=sp.diags(rng.uniform(1, 2, record.n), format="csc"),
                  q=np.zeros(record.n), A=A, lo=np.zeros(record.m), hi=np.zeros(record.m))
    of_matrices = QpPattern.of(qp)
    for name in ("p_indptr", "p_indices"):
        assert np.array_equal(getattr(record, name), getattr(of_matrices, name)), name
    for name in ("left", "right", "slot", "indptr", "half_bandwidth", "shape"):
        assert np.array_equal(getattr(record.band_map, name),
                              getattr(of_matrices.band_map, name)), name
    w, shift = rng.uniform(1e-3, 1e3, size=record.m), 1e-8
    bands = [p.band_map.band(p.band_map.terms(qp.P.data, qp.A.data), w, shift)
             for p in (record, of_matrices)]
    assert bands[0].tobytes() == bands[1].tobytes()
    # The band of the sparse product, in LAPACK lower storage.
    K = (qp.P + shift * sp.eye(record.n) + A.T @ sp.diags(w) @ A).tocoo()
    lower = K.row >= K.col
    expected = np.zeros_like(bands[0])
    expected[(K.row - K.col)[lower], K.col[lower]] = K.data[lower]
    assert np.allclose(bands[0], expected, rtol=0.0, atol=1e-12 * np.abs(expected).max())


def _plans():
    plans = {name: materialize(doc)[0] for name, doc in shipped_scenarios().items()}
    plans["trot N=300"] = materialize(make_gait("trot", N=300))[0]
    plans["flat feet"] = flat_foot_plan()
    return plans


@pytest.mark.parametrize("name", list(_plans()))
def test_builder_records_equal_a_sort_of_their_entries_and_their_matrices_records(
        name, monkeypatch):
    plan = _plans()[name]
    for builder in (force_qp._structure, contact_qp._structure):
        _assert_record_equals_sorted(*_built_afresh(builder, plan, monkeypatch))


def _polygon(center, sides, radius=0.06):
    angle = 2 * np.pi * np.arange(sides) / sides
    return polygon_to_halfspaces(np.column_stack([center[0] + radius * np.cos(angle),
                                                  center[1] + radius * np.sin(angle),
                                                  np.zeros(sides)]))


def test_phase_surfaces_of_different_sizes_place_their_rows_in_one_record(monkeypatch):
    # Triangles, squares and hexagons hold 4, 5 and 7 surface rows once the
    # plane pin merges. FL lands at t = 4 on a square and at t = 9 on a
    # hexagon, each time after a swing with the other feet down: the two
    # timesteps differ only in their surface rows.
    windows = {"FL": [(0, 2, 3), (4, 7, 4), (9, 12, 6)], "FR": [(0, 12, 4)],
               "HL": [(0, 12, 3)], "HR": [(0, 12, 6)]}
    phases = []
    for e, spans in windows.items():
        for t0, t1, sides in spans:
            center = QUAD_OFFSETS[e][:2]
            phases.append(ContactPhase(e, t0, t1, _polygon(center, sides),
                                       foothold_hint=np.array([*center, 0.0])))
    plan = ContactPlan(effector_ids=tuple(QUAD_OFFSETS), phases=tuple(phases), horizon=12,
                       dt=0.02, mass=2.5, h0=(0.0, 0.0, 0.22, 0, 0, 0, 0, 0, 0),
                       kinematic_limit=0.35, nominal_offsets=QUAD_OFFSETS)
    count = contact_qp._surface_rows([ph.surface for ph in plan.phases])[0]
    assert count.tolist() == [4, 5, 7, 5, 4, 7]
    for builder in (force_qp._structure, contact_qp._structure):
        _assert_record_equals_sorted(*_built_afresh(builder, plan, monkeypatch))


def test_entries_outside_a_are_refused():
    with pytest.raises(ValueError, match="out of range"):
        QpPattern.from_entries([0, 1], [0, 2], (2, 2))
    with pytest.raises(ValueError, match="differ in length"):
        QpPattern.from_entries([0, 1], [0], (2, 2))
