import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from centroidal_bcd.model import CentroidalState
from centroidal_bcd.references import ReferenceSet

finite = st.floats(-1e6, 1e6, allow_nan=False)


@given(st.integers(1, 12).flatmap(lambda N: arrays(float, (N, 9), elements=finite)))
def test_array_and_object_construction_agree(h):
    objects = tuple(CentroidalState.from_stacked(row) for row in h)
    from_array, from_objects = ReferenceSet(h), ReferenceSet(objects)
    for refs in (from_array, from_objects):
        assert refs.stacked.tobytes() == h.tobytes()
        assert not refs.stacked.flags.writeable
        assert len(refs) == len(h)
    # The stored array is a copy: the caller's array stays writable and apart.
    assert h.flags.writeable and not np.shares_memory(from_array.stacked, h)
    for t in range(len(h)):
        assert np.array_equal(from_array.h_kin[t].stacked(), from_array.stacked[t])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_states_are_rejected(value):
    h = np.zeros((4, 9))
    h[2, 5] = value
    with pytest.raises(ValueError, match="references must be finite"):
        ReferenceSet(h)


@pytest.mark.parametrize("value, message", [
    (np.nan, "finite"), (np.inf, "finite"), (-np.inf, "finite"), (-1.0, "nonnegative")])
def test_unusable_tracking_weights_are_rejected(value, message):
    W = np.ones((4, 9))
    W[1, 3] = value
    with pytest.raises(ValueError, match=f"tracking_weights must be {message}"):
        ReferenceSet(np.zeros((4, 9)), W)


def test_tracking_weights_must_match_the_references():
    with pytest.raises(ValueError, match=r"tracking_weights must cover the horizon"):
        ReferenceSet(np.zeros((4, 9)), np.ones((3, 9)))
    W = [[1.0] * 9] * 4
    assert ReferenceSet(np.zeros((4, 9)), W).weight_at(2, None).tolist() == W[2]
