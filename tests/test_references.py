"""References are a plain (N, 9) array of the stacked (r, l, k). Each entry
point that takes them stores a validated, read-only copy and names
``references`` when they cannot be used."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from centroidal_bcd.bcd import optimize
from centroidal_bcd.contact_qp import ContactQpInputs
from centroidal_bcd.force_qp import ForceQpInputs

from conftest import hover_plan, hover_references

finite = st.floats(-1e6, 1e6, allow_nan=False)


def _entry_points(plan) -> dict:
    """Each way references enter the package, as a call on them."""
    zeros = np.zeros((len(plan.active_pairs()), 3))
    rest = hover_references(plan)
    return {
        "optimize": lambda refs: optimize(plan, refs),
        "ForceQpInputs": lambda refs: ForceQpInputs(plan=plan, ell_fixed=zeros, p_fixed=zeros,
                                                    references=refs),
        "ContactQpInputs": lambda refs: ContactQpInputs(plan=plan, f_fixed=zeros, h_reg=rest,
                                                        references=refs),
    }


@given(st.integers(1, 12).flatmap(lambda N: arrays(float, (N, 9), elements=finite)))
def test_array_construction_stores_a_read_only_copy(h):
    plan = hover_plan(N=len(h))
    inputs = _entry_points(plan)
    for name in ("ForceQpInputs", "ContactQpInputs"):
        refs = inputs[name](h).references
        assert refs.tobytes() == h.tobytes(), name
        assert not refs.flags.writeable, name
        # The stored array is a copy: the caller's array stays writable and apart.
        assert h.flags.writeable and not np.shares_memory(refs, h), name


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_states_are_rejected(value):
    plan = hover_plan(N=4)
    h = hover_references(plan)
    h[2, 5] = value
    for enter in _entry_points(plan).values():
        with pytest.raises(ValueError, match="^references must be finite$"):
            enter(h)


@pytest.mark.parametrize("entry", ["optimize", "ForceQpInputs", "ContactQpInputs"])
def test_references_that_do_not_cover_the_horizon_are_rejected(entry):
    plan = hover_plan(N=4)
    enter = _entry_points(plan)[entry]
    rest = hover_references(plan)
    for h in (rest[:-1], np.vstack([rest, rest[:1]]), rest[:, :8], rest[0], []):
        with pytest.raises(ValueError, match=r"^references must cover the horizon: "
                                             r"shape \(4, 9\), got "):
            enter(h)
