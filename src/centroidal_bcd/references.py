"""Reference trajectories tracked by the momentum optimizer.

The tracking targets stand in for the output of a whole-body kinematic
optimizer: a per-timestep momentum state, held as one (N, 9) array of the
stacked (r, l, k) that both QP builders read, plus optional per-timestep
tracking weights that override the global cost weights (used e.g. to soften
CoM tracking during flight phases).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .model import CentroidalState, state_array

__all__ = ["ReferenceSet"]


@dataclass(frozen=True, eq=False)
class ReferenceSet:
    """Per-timestep tracking targets and optional weights, both (N, 9) over
    (r, l, k). The targets are given as that array or as CentroidalState
    objects, and both are stored validated and read-only (see
    ``state_array``). ``h_kin`` views the targets as objects, built when
    first read."""

    stacked: np.ndarray
    tracking_weights: np.ndarray | None = None

    def __post_init__(self):
        h = state_array(self.stacked, len(self.stacked), "references")
        object.__setattr__(self, "stacked", h)
        if self.tracking_weights is not None:
            W = state_array(np.asarray(self.tracking_weights, dtype=float), len(h),
                            "tracking_weights")
            if np.any(W < 0.0):
                raise ValueError("tracking_weights must be nonnegative")
            object.__setattr__(self, "tracking_weights", W)

    def __len__(self) -> int:
        return len(self.stacked)

    @functools.cached_property
    def h_kin(self) -> tuple[CentroidalState, ...]:
        return tuple(CentroidalState.from_stacked(h) for h in self.stacked)

    def weight_at(self, t: int, default: np.ndarray) -> np.ndarray:
        if self.tracking_weights is None:
            return default
        return self.tracking_weights[t]
