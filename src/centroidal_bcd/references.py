"""Reference trajectories tracked by the momentum optimizer.

The tracking targets stand in for the output of a whole-body kinematic
optimizer: a per-timestep momentum state plus optional per-timestep tracking
weights that override the global cost weights (used e.g. to soften CoM
tracking during flight phases).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .model import CentroidalState

__all__ = ["ReferenceSet"]


@dataclass(frozen=True)
class ReferenceSet:
    """Per-timestep tracking targets h_kin and optional per-timestep weights
    (stacked 9-vectors over r, l, k)."""

    h_kin: tuple[CentroidalState, ...]
    tracking_weights: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "h_kin", tuple(self.h_kin))
        if self.tracking_weights is not None:
            W = np.asarray(self.tracking_weights, dtype=float)
            if W.shape != (len(self.h_kin), 9):
                raise ValueError(
                    f"tracking weights must be ({len(self.h_kin)}, 9), got {W.shape}")
            if np.any(W < 0.0):
                raise ValueError("tracking weights must be nonnegative")
            W.setflags(write=False)
            object.__setattr__(self, "tracking_weights", W)

    def __len__(self) -> int:
        return len(self.h_kin)

    @functools.cached_property
    def stacked(self) -> np.ndarray:
        """(N, 9) stacked (r, l, k) of every target (read-only)."""
        h = np.array([s.stacked() for s in self.h_kin], dtype=float).reshape(-1, 9)
        h.setflags(write=False)
        return h

    def weight_at(self, t: int, default: np.ndarray) -> np.ndarray:
        if self.tracking_weights is None:
            return default
        return self.tracking_weights[t]
