"""Biconvex trajectory optimization for centroidal momentum dynamics.

The non-convex centroidal problem (cross products between contact forces and
lever arms) is split into two convex QPs, solved alternately under a
proximally regularized block coordinate descent until the lever-arm profiles
reach consensus. One final force solve against the settled lever arms makes the
returned momentum and forces satisfy the dynamics with those lever arms; the
gap between them and the lever arms the returned CoM and footholds imply is
reported (``residuals.lever_consistency``), not closed.
"""

from .bcd import BcdIterationRecord, BcdSettings, TrajectoryResult, consensus_metric, optimize
from .structure import CostWeights
from .model import (
    CentroidalState,
    ContactPhase,
    ContactPlan,
    EffectorContact,
    Polytope,
    ResidualReport,
    Trajectory,
    integrate_step,
    polygon_to_halfspaces,
    skew,
    verify_trajectory,
)
from .qp import InteriorPointSolver, QpSolution, SolverSettings, SparseQP

__version__ = "0.1.0"
