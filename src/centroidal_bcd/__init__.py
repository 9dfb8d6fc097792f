"""Biconvex trajectory optimization for centroidal momentum dynamics.

The non-convex centroidal problem (cross products between contact forces and
lever arms) is split into two convex QPs, solved alternately under a
proximally regularized block coordinate descent until the lever-arm profiles
reach consensus, with one final force solve certifying dynamic consistency.
"""

from .bcd import BcdIterationRecord, BcdSettings, TrajectoryResult, consensus_metric, optimize
from .force_qp import CostWeights
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
