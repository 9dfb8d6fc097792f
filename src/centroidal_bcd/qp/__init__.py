"""Sparse QP canonical form and solvers."""

from .banded import BandedActiveSetSolver
from .ipm import InteriorPointSolver
from .problem import (
    INFTY,
    QpSolution,
    SolverSettings,
    SparseQP,
    TripletPattern,
    kkt_residuals,
)

__all__ = [
    "INFTY",
    "BandedActiveSetSolver",
    "InteriorPointSolver",
    "QpSolution",
    "SolverSettings",
    "SparseQP",
    "TripletPattern",
    "kkt_residuals",
]
