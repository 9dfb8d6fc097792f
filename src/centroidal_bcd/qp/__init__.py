"""Sparse QP canonical form and solvers."""

from .banded import BandedActiveSetSolver
from .ipm import InteriorPointSolver
from .problem import (
    INFTY,
    QpSolution,
    SolverSettings,
    SparseQP,
    TripletPattern,
    VariableLayout,
    kkt_residuals,
    pattern_hash,
)

__all__ = [
    "INFTY",
    "BandedActiveSetSolver",
    "InteriorPointSolver",
    "QpSolution",
    "SolverSettings",
    "SparseQP",
    "TripletPattern",
    "VariableLayout",
    "kkt_residuals",
    "pattern_hash",
]
