"""Sparse QP canonical form and solvers."""

from .admm import AdmmSolver, setup
from .banded import BandedActiveSetSolver
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
    "AdmmSolver",
    "BandedActiveSetSolver",
    "QpSolution",
    "SolverSettings",
    "SparseQP",
    "TripletPattern",
    "VariableLayout",
    "kkt_residuals",
    "pattern_hash",
    "setup",
]
