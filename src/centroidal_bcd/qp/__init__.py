"""Sparse QP canonical form and solvers."""

from .banded import BandedActiveSetSolver
from .ipm import InteriorPointSolver
from .problem import QpSolution, SolverSettings, SparseQP, kkt_residuals

__all__ = [
    "BandedActiveSetSolver",
    "InteriorPointSolver",
    "QpSolution",
    "SolverSettings",
    "SparseQP",
    "kkt_residuals",
]
