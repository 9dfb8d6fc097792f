"""Sparse QP canonical form shared by both trajectory subproblem builders.

Problems are stated as

    minimize   1/2 x' P x + q' x
    subject to lo <= A x <= hi        (equalities encoded as lo == hi)

with P sparse symmetric PSD and A sparse. Infinite bounds are passed as
+-inf and replaced by a large finite sentinel before they reach any
factorization.

No module of the package imports ``scipy.sparse`` at its top: matrices are
made where they are needed (:mod:`~centroidal_bcd.qp.pattern`), so that
importing the package, and everything that generates, reads, writes or
verifies a trajectory without solving one, runs on numpy alone. A fresh
process loads scipy (0.3-0.4 s on a 2-core host) at its first QP build,
inside the first ``optimize()`` call's ``setup_time``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..model import _array, _integer, _positive

if TYPE_CHECKING:
    import scipy.sparse as sp

    from .pattern import QpPattern

__all__ = [
    "INFTY",
    "SparseQP",
    "SolverSettings",
    "QpSolution",
]

# Sentinel standing in for infinity inside the solver; never fed to a
# factorization as literal inf.
INFTY = 1e30


@dataclass(frozen=True)
class SparseQP:
    """Quadratic program in the canonical two-sided row-bound form.

    ``x0`` is an optional start point: a finite n-vector that the
    interior-point method starts its cold solves from, in place of x = 0.
    The builder that knows the problem's physics supplies it (the force QP
    starts at the reference momentum and static-equilibrium forces); it
    need not be feasible, and it changes which point a solve reaches only
    where the solution is not unique.

    ``pattern`` is the symbolic record the trajectory builders fill in: P
    and A are then matrices of its own index arrays, and a solver handle
    uses the record instead of deriving one from the matrices (see
    :mod:`~centroidal_bcd.qp.pattern`). It is builder data, not an option;
    a QP whose matrices are not the record's is treated as one without.
    """

    n: int
    m_c: int
    P: sp.csc_matrix
    q: np.ndarray
    A: sp.csc_matrix
    lo: np.ndarray
    hi: np.ndarray
    x0: np.ndarray | None = None
    pattern: QpPattern | None = None

    def __post_init__(self):
        if self.P.shape != (self.n, self.n):
            raise ValueError(f"P shape {self.P.shape} != ({self.n}, {self.n})")
        if self.A.shape != (self.m_c, self.n):
            raise ValueError(f"A shape {self.A.shape} != ({self.m_c}, {self.n})")
        for name, values in (("P", self.P.data), ("A", self.A.data)):
            if not np.all(np.isfinite(values)):
                raise ValueError(f"{name} holds non-finite values")
        object.__setattr__(self, "q", _array(self.q, "q", (self.n,)))
        # Bounds may be infinite: +-inf leaves a row's side open.
        for name in ("lo", "hi"):
            object.__setattr__(self, name, _array(getattr(self, name), name, (self.m_c,),
                                                  infinite=True))
        if np.any(self.lo > self.hi):
            raise ValueError("lo > hi on some row")
        if self.x0 is not None:
            object.__setattr__(self, "x0", _array(self.x0, "x0", (self.n,)))

    def validate(self, psd_tol: float = 1e-8) -> None:
        """The checks too costly for every QP: P symmetric, and positive
        semidefinite by an eigenvalue estimate meant for desk-scale problems
        (O(n^3)). The values themselves are checked when the QP is made."""
        gap = abs(self.P - self.P.T)
        if gap.nnz and gap.max() > 1e-12:
            raise ValueError("P is not symmetric")
        if self.n <= 2000:
            w = np.linalg.eigvalsh(self.P.toarray())
            if w[0] < -psd_tol:
                raise ValueError(f"P has negative eigenvalue {w[0]:.3e}")


@dataclass(frozen=True)
class SolverSettings:
    """Solver tolerances and iteration budget; defaults match the reference
    configuration used for both trajectory QPs. ``max_iterations`` caps the
    interior-point iterations of one solve.

    Termination is evaluated on unscaled residuals, so a solved status
    certifies the true constraint violations.
    """

    eps_abs: float = 1e-7
    eps_rel: float = 1e-7
    max_iterations: int = 100

    def __post_init__(self):
        _positive(self.eps_abs, "eps_abs")
        _positive(self.eps_rel, "eps_rel")
        _integer(self.max_iterations, "max_iterations", 1)


@dataclass(frozen=True)
class QpSolution:
    """Solver output. Duals follow the convention P x + q = A' y, so rows at
    their lower bound carry y >= 0 and rows at their upper bound y <= 0.
    ``primal_residual`` and ``dual_residual`` are the unscaled
    infinity-norm residuals of the solver's last termination check, before
    any polish (for the direct active-set solve, of its last pass; for an
    interior-point solve that returns its tried held-set pass, of that
    pass). ``warm_started`` tells whether an interior-point solve started
    from its handle's last solved call. ``factorizations`` counts the
    matrices the solve factored: an interior-point solve's Newton and
    polish factorizations, or the direct active-set solve's factored passes.
    ``band_solves`` counts the back-solves with those factors: two per
    interior-point iteration (predictor and corrector; one on the start
    step), and one plus the refinement steps per polish or active-set
    pass."""

    x: np.ndarray
    y: np.ndarray
    # solved | max_iter | primal_infeasible | dual_infeasible |
    # not_positive_definite; the direct active-set solve may also report
    # stalled.
    status: str
    objective: float
    iterations: int
    solve_time: float
    polished: bool = False
    primal_residual: float = float("nan")
    dual_residual: float = float("nan")
    warm_started: bool = False
    factorizations: int = 0
    band_solves: int = 0

    @property
    def solved(self) -> bool:
        return self.status == "solved"


def kkt_residuals(qp: SparseQP, x, y) -> tuple[float, float, float]:
    """(primal, dual, complementarity) infinity-norm residuals of a candidate
    primal/dual pair under the QpSolution dual convention.

    The complementarity term is |y_i| times the distance of row i from the
    bound its multiplier pushes from (y > 0: lo, y < 0: hi); where that bound
    is infinite, the multiplier has the wrong sign and counts as |y_i|.
    """
    x, y = _array(x, "x", (qp.n,)), _array(y, "y", (qp.m_c,))
    ax = qp.A @ x
    primal = float(np.max(np.maximum(qp.lo - ax, ax - qp.hi), initial=0.0))
    dual = float(np.max(np.abs(qp.P @ x + qp.q - qp.A.T @ y), initial=0.0))
    bound = np.where(y > 0.0, qp.lo, qp.hi)
    gap = np.where(np.isfinite(bound), np.abs(ax - bound), 1.0)
    comp = float(np.max(np.abs(y) * gap, initial=0.0))
    return primal, dual, comp
