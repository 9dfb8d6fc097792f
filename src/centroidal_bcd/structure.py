"""What both trajectory QPs share: cost weights, the column and row layout of
the timesteps, the recursion rows, the skew-symmetric slots, the per-plan
cache, the placement of constraint entries and the plan-only block record.

Both QPs order their columns and rows timestep by timestep (each
timestep's pairs, then its own state), and every constraint row couples at
most two consecutive timesteps. :class:`Entries` places a QP's entries as
arrays over the whole horizon and hands them to
:meth:`QpPattern.from_entries`. Each QP's per-plan structure extends
:class:`BlockStructure`, which fills a build's copies of A's data and the
bounds and its state terms, assembles its ``SparseQP`` and guards extraction.
"""

from __future__ import annotations

import functools
import math
import weakref
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .model import ContactPlan, PairTable, _array, _float_array, _nonnegative
from .qp.problem import QpSolution, SparseQP

if TYPE_CHECKING:
    from .qp.pattern import QpPattern

__all__ = ["CostWeights", "QpNotSolved"]


class QpNotSolved(RuntimeError):
    """Raised when extraction is attempted on a non-solved QP solution."""

    def __init__(self, status: str):
        super().__init__(f"QP did not solve: status={status}")
        self.status = status


def _weights9(x, name: str) -> np.ndarray:
    """Nine state weights from 9 entries or 3 (one each for r, l and k)."""
    w = _float_array(x, name)
    w = _array(w, name, (9,) if w.size == 9 else (3,))
    for v in w.tolist():
        _nonnegative(v, name)
    w = np.repeat(w, 9 // w.size)
    w.setflags(write=False)
    return w


@dataclass(frozen=True)
class CostWeights:
    """Diagonal cost weights shared by both trajectory subproblems.

    ``tracking`` is the reference-tracking weight over the stacked state
    (r, l, k); ``running_h`` is the extra running penalty on the same
    deviation (kept separate so the contact subproblem, which carries no
    tracking term, can still see the state). ``terminal`` is added on the last
    timestep. Scalars weigh the squared magnitudes of forces and contact
    torques (force QP) and of the center-of-pressure offsets (``zmp``,
    contact QP), and the pull of footholds toward their nominal placement.
    """

    tracking: np.ndarray = field(default_factory=lambda: np.array([1e2, 1e1, 1e3]))
    running_h: np.ndarray = field(default_factory=lambda: np.array([1e2, 1e1, 1e3]))
    terminal: np.ndarray = field(default_factory=lambda: np.array([1e3, 1e4, 1e4]))
    force: float = 1e-9
    torque: float = 1e-4
    zmp: float = 1e-2
    foothold: float = 1e2

    def __post_init__(self):
        object.__setattr__(self, "tracking", _weights9(self.tracking, "tracking"))
        object.__setattr__(self, "running_h", _weights9(self.running_h, "running_h"))
        object.__setattr__(self, "terminal", _weights9(self.terminal, "terminal"))
        for name in ("force", "torque", "zmp", "foothold"):
            _nonnegative(getattr(self, name), name)

    def state(self, horizon: int) -> np.ndarray:
        """(N, 9) weights on each state's deviation from its reference:
        tracking, plus ``terminal`` on the last timestep, plus ``running_h``."""
        W = np.tile(self.tracking, (horizon, 1))
        W[-1] += self.terminal
        return W + self.running_h


# Off-diagonal (i, j) entries of a 3x3 cross-product matrix, and the sign and
# component of v giving skew(v)[i, j] for each.
SKEW_I = np.array([0, 0, 1, 1, 2, 2])
SKEW_J = np.array([1, 2, 0, 2, 0, 1])
_SKEW_SIGN = np.array([-1.0, 1.0, 1.0, -1.0, -1.0, 1.0])
_SKEW_COMPONENT = np.array([2, 1, 2, 0, 1, 0])


def skew_entries(V: np.ndarray) -> np.ndarray:
    """(k, 6) values of skew(v) at (``SKEW_I``, ``SKEW_J``) for each row v of
    ``V``."""
    return _SKEW_SIGN * V[:, _SKEW_COMPONENT]


def per_plan(build):
    """Cache ``build(plan)`` for as long as the plan lives. Plans hash by
    identity; the cached value must not refer back to its plan."""
    cache = weakref.WeakKeyDictionary()

    @functools.wraps(build)
    def cached(plan: ContactPlan):
        if plan not in cache:
            cache[plan] = build(plan)
        return cache[plan]

    return cached


def timestep_blocks(table: PairTable, head: int, width) -> tuple[np.ndarray, np.ndarray, int]:
    """First index of every timestep's head block and of every pair, and the
    total, when each timestep holds ``width[i]`` columns (or rows) for each of
    its pairs i, then ``head`` of its own, as both trajectory QPs order them.

    Pairs first: the recursion rows of timestep t then touch one contiguous
    run of columns, the state of t - 1, the pairs of t and the state of t, so
    the reduced Newton matrix of either QP has a half-bandwidth of 24 in this
    order."""
    before = np.concatenate([[0], np.cumsum(np.broadcast_to(width, table.t.shape))])
    N = table.start.size - 1
    return (head * np.arange(N) + before[table.start[1:]], head * table.t + before[:-1],
            head * N + int(before[-1]))


class Entries:
    """Constraint rows of a fixed sparsity pattern for an A of ``shape``,
    placed as arrays; ``lo`` and ``hi`` are the row bounds. Entries on the
    same (row, column) accumulate, and zeros stay structural."""

    def __init__(self, shape: tuple[int, int]):
        m = shape[0]
        self._shape = shape
        self.lo, self.hi, self._parts, self._size = np.full(m, np.nan), np.full(m, np.nan), [], 0

    def add(self, rows, cols, vals=0.0) -> np.ndarray:
        """Place entries (rows, columns and values broadcast together) and
        return their indices, which ``QpPattern.positions`` maps into the
        assembled ``data`` array."""
        shape = np.broadcast_shapes(np.shape(rows), np.shape(cols), np.shape(vals))
        index = self._size + np.arange(math.prod(shape)).reshape(shape)
        self._parts.append((index, rows, cols, vals))
        self._size += index.size
        return index

    def build(self) -> tuple[QpPattern, np.ndarray, np.ndarray, np.ndarray]:
        """The QP's record, A's assembled ``data`` (reserved slots zero) and
        the row bounds, read-only: builds fill copies."""
        from .qp.pattern import QpPattern
        rows, cols, vals = (np.empty(self._size, dtype=d) for d in (np.intp, np.intp, float))
        start = 0
        for index, *part in self._parts:
            for out, a in zip((rows, cols, vals), part):
                out[start:start + index.size].reshape(index.shape)[...] = a
            start += index.size
        pattern = QpPattern.from_entries(rows, cols, self._shape)
        arrays = (pattern.assemble(vals), self.lo, self.hi)
        for a in arrays:
            a.setflags(write=False)
        return (pattern, *arrays)


def recursion_rows(e: Entries, plan: ContactPlan, cols: np.ndarray, row: np.ndarray,
                   quantity: str, rhs) -> np.ndarray:
    """Rows x_t - x_{t-1} (+ terms placed by the caller) = rhs of the state
    quantity "r", "l" or "k" from row ``row[t]`` of every timestep, with
    x_{-1} the plan's initial state moved to the right-hand side. Returns
    the (N, 3) rows."""
    c = 3 * "rlk".index(quantity)
    rows, x = row[:, None] + np.arange(3), cols[:, c:c + 3]
    e.add(rows, x, 1.0)
    e.add(rows[1:], x[:-1], -1.0)
    rhs = np.tile(rhs, (row.size, 1))
    rhs[0] = rhs[0] + plan.h0[c:c + 3]
    e.lo[rows] = e.hi[rows] = rhs
    return rows


def com_rows(e: Entries, plan: ContactPlan, cols: np.ndarray, row: np.ndarray) -> None:
    """CoM recursion r_t - r_{t-1} - (dt/m) l_t = 0."""
    rows = recursion_rows(e, plan, cols, row, "r", np.zeros(3))
    e.add(rows, cols[:, 3:6], -plan.dt / plan.mass)


@dataclass(frozen=True)
class BlockStructure:
    """Plan-only part of one trajectory QP, which each QP's ``_Structure``
    extends with the columns, rows and A.data positions its builds fill."""

    n: int                    # columns
    pattern: QpPattern
    a_data: np.ndarray        # constant entries; slots that builds fill hold zero
    lo: np.ndarray            # row bounds before a build's additions
    hi: np.ndarray
    state_cols: np.ndarray    # (N, 9) (r, l, k) of each timestep

    def fill(self, W, inputs):
        """Copies of A's data, ``lo`` and ``hi``, and P's diagonal and q with
        the state terms: the weight ``W`` on the deviation from the inputs'
        ``references``, and their ``l_prox`` toward their ``h_reg``."""
        d, q = np.zeros(self.n), np.zeros(self.n)
        d[self.state_cols] = 2.0 * W + inputs.l_prox
        q[self.state_cols] = -2.0 * W * inputs.references
        if inputs.h_reg is not None and inputs.l_prox > 0.0:
            q[self.state_cols] -= inputs.l_prox * inputs.h_reg
        return self.a_data.copy(), self.lo.copy(), self.hi.copy(), d, q

    def qp(self, a_data, lo, hi, d, q, x0=None) -> SparseQP:
        """The QP of a build's arrays, its matrices on the record's pattern."""
        return SparseQP(n=self.n, m_c=lo.size, P=self.pattern.p_matrix(d), q=q,
                        A=self.pattern.a_matrix(a_data), lo=lo, hi=hi, x0=x0, pattern=self.pattern)

    @staticmethod
    def solution(sol: QpSolution) -> np.ndarray:
        """A solved QP's x; any other status raises ``QpNotSolved``."""
        if not sol.solved:
            raise QpNotSolved(sol.status)
        return sol.x
