"""Sparse QP canonical form shared by both trajectory subproblem builders.

Problems are stated as

    minimize   1/2 x' P x + q' x
    subject to lo <= A x <= hi        (equalities encoded as lo == hi)

with P sparse symmetric PSD and A sparse. Infinite bounds are passed as
+-inf and replaced by a large finite sentinel before they reach any
factorization.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np
import scipy.sparse as sp

__all__ = [
    "INFTY",
    "SparseQP",
    "VariableLayout",
    "SolverSettings",
    "QpSolution",
    "RowBuilder",
    "TripletPattern",
    "diagonal",
    "pattern_hash",
]

# Sentinel standing in for infinity inside the solver; never fed to a
# factorization as literal inf.
INFTY = 1e30


class TripletPattern:
    """Fixed COO slot list with a cached CSC structure.

    Builders emit the same (row, col) slots on every call so that assembled
    matrices share an identical sparsity pattern regardless of values;
    duplicate slots accumulate and explicit zeros are kept structural.
    """

    def __init__(self, rows, cols, shape: tuple[int, int]):
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        if rows.shape != cols.shape:
            raise ValueError("triplet rows/cols length mismatch")
        if rows.size and (rows.min() < 0 or rows.max() >= shape[0]
                          or cols.min() < 0 or cols.max() >= shape[1]):
            raise ValueError("triplet index out of range")
        self.shape = shape
        self.n_slots = rows.size
        order = np.lexsort((rows, cols))
        sr, sc = rows[order], cols[order]
        # Unique (col, row) pairs in CSC order.
        if rows.size:
            new_entry = np.empty(sr.size, dtype=bool)
            new_entry[0] = True
            new_entry[1:] = (sr[1:] != sr[:-1]) | (sc[1:] != sc[:-1])
            entry_idx = np.cumsum(new_entry) - 1
            self._slot_to_pos = np.empty(sr.size, dtype=np.int64)
            self._slot_to_pos[order] = entry_idx
            self.indices = sr[new_entry].astype(np.int32)
            unique_cols = sc[new_entry]
            self.indptr = np.zeros(shape[1] + 1, dtype=np.int32)
            np.add.at(self.indptr, unique_cols + 1, 1)
            self.indptr = np.cumsum(self.indptr).astype(np.int32)
        else:
            self._slot_to_pos = np.zeros(0, dtype=np.int64)
            self.indices = np.zeros(0, dtype=np.int32)
            self.indptr = np.zeros(shape[1] + 1, dtype=np.int32)
        self.nnz = self.indices.size

    def assemble(self, values) -> sp.csc_matrix:
        values = np.asarray(values, dtype=float)
        if values.shape != (self.n_slots,):
            raise ValueError(f"expected {self.n_slots} slot values, got {values.shape}")
        data = np.zeros(self.nnz)
        np.add.at(data, self._slot_to_pos, values)
        return self.matrix(data)

    def positions(self, slots) -> np.ndarray:
        """Positions in the assembled ``data`` array of the given slots."""
        return self._slot_to_pos[slots]

    def matrix(self, data: np.ndarray) -> sp.csc_matrix:
        """CSC matrix of this pattern holding ``data`` (not copied)."""
        return sp.csc_matrix((data, self.indices.copy(), self.indptr.copy()),
                             shape=self.shape)


class RowBuilder:
    """Constraint rows of a fixed sparsity pattern, placed block by block.

    ``rows`` opens rows with their bounds and returns the first row index;
    ``diag``, ``block`` and ``slots`` place entries in opened rows. Entries on
    the same (row, column) accumulate, and zeros stay structural. ``slots``
    reserves zero entries for values that change between instances and
    returns their slot indices, which ``TripletPattern.positions`` maps into
    the assembled ``data`` array.
    """

    def __init__(self):
        self._rows, self._cols, self._vals, self._lo, self._hi = [], [], [], [], []

    def rows(self, lo, hi) -> int:
        """Open one row per entry of ``lo``; a scalar ``hi`` bounds them all."""
        r0 = len(self._lo)
        self._lo.extend(lo)
        self._hi.extend(hi if np.ndim(hi) else [hi] * (len(self._lo) - r0))
        return r0

    def diag(self, r0: int, c0: int, value: float, size: int = 3) -> None:
        self._place([r0 + k for k in range(size)], [c0 + k for k in range(size)],
                    [value] * size)

    def block(self, r0: int, c0: int, M) -> None:
        M = np.atleast_2d(np.asarray(M, dtype=float))
        h, w = M.shape
        self._place([r0 + i for i in range(h) for _ in range(w)],
                    [c0 + j for _ in range(h) for j in range(w)], M.ravel().tolist())

    def slots(self, r0: int, c0: int, ij) -> range:
        return self._place([r0 + i for i, _ in ij], [c0 + j for _, j in ij], [0.0] * len(ij))

    def _place(self, rows, cols, vals) -> range:
        start = len(self._rows)
        self._rows.extend(rows)
        self._cols.extend(cols)
        self._vals.extend(vals)
        return range(start, len(self._rows))

    def build(self, n: int) -> tuple[TripletPattern, np.ndarray, np.ndarray, np.ndarray]:
        """The pattern over ``n`` columns, its assembled ``data`` (reserved
        slots zero), and the lower and upper row bounds, all read-only:
        instances fill copies of them."""
        pattern = TripletPattern(self._rows, self._cols, (len(self._lo), n))
        arrays = (pattern.assemble(self._vals).data, np.array(self._lo, dtype=float),
                  np.array(self._hi, dtype=float))
        for a in arrays:
            a.setflags(write=False)
        return (pattern, *arrays)


def diagonal(d: np.ndarray) -> sp.csc_matrix:
    """Diagonal CSC matrix storing every diagonal entry, zeros included."""
    k = np.arange(d.size + 1, dtype=np.int32)
    return sp.csc_matrix((d, k[:-1], k), shape=(d.size, d.size))


def pattern_hash(M: sp.spmatrix) -> int:
    """Structural hash of a sparse matrix (shape and pattern, not values)."""
    M = M.tocsc()
    return hash((M.shape, M.indptr.tobytes(), M.indices.tobytes()))


_NO_COLUMNS = np.zeros(0, dtype=np.int64)
_NO_COLUMNS.setflags(write=False)


@dataclass(frozen=True)
class VariableLayout:
    """Maps (quantity, timestep, end-effector) to a column range.

    ``entries`` lists each distinct range once; ranges are disjoint and cover
    [0, n). Quantities sharing one variable across several timesteps (phase
    footholds) pass their extra keys in ``_lookup``, each mapped to the
    (start, stop) of one of the ``entries``, and resolve through ``span`` for
    any timestep they cover.
    """

    n: int
    entries: tuple[tuple[str, int, str | None, int, int], ...]
    _lookup: dict = field(repr=False, default_factory=dict)
    # quantity -> ((t, effector) of each entry, columns of every entry)
    _groups: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lookup, groups = {}, {}
        covered = np.zeros(self.n, dtype=bool)
        for quantity, t, eff, start, stop in self.entries:
            if np.any(covered[start:stop]):
                raise ValueError(f"layout ranges overlap at ({quantity}, {t}, {eff})")
            covered[start:stop] = True
            lookup.setdefault((quantity, t, eff), (start, stop))
            keys, cols = groups.setdefault(quantity, ([], []))
            keys.append((t, eff))
            cols.extend(range(start, stop))
        if not np.all(covered):
            raise ValueError("layout ranges do not cover [0, n)")
        ranges = {(start, stop) for *_, start, stop in self.entries}
        for key, rng in self._lookup.items():
            rng = tuple(rng)
            if rng not in ranges or lookup.setdefault(key, rng) != rng:
                raise ValueError(f"shared key {key} does not resolve to an entry range")
        object.__setattr__(self, "_lookup", lookup)
        for quantity, (keys, cols) in groups.items():
            cols = np.array(cols, dtype=np.int64)
            cols.setflags(write=False)
            groups[quantity] = (tuple(keys), cols)
        object.__setattr__(self, "_groups", groups)

    def span(self, quantity: str, t: int, effector: str | None = None) -> slice:
        try:
            start, stop = self._lookup[(quantity, t, effector)]
        except KeyError:
            raise KeyError(f"no variable ({quantity}, t={t}, effector={effector})") from None
        return slice(start, stop)

    def columns(self, quantity: str) -> np.ndarray:
        """Columns of every entry of ``quantity``, in entry order (read-only)."""
        return self._groups.get(quantity, ((), _NO_COLUMNS))[1]

    def keys(self, quantity: str) -> tuple[tuple[int, str | None], ...]:
        """(timestep, end-effector) of every entry of ``quantity``, in entry
        order."""
        return self._groups.get(quantity, ((), _NO_COLUMNS))[0]


@dataclass(frozen=True)
class SparseQP:
    """Quadratic program in the canonical two-sided row-bound form."""

    n: int
    m_c: int
    P: sp.csc_matrix
    q: np.ndarray
    A: sp.csc_matrix
    lo: np.ndarray
    hi: np.ndarray
    layout: VariableLayout | None = None

    def __post_init__(self):
        if self.P.shape != (self.n, self.n):
            raise ValueError(f"P shape {self.P.shape} != ({self.n}, {self.n})")
        if self.A.shape != (self.m_c, self.n):
            raise ValueError(f"A shape {self.A.shape} != ({self.m_c}, {self.n})")
        for name in ("q", "lo", "hi"):
            v = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, v)
        if self.q.shape != (self.n,):
            raise ValueError("q has wrong length")
        if self.lo.shape != (self.m_c,) or self.hi.shape != (self.m_c,):
            raise ValueError("bound vectors have wrong length")

    def validate(self, psd_tol: float = 1e-8) -> None:
        """Invariant checks; the PSD eigenvalue estimate is meant for
        desk-scale problems and is O(n^3)."""
        if not np.all(np.isfinite(self.q)):
            raise ValueError("q must be finite")
        if np.any(np.isnan(self.lo)) or np.any(np.isnan(self.hi)):
            raise ValueError("bounds must not be NaN")
        if np.any(self.lo > self.hi):
            raise ValueError("lo > hi on some row")
        gap = abs(self.P - self.P.T)
        if gap.nnz and gap.max() > 1e-12:
            raise ValueError("P is not symmetric")
        if self.n <= 2000:
            w = np.linalg.eigvalsh(self.P.toarray())
            if w[0] < -psd_tol:
                raise ValueError(f"P has negative eigenvalue {w[0]:.3e}")


@dataclass(frozen=True)
class SolverSettings:
    """Operator-splitting solver tolerances and iteration budget; defaults
    match the reference configuration used for both trajectory QPs.

    Termination is evaluated on unscaled residuals, so a solved status
    certifies the true constraint violations.
    """

    eps_abs: float = 1e-7
    eps_rel: float = 1e-7
    max_iterations: int = 100_000

    def __post_init__(self):
        for name in ("eps_abs", "eps_rel"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass(frozen=True)
class QpSolution:
    """Solver output. Duals follow the convention P x + q = A' y, so rows at
    their lower bound carry y >= 0 and rows at their upper bound y <= 0."""

    x: np.ndarray
    y: np.ndarray
    status: str  # solved | max_iter | primal_infeasible | dual_infeasible
    objective: float
    iterations: int
    solve_time: float
    polished: bool = False

    @property
    def solved(self) -> bool:
        return self.status == "solved"


def kkt_residuals(qp: SparseQP, x, y) -> tuple[float, float, float]:
    """(primal, dual, complementarity) infinity-norm residuals of a candidate
    primal/dual pair under the QpSolution dual convention."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    ax = qp.A @ x
    primal = float(np.max(np.maximum(qp.lo - ax, ax - qp.hi), initial=0.0))
    dual = float(np.max(np.abs(qp.P @ x + qp.q - qp.A.T @ y), initial=0.0))
    comp = 0.0
    for i in range(qp.m_c):
        if y[i] > 0.0 and np.isfinite(qp.lo[i]):
            comp = max(comp, y[i] * abs(ax[i] - qp.lo[i]))
        elif y[i] < 0.0 and np.isfinite(qp.hi[i]):
            comp = max(comp, -y[i] * abs(ax[i] - qp.hi[i]))
    return primal, dual, comp
