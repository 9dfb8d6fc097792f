"""The symbolic record of a QP: everything the solver handles derive from
the patterns of P and A alone, built once and shared by every handle.

A :class:`QpPattern` holds A's CSC pattern and where each of its builder's
entries lands in it, and the :class:`BandMap` of P + shift I +
A' diag(w) A. Handles keep references to its arrays; none copies them.

A trajectory builder makes the record from the entries it places
(:meth:`QpPattern.from_entries`) once per plan, so every build of that
QP's values reuses it. A QP that comes without a record (built anywhere
else) gets one at setup from its own CSC matrices (:meth:`QpPattern.of`),
by the same code.

scipy is imported only where a matrix is made.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    import scipy.sparse as sp

    from .problem import SparseQP

__all__ = ["BandMap", "QpPattern"]


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)


class BandMap:
    """Where every term of P + shift I + A' diag(w) A lands in its lower
    band, for fixed patterns of P and A, in the problem's own column order.

    A term is the product of two stored values of ``[A.data, P.data, 1]``
    (``left`` and ``right`` index that array), weighted by one of
    ``[w, 1, shift]``: a pair of A entries sharing a row k of A (in the
    lower-triangle orientation only) with weight w_k, a lower entry of P
    times 1 with weight 1, or 1 times 1 on the diagonal with weight shift.
    The band is LAPACK lower storage in Fortran order, so band entry
    (i - j, j) sits at flat position ``slot`` = j (bandwidth + 1) + i - j,
    the half-bandwidth being the largest i - j among the terms.

    The terms are listed by weight (A's rows in order, then P, then the
    diagonal), which makes them the ``data`` of a CSC matrix with one column
    per weight (``indptr``) and one row per band slot: the band is that
    matrix times the weights, each slot summing its terms in A's row order,
    then P's, then the diagonal's. :class:`QpPattern` builds the map with
    the rest of the record, from A's entries in CSC order and P's pattern;
    its arrays are read-only, and the slots and ``indptr`` int32, as scipy
    stores them.
    """

    def __init__(self, n: int, m: int, rows: np.ndarray, cols: np.ndarray,
                 p_indptr: np.ndarray, p_indices: np.ndarray):
        # A's entries (``rows`` and ``cols`` in CSC order) grouped by row:
        # within a row they run in column order, since CSC positions grow
        # with the column.
        by_row = np.argsort(rows, kind="stable")
        row_count = np.bincount(rows, minlength=m)
        row_start = np.cumsum(row_count) - row_count
        r, c = rows[by_row], cols[by_row]
        # A record stores each (row, column) once, so the columns rise
        # strictly within a row, and each entry's lower-orientation partners
        # are the entries of its row up to itself: entry a, the k-th of its
        # row, pairs with the first k + 1.
        reps = np.arange(1, r.size + 1) - row_start[r]
        b = np.arange(int(reps.sum())) - np.repeat(np.cumsum(reps) - reps - row_start[r], reps)
        p_cols = np.repeat(np.arange(n), np.diff(p_indptr))
        p_lower = np.flatnonzero(p_indices >= p_cols)
        # Indices into [A.data, P.data, 1]; intp, as gathers run several
        # times faster on them than on int32.
        one, diagonal = rows.size + p_indices.size, np.arange(n)
        self.left = np.concatenate([np.repeat(by_row, reps), rows.size + p_lower,
                                    np.full(n, one)])
        self.right = np.concatenate([by_row[b], np.full(p_lower.size + n, one)])
        i = np.concatenate([np.repeat(c, reps), p_indices[p_lower], diagonal])
        j = np.concatenate([c[b], p_cols[p_lower], diagonal])
        self.half_bandwidth = int(np.max(i - j, initial=0))
        width = self.half_bandwidth + 1
        self.n, self.shape = n, (n * width, m + 2)
        self.slot = (j * width + (i - j)).astype(np.int32)
        # The terms run through A's rows in order, then P, then the
        # diagonal: the weight columns' counts.
        self.indptr = np.zeros(m + 3, dtype=np.int32)
        np.cumsum(np.concatenate([row_count * (row_count + 1) // 2, [p_lower.size, n]]),
                  out=self.indptr[1:])
        _read_only(self.left, self.right, self.slot, self.indptr)

    def term_values(self, P_data: np.ndarray, A_data: np.ndarray, out=None) -> np.ndarray:
        """Every unweighted term for the given values of the two patterns,
        in the order of the term matrix's ``data``; written to ``out`` when
        given (a term matrix's own ``data``, refreshed in place)."""
        values = np.concatenate([A_data, P_data, [1.0]])
        out = np.take(values, self.left, out=out, mode="clip")
        out *= np.take(values, self.right, mode="clip")
        return out

    def terms(self, P_data: np.ndarray, A_data: np.ndarray) -> sp.csc_matrix:
        """The term matrix: each unweighted term in its band slot's row and
        its weight's column. A matrix refreshed on every value update keeps
        its structure and takes new :meth:`term_values` into its ``data``,
        which skips the 20-50 us of format checks that building a scipy
        matrix costs."""
        import scipy.sparse as sp
        return sp.csc_matrix((self.term_values(P_data, A_data), self.slot, self.indptr),
                             shape=self.shape)

    def band(self, terms: sp.csc_matrix, w: np.ndarray, shift: float) -> np.ndarray:
        """The lower band of P + shift I + A' diag(w) A, Fortran-ordered."""
        band = terms @ np.concatenate([w, [1.0, shift]])
        return band.reshape(self.n, -1).T


class QpPattern:
    """The plan-only record of one QP's patterns (see the module docstring).

    ``a_indptr`` and ``a_indices`` are A's CSC pattern, and ``p_indptr``
    and ``p_indices`` P's, all int32 as scipy stores them. ``slot_pos``
    maps each entry its builder placed to its position in A's ``data``
    (entries on one (row, column) share it). Every array is read-only.
    """

    def __init__(self, n, m, a_indptr, a_indices, slot_pos, p_indptr, p_indices,
                 band_map: BandMap):
        self.n, self.m = n, m
        self.a_indptr, self.a_indices, self.slot_pos = a_indptr, a_indices, slot_pos
        self.p_indptr, self.p_indices = p_indptr.astype(np.int32), p_indices.astype(np.int32)
        self.nnz = int(a_indices.size)
        _read_only(self.a_indptr, self.a_indices, self.p_indptr, self.p_indices, slot_pos)
        self.band_map = band_map

    @classmethod
    def from_entries(cls, rows, cols, shape: tuple[int, int],
                     p_pattern: tuple[np.ndarray, np.ndarray] | None = None) -> QpPattern:
        """The record of an A of ``shape`` holding the entries (``rows``,
        ``cols``), entries on one (row, column) sharing a position.
        ``p_pattern`` is P's (indptr, indices); None means a diagonal P
        storing every diagonal entry. Raises ``ValueError`` when an entry
        lies outside A."""
        rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
        m, n = shape
        if rows.shape != cols.shape:
            raise ValueError("entry rows and columns differ in length")
        if rows.size and (rows.min() < 0 or rows.max() >= m
                          or cols.min() < 0 or cols.max() >= n):
            raise ValueError("entry index out of range")
        # One sort of the entries by column, then row, gives A's CSC
        # pattern.
        key = cols * m + rows
        order = np.argsort(key, kind="stable")
        key = key[order]
        new = np.ones(key.size, dtype=bool)
        new[1:] = key[1:] != key[:-1]
        slot_pos = np.empty(key.size, dtype=np.intp)
        slot_pos[order] = np.cumsum(new) - 1
        entry_cols, entry_rows = np.divmod(key[new], max(m, 1))
        a_indptr = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(np.bincount(entry_cols, minlength=n), out=a_indptr[1:])
        if p_pattern is None:
            p_indptr, p_indices = np.arange(n + 1), np.arange(n)
        else:
            p_indptr, p_indices = (np.asarray(v, dtype=np.intp) for v in p_pattern)
        return cls(n, m, a_indptr, entry_rows.astype(np.int32), slot_pos, p_indptr, p_indices,
                   BandMap(n, m, entry_rows, entry_cols, p_indptr, p_indices))

    @classmethod
    def of(cls, qp: SparseQP) -> QpPattern:
        """The record of ``qp``'s own patterns (see :func:`canonical`). A
        must store each (row, column) once: the band map pairs each row's
        entries in column order, which a duplicate would break, so one
        raises ``ValueError`` naming A."""
        P, A = canonical(qp.P), canonical(qp.A)
        cols = np.repeat(np.arange(qp.n), np.diff(A.indptr))
        pattern = cls.from_entries(A.indices, cols, (qp.m_c, qp.n),
                                   p_pattern=(P.indptr, P.indices))
        if pattern.nnz < A.nnz:
            k = int(np.argmax(np.bincount(pattern.slot_pos) > 1))
            col = int(np.searchsorted(pattern.a_indptr, k, side="right")) - 1
            raise ValueError(f"A holds duplicate entries at ({pattern.a_indices[k]}, {col})")
        return pattern

    def positions(self, slots) -> np.ndarray:
        """Positions in A's ``data`` of the given builder entries."""
        return self.slot_pos[slots]

    def assemble(self, values: np.ndarray) -> np.ndarray:
        """A's ``data`` holding ``values`` (one per builder entry), entries
        on one (row, column) summed in entry order."""
        if values.shape != self.slot_pos.shape:
            raise ValueError(f"expected {self.slot_pos.size} entry values, got {values.shape}")
        return np.bincount(self.slot_pos, weights=values, minlength=self.nnz)

    def a_matrix(self, data: np.ndarray) -> sp.csc_matrix:
        """A as a CSC matrix holding ``data`` (not copied) on this record's
        own index arrays, which is how a handle recognizes it."""
        return _matrix(data, self.a_indices, self.a_indptr, (self.m, self.n))

    def p_matrix(self, data: np.ndarray) -> sp.csc_matrix:
        """P as :meth:`a_matrix` makes A."""
        return _matrix(data, self.p_indices, self.p_indptr, (self.n, self.n))

    def holds(self, qp: SparseQP) -> bool:
        """Whether ``qp``'s P and A are matrices of this record's own index
        arrays: an identity test, no comparison."""
        return (qp.A.indices is self.a_indices and qp.A.indptr is self.a_indptr
                and qp.P.indices is self.p_indices and qp.P.indptr is self.p_indptr)


def _matrix(data, indices, indptr, shape) -> sp.csc_matrix:
    import scipy.sparse as sp
    M = sp.csc_matrix((data, indices, indptr), shape=shape)
    # scipy keeps a view of ``indices``; the record's own array goes back.
    M.indices, M.indptr = indices, indptr
    return M


def canonical(M) -> sp.csc_matrix:
    """``M`` in CSC form with each column's rows in ascending order (a
    sorted copy when they are not)."""
    M = M.tocsc()
    return M if M.has_sorted_indices else M.sorted_indices()
