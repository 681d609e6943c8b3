"""Sparse/dense linear algebra kernels shared by the rest of the package.

There is one sparse type, :class:`SparseMatrix`: the design matrix, the
per-label means and the stored weights are each one row-compressed scipy CSR
matrix. One of its rows is a :class:`SparseVector`, the pair of views
``(indices, values)`` of the matrix's arrays. Dense feature-space vectors
(weight vectors, descent directions, the global feature mean) are plain
contiguous float64 numpy arrays. Matrix products are delegated to
scipy.sparse; everything else is numpy.

All arithmetic is in 64-bit floats. A matrix's arrays are frozen at
construction, so matrices and their rows can be shared read-only across
worker threads.
"""

from __future__ import annotations

from typing import Iterator, Mapping, NamedTuple, Sequence

import numpy as np
import scipy.sparse

from .errors import DimensionMismatchError, InvalidEntryError

# A dense feature-space vector is just a 1-d float64 ndarray.
DenseVector = np.ndarray


class SparseVector(NamedTuple):
    """A sparse vector as its ``(indices, values)`` arrays, indices strictly
    increasing; nothing is checked here. A matrix row is two views of the
    matrix's own arrays, so it is read-only and its indices keep the
    matrix's index dtype.
    """

    indices: np.ndarray
    values: np.ndarray

    @classmethod
    def from_dict(cls, entries: Mapping[int, float]) -> "SparseVector":
        """The vector holding ``entries``, in index order."""
        indices = np.array(sorted(entries), dtype=np.int64)
        return cls(indices, np.array([entries[k] for k in indices.tolist()], dtype=np.float64))

    def to_dense(self, dim: int) -> DenseVector:
        if self.indices.size and self.indices[-1] >= dim:
            raise DimensionMismatchError(
                f"index {int(self.indices[-1])} out of range for dimension {dim}"
            )
        out = np.zeros(dim, dtype=np.float64)
        out[self.indices] = self.values
        return out

    # perfbench/round.py counts model nonzeros by ``nnz`` and compares rows by ``==``.
    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def __eq__(self, other) -> bool:
        return all(map(np.array_equal, self, other))


class SparseMatrix:
    """Row-compressed matrix, shared read-only; iterating yields its rows.

    Arrays passed to the constructor are adopted and frozen wherever scipy
    keeps them; callers must not keep writable references. The constructor
    validates them: it raises :class:`InvalidEntryError`, naming the row and
    the column index, for a column index that is out of range or not
    strictly increasing within its row; it checks the arrays as given,
    before scipy narrows them, so an index beyond the int32 range is still
    out of range. :meth:`from_scipy` adopts a CSR matrix unchecked. The
    matrix is one scipy CSR: ``indptr``, ``indices`` and ``data`` are its
    arrays, the index arrays in scipy's index dtype (int32 unless the shape
    or the nonzero count needs int64). Its transpose is a CSC view of the
    same arrays, built once; the transpose of its elementwise square is built
    on first use and kept.

    The products take one vector or a 2-d block of them, one per column; a
    column of the block's product sums in the same order as the product with
    that column alone, so it has the same bits.
    """

    __slots__ = ("n_rows", "n_cols", "indptr", "indices", "data", "_csr", "_csc", "_csc_sq")

    def __init__(self, indptr, indices, data, n_cols: int):
        indptr = np.ascontiguousarray(indptr)
        indices = np.ascontiguousarray(indices)
        data = np.ascontiguousarray(data, dtype=np.float64)
        if indptr.ndim != 1 or indptr.size < 1:
            raise ValueError("indptr must be a 1-d array with at least one entry")
        n_rows = indptr.shape[0] - 1
        if indptr[0] != 0:
            raise ValueError("indptr must start at 0")
        # compared, not subtracted: a difference of int64 offsets can wrap
        if np.any(indptr[1:] < indptr[:-1]):
            raise ValueError("row offsets must be monotone non-decreasing")
        if indptr[-1] != indices.shape[0] or indices.shape[0] != data.shape[0]:
            raise ValueError("final offset must equal the number of nonzeros")
        if indices.size:
            bad = (indices < 0) | (indices >= n_cols)
            row_start = np.zeros(indices.shape[0], dtype=bool)
            row_start[indptr[:-1][np.diff(indptr) > 0]] = True
            bad[1:] |= (np.diff(indices) <= 0) & ~row_start[1:]
            if bad.any():
                pos = int(np.argmax(bad))
                j = int(indices[pos])
                what = "out of range" if not 0 <= j < n_cols else "repeated or out of order"
                row = int(np.searchsorted(indptr, pos, side="right")) - 1
                raise InvalidEntryError(f"index {j} {what} for {n_cols} columns", row, j)
        csr = scipy.sparse.csr_matrix((data, indices, indptr), shape=(n_rows, n_cols), copy=False)
        self._adopt(csr)

    @classmethod
    def from_scipy(cls, csr: scipy.sparse.csr_matrix) -> "SparseMatrix":
        """``csr`` itself, unchecked and frozen: for a CSR matrix the package
        built, with float64 data and each row's indices in range and
        strictly increasing."""
        matrix = cls.__new__(cls)
        matrix._adopt(csr)
        return matrix

    def _adopt(self, csr: scipy.sparse.csr_matrix) -> None:
        for arr in (csr.indptr, csr.indices, csr.data):
            arr.flags.writeable = False
        self.n_rows, self.n_cols = csr.shape
        self.indptr = csr.indptr
        self.indices = csr.indices
        self.data = csr.data
        self._csr = csr
        self._csc = csr.T
        self._csc_sq = None

    @classmethod
    def stack(
        cls,
        idx_parts: Sequence[np.ndarray],
        val_parts: Sequence[np.ndarray] | None,
        n_cols: int,
        *,
        sort: bool = False,
    ) -> "SparseMatrix":
        """The validated matrix whose row ``i`` holds ``idx_parts[i]`` and
        ``val_parts[i]`` (every value 1.0 when ``val_parts`` is None). With
        ``sort``, each row's entries are first put in index order, so a row
        may list them in any order; a repeated index stays invalid."""
        sizes = np.fromiter(map(len, idx_parts), dtype=np.int64, count=len(idx_parts))
        indptr = np.concatenate(([0], np.cumsum(sizes)))
        indices = np.concatenate([np.empty(0, dtype=np.int64), *idx_parts])
        if val_parts is None:
            data = np.ones(indices.shape[0])
        else:
            data = np.concatenate([np.empty(0), *val_parts])
        if sort:
            order = np.lexsort((indices, np.repeat(np.arange(sizes.shape[0]), sizes)))
            indices, data = indices[order], data[order]
        return cls(indptr, indices, data, n_cols)

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def to_scipy(self) -> scipy.sparse.csr_matrix:
        """The matrix itself, read-only: its arrays are this object's."""
        return self._csr

    def row(self, i: int) -> SparseVector:
        """Row ``i``: views of this matrix's index and value arrays."""
        if not 0 <= i < self.n_rows:
            raise IndexError(f"row {i} out of range for {self.n_rows} rows")
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return SparseVector(self.indices[lo:hi], self.data[lo:hi])

    def __iter__(self) -> Iterator[SparseVector]:
        # perfbench/round.py iterates over a model's weight rows.
        return (self.row(i) for i in range(self.n_rows))

    def matvec(self, w: np.ndarray) -> np.ndarray:
        """``X @ w`` for a vector ``w``, or an ``(n_cols, b)`` block of them."""
        if w.shape[0] != self.n_cols:
            raise DimensionMismatchError(
                f"vector length {w.shape[0]} != n_cols {self.n_cols}"
            )
        return self.to_scipy() @ w

    def rmatvec(self, coef: np.ndarray) -> np.ndarray:
        """``X.T @ coef`` for a vector ``coef``, or an ``(n_rows, b)`` block of them."""
        if coef.shape[0] != self.n_rows:
            raise DimensionMismatchError(
                f"coefficient length {coef.shape[0]} != n_rows {self.n_rows}"
            )
        return self._csc @ coef

    def rmatvec_squared(self, coef: np.ndarray) -> np.ndarray:
        """``(X * X).T @ coef`` with elementwise squaring, for a vector or an
        ``(n_rows, b)`` block. A square that overflows is ``inf``, without a
        warning. Threads that race to build the squares build the same."""
        if coef.shape[0] != self.n_rows:
            raise DimensionMismatchError(
                f"coefficient length {coef.shape[0]} != n_rows {self.n_rows}"
            )
        if self._csc_sq is None:
            with np.errstate(over="ignore"):
                squared = (self.data * self.data, self.indices, self.indptr)
            self._csc_sq = scipy.sparse.csr_matrix(squared, shape=self._csr.shape, copy=False).T
        return self._csc_sq @ coef

    def submatrix(self, rows: np.ndarray) -> "SparseMatrix":
        """Row-selection copy. Selecting every row returns ``self``."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.shape[0] == self.n_rows and np.array_equal(
            rows, np.arange(self.n_rows, dtype=np.int64)
        ):
            return self
        return SparseMatrix.from_scipy(self._csr[rows])

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseMatrix):
            return NotImplemented
        return (
            self.n_rows == other.n_rows
            and self.n_cols == other.n_cols
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.array_equal(self.data, other.data)
        )

    __hash__ = None

    def __repr__(self) -> str:
        return f"SparseMatrix({self.n_rows}x{self.n_cols}, nnz={self.nnz})"
