"""Sparse/dense linear algebra kernels shared by the rest of the package.

Feature-space vectors come in two flavours: :class:`SparseVector` (sorted
index/value pairs, such as one row of a matrix) and plain contiguous float64
numpy arrays (weight vectors, descent directions, the global feature mean).
The design matrix, the per-label means and the stored weights are
row-compressed :class:`SparseMatrix` objects. Matrix products are delegated
to scipy.sparse; everything else is numpy.

All arithmetic is in 64-bit floats. Matrices and sparse vectors are frozen
after construction so they can be shared read-only across worker threads.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np
import scipy.sparse

from .errors import DimensionMismatchError, InvalidEntryError

# A dense feature-space vector is just a 1-d float64 ndarray.
DenseVector = np.ndarray


def _index_array(indices, copy: bool) -> np.ndarray:
    arr = np.array(indices, dtype=np.int64, copy=copy, order="C")
    if arr.ndim != 1:
        raise ValueError(f"expected 1-d index array, got shape {arr.shape}")
    return arr


def _value_array(values, copy: bool) -> np.ndarray:
    arr = np.array(values, dtype=np.float64, copy=copy, order="C")
    if arr.ndim != 1:
        raise ValueError(f"expected 1-d value array, got shape {arr.shape}")
    return arr


class SparseVector:
    """Immutable sparse vector: strictly increasing indices, float64 values.

    Duplicate indices are rejected at construction rather than summed.
    Explicit zero values are permitted.
    """

    __slots__ = ("indices", "values")

    def __init__(self, indices, values, *, _trusted: bool = False):
        idx = _index_array(indices, copy=not _trusted)
        val = _value_array(values, copy=not _trusted)
        if not _trusted:
            if idx.shape[0] != val.shape[0]:
                raise DimensionMismatchError(
                    f"{idx.shape[0]} indices but {val.shape[0]} values"
                )
            if idx.size:
                if idx[0] < 0:
                    raise ValueError("negative feature index")
                if np.any(np.diff(idx) <= 0):
                    raise ValueError(
                        "indices must be strictly increasing (duplicates are rejected)"
                    )
            idx.flags.writeable = False
            val.flags.writeable = False
        self.indices = idx
        self.values = val

    @classmethod
    def empty(cls) -> "SparseVector":
        return cls(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64))

    @classmethod
    def from_dict(cls, entries: Mapping[int, float]) -> "SparseVector":
        items = sorted(entries.items())
        return cls([k for k, _ in items], [v for _, v in items])

    @classmethod
    def from_dense(cls, dense: Sequence[float]) -> "SparseVector":
        arr = np.asarray(dense, dtype=np.float64)
        idx = np.flatnonzero(arr)
        return cls(idx.astype(np.int64), arr[idx])

    @property
    def nnz(self) -> int:
        return int(self.indices.shape[0])

    def to_dense(self, dim: int) -> DenseVector:
        if self.indices.size and self.indices[-1] >= dim:
            raise DimensionMismatchError(
                f"index {int(self.indices[-1])} out of range for dimension {dim}"
            )
        out = np.zeros(dim, dtype=np.float64)
        out[self.indices] = self.values
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseVector):
            return NotImplemented
        return np.array_equal(self.indices, other.indices) and np.array_equal(
            self.values, other.values
        )

    __hash__ = None  # mutable-adjacent container semantics

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"{int(i)}:{v:g}" for i, v in zip(self.indices[:6], self.values[:6])
        )
        tail = ", ..." if self.nnz > 6 else ""
        return f"SparseVector({pairs}{tail})"


class SparseMatrix:
    """Row-compressed matrix, shared read-only; iterating yields its rows.

    Arrays passed to the constructor are adopted and frozen; callers must
    not keep writable references. Validation raises
    :class:`InvalidEntryError`, naming the row, for a column index that is
    out of range or not strictly increasing within its row. scipy CSR views
    are materialized lazily and cached for the matvec paths.
    """

    __slots__ = ("n_rows", "n_cols", "indptr", "indices", "data", "_csr", "_csr_sq")

    def __init__(self, indptr, indices, data, n_cols: int, *, validate: bool = True):
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        data = np.ascontiguousarray(data, dtype=np.float64)
        if indptr.ndim != 1 or indptr.size < 1:
            raise ValueError("indptr must be a 1-d array with at least one entry")
        n_rows = indptr.shape[0] - 1
        if validate:
            if indptr[0] != 0:
                raise ValueError("indptr must start at 0")
            if np.any(np.diff(indptr) < 0):
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
                    raise InvalidEntryError(f"index {j} {what} for {n_cols} columns", row)
        for arr in (indptr, indices, data):
            arr.flags.writeable = False
        self.n_rows = n_rows
        self.n_cols = int(n_cols)
        self.indptr = indptr
        self.indices = indices
        self.data = data
        self._csr = None
        self._csr_sq = None

    @classmethod
    def from_rows(cls, rows: Iterable[SparseVector], n_cols: int) -> "SparseMatrix":
        indptr = [0]
        idx_parts = []
        val_parts = []
        for row in rows:
            idx_parts.append(row.indices)
            val_parts.append(row.values)
            indptr.append(indptr[-1] + row.nnz)
        indices = np.concatenate(idx_parts) if idx_parts else np.empty(0, dtype=np.int64)
        data = np.concatenate(val_parts) if val_parts else np.empty(0, dtype=np.float64)
        return cls(np.asarray(indptr, dtype=np.int64), indices, data, n_cols)

    @property
    def nnz(self) -> int:
        return int(self.indptr[-1])

    def to_scipy(self) -> scipy.sparse.csr_matrix:
        if self._csr is None:
            self._csr = scipy.sparse.csr_matrix(
                (self.data, self.indices, self.indptr),
                shape=(self.n_rows, self.n_cols),
                copy=False,
            )
        return self._csr

    def _squared(self) -> scipy.sparse.csr_matrix:
        if self._csr_sq is None:
            self._csr_sq = scipy.sparse.csr_matrix(
                (self.data * self.data, self.indices, self.indptr),
                shape=(self.n_rows, self.n_cols),
                copy=False,
            )
        return self._csr_sq

    def row(self, i: int) -> SparseVector:
        if not 0 <= i < self.n_rows:
            raise IndexError(f"row {i} out of range for {self.n_rows} rows")
        lo, hi = self.indptr[i], self.indptr[i + 1]
        return SparseVector(self.indices[lo:hi], self.data[lo:hi], _trusted=True)

    def __iter__(self) -> Iterator[SparseVector]:
        return (self.row(i) for i in range(self.n_rows))

    def matvec(self, w: DenseVector) -> DenseVector:
        """``X @ w``."""
        if w.shape[0] != self.n_cols:
            raise DimensionMismatchError(
                f"vector length {w.shape[0]} != n_cols {self.n_cols}"
            )
        return self.to_scipy() @ w

    def rmatvec(self, coef: DenseVector) -> DenseVector:
        """``X.T @ coef``."""
        if coef.shape[0] != self.n_rows:
            raise DimensionMismatchError(
                f"coefficient length {coef.shape[0]} != n_rows {self.n_rows}"
            )
        return self.to_scipy().T @ coef

    def rmatvec_squared(self, coef: DenseVector) -> DenseVector:
        """``(X * X).T @ coef`` with elementwise squaring."""
        if coef.shape[0] != self.n_rows:
            raise DimensionMismatchError(
                f"coefficient length {coef.shape[0]} != n_rows {self.n_rows}"
            )
        return self._squared().T @ coef

    def column_sums(self) -> DenseVector:
        return self.rmatvec(np.ones(self.n_rows, dtype=np.float64))

    def submatrix(self, rows: np.ndarray) -> "SparseMatrix":
        """Row-selection copy. Selecting every row returns ``self``."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.shape[0] == self.n_rows and np.array_equal(
            rows, np.arange(self.n_rows, dtype=np.int64)
        ):
            return self
        sub = self.to_scipy()[rows]
        return SparseMatrix(
            sub.indptr.astype(np.int64, copy=False),
            sub.indices.astype(np.int64, copy=False),
            sub.data,
            self.n_cols,
            validate=False,
        )

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
