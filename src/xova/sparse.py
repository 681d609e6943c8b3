"""Sparse/dense linear algebra kernels shared by the rest of the package.

There is one sparse type, :class:`SparseMatrix`: the design matrix, the
per-label means and the stored weights are each one row-compressed scipy CSR
matrix. One of its rows is a :class:`SparseVector`, the pair of views
``(indices, values)`` of the matrix's arrays. Dense feature-space vectors
(weight vectors, descent directions, the global feature mean) are plain
contiguous float64 numpy arrays. Matrix products call scipy's own sparse
kernels, the ``_sparsetools`` functions that scipy's ``@`` calls, so that a
caller can pass the output array; everything else is numpy.

All arithmetic is in 64-bit floats. A matrix's arrays are frozen at
construction, so matrices and their rows can be shared read-only across
worker threads.
"""

from __future__ import annotations

from typing import Iterator, Mapping, NamedTuple, NoReturn, Sequence

import numpy as np
import scipy.sparse
from scipy.sparse import _sparsetools

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

    The constructor is the one way to make a matrix, so every matrix has
    passed its structural check: a range test on the arrays as given (before
    scipy narrows them, so an index beyond int32 is still out of range) and
    scipy's ``has_canonical_format``, one C pass that allocates nothing per
    nonzero; index arrays with entries must be of an integer dtype, not bool,
    which scipy would cast. Only a matrix that fails is checked again with
    per-nonzero masks, to name the fault: a ValueError for bad row offsets,
    or an :class:`InvalidEntryError` naming the row and the column index of
    the first index out of range or not strictly increasing in its row. The
    given arrays, and every array they view, become read-only, as scipy
    keeps them uncopied where their dtypes are its own (another view of the
    same memory, taken before, stays writable). The matrix is one scipy
    CSR: ``indptr``, ``indices`` and ``data`` are its arrays, the index
    arrays in scipy's index dtype (int32 unless the shape or the nonzero
    count needs int64). Its transpose is a CSC view of the same
    arrays, built once; the transpose of its elementwise square is built on
    first use and kept.

    The products take one vector or a 2-d block of them, one per column; a
    column of the block's product sums in the same order as the product with
    that column alone, so it has the same bits. Each product is written into
    ``out`` where one is given (a C-contiguous float64 array of the
    product's shape, whose values are overwritten), and into a new array
    otherwise.
    """

    __slots__ = ("n_rows", "n_cols", "indptr", "indices", "data", "_csr", "_csc", "_csc_sq")

    def __init__(self, indptr, indices, data, n_cols: int):
        indptr = np.ascontiguousarray(indptr)
        indices = np.ascontiguousarray(indices)
        data = np.ascontiguousarray(data, dtype=np.float64)
        nnz, csr = indices.shape[0], None
        # no offset beyond nnz: scipy's pass then reads inside the arrays
        if (indptr.ndim == 1 and indptr.size and indptr.dtype.kind in "iu" and indptr[0] == 0
                and indptr.max() <= nnz and indptr[-1] == nnz == data.shape[0]
                and (not nnz or indices.dtype.kind in "iu"
                     and 0 <= indices.min() and indices.max() < n_cols)):
            shape = (indptr.shape[0] - 1, n_cols)
            csr = scipy.sparse.csr_matrix((data, indices, indptr), shape=shape, copy=False)
        if csr is None or not csr.has_canonical_format:
            _name_fault(indptr, indices, data, n_cols)
        # scipy keeps views of the given arrays, which may be views themselves
        for arr in (indptr, indices, data, csr.indptr, csr.indices, csr.data):
            while isinstance(arr, np.ndarray):
                arr.flags.writeable = False
                arr = arr.base
        self.n_rows, self.n_cols = csr.shape
        self.indptr, self.indices, self.data = csr.indptr, csr.indices, csr.data
        self._csr, self._csc, self._csc_sq = csr, csr.T, None

    @classmethod
    def stack(
        cls,
        idx_parts: Sequence[np.ndarray],
        val_parts: Sequence[np.ndarray] | None,
        n_cols: int,
    ) -> "SparseMatrix":
        """The validated matrix whose row ``i`` holds ``idx_parts[i]`` and
        ``val_parts[i]`` (every value 1.0 when ``val_parts`` is None)."""
        sizes = np.fromiter(map(len, idx_parts), dtype=np.int64, count=len(idx_parts))
        indptr = np.concatenate(([0], np.cumsum(sizes)))
        # checked per part: concatenated beside integer parts, a bool part becomes
        # int64; a part that is not an array, such as [0, True], per element
        for row, p in enumerate(idx_parts):
            if isinstance(p, np.ndarray):
                if p.size and p.dtype.kind not in "iu":
                    _not_integers(p, row)
            elif bools := [e for e in p if isinstance(e, (bool, np.bool_))]:
                _not_integers(np.array(bools), row)
        parts = [p for p in idx_parts if len(p)]  # an empty list would read as float64
        indices = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        if val_parts is None:
            data = np.ones(indices.shape[0])
        else:
            data = np.concatenate([np.empty(0), *val_parts])
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

    def matvec(self, w: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``X @ w`` for a vector ``w``, or an ``(n_cols, b)`` block of them."""
        if w.shape[0] != self.n_cols:
            raise DimensionMismatchError(
                f"vector length {w.shape[0]} != n_cols {self.n_cols}"
            )
        return _product(self._csr, w, out)

    def rmatvec(self, coef: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``X.T @ coef`` for a vector ``coef``, or an ``(n_rows, b)`` block of them."""
        if coef.shape[0] != self.n_rows:
            raise DimensionMismatchError(
                f"coefficient length {coef.shape[0]} != n_rows {self.n_rows}"
            )
        return _product(self._csc, coef, out)

    def rmatvec_squared(self, coef: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
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
        return _product(self._csc_sq, coef, out)

    def rmatvec_sparse(
        self, rows: Sequence[np.ndarray], coef: Sequence[np.ndarray], out: np.ndarray
    ) -> np.ndarray:
        """``X.T @ C`` for the ``(n_rows, r)`` coefficients ``C`` whose column
        ``j`` holds ``coef[j]`` at the rows ``rows[j]`` (increasing,
        unchecked) and 0 elsewhere, written as the ``(r, n_cols)`` rows of
        ``out``. The columns of ``C`` become the rows of a CSR, in an index
        dtype wide enough for the product, which scipy's kernel for two CSR
        matrices (``csr_matmat``, which its ``@`` calls) multiplies with X: it
        reads no row of X that ``rows`` does not name. Each entry sums its
        terms in increasing row order from +0, as :meth:`rmatvec`'s does, and
        an absent coefficient would only add a signed zero to it: row ``j`` of
        ``out`` has the bits of column ``j`` of ``rmatvec`` of ``C``."""
        r, dim = out.shape
        indptr = np.cumsum([0, *map(len, rows)])
        rows, coef = np.concatenate(rows), np.concatenate(coef)
        # no more output entries than terms: the rows' nonzeros, at most
        bound = min(r * dim, int((self.indptr[rows + 1] - self.indptr[rows]).sum()))
        itype = np.int64 if bound > np.iinfo(np.int32).max else self.indices.dtype
        X_indptr, X_indices = (np.asarray(a, dtype=itype) for a in (self.indptr, self.indices))
        C_indptr, C_indices = np.empty(r + 1, dtype=itype), np.empty(bound, dtype=itype)
        C_data = np.empty(bound)
        _sparsetools.csr_matmat(r, dim, indptr.astype(itype, copy=False),
                                rows.astype(itype, copy=False), coef,
                                X_indptr, X_indices, self.data, C_indptr, C_indices, C_data)
        out.fill(0.0)
        _sparsetools.csr_todense(r, dim, C_indptr, C_indices, C_data, out)
        return out

    def submatrix(self, rows: np.ndarray) -> "SparseMatrix":
        """Row-selection copy. Selecting every row returns ``self``."""
        rows = np.asarray(rows, dtype=np.int64)
        if rows.shape[0] == self.n_rows and np.array_equal(
            rows, np.arange(self.n_rows, dtype=np.int64)
        ):
            return self
        csr = self._csr[rows]
        return SparseMatrix(csr.indptr, csr.indices, csr.data, self.n_cols)

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


def _name_fault(indptr, indices, data, n_cols: int) -> NoReturn:
    """Raise the error naming the first fault of a matrix that failed the check."""
    if indptr.ndim != 1 or indptr.size < 1:
        raise ValueError("indptr must be a 1-d array with at least one entry")
    if indptr.dtype.kind not in "iu":  # scipy would cast floats and bools without a word
        raise ValueError(f"row offsets must be integers, not {indptr.dtype}")
    if indptr[0] != 0:
        raise ValueError("indptr must start at 0")
    # compared, not subtracted: a difference of int64 offsets can wrap
    if np.any(indptr[1:] < indptr[:-1]):
        raise ValueError("row offsets must be monotone non-decreasing")
    if indptr[-1] != indices.shape[0] or indices.shape[0] != data.shape[0]:
        raise ValueError("final offset must equal the number of nonzeros")
    if indices.dtype.kind not in "iu":
        _not_integers(indices, int(np.searchsorted(indptr, 0, side="right")) - 1)
    bad = (indices < 0) | (indices >= n_cols)
    row_start = np.zeros(indices.shape[0], dtype=bool)
    row_start[indptr[:-1][np.diff(indptr) > 0]] = True
    bad[1:] |= (np.diff(indices) <= 0) & ~row_start[1:]
    pos = int(np.argmax(bad))
    j = int(indices[pos])
    what = "out of range" if not 0 <= j < n_cols else "repeated or out of order"
    row = int(np.searchsorted(indptr, pos, side="right")) - 1
    raise InvalidEntryError(f"index {j} {what} for {n_cols} columns", row, j)


def _not_integers(indices: np.ndarray, row: int) -> NoReturn:
    """Raise the error for index entries, the first in ``row``, of a dtype not integer."""
    raise InvalidEntryError(f"index {indices[0].item()!r} of dtype {indices.dtype}, not an integer",
                            row, -1)


def _product(A, x: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    """``A @ x`` for a CSR or CSC ``A``, through the kernel that scipy's ``@``
    calls, which adds into a zeroed output: a vector, or a block of one
    column, goes to ``<format>_matvec`` and a wider block to
    ``<format>_matvecs``. ``x`` is read as a C-contiguous float64 array, a
    copy where it is not one, as ``@`` reads it."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    shape = (A.shape[0], *x.shape[1:])
    if out is None:
        out = np.zeros(shape)
    elif out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"output {out.dtype}{list(out.shape)} for a float64{list(shape)} product")
    else:
        out.fill(0.0)
    rows, cols = A.shape
    if x.ndim == 1 or x.shape[1] == 1:
        kernel = getattr(_sparsetools, A.format + "_matvec")
        kernel(rows, cols, A.indptr, A.indices, A.data, x.ravel(), out.ravel())
    else:
        kernel = getattr(_sparsetools, A.format + "_matvecs")
        kernel(rows, cols, x.shape[1], A.indptr, A.indices, A.data, x.ravel(), out.ravel())
    return out
