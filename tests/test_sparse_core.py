import tracemalloc

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, strategies as st

from xova.errors import DimensionMismatchError, InvalidEntryError
from xova.sparse import SparseMatrix, SparseVector

from conftest import dense_matrix, make_matrix, stack_rows


class TestSparseVector:
    """A vector is an unchecked ``(indices, values)`` pair; a bad pair is
    rejected where it becomes a matrix row."""

    def test_from_dict_sorts(self):
        v = SparseVector.from_dict({2: 2.0, 0: 1.0})
        assert v.indices.tolist() == [0, 2]
        assert v.values.tolist() == [1.0, 2.0]

    def test_duplicate_indices_rejected(self):
        with pytest.raises(InvalidEntryError, match="index 0 repeated or out of order"):
            stack_rows([SparseVector(np.array([0, 0]), np.array([1.0, 2.0]))], 3)

    def test_unsorted_rejected(self):
        with pytest.raises(InvalidEntryError, match="index 1 repeated or out of order"):
            stack_rows([SparseVector(np.array([2, 1]), np.array([1.0, 2.0]))], 3)

    def test_negative_index_rejected(self):
        with pytest.raises(InvalidEntryError, match="index -1 out of range"):
            stack_rows([SparseVector(np.array([-1, 3]), np.array([1.0, 2.0]))], 4)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="final offset"):
            stack_rows([SparseVector(np.array([0, 1]), np.array([1.0]))], 3)

    def test_explicit_zeros_permitted(self):
        X = make_matrix([{0: 0.0, 1: 2.0}], 2)
        assert X.row(0).indices.size == 2

    def test_immutable(self):
        v = make_matrix([{0: 1.0}], 1).row(0)
        with pytest.raises(ValueError):
            v.values[0] = 3.0

    def test_to_dense_bounds(self):
        v = SparseVector(np.array([5]), np.array([1.0]))
        with pytest.raises(DimensionMismatchError):
            v.to_dense(4)


def dot_row(v: SparseVector, w: np.ndarray) -> float:
    """``<v, w>`` through the one kernel that computes it: a one-row ``matvec``."""
    return float(stack_rows([v], w.shape[0]).matvec(w)[0])


class TestDotSparseDense:
    def test_direct_expansion(self):
        v = SparseVector.from_dict({0: 1.0, 2: 2.0})
        assert dot_row(v, np.array([1.0, 5.0, 3.0])) == 7.0

    def test_empty_sum(self):
        empty = SparseVector(np.empty(0, dtype=np.int64), np.empty(0))
        assert dot_row(empty, np.array([1.0, 2.0, 3.0])) == 0.0

    def test_negative_value(self):
        v = SparseVector.from_dict({1: -1.5})
        assert dot_row(v, np.array([0.0, 2.0, 0.0])) == -3.0

    def test_out_of_range(self):
        v = SparseVector.from_dict({3: 1.0})
        with pytest.raises(ValueError, match="out of range"):
            dot_row(v, np.array([1.0, 2.0]))


@given(
    alpha=st.floats(min_value=-100, max_value=100, allow_nan=False),
    data=st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=30),
            st.floats(min_value=-10, max_value=10, allow_nan=False),
        ),
        min_size=0,
        max_size=10,
        unique_by=lambda t: t[0],
    ),
)
def test_dot_is_bilinear(alpha, data):
    entries = dict(data)
    v = SparseVector.from_dict(entries)
    scaled = SparseVector(v.indices, alpha * v.values)
    rng = np.random.default_rng(99)
    w = rng.normal(0, 1, 31)
    lhs = dot_row(scaled, w)
    rhs = alpha * dot_row(v, w)
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


class TestSparseMatrix:
    def test_invariants_checked(self):
        with pytest.raises(ValueError):
            SparseMatrix([0, 2, 1], [0, 1], [1.0, 2.0], 3)  # offsets decrease
        with pytest.raises(ValueError, match="monotone"):  # their differences wrap to >= 0
            SparseMatrix(np.array([0, 2**62, 2**63 - 1, -(2**63) + 1, 0]), [], [], 3)
        with pytest.raises(ValueError):
            SparseMatrix([0, 1], [5], [1.0], 3)  # column out of range
        with pytest.raises(InvalidEntryError, match="index 3 out of range for 3 columns"):
            SparseMatrix([0, 1], [3], [1.0], 3)  # one past the last column
        with pytest.raises(ValueError):
            SparseMatrix([0, 2], [1, 1], [1.0, 2.0], 3)  # duplicate within row
        with pytest.raises(ValueError):
            SparseMatrix([0, 3], [0, 1], [1.0, 2.0], 3)  # final offset != nnz
        with pytest.raises(InvalidEntryError, match="index 1 repeated or out of order") as e:
            SparseMatrix([0, 1, 1, 3], [2, 2, 1], [1.0, 2.0, 3.0], 3)  # row 2 decreases
        assert e.value.row == 2

    def test_an_offset_beyond_the_nonzeros_never_reaches_scipy(self, monkeypatch):
        # row 0 would span 10**12 entries of a 3-entry index array, which
        # scipy's canonical-format pass would read past the array's end
        monkeypatch.setattr(scipy.sparse, "csr_matrix", None)
        with pytest.raises(ValueError, match="monotone"):
            SparseMatrix(np.array([0, 10**12, 3]), [0, 1, 2], [1.0, 2.0, 3.0], 3)

    def test_a_valid_matrix_is_checked_without_per_nonzero_memory(self):
        # a million int32 nonzeros: the range test and scipy's canonical-format
        # pass allocate nothing per nonzero, and scipy keeps the arrays
        n_rows, n_cols = 1000, 1000
        indptr = np.arange(0, n_rows * n_cols + 1, n_cols, dtype=np.int32)
        indices = np.tile(np.arange(n_cols, dtype=np.int32), n_rows)
        data = np.ones(indices.size)
        tracemalloc.start()
        try:
            X = SparseMatrix(indptr, indices, data, n_cols)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert X.nnz == 10**6 and np.shares_memory(X.indices, indices)
        assert peak < 1 << 20

    def test_the_given_arrays_and_what_they_view_become_read_only(self):
        # scipy keeps views of the given arrays: a write through the caller's
        # reference, or through the array it views, would change a checked matrix
        indptr = np.array([0, 2], dtype=np.int32)
        backing = np.array([0, 1, 2], dtype=np.int32)
        indices = backing[:2]
        X = SparseMatrix(indptr, indices, np.ones(2), 3)
        for arr in (indptr, indices, backing):
            with pytest.raises(ValueError, match="read-only"):
                arr[1] = 0
        assert X.row(0).indices.tolist() == [0, 1]

    @pytest.mark.parametrize("indptr", [np.zeros(0, dtype=np.int64), np.zeros((1, 1), np.int64)],
                             ids=["empty", "2d"])
    def test_indptr_must_be_one_dimensional_and_non_empty(self, indptr):
        with pytest.raises(ValueError, match="indptr must be a 1-d array"):
            SparseMatrix(indptr, [], [], 3)

    @pytest.mark.parametrize("indices", [[1.7], [True], np.array([1.0])], ids=["float", "bool",
                                                                               "whole_float"])
    def test_indices_that_are_not_integers_rejected(self, indices):
        # scipy would cast them, so that 1.7 became column 1
        with pytest.raises(InvalidEntryError, match="not an integer") as e:
            SparseMatrix([0, 0, 1], indices, [2.0], 3)
        assert (e.value.row, e.value.col) == (1, -1)

    def test_offsets_that_are_not_integers_rejected(self):
        for indptr in ([0.0, 1.0], np.array([False, True])):
            with pytest.raises(ValueError, match="row offsets must be integers"):
                SparseMatrix(indptr, [1], [2.0], 3)

    def test_no_entries_need_no_integer_dtype(self):
        assert SparseMatrix([0], np.array([], dtype=np.float64), [], 3).nnz == 0
        assert SparseMatrix.stack([[], [0, 2], []], None, 3).row(1).indices.tolist() == [0, 2]
        assert SparseMatrix.stack([[], []], None, 3).nnz == 0
        with pytest.raises(InvalidEntryError, match="not an integer"):
            SparseMatrix.stack([[], np.array([1.5])], None, 3)
        # concatenated beside an integer part, a bool part would read as int64
        with pytest.raises(InvalidEntryError, match="index True of dtype bool") as e:
            SparseMatrix.stack([np.array([0]), [], np.array([True])], None, 3)
        assert (e.value.row, e.value.col) == (2, -1)
        # and so does a Python bool, which numpy reads as a bool part, in a list
        for parts in ([[0], [True]], [np.array([0]), [0, True]], [[1], [2, np.True_]]):
            with pytest.raises(InvalidEntryError, match="index True of dtype bool") as e:
                SparseMatrix.stack(parts, None, 3)
            assert (e.value.row, e.value.col) == (1, -1)

    def test_equality_with_another_type(self):
        X = make_matrix([{0: 1.0}], 2)
        assert X.__eq__("X") is NotImplemented
        assert X != "X"

    def test_empty_rows_allowed(self):
        X = make_matrix([{}, {1: 2.0}, {}], 3)
        assert X.n_rows == 3
        assert X.nnz == 1
        assert repr(X) == "SparseMatrix(3x3, nnz=1)"

    def test_matvec_matches_dense(self, rng):
        X = make_matrix([{0: 1.0, 2: -1.0}, {1: 2.0}, {}], 3)
        D = dense_matrix(X)
        w = rng.normal(0, 1, 3)
        np.testing.assert_allclose(X.matvec(w), D @ w, rtol=1e-15)
        coef = rng.normal(0, 1, 3)
        np.testing.assert_allclose(X.rmatvec(coef), D.T @ coef, rtol=1e-15)
        np.testing.assert_allclose(X.rmatvec_squared(coef), (D * D).T @ coef, rtol=1e-15)

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    def test_block_columns_are_bit_identical(self, rng, index_dtype):
        # the block solver's premise: a column of a block product sums in the
        # same order as the product with that column alone; and every product
        # has the bits of scipy's `@`, whose kernels it calls directly
        csr = scipy.sparse.random(300, 40, density=0.2, format="csr", random_state=7)
        csr.data = rng.normal(size=csr.nnz) * 10.0 ** rng.integers(-8, 9, size=csr.nnz)
        X = SparseMatrix(csr.indptr, csr.indices, csr.data, 40)
        X.rmatvec_squared(np.zeros(300))  # builds the squares
        # scipy narrows indices that fit int32, in the matrix and in its
        # transposes; widen them back
        X._csr.indices = X.indices = X.indices.astype(index_dtype)
        X._csr.indptr = X.indptr = X.indptr.astype(index_dtype)
        for transposed in (X._csc, X._csc_sq):
            transposed.indices = transposed.indices.astype(index_dtype)
            transposed.indptr = transposed.indptr.astype(index_dtype)
            assert transposed.indices.dtype == index_dtype
        assert X.indices.dtype == index_dtype
        W = rng.normal(size=(40, 16)) * 10.0 ** rng.integers(-8, 9, size=(40, 16))
        C = rng.normal(size=(300, 16)) * 10.0 ** rng.integers(-8, 9, size=(300, 16))
        for block, matrix, B in (
            (X.matvec, X.to_scipy(), W),
            (X.rmatvec, X._csc, C),
            (X.rmatvec_squared, X._csc_sq, C),
        ):
            out = block(B)
            assert out.tobytes() == (matrix @ B).tobytes()
            for j in range(B.shape[1]):
                column = np.ascontiguousarray(B[:, j])
                assert out[:, j].tobytes() == block(column).tobytes()
                assert out[:, j].tobytes() == (matrix @ column).tobytes()
            # into an output that holds NaN, which the product must not read;
            # one column goes to the one-vector kernel, as `@` sends it
            for part in (B[:, 0], B[:, :1], B, np.asfortranarray(B)):
                into = np.full((out.shape[0], *part.shape[1:]), np.nan)
                assert block(part, out=into) is into
                assert into.tobytes() == (matrix @ part).tobytes()
            # a transposed (column-major) block gives the same bits
            assert block(np.asfortranarray(B)).tobytes() == out.tobytes()

    @pytest.mark.parametrize("r", [1, 3])
    def test_rmatvec_sparse_has_the_bits_of_rmatvec(self, r):
        # rows 0 and 1 agree in column 0, where label 0's coefficients cancel
        # to a zero; its -0 coefficient at row 4 adds a signed zero to every
        # column. Label 1 has no rows and label 2 one.
        X = make_matrix([{0: 1.5, 2: 0.5}, {0: 1.5, 3: 2.0}, {1: -1.0, 2: 3.0}, {},
                         {0: 1e-3, 1: 2.0, 3: -4.0}, {2: 7.0}], 4)
        rows = [np.array([0, 1, 4]), np.array([], dtype=np.int64), np.array([5])][:r]
        coef = [np.array([2.0, -2.0, -0.0]), np.array([]), np.array([0.25])][:r]
        C = np.zeros((X.n_rows, r))
        for j, (at, values) in enumerate(zip(rows, coef)):
            C[at, j] = values
        out = np.full((r, X.n_cols), np.nan)  # the product must not read it
        assert X.rmatvec_sparse(rows, coef, out) is out
        assert out.tobytes() == np.ascontiguousarray(X.rmatvec(C).T).tobytes()
        assert out[0].tolist() == [0.0, 0.0, 1.0, -4.0] and not np.signbit(out[0, :2]).any()
        if r == 3:
            assert out[1:].tolist() == [[0.0] * 4, [0.0, 0.0, 1.75, 0.0]]

    @pytest.mark.parametrize("shape, order", [((300, 16), "F"), ((300, 15), "C"), ((300,), "C")])
    def test_an_output_that_does_not_fit_rejected(self, shape, order):
        csr = scipy.sparse.random(300, 40, density=0.2, format="csr")
        X = SparseMatrix(csr.indptr, csr.indices, csr.data, 40)
        with pytest.raises(ValueError, match=r"for a float64\[300, 16\] product"):
            X.matvec(np.ones((40, 16)), out=np.zeros(shape, order=order))

    def test_squares_built_once_and_overflow_quietly(self):
        X = make_matrix([{0: 1e200, 1: 2.0}, {1: 3.0}], 2)
        with np.errstate(over="raise"):
            first = X.rmatvec_squared(np.array([1.0, 1.0]))
        squares = X._csc_sq
        assert first.tolist() == [np.inf, 13.0]
        assert X.rmatvec_squared(np.ones((2, 3))).tolist() == [[np.inf] * 3, [13.0] * 3]
        assert X._csc_sq is squares

    def test_matvec_dim_check(self):
        X = make_matrix([{0: 1.0}], 2)
        with pytest.raises(DimensionMismatchError):
            X.matvec(np.zeros(3))
        with pytest.raises(DimensionMismatchError):
            X.rmatvec(np.zeros(2))

    def test_rmatvec_squared_dim_check(self):
        X = make_matrix([{0: 1.0}], 2)
        with pytest.raises(DimensionMismatchError, match="coefficient length 2 != n_rows 1"):
            X.rmatvec_squared(np.zeros(2))

    def test_submatrix(self):
        X = make_matrix([{0: 1.0}, {1: 2.0}, {2: 3.0}], 3)
        sub = X.submatrix(np.array([2, 0]))
        assert sub.n_rows == 2
        assert dense_matrix(sub).tolist() == [[0.0, 0.0, 3.0], [1.0, 0.0, 0.0]]

    def test_arrays_are_the_scipy_matrix(self):
        X = make_matrix([{0: 1.0}, {1: 2.0, 2: 1.0}, {2: 3.0}], 3)
        for M in (X, X.submatrix(np.array([2, 1]))):
            csr = M.to_scipy()
            assert csr.indptr is M.indptr
            assert csr.indices is M.indices
            assert csr.data is M.data

    def test_submatrix_full_returns_self(self):
        X = make_matrix([{0: 1.0}, {1: 2.0}], 2)
        assert X.submatrix(np.arange(2)) is X

    def test_row_view(self):
        X = make_matrix([{0: 1.0, 2: 4.0}, {}], 3)
        r = X.row(0)
        assert r.indices.tolist() == [0, 2] and r.values.tolist() == [1.0, 4.0]
        assert np.shares_memory(r.indices, X.indices)
        assert np.shares_memory(r.values, X.data)
        assert r.indices.dtype == X.indices.dtype
        assert X.row(1).indices.size == 0
        with pytest.raises(IndexError):
            X.row(2)
