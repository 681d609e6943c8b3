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
        with pytest.raises(ValueError):
            SparseMatrix([0, 2], [1, 1], [1.0, 2.0], 3)  # duplicate within row
        with pytest.raises(ValueError):
            SparseMatrix([0, 3], [0, 1], [1.0, 2.0], 3)  # final offset != nnz
        with pytest.raises(InvalidEntryError, match="index 1 repeated or out of order") as e:
            SparseMatrix([0, 1, 1, 3], [2, 2, 1], [1.0, 2.0, 3.0], 3)  # row 2 decreases
        assert e.value.row == 2

    def test_empty_rows_allowed(self):
        X = make_matrix([{}, {1: 2.0}, {}], 3)
        assert X.n_rows == 3
        assert X.nnz == 1

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
        # same order as the product with that column alone
        csr = scipy.sparse.random(300, 40, density=0.2, format="csr", random_state=7)
        csr.data = rng.normal(size=csr.nnz) * 10.0 ** rng.integers(-8, 9, size=csr.nnz)
        csr.indices = csr.indices.astype(index_dtype)
        csr.indptr = csr.indptr.astype(index_dtype)
        X = SparseMatrix.from_scipy(csr)
        # scipy narrows a transpose's indices; widen them back
        X._csc.indices = X._csc.indices.astype(index_dtype)
        X._csc.indptr = X._csc.indptr.astype(index_dtype)
        assert X.indices.dtype == index_dtype and X._csc.indices.dtype == index_dtype
        W = rng.normal(size=(40, 16)) * 10.0 ** rng.integers(-8, 9, size=(40, 16))
        C = rng.normal(size=(300, 16)) * 10.0 ** rng.integers(-8, 9, size=(300, 16))
        for block, one, B in (
            (X.matvec, X.matvec, W),
            (X.rmatvec, X.rmatvec, C),
            (X.rmatvec_squared, X.rmatvec_squared, C),
        ):
            out = block(B)
            for j in range(B.shape[1]):
                assert out[:, j].tobytes() == one(np.ascontiguousarray(B[:, j])).tobytes()
            # a transposed (column-major) block gives the same bits
            assert block(np.asfortranarray(B)).tobytes() == out.tobytes()

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
