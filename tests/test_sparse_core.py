import numpy as np
import pytest
from hypothesis import given, strategies as st

from xova.errors import DimensionMismatchError, InvalidEntryError
from xova.sparse import SparseMatrix, SparseVector

from conftest import dense_matrix, make_matrix, stack_rows


class TestSparseVector:
    def test_from_dict_sorts(self):
        v = SparseVector.from_dict({2: 2.0, 0: 1.0})
        assert v.indices.tolist() == [0, 2]
        assert v.values.tolist() == [1.0, 2.0]

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            SparseVector([0, 0], [1.0, 2.0])

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            SparseVector([2, 1], [1.0, 2.0])

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            SparseVector([-1, 3], [1.0, 2.0])

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            SparseVector([0, 1], [1.0])

    def test_explicit_zeros_permitted(self):
        v = SparseVector([0, 1], [0.0, 2.0])
        assert v.nnz == 2

    def test_immutable(self):
        v = SparseVector([0], [1.0])
        with pytest.raises(ValueError):
            v.values[0] = 3.0

    def test_to_dense_bounds(self):
        v = SparseVector([5], [1.0])
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
        assert dot_row(SparseVector.empty(), np.array([1.0, 2.0, 3.0])) == 0.0

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
        assert r == SparseVector.from_dict({0: 1.0, 2: 4.0})
        assert r.indices.dtype == np.int64
        assert X.row(1).nnz == 0
        assert list(X) == [r, X.row(1)]
        with pytest.raises(IndexError):
            X.row(2)

    def test_column_sums(self):
        X = make_matrix([{0: 1.0}, {0: 2.0, 1: 1.0}], 2)
        np.testing.assert_allclose(X.column_sums(), [3.0, 1.0])
