import numpy as np
import pytest

from xova.solver import BinaryProblem
from xova.sparse import SparseMatrix, SparseVector


def stack_rows(rows, n_cols):
    """The SparseMatrix whose rows are the given SparseVectors."""
    return SparseMatrix.stack([r.indices for r in rows], [r.values for r in rows], n_cols)


def make_matrix(rows, n_cols):
    """Build a SparseMatrix from a list of {index: value} dicts."""
    return stack_rows([SparseVector.from_dict(r) for r in rows], n_cols)


def entries(v: SparseVector) -> dict:
    """A vector's ``{index: value}`` pairs."""
    return dict(zip(v.indices.tolist(), v.values.tolist()))


def dense_matrix(X: SparseMatrix) -> np.ndarray:
    out = np.zeros((X.n_rows, X.n_cols))
    for i in range(X.n_rows):
        lo, hi = X.indptr[i], X.indptr[i + 1]
        out[i, X.indices[lo:hi]] = X.data[lo:hi]
    return out


def random_problem(rng, n, d, loss, c=1.0, density=0.4):
    """Small random binary problem with nonempty rows."""
    rows = []
    for _ in range(n):
        nnz = max(1, rng.binomial(d, density))
        idx = np.sort(rng.choice(d, size=nnz, replace=False))
        rows.append(SparseVector(idx.astype(np.int64), rng.normal(0, 1.0, nnz)))
    X = stack_rows(rows, d)
    signs = rng.choice([-1.0, 1.0], size=n)
    if np.all(signs == signs[0]):
        signs[0] = -signs[0]
    return BinaryProblem(X, signs, loss, c)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
