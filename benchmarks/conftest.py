"""The seeded random matrices and label blocks that the kernel micro-benches time."""

import functools

import numpy as np

from xova.losses import MarginLoss, active_set
from xova.sparse import SparseMatrix

SEED = 20
# (rows, columns, mean nonzeros per row) of the bench workloads' training files
SHAPES = {"tail": (8000, 2001, 3), "topic": (1500, 2501, 86)}


@functools.cache
def design(shape: str) -> SparseMatrix:
    """A random matrix of the shape: 1 + Poisson(mean - 1) distinct columns per row."""
    n, d, per_row = SHAPES[shape]
    rng = np.random.default_rng(SEED)
    rows = [np.sort(rng.choice(d, size=min(d, 1 + k), replace=False))
            for k in rng.poisson(per_row - 1, size=n)]
    return SparseMatrix.stack(rows, [rng.normal(size=len(r)) for r in rows], d)


def block(shape: str, b: int, share: float):
    """The matrix, and ``b`` labels' margins, signs, active rows and iterates:
    each label has ``round(share * n)`` active rows (at least one), at random."""
    X = design(shape)
    n = X.n_rows
    rng = np.random.default_rng([SEED, b, round(share * 1000)])
    M = np.full((b, n), 2.0)  # past the margin: inactive
    for m in M:
        rows = rng.choice(n, size=max(1, round(share * n)), replace=False)
        m[rows] = rng.uniform(-1.0, 1.0, size=rows.size)
    S = rng.choice([-1.0, 1.0], size=(b, n))
    idx = [active_set(MarginLoss.SQUARED_HINGE, m) for m in M]
    return X, M, S, idx, rng.normal(size=(b, X.n_cols))
