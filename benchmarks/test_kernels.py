"""Kernel micro-bench: the rest of a Newton step, after its weights
(``test_weights.py``), timed on the same seeded random matrices
(``conftest.py``) at the active shares 0.1%, 3.5%, 25% and 100%, for
blocks of ``b`` = 1 and 16 labels under the squared hinge at C = 1.

    PYTHONPATH=src python -m pytest benchmarks/test_kernels.py                         # the timings
    PYTHONPATH=src python -m pytest -q benchmarks/test_kernels.py --benchmark-disable  # each case once

It lives outside ``tests/``, so tier 1 never collects it. The cases:

- ``diag``: :func:`xova.solver._diag`, the Hessian diagonal from a
  step's curvature weights;
- ``hvp``: :func:`xova.solver._hvp`, one HVP per label with every label
  of the block live, and, for ``b`` = 16, with every other label live;
- ``cg``: :func:`xova.solver.cg_solve` on the step's gradients at the
  default tolerance, its HVPs included;
- ``trial``: one line-search trial per label: the product of X with the
  block's directions, then each label's objective at the full step.

Before it is timed, each case checks its bits against a computation for
one label: the HVP against :func:`xova.solver.hessian_vec`, the diagonal
against the label's active rows copied out of X, and ``cg`` and ``trial``
against the same kernel on a block of that label alone. A timing that runs
is also a correctness check.
"""

import functools

import numpy as np
import pytest

import xova.solver as solver
from xova.losses import MarginLoss

from conftest import SHAPES, block

SQH = MarginLoss.SQUARED_HINGE
SHARES = [0.001, 0.035, 0.25, 1.0]
WIDTHS = [1, 16]
CFG = solver.SolverConfig()


@functools.cache
def step(shape: str, b: int, share: float):
    """A step's inputs for :func:`block`'s labels: the matrix, margins, signs,
    active rows and iterates, then the gradients, the curvature weights (a
    copy of the ``weights`` slot) and random directions."""
    X, M, S, idx, W = block(shape, b, share)
    buffers = solver.Buffers(X.n_rows, X.n_cols, b)
    G = solver._gradient(X, W, idx, lambda j, rows: solver._grad_coef(SQH, 1.0, M[j], S[j], rows),
                         buffers).copy()
    DD = solver._weights(X.n_rows, idx, lambda j, rows: solver._curvature(SQH, 1.0, M[j], rows),
                         buffers).copy()
    D = np.random.default_rng([b, round(share * 1000)]).normal(size=(b, X.n_cols))
    return X, M, S, idx, W, G, DD, D


def diag(X, idx, DD):
    buffers = solver.Buffers(X.n_rows, X.n_cols, DD.shape[1])
    return lambda: solver._diag(X, DD, idx, buffers)


def hvp(X, idx, DD, D, rows):
    buffers = solver.Buffers(X.n_rows, X.n_cols, DD.shape[1])
    return lambda: solver._hvp(X, DD, idx, D[rows], rows, buffers)


def cg(X, idx, DD, G):
    buffers = solver.Buffers(X.n_rows, X.n_cols, len(idx))
    diagonal = solver._diag(X, DD, idx, buffers).copy()
    products = functools.partial(solver._hvp, X, DD, idx, buffers=buffers)
    return lambda: solver.cg_solve(G, products, CFG, diagonal, buffers).p


def trial(X, M, S, W, P):
    buffers = solver.Buffers(X.n_rows, X.n_cols, len(P))

    def run():
        XP = X.matvec(P.T, out=buffers.get("product", (X.n_rows, len(P))))
        return np.array([solver._objective(SQH, 1.0, W[k] + P[k], M[k] + S[k] * XP[:, k])
                         for k in range(len(P))])

    return run


def bench(benchmark, name, shape, b, share, kernel):
    benchmark.group = f"{name} {shape} b={b} share={share:g}"
    benchmark(kernel)


cases = pytest.mark.parametrize("shape, b, share", [
    pytest.param(shape, b, share, id=f"{shape}-b{b}-{share:g}")
    for shape in SHAPES for b in WIDTHS for share in SHARES
])


@cases
def test_diag(benchmark, shape, b, share):
    X, M, S, idx, W, G, DD, D = step(shape, b, share)
    kernel = diag(X, idx, DD)
    got = kernel()
    for k, rows in enumerate(idx):
        active = X.submatrix(rows)
        assert got[k].tobytes() == (1.0 + active.rmatvec_squared(DD[rows, k])).tobytes()
    bench(benchmark, "diag", shape, b, share, kernel)


@pytest.mark.parametrize("shape, b, share, live", [
    pytest.param(shape, b, share, live, id=f"{shape}-b{b}-{share:g}-{live}")
    for shape in SHAPES for b in WIDTHS for share in SHARES
    for live in (["all", "every_other"] if b > 1 else ["all"])  # one label has no strict subset
])
def test_hvp(benchmark, shape, b, share, live):
    X, M, S, idx, W, G, DD, D = step(shape, b, share)
    rows = list(range(0, b, 1 if live == "all" else 2))
    kernel = hvp(X, idx, DD, D, rows)
    got = kernel()
    for j, k in enumerate(rows):
        # the squared hinge weighs every active row 2C, whatever its margin,
        # and the zero vector's margins are all 0: hessian_vec then reads
        # the weights of the block's margins
        want = solver.hessian_vec(solver.BinaryProblem(X, S[k]), np.zeros(X.n_cols), D[k], idx[k])
        assert got[j].tobytes() == want.tobytes()
    bench(benchmark, "hvp " + live, shape, b, share, kernel)


@cases
def test_cg(benchmark, shape, b, share):
    X, M, S, idx, W, G, DD, D = step(shape, b, share)
    kernel = cg(X, idx, DD, G)
    got = kernel().copy()
    for k in range(b):
        alone = cg(X, [idx[k]], DD[:, [k]], G[[k]])
        assert got[k].tobytes() == alone()[0].tobytes()
    bench(benchmark, "cg", shape, b, share, kernel)


@cases
def test_trial(benchmark, shape, b, share):
    X, M, S, idx, W, G, DD, D = step(shape, b, share)
    kernel = trial(X, M, S, W, D)
    got = kernel()
    for k in range(b):
        alone = trial(X, M[[k]], S[[k]], W[[k]], D[[k]])
        assert got[k].tobytes() == alone()[0].tobytes()
    bench(benchmark, "trial", shape, b, share, kernel)
