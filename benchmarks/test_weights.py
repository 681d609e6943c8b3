"""Kernel micro-bench: the three paths by which ``xova.solver._weights``
builds a Newton step's ``X.T``-side weights, timed at the active shares
around the solver's crossovers (``_SPARSE_BELOW`` and ``_DENSE_FROM``).

    PYTHONPATH=src python -m pytest benchmarks                         # the timings
    PYTHONPATH=src python -m pytest -q benchmarks --benchmark-disable  # each case once

It lives outside ``tests/``, so tier 1 never collects it. Each case times
one build for a block of ``b`` labels on a seeded random CSR matrix of one
bench workload's shape, with one path forced through the crossovers:

- ``gradient``: :func:`xova.solver._gradient`, the gradient coefficients
  and the ``X.T`` product included, as the sparse path replaces both;
- ``curvature``: the curvature weights that the diagonal and every HVP of
  the step read.

Before it is timed, every case checks that its result has the bits of the
scatter path's, so a timing that runs is also a correctness check.
"""

import functools

import numpy as np
import pytest

import xova.solver as solver
from xova.losses import MarginLoss, active_set
from xova.sparse import SparseMatrix

SEED = 20
# (rows, columns, mean nonzeros per row) of the bench workloads' training files
SHAPES = {"tail": (8000, 2001, 3), "topic": (1500, 2501, 86)}
SHARES = [0.001, 0.035, 0.05, 0.25, 0.5, 0.65, 0.75, 1.0]  # with both crossovers
WIDTHS = [1, 16]
# (_SPARSE_BELOW, _DENSE_FROM) that force each path
FORCE = {"sparse": (np.inf, np.inf), "scatter": (0.0, np.inf), "dense": (0.0, 0.0)}


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


def gradient(X, M, S, idx, W):
    def coef(j, rows):
        return solver._grad_coef(MarginLoss.SQUARED_HINGE, 1.0, M[j], S[j], rows)

    buffers = solver.Buffers(X.n_rows, X.n_cols, len(idx))
    return lambda: solver._gradient(X, W, idx, coef, buffers)


def curvature(X, M, S, idx, W):
    def weight(j, rows):
        return solver._curvature(MarginLoss.SQUARED_HINGE, 1.0, M[j], rows)

    buffers = solver.Buffers(X.n_rows, X.n_cols, len(idx))
    return lambda: solver._weights(X.n_rows, idx, weight, buffers)


def run(benchmark, monkeypatch, kernel, shape, b, share, path):
    data = block(shape, b, share)
    with monkeypatch.context() as patch:
        patch.setattr(solver, "_SPARSE_BELOW", FORCE["scatter"][0])
        patch.setattr(solver, "_DENSE_FROM", FORCE["scatter"][1])
        want = kernel(*data)().tobytes()
    monkeypatch.setattr(solver, "_SPARSE_BELOW", FORCE[path][0])
    monkeypatch.setattr(solver, "_DENSE_FROM", FORCE[path][1])
    build = kernel(*data)
    assert build().tobytes() == want
    benchmark.group = f"{kernel.__name__} {shape} b={b} share={share:g}"
    benchmark(build)


cases = pytest.mark.parametrize("shape, b, share", [
    pytest.param(shape, b, share, id=f"{shape}-b{b}-{share:g}")
    for shape in SHAPES for b in WIDTHS for share in SHARES
])


@cases
@pytest.mark.parametrize("path", ["sparse", "scatter", "dense"])
def test_gradient(benchmark, monkeypatch, shape, b, share, path):
    run(benchmark, monkeypatch, gradient, shape, b, share, path)


@cases
@pytest.mark.parametrize("path", ["scatter", "dense"])
def test_curvature(benchmark, monkeypatch, shape, b, share, path):
    run(benchmark, monkeypatch, curvature, shape, b, share, path)
