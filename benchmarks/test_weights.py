"""Kernel micro-bench: the paths by which a Newton step builds its
``X.T``-side weights, timed at the active shares around the solver's
crossovers. ``xova.solver._gradient`` chooses its sparse product below
``_SPARSE_BELOW``; ``xova.solver._weights`` chooses the label-major build
from ``_DENSE_FROM`` and the scatter below it.

    PYTHONPATH=src python -m pytest benchmarks                         # the timings
    PYTHONPATH=src python -m pytest -q benchmarks --benchmark-disable  # each case once

It lives outside ``tests/``, so tier 1 never collects it. Each case times
one build for a block of ``b`` labels on a seeded random CSR matrix of one
bench workload's shape (``conftest.py``), with one path forced through the
crossovers:

- ``gradient``: :func:`xova.solver._gradient`, the gradient coefficients
  and the ``X.T`` product included, as the sparse path replaces both; three
  paths;
- ``curvature``: :func:`xova.solver._weights`, the curvature weights that
  the diagonal and every HVP of the step read; the scatter and the
  label-major build, as it has no sparse path.

Before it is timed, every case checks that its result has the bits of the
scatter path's, so a timing that runs is also a correctness check.
"""

import numpy as np
import pytest

import xova.solver as solver
from xova.losses import MarginLoss

from conftest import SHAPES, block

SHARES = [0.001, 0.035, 0.05, 0.25, 0.5, 0.65, 0.75, 1.0]  # with both crossovers
WIDTHS = [1, 16]
# (_SPARSE_BELOW, _DENSE_FROM) that force each path
FORCE = {"sparse": (np.inf, np.inf), "scatter": (0.0, np.inf), "dense": (0.0, 0.0)}


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
