"""Initial weight vectors for the per-label binary solves.

Four strategies:

* ``zero``  -- the all-zero vector.
* ``bias``  -- ``-scale`` on the bias coordinate, zero elsewhere; with
  scale 1 every instance sits at margin exactly 1 on the negative side.
* ``ovap``  -- solve a virtual label with all-negative signs over the
  shared X, loss and C once, one ``newton_cg`` call with a loose stopping
  criterion, and reuse that vector for every label.
* ``aop``   -- place the mean of the positives at margin ``s`` and the mean
  of the negatives at margin ``t`` with the minimum-norm vector in the span
  of the positive mean and the global mean.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import solver
from .errors import ConfigError, is_number
from .losses import MarginLoss
from .sparse import DenseVector, SparseMatrix, SparseVector

INIT_KINDS = ("zero", "bias", "ovap", "aop")

# Default margin targets for the average-of-positives start. The logistic
# loss keeps pushing negatives past margin 1, so its negative-mean target
# sits further out.
AOP_DEFAULT_S = 1.0
AOP_DEFAULT_T = {MarginLoss.SQUARED_HINGE: -2.0, MarginLoss.LOGISTIC: -3.0}

# Relative thresholds for the two degenerate branches of the aop solve.
_PARALLEL_TOL = 1e-10
_ORTHO_TOL = 1e-12


@dataclass(frozen=True)
class InitStrategy:
    """Which initializer to run, plus its hyperparameters.

    ``aop_s`` / ``aop_t`` may be left as None to pick the per-loss defaults
    at train time.
    """

    kind: str = "zero"
    bias_scale: float = 1.0
    ovap_stop_rel: float = 0.01
    aop_s: float | None = None
    aop_t: float | None = None

    def __post_init__(self):
        if self.kind not in INIT_KINDS:
            raise ConfigError(f"unknown init kind {self.kind!r}; expected one of {INIT_KINDS}")
        if not (is_number(self.bias_scale) and np.isfinite(self.bias_scale)):
            raise ConfigError("bias scale must be finite")
        if not all(v is None or is_number(v) and np.isfinite(v) for v in (self.aop_s, self.aop_t)):
            raise ConfigError("aop margin targets must be finite")
        if not (is_number(self.ovap_stop_rel) and 0.0 < self.ovap_stop_rel < 1.0):
            raise ConfigError("ovap stopping ratio must lie in (0, 1)")

    def resolved_aop(self, loss: MarginLoss) -> tuple[float, float]:
        s = AOP_DEFAULT_S if self.aop_s is None else self.aop_s
        t = AOP_DEFAULT_T[loss] if self.aop_t is None else self.aop_t
        return s, t


@dataclass(frozen=True)
class AopPrecompute:
    """Dataset-level quantities shared by every label's aop solve. An
    ``xbar`` whose ``<xbar, xbar>`` overflows is checked against an
    infinite ``xbar_sq`` without a warning."""

    xbar: DenseVector
    xbar_sq: float
    n: int

    @np.errstate(over="ignore", invalid="ignore")
    def __post_init__(self):
        expected = float(np.dot(self.xbar, self.xbar))
        if abs(self.xbar_sq - expected) > 1e-12 * max(expected, 1.0):
            raise ConfigError("xbar_sq is inconsistent with xbar")


def zero_init(dim: int) -> DenseVector:
    if dim < 1:
        raise ConfigError("dimension must be >= 1")
    return np.zeros(dim, dtype=np.float64)


def bias_init(dim: int, bias_index: int | None, scale: float) -> DenseVector:
    """``-scale`` at the bias coordinate, zeros elsewhere."""
    if bias_index is None:
        raise ConfigError(
            "bias initialization needs a bias-augmented dataset (no bias feature present)"
        )
    if not 0 <= bias_index < dim:
        raise ConfigError(f"bias index {bias_index} out of range for dimension {dim}")
    w = np.zeros(dim, dtype=np.float64)
    w[bias_index] = -scale
    return w


def ovap_solve(
    X: SparseMatrix,
    loss: MarginLoss,
    c: float,
    cfg: solver.SolverConfig,
    stop_rel: float,
) -> tuple[DenseVector, solver.SolverTrace]:
    """Solve the virtual all-negative label over ``X`` from zero with a
    loose criterion: one :func:`solver.newton_cg` call.

    The vector is computed once per dataset and reused as the starting
    vector for every label; the solver trace is returned with it. As in
    every solve, a numerical failure keeps the last accepted iterate, and
    the trace's ``failure`` says why.
    """
    problem = solver.BinaryProblem(X, np.full(X.n_rows, -1.0), loss, c)
    w0 = zero_init(X.n_cols)
    grad0_ref = solver.norm(solver.gradient(problem, w0))
    return solver.newton_cg(problem, w0, replace(cfg, eps_outer=stop_rel), grad0_ref)


@np.errstate(over="ignore", invalid="ignore")
def aop_init(
    pbar: SparseVector,
    p_count: int,
    pre: AopPrecompute,
    s: float,
    t: float,
) -> DenseVector:
    """Minimum-norm vector with ``<w0, pbar> = s`` and ``<w0, nbar> = t``.

    Writing ``w0 = u * pbar + v * xbar`` and eliminating the negative mean
    through ``|N| nbar + |P| pbar = |X| xbar`` gives, with
    ``alpha = |P| / |X|``::

        u = (<xbar,pbar> * (t + (s-t)*alpha) - s*<xbar,xbar>)
            / (<pbar,xbar>^2 - <pbar,pbar>*<xbar,xbar>)
        v = (s - u*<pbar,pbar>) / <xbar,pbar>

    Degenerate branches:

    1. pbar and xbar (nearly) linearly dependent: the constraints are
       unsatisfiable, return the zero vector.
    2. <xbar, pbar> (nearly) zero: substitute 0 for it, giving
       ``u = s/<pbar,pbar>`` and ``v = (|N| t + |P| s) / (|X| <xbar,xbar>)``.
    3. No positives at all: return ``t * xbar / <xbar,xbar>``, which puts
       the global mean at margin ``|t|`` on the negative side.

    Means that overflow give a start that is not finite, without a warning;
    the label's solve reports it as a numerical failure.
    """
    dim = pre.xbar.shape[0]
    if dim < 1:
        raise ConfigError("zero-dimensional feature space")
    if pre.n < 1:
        raise ConfigError("aop precompute over an empty dataset")
    cc = pre.xbar_sq
    if p_count == 0:
        if cc == 0.0:
            return np.zeros(dim, dtype=np.float64)
        return (t / cc) * pre.xbar

    aa = float(np.dot(pbar.values, pbar.values))
    bb = float(np.dot(pre.xbar[pbar.indices], pbar.values))
    alpha = p_count / pre.n

    den = bb * bb - aa * cc
    if abs(den) <= _PARALLEL_TOL * aa * cc:
        return np.zeros(dim, dtype=np.float64)
    if abs(bb) <= _ORTHO_TOL * np.sqrt(aa * cc):
        u = s / aa
        v = ((pre.n - p_count) * t + p_count * s) / (pre.n * cc)
    else:
        u = (bb * (t + (s - t) * alpha) - s * cc) / den
        v = (s - u * aa) / bb

    w0 = v * pre.xbar
    w0[pbar.indices] += u * pbar.values
    return w0
