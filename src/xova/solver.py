"""Truncated conjugate-gradient Newton minimizer for one binary problem.

The objective for one label is

    L(w) = 0.5 * <w, w> + C * sum_i phi(y_i * <w, x_i>)

Each outer iteration takes the margins, then the set of instances with
nonzero curvature (the active rows), then the gradient and the stopping
test; it then solves the Newton system H p = -grad approximately with
diagonally preconditioned conjugate gradients and applies a backtracking
line search over w + lambda * p. The gradient, the curvature and the
Hessian-vector products sum over the active rows only. For the squared
hinge an inactive row's gradient and curvature coefficients are exactly
zero, so it would only add zeros: skipping it is exact, not an
approximation.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import losses
from .errors import ConfigError, DimensionMismatchError, NumericalError
from .losses import ActiveSet, MarginLoss
from .sparse import DenseVector, SparseMatrix

TERM_CONVERGED = "converged"
TERM_MAX_OUTER = "max_outer"
TERM_LINE_SEARCH = "line_search_failed"
TERM_NUMERICAL = "numerical_failure"

# Above this share of active rows, an iteration sums over the whole X, with
# zero weight on the inactive rows, instead of copying the active rows out:
# there the copy costs more than the products it shortens (README, "Solver").
FULL_X_SHARE = 0.5


@dataclass(frozen=True)
class SolverConfig:
    """Hyperparameters of the Newton-CG solver."""

    eps_outer: float = 0.01  # stop when |grad| <= eps_outer * |grad at zero|
    eps_cg: float = 0.5  # relative preconditioned-residual tolerance
    precond_alpha: float = 0.01  # M = alpha * diag(H) + (1 - alpha) * I
    ls_beta: float = 0.5  # backtracking shrink factor
    ls_eta: float = 0.01  # sufficient-decrease slope fraction
    ls_max_steps: int = 20
    max_outer: int = 100
    max_cg: int = 250

    def __post_init__(self):
        if not (0.0 < self.eps_outer < np.inf and 0.0 < self.eps_cg < np.inf):
            raise ConfigError("tolerances must be positive and finite")
        if not 0.0 <= self.precond_alpha <= 1.0:
            raise ConfigError("precond_alpha must lie in [0, 1]")
        if not 0.0 < self.ls_beta < 1.0:
            raise ConfigError("ls_beta must lie in (0, 1)")
        if not 0.0 < self.ls_eta < 0.5:
            raise ConfigError("ls_eta must lie in (0, 0.5)")
        if self.ls_max_steps < 1 or self.max_outer < 1 or self.max_cg < 1:
            raise ConfigError("iteration limits must be >= 1")


@dataclass(frozen=True)
class BinaryProblem:
    """One label's view of the shared design matrix: signs plus loss weight."""

    features: SparseMatrix
    signs: np.ndarray  # float64, entries in {-1, +1}
    loss: MarginLoss = MarginLoss.SQUARED_HINGE
    c: float = 1.0

    def __post_init__(self):
        signs = np.ascontiguousarray(self.signs, dtype=np.float64)
        if signs.shape[0] != self.features.n_rows:
            raise DimensionMismatchError(
                f"{signs.shape[0]} signs for {self.features.n_rows} instances"
            )
        if signs.size and not np.all(np.abs(signs) == 1.0):
            raise ValueError("signs must be +1 or -1")
        object.__setattr__(self, "signs", signs)

    @property
    def n(self) -> int:
        return self.features.n_rows

    @property
    def dim(self) -> int:
        return self.features.n_cols


@dataclass
class TraceRow:
    """Measurements for one accepted outer iteration.

    ``grad_norm``, ``active_count`` and ``active_fraction`` are measured at
    the start of the iteration (before the step); ``loss`` is the objective
    after the accepted update.
    """

    loss: float
    grad_norm: float
    active_count: int
    active_fraction: float
    cg_iters: int
    step_size: float
    wall_ms: float


@dataclass
class SolverTrace:
    """Per-iteration diagnostics plus run totals for one binary solve."""

    initial_loss: float = float("nan")
    grad0_ref: float = float("nan")
    rows: list[TraceRow] = field(default_factory=list)
    termination: str = TERM_MAX_OUTER
    hvp_touches: int = 0  # sum over CG steps of the active-set size
    final_grad_norm: float = float("nan")
    wall_ms: float = 0.0

    @property
    def outer_iters(self) -> int:
        return len(self.rows)

    @property
    def first_step_size(self) -> float | None:
        return self.rows[0].step_size if self.rows else None

    def losses(self) -> list[float]:
        return [self.initial_loss] + [r.loss for r in self.rows]


def margins(problem: BinaryProblem, w: DenseVector) -> np.ndarray:
    """Per-instance margins ``y_i * <w, x_i>``."""
    return problem.signs * problem.features.matvec(w)


# The kernels below take inputs the caller has already computed (the margins
# ``m`` of ``w``, the active rows, ``X w`` and ``X d``), so that newton_cg and
# the public wrappers after them run the same code without extra passes.


class _Rows(NamedTuple):
    """The rows ``idx`` of the problem's matrix that a gradient and its
    curvature sum over, held by ``X``: a copy of just those rows, or, when
    ``full``, the whole matrix with zero weight on every other row.

    Values per held row are gathered with :meth:`take` and weights spread
    back with :meth:`weights`, so an inactive row of the whole matrix never
    enters a product: its weight is a literal 0, not ``0 * x``, which would
    be NaN where ``x`` overflowed.
    """

    X: SparseMatrix
    idx: np.ndarray
    full: bool

    def take(self, per_row: np.ndarray) -> np.ndarray:
        """The entries of a per-row-of-``X`` vector that belong to ``idx``."""
        return per_row[self.idx] if self.full else per_row

    def weights(self, values: np.ndarray) -> np.ndarray:
        """Per row of ``X``, the weight ``values[k]`` of row ``idx[k]``, else 0."""
        if not self.full:
            return values
        out = np.zeros(self.X.n_rows)
        out[self.idx] = values
        return out


def _active_rows(problem: BinaryProblem, active_idx: np.ndarray) -> _Rows:
    """The whole X above a :data:`FULL_X_SHARE` of active rows, else a copy of them."""
    X = problem.features
    if active_idx.shape[0] > FULL_X_SHARE * problem.n:
        return _Rows(X, active_idx, True)
    return _Rows(X.submatrix(active_idx), active_idx, False)


def _all_rows(problem: BinaryProblem) -> _Rows:
    return _Rows(problem.features, np.arange(problem.n), True)


def _objective(problem: BinaryProblem, w: DenseVector, m: np.ndarray) -> float:
    return 0.5 * float(np.dot(w, w)) + problem.c * float(np.sum(losses.phi(problem.loss, m)))


def _gradient(problem: BinaryProblem, w: DenseVector, m: np.ndarray, rows: _Rows) -> DenseVector:
    """``w + C * sum phi'(margin_i) * y_i * x_i`` over ``rows``."""
    idx = rows.idx
    coef = problem.c * losses.dphi(problem.loss, m[idx]) * problem.signs[idx]
    return w + rows.X.rmatvec(rows.weights(coef))


def _curvature(problem: BinaryProblem, m: np.ndarray, rows: _Rows) -> np.ndarray:
    """Per row in ``rows.idx``, the curvature weight ``C * phi''(margin_i)``."""
    return problem.c * losses.ddphi(problem.loss, m[rows.idx])


def _diag(rows: _Rows, dd: np.ndarray) -> DenseVector:
    """The Hessian's diagonal ``1 + sum_i dd_i * x_i^2``."""
    return 1.0 + rows.X.rmatvec_squared(rows.weights(dd))


def _hvp(rows: _Rows, dd: np.ndarray, d: DenseVector) -> DenseVector:
    return d + rows.X.rmatvec(rows.weights(dd * rows.take(rows.X.matvec(d))))


def _trial_objective(
    problem: BinaryProblem, w: DenseVector, xw: np.ndarray, direction: DenseVector, xdir: np.ndarray
) -> Callable[[float], float]:
    """``lam -> L(w + lam * direction)``, from ``X w`` and ``X direction``."""

    def eval_at(lam: float) -> float:
        return _objective(problem, w + lam * direction, problem.signs * (xw + lam * xdir))

    return eval_at


def objective(problem: BinaryProblem, w: DenseVector) -> float:
    """``0.5 * |w|^2 + C * sum phi(margin_i)``."""
    return _objective(problem, w, margins(problem, w))


def gradient(problem: BinaryProblem, w: DenseVector) -> DenseVector:
    """``w + C * sum phi'(margin_i) * y_i * x_i``, summed over every row."""
    return _gradient(problem, w, margins(problem, w), _all_rows(problem))


def grad0_norm(problem: BinaryProblem) -> float:
    """``|grad(0)|``, the stopping reference. Every margin at zero is 0, so
    the gradient is ``C * sum phi'(0) * y_i * x_i`` and needs no ``X w`` pass."""
    coef = problem.c * losses.dphi(problem.loss, np.zeros(problem.n)) * problem.signs
    return float(np.linalg.norm(problem.features.rmatvec(coef)))


def hessian_vec(
    problem: BinaryProblem, w: DenseVector, d: DenseVector, active: ActiveSet
) -> DenseVector:
    """``d + C * sum_{i in A} phi''(margin_i) * <x_i, d> * x_i``.

    The leading ``d`` is the L2-regularizer block; the label signs square
    away inside the curvature term.
    """
    if d.shape[0] != problem.dim:
        raise DimensionMismatchError(f"direction length {d.shape[0]} != dim {problem.dim}")
    rows = _active_rows(problem, active.indices)
    return _hvp(rows, _curvature(problem, margins(problem, w), rows), d)


def cg_solve(
    grad: DenseVector,
    hvp: Callable[[DenseVector], DenseVector],
    cfg: SolverConfig,
    diag: DenseVector,
) -> tuple[DenseVector, int]:
    """Approximately solve ``H p = -grad`` by preconditioned CG.

    ``diag`` is the diagonal of H; the preconditioner is the mixed form
    ``M = precond_alpha * diag(H) + (1 - precond_alpha) * I``. Iteration
    stops once the preconditioned residual norm ``sqrt(r' M^-1 r)`` drops to
    ``eps_cg`` times the preconditioned norm of ``grad``, or at ``max_cg``.
    """
    dim = grad.shape[0]
    p = np.zeros(dim, dtype=np.float64)
    gnorm2 = float(np.dot(grad, grad))
    if gnorm2 == 0.0:
        return p, 0
    m_inv = 1.0 / (cfg.precond_alpha * diag + (1.0 - cfg.precond_alpha))
    r = -grad
    z = m_inv * r
    rz = float(np.dot(r, z))
    ref = np.sqrt(rz)
    if not np.isfinite(ref):
        raise NumericalError("non-finite preconditioned gradient norm in CG")
    d = z.copy()
    iters = 0
    while iters < cfg.max_cg:
        hd = hvp(d)
        dhd = float(np.dot(d, hd))
        if not np.isfinite(dhd):
            raise NumericalError(f"non-finite curvature in CG iteration {iters + 1}")
        if dhd <= 0.0:
            raise NumericalError(
                f"non-positive curvature {dhd:g} in CG iteration {iters + 1}"
            )
        alpha = rz / dhd
        p += alpha * d
        r -= alpha * hd
        iters += 1
        z = m_inv * r
        rz_next = float(np.dot(r, z))
        if not np.isfinite(rz_next):
            raise NumericalError(f"non-finite residual in CG iteration {iters}")
        if np.sqrt(max(rz_next, 0.0)) <= cfg.eps_cg * ref:
            break
        d = z + (rz_next / rz) * d
        rz = rz_next
    return p, iters


def backtracking_search(
    eval_at: Callable[[float], float],
    loss0: float,
    g_dot_dir: float,
    cfg: SolverConfig,
) -> tuple[float, bool]:
    """Largest multiplier in {1, beta, beta^2, ...} meeting sufficient decrease.

    ``eval_at`` maps a multiplier to the objective at ``w + lambda * dir``.
    Returns ``(0.0, False)`` when none of the ``ls_max_steps`` trials
    qualifies.
    """
    lam = 1.0
    for _ in range(cfg.ls_max_steps):
        if eval_at(lam) <= loss0 + cfg.ls_eta * lam * g_dot_dir:
            return lam, True
        lam *= cfg.ls_beta
    return 0.0, False


def line_search(
    problem: BinaryProblem,
    w: DenseVector,
    direction: DenseVector,
    cfg: SolverConfig,
) -> tuple[float, bool]:
    """Backtracking search over ``w + lambda * direction`` for one problem."""
    xw = problem.features.matvec(w)
    m = problem.signs * xw
    xdir = problem.features.matvec(direction)
    eval_at = _trial_objective(problem, w, xw, direction, xdir)
    g_dot_dir = float(np.dot(_gradient(problem, w, m, _all_rows(problem)), direction))
    return backtracking_search(eval_at, _objective(problem, w, m), g_dot_dir, cfg)


def _compute_active(loss: MarginLoss, m: np.ndarray) -> np.ndarray:
    """Active instance indices for the current margins (monkeypatchable in tests)."""
    return losses.active_set(loss, m).indices


def newton_cg(
    problem: BinaryProblem,
    w0: DenseVector,
    cfg: SolverConfig,
    grad0_ref: float,
) -> tuple[DenseVector, SolverTrace]:
    """Minimize the regularized margin loss starting from ``w0``.

    ``grad0_ref`` is the gradient norm at the zero vector for this problem;
    the outer loop stops once ``|grad| <= eps_outer * grad0_ref``, so every
    initialization strategy targets the same stopping surface.
    """
    if w0.shape[0] != problem.dim:
        raise DimensionMismatchError(f"w0 length {w0.shape[0]} != dim {problem.dim}")
    X = problem.features
    n = problem.n
    t_start = time.perf_counter()

    w = np.array(w0, dtype=np.float64, copy=True)
    xw = X.matvec(w)
    trace = SolverTrace(grad0_ref=grad0_ref)
    m = problem.signs * xw
    loss_val = _objective(problem, w, m)
    if not np.isfinite(loss_val):
        raise NumericalError("non-finite objective at the initial point", w_last=w, trace=trace)
    trace.initial_loss = loss_val

    while True:
        t_iter = time.perf_counter()
        active_idx = _compute_active(problem.loss, m)
        n_active = int(active_idx.shape[0])
        rows = _active_rows(problem, active_idx)
        grad = _gradient(problem, w, m, rows)
        gnorm = float(np.linalg.norm(grad))
        if not np.isfinite(gnorm):
            raise NumericalError("non-finite gradient", w_last=w, trace=trace)
        if gnorm <= cfg.eps_outer * grad0_ref:
            trace.termination = TERM_CONVERGED
            break
        if trace.outer_iters >= cfg.max_outer:
            trace.termination = TERM_MAX_OUTER
            break

        dd = _curvature(problem, m, rows)
        diag = _diag(rows, dd)
        if rows.full and np.isnan(diag).any():
            # 0 * inf: a row of weight 0 whose squares overflow. The copy
            # leaves the inactive ones out.
            rows = _Rows(X.submatrix(active_idx), active_idx, False)
            diag = _diag(rows, dd)
        try:
            direction, cg_iters = cg_solve(grad, functools.partial(_hvp, rows, dd), cfg, diag)
        except NumericalError as err:
            raise NumericalError(str(err), w_last=w, trace=trace) from None
        trace.hvp_touches += cg_iters * n_active
        g_dot_dir = float(np.dot(grad, direction))
        if g_dot_dir >= 0.0:
            raise NumericalError(
                f"CG returned a non-descent direction (g.p = {g_dot_dir:g})",
                w_last=w,
                trace=trace,
            )
        xdir = X.matvec(direction)
        eval_at = _trial_objective(problem, w, xw, direction, xdir)
        lam, accepted = backtracking_search(eval_at, loss_val, g_dot_dir, cfg)
        if not accepted:
            trace.termination = TERM_LINE_SEARCH
            break

        w = w + lam * direction
        xw = xw + lam * xdir
        m = problem.signs * xw
        loss_val = _objective(problem, w, m)
        if not np.isfinite(loss_val):
            raise NumericalError("non-finite objective after step", w_last=w, trace=trace)
        trace.rows.append(
            TraceRow(
                loss=loss_val,
                grad_norm=gnorm,
                active_count=n_active,
                active_fraction=n_active / n if n else 0.0,
                cg_iters=cg_iters,
                step_size=lam,
                wall_ms=(time.perf_counter() - t_iter) * 1e3,
            )
        )

    trace.final_grad_norm = gnorm
    trace.wall_ms = (time.perf_counter() - t_start) * 1e3
    return w, trace
