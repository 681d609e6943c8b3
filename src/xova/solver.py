"""Truncated conjugate-gradient Newton minimizer for a block of binary problems.

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

The labels of a block share the design matrix X and move in lockstep:
each step makes one sparse product for the whole block where one label
would make one of its own. Every product runs over the whole X with a
literal 0 weight on a label's inactive rows: the active rows' values are
gathered and scattered back into zeros, so an inactive row whose
``<x_i, d>`` overflowed never enters a sum. Everything else is per label,
on that label's own contiguous rows (``np.dot``, ``np.linalg.norm`` and
``np.sum`` on one row, never a reduction along an axis), and a column of
a scipy product sums in the same order as the product with that column
alone, so a label's bits do not depend on the block it is solved in.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Callable, ClassVar, NamedTuple, Sequence

import numpy as np

from . import losses
from .errors import ConfigError, DimensionMismatchError, NumericalError
from .losses import MarginLoss
from .sparse import DenseVector, SparseMatrix

TERM_CONVERGED = "converged"
TERM_MAX_OUTER = "max_outer"
TERM_LINE_SEARCH = "line_search_failed"
TERM_NUMERICAL = "numerical_failure"


@dataclass(frozen=True)
class SolverConfig:
    """Hyperparameters of the Newton-CG solver. The fields are what a caller
    sets; the class constants are liblinear's fixed line search (Lin, Weng &
    Keerthi, JMLR 2008) and preconditioner (Hsia, Chiang & Lin, ACML 2018)."""

    eps_outer: float = 0.01  # stop when |grad| <= eps_outer * |grad at zero|
    eps_cg: float = 0.5  # relative preconditioned-residual tolerance
    max_outer: int = 100
    max_cg: int = 250

    precond_alpha: ClassVar[float] = 0.01  # M = alpha * diag(H) + (1 - alpha) * I
    ls_beta: ClassVar[float] = 0.5  # backtracking shrink factor
    ls_eta: ClassVar[float] = 0.01  # sufficient-decrease slope fraction
    ls_max_steps: ClassVar[int] = 20

    def __post_init__(self):
        if not (0.0 < self.eps_outer < np.inf and 0.0 < self.eps_cg < np.inf):
            raise ConfigError("tolerances must be positive and finite")
        if self.max_outer < 1 or self.max_cg < 1:
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


@dataclass
class SolverTrace:
    """Per-iteration diagnostics plus run totals for one binary solve.

    ``wall_ms`` and ``cpu_ms`` are the label's shares of its block's wall
    and thread CPU time: each step's time is split equally among the labels
    still in the block. ``failure`` says why a solve that ended in
    ``numerical_failure`` failed, and is None otherwise.
    """

    initial_loss: float = float("nan")
    grad0_ref: float = float("nan")
    rows: list[TraceRow] = field(default_factory=list)
    termination: str = TERM_MAX_OUTER
    hvp_touches: int = 0  # sum over CG steps of the active-set size
    final_grad_norm: float = float("nan")
    wall_ms: float = 0.0
    cpu_ms: float = 0.0
    failure: str | None = None

    @property
    def outer_iters(self) -> int:
        return len(self.rows)

    @property
    def first_step_size(self) -> float | None:
        return self.rows[0].step_size if self.rows else None

    def losses(self) -> list[float]:
        return [self.initial_loss] + [r.loss for r in self.rows]


class CgBlock(NamedTuple):
    """:func:`cg_solve`'s answer for a block: a direction per row, the
    iterations summed over the rows and per row, and per row the
    NumericalError that stopped it, if one did."""

    p: np.ndarray
    iters: int
    row_iters: list[int]
    errors: list[NumericalError | None]


def margins(problem: BinaryProblem, w: DenseVector) -> np.ndarray:
    """Per-instance margins ``y_i * <w, x_i>``."""
    return problem.signs * problem.features.matvec(w)


# The kernels below take inputs the caller has already computed (margins,
# active rows, products with X), so that the block solver and the public
# one-label wrappers after them run the same code without extra passes.


def _rows(product: np.ndarray) -> np.ndarray:
    """An ``(n, r)`` product as ``r`` contiguous rows, one per label."""
    return np.ascontiguousarray(product.T)


def _scatter(n: int, idx: Sequence[np.ndarray], values: Sequence[np.ndarray]) -> np.ndarray:
    """The ``(n, r)`` weights whose column ``j`` holds ``values[j]`` at the
    rows ``idx[j]`` and a literal 0 on every other row."""
    out = np.zeros((n, len(idx)))
    for j, (rows, vals) in enumerate(zip(idx, values)):
        out[rows, j] = vals
    return out


def _objective(loss: MarginLoss, c: float, w: DenseVector, m: np.ndarray) -> float:
    return 0.5 * float(np.dot(w, w)) + c * float(np.sum(losses.phi(loss, m)))


def _grad_coef(loss: MarginLoss, c: float, m: np.ndarray, signs: np.ndarray, idx) -> np.ndarray:
    """Per row in ``idx``, the gradient coefficient ``C * phi'(margin_i) * y_i``."""
    return c * losses.dphi(loss, m[idx]) * signs[idx]


def _curvature(loss: MarginLoss, c: float, m: np.ndarray, idx) -> np.ndarray:
    """Per row in ``idx``, the curvature weight ``C * phi''(margin_i)``."""
    return c * losses.ddphi(loss, m[idx])


def _gradient(X: SparseMatrix, W: np.ndarray, idx, coef) -> np.ndarray:
    """Per row ``k`` of ``W``, ``w_k + sum_{i in idx[k]} coef[k]_i * x_i``."""
    return W + _rows(X.rmatvec(_scatter(X.n_rows, idx, coef)))


def _diag(X: SparseMatrix, idx, dd) -> np.ndarray:
    """Per label, the Hessian's diagonal ``1 + sum_{i in idx} dd_i * x_i^2``."""
    return 1.0 + _rows(X.rmatvec_squared(_scatter(X.n_rows, idx, dd)))


def _hvp(X: SparseMatrix, idx, dd, D: np.ndarray, rows: Sequence[int]) -> np.ndarray:
    """``d + sum_{i in idx} dd_i * <x_i, d> * x_i`` for each direction ``d``
    of ``D``, whose row ``j`` belongs to the label ``rows[j]`` of ``idx``/``dd``."""
    weights = X.matvec(D.T)  # X d; each column then becomes its HVP weights in place
    for j, k in enumerate(rows):
        vals = dd[k] * weights[idx[k], j]
        weights[:, j] = 0.0
        weights[idx[k], j] = vals
    return D + _rows(X.rmatvec(weights))


@dataclass
class _TrialObjective:
    """``lam -> L(w + lam * direction)``, from the margins ``m`` of ``w`` and
    ``mdir = y * X direction``. As the signs are +-1 and negation is exact,
    ``m + lam * mdir`` has the bits of ``y * (X w + lam * X direction)``,
    except that a zero may differ in sign, which no loss reads. ``value`` is
    the last trial's objective."""

    loss: MarginLoss
    c: float
    w: DenseVector
    m: np.ndarray
    direction: DenseVector
    mdir: np.ndarray
    value: float = float("nan")

    def __call__(self, lam: float) -> float:
        self.value = _objective(
            self.loss, self.c, self.w + lam * self.direction, self.m + lam * self.mdir
        )
        return self.value


def objective(problem: BinaryProblem, w: DenseVector) -> float:
    """``0.5 * |w|^2 + C * sum phi(margin_i)``."""
    return _objective(problem.loss, problem.c, w, margins(problem, w))


def gradient(problem: BinaryProblem, w: DenseVector) -> DenseVector:
    """``w + C * sum phi'(margin_i) * y_i * x_i``, summed over every row."""
    every = np.arange(problem.n)
    coef = _grad_coef(problem.loss, problem.c, margins(problem, w), problem.signs, every)
    return _gradient(problem.features, w[None], [every], [coef])[0]


def grad0_norm(problem: BinaryProblem) -> float:
    """``|grad(0)|``, the stopping reference. Every margin at zero is 0, so
    the gradient is ``C * sum phi'(0) * y_i * x_i`` and needs no ``X w`` pass."""
    coef = problem.c * losses.dphi(problem.loss, np.zeros(problem.n)) * problem.signs
    return float(np.linalg.norm(problem.features.rmatvec(coef)))


def hessian_vec(
    problem: BinaryProblem, w: DenseVector, d: DenseVector, active: np.ndarray
) -> DenseVector:
    """``d + C * sum_{i in A} phi''(margin_i) * <x_i, d> * x_i`` over the
    row indices ``active`` (:func:`losses.active_set` at ``w``'s margins).

    The leading ``d`` is the L2-regularizer block; the label signs square
    away inside the curvature term.
    """
    if d.shape[0] != problem.dim:
        raise DimensionMismatchError(f"direction length {d.shape[0]} != dim {problem.dim}")
    dd = _curvature(problem.loss, problem.c, margins(problem, w), active)
    return _hvp(problem.features, [active], [dd], d[None], [0])[0]


def cg_solve(G: np.ndarray, hvp: Callable, cfg: SolverConfig, diag: np.ndarray) -> CgBlock:
    """Approximately solve ``H_k p_k = -G[k]`` for every row ``k`` of the
    ``(b, dim)`` block of gradients ``G`` by preconditioned CG, in lockstep.

    ``diag[k]`` is the diagonal of ``H_k``; the preconditioner is the mixed
    form ``M = precond_alpha * diag(H) + (1 - precond_alpha) * I``. A row
    stops once its preconditioned residual norm ``sqrt(r' M^-1 r)`` drops to
    ``eps_cg`` times the preconditioned norm of its gradient, or at
    ``max_cg``. ``hvp(D, rows)`` returns the products of the directions
    ``D`` of the block rows ``rows`` that still iterate. A numerical failure
    stops its row alone and is reported in the :class:`CgBlock`.
    """
    b = G.shape[0]
    P = np.zeros_like(G)
    iters = [0] * b
    errors: list[NumericalError | None] = [None] * b
    m_inv = 1.0 / (cfg.precond_alpha * diag + (1.0 - cfg.precond_alpha))
    R = -G
    D = m_inv * R  # the first directions are the preconditioned residuals
    rz = [0.0] * b
    ref = [0.0] * b
    live = []
    for k in range(b):
        if float(np.dot(G[k], G[k])) == 0.0:
            continue
        rz[k] = float(np.dot(R[k], D[k]))
        ref[k] = np.sqrt(rz[k])
        if not np.isfinite(ref[k]):
            errors[k] = NumericalError("non-finite preconditioned gradient norm in CG")
            continue
        live.append(k)
    while live:
        HD = hvp(D[live], live)
        still = []
        for j, k in enumerate(live):
            d, hd = D[k], HD[j]
            dhd = float(np.dot(d, hd))
            if not np.isfinite(dhd):
                errors[k] = NumericalError(f"non-finite curvature in CG iteration {iters[k] + 1}")
                continue
            if dhd <= 0.0:
                errors[k] = NumericalError(
                    f"non-positive curvature {dhd:g} in CG iteration {iters[k] + 1}"
                )
                continue
            alpha = rz[k] / dhd
            P[k] += alpha * d
            R[k] -= alpha * hd
            iters[k] += 1
            z = m_inv[k] * R[k]
            rz_next = float(np.dot(R[k], z))
            if not np.isfinite(rz_next):
                errors[k] = NumericalError(f"non-finite residual in CG iteration {iters[k]}")
                continue
            if np.sqrt(max(rz_next, 0.0)) <= cfg.eps_cg * ref[k] or iters[k] == cfg.max_cg:
                continue
            D[k] = z + (rz_next / rz[k]) * d
            rz[k] = rz_next
            still.append(k)
        live = still
    return CgBlock(P, sum(iters), iters, errors)


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


def newton_cg(
    problem: BinaryProblem,
    w0: DenseVector,
    cfg: SolverConfig,
    grad0_ref: float,
) -> tuple[DenseVector, SolverTrace]:
    """Minimize the regularized margin loss starting from ``w0``.

    ``grad0_ref`` is the gradient norm at the zero vector for this problem;
    the outer loop stops once ``|grad| <= eps_outer * grad0_ref``, so every
    initialization strategy targets the same stopping surface. The solve is
    :func:`newton_cg_block` on a block of one; a numerical failure raises a
    :class:`NumericalError` with the trace's ``failure`` message, which
    carries the last accepted iterate and the trace so far.
    """
    W, [trace] = newton_cg_block([problem], w0[None], cfg, [grad0_ref])
    if trace.failure is not None:
        raise NumericalError(trace.failure, w_last=W[0], trace=trace)
    return W[0], trace


def newton_cg_block(
    problems: Sequence[BinaryProblem],
    W0: np.ndarray,
    cfg: SolverConfig,
    grad0_refs: Sequence[float],
) -> tuple[np.ndarray, list[SolverTrace]]:
    """:func:`newton_cg` for every problem of a block in lockstep, from the
    rows of ``W0`` (``b x dim``), with one stopping reference per problem.

    The block's (at least one) problems must share one design matrix
    object, loss and C; they differ only in their signs. A label leaves the
    block when it converges, reaches ``max_outer``, fails its line search or
    meets a non-finite value; the others go on. Returns the ``b x dim``
    last iterates and one trace per label; a label that failed numerically
    keeps its last accepted iterate, and its trace's ``failure`` says why.
    Each label's result is bit for bit the one it gets alone.
    """
    X, loss, c = problems[0].features, problems[0].loss, problems[0].c
    if any(p.features is not X or p.loss != loss or p.c != c for p in problems):
        raise ConfigError("the problems of a block must share X, the loss and C")
    S = [p.signs for p in problems]
    n, b = X.n_rows, len(problems)
    W = np.array(W0, dtype=np.float64)
    if W.shape != (b, X.n_cols):
        raise DimensionMismatchError(f"starts of shape {W.shape} for {b} labels of dim {X.n_cols}")
    traces = [SolverTrace(grad0_ref=ref) for ref in grad0_refs]
    loss_val = [0.0] * b

    def fail(k: int, message: str) -> None:
        traces[k].termination = TERM_NUMERICAL
        traces[k].failure = message

    clock = [time.perf_counter(), time.thread_time()]

    def charge(labels: Sequence[int]) -> None:
        """Split the time since the last charge equally among ``labels``."""
        now = [time.perf_counter(), time.thread_time()]
        wall, cpu = ((a - z) * 1e3 / len(labels) for a, z in zip(now, clock))
        for k in labels:
            traces[k].wall_ms += wall
            traces[k].cpu_ms += cpu
        clock[:] = now

    M = _rows(X.matvec(W.T))  # the margins, once each row is multiplied by its signs
    live = []
    for k in range(b):
        M[k] *= S[k]
        loss_val[k] = _objective(loss, c, W[k], M[k])
        if not np.isfinite(loss_val[k]):
            fail(k, "non-finite objective at the initial point")
            continue
        traces[k].initial_loss = loss_val[k]
        live.append(k)
    charge(range(b))

    def step(live: list[int]) -> list[int]:
        """One lockstep outer iteration of the labels ``live``; returns the
        labels that took a step. Labels are block positions, and every
        per-label value is keyed by its label."""
        # margins -> active set -> gradient -> stopping test
        idx = {k: losses.active_set(loss, M[k]) for k in live}
        coef = (_grad_coef(loss, c, M[k], S[k], idx[k]) for k in live)
        G = dict(zip(live, _gradient(X, W[live], list(idx.values()), coef)))
        gnorm = {k: float(np.linalg.norm(G[k])) for k in live}
        solving = []
        for k in live:
            if not np.isfinite(gnorm[k]):
                fail(k, "non-finite gradient")
            elif gnorm[k] <= cfg.eps_outer * traces[k].grad0_ref:
                traces[k].termination = TERM_CONVERGED
            elif traces[k].outer_iters >= cfg.max_outer:
                traces[k].termination = TERM_MAX_OUTER
            else:
                solving.append(k)
                continue
            traces[k].final_grad_norm = gnorm[k]
        if not solving:
            return []

        # CG on the Newton systems
        act = [idx[k] for k in solving]
        n_active = {k: int(idx[k].shape[0]) for k in solving}
        dd = [_curvature(loss, c, M[k], idx[k]) for k in solving]
        diag = _diag(X, act, dd)
        for row, rows, weights in zip(diag, act, dd):
            if np.isnan(row).any():
                # 0 * inf: a row of weight 0 whose squares overflow. A copy
                # of the active rows leaves the inactive ones out.
                row[:] = 1.0 + X.submatrix(rows).rmatvec_squared(weights)
        G_solving = np.array([G[k] for k in solving])
        cg = cg_solve(G_solving, functools.partial(_hvp, X, act, dd), cfg, diag)
        del idx, act, dd  # up to n entries per label: freed before the line search
        P, cg_iters, g_dot_p = {}, {}, {}
        for k, p, iters, error in zip(solving, cg.p, cg.row_iters, cg.errors):
            if error is not None:
                fail(k, str(error))
                continue
            traces[k].hvp_touches += iters * n_active[k]
            g_dot_p[k] = float(np.dot(G[k], p))
            if g_dot_p[k] >= 0.0:
                fail(k, f"CG returned a non-descent direction (g.p = {g_dot_p[k]:g})")
                continue
            P[k], cg_iters[k] = p, iters
        if not P:
            return []

        # line search and update; the accepted trial's value is the new objective
        XP = X.matvec(np.array(list(P.values())).T)
        stepped = []
        for (k, p), xdir in zip(P.items(), XP.T):
            mdir = S[k] * xdir
            eval_at = _TrialObjective(loss, c, W[k], M[k], p, mdir)
            lam, accepted = backtracking_search(eval_at, loss_val[k], g_dot_p[k], cfg)
            if not accepted:
                traces[k].termination = TERM_LINE_SEARCH
                traces[k].final_grad_norm = gnorm[k]
                continue
            W[k] += lam * p
            M[k] += lam * mdir
            loss_val[k] = eval_at.value
            traces[k].rows.append(TraceRow(
                loss=loss_val[k],
                grad_norm=gnorm[k],
                active_count=n_active[k],
                active_fraction=n_active[k] / n if n else 0.0,
                cg_iters=cg_iters[k],
                step_size=lam,
            ))
            stepped.append(k)
        return stepped

    while live:
        stepped = step(live)
        charge(live)
        live = stepped

    return W, traces
