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

A block of labels is one design matrix X, one loss and one C, and each
label's +-1 signs; the labels move in lockstep, and each step makes one
sparse product for the whole block where one label would make one of its
own. The one-label API takes a :class:`BinaryProblem`, which checks its
signs, loss and C; the block solver trusts the signs its callers build.
Every product runs over the whole X with a literal 0 weight on a label's
inactive rows. A step scatters its labels' gradient coefficients, and then
their curvature weights, into an ``(n, b)`` array of zeros: the weights'
one copy, kept through the step's CG, by which each HVP multiplies its
product ``X D`` in place. A scipy sum starts at +0, so it is never -0, and a
term of either signed zero leaves it unchanged: the bits are those of a sum
over the active rows alone. The one exception is an inactive row whose
square or ``<x_i, d>`` overflowed, as ``0 * inf`` is NaN; the label's column
is then recomputed from a copy of its active rows, which leaves that row out.
Everything else is per label, on that label's own contiguous rows
(``np.dot``, ``np.linalg.norm`` and ``np.sum`` on one row, never a reduction
along an axis), and a column of a scipy product sums in the same order as
the product with that column alone, so a label's bits do not depend on the
block it is solved in. The products, the weights and the CG vectors of a
step are written into a :class:`Buffers`, which one worker reuses for every
block it solves.

A solve's outcome is its trace, for one label as for a block: every
termination, a numerical failure included, returns the last accepted
iterate and the trace, whose ``failure`` says why a failed solve failed.
The solves, :func:`cg_solve` and :func:`norm` set numpy's error state
themselves, so an overflow becomes a non-finite value or a failure on the
trace, never a warning or an error, whatever the caller's state or warning
filters, and worker threads need no state of their own; the one-label
kernels (:func:`objective`, :func:`gradient`, :func:`hessian_vec`) follow
the caller's state, as numpy does.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field
from typing import Callable, ClassVar, Iterable, NamedTuple, Sequence

import numpy as np

from . import losses
from .errors import ConfigError, DimensionMismatchError, is_number
from .losses import MarginLoss
from .sparse import DenseVector, SparseMatrix

TERM_CONVERGED = "converged"
TERM_MAX_OUTER = "max_outer"
TERM_LINE_SEARCH = "line_search_failed"
TERM_NUMERICAL = "numerical_failure"


@dataclass(frozen=True)
class SolverConfig:
    """Newton-CG hyperparameters. The fields are what a caller sets; the class
    constants are fixed: the outer-iteration cap and liblinear's line search
    (Lin, Weng & Keerthi, JMLR 2008) and preconditioner (Hsia, Chiang & Lin, ACML 2018)."""

    eps_outer: float = 0.01  # stop when |grad| <= eps_outer * |grad at zero|
    eps_cg: float = 0.5  # relative preconditioned-residual tolerance
    max_cg: int = 250

    max_outer: ClassVar[int] = 100  # a safety cap: a label that reaches it ends as max_outer
    precond_alpha: ClassVar[float] = 0.01  # M = alpha * diag(H) + (1 - alpha) * I
    ls_beta: ClassVar[float] = 0.5  # backtracking shrink factor
    ls_eta: ClassVar[float] = 0.01  # sufficient-decrease slope fraction
    ls_max_steps: ClassVar[int] = 20

    def __post_init__(self):
        if not all(is_number(v) and 0.0 < v < np.inf for v in (self.eps_outer, self.eps_cg)):
            raise ConfigError("tolerances must be positive and finite")
        # a limit that is not a whole number is never met: CG stops at iters == max_cg
        if not (is_number(self.max_cg, whole=True) and self.max_cg >= 1):
            raise ConfigError("the CG iteration limit max_cg must be a whole number >= 1")


@dataclass(frozen=True)
class BinaryProblem:
    """One label's view of the shared design matrix: signs plus loss weight."""

    features: SparseMatrix
    signs: np.ndarray  # float64, entries in {-1, +1}
    loss: MarginLoss = MarginLoss.SQUARED_HINGE
    c: float = 1.0

    def __post_init__(self):
        if not isinstance(self.loss, MarginLoss):
            raise ConfigError(f"loss: expected MarginLoss, got {self.loss!r}")
        if not (is_number(self.c) and 0.0 < self.c < np.inf):
            raise ConfigError("loss weight c must be finite and > 0")
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
    still in the block. ``train_ova`` adds to them the label's own set-up
    and clipping, and to the ``ovap`` shared solve's its set-up. ``failure``
    says why a solve that ended in ``numerical_failure`` failed, and is None
    otherwise. ``final_grad_norm`` is the gradient norm of the last stopping
    test, whatever the termination.
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

    @property
    def final_loss(self) -> float:
        return self.rows[-1].loss if self.rows else self.initial_loss

    def losses(self) -> list[float]:
        return [self.initial_loss] + [r.loss for r in self.rows]


class CgBlock(NamedTuple):
    """:func:`cg_solve`'s answer for a block: a direction per row, the
    iterations summed over the rows and per row, and per row the message of
    the numerical failure that stopped it, if one did."""

    p: np.ndarray
    iters: int
    row_iters: list[int]
    errors: list[str | None]


@np.errstate(over="ignore", invalid="ignore")
def norm(v: np.ndarray) -> float:
    """``np.linalg.norm(v)``, which squares before its square root, so an
    entry above about 1.3e154 makes it infinite. Where that happens to a
    finite ``v``, the norm of ``v / max|v|`` is scaled back instead; the
    result is then infinite only where the norm is beyond the float range.
    Wherever the plain norm is finite, its bits are returned."""
    out = float(np.linalg.norm(v))
    if out == np.inf and np.isfinite(v).all():
        scale = float(np.max(np.abs(v)))
        out = scale * float(np.linalg.norm(v / scale))
    return out


def margins(problem: BinaryProblem, w: DenseVector) -> np.ndarray:
    """Per-instance margins ``y_i * <w, x_i>``."""
    return problem.signs * problem.features.matvec(w)


class Buffers:
    """Scratch arrays that one worker's solves reuse, so that a step writes
    into memory the worker already holds instead of faulting in fresh pages,
    for blocks of up to ``b`` labels over an ``n x dim`` design matrix: the
    ``(n, b)`` products and weights, the ``(dim, b)`` transposed products,
    and the ``(b, dim)`` gradients, diagonals, HVPs and CG vectors.

    ``get(slot, shape)`` returns the slot's first ``prod(shape)`` entries as
    a C-contiguous float64 array of that shape, holding whatever was left
    there. Ownership: an array that ``get`` returned is valid until its slot
    is asked for again, so it lives no longer than the step or the CG
    iteration that asked for it. The ``weights`` slot holds a step's
    curvature weights from its diagonal until its CG ends, for every HVP to
    read, so nothing may ask for that slot in between. Nothing that outlives
    a step, such as the margins, the iterates or a trace, is a view of a
    slot. A set serves one thread at a time.

    The slots are views of one allocation. Freed at once when the worker is
    done, it raises glibc's dynamic mmap and trim thresholds above the
    scoring's arrays, so that the scoring after training reuses the heap
    instead of faulting it in again at each call. With one array per slot, a
    later ``xova predict`` call on the ``tail`` bench file faulted in about
    1,000 pages in 9 of 20 bench rounds; with one allocation, in none.
    """

    _N_SLOTS = ("product", "weights")  # n * b values each
    _DIM_SLOTS = ("transposed", "gradient", "diag", "hvp", "cg_p", "cg_r", "cg_d", "cg_m_inv")

    __slots__ = ("_flat",)

    def __init__(self, n: int, dim: int, b: int):
        sizes = [n * b] * len(self._N_SLOTS) + [dim * b] * len(self._DIM_SLOTS)
        arena = np.split(np.empty(sum(sizes)), np.cumsum(sizes)[:-1])
        self._flat = dict(zip(self._N_SLOTS + self._DIM_SLOTS, arena))

    def get(self, slot: str, shape: tuple[int, ...]) -> np.ndarray:
        flat, size = self._flat[slot], math.prod(shape)
        if size > flat.size:
            raise ValueError(f"{shape} does not fit the {flat.size} values of slot {slot!r}")
        return flat[:size].reshape(shape)


# The kernels below take inputs the caller has already computed (margins,
# active rows, products with X), so that the block solver and the public
# one-label wrappers after them run the same code without extra passes.
# Their products go into the slots of a Buffers; the one-label wrappers
# pass a fresh set.


def _scatter(
    idx: Sequence[np.ndarray], values: Iterable[np.ndarray], out: np.ndarray
) -> np.ndarray:
    """Fill the ``(n, r)`` weights ``out``: column ``j`` holds ``values[j]``
    at the rows ``idx[j]`` and a literal 0 on every other row."""
    out.fill(0.0)
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


def _mend_nan(
    T: np.ndarray, X: SparseMatrix, DD: np.ndarray, idx, rows: Sequence[int],
    D: np.ndarray | None = None,
) -> None:
    """Recompute from a copy of its label's active rows each column ``j`` of
    ``T``, the ``(dim, r)`` product of ``X.T`` with the weights ``DD``, that
    holds a NaN: the curvature term of the diagonal, or with ``D`` that of
    the direction ``D[j]``. Column ``j`` belongs to the label ``k = rows[j]``:
    its active rows ``idx[k]``, with the weights ``DD[idx[k], k]`` that
    :func:`_scatter` wrote. An inactive row's weight 0 times an overflowed
    square or ``<x_i, d>`` is NaN, and the copy leaves that row out; a NaN
    that the active rows make, the copy makes too, even where a weight is 0."""
    if np.isnan(T).any():
        for j in np.flatnonzero(np.isnan(T).any(axis=0)):
            k = rows[j]
            active, weights = X.submatrix(idx[k]), DD[idx[k], k]
            if D is None:
                T[:, j] = active.rmatvec_squared(weights)
            else:
                T[:, j] = active.rmatvec(weights * active.matvec(D[j]))


def _gradient(X: SparseMatrix, W: np.ndarray, idx, coef, buffers: Buffers) -> np.ndarray:
    """Per row ``k`` of ``W``, ``w_k + sum_{i in idx[k]} coef[k]_i * x_i``."""
    r = len(idx)
    weights = _scatter(idx, coef, buffers.get("weights", (X.n_rows, r)))
    T = X.rmatvec(weights, out=buffers.get("transposed", (X.n_cols, r)))
    return np.add(W, T.T, out=buffers.get("gradient", W.shape))


def _diag(X: SparseMatrix, DD: np.ndarray, idx, buffers: Buffers) -> np.ndarray:
    """Per label ``k``, the Hessian's diagonal ``1 + sum_{i in idx[k]} DD[i, k]
    * x_i^2``, with ``DD`` the scattered curvature weights (:func:`_scatter`)."""
    T = X.rmatvec_squared(DD, out=buffers.get("transposed", (X.n_cols, DD.shape[1])))
    _mend_nan(T, X, DD, idx, range(DD.shape[1]))
    return np.add(1.0, T.T, out=buffers.get("diag", T.T.shape))


def _hvp(
    X: SparseMatrix, DD: np.ndarray, idx, D: np.ndarray, rows: Sequence[int], buffers: Buffers
) -> np.ndarray:
    """``d + sum_{i in idx[k]} DD[i, k] * <x_i, d> * x_i`` for each direction
    ``d`` of ``D``, whose row ``j`` belongs to the label ``k = rows[j]``.
    ``rows`` increase and index the columns of ``DD``, the curvature weights
    scattered (:func:`_scatter`) and kept for the step's CG, and of ``idx``,
    which only a NaN column reads. The product ``X D`` is the one ``(n, r)``
    array it writes, multiplied by ``DD`` at once where every label of the step
    still iterates, else column by column (a gather ``DD[:, rows]`` is slower)."""
    XD = X.matvec(D.T, out=buffers.get("product", (X.n_rows, len(rows))))
    with np.errstate(invalid="ignore"):  # an inactive row's 0 * inf, which _mend_nan mends
        if len(rows) == DD.shape[1]:
            XD *= DD
        else:
            for j, k in enumerate(rows):
                XD[:, j] *= DD[:, k]
    T = X.rmatvec(XD, out=buffers.get("transposed", (X.n_cols, len(rows))))
    _mend_nan(T, X, DD, idx, rows, D)
    return np.add(D, T.T, out=buffers.get("hvp", D.shape))


def objective(problem: BinaryProblem, w: DenseVector) -> float:
    """``0.5 * |w|^2 + C * sum phi(margin_i)``."""
    return _objective(problem.loss, problem.c, w, margins(problem, w))


def gradient(problem: BinaryProblem, w: DenseVector) -> DenseVector:
    """``w + C * sum phi'(margin_i) * y_i * x_i``, summed over every row."""
    every = np.arange(problem.n)
    coef = _grad_coef(problem.loss, problem.c, margins(problem, w), problem.signs, every)
    buffers = Buffers(problem.n, problem.dim, 1)
    return _gradient(problem.features, w[None], [every], [coef], buffers)[0]


def hessian_vec(
    problem: BinaryProblem, w: DenseVector, d: DenseVector, active: np.ndarray
) -> DenseVector:
    """``d + C * sum_{i in A} phi''(margin_i) * <x_i, d> * x_i`` over the
    row indices ``active`` (:func:`losses.active_set` at ``w``'s margins).

    The leading ``d`` is the L2-regularizer block; the label signs square
    away inside the curvature term.
    """
    dd = _curvature(problem.loss, problem.c, margins(problem, w), active)
    buffers = Buffers(problem.n, problem.dim, 1)
    DD = _scatter([active], [dd], buffers.get("weights", (problem.n, 1)))
    return _hvp(problem.features, DD, [active], d[None], [0], buffers)[0]


@np.errstate(over="ignore", invalid="ignore")
def cg_solve(
    G: np.ndarray,
    hvp: Callable,
    cfg: SolverConfig,
    diag: np.ndarray,
    buffers: Buffers,
) -> CgBlock:
    """Approximately solve ``H_k p_k = -G[k]`` for every row ``k`` of the
    ``(b, dim)`` block of gradients ``G`` by preconditioned CG, in lockstep.

    ``diag[k]`` is the diagonal of ``H_k``; the preconditioner is the mixed
    form ``M = precond_alpha * diag(H) + (1 - precond_alpha) * I``. A row
    stops once its preconditioned residual norm ``sqrt(r' M^-1 r)`` drops to
    ``eps_cg`` times the preconditioned norm of its gradient, or at
    ``max_cg``. ``hvp(D, rows)`` returns the products of the directions
    ``D`` of the block rows ``rows`` that still iterate. A numerical failure
    stops its row alone; its message is the row's entry of ``errors``. The
    directions, the residuals and the answer's ``p`` are slots of ``buffers``.
    """
    b = G.shape[0]
    P = buffers.get("cg_p", G.shape)
    P.fill(0.0)
    iters = [0] * b
    errors: list[str | None] = [None] * b
    m_inv = np.multiply(cfg.precond_alpha, diag, out=buffers.get("cg_m_inv", G.shape))
    m_inv += 1.0 - cfg.precond_alpha
    np.divide(1.0, m_inv, out=m_inv)
    R = np.negative(G, out=buffers.get("cg_r", G.shape))
    # the first directions are the preconditioned residuals
    D = np.multiply(m_inv, R, out=buffers.get("cg_d", G.shape))
    rz = [0.0] * b
    ref = [0.0] * b
    live = []
    for k in range(b):
        if float(np.dot(G[k], G[k])) == 0.0:
            continue
        rz[k] = float(np.dot(R[k], D[k]))
        ref[k] = np.sqrt(rz[k])
        if not np.isfinite(ref[k]):
            errors[k] = "non-finite preconditioned gradient norm in CG"
        elif rz[k] == 0.0:  # M^-1 is 0, or underflows, wherever the gradient is not 0
            errors[k] = "zero preconditioned gradient in CG: the Hessian diagonal is too large"
        else:
            live.append(k)
    while live:
        HD = hvp(D[live], live)
        still = []
        for j, k in enumerate(live):
            d, hd = D[k], HD[j]
            dhd = float(np.dot(d, hd))
            if not np.isfinite(dhd):
                errors[k] = f"non-finite curvature in CG iteration {iters[k] + 1}"
                continue
            if dhd <= 0.0:
                errors[k] = f"non-positive curvature {dhd:g} in CG iteration {iters[k] + 1}"
                continue
            alpha = rz[k] / dhd
            P[k] += alpha * d
            R[k] -= alpha * hd
            iters[k] += 1
            z = m_inv[k] * R[k]
            rz_next = float(np.dot(R[k], z))
            if not np.isfinite(rz_next):
                errors[k] = f"non-finite residual in CG iteration {iters[k]}"
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
    initialization strategy targets the same stopping surface; a reference
    that is not finite is a numerical failure at the first test. The solve is
    :func:`newton_cg_block` on a block of one, and its outcome is the
    trace, whatever the termination: a numerical failure keeps the last
    accepted iterate, and the trace's ``failure`` says why.
    """
    W, [trace] = newton_cg_block(
        problem.features, problem.loss, problem.c, [problem.signs], w0[None], cfg, [grad0_ref]
    )
    return W[0], trace


@np.errstate(over="ignore", invalid="ignore")
def newton_cg_block(
    X: SparseMatrix,
    loss: MarginLoss,
    c: float,
    S: Sequence[np.ndarray],
    W0: np.ndarray | Sequence[DenseVector],
    cfg: SolverConfig,
    grad0_refs: Sequence[float],
    buffers: Buffers | None = None,
) -> tuple[np.ndarray, list[SolverTrace]]:
    """:func:`newton_cg` for a block of labels over one design matrix ``X``,
    loss and C, in lockstep, from the ``b`` starts ``W0`` (rows of length
    ``dim``), with one stopping reference per label.

    ``S[k]`` holds label ``k``'s signs, unchecked: float64 of length ``n``,
    each +1 or -1, as the callers build them (:class:`BinaryProblem` is the
    checked form of one label). A label leaves the block when it converges,
    reaches ``max_outer``, fails its line search or meets a non-finite
    value; the others go on. Returns the ``b x dim`` last iterates and one
    trace per label, at once for an empty block; a label that failed
    numerically keeps its last accepted iterate, and its trace's ``failure``
    says why. Each label's result is bit for bit the one it gets alone. The
    products and CG vectors go into ``buffers``, a new set if none is given;
    a worker passes its own set to every block it solves.
    """
    n, b = X.n_rows, len(S)
    W = np.array(W0, dtype=np.float64)  # copies the starts, which may share one vector
    if W.shape != (b, X.n_cols):
        raise DimensionMismatchError(f"starts of shape {W.shape} for {b} labels of dim {X.n_cols}")
    if not b:
        return W, []
    if buffers is None:
        buffers = Buffers(n, X.n_cols, b)
    traces = [SolverTrace(grad0_ref=ref) for ref in grad0_refs]

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

    # the margins, once each row is multiplied by its signs: a copy, as the
    # product is a slot of the buffers and the margins outlive the step
    M = X.matvec(W.T, out=buffers.get("product", (n, b))).T.copy()
    live = []
    for k in range(b):
        M[k] *= S[k]
        initial = _objective(loss, c, W[k], M[k])
        if not np.isfinite(initial):
            fail(k, "non-finite objective at the initial point")
            continue
        traces[k].initial_loss = initial
        live.append(k)
    charge(range(b))

    def step(live: list[int]) -> list[int]:
        """One lockstep outer iteration of the labels ``live``; returns the
        labels that took a step. Labels are block positions, and every
        per-label value is keyed by its label or carries it."""
        # margins -> active set -> gradient -> stopping test
        idx = {k: losses.active_set(loss, M[k]) for k in live}
        coef = (_grad_coef(loss, c, M[k], S[k], idx[k]) for k in live)
        G = dict(zip(live, _gradient(X, W[live], list(idx.values()), coef, buffers)))
        solving = []
        for k in live:
            gnorm = traces[k].final_grad_norm = norm(G[k])
            if not np.isfinite(gnorm):
                fail(k, "non-finite gradient")
            elif not np.isfinite(traces[k].grad0_ref):  # inf would pass any test, nan none
                fail(k, "non-finite stopping reference")
            elif gnorm <= cfg.eps_outer * traces[k].grad0_ref:
                traces[k].termination = TERM_CONVERGED
            elif traces[k].outer_iters < cfg.max_outer:  # else it ends as the trace's max_outer
                solving.append(k)
        if not solving:
            return []

        # CG on the Newton systems; the weights slot keeps DD until CG ends
        act = [idx[k] for k in solving]
        dd = (_curvature(loss, c, M[k], idx[k]) for k in solving)  # each is freed once scattered
        DD = _scatter(act, dd, buffers.get("weights", (n, len(solving))))
        diag = _diag(X, DD, act, buffers)
        hvp = functools.partial(_hvp, X, DD, act, buffers=buffers)
        cg = cg_solve(np.array([G[k] for k in solving]), hvp, cfg, diag, buffers)
        # (label, direction, g.p, CG iterations, active rows) per descent direction
        descents = []
        for k, p, iters, error, count in zip(solving, cg.p, cg.row_iters, cg.errors, map(len, act)):
            if error is not None:
                fail(k, error)
                continue
            traces[k].hvp_touches += iters * count
            slope = float(np.dot(G[k], p))
            if slope >= 0.0:
                fail(k, f"CG returned a non-descent direction (g.p = {slope:g})")
                continue
            descents.append((k, p, slope, iters, count))
        del idx, act, hvp  # up to n entries per label: freed before the line search
        if not descents:
            return []

        # line search and update; the accepted trial's value is the new objective
        directions = np.array([p for _, p, *_ in descents])
        XP = X.matvec(directions.T, out=buffers.get("product", (n, len(descents))))
        stepped = []
        for (k, p, slope, iters, count), xdir in zip(descents, XP.T):
            mdir = S[k] * xdir
            trials = []  # each trial's objective; the last is the accepted one

            def eval_at(lam: float) -> float:
                # the signs are +-1 and negation is exact, so m + lam * mdir has the bits
                # of y * (X w + lam * X p), but for the sign of a zero, which no loss reads
                trials.append(_objective(loss, c, W[k] + lam * p, M[k] + lam * mdir))
                return trials[-1]

            lam, accepted = backtracking_search(eval_at, traces[k].final_loss, slope, cfg)
            if not accepted:
                traces[k].termination = TERM_LINE_SEARCH
                continue
            W[k] += lam * p
            M[k] += lam * mdir
            traces[k].rows.append(TraceRow(
                loss=trials[-1],
                grad_norm=traces[k].final_grad_norm,
                active_count=count,
                active_fraction=count / n if n else 0.0,
                cg_iters=iters,
                step_size=lam,
            ))
            stepped.append(k)
        return stepped

    while live:
        stepped = step(live)
        charge(live)
        live = stepped

    return W, traces
