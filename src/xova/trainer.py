"""One-vs-all training across labels, the sparse model, and diagnostics.

Each label is an independent binary solve against the shared read-only
design matrix; workers only write into per-label slots, so results are
identical for any thread count. Weights below the clip threshold are
dropped once after convergence, which shrinks the stored model without
touching the optimization itself.
"""

from __future__ import annotations

import concurrent.futures
import functools
import hashlib
import itertools
import json
import operator
import os
import time
import warnings
from dataclasses import asdict, dataclass
from typing import Iterator

import numpy as np

from . import losses
from . import solver as solver_mod
from .dataio import MAX_COUNT, Dataset, LabelStats, dataset_digest, reject_non_finite
from .errors import (
    ConfigError, DimensionMismatchError, InvalidEntryError, ModelFormatError, NumericalError
)
from .initializers import (
    INIT_KINDS,
    AopPrecompute,
    InitStrategy,
    aop_init,
    bias_init,
    ovap_solve,
    zero_init,
)
from .losses import MarginLoss, parse_loss
from .solver import BinaryProblem, SolverConfig, SolverTrace, TERM_NUMERICAL, grad0_norm
from .sparse import SparseMatrix

MODEL_MAGIC = "xova"
MODEL_VERSION = "v2"
# Rows of X scored at once: the dense score block is this many rows by L,
# whatever the chunk size below (README, "Prediction and evaluation").
_BLOCK_ROWS = 512
# Bytes of one dense chunk of W.T: d rows by as many labels as fit, at
# least one. A model that fits is densified once per scoring call, a larger
# one chunk by chunk for each block of rows, so this caps the memory that
# scoring adds. At 4 MiB, one chunk of the benchmark's topic model raised
# peak RSS by 2.4%; at 2 MiB it stays below the sparse product's.
_CHUNK_BYTES = 2 << 20
# Labels solved in lockstep, one sparse product per step for all of them
# (README, "Solver"). The solver holds a few dense arrays of this many rows
# by n, so it bounds the memory a worker adds; the models do not depend on
# it.
_BLOCK_LABELS = 16


@dataclass(frozen=True)
class TrainConfig:
    loss: MarginLoss = MarginLoss.SQUARED_HINGE
    init: InitStrategy = InitStrategy()
    solver: SolverConfig = SolverConfig()
    c: float = 1.0
    clip_threshold: float = 0.01
    threads: int = 1
    collect_traces: bool = False

    def __post_init__(self):
        if not 0.0 <= self.clip_threshold < np.inf:
            raise ConfigError("clip threshold must be finite and >= 0")
        if self.threads < 1:
            raise ConfigError("thread count must be >= 1")
        if not 0.0 < self.c < np.inf:
            raise ConfigError("loss weight c must be finite and > 0")
        if self.init.kind == "aop":
            s, t = self.init.resolved_aop(self.loss)
            if not s > t:
                warnings.warn(
                    f"aop margin targets s={s} <= t={t}; the positive mean should "
                    "normally sit on the positive side of the negative mean",
                    stacklevel=3,  # past the dataclass __init__, at the caller
                )

    def resolved_init_params(self) -> dict:
        if self.init.kind == "bias":
            return {"scale": self.init.bias_scale}
        if self.init.kind == "ovap":
            return {"stop_rel": self.init.ovap_stop_rel}
        if self.init.kind == "aop":
            s, t = self.init.resolved_aop(self.loss)
            return {"s": s, "t": t}
        return {}

    def settings(self) -> dict:
        """The settings as the report writes them, in its key order."""
        return {
            "loss": self.loss.token,
            "init": self.init.kind,
            "init_params": self.resolved_init_params(),
            "solver": asdict(self.solver),
            "c": self.c,
            "clip_threshold": self.clip_threshold,
            "threads": self.threads,
        }

    def digest(self) -> str:
        """Hash of the settings but ``threads``, which leaves the model as it is."""
        settings = {k: v for k, v in self.settings().items() if k != "threads"}
        return hashlib.sha256(json.dumps(settings, sort_keys=True).encode()).hexdigest()[:12]


@dataclass
class OvaModel:
    """Label weights, one row per label of an L x d matrix, and the loss and
    init tokens of the training run."""

    weights: SparseMatrix
    bias_index: int | None
    loss: str
    init: str

    @property
    def n_labels(self) -> int:
        return self.weights.n_rows

    @property
    def dim(self) -> int:
        return self.weights.n_cols


@dataclass
class LabelResult:
    label: int
    positives: int
    outer_iters: int
    hvp_touches: int
    wall_ms: float
    cpu_ms: float  # CPU time of the worker thread
    final_loss: float
    termination: str
    first_step_size: float | None
    failure: str | None  # why a numerical_failure failed, from SolverTrace.failure


@dataclass
class TrainReport:
    config: TrainConfig
    dataset: dict  # n, dim, n_labels and digest of the training set
    labels: list[LabelResult]
    iter_active_fraction_mean: list[float]
    iter_step_size_mean: list[float]
    iter_count: list[int]
    total_wall_ms: float
    total_hvp_touches: int
    init_wall_ms: float = 0.0
    init_hvp_touches: int = 0
    init_failure: str | None = None  # why ovap's shared solve failed, if it did
    traces: dict[int, SolverTrace] | None = None
    # milliseconds of each phase of `xova train`; None where nothing timed them
    phases: dict[str, float] | None = None

    @property
    def n_failed(self) -> int:
        return sum(1 for r in self.labels if r.termination == TERM_NUMERICAL)

    def mean_outer_iters(self) -> float:
        if not self.labels:
            return 0.0
        return float(np.mean([r.outer_iters for r in self.labels]))

    def to_json_dict(self) -> dict:
        cfg = self.config
        return {
            "format": "xova-report v1",
            "dataset": self.dataset,
            **cfg.settings(),
            "config_digest": cfg.digest(),
            "totals": {
                "wall_ms": self.total_wall_ms,
                "hvp_touches": self.total_hvp_touches,
                "labels_trained": len(self.labels),
                "failed": self.n_failed,
                "init_wall_ms": self.init_wall_ms,
                "init_hvp_touches": self.init_hvp_touches,
                "init_failure": self.init_failure,
            },
            "phases": self.phases,
            "iterations": {
                "active_fraction_mean": self.iter_active_fraction_mean,
                "step_size_mean": self.iter_step_size_mean,
                "count": self.iter_count,
            },
            # strict JSON has no NaN: a label that failed at its start has a null final_loss
            "labels": [
                {**asdict(r), "final_loss": r.final_loss if np.isfinite(r.final_loss) else None}
                for r in self.labels
            ],
        }

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=1, allow_nan=False)
            fh.write("\n")

    def write_labels_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(
                "label,positives,outer_iters,hvp_touches,wall_ms,final_loss,termination,cpu_ms,"
                "failure\n"
            )
            for r in self.labels:
                # quoted as CSV quotes a field, so that a comma in the message is safe
                failure = "" if r.failure is None else '"' + r.failure.replace('"', '""') + '"'
                fh.write(
                    f"{r.label},{r.positives},{r.outer_iters},{r.hvp_touches},"
                    f"{r.wall_ms:.3f},{r.final_loss:.17g},{r.termination},{r.cpu_ms:.3f},"
                    f"{failure}\n"
                )


def grad0_closed_form(stats: LabelStats, label: int, loss: MarginLoss, c: float) -> float:
    """``|grad(0)|`` of one label from its statistics, with no pass over X.

    Every margin at zero is 0, so ``grad(0) = C * phi'(0) * sum_i y_i x_i``,
    and the positives' and the negatives' sums follow from the means:
    ``sum_i y_i x_i = 2 |P| pbar - n xbar``. Not finite where the means
    overflow.
    """
    pbar = stats.pbar.row(label)
    v = -float(stats.n) * stats.xbar
    v[pbar.indices] += (2 * stats.positives[label].size) * pbar.values
    return abs(c * losses.dphi(loss, 0.0)) * float(np.linalg.norm(v))


def train_ova(ds: Dataset, stats: LabelStats, cfg: TrainConfig) -> tuple[OvaModel, TrainReport]:
    """Train one binary classifier per label and assemble the sparse model.

    A numerical failure in one label's solve is recorded in the report (the
    last accepted iterate is kept) and training continues; configuration
    errors abort before any label is trained.
    """
    if ds.n == 0:
        raise ConfigError("cannot train on an empty dataset")
    if stats.n != ds.n or stats.n_labels != ds.n_labels:
        raise ConfigError("label statistics were computed from a different dataset")

    X = ds.features
    n = ds.n
    init = cfg.init

    # Every start but aop's is one shared vector; np.array(w0s) copies it
    # into each block's starts, so one vector serves every label.
    t_start = time.perf_counter()
    init_wall_ms = 0.0
    init_hvp_touches = 0
    init_failure = None
    if init.kind == "aop":
        # An overflowing <xbar, xbar> makes every aop start non-finite, which
        # each label's solve reports as numerical_failure.
        with np.errstate(over="ignore"):
            aop_pre = AopPrecompute(xbar=stats.xbar, xbar_sq=stats.xbar_sq, n=stats.n)
        s, t = init.resolved_aop(cfg.loss)
    elif init.kind == "ovap":
        all_neg = BinaryProblem(X, np.full(n, -1.0), cfg.loss, cfg.c)
        # An overflow ends in a non-finite value, which the shared solve
        # raises as a NumericalError. As in a label's solve, the last
        # accepted iterate is kept: every label is still solved from it,
        # and those that fail are reported as numerical_failure.
        with np.errstate(over="ignore"):
            try:
                w_shared, ovap_trace = ovap_solve(all_neg, cfg.solver, init.ovap_stop_rel)
            except NumericalError as err:
                w_shared, ovap_trace = err.w_last, err.trace
        init_wall_ms = (time.perf_counter() - t_start) * 1e3
        init_hvp_touches = ovap_trace.hvp_touches
        init_failure = ovap_trace.failure
    elif init.kind == "bias":
        w_shared = bias_init(ds.dim, ds.bias_index, init.bias_scale)
    else:
        w_shared = zero_init(ds.dim)

    def work(labels: range):
        """Solve one block of labels. Each label is charged its own set-up
        and clipping and its share of the block's solver steps."""
        problems, w0s, refs, own = [], [], [], []
        # Overflow on huge inputs ends in non-finite values (inf, or nan from
        # inf * 0 in the aop start), which the solver reports as
        # numerical_failure. errstate is per thread, so it is set here.
        with np.errstate(over="ignore", invalid="ignore"):
            for label in labels:
                t0, c0 = time.perf_counter(), time.thread_time()
                signs = np.full(n, -1.0)
                signs[stats.positives[label]] = 1.0
                problems.append(BinaryProblem(X, signs, cfg.loss, cfg.c))
                if init.kind == "aop":
                    p_count = int(stats.positives[label].size)
                    w0s.append(aop_init(stats.pbar.row(label), p_count, aop_pre, s, t))
                else:
                    w0s.append(w_shared)
                ref = grad0_closed_form(stats, label, cfg.loss, cfg.c)
                refs.append(ref if np.isfinite(ref) else grad0_norm(problems[-1]))
                own.append((time.perf_counter() - t0, time.thread_time() - c0))
            W, traces = solver_mod.newton_cg_block(problems, np.array(w0s), cfg.solver, refs)
        out = []
        for label, w, trace, (wall, cpu) in zip(labels, W, traces, own):
            t0, c0 = time.perf_counter(), time.thread_time()
            kept = np.flatnonzero(np.abs(w) >= cfg.clip_threshold)
            result = LabelResult(
                label=label,
                positives=int(stats.positives[label].size),
                outer_iters=trace.outer_iters,
                hvp_touches=trace.hvp_touches,
                wall_ms=(wall + time.perf_counter() - t0) * 1e3 + trace.wall_ms,
                cpu_ms=(cpu + time.thread_time() - c0) * 1e3 + trace.cpu_ms,
                final_loss=trace.rows[-1].loss if trace.rows else trace.initial_loss,
                termination=trace.termination,
                first_step_size=trace.first_step_size,
                failure=trace.failure,
            )
            out.append((kept, w[kept], result, trace))
        return out

    every = range(ds.n_labels)
    blocks = [every[lo : lo + _BLOCK_LABELS] for lo in every[::_BLOCK_LABELS]]
    if cfg.threads == 1 or len(blocks) <= 1:
        solved_blocks = list(map(work, blocks))
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            solved_blocks = list(pool.map(work, blocks))
    outcomes = [outcome for block in solved_blocks for outcome in block]
    idx_parts, val_parts, results, traces = zip(*outcomes) if outcomes else ((),) * 4
    # per outer iteration, the rows of the labels that reached it, in label order
    iterations = [
        [row for row in rows if row is not None]
        for rows in itertools.zip_longest(*(trace.rows for trace in traces))
    ]

    def mean(values: list[float]) -> float:
        # one addition at a time, in label order: sum() compensates float
        # rounding from Python 3.12 on, so the means would vary by interpreter
        return functools.reduce(operator.add, values, 0.0) / len(values)

    model = OvaModel(
        weights=SparseMatrix.stack(idx_parts, val_parts, ds.dim),
        bias_index=ds.bias_index,
        loss=cfg.loss.token,
        init=init.kind,
    )
    report = TrainReport(
        config=cfg,
        dataset={"n": n, "dim": ds.dim, "n_labels": ds.n_labels, "digest": dataset_digest(ds)},
        labels=list(results),
        iter_active_fraction_mean=[mean([r.active_fraction for r in it]) for it in iterations],
        iter_step_size_mean=[mean([r.step_size for r in it]) for it in iterations],
        iter_count=[len(it) for it in iterations],
        total_wall_ms=(time.perf_counter() - t_start) * 1e3,
        total_hvp_touches=init_hvp_touches + sum(r.hvp_touches for r in results),
        init_wall_ms=init_wall_ms,
        init_hvp_touches=init_hvp_touches,
        init_failure=init_failure,
        traces=dict(enumerate(traces)) if cfg.collect_traces else None,
    )
    return model, report


def _dense_labels(W: SparseMatrix, lo: int, hi: int) -> np.ndarray:
    """Rows ``lo:hi`` of ``W`` as the dense, C-contiguous ``(d, hi - lo)``
    columns of ``W.T``, written label by label from W's own arrays."""
    chunk = np.zeros((W.n_cols, hi - lo))
    bounds = W.indptr[lo : hi + 1].tolist()
    for c, (a, b) in enumerate(zip(bounds, bounds[1:])):
        chunk[W.indices[a:b], c] = W.data[a:b]
    return chunk


def score_blocks(model: OvaModel, X: SparseMatrix) -> Iterator[tuple[int, np.ndarray]]:
    """``(row offset, dense block of X @ W.T)`` over blocks of ``_BLOCK_ROWS``
    rows of ``X``.

    Each block is multiplied by dense label chunks of ``W.T`` of at most
    ``_CHUNK_BYTES``. The last chunk densified is kept, and every other
    block takes the chunks in reverse order, so the next block starts with
    it: a model that fits in one chunk is densified once per call.
    The scores have the bits of the sparse product ``X @ W.T``: each sums
    the row's nonzeros in index order, and a weight that is not stored adds
    ``x * 0 = ±0`` to an accumulator that starts at +0 and so is never -0.
    """
    if X.n_cols != model.dim:
        raise DimensionMismatchError(
            f"data dimension {X.n_cols} != model dimension {model.dim}"
        )
    W, xs = model.weights, X.to_scipy()
    width = max(1, _CHUNK_BYTES // (8 * max(W.n_cols, 1)))
    chunks = [(lo, min(lo + width, W.n_rows)) for lo in range(0, W.n_rows, width)]

    def blocks():
        held = None  # (first label, dense chunk) of the last chunk densified
        for r in range(0, X.n_rows, _BLOCK_ROWS):
            rows = xs[r : r + _BLOCK_ROWS]
            block = np.empty((rows.shape[0], W.n_rows))
            for lo, hi in chunks:
                if held is None or held[0] != lo:
                    held = None  # free the old chunk before the new one is built
                    held = lo, _dense_labels(W, lo, hi)
                block[:, lo:hi] = rows @ held[1]
            chunks.reverse()  # the next block starts with the chunk held
            yield r, block

    return blocks()


def block_topk(block: np.ndarray, k: int) -> np.ndarray:
    """Per row of a score block, the columns of the k best scores, best
    first, ties to the lower column: ``np.argsort(-block, kind="stable")[:, :k]``.

    ``np.partition`` finds each row's k-th best value; the columns strictly
    better than it, and then its ties from the lowest column up, are the k
    chosen, and only those k are sorted, stably. -0 ties with +0. A row
    whose k-th best is NaN (fewer than k scores that are not NaN) is sorted
    whole.
    """
    neg = -block
    kth = np.partition(neg, k - 1, axis=1)[:, k - 1 : k]
    top = np.empty((neg.shape[0], k), dtype=np.intp)
    rows = ~np.isnan(kth[:, 0])
    if not rows.all():
        top[~rows] = np.argsort(neg[~rows], axis=1, kind="stable")[:, :k]
        neg, kth = neg[rows], kth[rows]
    chosen = neg <= kth  # the strictly better and all the ties
    over = np.count_nonzero(chosen, axis=1) > k
    if over.any():  # more ties than places: keep the lowest columns
        sub, at = neg[over], kth[over]
        ties = sub == at
        need = k - np.count_nonzero(sub < at, axis=1, keepdims=True)
        chosen[over] &= ~ties | (np.cumsum(ties, axis=1) <= need)
    cols = np.nonzero(chosen)[1].reshape(-1, k)
    order = np.argsort(np.take_along_axis(neg, cols, axis=1), axis=1, kind="stable")
    top[rows] = np.take_along_axis(cols, order, axis=1)
    return top


def predict_topk(model: OvaModel, X: SparseMatrix, k: int) -> list[list[tuple[int, float]]]:
    """Per row of ``X``, the k highest-scoring labels with scores, non-increasing."""
    if not 1 <= k <= model.n_labels:
        raise ConfigError(f"k={k} out of range for {model.n_labels} labels")
    out = []
    for _, block in score_blocks(model, X):
        top = block_topk(block, k)
        picked = np.take_along_axis(block, top, axis=1)
        out.extend(list(zip(t, v)) for t, v in zip(top.tolist(), picked.tolist()))
    return out


def save_model(model: OvaModel, path) -> None:
    """Write the model as one ASCII header line and W's CSR arrays
    (README, "Model format"); the same model gives the same bytes."""
    W = model.weights
    bias = -1 if model.bias_index is None else model.bias_index
    header = (
        f"{MODEL_MAGIC} {MODEL_VERSION} {model.n_labels} {model.dim} {W.nnz} {bias} "
        f"{model.loss} {model.init}\n"
    )
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        np.asarray(W.indptr, dtype="<i8").tofile(fh)
        np.asarray(W.indices, dtype="<i8").tofile(fh)
        np.asarray(W.data, dtype="<f8").tofile(fh)


def load_model(path) -> OvaModel:
    """Read a model file. A malformed header, a file length other than the
    header's arrays need, bad row offsets, and an invalid or non-finite
    weight are each a ModelFormatError; a weight's error names its label."""
    with open(path, "rb") as fh:
        # A header is under 128 bytes; the cap bounds what a file without one costs.
        header = fh.readline(256)
        if not header.isascii() or b"_" in header:
            raise ModelFormatError("invalid header character: digit separator '_' or non-ASCII")
        parts = header.decode("ascii").split()
        magic, version = (parts + ["", ""])[:2]
        if magic != MODEL_MAGIC:
            raise ModelFormatError(f"not a model file (magic {magic!r})")
        if version != MODEL_VERSION:
            raise ModelFormatError(
                f"unsupported model version {version!r}, expected {MODEL_VERSION!r}"
            )
        if len(parts) != 8 or not header.endswith(b"\n"):
            raise ModelFormatError(f"malformed header {header[:80]!r}")
        loss_token, init_token = parts[6:]
        try:
            n_labels, dim, nnz, bias = map(int, parts[2:6])
        except ValueError:
            raise ModelFormatError("non-integer header field") from None
        if not all(0 <= v < MAX_COUNT for v in (n_labels, dim, nnz)):
            raise ModelFormatError(
                f"label count, dimension and nonzero count must lie in [0, {MAX_COUNT})"
            )
        try:
            parse_loss(loss_token)
        except ConfigError:
            raise ModelFormatError(f"unknown loss token {loss_token!r}") from None
        if init_token not in INIT_KINDS:
            raise ModelFormatError(f"unknown init token {init_token!r}")
        if bias not in (-1, dim - 1):
            raise ModelFormatError(f"bias index {bias} is neither -1 nor dim - 1 = {dim - 1}")
        # The length is checked before any array is allocated, so a count
        # beyond the file allocates nothing.
        size = os.fstat(fh.fileno()).st_size
        want = len(header) + 8 * (n_labels + 1 + 2 * nnz)
        if size != want:
            raise ModelFormatError(f"file holds {size} bytes, its header needs {want}")
        indptr = np.fromfile(fh, dtype="<i8", count=n_labels + 1)
        indices = np.fromfile(fh, dtype="<i8", count=nnz)
        data = np.fromfile(fh, dtype="<f8", count=nnz)
    try:
        weights = SparseMatrix(indptr, indices, data, dim)
        reject_non_finite(weights, "weight")
    except InvalidEntryError as err:
        raise ModelFormatError(f"label {err.row}: {err}") from None
    except ValueError as err:
        raise ModelFormatError(f"weight row offsets: {err}") from None
    return OvaModel(weights, None if bias == -1 else bias, loss_token, init_token)
