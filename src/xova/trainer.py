"""One-vs-all training across labels, the sparse model, and diagnostics.

Each label is an independent binary solve against the shared read-only
design matrix; workers only write into per-label slots, so results are
identical for any thread count. Weights below the clip threshold are
dropped once after convergence, which shrinks the stored model without
touching the optimization itself.
"""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import time
from dataclasses import asdict, dataclass
from typing import Iterator

import numpy as np

from . import losses
from . import solver as solver_mod
from .dataio import (
    MAX_COUNT, Dataset, LabelStats, dataset_digest, format_row, parse_pairs,
    reject_bad_characters, reject_non_finite,
)
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
from .solver import (
    BinaryProblem, LabelBlock, SolverConfig, SolverTrace, TERM_NUMERICAL, grad0_norm
)
from .sparse import DenseVector, SparseMatrix

MODEL_MAGIC = "xova"
MODEL_VERSION = "v1"
# Rows of X scored at once: the dense score block is this many rows by L.
_BLOCK_ROWS = 512
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
    seed: int | None = None  # recorded for provenance; training is deterministic anyway

    def __post_init__(self):
        if not 0.0 <= self.clip_threshold < np.inf:
            raise ConfigError("clip threshold must be finite and >= 0")
        if self.threads < 1:
            raise ConfigError("thread count must be >= 1")
        if not 0.0 < self.c < np.inf:
            raise ConfigError("loss weight c must be finite and > 0")

    def resolved_init_params(self) -> dict:
        if self.init.kind == "bias":
            return {"scale": self.init.bias_scale}
        if self.init.kind == "ovap":
            return {"stop_rel": self.init.ovap_stop_rel}
        if self.init.kind == "aop":
            s, t = self.init.resolved_aop(self.loss)
            return {"s": s, "t": t}
        return {}

    def digest(self) -> str:
        blob = json.dumps(
            {
                "loss": self.loss.token,
                "init": self.init.kind,
                "init_params": self.resolved_init_params(),
                "solver": asdict(self.solver),
                "c": self.c,
                "clip_threshold": self.clip_threshold,
                "seed": self.seed,
            },
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


@dataclass
class ModelMeta:
    loss: str
    init: str


@dataclass
class OvaModel:
    """Label weights, one row per label of an L x d matrix, plus training metadata."""

    weights: SparseMatrix
    bias_index: int | None
    meta: ModelMeta

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
    traces: dict[int, SolverTrace] | None = None

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
            "loss": cfg.loss.token,
            "init": cfg.init.kind,
            "init_params": cfg.resolved_init_params(),
            "solver": asdict(cfg.solver),
            "c": cfg.c,
            "clip_threshold": cfg.clip_threshold,
            "threads": cfg.threads,
            "seed": cfg.seed,
            "config_digest": cfg.digest(),
            "totals": {
                "wall_ms": self.total_wall_ms,
                "hvp_touches": self.total_hvp_touches,
                "labels_trained": len(self.labels),
                "failed": self.n_failed,
                "init_wall_ms": self.init_wall_ms,
                "init_hvp_touches": self.init_hvp_touches,
            },
            "iterations": {
                "active_fraction_mean": self.iter_active_fraction_mean,
                "step_size_mean": self.iter_step_size_mean,
                "count": self.iter_count,
            },
            "labels": [asdict(r) for r in self.labels],
        }

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=1)
            fh.write("\n")

    def write_labels_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(
                "label,positives,outer_iters,hvp_touches,wall_ms,final_loss,termination,cpu_ms\n"
            )
            for r in self.labels:
                fh.write(
                    f"{r.label},{r.positives},{r.outer_iters},{r.hvp_touches},"
                    f"{r.wall_ms:.3f},{r.final_loss:.17g},{r.termination},{r.cpu_ms:.3f}\n"
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

    # start(label) is the label's first iterate; newton_cg copies it, so one
    # shared vector serves every label.
    t_start = time.perf_counter()
    init_wall_ms = 0.0
    init_hvp_touches = 0
    if init.kind == "aop":
        # An overflowing <xbar, xbar> makes every aop start non-finite, which
        # each label's solve reports as numerical_failure.
        with np.errstate(over="ignore"):
            aop_pre = AopPrecompute(xbar=stats.xbar, xbar_sq=stats.xbar_sq, n=stats.n)
        s, t = init.resolved_aop(cfg.loss)

        def start(label: int) -> DenseVector:
            p_count = int(stats.positives[label].size)
            return aop_init(stats.pbar.row(label), p_count, aop_pre, s, t)

    else:
        if init.kind == "ovap":
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
        elif init.kind == "bias":
            w_shared = bias_init(ds.dim, ds.bias_index, init.bias_scale)
        else:
            w_shared = zero_init(ds.dim)

        def start(label: int) -> DenseVector:
            return w_shared

    def work(labels: range):
        """Solve one block of labels. Each label is charged its own set-up
        and clipping and its share of the block's solver steps."""
        block = LabelBlock(X, [stats.positives[j] for j in labels], cfg.loss, cfg.c)
        w0s, refs, own = [], [], []
        # Overflow on huge inputs ends in non-finite values (inf, or nan from
        # inf * 0 in the aop start), which the solver reports as
        # numerical_failure. errstate is per thread, so it is set here.
        with np.errstate(over="ignore", invalid="ignore"):
            for k, label in enumerate(labels):
                t0, c0 = time.perf_counter(), time.thread_time()
                w0s.append(start(label))
                ref = grad0_closed_form(stats, label, cfg.loss, cfg.c)
                if not np.isfinite(ref):
                    ref = grad0_norm(BinaryProblem(X, block.signs(k), cfg.loss, cfg.c))
                refs.append(ref)
                own.append((time.perf_counter() - t0, time.thread_time() - c0))
            solved = solver_mod.newton_cg_block(block, np.array(w0s), cfg.solver, refs)
        out = []
        for label, (w, trace, _), (wall, cpu) in zip(labels, solved, own):
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

    idx_parts, val_parts, results = [], [], []
    frac_sum: list[float] = []
    step_sum: list[float] = []
    counts: list[int] = []
    for idx, val, result, trace in outcomes:
        idx_parts.append(idx)
        val_parts.append(val)
        results.append(result)
        for i, row in enumerate(trace.rows):
            if i == len(frac_sum):
                frac_sum.append(0.0)
                step_sum.append(0.0)
                counts.append(0)
            frac_sum[i] += row.active_fraction
            step_sum[i] += row.step_size
            counts[i] += 1

    model = OvaModel(
        weights=SparseMatrix.stack(idx_parts, val_parts, ds.dim),
        bias_index=ds.bias_index,
        meta=ModelMeta(loss=cfg.loss.token, init=init.kind),
    )
    report = TrainReport(
        config=cfg,
        dataset={"n": n, "dim": ds.dim, "n_labels": ds.n_labels, "digest": dataset_digest(ds)},
        labels=results,
        iter_active_fraction_mean=[s / c for s, c in zip(frac_sum, counts)],
        iter_step_size_mean=[s / c for s, c in zip(step_sum, counts)],
        iter_count=counts,
        total_wall_ms=(time.perf_counter() - t_start) * 1e3,
        total_hvp_touches=init_hvp_touches + sum(r.hvp_touches for r in results),
        init_wall_ms=init_wall_ms,
        init_hvp_touches=init_hvp_touches,
        traces={j: trace for j, (*_, trace) in enumerate(outcomes)} if cfg.collect_traces else None,
    )
    return model, report


def score_blocks(model: OvaModel, X: SparseMatrix) -> Iterator[tuple[int, np.ndarray]]:
    """``(row offset, dense block of X @ W.T)`` over blocks of rows of ``X``."""
    if X.n_cols != model.dim:
        raise DimensionMismatchError(
            f"data dimension {X.n_cols} != model dimension {model.dim}"
        )
    wt = model.weights.to_scipy().T.tocsr()
    xs = X.to_scipy()
    return (
        (lo, (xs[lo : lo + _BLOCK_ROWS] @ wt).toarray()) for lo in range(0, X.n_rows, _BLOCK_ROWS)
    )


def block_topk(block: np.ndarray, k: int) -> np.ndarray:
    """Per row of a score block, the columns of the k best scores, ties to the lower column."""
    return np.argsort(-block, axis=1, kind="stable")[:, :k]


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
    """Text serialization; weight values at 17 significant digits round-trip exactly."""
    W = model.weights
    bias = -1 if model.bias_index is None else model.bias_index
    bounds = W.indptr.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(
            f"{MODEL_MAGIC} {MODEL_VERSION} {model.n_labels} {model.dim} "
            f"{bias} {model.meta.loss} {model.meta.init}\n"
        )
        for j, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            fh.write(format_row(f"{j} {hi - lo}", W.indices[lo:hi], W.data[lo:hi]) + "\n")


def load_model(path) -> OvaModel:
    """Parse a model file; every malformed, out-of-range or non-finite entry is
    reported with its line number."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header:
            raise ModelFormatError("empty model file", 1)
        reject_bad_characters(header, ModelFormatError, 1)
        parts = header.split()
        if len(parts) != 7:
            raise ModelFormatError(f"malformed header {header.strip()!r}", 1)
        magic, version, n_labels_s, dim_s, bias_s, loss_token, init_token = parts
        if magic != MODEL_MAGIC:
            raise ModelFormatError(f"not a model file (magic {magic!r})", 1)
        if version != MODEL_VERSION:
            raise ModelFormatError(
                f"unsupported model version {version!r}, expected {MODEL_VERSION!r}", 1
            )
        try:
            n_labels, dim, bias = int(n_labels_s), int(dim_s), int(bias_s)
        except ValueError:
            raise ModelFormatError("non-integer header field", 1) from None
        if not (0 <= n_labels < MAX_COUNT and 0 <= dim < MAX_COUNT):
            raise ModelFormatError(f"label count and dimension must lie in [0, {MAX_COUNT})", 1)
        try:
            parse_loss(loss_token)
        except ConfigError:
            raise ModelFormatError(f"unknown loss token {loss_token!r}", 1) from None
        if init_token not in INIT_KINDS:
            raise ModelFormatError(f"unknown init token {init_token!r}", 1)
        if bias not in (-1, dim - 1):
            raise ModelFormatError(f"bias index {bias} is neither -1 nor dim - 1 = {dim - 1}", 1)
        bias_index = None if bias == -1 else bias

        idx_parts: list[np.ndarray] = []
        val_parts: list[np.ndarray] = []
        for j, line in zip(range(n_labels), fh):
            reject_bad_characters(line, ModelFormatError, j + 2)
            tokens = line.split()
            if len(tokens) < 2:
                raise ModelFormatError("label line needs 'j nnz' prefix", j + 2)
            try:
                label, nnz = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise ModelFormatError("non-integer label line prefix", j + 2) from None
            if label != j:
                raise ModelFormatError(f"expected label {j}, found {label}", j + 2)
            if nnz != len(tokens) - 2:
                raise ModelFormatError(
                    f"label {j} declares {nnz} entries but has {len(tokens) - 2}", j + 2
                )
            idx, val = parse_pairs(tokens[2:], ModelFormatError, j + 2, "weight")
            idx_parts.append(idx)
            val_parts.append(val)
        if len(idx_parts) < n_labels:
            raise ModelFormatError(
                f"truncated model: expected {n_labels} label lines, got {len(idx_parts)}",
                len(idx_parts) + 2,
            )
        extra = fh.read()
        if extra.strip():
            raise ModelFormatError("unexpected content after the last label line", n_labels + 2)
    try:
        weights = SparseMatrix.stack(idx_parts, val_parts, dim)
    except InvalidEntryError as err:
        raise ModelFormatError(f"weight {err}", err.row + 2) from None
    reject_non_finite(weights, ModelFormatError, "weight")
    return OvaModel(
        weights=weights,
        bias_index=bias_index,
        meta=ModelMeta(loss=loss_token, init=init_token),
    )
