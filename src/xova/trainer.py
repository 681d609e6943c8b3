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

from . import solver as solver_mod
from .dataio import (
    Dataset, LabelStats, dataset_digest, format_row, parse_pairs, reject_bad_characters,
    reject_non_finite,
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
from .solver import BinaryProblem, SolverConfig, SolverTrace, TERM_NUMERICAL
from .sparse import DenseVector, SparseMatrix

MODEL_MAGIC = "xova"
MODEL_VERSION = "v1"
# Rows of X scored at once: the dense score block is this many rows by L.
_BLOCK_ROWS = 512


@dataclass(frozen=True)
class TrainConfig:
    loss: MarginLoss = MarginLoss.SQUARED_HINGE
    init: InitStrategy = InitStrategy()
    solver: SolverConfig = SolverConfig()
    c: float = 1.0
    clip_threshold: float = 0.01
    threads: int = 1
    label_subset: tuple[int, ...] | None = None
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
    config_digest: str | None = None


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
    final_loss: float
    termination: str
    first_step_size: float | None


@dataclass
class TrainReport:
    dataset_n: int
    dataset_dim: int
    dataset_n_labels: int
    dataset_digest: str
    loss: str
    init: str
    init_params: dict
    solver: SolverConfig
    c: float
    clip_threshold: float
    threads: int
    seed: int | None
    config_digest: str
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
        return {
            "format": "xova-report v1",
            "dataset": {
                "n": self.dataset_n,
                "dim": self.dataset_dim,
                "n_labels": self.dataset_n_labels,
                "digest": self.dataset_digest,
            },
            "loss": self.loss,
            "init": self.init,
            "init_params": self.init_params,
            "solver": asdict(self.solver),
            "c": self.c,
            "clip_threshold": self.clip_threshold,
            "threads": self.threads,
            "seed": self.seed,
            "config_digest": self.config_digest,
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
            "labels": [
                {
                    "label": r.label,
                    "positives": r.positives,
                    "outer_iters": r.outer_iters,
                    "hvp_touches": r.hvp_touches,
                    "wall_ms": r.wall_ms,
                    "final_loss": r.final_loss,
                    "termination": r.termination,
                    "first_step_size": r.first_step_size,
                }
                for r in self.labels
            ],
        }

    def write_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=1)
            fh.write("\n")

    def write_labels_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("label,positives,outer_iters,hvp_touches,wall_ms,final_loss,termination\n")
            for r in self.labels:
                fh.write(
                    f"{r.label},{r.positives},{r.outer_iters},{r.hvp_touches},"
                    f"{r.wall_ms:.3f},{r.final_loss:.17g},{r.termination}\n"
                )


def _make_w0(
    cfg: TrainConfig,
    dim: int,
    bias_index: int | None,
    stats: LabelStats,
    label: int,
    shared_ovap: DenseVector | None,
    aop_pre: AopPrecompute | None,
) -> DenseVector:
    kind = cfg.init.kind
    if kind == "zero":
        return zero_init(dim)
    if kind == "bias":
        return bias_init(dim, bias_index, cfg.init.bias_scale)
    if kind == "ovap":
        return np.array(shared_ovap, copy=True)
    s, t = cfg.init.resolved_aop(cfg.loss)
    return aop_init(stats.pbar.row(label), int(stats.positives[label].size), aop_pre, s, t)


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
    if cfg.init.kind == "bias" and ds.bias_index is None:
        raise ConfigError(
            "bias initialization needs a bias-augmented dataset (no bias feature present)"
        )

    X = ds.features
    dim = ds.dim
    n = ds.n
    if cfg.label_subset is None:
        train_labels = list(range(ds.n_labels))
    else:
        train_labels = sorted(set(int(j) for j in cfg.label_subset))
        if train_labels and (train_labels[0] < 0 or train_labels[-1] >= ds.n_labels):
            raise ConfigError(f"label subset outside [0, {ds.n_labels})")

    t_start = time.perf_counter()
    shared_ovap = None
    init_wall_ms = 0.0
    init_hvp_touches = 0
    aop_pre = None
    if cfg.init.kind == "ovap":
        all_neg = BinaryProblem(X, np.full(n, -1.0), cfg.loss, cfg.c)
        t0 = time.perf_counter()
        # An overflow ends in a non-finite value, which the shared solve
        # raises as a NumericalError. As in a label's solve, the last accepted
        # iterate is kept: every label is still solved from it, and those that
        # fail are reported as numerical_failure.
        with np.errstate(over="ignore"):
            try:
                shared_ovap, ovap_trace = ovap_solve(all_neg, cfg.solver, cfg.init.ovap_stop_rel)
            except NumericalError as err:
                shared_ovap = err.w_last if err.w_last is not None else np.zeros(dim)
                ovap_trace = err.trace if err.trace is not None else SolverTrace()
        init_wall_ms = (time.perf_counter() - t0) * 1e3
        init_hvp_touches = ovap_trace.hvp_touches
    elif cfg.init.kind == "aop":
        # An overflowing <xbar, xbar> makes every aop start non-finite, which
        # each label's solve reports as numerical_failure.
        with np.errstate(over="ignore"):
            aop_pre = AopPrecompute(xbar=stats.xbar, xbar_sq=stats.xbar_sq, n=stats.n)
        cfg.init.resolved_aop(cfg.loss)  # surface the s <= t warning before workers start

    def work(label: int):
        t0 = time.perf_counter()
        signs = np.full(n, -1.0)
        signs[stats.positives[label]] = 1.0
        problem = BinaryProblem(X, signs, cfg.loss, cfg.c)
        termination = None
        # Overflow on huge inputs ends in non-finite values (inf, or nan from
        # inf * 0 in the aop start), which newton_cg reports as
        # numerical_failure. errstate is per thread, so it is set here.
        with np.errstate(over="ignore", invalid="ignore"):
            w0 = _make_w0(cfg, dim, ds.bias_index, stats, label, shared_ovap, aop_pre)
            grad0_ref = float(np.linalg.norm(solver_mod.gradient(problem, np.zeros(dim))))
            try:
                w, trace = solver_mod.newton_cg(problem, w0, cfg.solver, grad0_ref)
            except NumericalError as err:
                w = err.w_last if err.w_last is not None else w0
                trace = err.trace if err.trace is not None else SolverTrace()
                termination = TERM_NUMERICAL
        if termination is None:
            termination = trace.termination
        kept = np.flatnonzero(np.abs(w) >= cfg.clip_threshold)
        if trace.rows:
            final_loss = trace.rows[-1].loss
        else:
            final_loss = trace.initial_loss
        result = LabelResult(
            label=label,
            positives=int(stats.positives[label].size),
            outer_iters=trace.outer_iters,
            hvp_touches=trace.hvp_touches,
            wall_ms=(time.perf_counter() - t0) * 1e3,
            final_loss=final_loss,
            termination=termination,
            first_step_size=trace.first_step_size,
        )
        return label, (kept, w[kept]), result, trace

    outcomes: dict[int, tuple[tuple[np.ndarray, np.ndarray], LabelResult, SolverTrace]] = {}
    if cfg.threads == 1 or len(train_labels) <= 1:
        for j in train_labels:
            label, clipped, result, trace = work(j)
            outcomes[label] = (clipped, result, trace)
    else:
        with concurrent.futures.ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            for label, clipped, result, trace in pool.map(work, train_labels):
                outcomes[label] = (clipped, result, trace)

    idx_parts = [np.empty(0, dtype=np.int64)] * ds.n_labels
    val_parts = [np.empty(0)] * ds.n_labels
    results = []
    frac_sum: list[float] = []
    step_sum: list[float] = []
    counts: list[int] = []
    traces: dict[int, SolverTrace] = {}
    hvp_total = init_hvp_touches
    for j in train_labels:
        (idx_parts[j], val_parts[j]), result, trace = outcomes[j]
        results.append(result)
        hvp_total += result.hvp_touches
        if cfg.collect_traces:
            traces[j] = trace
        for i, row in enumerate(trace.rows):
            if i == len(frac_sum):
                frac_sum.append(0.0)
                step_sum.append(0.0)
                counts.append(0)
            frac_sum[i] += row.active_fraction
            step_sum[i] += row.step_size
            counts[i] += 1

    digest = cfg.digest()
    model = OvaModel(
        weights=SparseMatrix.stack(idx_parts, val_parts, dim),
        bias_index=ds.bias_index,
        meta=ModelMeta(loss=cfg.loss.token, init=cfg.init.kind, config_digest=digest),
    )
    report = TrainReport(
        dataset_n=ds.n,
        dataset_dim=dim,
        dataset_n_labels=ds.n_labels,
        dataset_digest=dataset_digest(ds),
        loss=cfg.loss.token,
        init=cfg.init.kind,
        init_params=cfg.resolved_init_params(),
        solver=cfg.solver,
        c=cfg.c,
        clip_threshold=cfg.clip_threshold,
        threads=cfg.threads,
        seed=cfg.seed,
        config_digest=digest,
        labels=results,
        iter_active_fraction_mean=[s / c for s, c in zip(frac_sum, counts)],
        iter_step_size_mean=[s / c for s, c in zip(step_sum, counts)],
        iter_count=counts,
        total_wall_ms=(time.perf_counter() - t_start) * 1e3,
        total_hvp_touches=hvp_total,
        init_wall_ms=init_wall_ms,
        init_hvp_touches=init_hvp_touches,
        traces=traces if cfg.collect_traces else None,
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
        if n_labels < 0 or dim < 0:
            raise ModelFormatError("label count and dimension must be non-negative", 1)
        try:
            parse_loss(loss_token)
        except ConfigError:
            raise ModelFormatError(f"unknown loss token {loss_token!r}", 1) from None
        if init_token not in INIT_KINDS:
            raise ModelFormatError(f"unknown init token {init_token!r}", 1)
        bias_index = None if bias < 0 else bias

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
        meta=ModelMeta(loss=loss_token, init=init_token, config_digest=None),
    )
