"""One-vs-all training across labels, the sparse model, and diagnostics.

Each label is an independent binary solve against the shared read-only
design matrix; the workers, the calling thread among them, only write
into per-block slots, so results are identical for any thread count.
Weights below the clip threshold are dropped once after convergence,
which shrinks the stored model without touching the optimization itself.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import itertools
import json
import math
import operator
import os
import queue
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from typing import Iterator

import numpy as np

from . import losses
from . import solver as solver_mod
from .dataio import MAX_COUNT, Dataset, LabelStats, dataset_digest, reject_non_finite
from .errors import (ConfigError, DimensionMismatchError, InvalidEntryError, ModelFormatError,
                     is_number)
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
from .sparse import SparseMatrix

MODEL_MAGIC = "xova"
MODEL_VERSION = "v2"
REPORT_FORMAT = "xova-report v1"  # the report JSON's "format", which diag-summary checks
# Rows of X scored at once: the dense score block is this many rows by L,
# whatever the chunk size below.
_BLOCK_ROWS = 512
# Bytes of one dense chunk of W.T: d rows by as many labels as fit, at
# least one. A model that fits is densified once per scoring call, a larger
# one chunk by chunk for each block of rows, so this caps the memory that
# scoring adds. At 4 MiB, one chunk of the benchmark's topic model raised
# peak RSS by 2.4%; at 2 MiB it stays below the sparse product's.
_CHUNK_BYTES = 2 << 20
# Labels solved in lockstep, one sparse product per step for all of them
# (solver.newton_cg_block). The solver holds a few dense arrays of this many
# rows by n, so it bounds the memory a worker adds; the models do not depend
# on it.
_BLOCK_LABELS = 16


@dataclass(frozen=True)
class TrainConfig:
    loss: MarginLoss = MarginLoss.SQUARED_HINGE
    init: InitStrategy = InitStrategy()
    solver: SolverConfig = SolverConfig()
    c: float = 1.0
    clip_threshold: float = 0.01
    threads: int = 1

    def __post_init__(self):
        for name, kind in (("loss", MarginLoss), ("init", InitStrategy), ("solver", SolverConfig)):
            if not isinstance(getattr(self, name), kind):
                raise ConfigError(f"{name}: expected {kind.__name__}, got {getattr(self, name)!r}")
        if not (is_number(self.clip_threshold) and 0.0 <= self.clip_threshold < np.inf):
            raise ConfigError("clip threshold must be finite and >= 0")
        if not (is_number(self.threads, whole=True) and self.threads >= 1):
            raise ConfigError("thread count must be a whole number >= 1")
        if not (is_number(self.c) and 0.0 < self.c < np.inf):
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
        """The settings as the report writes them, in its key order. Every
        real-valued one is a float, so 1 and 1.0 give one digest."""
        eps = {"eps_outer": float(self.solver.eps_outer), "eps_cg": float(self.solver.eps_cg)}
        return {
            "loss": self.loss.token,
            "init": self.init.kind,
            "init_params": {k: float(v) for k, v in self.resolved_init_params().items()},
            "solver": {**asdict(self.solver), **eps},
            "c": float(self.c),
            "clip_threshold": float(self.clip_threshold),
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


def write_strict_json(doc: dict, path) -> None:
    """Write ``doc`` as indented, strict JSON (NaN or inf raise ValueError) and a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, allow_nan=False)
        fh.write("\n")


def write_csv(path, header, rows) -> None:
    """Write ``header`` and then ``rows`` as CSV, one line each ending in a
    newline: None is an empty field, and a field is quoted only where it
    needs to be."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# A label's row of the report, after "label" and "positives": the SolverTrace
# attributes that its JSON object and its labels CSV line hold, in this order.
# The JSON writes a float that is not finite as null, the CSV as nan or inf;
# None is null in the JSON and an empty CSV field. A new per-label value is
# one attribute on SolverTrace and one name here.
LABEL_FIELDS = (
    "outer_iters", "hvp_touches", "wall_ms", "final_loss", "termination", "cpu_ms",
    "first_step_size", "failure",
)
# The labels CSV's format of each value that is not written as is.
_CSV_FORMATS = {"wall_ms": "{:.3f}", "final_loss": "{:.17g}", "cpu_ms": "{:.3f}"}


def _mean(values: list[float]) -> float:
    # one addition at a time, in label order: sum() compensates float
    # rounding from Python 3.12 on, so the means would vary by interpreter
    return functools.reduce(operator.add, values, 0.0) / len(values)


@dataclass
class TrainReport:
    """What a training run did: each label's solver trace, and the
    aggregates that the report's JSON and CSV derive from them."""

    config: TrainConfig
    dataset: dict  # n, dim, n_labels and digest of the training set
    positives: list[int]  # by label
    labels: list[SolverTrace]  # by label
    total_wall_ms: float
    init: SolverTrace | None = None  # ovap's shared solve; None for the other inits
    # milliseconds of each phase of `xova train`; None where nothing timed them
    phases: dict[str, float] | None = None

    @property
    def n_failed(self) -> int:
        return sum(1 for t in self.labels if t.termination == TERM_NUMERICAL)

    @property
    def total_hvp_touches(self) -> int:
        init = self.init or SolverTrace()  # without a shared solve: 0 touches, 0 ms
        return init.hvp_touches + sum(t.hvp_touches for t in self.labels)

    def mean_outer_iters(self) -> float:
        if not self.labels:
            return 0.0
        return _mean([t.outer_iters for t in self.labels])

    @property
    def iterations(self) -> dict:
        """Per outer iteration, over the labels that reached it, in label
        order: the mean active fraction and step size, and their count."""
        reached = [
            [row for row in rows if row is not None]
            for rows in itertools.zip_longest(*(t.rows for t in self.labels))
        ]
        return {
            "active_fraction_mean": [_mean([r.active_fraction for r in it]) for it in reached],
            "step_size_mean": [_mean([r.step_size for r in it]) for it in reached],
            "count": [len(it) for it in reached],
        }

    def label_rows(self) -> Iterator[dict]:
        """Each label's row of the report: ``label``, ``positives`` and its
        trace's ``LABEL_FIELDS``."""
        for j, (positives, t) in enumerate(zip(self.positives, self.labels)):
            yield {"label": j, "positives": positives, **{k: getattr(t, k) for k in LABEL_FIELDS}}

    def to_json_dict(self) -> dict:
        cfg = self.config
        init = self.init or SolverTrace()
        return {
            "format": REPORT_FORMAT,
            "dataset": self.dataset,
            **cfg.settings(),
            "config_digest": cfg.digest(),
            "totals": {
                "wall_ms": self.total_wall_ms,
                "hvp_touches": self.total_hvp_touches,
                "labels_trained": len(self.labels),
                "failed": self.n_failed,
                "init_wall_ms": init.wall_ms,
                "init_hvp_touches": init.hvp_touches,
                "init_failure": init.failure,
            },
            "phases": self.phases,
            "iterations": self.iterations,
            # strict JSON has no NaN or inf
            "labels": [
                {k: None if isinstance(v, float) and not math.isfinite(v) else v
                 for k, v in row.items()}
                for row in self.label_rows()
            ],
        }

    def write_json(self, path) -> None:
        write_strict_json(self.to_json_dict(), path)

    def write_labels_csv(self, path) -> None:
        rows = (
            [None if v is None else _CSV_FORMATS.get(k, "{}").format(v) for k, v in row.items()]
            for row in self.label_rows()
        )
        write_csv(path, ["label", "positives", *LABEL_FIELDS], rows)


@np.errstate(over="ignore", invalid="ignore")
def grad0_closed_form(stats: LabelStats, label: int, loss: MarginLoss, c: float) -> float:
    """``|grad(0)|`` of one label from its statistics, with no pass over X.

    Every margin at zero is 0, so ``grad(0) = C * phi'(0) * sum_i y_i x_i``,
    and the positives' and the negatives' sums follow from the means:
    ``sum_i y_i x_i = 2 |P| pbar - n xbar``. Not finite, without a
    warning, where the means overflow.
    """
    pbar = stats.pbar.row(label)
    v = -float(stats.n) * stats.xbar
    v[pbar.indices] += (2 * stats.positives[label].size) * pbar.values
    return abs(c * losses.dphi(loss, 0.0)) * solver_mod.norm(v)


def train_ova(ds: Dataset, stats: LabelStats, cfg: TrainConfig) -> tuple[OvaModel, TrainReport]:
    """Train one binary classifier per label and assemble the sparse model.

    A numerical failure in one label's solve is recorded in the report (the
    last accepted iterate is kept) and training continues; configuration
    errors abort before any label is trained.
    """
    if ds.n == 0:
        raise ConfigError("cannot train on an empty dataset")
    if (stats.n, stats.n_labels, stats.xbar.shape[0]) != (ds.n, ds.n_labels, ds.dim):
        raise ConfigError("label statistics were computed from a different dataset")

    X = ds.features
    n = ds.n
    init = cfg.init

    t_start, c_start = time.perf_counter(), time.thread_time()
    init_trace = None
    if init.kind == "aop":
        aop_pre = AopPrecompute(xbar=stats.xbar, n=stats.n)
        s, t = init.resolved_aop(cfg.loss)
    elif init.kind == "ovap":
        # An overflow ends the shared solve with a failure on its trace and
        # its last accepted iterate: every label is still solved from it,
        # and those that fail are reported as numerical_failure.
        w_shared, init_trace = ovap_solve(X, cfg.loss, cfg.c, cfg.solver, init.ovap_stop_rel)
        # the shared solve's time, its set-up included
        init_trace.wall_ms = (time.perf_counter() - t_start) * 1e3
        init_trace.cpu_ms = (time.thread_time() - c_start) * 1e3
    elif init.kind == "bias":
        w_shared = bias_init(ds.dim, ds.bias_index, init.bias_scale)
    else:
        w_shared = zero_init(ds.dim)

    def work(labels: range, buffers: solver_mod.Buffers):
        """Solve one block of labels with the worker's ``buffers``. Each
        label is charged its own set-up and clipping and its share of the
        block's solver steps."""
        S, w0s, refs, own = [], [], [], []
        for label in labels:
            t0, c0 = time.perf_counter(), time.thread_time()
            signs = np.full(n, -1.0)
            signs[stats.positives[label]] = 1.0
            S.append(signs)
            w0s.append(aop_init(stats.pbar.row(label), stats.positives[label].size, aop_pre, s, t)
                       if init.kind == "aop" else w_shared)
            ref = grad0_closed_form(stats, label, cfg.loss, cfg.c)
            if not np.isfinite(ref):  # the means overflowed: one pass over X instead
                problem = BinaryProblem(X, signs, cfg.loss, cfg.c)
                ref = solver_mod.norm(solver_mod.gradient(problem, zero_init(ds.dim)))
            refs.append(ref)
            own.append((time.perf_counter() - t0, time.thread_time() - c0))
        W, traces = solver_mod.newton_cg_block(
            X, cfg.loss, cfg.c, S, w0s, cfg.solver, refs, buffers
        )
        out = []
        for w, trace, (wall, cpu) in zip(W, traces, own):
            t0, c0 = time.perf_counter(), time.thread_time()
            kept = np.flatnonzero(np.abs(w) >= cfg.clip_threshold)
            trace.wall_ms += (wall + time.perf_counter() - t0) * 1e3
            trace.cpu_ms += (cpu + time.thread_time() - c0) * 1e3
            out.append((kept, w[kept], trace))
        return out

    every = range(ds.n_labels)
    blocks = [every[lo : lo + _BLOCK_LABELS] for lo in every[::_BLOCK_LABELS]]
    todo = queue.SimpleQueue()
    for item in enumerate(blocks):
        todo.put(item)
    solved = [None] * len(blocks)  # each block's outcomes, in block order

    def drain():
        # one set of scratch arrays per worker, reused by every block it
        # takes and dropped when the queue is empty
        buffers = solver_mod.Buffers(n, ds.dim, _BLOCK_LABELS)
        while True:
            try:
                i, labels = todo.get_nowait()
            except queue.Empty:
                return
            solved[i] = work(labels, buffers)

    # The calling thread is one of the workers, so at one worker no thread
    # starts: training then allocates from the main thread's memory arena,
    # which the scoring after it reuses. More threads than the CPUs this
    # process may run on would only contend; the report keeps cfg.threads.
    affinity = getattr(os, "sched_getaffinity", None)  # not on every platform
    workers = min(cfg.threads, len(affinity(0)) if affinity else os.cpu_count() or 1)
    with ThreadPoolExecutor(max_workers=workers) as pool:
        helpers = [pool.submit(drain) for _ in range(workers - 1)]
        drain()
        for helper in helpers:
            helper.result()  # a helper's error is raised here
    outcomes = [outcome for block in solved for outcome in block]
    idx_parts, val_parts, traces = zip(*outcomes) if outcomes else ((),) * 3
    model = OvaModel(
        weights=SparseMatrix.stack(idx_parts, val_parts, ds.dim),
        bias_index=ds.bias_index,
        loss=cfg.loss.token,
        init=init.kind,
    )
    report = TrainReport(
        config=cfg,
        dataset={"n": n, "dim": ds.dim, "n_labels": ds.n_labels, "digest": dataset_digest(ds)},
        positives=[int(p.size) for p in stats.positives],
        labels=list(traces),
        total_wall_ms=(time.perf_counter() - t_start) * 1e3,
        init=init_trace,
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
    whose k-th best is NaN (fewer than k scores that are not NaN, which only
    an overflowing product makes) is sorted whole, NaN last.
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
    """Read a model file, each array straight into its own with
    ``np.fromfile``, so no whole-file buffer is held. A malformed header, a
    file length other than the header's arrays need, bad row offsets, and an
    invalid or non-finite weight are each a ModelFormatError; a weight's
    error names its label."""
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
