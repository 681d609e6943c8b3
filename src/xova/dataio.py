"""Dataset parsing, bias augmentation, label statistics and synthetic data.

The on-disk format is the plain-text multi-label format used by the public
extreme-classification benchmark files: a header line ``n d l`` followed by
one line per instance, ``lbl,lbl,... f:v f:v ...`` with 0-based ids. An
empty label field is written as a leading space. Parsing is strict: no
comments, every malformed token is reported with its line number.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse

from .errors import ConfigError, DimensionMismatchError, ParseError
from .sparse import DenseVector, SparseMatrix


@dataclass
class Dataset:
    """Instances, their label sets, and the (possibly bias-augmented) features."""

    features: SparseMatrix
    labels: list[np.ndarray]  # sorted int64 label ids, one array per instance
    n_labels: int
    bias_index: int | None = None

    def __post_init__(self):
        if len(self.labels) != self.features.n_rows:
            raise DimensionMismatchError(
                f"{len(self.labels)} label lists for {self.features.n_rows} instances"
            )

    @property
    def n(self) -> int:
        return self.features.n_rows

    @property
    def dim(self) -> int:
        return self.features.n_cols


@dataclass
class LabelStats:
    """Per-label positive index lists and means, plus the global mean."""

    positives: list[np.ndarray]  # sorted instance indices per label
    pbar: SparseMatrix  # L x d, row j the mean of label j's positive rows (empty if none)
    xbar: DenseVector  # mean of all rows
    xbar_sq: float  # <xbar, xbar>
    n: int

    @property
    def n_labels(self) -> int:
        return len(self.positives)


def _parse_header(line: str, lineno: int) -> tuple[int, int, int]:
    parts = line.split()
    if len(parts) != 3:
        raise ParseError(f"header must be 'n d l', got {line.strip()!r}", lineno)
    try:
        n, d, l = (int(p) for p in parts)
    except ValueError:
        raise ParseError(f"non-integer header field in {line.strip()!r}", lineno) from None
    if n < 0 or d < 0 or l < 0:
        raise ParseError("header counts must be non-negative", lineno)
    return n, d, l


def _parse_labels(token: str, n_labels: int, lineno: int) -> np.ndarray:
    if not token:
        return np.empty(0, dtype=np.int64)
    ids = []
    for piece in token.split(","):
        try:
            lbl = int(piece)
        except ValueError:
            raise ParseError(f"invalid label id {piece!r}", lineno) from None
        if lbl < 0 or lbl >= n_labels:
            raise ParseError(f"label id {lbl} out of range for {n_labels} labels", lineno)
        ids.append(lbl)
    arr = np.asarray(sorted(ids), dtype=np.int64)
    if arr.size > 1 and np.any(np.diff(arr) == 0):
        raise ParseError(f"duplicate label id in {token!r}", lineno)
    return arr


def _parse_features(tokens: Sequence[str], dim: int, lineno: int):
    idx = []
    val = []
    for tok in tokens:
        colon = tok.find(":")
        if colon <= 0:
            raise ParseError(f"invalid feature token {tok!r}, expected index:value", lineno)
        try:
            j = int(tok[:colon])
        except ValueError:
            raise ParseError(f"invalid feature index in {tok!r}", lineno) from None
        try:
            v = float(tok[colon + 1 :])
        except ValueError:
            raise ParseError(f"non-numeric feature value in {tok!r}", lineno) from None
        if j < 0 or j >= dim:
            raise ParseError(f"feature index {j} out of range for dimension {dim}", lineno)
        idx.append(j)
        val.append(v)
    if not idx:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    order = np.argsort(idx, kind="stable")
    idx_arr = np.asarray(idx, dtype=np.int64)[order]
    val_arr = np.asarray(val, dtype=np.float64)[order]
    if idx_arr.size > 1 and np.any(np.diff(idx_arr) == 0):
        dup = int(idx_arr[np.flatnonzero(np.diff(idx_arr) == 0)[0]])
        raise ParseError(f"duplicate feature index {dup}", lineno)
    return idx_arr, val_arr


def load_xmc_dataset(path) -> Dataset:
    """Parse a benchmark-format text file into a :class:`Dataset`."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header:
            raise ParseError("empty file, expected 'n d l' header", 1)
        n, d, l = _parse_header(header, 1)

        idx_parts: list[np.ndarray] = []
        val_parts: list[np.ndarray] = []
        labels: list[np.ndarray] = []
        for i in range(n):
            lineno = i + 2
            line = fh.readline()
            if line == "":
                raise ParseError(f"expected {n} instance lines, file ends after {i}", lineno)
            line = line.rstrip("\r\n")
            if line and line[0] not in (" ", "\t"):
                head, _, rest = line.partition(" ")
                label_token = head
                feat_tokens = rest.split()
            else:
                label_token = ""
                feat_tokens = line.split()
            labels.append(_parse_labels(label_token, l, lineno))
            fi, fv = _parse_features(feat_tokens, d, lineno)
            idx_parts.append(fi)
            val_parts.append(fv)

        extra = fh.read()
        if extra.strip():
            raise ParseError(f"unexpected content after {n} instance lines", n + 2)

    # indptr from the lines actually read, never from the header's count
    indptr = np.concatenate(([0], np.cumsum([p.size for p in idx_parts], dtype=np.int64)))
    indices = np.concatenate([np.empty(0, dtype=np.int64), *idx_parts])
    features = SparseMatrix(indptr, indices, np.concatenate([np.empty(0), *val_parts]), d)
    reject_non_finite(features, ParseError, "value")
    return Dataset(features=features, labels=labels, n_labels=l)


def reject_non_finite(X: SparseMatrix, error: type, what: str) -> None:
    """Raise ``error`` for the first non-finite value of ``X``, read from a
    file that holds row ``i`` on line ``i + 2``."""
    finite = np.isfinite(X.data)
    if not finite.all():
        pos = int(np.argmin(finite))
        row = int(np.searchsorted(X.indptr, pos, side="right")) - 1
        value, feature = float(X.data[pos]), int(X.indices[pos])
        raise error(f"non-finite {what} {value} for feature {feature}", row + 2)


def write_xmc_dataset(ds: Dataset, path) -> None:
    """Serialize a dataset in the same text format it is parsed from.

    The bias column is a run-time augmentation, not part of the interchange
    format, so augmented datasets are rejected.
    """
    if ds.bias_index is not None:
        raise ConfigError("refusing to serialize a bias-augmented dataset")
    X = ds.features
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{ds.n} {ds.dim} {ds.n_labels}\n")
        for i in range(ds.n):
            lo, hi = X.indptr[i], X.indptr[i + 1]
            label_part = ",".join(str(int(j)) for j in ds.labels[i])
            feat_part = " ".join(
                f"{int(j)}:{v:.17g}" for j, v in zip(X.indices[lo:hi], X.data[lo:hi])
            )
            if feat_part:
                fh.write(f"{label_part} {feat_part}\n")
            else:
                fh.write(f"{label_part}\n")


def augment_bias(ds: Dataset) -> Dataset:
    """Append a constant-1 bias feature at index ``d`` (the new last column)."""
    if ds.bias_index is not None:
        raise ConfigError("dataset is already bias-augmented")
    X = ds.features
    n = X.n_rows
    d = X.n_cols
    new_indptr = X.indptr + np.arange(n + 1, dtype=np.int64)
    new_nnz = X.nnz + n
    new_indices = np.empty(new_nnz, dtype=np.int64)
    new_data = np.empty(new_nnz, dtype=np.float64)
    bias_pos = new_indptr[1:] - 1
    keep = np.ones(new_nnz, dtype=bool)
    keep[bias_pos] = False
    new_indices[keep] = X.indices
    new_data[keep] = X.data
    new_indices[bias_pos] = d
    new_data[bias_pos] = 1.0
    features = SparseMatrix(new_indptr, new_indices, new_data, d + 1, validate=False)
    return Dataset(features=features, labels=ds.labels, n_labels=ds.n_labels, bias_index=d)


def label_matrix(ds: Dataset) -> SparseMatrix:
    """The n x L indicator matrix Y of the instances' labels (entries 1.0)."""
    sizes = np.fromiter((lbls.size for lbls in ds.labels), dtype=np.int64, count=ds.n)
    indptr = np.concatenate(([0], np.cumsum(sizes)))
    indices = np.concatenate([np.empty(0, dtype=np.int64), *ds.labels])
    return SparseMatrix(indptr, indices, np.ones(indices.shape[0]), ds.n_labels)


def compute_label_stats(ds: Dataset) -> LabelStats:
    """Positive index lists, per-label positive means, and the global mean.

    The positive means are ``diag(1/|P_j|) Y^T X``. The sparse product adds
    each label's positive rows in increasing row order, as the column-sum
    kernel behind the global mean does, so a label that is positive on
    every instance gets ``pbar == xbar`` exactly.
    """
    n = ds.n
    if n == 0:
        raise ConfigError("cannot compute label statistics of an empty dataset")
    X = ds.features
    Y = label_matrix(ds)
    # Stable: each label's instances stay in increasing row order.
    order = np.argsort(Y.indices, kind="stable")
    rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(Y.indptr))[order]
    rows.flags.writeable = False
    counts = np.bincount(Y.indices, minlength=ds.n_labels)
    starts = np.concatenate(([0], np.cumsum(counts)))
    yt = scipy.sparse.csr_matrix((np.ones(rows.shape[0]), rows, starts), shape=(ds.n_labels, n))
    sums = yt @ X.to_scipy()
    sums.sort_indices()
    means = sums.data / np.repeat(counts, np.diff(sums.indptr))
    pbar = SparseMatrix(sums.indptr, sums.indices, means, X.n_cols, validate=False)

    xbar = X.column_sums() / n
    # Only the aop start reads xbar_sq; an overflow makes every aop start
    # non-finite, which each label's solve reports as numerical_failure.
    with np.errstate(over="ignore"):
        xbar_sq = float(np.dot(xbar, xbar))
    positives = np.split(rows, starts[1:-1]) if ds.n_labels else []
    return LabelStats(positives=positives, pbar=pbar, xbar=xbar, xbar_sq=xbar_sq, n=n)


def dataset_digest(ds: Dataset) -> str:
    """Content hash used to detect mixing diagnostics from different datasets."""
    h = hashlib.sha256()
    h.update(f"xova-ds {ds.n} {ds.dim} {ds.n_labels} {ds.bias_index}".encode())
    h.update(ds.features.indptr.tobytes())
    h.update(ds.features.indices.tobytes())
    h.update(ds.features.data.tobytes())
    for lbls in ds.labels:
        h.update(lbls.tobytes())
        h.update(b";")
    return h.hexdigest()[:16]


def generate_synthetic(
    n: int, d: int, l: int, tail_exponent: float, seed: int
) -> Dataset:
    """Seeded long-tailed multi-label dataset with noisy but learnable labels.

    Label ``j`` receives ``max(floor, ceil(head * (j+1)**-tail_exponent))``
    positives with ``head = ceil(n/4)`` and ``floor = max(2, round(n/200))``,
    so label 0 is the head label and counts are non-increasing in ``j``.
    Feature space layout:

    * each label owns one signature feature from a block reserved for
      signatures (disjoint across labels while the block is big enough);
      positives carry a large value there,
    * instances without any label carry a few features from a separate
      background block,
    * a fraction of the label-free instances are turned into label-noise
      rows: exact feature copies of a positive instance, without its
      labels. They are irreducible conflicts, so each label's optimum keeps
      a solid loss floor instead of balancing on the hinge.

    The labels are approximately linearly separable apart from that noise,
    which is what the average-of-positives start assumes.
    """
    if n < 1 or d < 1 or l < 1:
        raise ConfigError("synthetic sizes must all be >= 1")
    if not tail_exponent > 0:
        raise ConfigError("tail_exponent must be > 0")
    rng = np.random.default_rng(seed)

    head = max(1, math.ceil(n / 4))
    floor = max(2, round(n / 200))
    counts = [
        min(n, max(floor, math.ceil(head * (j + 1) ** (-tail_exponent)))) for j in range(l)
    ]

    n_bg_feats = min(6, max(1, d // 3))
    d_sig = d - n_bg_feats if d > n_bg_feats else d
    bg_lo = d_sig if d_sig < d else 0
    bg_size = max(1, min(3, n_bg_feats))
    if l <= d_sig:
        perm = rng.permutation(d_sig)
        signatures = [int(perm[j]) for j in range(l)]
    else:
        signatures = [int(rng.integers(d_sig)) for _ in range(l)]

    labels: list[list[int]] = [[] for _ in range(n)]
    for j in range(l):
        for i in rng.choice(n, size=counts[j], replace=False):
            labels[int(i)].append(j)

    # Label-noise rows: copy the features of up to max(14, 0.6 * count)
    # positives per label onto label-free instances, tail labels first, and
    # keep part of the label-free pool as genuine background rows.
    free = [i for i in range(n) if not labels[i]]
    rng.shuffle(free)
    budget = int(0.55 * len(free))
    free_pos = 0
    copy_source: dict[int, int] = {}
    for j in reversed(range(l)):
        members = [i for i in range(n) if j in labels[i]]
        k = min(max(14, round(0.6 * counts[j])), len(members))
        for s in rng.choice(len(members), size=k, replace=False):
            if free_pos >= budget:
                break
            copy_source[free[free_pos]] = members[int(s)]
            free_pos += 1

    rows: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for i in range(n):
        entries: dict[int, float] = {}
        if labels[i]:
            for j in labels[i]:
                k = signatures[j]
                entries[k] = entries.get(k, 0.0) + float(rng.uniform(0.9, 1.5))
        else:
            bg_idx = bg_lo + rng.choice(n_bg_feats, size=bg_size, replace=False)
            bg_val = rng.uniform(1.8, 2.6, size=bg_size)
            for k, v in zip(bg_idx, bg_val):
                entries[int(k)] = entries.get(int(k), 0.0) + float(v)
        rows[i] = sorted(entries.items())
    for tgt, src in copy_source.items():
        rows[tgt] = rows[src]

    indptr = np.zeros(n + 1, dtype=np.int64)
    idx_parts = []
    val_parts = []
    for i in range(n):
        idx_parts.append(np.asarray([k for k, _ in rows[i]], dtype=np.int64))
        val_parts.append(np.asarray([v for _, v in rows[i]], dtype=np.float64))
        indptr[i + 1] = indptr[i] + len(rows[i])

    features = SparseMatrix(
        indptr, np.concatenate(idx_parts), np.concatenate(val_parts), d, validate=False
    )
    label_arrays = [np.asarray(sorted(lbls), dtype=np.int64) for lbls in labels]
    return Dataset(features=features, labels=label_arrays, n_labels=l)


def split_dataset(ds: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic row split into (train, test) with ``floor(frac * n)`` test rows."""
    if not 0.0 <= test_fraction < 1.0:
        raise ConfigError("test fraction must be in [0, 1)")
    if ds.bias_index is not None:
        raise ConfigError("split before bias augmentation")
    n_test = int(math.floor(test_fraction * ds.n))
    perm = np.random.default_rng(seed).permutation(ds.n)
    test_rows = np.sort(perm[:n_test])
    train_rows = np.sort(perm[n_test:])

    def take(rows: np.ndarray) -> Dataset:
        return Dataset(
            features=ds.features.submatrix(rows),
            labels=[ds.labels[int(i)] for i in rows],
            n_labels=ds.n_labels,
        )

    return take(train_rows), take(test_rows)
