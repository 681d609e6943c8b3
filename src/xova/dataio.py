"""Dataset parsing, bias augmentation, label statistics and synthetic data.

The on-disk format is the plain-text multi-label format used by the public
extreme-classification benchmark files: a header line ``n d l`` followed by
one line per instance, ``lbl,lbl,... f:v f:v ...`` with 0-based ids. The
label field ends at the first space or tab; an empty one is written as a
leading space. :func:`parse_pairs` and :func:`format_row` read and write
the ``f:v`` pairs of a row. Parsing is strict: no comments, no digit
separators or non-ASCII digits, and every malformed token is reported with
its line number.
"""

from __future__ import annotations

import hashlib
import math
import operator
from dataclasses import dataclass
from itertools import repeat

import numpy as np
import scipy.sparse

from .errors import ConfigError, DimensionMismatchError, InvalidEntryError, ParseError
from .sparse import DenseVector, SparseMatrix

# Header counts stay below this, so a dimension plus the bias column fits in int64.
MAX_COUNT = np.iinfo(np.int64).max


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
    if not all(0 <= v < MAX_COUNT for v in (n, d, l)):
        raise ParseError(f"header counts must lie in [0, {MAX_COUNT})", lineno)
    return n, d, l


def reject_bad_characters(line: str, lineno: int) -> None:
    """Raise a ParseError for characters that the format never uses but
    that Python's ``int`` and ``float`` accept: the digit separator ``_``
    and anything non-ASCII (digits of other scripts, Unicode spaces)."""
    if not line.isascii() or "_" in line:
        raise ParseError("invalid character: digit separator '_' or non-ASCII", lineno)


def parse_pairs(tokens: list[str], lineno: int) -> tuple[np.ndarray, np.ndarray]:
    """The index and value arrays of one line's ``idx:val`` tokens, in the
    order given. Only the syntax is checked here; ranges, repeats and
    non-finite values are checked once the lines form one matrix.

    Each check and conversion is one C-level call over the whole row; numpy
    converts each string with Python's own ``int`` and ``float``, so the
    grammar and the errors are theirs."""
    if not tokens:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    joined = ":".join(tokens)
    # Every token holds a colon, and the row holds one per token plus one per
    # join: so exactly one per token. The count alone would pass "1:2:3 4".
    if not (
        all(map(operator.contains, tokens, repeat(":")))
        and joined.count(":") == 2 * len(tokens) - 1
    ):
        bad = next(tok for tok in tokens if tok.count(":") != 1)
        raise ParseError(f"invalid feature token {bad!r}, expected index:value", lineno)
    flat = joined.split(":")
    try:
        idx = np.array(flat[0::2], dtype=np.int64)
        val = np.array(flat[1::2], dtype=np.float64)
    except ValueError as err:
        raise ParseError(f"non-numeric feature index or value ({err})", lineno) from None
    except OverflowError:
        raise ParseError("feature index beyond the int64 range", lineno) from None
    return idx, val


def format_row(head: str, indices: np.ndarray, values: np.ndarray) -> str:
    """``head idx:val ...``; values at 17 significant digits read back exactly.

    One ``%`` over the interleaved pairs formats the whole row; ``%.17g``
    gives the same bytes as ``format(v, ".17g")``."""
    pairs = [None] * (2 * len(indices))
    pairs[0::2] = indices.tolist()
    pairs[1::2] = values.tolist()
    return head + (" %d:%.17g" * len(indices)) % tuple(pairs)


def _parse_label_ids(field: str, lineno: int) -> np.ndarray:
    if not field:
        return np.empty(0, dtype=np.int64)
    try:
        return np.array(field.split(","), dtype=np.int64)
    except (ValueError, OverflowError):
        raise ParseError(f"invalid label ids {field!r}", lineno) from None


def _stack_data_rows(idx_parts, val_parts, n_cols: int, what: str, limit: str) -> SparseMatrix:
    """Rows listed in any order, sorted by index; a repeated or out-of-range
    index is a ParseError on the row's line."""
    try:
        return SparseMatrix.stack(idx_parts, val_parts, n_cols, sort=True)
    except InvalidEntryError as err:
        if 0 <= err.col < n_cols:
            raise ParseError(f"duplicate {what} {err.col}", err.row + 2) from None
        raise ParseError(f"{what} {err.col} out of range for {limit}", err.row + 2) from None


def load_xmc_dataset(path) -> Dataset:
    """Parse a benchmark-format text file into a :class:`Dataset`."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header:
            raise ParseError("empty file, expected 'n d l' header", 1)
        reject_bad_characters(header, 1)
        n, d, l = _parse_header(header, 1)

        label_parts: list[np.ndarray] = []
        idx_parts: list[np.ndarray] = []
        val_parts: list[np.ndarray] = []
        for lineno, line in zip(range(2, n + 2), fh):
            line = line.rstrip("\r\n")
            reject_bad_characters(line, lineno)
            # a line that starts with a space or a tab has no labels
            label_field = line.split(" ", 1)[0].split("\t", 1)[0]
            rest = line[len(label_field):]
            label_parts.append(_parse_label_ids(label_field, lineno))
            idx, val = parse_pairs(rest.split(), lineno)
            idx_parts.append(idx)
            val_parts.append(val)
        if len(idx_parts) < n:
            read = len(idx_parts)
            raise ParseError(f"expected {n} instance lines, file ends after {read}", read + 2)

        extra = fh.read()
        if extra.strip():
            raise ParseError(f"unexpected content after {n} instance lines", n + 2)

    features = _stack_data_rows(idx_parts, val_parts, d, "feature index", f"dimension {d}")
    Y = _stack_data_rows(label_parts, None, l, "label id", f"{l} labels")
    try:
        reject_non_finite(features, "value")
    except InvalidEntryError as err:
        raise ParseError(str(err), err.row + 2) from None
    label_ids = Y.indices.astype(np.int64)
    label_ids.flags.writeable = False
    bounds = Y.indptr.tolist()
    labels = [label_ids[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    return Dataset(features=features, labels=labels, n_labels=l)


def reject_non_finite(X: SparseMatrix, what: str) -> None:
    """Raise an InvalidEntryError, naming the row and the column, for the
    first non-finite value of ``X``."""
    finite = np.isfinite(X.data)
    if not finite.all():
        pos = int(np.argmin(finite))
        row = int(np.searchsorted(X.indptr, pos, side="right")) - 1
        value, feature = float(X.data[pos]), int(X.indices[pos])
        raise InvalidEntryError(f"non-finite {what} {value} for feature {feature}", row, feature)


def write_xmc_dataset(ds: Dataset, path) -> None:
    """Serialize a dataset in the same text format it is parsed from.

    The bias column is a run-time augmentation, not part of the interchange
    format, so augmented datasets are rejected.
    """
    if ds.bias_index is not None:
        raise ConfigError("refusing to serialize a bias-augmented dataset")
    X = ds.features
    bounds = X.indptr.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{ds.n} {ds.dim} {ds.n_labels}\n")
        for lbls, lo, hi in zip(ds.labels, bounds, bounds[1:]):
            head = ",".join(map(str, lbls.tolist()))
            fh.write(format_row(head, X.indices[lo:hi], X.data[lo:hi]) + "\n")


def augment_bias(ds: Dataset) -> Dataset:
    """Append a constant-1 bias feature at index ``d`` (the new last column)."""
    if ds.bias_index is not None:
        raise ConfigError("dataset is already bias-augmented")
    X, d = ds.features, ds.dim
    ones = scipy.sparse.csr_matrix(np.ones((X.n_rows, 1)))
    features = SparseMatrix.from_scipy(scipy.sparse.hstack([X.to_scipy(), ones], format="csr"))
    return Dataset(features=features, labels=ds.labels, n_labels=ds.n_labels, bias_index=d)


def label_matrix(ds: Dataset) -> SparseMatrix:
    """The n x L indicator matrix Y of the instances' labels (entries 1.0)."""
    return SparseMatrix.stack(ds.labels, None, ds.n_labels)


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
    # Row j of Y^T lists label j's instances in increasing order.
    yt = label_matrix(ds).to_scipy().T.tocsr()
    counts = np.diff(yt.indptr)
    sums = yt @ X.to_scipy()
    sums.sort_indices()
    sums.data /= np.repeat(counts, np.diff(sums.indptr))
    pbar = SparseMatrix.from_scipy(sums)

    xbar = X.rmatvec(np.ones(n)) / n
    # Only the aop start reads xbar_sq; an overflow makes every aop start
    # non-finite, which each label's solve reports as numerical_failure.
    with np.errstate(over="ignore"):
        xbar_sq = float(np.dot(xbar, xbar))
    rows = yt.indices.astype(np.int64)
    rows.flags.writeable = False
    positives = np.split(rows, yt.indptr[1:-1]) if ds.n_labels else []
    return LabelStats(positives=positives, pbar=pbar, xbar=xbar, xbar_sq=xbar_sq, n=n)


def dataset_digest(ds: Dataset) -> str:
    """Content hash used to detect mixing diagnostics from different datasets."""
    h = hashlib.sha256()
    h.update(f"xova-ds {ds.n} {ds.dim} {ds.n_labels} {ds.bias_index}".encode())
    h.update(ds.features.indptr.astype(np.int64).tobytes())
    h.update(ds.features.indices.astype(np.int64).tobytes())
    h.update(ds.features.data.tobytes())
    # each row's label ids, then b";"
    h.update(b";".join([*map(np.ndarray.tobytes, ds.labels), b""]))
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
    members: list[list[int]] = []  # each label's rows, ascending
    for j in range(l):
        drawn = rng.choice(n, size=counts[j], replace=False).tolist()
        for i in drawn:
            labels[i].append(j)
        members.append(sorted(drawn))

    # Label-noise rows: copy the features of up to max(14, 0.6 * count)
    # positives per label onto label-free instances, tail labels first, and
    # keep part of the label-free pool as genuine background rows.
    free = [i for i in range(n) if not labels[i]]
    rng.shuffle(free)
    budget = int(0.55 * len(free))
    free_pos = 0
    copy_source: dict[int, int] = {}
    for j in reversed(range(l)):
        k = min(max(14, round(0.6 * counts[j])), counts[j])
        for s in rng.choice(counts[j], size=k, replace=False):
            if free_pos >= budget:
                break
            copy_source[free[free_pos]] = members[j][int(s)]
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

    features = SparseMatrix(indptr, np.concatenate(idx_parts), np.concatenate(val_parts), d)
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
