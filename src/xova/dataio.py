"""Dataset parsing, bias augmentation, label statistics and synthetic data.

The on-disk format is the plain-text multi-label format used by the public
extreme-classification benchmark files: a header line ``n d l`` followed by
one line per instance, ``lbl,lbl,... f:v f:v ...`` with 0-based ids. The
label field ends at the first space or tab; an empty one is written as a
leading space. :func:`parse_pairs` and :func:`format_row` read and write
the ``f:v`` pairs of a row. A file is read ``_READ_BYTES`` of text at a
time, in whole lines, and each read's feature indices, values and label ids
are converted by one numpy call each. Parsing is strict: no comments, no
digit separators or non-ASCII digits, and every malformed token is
reported with its line number. Neither the dataset nor an error depends on
the read size.
"""

from __future__ import annotations

import functools
import hashlib
import math
import operator
from dataclasses import dataclass
from itertools import accumulate, pairwise, repeat

import numpy as np
import scipy.sparse

from .errors import (ConfigError, DimensionMismatchError, InvalidEntryError, ParseError, is_integer,
                     is_number)
from .sparse import DenseVector, SparseMatrix

# Header counts stay below this, so a dimension plus the bias column fits in int64.
MAX_COUNT = np.iinfo(np.int64).max
# Instance lines are read about this many characters at a time (``readlines``'
# hint), and each read's lines are converted together: a few numpy calls per
# read instead of a few per line. A whole-file read holds every token's string
# at once: on the topic bench's train file, a tracemalloc peak of 35.9 MiB
# against 4.9 MiB at this size.
_READ_BYTES = 64 << 10


class Dataset:
    """Instances, their read-only n x ``n_labels`` label matrix ``Y`` (entries
    1.0) and the (possibly bias-augmented) features. ``labels`` is Y itself, or
    one sorted id array per instance (any integer dtype, or a Python list),
    stacked into Y; either is checked here, so no invalid Dataset exists."""

    def __init__(self, features: SparseMatrix, labels, n_labels: int,
                 bias_index: int | None = None):
        Y = labels
        if not isinstance(Y, SparseMatrix):
            try:
                Y = SparseMatrix.stack(labels, None, n_labels)
            except InvalidEntryError as err:  # row: the instance, col: the label id
                raise InvalidEntryError(f"instance {err.row}: label {err}", err.row, err.col) from None
        elif not (ones := Y.data == 1.0).all():  # statistics and evaluation read the entries
            pos = int(np.argmin(ones))
            i, j = _entry(Y, pos)
            raise InvalidEntryError(f"instance {i}: label {j} has entry {Y.data[pos]}, not 1.0", i, j)
        if Y.n_rows != features.n_rows:
            raise DimensionMismatchError(f"{Y.n_rows} label lists for {features.n_rows} instances")
        if Y.n_cols != n_labels:
            raise DimensionMismatchError(f"{Y.n_cols} label columns for {n_labels} labels")
        self.features, self.Y, self.n_labels, self.bias_index = features, Y, n_labels, bias_index

    @functools.cached_property
    def labels(self) -> list[np.ndarray]:
        """Each instance's sorted label ids: read-only int64 views of one copy of Y's."""
        return _row_indices(self.Y)

    @property
    def n(self) -> int:
        return self.features.n_rows

    @property
    def dim(self) -> int:
        return self.features.n_cols


@dataclass
class LabelStats:
    """Per-label positive index lists and means, plus the global mean."""

    positives: list[np.ndarray]  # sorted int64 instance indices per label
    pbar: SparseMatrix  # L x d, row j the mean of label j's positive rows (empty if none)
    xbar: DenseVector  # mean of all rows
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
    """The index and value arrays of ``idx:val`` tokens, in the order given:
    one line's, or all the lines' of one read, reported at ``lineno``. Only
    the syntax is checked here; ranges, repeats and non-finite values are
    checked once the lines form one matrix.

    Each check and conversion is one C-level call over all the tokens; numpy
    converts each string with Python's own ``int`` and ``float``, so the
    grammar and the errors are theirs."""
    if not tokens:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    joined = ":".join(tokens)
    # Every token holds a colon, and the joined tokens hold one per token plus
    # one per join: so exactly one per token. The count alone would pass "1:2:3 4".
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


def _parse_lines(lines: list[str], lineno: int):
    """The label ids, feature indices and values of instance lines whose
    first is line ``lineno``, each as one flat array converted in one call,
    and each row's label and pair counts.

    A fault is named by checking the lines again one at a time, so the
    ParseError names the first bad line, as it would in a line-by-line read."""
    fields, tokens, pair_counts = [], [], []
    for line in lines:
        line = line.rstrip("\r\n")
        # a line that starts with a space or a tab has no labels
        field = line.split(" ", 1)[0].split("\t", 1)[0]
        pairs = line[len(field):].split()
        fields.append(field)
        tokens += pairs
        pair_counts.append(len(pairs))
    try:
        reject_bad_characters("".join(lines), lineno)
        ids = _parse_label_ids(",".join(filter(None, fields)), lineno)
        idx, val = parse_pairs(tokens, lineno)
    except ParseError:
        ends = list(accumulate(pair_counts, initial=0))
        for i, (line, field, lo, hi) in enumerate(zip(lines, fields, ends, ends[1:]), lineno):
            reject_bad_characters(line, i)
            _parse_label_ids(field, i)
            parse_pairs(tokens[lo:hi], i)
        raise
    label_counts = [field.count(",") + 1 if field else 0 for field in fields]
    return (ids, np.array(label_counts, dtype=np.int64), idx, val,
            np.array(pair_counts, dtype=np.int64))


def _matrix(counts, indices, data, n_cols: int, what: str, limit: str) -> SparseMatrix:
    """The matrix whose row ``i`` holds the next ``counts[i]`` entries, listed
    in any order and sorted by index; a repeated or out-of-range index is a
    ParseError on its row's line. scipy's sort does nothing when every row
    is already in order, and scipy does not narrow an index beyond int32, so
    the matrix's check sees it."""
    indptr = np.concatenate(([0], np.cumsum(counts)))
    csr = scipy.sparse.csr_matrix((data, indices, indptr), shape=(len(counts), n_cols))
    csr.sort_indices()
    try:
        return SparseMatrix(csr.indptr, csr.indices, csr.data, n_cols)
    except InvalidEntryError as err:
        if 0 <= err.col < n_cols:
            raise ParseError(f"duplicate {what} {err.col}", err.row + 2) from None
        raise ParseError(f"{what} {err.col} out of range for {limit}", err.row + 2) from None


def load_xmc_dataset(path) -> Dataset:
    """Parse a benchmark-format text file into a :class:`Dataset`.

    The instance lines are read ``_READ_BYTES`` of text at a time, and each
    read's lines are parsed together (:func:`_parse_lines`)."""
    # an undecodable byte becomes a lone surrogate, which the ASCII check rejects
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        header = fh.readline()
        if not header:
            raise ParseError("empty file, expected 'n d l' header", 1)
        reject_bad_characters(header, 1)
        n, d, l = _parse_header(header, 1)

        parts = [_parse_lines([], 2)]  # no lines: an empty array of each column's type
        read, extra = 0, []
        while read < n and (lines := fh.readlines(_READ_BYTES)):
            extra = lines[n - read:]
            del lines[n - read:]
            parts.append(_parse_lines(lines, read + 2))
            read += len(lines)
        if read < n:
            raise ParseError(f"expected {n} instance lines, file ends after {read}", read + 2)
        if "".join(extra).strip() or fh.read().strip():
            raise ParseError(f"unexpected content after {n} instance lines", n + 2)

    ids, label_counts, idx, val, pair_counts = map(np.concatenate, zip(*parts))
    features = _matrix(pair_counts, idx, val, d, "feature index", f"dimension {d}")
    Y = _matrix(label_counts, ids, np.ones(ids.shape[0]), l, "label id", f"{l} labels")
    try:
        reject_non_finite(features, "value")
    except InvalidEntryError as err:
        raise ParseError(str(err), err.row + 2) from None
    return Dataset(features=features, labels=Y, n_labels=l)


def _row_indices(M) -> list[np.ndarray]:
    """Each row's indices of a CSR ``M``, read-only views of one int64 copy."""
    ids = M.indices.astype(np.int64)
    ids.flags.writeable = False
    return [ids[lo:hi] for lo, hi in pairwise(M.indptr.tolist())]


def reject_non_finite(X: SparseMatrix, what: str) -> None:
    """Raise an InvalidEntryError, naming the row and the column, for the
    first non-finite value of ``X``."""
    finite = np.isfinite(X.data)
    if not finite.all():
        pos = int(np.argmin(finite))
        row, feature = _entry(X, pos)
        value = float(X.data[pos])
        raise InvalidEntryError(f"non-finite {what} {value} for feature {feature}", row, feature)


def _entry(X: SparseMatrix, pos: int) -> tuple[int, int]:
    """The row and the column of ``X``'s stored entry at ``pos``."""
    return int(np.searchsorted(X.indptr, pos, side="right")) - 1, int(X.indices[pos])


def write_xmc_dataset(ds: Dataset, path) -> None:
    """Serialize a dataset in the same text format it is parsed from.

    The bias column is a run-time augmentation, not part of the interchange
    format, so augmented datasets are rejected.
    """
    if ds.bias_index is not None:
        raise ConfigError("refusing to serialize a bias-augmented dataset")
    X, ids = ds.features, ds.Y.indices.tolist()
    bounds, label_bounds = X.indptr.tolist(), ds.Y.indptr.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{ds.n} {ds.dim} {ds.n_labels}\n")
        for lo, hi, a, b in zip(bounds, bounds[1:], label_bounds, label_bounds[1:]):
            head = ",".join(map(str, ids[a:b]))
            fh.write(format_row(head, X.indices[lo:hi], X.data[lo:hi]) + "\n")


def augment_bias(ds: Dataset) -> Dataset:
    """Append a constant-1 bias feature at index ``d`` (the new last column)."""
    if ds.bias_index is not None:
        raise ConfigError("dataset is already bias-augmented")
    X, d = ds.features, ds.dim
    ones = scipy.sparse.csr_matrix(np.ones((X.n_rows, 1)))
    csr = scipy.sparse.hstack([X.to_scipy(), ones], format="csr")
    features = SparseMatrix(csr.indptr, csr.indices, csr.data, d + 1)
    return Dataset(features=features, labels=ds.Y, n_labels=ds.n_labels, bias_index=d)


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
    yt = ds.Y.to_scipy().T.tocsr()
    counts = np.diff(yt.indptr)
    sums = yt @ X.to_scipy()
    sums.sort_indices()
    sums.data /= np.repeat(counts, np.diff(sums.indptr))
    pbar = SparseMatrix(sums.indptr, sums.indices, sums.data, X.n_cols)

    xbar = X.rmatvec(np.ones(n)) / n
    return LabelStats(positives=_row_indices(yt), pbar=pbar, xbar=xbar, n=n)


def dataset_digest(ds: Dataset) -> str:
    """Content hash used to detect mixing diagnostics from different datasets."""
    h = hashlib.sha256()
    h.update(f"xova-ds {ds.n} {ds.dim} {ds.n_labels} {ds.bias_index}".encode())
    h.update(ds.features.indptr.astype(np.int64).tobytes())
    h.update(ds.features.indices.astype(np.int64).tobytes())
    h.update(ds.features.data.tobytes())
    # each row's label ids as int64 bytes, then b";"
    ids = ds.Y.indices.astype(np.int64).view(np.uint8)
    h.update(np.insert(ids, 8 * ds.Y.indptr[1:].astype(np.int64), ord(";")).tobytes())
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
    for name, value, low in (("n", n, 1), ("d", d, 1), ("l", l, 1), ("seed", seed, 0)):
        if not (is_integer(value) and value >= low):
            raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")
    if not (is_number(tail_exponent) and tail_exponent > 0):
        raise ConfigError(f"tail_exponent must be a number > 0, got {tail_exponent!r}")
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

    features = SparseMatrix.stack(
        [np.array([k for k, _ in row], dtype=np.int64) for row in rows],
        [np.array([v for _, v in row], dtype=np.float64) for row in rows],
        d,
    )
    label_arrays = [np.asarray(sorted(lbls), dtype=np.int64) for lbls in labels]
    return Dataset(features=features, labels=label_arrays, n_labels=l)


def split_dataset(ds: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic row split into (train, test) with ``floor(frac * n)`` test rows."""
    if not (is_number(test_fraction) and 0.0 <= test_fraction < 1.0):
        raise ConfigError(f"test fraction must be a number in [0, 1), got {test_fraction!r}")
    if not (is_integer(seed) and seed >= 0):
        raise ConfigError(f"seed must be an integer >= 0, got {seed!r}")
    if ds.bias_index is not None:
        raise ConfigError("split before bias augmentation")
    n_test = int(math.floor(test_fraction * ds.n))
    perm = np.random.default_rng(seed).permutation(ds.n)
    test_rows = np.sort(perm[:n_test])
    train_rows = np.sort(perm[n_test:])

    def take(rows: np.ndarray) -> Dataset:
        return Dataset(ds.features.submatrix(rows), ds.Y.submatrix(rows), ds.n_labels)

    return take(train_rows), take(test_rows)
