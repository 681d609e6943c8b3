"""Properties of scoring, of the data and model round-trips, of the matrix
constructor's check, of the parsers and their read size, of the row codec and
of the Newton-CG solver."""

import hashlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xova import dataio
from xova.dataio import (
    Dataset, dataset_digest, format_row, load_xmc_dataset, parse_pairs, split_dataset,
    write_xmc_dataset,
)
from xova.errors import InvalidEntryError, ModelFormatError, ParseError
from xova.losses import MarginLoss
from xova.solver import (
    TERM_CONVERGED, TERM_LINE_SEARCH, TERM_MAX_OUTER, SolverConfig, gradient, newton_cg
)
from xova.sparse import SparseMatrix
from xova.trainer import OvaModel, load_model, predict_topk, save_model

from conftest import dense_matrix, make_matrix, random_problem

FINITE = st.floats(allow_nan=False, allow_infinity=False)
# Multiples of 1/2 with few terms per product sum exactly in any order, and
# collide often, so that ties between labels are common.
HALVES = st.integers(min_value=-4, max_value=4).map(lambda v: v / 2)


def sparse_dicts(dim, values, max_rows):
    row = st.dictionaries(st.integers(min_value=0, max_value=dim - 1), values, max_size=dim)
    return st.lists(row, min_size=0, max_size=max_rows)


def model_from(weight_dicts, dim):
    return OvaModel(make_matrix(weight_dicts, dim), None, "squared-hinge", "zero")


@st.composite
def models_and_matrices(draw):
    dim = draw(st.integers(min_value=1, max_value=6))
    weights = draw(sparse_dicts(dim, HALVES, 8).filter(len))
    rows = draw(sparse_dicts(dim, HALVES, 10))
    k = draw(st.integers(min_value=1, max_value=len(weights)))
    return model_from(weights, dim), make_matrix(rows, dim), k


@settings(max_examples=60, deadline=None)
@given(models_and_matrices())
def test_predict_topk_equals_dense_brute_force(case):
    model, X, k = case
    W = np.zeros((model.n_labels, model.dim))
    for j in range(model.n_labels):
        w = model.weights.row(j)
        W[j, w.indices] = w.values
    S = dense_matrix(X) @ W.T
    want = [
        [(j, float(s[j])) for j in sorted(range(model.n_labels), key=lambda j: (-s[j], j))[:k]]
        for s in S
    ]
    assert predict_topk(model, X, k) == want


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=8).flatmap(
    lambda dim: st.tuples(st.just(dim), sparse_dicts(dim, FINITE, 6).filter(len))
))
def test_save_load_model_is_value_exact(tmp_path_factory, case):
    dim, weight_dicts = case
    model = model_from(weight_dicts, dim)
    path = tmp_path_factory.mktemp("model") / "m.model"
    save_model(model, path)
    loaded = load_model(path)
    assert (loaded.n_labels, loaded.dim, loaded.bias_index) == (model.n_labels, dim, None)
    for j in range(model.n_labels):
        a, b = model.weights.row(j), loaded.weights.row(j)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.values, b.values)
    save_model(loaded, path.with_suffix(".again"))
    assert path.with_suffix(".again").read_bytes() == path.read_bytes()


@st.composite
def index_rows(draw):
    """An index dtype, a column count and rows of column indices: in order or
    not, repeated, negative, at or beyond the column count, and, in int64,
    beyond the int32 range that scipy narrows to."""
    dtype = draw(st.sampled_from([np.int32, np.int64]))
    n_cols = draw(st.integers(min_value=1, max_value=6))
    info = np.iinfo(dtype)
    far = st.sampled_from([info.min, info.max, 2**31 + 1, 2**32 + 1] if dtype is np.int64
                          else [info.min, info.max])
    anything = st.lists(st.one_of(st.integers(-2, n_cols + 1), far), max_size=5)
    valid = st.lists(st.integers(0, n_cols - 1), unique=True, max_size=5).map(sorted)
    rows = draw(st.lists(st.one_of(anything, valid), max_size=6))
    return dtype, n_cols, rows


def first_bad_entry(rows, n_cols):
    """``(row, column)`` of the first index, row by row, that is out of range
    or not above the one before it in its row; None if there is none."""
    for i, row in enumerate(rows):
        for pos, j in enumerate(row):
            if not 0 <= j < n_cols or (pos and j <= row[pos - 1]):
                return i, j
    return None


@settings(max_examples=300, deadline=None)
@given(index_rows())
def test_the_constructor_rejects_exactly_the_bad_entries(case):
    dtype, n_cols, rows = case
    indptr = np.cumsum([0] + [len(row) for row in rows]).astype(dtype)
    indices = np.array([j for row in rows for j in row], dtype=dtype)
    data = np.arange(indices.size, dtype=np.float64)
    bad = first_bad_entry(rows, n_cols)
    if bad is None:
        X = SparseMatrix(indptr, indices, data, n_cols)
        assert [r.indices.tolist() for r in X] == rows
        assert X.data.tolist() == data.tolist()
    else:
        with pytest.raises(InvalidEntryError) as err:
            SparseMatrix(indptr, indices, data, n_cols)
        assert (err.value.row, err.value.col) == bad


@st.composite
def datasets(draw):
    dim = draw(st.integers(min_value=1, max_value=6))
    n_labels = draw(st.integers(min_value=1, max_value=5))
    rows = draw(sparse_dicts(dim, FINITE, 8))
    labels = [
        np.asarray(sorted(draw(st.sets(st.integers(0, n_labels - 1)))), dtype=np.int64)
        for _ in rows
    ]
    return Dataset(features=make_matrix(rows, dim), labels=labels, n_labels=n_labels)


@settings(max_examples=40, deadline=None)
@given(datasets())
def test_write_load_dataset_round_trips(tmp_path_factory, ds):
    path = tmp_path_factory.mktemp("data") / "d.txt"
    write_xmc_dataset(ds, path)
    back = load_xmc_dataset(path)
    assert (back.n, back.dim, back.n_labels) == (ds.n, ds.dim, ds.n_labels)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(back.features, name), getattr(ds.features, name))
    assert [a.tolist() for a in back.labels] == [a.tolist() for a in ds.labels]


# The forms a caller may give each instance's sorted label ids in.
LABEL_FORMS = {
    "int32": lambda row: np.array(row, dtype=np.int32),
    "int64": lambda row: np.array(row, dtype=np.int64),
    "list": list,
}


@st.composite
def label_rows(draw):
    """Sorted label ids per row, empty rows and no rows included, in one of
    the forms above, with the label count."""
    n_labels = draw(st.integers(min_value=1, max_value=6))
    rows = draw(st.lists(st.sets(st.integers(0, n_labels - 1)).map(sorted), max_size=8))
    form = LABEL_FORMS[draw(st.sampled_from(sorted(LABEL_FORMS)))]
    return [form(row) for row in rows], rows, n_labels


def reference_dataset_digest(ds, rows):
    """dataset_digest with the label ids hashed row by row, as int64."""
    h = hashlib.sha256(f"xova-ds {ds.n} {ds.dim} {ds.n_labels} {ds.bias_index}".encode())
    h.update(ds.features.indptr.astype(np.int64).tobytes())
    h.update(ds.features.indices.astype(np.int64).tobytes())
    h.update(ds.features.data.tobytes())
    h.update(b";".join([*(np.array(row, dtype=np.int64).tobytes() for row in rows), b""]))
    return h.hexdigest()[:16]


@settings(max_examples=150, deadline=None)
@given(label_rows(), st.floats(min_value=0.0, max_value=0.9), st.integers(0, 2**32 - 1))
def test_every_label_form_gives_one_label_matrix(tmp_path_factory, case, fraction, seed):
    """Y, the row views, the digest, the split and the file do not depend on
    the form the label ids were given in."""
    labels, rows, n_labels = case
    # row i's one feature value is i + 1, so that a split's rows can be told
    ds = Dataset(make_matrix([{0: i + 1.0} for i in range(len(rows))], 1), labels, n_labels)
    assert [row.indices.tolist() for row in ds.Y] == rows
    assert ds.Y.data.tolist() == [1.0] * ds.Y.nnz
    assert [a.tolist() for a in ds.labels] == rows
    assert all(a.dtype == np.int64 and not a.flags.writeable for a in ds.labels)
    assert dataset_digest(ds) == reference_dataset_digest(ds, rows)
    for part in split_dataset(ds, fraction, seed):
        taken = [int(v) - 1 for v in part.features.data]
        assert [a.tolist() for a in part.labels] == [ds.labels[i].tolist() for i in taken]
    path = tmp_path_factory.mktemp("data") / "d.txt"
    write_xmc_dataset(ds, path)
    back = load_xmc_dataset(path)
    assert back.Y == ds.Y and dataset_digest(back) == dataset_digest(ds)


# Tokens that break a valid line: a bare separator, a non-finite value, a
# negative id, integers beyond int64 and beyond any dimension, broken pairs.
JUNK = [":", "nan", "-1", "1e309", "99999999999999999999", "1000000000000000", "0:nan",
        "-1:1", "0:1:2", "x:1", "1:"]
MUTATIONS = ["drop", "duplicate", "replace", "insert", "splice", "drop line", "duplicate line"]


def mutate(draw, text):
    """``text`` with one token or line dropped, duplicated, replaced or spliced with junk."""
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    kind = draw(st.sampled_from(MUTATIONS))
    if kind == "drop line":
        del lines[i]
    elif kind == "duplicate line":
        lines.insert(i, lines[i])
    else:
        tokens = lines[i].split(" ")
        j = draw(st.integers(0, len(tokens) - 1))
        junk = draw(st.sampled_from(JUNK))
        if kind == "drop":
            del tokens[j]
        elif kind == "duplicate":
            tokens.insert(j, tokens[j])
        elif kind == "replace":
            tokens[j] = junk
        elif kind == "insert":
            tokens.insert(j, junk)
        else:
            c = draw(st.integers(0, len(tokens[j])))
            tokens[j] = tokens[j][:c] + junk + tokens[j][c:]
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(datasets(), st.data())
def test_data_parser_raises_only_parse_errors(tmp_path_factory, ds, data):
    path = tmp_path_factory.mktemp("data") / "d.txt"
    write_xmc_dataset(ds, path)
    path.write_text(mutate(data.draw, path.read_text()))
    try:
        load_xmc_dataset(path)
    except ParseError:
        pass


# A fault put in a valid file, and what it puts on the line in place of the
# features (None: not a feature fault), with the start of the error message.
FAULTS = {
    "bad character": ("0:1_5", "invalid character"),
    "token without a colon": ("5", "invalid feature token '5'"),
    "non-numeric token": ("0:abc", "non-numeric feature index or value"),
    "bad label field": (None, "invalid label ids"),
    "out-of-range index": ("{dim}:1", "feature index {dim} out of range for dimension {dim}"),
    "duplicate index": ("0:1 0:2", "duplicate feature index 0"),
    "non-finite value": ("0:inf", "non-finite value inf for feature 0"),
    "trailing content": (None, "unexpected content after {n} instance lines"),
    "short file": (None, "expected {n} instance lines, file ends after {kept}"),
}


@st.composite
def data_files(draw):
    """The bytes of a data file, with LF or CRLF line ends and labels and
    features in any order, and either the Dataset it holds or, when one
    fault is put in it, the start of the error message and its line."""
    dim, n_labels = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    rows = draw(st.lists(st.tuples(
        st.lists(st.integers(0, n_labels - 1), unique=True, max_size=n_labels),
        st.lists(st.tuples(st.integers(0, dim - 1), FINITE), unique_by=lambda p: p[0], max_size=dim),
        st.sampled_from([" ", "\t"]),
    ), max_size=30))
    fields = [",".join(map(str, labels)) for labels, _, _ in rows]
    features = [" ".join(f"{j}:{v!r}" for j, v in pairs) for _, pairs, _ in rows]
    body = [field + sep + text for field, (_, _, sep), text in zip(fields, rows, features)]
    n, trail = len(rows), draw(st.sampled_from(["", "\n", " \n\n"]))
    fault = draw(st.sampled_from([None, *FAULTS]))
    if fault is not None and not n:
        fault = "trailing content"
    want, line = None, None
    if fault == "trailing content":
        body += [""] * draw(st.integers(0, 2)) + [draw(st.sampled_from(["0 0:1", "x", " \t1"]))]
        line = n + 2
    elif fault == "short file":
        kept = draw(st.integers(0, n - 1))
        body, trail, line = body[:kept], "", kept + 2
    elif fault is not None:
        r = draw(st.integers(0, n - 1))
        bad, sep, line = FAULTS[fault][0], rows[r][2], r + 2
        if bad is None:  # a label field with an empty id: "," or "0,"
            body[r] = fields[r] + "," + sep + features[r]
        else:
            body[r] = fields[r] + sep + bad.format(dim=dim)
    if fault is not None:
        want = FAULTS[fault][1].format(dim=dim, n=n, kept=line - 2), line
    else:
        want = Dataset(make_matrix([dict(pairs) for _, pairs, _ in rows], dim),
                       [np.array(sorted(labels), dtype=np.int64) for labels, _, _ in rows],
                       n_labels)
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    end = draw(st.sampled_from([newline, ""])) if not trail else newline
    text = newline.join([f"{n} {dim} {n_labels}", *body]) + end + trail.replace("\n", newline)
    return text.encode(), want


def load_outcome(path):
    """The dataset's digest and arrays, or the error's type, message and line."""
    try:
        ds = load_xmc_dataset(path)
    except ParseError as err:
        return type(err), str(err), err.line
    X = ds.features
    return (dataset_digest(ds), X.indptr.tolist(), X.indices.tolist(), X.data.tobytes(),
            [a.tolist() for a in ds.labels])


@settings(max_examples=300, deadline=None)
@given(data_files())
def test_the_read_size_changes_no_outcome(tmp_path_factory, case):
    """One line per read, a few lines per read and the default give the same
    dataset or the same error, on the line that holds the fault."""
    raw, want = case
    path = tmp_path_factory.mktemp("data") / "d.txt"
    path.write_bytes(raw)
    outcomes = []
    for read_bytes in (1, 100, dataio._READ_BYTES):
        with mock.patch.object(dataio, "_READ_BYTES", read_bytes):
            outcomes.append(load_outcome(path))
    assert outcomes[1] == outcomes[0] and outcomes[2] == outcomes[0]
    if isinstance(want, Dataset):
        assert outcomes[0][0] == dataset_digest(want)
    else:
        kind, message, line = outcomes[0]
        assert kind is ParseError and message.startswith(f"line {want[1]}: {want[0]}")
        assert line == want[1]


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=1, max_value=6).flatmap(
    lambda dim: st.tuples(st.just(dim), sparse_dicts(dim, FINITE, 5).filter(len))
), st.sampled_from(["truncate", "extend", "flip"]), st.data())
def test_model_parser_raises_only_model_format_errors(tmp_path_factory, case, damage, data):
    """A valid file cut short, extended, or with one byte changed: a cut or
    an extension is always an error; a changed byte is an error, or gives a
    model whose every check holds."""
    dim, weight_dicts = case
    path = tmp_path_factory.mktemp("model") / "m.model"
    save_model(model_from(weight_dicts, dim), path)
    raw = path.read_bytes()
    if damage == "truncate":
        raw = raw[: data.draw(st.integers(0, len(raw) - 1))]
    elif damage == "extend":
        raw += data.draw(st.binary(min_size=1, max_size=24))
    else:
        at = data.draw(st.integers(0, len(raw) - 1))
        flip = data.draw(st.integers(1, 255))
        raw = raw[:at] + bytes([raw[at] ^ flip]) + raw[at + 1:]
    path.write_bytes(raw)
    try:
        model = load_model(path)
    except ModelFormatError:
        return
    assert damage == "flip"
    W = model.weights
    assert np.isfinite(W.data).all() and np.all(np.diff(W.indptr) >= 0)
    for j in range(W.n_rows):
        idx = W.row(j).indices
        assert np.all(np.diff(idx) > 0) and np.all((idx >= 0) & (idx < W.n_cols))


# The row codec converts a whole row per call; these per-pair and per-token
# bodies are the definitions it must match, byte for byte and error for error.
def reference_format_row(head, indices, values):
    return " ".join([head, *map("{}:{:.17g}".format, indices.tolist(), values.tolist())])


def reference_parse_pairs(tokens, lineno):
    bad = next((tok for tok in tokens if tok.count(":") != 1), None)
    if bad is not None:
        raise ParseError(f"invalid feature token {bad!r}, expected index:value", lineno)
    flat = ":".join(tokens).split(":")
    try:
        idx = np.fromiter(map(int, flat[0::2]), dtype=np.int64, count=len(tokens))
        val = np.fromiter(map(float, flat[1::2]), dtype=np.float64, count=len(tokens))
    except ValueError as err:
        raise ParseError(f"non-numeric feature index or value ({err})", lineno) from None
    except OverflowError:
        raise ParseError("feature index beyond the int64 range", lineno) from None
    return idx, val


def parse_outcome(parse, tokens):
    """The arrays' dtypes and bits, or the error's type, message and line."""
    try:
        idx, val = parse(tokens, 7)
    except ParseError as err:
        return type(err), str(err), err.line
    return idx.dtype, idx.tobytes(), val.dtype, val.tobytes()


# Every float64, NaN payloads and subnormals included, from its bit pattern.
ANY_FLOAT64 = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -2.2250738585072009e-308,
                     np.finfo(np.float64).max]),
    st.integers(0, 2**64 - 1).map(lambda bits: float(np.uint64(bits).view(np.float64))),
)
INT64 = st.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max)


@settings(max_examples=300, deadline=None)
@given(
    head=st.sampled_from(["", "0 3", "1,2", "12 0"]),
    pairs=st.lists(st.tuples(INT64, ANY_FLOAT64), max_size=12),
)
def test_format_row_matches_the_per_pair_reference(head, pairs):
    indices = np.array([i for i, _ in pairs], dtype=np.int64)
    values = np.array([v for _, v in pairs], dtype=np.float64)
    assert format_row(head, indices, values) == reference_format_row(head, indices, values)


TOKEN_CHARS = "0123456789:+-.eE_naifx"
RAW_TOKEN = st.text(alphabet=TOKEN_CHARS, max_size=8)
PAIR_TOKEN = st.tuples(RAW_TOKEN, RAW_TOKEN).map(":".join)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(RAW_TOKEN, PAIR_TOKEN), max_size=6))
def test_parse_pairs_matches_the_per_token_reference(tokens):
    assert parse_outcome(parse_pairs, tokens) == parse_outcome(reference_parse_pairs, tokens)


@pytest.mark.parametrize("row", [
    "", "0:1.5 3:-2", "1:2:3 4", "4 1:2:3", ":5", "5:", ":", "1_0:1", "+5:1", " 5:1",
    "99999999999999999999:1", "-9223372036854775809:1", "9223372036854775807:1e400",
    "0:nan 1:-inf 2:0x1p3", "0:1\x00", "1e3:1", "0x10:1", "\u0663:1",
])
def test_parse_pairs_matches_the_reference_on_examples(row):
    tokens = row.split(" ") if row.strip(" ") else []
    assert parse_outcome(parse_pairs, tokens) == parse_outcome(reference_parse_pairs, tokens)


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=2, max_value=40),
    d=st.integers(min_value=1, max_value=10),
    loss=st.sampled_from(list(MarginLoss)),
    c=st.sampled_from([0.1, 1.0, 10.0]),
    eps_outer=st.sampled_from([1e-6, 1e-2, 0.5]),
    start_scale=st.sampled_from([0.0, 1.0, 10.0]),
)
def test_newton_cg_losses_never_increase(seed, n, d, loss, c, eps_outer, start_scale):
    rng = np.random.default_rng(seed)
    problem = random_problem(rng, n, d, loss, c)
    cfg = SolverConfig(eps_outer=eps_outer)
    grad0_ref = float(np.linalg.norm(gradient(problem, np.zeros(d))))
    w, trace = newton_cg(problem, rng.normal(0.0, start_scale, d), cfg, grad0_ref)
    losses = trace.losses()
    assert all(after <= before for before, after in zip(losses, losses[1:]))
    # a numerical_failure would be returned on the trace; none may happen here
    assert trace.termination in (TERM_CONVERGED, TERM_MAX_OUTER, TERM_LINE_SEARCH)
    if trace.termination == TERM_CONVERGED:
        assert trace.final_grad_norm <= eps_outer * grad0_ref
