"""Properties of scoring and of the data and model round-trips."""

import numpy as np
from hypothesis import given, settings, strategies as st

from xova.dataio import Dataset, load_xmc_dataset, write_xmc_dataset
from xova.sparse import SparseVector
from xova.trainer import ModelMeta, OvaModel, load_model, predict_topk, save_model

from conftest import dense_matrix, make_matrix

FINITE = st.floats(allow_nan=False, allow_infinity=False)
# Multiples of 1/2 with few terms per product sum exactly in any order, and
# collide often, so that ties between labels are common.
HALVES = st.integers(min_value=-4, max_value=4).map(lambda v: v / 2)


def sparse_dicts(dim, values, max_rows):
    row = st.dictionaries(st.integers(min_value=0, max_value=dim - 1), values, max_size=dim)
    return st.lists(row, min_size=0, max_size=max_rows)


def model_from(weight_dicts, dim):
    weights = [SparseVector.from_dict(w) for w in weight_dicts]
    return OvaModel(
        n_labels=len(weights),
        dim=dim,
        bias_index=None,
        weights=weights,
        meta=ModelMeta(loss="squared-hinge", init="zero"),
    )


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
    for j, w in enumerate(model.weights):
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
    for a, b in zip(model.weights, loaded.weights):
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.values, b.values)


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
