import json

import numpy as np
import pytest

from xova.dataio import Dataset
from xova.errors import ConfigError, DimensionMismatchError
from xova.metrics import evaluate, macro_binary_pr, precision_at_k
from xova.trainer import OvaModel

from conftest import make_matrix


def model_from(weight_dicts, dim):
    return OvaModel(make_matrix(weight_dicts, dim), None, "squared-hinge", "zero")


def dataset_from(rows, labels, dim, n_labels):
    return Dataset(
        make_matrix(rows, dim),
        [np.asarray(sorted(ls), dtype=np.int64) for ls in labels],
        n_labels,
    )


class TestPrecisionAtK:
    def test_single_hit(self):
        model = model_from([{0: -1.0}, {0: 1.0}], dim=1)
        test = dataset_from([{0: 1.0}], [[1]], 1, 2)
        assert precision_at_k(model, test, [1]) == {1: 1.0}

    def test_no_relevant_contributes_zero(self):
        model = model_from([{0: 1.0}, {0: 0.5}], dim=1)
        test = dataset_from([{0: 1.0}], [[]], 1, 2)
        assert precision_at_k(model, test, [1]) == {1: 0.0}

    def test_mean_over_instances(self):
        model = model_from([{0: 1.0}, {1: 1.0}], dim=2)
        test = dataset_from([{0: 2.0}, {0: 2.0}], [[0], [1]], 2, 2)
        # both rank label 0 first: hit for instance 0, miss for instance 1
        assert precision_at_k(model, test, [1]) == {1: 0.5}

    def test_k_out_of_range(self):
        model = model_from([{}], dim=1)
        test = dataset_from([{0: 1.0}], [[]], 1, 1)
        with pytest.raises(ConfigError):
            precision_at_k(model, test, [2])

    def test_cumulative_hits_monotone(self, rng):
        n_labels, dim = 12, 6
        model = model_from(
            [dict(enumerate(rng.normal(0, 1, dim))) for _ in range(n_labels)], dim
        )
        rows = [dict(enumerate(rng.uniform(0, 1, dim))) for _ in range(30)]
        labels = [
            sorted(rng.choice(n_labels, size=rng.integers(0, 4), replace=False).tolist())
            for _ in range(30)
        ]
        test = dataset_from(rows, labels, dim, n_labels)
        ks = list(range(1, n_labels + 1))
        p = precision_at_k(model, test, ks)
        hits = [k * p[k] for k in ks]
        assert all(b >= a - 1e-12 for a, b in zip(hits, hits[1:]))

    def test_permutation_invariance(self, rng):
        n_labels, dim, n = 6, 4, 20
        model = model_from(
            [dict(enumerate(rng.normal(0, 1, dim))) for _ in range(n_labels)], dim
        )
        rows = [dict(enumerate(rng.uniform(0, 1, dim))) for _ in range(n)]
        labels = [
            sorted(rng.choice(n_labels, size=2, replace=False).tolist()) for _ in range(n)
        ]
        perm = rng.permutation(n)
        t1 = dataset_from(rows, labels, dim, n_labels)
        t2 = dataset_from([rows[i] for i in perm], [labels[i] for i in perm], dim, n_labels)
        p1 = precision_at_k(model, t1, [1, 3])
        p2 = precision_at_k(model, t2, [1, 3])
        assert p1 == pytest.approx(p2)
        pr1 = macro_binary_pr(model, t1)
        pr2 = macro_binary_pr(model, t2)
        assert pr1 == pytest.approx(pr2)

    def test_dimension_mismatch(self):
        model = model_from([{}], dim=3)
        test = dataset_from([{0: 1.0}], [[]], 2, 1)
        with pytest.raises(DimensionMismatchError):
            precision_at_k(model, test, [1])


class TestMacroBinaryPR:
    def test_perfect_separator(self):
        model = model_from([{0: 1.0, 1: -1.0}], dim=2)
        test = dataset_from([{0: 1.0}, {1: 1.0}], [[0], []], 2, 1)
        prec, rec = macro_binary_pr(model, test)
        assert prec == 1.0 and rec == 1.0

    def test_silent_label_excluded(self):
        # label 1 has no test positives and never predicts positive
        model = model_from([{0: 1.0}, {0: -1.0}], dim=1)
        test = dataset_from([{0: 1.0}], [[0]], 1, 2)
        prec, rec = macro_binary_pr(model, test)
        assert prec == 1.0 and rec == 1.0

    def test_predict_everything_positive(self):
        model = model_from([{0: 1.0}], dim=1)
        rows = [{0: 1.0}] * 10
        labels = [[0]] + [[]] * 9
        test = dataset_from(rows, labels, 1, 1)
        prec, rec = macro_binary_pr(model, test)
        assert prec == pytest.approx(0.1)
        assert rec == 1.0

    def test_zero_over_zero_is_zero(self):
        # a label with test positives but no positive predictions:
        # recall 0, precision 0/0 -> 0, label still counted
        model = model_from([{0: -1.0}], dim=1)
        test = dataset_from([{0: 1.0}], [[0]], 1, 1)
        prec, rec = macro_binary_pr(model, test)
        assert prec == 0.0 and rec == 0.0

    def test_threshold_is_strictly_positive(self):
        model = model_from([{}], dim=1)  # all scores exactly 0
        test = dataset_from([{0: 1.0}], [[0]], 1, 1)
        prec, rec = macro_binary_pr(model, test)
        assert prec == 0.0 and rec == 0.0  # score 0 is not a positive prediction


class TestEvaluate:
    def test_result_shape_and_json(self, tmp_path):
        model = model_from([{0: 1.0}, {0: -1.0}], dim=1)
        test = dataset_from([{0: 1.0}], [[0]], 1, 2)
        res = evaluate(model, test, [1, 2])
        assert res.n_test == 1
        assert set(res.p_at) == {1, 2}
        assert 0.0 <= res.macro_precision <= 1.0
        path = tmp_path / "eval.json"
        res.write_json(path)
        data = json.loads(path.read_text())
        assert data["n_test"] == 1
        assert set(data["p_at"]) == {"1", "2"}

    def test_csv(self, tmp_path):
        model = model_from([{0: 1.0}], dim=1)
        test = dataset_from([{0: 1.0}], [[0]], 1, 1)
        res = evaluate(model, test, [1])
        path = tmp_path / "eval.csv"
        res.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "metric,k,value"
        assert lines[1].startswith("p_at,1,")

    def test_empty_test_set(self):
        model = model_from([{0: 1.0}], dim=1)
        test = dataset_from([], [], 1, 1)
        res = evaluate(model, test, [1])
        assert res.p_at[1] == 0.0 and res.n_test == 0
