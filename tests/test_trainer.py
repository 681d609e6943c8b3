import numpy as np
import pytest

from xova.dataio import Dataset, augment_bias, compute_label_stats, generate_synthetic
from xova.errors import ConfigError, DimensionMismatchError, ModelFormatError
from xova.initializers import InitStrategy
from xova.losses import MarginLoss
from xova.solver import BinaryProblem, SolverConfig, TERM_NUMERICAL, gradient, newton_cg
from xova.sparse import SparseMatrix
from xova.trainer import (
    ModelMeta,
    OvaModel,
    TrainConfig,
    load_model,
    predict_topk,
    save_model,
    score_blocks,
    train_ova,
)

from conftest import make_matrix


@pytest.fixture(scope="module")
def small_data():
    ds = augment_bias(generate_synthetic(200, 20, 8, 1.2, 21))
    return ds, compute_label_stats(ds)


def simple_model(weight_dicts, dim, bias_index=None, loss="squared-hinge", init="zero"):
    return OvaModel(make_matrix(weight_dicts, dim), bias_index, ModelMeta(loss=loss, init=init))


class TestTrainOva:
    def test_matches_single_label_solver(self, small_data):
        ds, stats = small_data
        cfg = TrainConfig(init=InitStrategy("zero"), clip_threshold=0.0)
        model, report = train_ova(ds, stats, cfg)
        j = 2
        signs = np.full(ds.n, -1.0)
        signs[stats.positives[j]] = 1.0
        p = BinaryProblem(ds.features, signs, cfg.loss, cfg.c)
        g0 = float(np.linalg.norm(gradient(p, np.zeros(ds.dim))))
        w_ref, trace = newton_cg(p, np.zeros(ds.dim), cfg.solver, g0)
        np.testing.assert_array_equal(model.weights.row(j).to_dense(ds.dim), w_ref)
        row = next(r for r in report.labels if r.label == j)
        assert row.outer_iters == trace.outer_iters
        assert row.hvp_touches == trace.hvp_touches

    def test_clip_zero_preserves_everything(self, small_data):
        ds, stats = small_data
        cfg = TrainConfig(clip_threshold=0.0)
        model, _ = train_ova(ds, stats, cfg)
        # with threshold zero even exact zeros survive, so vectors are dense
        assert all(model.weights.row(j).indices.size == ds.dim for j in range(ds.n_labels))

    def test_clip_invariant(self, small_data):
        ds, stats = small_data
        cfg = TrainConfig(clip_threshold=0.05)
        model, _ = train_ova(ds, stats, cfg)
        for j in range(ds.n_labels):
            values = model.weights.row(j).values
            if values.size:
                assert np.min(np.abs(values)) >= 0.05

    def test_clipping_applied_after_convergence(self, small_data):
        ds, stats = small_data
        m1, r1 = train_ova(ds, stats, TrainConfig(clip_threshold=0.0))
        m2, r2 = train_ova(ds, stats, TrainConfig(clip_threshold=0.01))
        # the optimization itself is identical; only storage differs
        assert [r.outer_iters for r in r1.labels] == [r.outer_iters for r in r2.labels]
        for j in range(ds.n_labels):
            dense = m1.weights.row(j).to_dense(ds.dim)
            clipped = m2.weights.row(j).to_dense(ds.dim)
            keep = np.abs(dense) >= 0.01
            np.testing.assert_array_equal(clipped[keep], dense[keep])
            assert np.all(clipped[~keep] == 0.0)

    def test_zero_outer_iterations_when_start_optimal(self):
        # a label with no positives started from the bias vector: every margin
        # is exactly one, the gradient is the regularizer alone and far below
        # the zero-vector reference
        ds = augment_bias(generate_synthetic(300, 10, 3, 1.2, 5))
        labels = [np.array([], dtype=np.int64) for _ in range(ds.n)]
        ds = Dataset(ds.features, labels, 1, bias_index=ds.bias_index)
        stats = compute_label_stats(ds)
        cfg = TrainConfig(init=InitStrategy("bias", bias_scale=1.0))
        _, report = train_ova(ds, stats, cfg)
        assert report.labels[0].outer_iters == 0

    def test_bias_init_requires_augmented(self):
        ds = generate_synthetic(50, 10, 3, 1.2, 5)
        stats = compute_label_stats(ds)
        with pytest.raises(ConfigError, match="bias"):
            train_ova(ds, stats, TrainConfig(init=InitStrategy("bias")))

    def test_numerical_failure_recorded_not_fatal(self, small_data, monkeypatch):
        import xova.trainer as trainer_mod
        from xova.errors import NumericalError
        from xova.solver import SolverTrace

        ds, stats = small_data
        real = trainer_mod.solver_mod.newton_cg
        failed_label_positives = stats.positives[0]

        def flaky(problem, w0, cfg, g0, **kw):
            signs_pos = np.flatnonzero(problem.signs > 0)
            if np.array_equal(signs_pos, failed_label_positives):
                raise NumericalError("injected blow-up", w_last=w0, trace=SolverTrace())
            return real(problem, w0, cfg, g0, **kw)

        monkeypatch.setattr(trainer_mod.solver_mod, "newton_cg", flaky)
        model, report = train_ova(ds, stats, TrainConfig())
        by_label = {r.label: r for r in report.labels}
        assert by_label[0].termination == TERM_NUMERICAL
        assert all(
            by_label[j].termination != TERM_NUMERICAL for j in range(1, ds.n_labels)
        )
        assert report.n_failed == 1
        assert model.weights.row(1).indices.size > 0  # the rest trained normally

    def test_thread_determinism(self, small_data, tmp_path):
        ds, stats = small_data
        m1, _ = train_ova(ds, stats, TrainConfig(threads=1))
        m4, _ = train_ova(ds, stats, TrainConfig(threads=4))
        p1, p4 = tmp_path / "t1.model", tmp_path / "t4.model"
        save_model(m1, p1)
        save_model(m4, p4)
        assert p1.read_bytes() == p4.read_bytes()

    def test_report_consistency(self, small_data):
        ds, stats = small_data
        cfg = TrainConfig(collect_traces=True)
        _, report = train_ova(ds, stats, cfg)
        for row in report.labels:
            trace = report.traces[row.label]
            assert row.hvp_touches == sum(
                r.cg_iters * r.active_count for r in trace.rows
            )
        assert report.total_hvp_touches == sum(r.hvp_touches for r in report.labels)
        assert report.total_wall_ms >= max(r.wall_ms for r in report.labels) * 0.0
        assert sum(r.wall_ms for r in report.labels) >= max(r.wall_ms for r in report.labels)

    def test_iteration_aggregates(self, small_data):
        ds, stats = small_data
        _, report = train_ova(ds, stats, TrainConfig(init=InitStrategy("zero")))
        assert report.iter_active_fraction_mean[0] == 1.0
        assert report.iter_count[0] == len(report.labels)

    def test_config_digest_sensitivity(self):
        a = TrainConfig()
        b = TrainConfig(clip_threshold=0.5)
        assert a.digest() == TrainConfig().digest()
        assert a.digest() != b.digest()

    def test_stats_mismatch_rejected(self, small_data):
        ds, stats = small_data
        other = compute_label_stats(augment_bias(generate_synthetic(60, 20, 8, 1.2, 1)))
        with pytest.raises(ConfigError):
            train_ova(ds, other, TrainConfig())


def scores(model, rows):
    """Dense ``X @ W.T`` of the instances given as ``{index: value}`` dicts."""
    blocks = [block for _, block in score_blocks(model, make_matrix(rows, model.dim))]
    return np.vstack(blocks)


class TestPredict:
    def test_zero_weights_zero_scores(self):
        model = simple_model([{}, {}], dim=3)
        np.testing.assert_array_equal(scores(model, [{0: 1.0}]), [[0.0, 0.0]])

    def test_bias_only_model(self):
        model = simple_model([{2: -2.0}], dim=3, bias_index=2)
        assert scores(model, [{2: 1.0}])[0, 0] == -2.0

    def test_explicit_zero_entries_ignored(self):
        model = simple_model([{0: 1.0, 1: 2.0}], dim=3)
        a = scores(model, [{0: 1.0}])
        b = scores(model, [{0: 1.0, 2: 0.0}])
        np.testing.assert_array_equal(a, b)

    def test_dimension_check(self):
        model = simple_model([{0: 1.0}], dim=2)
        X = make_matrix([{5: 1.0}], 6)
        with pytest.raises(DimensionMismatchError):
            score_blocks(model, X)
        with pytest.raises(DimensionMismatchError):
            predict_topk(model, X, 1)

    def test_blocks_cover_every_row(self, rng):
        model = simple_model([{0: 1.0}, {1: -1.0, 2: 0.5}], dim=3)
        dense = rng.normal(0, 1, (1100, 3))
        X = make_matrix([dict(enumerate(row)) for row in dense], 3)
        offsets = [lo for lo, _ in score_blocks(model, X)]
        assert offsets == [0, 512, 1024]
        np.testing.assert_allclose(
            scores(model, [dict(enumerate(row)) for row in dense]),
            np.stack([dense[:, 0], 0.5 * dense[:, 2] - dense[:, 1]], axis=1),
            rtol=1e-15,
        )

    def test_topk_example(self):
        model = simple_model([{0: 0.1}, {0: 0.9}, {0: 0.5}], dim=1)
        out = predict_topk(model, make_matrix([{0: 1.0}], 1), 2)
        assert out == [[(1, pytest.approx(0.9)), (2, pytest.approx(0.5))]]

    def test_topk_tie_break_ascending_label(self):
        model = simple_model([{0: 1.0}, {0: 1.0}, {0: 1.0}], dim=1)
        [out] = predict_topk(model, make_matrix([{0: 1.0}], 1), 2)
        assert [j for j, _ in out] == [0, 1]

    def test_topk_full_sort(self):
        model = simple_model([{0: 0.1}, {0: 0.9}, {0: 0.5}], dim=1)
        [out] = predict_topk(model, make_matrix([{0: 1.0}], 1), 3)
        assert [j for j, _ in out] == [1, 2, 0]

    def test_topk_range_check(self):
        model = simple_model([{}], dim=1)
        X = make_matrix([{}], 1)
        with pytest.raises(ConfigError):
            predict_topk(model, X, 2)
        with pytest.raises(ConfigError):
            predict_topk(model, X, 0)

    def test_topk_partial_equals_full_sort(self, rng):
        # row i of X scores label j at trials[i, j]
        trials = np.round(rng.normal(0, 1, (50, 40)), 1)  # coarse grid forces ties
        model = simple_model([dict(enumerate(col)) for col in trials.T], dim=50)
        X = make_matrix([{i: 1.0} for i in range(50)], 50)
        for k in (1, 7, 39, 40):
            for scores, got in zip(trials, predict_topk(model, X, k)):
                want = sorted(range(40), key=lambda j: (-scores[j], j))[:k]
                assert [j for j, _ in got] == want
                assert [s for _, s in got] == [scores[j] for j in want]

    def test_clipping_score_drift_bound(self, rng):
        # with |x_j| <= 1 the clipped scores drift by at most threshold * nnz(x)
        dim, thr = 30, 0.05
        dense = rng.normal(0, 0.2, dim)
        full = simple_model([dict(enumerate(dense))], dim=dim)
        keep = np.abs(dense) >= thr
        clipped = simple_model([{i: v for i, v in enumerate(dense) if keep[i]}], dim=dim)
        rows, nnzs = [], []
        for _ in range(20):
            nnz = int(rng.integers(1, dim))
            idx = rng.choice(dim, nnz, replace=False)
            rows.append(dict(zip(idx.tolist(), rng.uniform(-1, 1, nnz))))
            nnzs.append(nnz)
        drift = np.abs(scores(full, rows)[:, 0] - scores(clipped, rows)[:, 0])
        assert np.all(drift <= thr * np.array(nnzs) + 1e-12)


class TestModelRoundTrip:
    def test_save_load_exact(self, small_data, tmp_path):
        ds, stats = small_data
        model, _ = train_ova(ds, stats, TrainConfig())
        path = tmp_path / "m.model"
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.n_labels == model.n_labels
        assert loaded.dim == model.dim
        assert loaded.bias_index == model.bias_index
        assert loaded.meta.loss == model.meta.loss
        assert loaded.meta.init == model.meta.init
        # float-exact via 17 significant digits
        for j in range(model.n_labels):
            a, b = model.weights.row(j), loaded.weights.row(j)
            assert a.indices.tolist() == b.indices.tolist()
            assert a.values.tolist() == b.values.tolist()

    def test_empty_weight_line(self, tmp_path):
        model = simple_model([{}, {1: 0.5}], dim=2)
        path = tmp_path / "m.model"
        save_model(model, path)
        assert "0 0\n" in path.read_text()
        assert load_model(path).weights.row(0).indices.size == 0

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_text("xova v2 1 2 -1 squared-hinge zero\n0 0\n")
        with pytest.raises(ModelFormatError, match="version"):
            load_model(path)

    @pytest.mark.parametrize("bias", [999, 3, -2])
    def test_impossible_bias_index(self, tmp_path, bias):
        path = tmp_path / "m.model"
        path.write_text(f"xova v1 1 5 {bias} squared-hinge zero\n0 0\n")
        with pytest.raises(ModelFormatError, match=f"bias index {bias}") as e:
            load_model(path)
        assert e.value.line == 1

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_text("nope v1 1 2 -1 squared-hinge zero\n0 0\n")
        with pytest.raises(ModelFormatError, match="magic"):
            load_model(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_text("xova v1 2 2 -1 squared-hinge zero\n0 0\n")
        with pytest.raises(ModelFormatError, match="truncated") as e:
            load_model(path)
        assert e.value.line == 3

    def test_nnz_mismatch(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_text("xova v1 1 2 -1 squared-hinge zero\n0 2 0:1.0\n")
        with pytest.raises(ModelFormatError, match="declares 2"):
            load_model(path)

    def test_label_order_enforced(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_text("xova v1 2 2 -1 squared-hinge zero\n1 0\n0 0\n")
        with pytest.raises(ModelFormatError, match="expected label 0"):
            load_model(path)

    def test_malformed_pair(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_text("xova v1 1 2 -1 squared-hinge zero\n0 1 broken\n")
        with pytest.raises(ModelFormatError, match="weight token"):
            load_model(path)

    def test_bias_none_round_trips(self, tmp_path):
        model = simple_model([{0: 1.0}], dim=2, bias_index=None)
        path = tmp_path / "m.model"
        save_model(model, path)
        assert load_model(path).bias_index is None

    @pytest.mark.parametrize(
        "entries, match",
        [
            ("0:nan", "non-finite weight nan for feature 0"),
            ("1:inf", "non-finite weight inf for feature 1"),
            ("1:-inf", "non-finite weight -inf for feature 1"),
            ("0:1e309", "non-finite weight inf for feature 0"),
            ("2:1.0", "index 2 out of range for 2 columns"),
            ("-1:1.0", "index -1 out of range"),
            ("0:1.0 0:2.0", "index 0 repeated or out of order"),
            ("1:1.0 0:2.0", "index 0 repeated or out of order"),
            ("0:1_5", "invalid character"),
            ("1_0:1.0", "invalid character"),
            ("1:\u0661", "invalid character"),
        ],
    )
    def test_bad_weight_entry(self, tmp_path, entries, match):
        path = tmp_path / "m.model"
        n = len(entries.split())
        path.write_text(f"xova v1 3 2 -1 squared-hinge zero\n0 1 0:0.5\n1 {n} {entries}\n2 0\n")
        with pytest.raises(ModelFormatError, match=match) as e:
            load_model(path)
        assert e.value.line == 3

    def test_dimension_beyond_int64(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_text("xova v1 1 99999999999999999999 -1 squared-hinge zero\n0 0\n")
        with pytest.raises(ModelFormatError, match="dimension must lie in") as e:
            load_model(path)
        assert e.value.line == 1

    def test_huge_label_count_is_truncated_not_allocated(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_text("xova v1 1000000000000000 2 -1 squared-hinge zero\n0 0\n")
        with pytest.raises(ModelFormatError, match="expected 1000000000000000 label lines, got 1") as e:
            load_model(path)
        assert e.value.line == 3
