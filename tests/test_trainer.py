import csv
import hashlib
import json
import threading
from concurrent.futures import Future
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xova.dataio import (
    Dataset, LabelStats, augment_bias, compute_label_stats, generate_synthetic,
    load_xmc_dataset, split_dataset
)
from xova.errors import ConfigError, DimensionMismatchError, ModelFormatError
import xova.solver as solver_mod
from xova.initializers import INIT_KINDS, InitStrategy
from xova.losses import MarginLoss
from xova.solver import (
    BinaryProblem,
    SolverConfig,
    SolverTrace,
    TERM_LINE_SEARCH,
    TERM_NUMERICAL,
    gradient,
    newton_cg,
)
from xova.sparse import SparseMatrix
import xova.trainer as trainer_mod
from xova.trainer import (
    OvaModel,
    TrainConfig,
    block_topk,
    grad0_closed_form,
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
    return OvaModel(make_matrix(weight_dicts, dim), bias_index, loss, init)


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
        row = report.labels[j]
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

    def test_numerical_failure_recorded_not_fatal(self, small_data, monkeypatch, tmp_path):
        import xova.trainer as trainer_mod

        ds, stats = small_data
        real, calls = trainer_mod.solver_mod.cg_solve, []
        message = 'injected blow-up, "quoted"'

        def label_0_fails(*args):
            result = real(*args)
            if not calls:  # the first block's first step: row 0 is label 0
                result.errors[0] = message
            calls.append(1)
            return result

        monkeypatch.setattr(trainer_mod.solver_mod, "cg_solve", label_0_fails)
        model, report = train_ova(ds, stats, TrainConfig())
        by_label = dict(enumerate(report.labels))
        assert by_label[0].termination == TERM_NUMERICAL
        assert all(
            by_label[j].termination != TERM_NUMERICAL for j in range(1, ds.n_labels)
        )
        assert report.n_failed == 1
        assert model.weights.row(1).indices.size > 0  # the rest trained normally
        # the reason reaches the report JSON and, quoted, the labels CSV
        assert [r.failure for r in report.labels] == [message] + [None] * (ds.n_labels - 1)
        labels = report.to_json_dict()["labels"]
        assert [row["failure"] for row in labels] == [r.failure for r in report.labels]
        report.write_labels_csv(tmp_path / "labels.csv")
        with open(tmp_path / "labels.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [row["failure"] for row in rows] == [message] + [""] * (ds.n_labels - 1)
        assert [row["cpu_ms"] for row in rows] == [f"{r.cpu_ms:.3f}" for r in report.labels]

    def test_cg_failure_keeps_accepted_steps(self, monkeypatch):
        import xova.trainer as trainer_mod

        ds = augment_bias(generate_synthetic(200, 20, 3, 1.2, 21))
        real, calls = trainer_mod.solver_mod.cg_solve, []

        def second_call_fails(*args):
            result = real(*args)
            calls.append(1)
            if len(calls) == 2:  # the block's second outer iteration; row 0 is label 0
                result.errors[0] = "injected CG failure"
            return result

        monkeypatch.setattr(trainer_mod.solver_mod, "cg_solve", second_call_fails)
        _, report = train_ova(ds, compute_label_stats(ds), TrainConfig(init=InitStrategy("zero")))
        first = report.labels[0]
        assert first.termination == TERM_NUMERICAL
        assert first.outer_iters == 1
        assert np.isfinite(first.final_loss)

    def test_thread_determinism(self, small_data, tmp_path, monkeypatch):
        # blocks of 2 labels: 8 labels make four blocks for four workers on any host
        monkeypatch.setattr(trainer_mod, "_BLOCK_LABELS", 2)
        monkeypatch.setattr(trainer_mod.os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                            raising=False)
        ds, stats = small_data
        m1, _ = train_ova(ds, stats, TrainConfig(threads=1))
        m4, _ = train_ova(ds, stats, TrainConfig(threads=4))
        p1, p4 = tmp_path / "t1.model", tmp_path / "t4.model"
        save_model(m1, p1)
        save_model(m4, p4)
        assert p1.read_bytes() == p4.read_bytes()

    @pytest.fixture
    def recorded(self, monkeypatch):
        """A stand-in pool that runs each submit at once on a thread of its
        own, and records the pool's size, the submits, and the thread that
        solved each block."""
        record = {"sizes": [], "submits": 0, "solvers": []}

        class RecordingPool:
            def __init__(self, max_workers):
                record["sizes"].append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn):
                record["submits"] += 1
                future = Future()

                def run():
                    try:
                        future.set_result(fn())
                    except Exception as err:
                        future.set_exception(err)

                thread = threading.Thread(target=run)
                thread.start()
                thread.join(timeout=60)
                assert not thread.is_alive()
                return future

        real = solver_mod.newton_cg_block

        def solving(*args):
            record["solvers"].append(threading.get_ident())
            return real(*args)

        monkeypatch.setattr(trainer_mod, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(solver_mod, "newton_cg_block", solving)
        monkeypatch.setattr(trainer_mod, "_BLOCK_LABELS", 3)  # 8 labels: three blocks
        return record

    def test_one_worker_starts_no_thread(self, small_data, recorded):
        ds, stats = small_data
        train_ova(ds, stats, TrainConfig(threads=1))
        assert recorded["submits"] == 0
        assert recorded["solvers"] == [threading.get_ident()] * 3

    @pytest.mark.parametrize("cpus, helpers", [(3, 2), (None, 0)])
    def test_the_helpers_are_clamped_to_the_cpu_count(self, small_data, recorded, monkeypatch,
                                                      cpus, helpers):
        if cpus is None:  # no affinity mask on the platform, and no CPU count
            monkeypatch.delattr(trainer_mod.os, "sched_getaffinity", raising=False)
        else:  # the CPUs the process may run on, not the host's, bound the workers
            monkeypatch.setattr(trainer_mod.os, "sched_getaffinity",
                                lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(trainer_mod.os, "cpu_count", lambda: None if cpus is None else 2 * cpus)
        ds, stats = small_data
        cfg = TrainConfig(threads=10**6)
        _, report = train_ova(ds, stats, cfg)
        assert recorded["sizes"] == [helpers + 1]
        assert recorded["submits"] == helpers
        assert len(recorded["solvers"]) == 3
        written = report.to_json_dict()
        assert written["threads"] == 10**6
        assert written["config_digest"] == replace(cfg, threads=1).digest()

    def test_without_an_affinity_mask_the_host_count_clamps(self, small_data, recorded,
                                                             monkeypatch):
        monkeypatch.delattr(trainer_mod.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(trainer_mod.os, "cpu_count", lambda: 2)
        ds, stats = small_data
        train_ova(ds, stats, TrainConfig(threads=10**6))
        assert recorded["sizes"] == [2]
        assert recorded["submits"] == 1

    def test_an_error_in_a_helper_propagates(self, small_data, recorded, monkeypatch):
        monkeypatch.setattr(trainer_mod.os, "sched_getaffinity", lambda pid: {0, 1},
                            raising=False)
        caller, solving = threading.get_ident(), solver_mod.newton_cg_block

        def fails_off_the_caller(*args):
            if threading.get_ident() != caller:
                raise RuntimeError("injected in a helper")
            return solving(*args)

        monkeypatch.setattr(solver_mod, "newton_cg_block", fails_off_the_caller)
        ds, stats = small_data
        with pytest.raises(RuntimeError, match="injected in a helper"):
            train_ova(ds, stats, TrainConfig(threads=2))
        assert recorded["submits"] == 1

    # each init under both losses; a squared-hinge case is named by its init alone
    @pytest.mark.parametrize("kind, loss", [
        pytest.param(kind, loss, id=kind if loss is MarginLoss.SQUARED_HINGE
                     else f"{kind}-{loss.token}")
        for loss in MarginLoss for kind in INIT_KINDS
    ])
    def test_thread_count_changes_no_bit(self, small_data, kind, loss, monkeypatch):
        # blocks of 3 labels: 8 labels make three blocks for three workers on any host
        monkeypatch.setattr(trainer_mod, "_BLOCK_LABELS", 3)
        monkeypatch.setattr(trainer_mod.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        ds, stats = small_data
        untimed = {"wall_ms": 0.0, "cpu_ms": 0.0}
        runs = []
        for threads in (1, 3):
            cfg = TrainConfig(loss=loss, init=InitStrategy(kind), threads=threads)
            model, report = train_ova(ds, stats, cfg)
            W = model.weights
            runs.append((
                W.indptr.tobytes(), W.indices.tobytes(), W.data.tobytes(),
                [replace(t, **untimed) for t in report.labels],
            ))
        assert runs[0] == runs[1]

    def test_report_consistency(self, small_data):
        ds, stats = small_data
        _, report = train_ova(ds, stats, TrainConfig())
        assert len(report.labels) == ds.n_labels
        for trace in report.labels:
            assert len(trace.rows) == trace.outer_iters
            assert trace.hvp_touches == sum(
                r.cg_iters * r.active_count for r in trace.rows
            )
        assert report.total_hvp_touches == sum(r.hvp_touches for r in report.labels)
        assert sum(r.wall_ms for r in report.labels) >= max(r.wall_ms for r in report.labels)

    @pytest.mark.parametrize("kind", INIT_KINDS)
    def test_label_times_add_up_within_the_run(self, small_data, kind):
        ds, stats = small_data
        _, report = train_ova(ds, stats, TrainConfig(init=InitStrategy(kind), threads=1))
        assert all(t.wall_ms >= 0 and t.cpu_ms >= 0 for t in report.labels)
        if kind == "ovap":
            assert isinstance(report.init, SolverTrace)
        else:
            assert report.init is None
        # the labels' times are shares of their blocks' times, so with the
        # shared solve's they fit in the run
        shared_ms = report.init.wall_ms if report.init else 0.0
        assert sum(t.wall_ms for t in report.labels) + shared_ms <= report.total_wall_ms

    def test_cpu_time_per_label(self, small_data):
        ds, stats = small_data
        _, report = train_ova(ds, stats, TrainConfig(threads=1))
        # one worker thread: its CPU time fits inside the wall time, give or
        # take the two clocks' reads
        assert all(0 <= r.cpu_ms <= r.wall_ms + 1 for r in report.labels)

    def test_time_is_split_among_the_labels_in_a_step(self):
        # one block: label 0 has no positives and starts optimal from the bias
        # vector, the others take steps; each step's time is shared by the
        # labels still in it, so label 0 pays for the start and one step only
        base = augment_bias(generate_synthetic(300, 25, 6, 1.2, 11))
        ds = Dataset(base.features, [lbls + 1 for lbls in base.labels], 7, base.bias_index)
        stats = compute_label_stats(ds)
        _, report = train_ova(ds, stats, TrainConfig(init=InitStrategy("bias")))
        first, *rest = report.labels
        assert first.outer_iters == 0
        busy = [r for r in rest if r.outer_iters >= 3]
        assert busy
        assert all(first.wall_ms < r.wall_ms and first.cpu_ms < r.cpu_ms for r in busy)
        # shares, not copies: together they fit in the run
        assert sum(r.wall_ms for r in report.labels) <= report.total_wall_ms

    @pytest.mark.parametrize("init", INIT_KINDS)
    def test_block_size_changes_no_bit(self, init, monkeypatch):
        import xova.trainer as trainer_mod

        # 20 labels: the last block of 3 and of 16 is partial
        ds = augment_bias(generate_synthetic(300, 25, 20, 1.2, 11))
        stats = compute_label_stats(ds)
        for loss in MarginLoss:
            runs = []
            for size in (1, 3, 16):
                monkeypatch.setattr(trainer_mod, "_BLOCK_LABELS", size)
                cfg = TrainConfig(loss=loss, init=InitStrategy(init))
                model, report = train_ova(ds, stats, cfg)
                W = model.weights
                runs.append((
                    W.indptr.tobytes(), W.indices.tobytes(), W.data.tobytes(),
                    [(r.outer_iters, r.hvp_touches, r.termination) for r in report.labels],
                ))
            assert runs[0] == runs[1] == runs[2]

    def test_failing_label_leaves_its_block(self, monkeypatch):
        import xova.trainer as trainer_mod

        ds = augment_bias(generate_synthetic(300, 25, 6, 1.2, 11))
        stats = compute_label_stats(ds)
        cfg = TrainConfig(init=InitStrategy("zero"), clip_threshold=0.0)
        clean, clean_report = train_ova(ds, stats, cfg)
        assert clean_report.labels[2].outer_iters >= 2
        with monkeypatch.context() as capped:
            capped.setattr(SolverConfig, "max_outer", 1)
            one_step, _ = train_ova(ds, stats, cfg)
        real, calls = trainer_mod.solver_mod.cg_solve, []

        def label_2_fails_in_its_second_step(*args):
            result = real(*args)
            calls.append(1)
            if len(calls) == 2:  # every label is still in the block; row 2 is label 2
                result.errors[2] = "injected CG failure"
            return result

        monkeypatch.setattr(trainer_mod.solver_mod, "cg_solve", label_2_fails_in_its_second_step)
        model, report = train_ova(ds, stats, cfg)
        failed = report.labels[2]
        assert (failed.termination, failed.outer_iters) == (TERM_NUMERICAL, 1)
        # it keeps its one accepted step, and its block-mates' bits do not move
        assert model.weights.row(2) == one_step.weights.row(2)
        for j in set(range(ds.n_labels)) - {2}:
            assert model.weights.row(j) == clean.weights.row(j)
            times = {"wall_ms": report.labels[j].wall_ms, "cpu_ms": report.labels[j].cpu_ms}
            assert report.labels[j] == replace(clean_report.labels[j], **times)

    def test_label_whose_line_search_fails_leaves_its_block(self, monkeypatch):
        import xova.trainer as trainer_mod

        ds = augment_bias(generate_synthetic(300, 25, 6, 1.2, 11))
        stats = compute_label_stats(ds)
        cfg = TrainConfig(init=InitStrategy("zero"))
        clean, clean_report = train_ova(ds, stats, cfg)
        real, calls = trainer_mod.solver_mod.backtracking_search, []

        def first_search_fails(*args):
            calls.append(1)
            if len(calls) == 1:  # label 0's first step
                return 0.0, False
            return real(*args)

        monkeypatch.setattr(trainer_mod.solver_mod, "backtracking_search", first_search_fails)
        model, report = train_ova(ds, stats, cfg)
        assert (report.labels[0].termination, report.labels[0].outer_iters) == (
            TERM_LINE_SEARCH, 0
        )
        for j in range(1, ds.n_labels):
            assert model.weights.row(j) == clean.weights.row(j)
            assert report.labels[j].outer_iters == clean_report.labels[j].outer_iters

    def test_iteration_aggregates(self, small_data):
        ds, stats = small_data
        _, report = train_ova(ds, stats, TrainConfig(init=InitStrategy("zero")))
        assert report.iterations["active_fraction_mean"][0] == 1.0
        assert report.iterations["count"][0] == len(report.labels)

    @pytest.mark.parametrize("kind", INIT_KINDS)
    def test_iteration_means_add_in_label_order(self, small_data, kind):
        ds, stats = small_data
        _, report = train_ova(ds, stats, TrainConfig(init=InitStrategy(kind)))
        depth = max(len(t.rows) for t in report.labels)
        frac, step, count = [0.0] * depth, [0.0] * depth, [0] * depth
        for j in range(ds.n_labels):
            for i, row in enumerate(report.labels[j].rows):
                frac[i] += row.active_fraction
                step[i] += row.step_size
                count[i] += 1
        iterations = report.iterations
        assert iterations["count"] == count
        assert iterations["active_fraction_mean"] == [f / c for f, c in zip(frac, count)]
        assert iterations["step_size_mean"] == [s / c for s, c in zip(step, count)]

    @pytest.mark.parametrize("kind", INIT_KINDS)
    def test_no_labels(self, small_data, kind):
        ds, _ = small_data
        empty = Dataset(ds.features, [np.zeros(0, dtype=np.int64)] * ds.n, 0, ds.bias_index)
        cfg = TrainConfig(init=InitStrategy(kind))
        model, report = train_ova(empty, compute_label_stats(empty), cfg)
        assert (model.n_labels, model.dim) == (0, ds.dim)
        iterations = report.iterations
        assert report.labels == [] and iterations["count"] == []
        assert iterations["active_fraction_mean"] == iterations["step_size_mean"] == []

    @pytest.mark.parametrize(
        "kind, json_digest, csv_digest",
        [
            ("ovap", "cdabb7be5fb31303", "54ce41a1a6aa33ea"),
            ("aop", "59102e553a6cd7c7", "8f38972b2529a7a0"),
        ],
        ids=["ovap", "aop"],
    )
    def test_report_values_are_pinned(self, kind, json_digest, csv_digest, tmp_path):
        # the report JSON and labels CSV, their timing values dropped, as
        # written before the report was rebuilt on the labels' traces
        ds = augment_bias(generate_synthetic(300, 25, 40, 1.2, 11))
        _, report = train_ova(ds, compute_label_stats(ds), TrainConfig(init=InitStrategy(kind)))
        report.write_json(tmp_path / "report.json")
        report.write_labels_csv(tmp_path / "labels.csv")
        doc = json.loads((tmp_path / "report.json").read_text())
        for label in doc["labels"]:
            del label["wall_ms"], label["cpu_ms"]
        del doc["totals"]["wall_ms"], doc["totals"]["init_wall_ms"], doc["phases"]
        with open(tmp_path / "labels.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        timed = {rows[0].index("wall_ms"), rows[0].index("cpu_ms")}
        table = "\n".join(",".join(v for i, v in enumerate(r) if i not in timed) for r in rows)
        digests = [hashlib.sha256(t.encode()).hexdigest()[:16] for t in (json.dumps(doc), table)]
        assert digests == [json_digest, csv_digest]

    @pytest.mark.parametrize("extra", [(), ("final_grad_norm", "grad0_ref")],
                             ids=["row", "row_extended"])
    @pytest.mark.parametrize("data", ["synth", "failing"])
    @pytest.mark.parametrize("kind", INIT_KINDS)
    def test_the_labels_csv_is_the_json_row(self, small_data, tmp_path, monkeypatch, kind, data,
                                            extra):
        # One tuple defines a label's row: a name added to it reaches both
        # formats, and a value that is not finite is null in the JSON only.
        monkeypatch.setattr(trainer_mod, "LABEL_FIELDS", trainer_mod.LABEL_FIELDS + extra)
        ds, stats = small_data
        if data == "failing":  # the 3-row file whose one label fails under every init
            path = tmp_path / "huge.txt"
            path.write_text("3 2 1\n0 0:1e308 1:1.0\n 0:1e308 1:2.0\n 1:1.0\n")
            ds = augment_bias(load_xmc_dataset(path))
            stats = compute_label_stats(ds)
        _, report = train_ova(ds, stats, TrainConfig(init=InitStrategy(kind)))
        assert (report.n_failed == 1) == (data == "failing")
        report.write_json(tmp_path / "report.json")
        report.write_labels_csv(tmp_path / "labels.csv")
        labels = json.loads((tmp_path / "report.json").read_text())["labels"]
        with open(tmp_path / "labels.csv", newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
        keys = ["label", "positives", *trainer_mod.LABEL_FIELDS]
        assert reader.fieldnames == keys
        assert [list(obj) for obj in labels] == [keys] * ds.n_labels
        assert len(rows) == ds.n_labels
        for obj, row, trace in zip(labels, rows, report.labels):
            for key in keys:
                value = getattr(trace, key, obj[key])  # label and positives are not on the trace
                fmt = trainer_mod._CSV_FORMATS.get(key, "{}")
                if value is None:
                    assert (obj[key], row[key]) == (None, "")
                elif isinstance(value, float) and not np.isfinite(value):
                    assert obj[key] is None and row[key] == fmt.format(value)
                    assert row[key] in ("nan", "inf", "-inf")
                else:
                    assert row[key] == fmt.format(obj[key])

    @pytest.mark.parametrize(
        "loss, c, kind, model_digest",
        [
            (MarginLoss.SQUARED_HINGE, 1.0, "zero", "41bbb7979e26093b"),
            (MarginLoss.SQUARED_HINGE, 1.0, "bias", "d84e9ecc72f854e7"),
            (MarginLoss.SQUARED_HINGE, 1.0, "ovap", "f88940f390386248"),
            (MarginLoss.SQUARED_HINGE, 1.0, "aop", "908235dab9f45b29"),
            (MarginLoss.LOGISTIC, 1.0, "zero", "b9579e8df12e0e8e"),
            (MarginLoss.LOGISTIC, 1.0, "bias", "a54b478a8d913acc"),
            (MarginLoss.LOGISTIC, 1.0, "ovap", "62717f503d7a3ca1"),
            (MarginLoss.LOGISTIC, 1.0, "aop", "eace9fabf595ca01"),
            # a C other than 1 tells a loss/C mix-up in the solver's calls apart
            (MarginLoss.SQUARED_HINGE, 0.5, "ovap", "84ae130cf469d897"),
            (MarginLoss.SQUARED_HINGE, 0.5, "aop", "88b9f7b128b5f10c"),
        ],
    )
    def test_model_bytes_are_pinned(self, loss, c, kind, model_digest, tmp_path):
        ds = augment_bias(generate_synthetic(300, 25, 40, 1.2, 11))
        cfg = TrainConfig(loss=loss, init=InitStrategy(kind), c=c)
        model, _ = train_ova(ds, compute_label_stats(ds), cfg)
        save_model(model, tmp_path / "model.bin")
        digest = hashlib.sha256((tmp_path / "model.bin").read_bytes()).hexdigest()[:16]
        assert digest == model_digest

    @pytest.mark.parametrize("threads", [1, 2])
    def test_tail_bench_model_bytes_are_pinned(self, threads, tmp_path):
        # the seed-5 `tail` bench workload's train file, built in memory as
        # perfbench/workloads.py writes it, and trained as a bench round does
        train, _ = split_dataset(generate_synthetic(10000, 2000, 200, 1.2, 5), 0.2, 5)
        ds = augment_bias(train)
        stats = compute_label_stats(ds)
        digests = {}
        for kind in INIT_KINDS:
            model, _ = train_ova(ds, stats, TrainConfig(init=InitStrategy(kind), threads=threads))
            save_model(model, tmp_path / "model.bin")
            digests[kind] = hashlib.sha256((tmp_path / "model.bin").read_bytes()).hexdigest()[:12]
        assert digests == {
            "zero": "bb80acb1801b", "bias": "9ea0e813fd00", "ovap": "15f6dd0c670d",
            "aop": "839dcfa45be7",
        }

    def test_the_model_passes_the_checked_constructor(self, small_data):
        # SparseMatrix.stack builds W from np.flatnonzero's int64 indices
        ds, stats = small_data
        W = train_ova(ds, stats, TrainConfig())[0].weights
        checked = SparseMatrix(W.indptr, W.indices, W.data, ds.dim)
        assert checked == W and (W.n_rows, W.n_cols) == (ds.n_labels, ds.dim)
        assert W.indices.dtype == checked.indices.dtype == np.int32

    @pytest.mark.parametrize("kind", INIT_KINDS)
    def test_labels_are_solved_without_a_checked_problem_each(self, kind, monkeypatch):
        # train_ova builds each label's signs itself, as +-1, and hands them
        # to the block solver unchecked; ovap's shared solve checks its one
        # all-negative problem for its stopping reference
        checked = []
        real = BinaryProblem.__post_init__

        def counting(problem):
            checked.append(problem)
            real(problem)

        ds = augment_bias(generate_synthetic(300, 25, 40, 1.2, 11))
        stats = compute_label_stats(ds)
        monkeypatch.setattr(BinaryProblem, "__post_init__", counting)
        train_ova(ds, stats, TrainConfig(init=InitStrategy(kind)))
        assert len(checked) == (1 if kind == "ovap" else 0)

    @pytest.mark.parametrize(
        "bad",
        [
            {"threads": 0},
            {"threads": 2.5},
            {"threads": True},
            {"c": True},
            {"c": 0.0},
            {"clip_threshold": True},
            {"clip_threshold": -1.0},
            {"clip_threshold": np.float32(0.01)},
            {"c": None},
            {"c": "1"},
            {"c": np.float32(0.3)},
            {"c": 10**400},
            {"loss": "squared-hinge"},
            {"loss": "logistic", "init": InitStrategy("aop")},
            {"init": "zero"},
            {"solver": None},
        ],
    )
    def test_config_validation(self, bad):
        with pytest.raises(ConfigError):
            TrainConfig(**bad)

    def test_empty_dataset_rejected(self, small_data):
        ds, stats = small_data
        empty = Dataset(ds.features.submatrix(np.zeros(0, dtype=np.int64)), [], ds.n_labels)
        # statistics that agree with an empty dataset, built by hand since
        # compute_label_stats rejects one: without the check, they would train
        no_rows = np.zeros(0, dtype=np.int64)
        agreeing = (
            Dataset(make_matrix([], 3), [], 2),
            LabelStats([no_rows] * 2, make_matrix([{}, {}], 3), np.zeros(3), 0),
        )
        for data, data_stats in ((empty, stats), agreeing):
            with pytest.raises(ConfigError, match="empty dataset"):
                train_ova(data, data_stats, TrainConfig())

    def test_no_labels_mean_no_outer_iterations(self):
        report = trainer_mod.TrainReport(TrainConfig(), {}, [], [], 0.0)
        assert report.mean_outer_iters() == 0.0

    def test_config_digest_sensitivity(self):
        a = TrainConfig()
        b = TrainConfig(clip_threshold=0.5)
        assert a.digest() == TrainConfig().digest()
        assert a.digest() != b.digest()

    def test_default_digests_are_pinned(self):
        # a model's config_digest names its settings across versions; a new
        # or removed setting changes every digest
        assert TrainConfig().digest() == "0f8ebec13fd9"
        assert TrainConfig(init=InitStrategy("aop")).digest() == "e34917460db6"

    @pytest.mark.parametrize(
        "whole, real",
        [
            ({"c": 1}, {"c": 1.0}),
            ({"clip_threshold": 0}, {"clip_threshold": 0.0}),
            ({"solver": SolverConfig(eps_outer=1)}, {"solver": SolverConfig(eps_outer=1.0)}),
            ({"solver": SolverConfig(eps_cg=2)}, {"solver": SolverConfig(eps_cg=2.0)}),
            ({"init": InitStrategy("bias", bias_scale=2)},
             {"init": InitStrategy("bias", bias_scale=2.0)}),
            ({"init": InitStrategy("aop", aop_s=2, aop_t=-3)},
             {"init": InitStrategy("aop", aop_s=2.0, aop_t=-3.0)}),
        ],
        ids=["c", "clip_threshold", "eps_outer", "eps_cg", "bias_scale", "aop_s_t"],
    )
    def test_an_int_setting_is_written_as_its_float(self, whole, real):
        # one model, one digest: 1 and 1.0 are the same setting
        a, b = TrainConfig(**whole), TrainConfig(**real)
        assert json.dumps(a.settings()) == json.dumps(b.settings())
        assert a.digest() == b.digest()

    @pytest.mark.parametrize(
        "change",
        [
            {"loss": MarginLoss.LOGISTIC},
            {"init": InitStrategy("bias")},
            {"init": InitStrategy("bias", bias_scale=2.0)},
            {"init": InitStrategy("ovap", ovap_stop_rel=0.1)},
            {"init": InitStrategy("aop", aop_s=2.0)},
            {"init": InitStrategy("aop", aop_t=-3.0)},
            {"solver": SolverConfig(eps_outer=0.02)},
            {"solver": SolverConfig(eps_cg=0.1)},
            {"solver": SolverConfig(max_cg=9)},
            {"c": 2.0},
            {"clip_threshold": 0.0},
        ],
    )
    def test_digest_covers_every_setting_but_threads(self, change):
        base = TrainConfig()
        assert replace(base, **change).digest() != base.digest()
        assert replace(base, **change, threads=4).digest() == replace(base, **change).digest()

    def test_settings_are_the_report_keys(self, small_data):
        ds, stats = small_data
        cfg = TrainConfig(init=InitStrategy("aop"), threads=2)
        report = train_ova(ds, stats, cfg)[1].to_json_dict()
        settings = cfg.settings()
        keys = list(report)
        assert list(settings) == keys[keys.index("loss") : keys.index("threads") + 1]
        assert all(report[k] == v for k, v in settings.items())
        assert list(settings["solver"]) == ["eps_outer", "eps_cg", "max_cg"]

    def test_stats_mismatch_rejected(self, small_data):
        ds, stats = small_data
        other = compute_label_stats(augment_bias(generate_synthetic(60, 20, 8, 1.2, 1)))
        with pytest.raises(ConfigError):
            train_ova(ds, other, TrainConfig())
        # same rows and labels, but the statistics miss the bias column
        unbiased = compute_label_stats(generate_synthetic(200, 20, 8, 1.2, 21))
        assert (unbiased.n, unbiased.n_labels) == (ds.n, ds.n_labels)
        for kind in INIT_KINDS:
            with pytest.raises(ConfigError, match="different dataset"):
                train_ova(ds, unbiased, TrainConfig(init=InitStrategy(kind)))


class TestGrad0ClosedForm:
    @pytest.mark.parametrize("c", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("loss", list(MarginLoss))
    def test_matches_the_pass_over_x(self, loss, c):
        base = augment_bias(generate_synthetic(200, 20, 8, 1.2, 21))
        L = base.n_labels
        # label L is positive on every row, label L + 1 on none
        labels = [np.append(lbls, L) for lbls in base.labels]
        ds = Dataset(base.features, labels, L + 2, base.bias_index)
        stats = compute_label_stats(ds)
        assert stats.positives[L].size == ds.n and stats.positives[L + 1].size == 0
        for j in range(L + 2):
            signs = np.full(ds.n, -1.0)
            signs[stats.positives[j]] = 1.0
            problem = BinaryProblem(ds.features, signs, loss, c)
            ref = float(np.linalg.norm(gradient(problem, np.zeros(ds.dim))))
            assert abs(grad0_closed_form(stats, j, loss, c) - ref) <= 1e-14 * ref

    def test_non_finite_falls_back_to_the_pass(self, monkeypatch):
        # the column sum 1e308 + 1e308 overflows, so xbar is infinite; the
        # pass over X cancels the two rows, whose signs differ
        X = make_matrix([{0: 1e308, 1: 1.0}, {0: 1e308, 1: 2.0}], 2)
        ds = Dataset(X, [np.array([0]), np.array([], dtype=np.int64)], 1)
        stats = compute_label_stats(ds)
        cfg = TrainConfig(c=0.1)
        assert not np.isfinite(grad0_closed_form(stats, 0, cfg.loss, cfg.c))
        seen = []
        real = solver_mod.newton_cg_block

        def spy(X, loss, c, S, W0, solver_cfg, refs, buffers):
            seen.append(refs)
            return real(X, loss, c, S, W0, solver_cfg, refs, buffers)

        monkeypatch.setattr(solver_mod, "newton_cg_block", spy)
        train_ova(ds, stats, cfg)
        [[ref]] = seen
        problem = BinaryProblem(X, np.array([1.0, -1.0]), cfg.loss, cfg.c)
        assert ref == float(np.linalg.norm(gradient(problem, np.zeros(2)))) == pytest.approx(0.2)


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


def sparse_scores(model, X):
    """The sparse product scoring used before dense label chunks, kept as the
    reference: blocks of 512 rows of X times a transposed sparse copy of W."""
    wt = model.weights.to_scipy().T.tocsr()
    xs = X.to_scipy()
    blocks = [(xs[lo : lo + 512] @ wt).toarray() for lo in range(0, X.n_rows, 512)]
    return np.vstack(blocks) if blocks else np.zeros((0, model.n_labels))


# Finite values with explicit zeros of both signs, small and huge magnitudes
# (whose products overflow), and values that sum to exact ties.
SCORE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e308, -1e308, 5e-324]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def chunked_scoring(draw):
    dim = draw(st.integers(min_value=1, max_value=7))
    n_labels = draw(st.integers(min_value=1, max_value=9))
    row = st.dictionaries(st.integers(min_value=0, max_value=dim - 1), SCORE_VALUES, max_size=dim)
    weights = draw(st.lists(row, min_size=n_labels, max_size=n_labels))
    rows = draw(st.lists(row, min_size=0, max_size=12))
    labels_per_chunk = draw(st.integers(min_value=1, max_value=n_labels + 1))
    rows_per_block = draw(st.integers(min_value=1, max_value=5))
    return simple_model(weights, dim), make_matrix(rows, dim), labels_per_chunk, rows_per_block


class TestScoreChunks:
    @settings(max_examples=200, deadline=None)
    @given(chunked_scoring())
    def test_bits_equal_the_sparse_product(self, case):
        # empty weight rows, explicit zero weights, rows of X with no
        # features, one label and one feature all come up
        model, X, labels_per_chunk, rows_per_block = case
        want = sparse_scores(model, X)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trainer_mod, "_CHUNK_BYTES", 8 * model.dim * labels_per_chunk)
            mp.setattr(trainer_mod, "_BLOCK_ROWS", rows_per_block)
            blocks = list(score_blocks(model, X))
        assert [lo for lo, _ in blocks] == list(range(0, X.n_rows, rows_per_block))
        got = np.vstack([b for _, b in blocks]) if blocks else np.zeros((0, model.n_labels))
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("labels_per_chunk, densified", [(7, 1), (1, 19), (2, 10)])
    def test_a_model_that_fits_is_densified_once(self, monkeypatch, labels_per_chunk, densified):
        # 7 labels over 3 blocks of rows: one chunk is densified once; 1- and
        # 2-label chunks (the last one uneven) are densified for every block
        # but the one a block starts with, which the block before ended with
        model = simple_model([{0: float(j + 1), 1: -0.5} for j in range(7)], dim=2)
        X = make_matrix([{0: 1.0, 1: float(i)} for i in range(1100)], 2)
        calls = []
        real = trainer_mod._dense_labels

        def spy(W, lo, hi):
            calls.append((lo, hi))
            return real(W, lo, hi)

        monkeypatch.setattr(trainer_mod, "_dense_labels", spy)
        monkeypatch.setattr(trainer_mod, "_CHUNK_BYTES", 8 * 2 * labels_per_chunk)
        got = np.vstack([b for _, b in score_blocks(model, X)])
        assert len(calls) == densified
        assert got.tobytes() == sparse_scores(model, X).tobytes()
        assert all(hi - lo <= labels_per_chunk for lo, hi in calls)

    def test_no_labels(self):
        model = simple_model([], dim=3)
        [(lo, block)] = score_blocks(model, make_matrix([{0: 1.0}], 3))
        assert lo == 0 and block.shape == (1, 0)


# Repeats, both zeros, both infinities and NaN, so that ties are the rule.
TOPK_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, np.inf, -np.inf, np.nan]),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def topk_blocks(draw):
    rows = draw(st.integers(min_value=1, max_value=6))
    cols = draw(st.integers(min_value=1, max_value=12))
    values = draw(st.lists(TOPK_VALUES, min_size=rows * cols, max_size=rows * cols))
    k = draw(st.sampled_from(sorted({1, cols, draw(st.integers(min_value=1, max_value=cols))})))
    return np.array(values, dtype=np.float64).reshape(rows, cols), k


class TestBlockTopk:
    @settings(max_examples=300, deadline=None)
    @given(topk_blocks())
    def test_equals_the_stable_argsort(self, case):
        block, k = case
        want = np.argsort(-block, axis=1, kind="stable")[:, :k]
        got = block_topk(block, k)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("block, k, want", [
        ([[0.0, -0.0, 0.0, -0.0]], 2, [[0, 1]]),  # -0 ties with +0, lower column first
        ([[1.0, np.nan, 1.0, np.inf]], 2, [[3, 0]]),
        ([[np.nan, 2.0, np.nan]], 2, [[1, 0]]),  # k-th best is NaN: the row is sorted whole
        ([[np.nan, np.nan]], 1, [[0]]),
        ([[-np.inf, -np.inf, -1.0]], 3, [[2, 0, 1]]),
        ([[3.0, 3.0, 3.0, 1.0, 3.0]], 3, [[0, 1, 2]]),  # more ties than places
        # a NaN row takes the full sort without disturbing the others
        ([[np.nan, 1.0, np.nan], [2.0, 2.0, 5.0], [0.0, -0.0, -1.0]], 2, [[1, 0], [2, 0], [0, 1]]),
    ])
    def test_examples(self, block, k, want):
        assert block_topk(np.array(block), k).tolist() == want


def write_v2(path, indptr, indices, data, n_labels=None, dim=2, bias=-1):
    """A v2 model file written field by field; the label count is the
    arrays' unless given."""
    n_labels = len(indptr) - 1 if n_labels is None else n_labels
    with open(path, "wb") as fh:
        fh.write(f"xova v2 {n_labels} {dim} {len(indices)} {bias} squared-hinge zero\n".encode())
        for arr, dtype in ((indptr, "<i8"), (indices, "<i8"), (data, "<f8")):
            fh.write(np.asarray(arr, dtype=dtype).tobytes())
    return path


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
        assert (loaded.loss, loaded.init) == (model.loss, model.init) == ("squared-hinge", "zero")
        assert loaded.weights == model.weights
        assert loaded.weights.indices.dtype == model.weights.indices.dtype

    def test_saved_bytes_are_pinned(self, tmp_path):
        model = simple_model([{0: 0.5, 2: -1.25}, {}], dim=3, bias_index=2, init="aop")
        a, b = tmp_path / "a.model", tmp_path / "b.model"
        save_model(model, a)
        save_model(model, b)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes().startswith(b"xova v2 2 3 2 2 squared-hinge aop\n")
        # the header, then little-endian int64 [0, 2, 2] and [0, 2] and float64 [0.5, -1.25]
        assert hashlib.sha256(a.read_bytes()).hexdigest()[:16] == "0f0e2b0cbb11233c"

    def test_empty_weight_line(self, tmp_path):
        model = simple_model([{}, {1: 0.5}], dim=2)
        path = tmp_path / "m.model"
        save_model(model, path)
        assert load_model(path).weights.row(0).indices.size == 0

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_text("xova v1 2 2 -1 squared-hinge zero\n0 0\n1 1 0:2.0\n")
        with pytest.raises(ModelFormatError, match="version 'v1'"):
            load_model(path)

    @pytest.mark.parametrize("bias", [999, 3, -2])
    def test_impossible_bias_index(self, tmp_path, bias):
        path = write_v2(tmp_path / "m.model", [0, 0], [], [], dim=5, bias=bias)
        with pytest.raises(ModelFormatError, match=f"bias index {bias}"):
            load_model(path)

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "m.model"
        path.write_bytes(b"nope v2 1 2 0 -1 squared-hinge zero\n" + bytes(8))
        with pytest.raises(ModelFormatError, match="magic"):
            load_model(path)

    @pytest.mark.parametrize("header", [
        b"xova v2 1 2 0 -1 squared-hinge\n",
        b"xova v2 1 2 0 -1 squared-hinge zero 7\n",
        b"xova v2 1 2 0 -1 squared-hinge zero",
        b"xova v2 1 2 0 -1 squared-hinge zero" + b" " * 300 + b"\n",
    ], ids=["field_short", "field_over", "no_end_of_line", "beyond_cap"])
    def test_malformed_header(self, tmp_path, header):
        path = tmp_path / "m.model"
        path.write_bytes(header + bytes(8))
        with pytest.raises(ModelFormatError, match="malformed header"):
            load_model(path)

    @pytest.mark.parametrize("header, match", [
        (b"xova v2 1 2 0 -1 squared-hinge zero\n".replace(b"1", b"1_0", 1), "invalid header"),
        ("xova v2 \u0661 2 0 -1 squared-hinge zero\n".encode(), "invalid header"),
        (b"xova v2 one 2 0 -1 squared-hinge zero\n", "non-integer"),
        (b"xova v2 1 2 0 -1 hinge zero\n", "unknown loss token 'hinge'"),
        (b"xova v2 1 2 0 -1 squared-hinge warm\n", "unknown init token 'warm'"),
        (b"xova v2 1 2 -1 -1 squared-hinge zero\n", "must lie in"),
    ], ids=["digit_separator", "non_ascii", "non_integer", "loss", "init", "negative_count"])
    def test_bad_header_field(self, tmp_path, header, match):
        path = tmp_path / "m.model"
        path.write_bytes(header + bytes(8))
        with pytest.raises(ModelFormatError, match=match):
            load_model(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "m.model"
        save_model(simple_model([{0: 1.0}, {1: 2.0}], dim=2), path)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(ModelFormatError, match="file holds 91 bytes, its header needs 92"):
            load_model(path)

    def test_trailing_byte(self, tmp_path):
        path = tmp_path / "m.model"
        save_model(simple_model([{0: 1.0}, {1: 2.0}], dim=2), path)
        path.write_bytes(path.read_bytes() + b"\n")
        with pytest.raises(ModelFormatError, match="file holds 93 bytes, its header needs 92"):
            load_model(path)

    def test_nnz_mismatch(self, tmp_path):
        # the header and the length agree on 2 weights, the offsets hold 1
        path = write_v2(tmp_path / "m.model", [0, 1], [0, 1], [1.0, 2.0])
        with pytest.raises(ModelFormatError, match="final offset must equal the number of nonzeros"):
            load_model(path)

    def test_label_order_enforced(self, tmp_path):
        """Label j's weights lie between offsets j and j + 1: offsets that
        decrease, or that do not start at 0, are an error."""
        for indptr in (
            [0, 2, 1, 2],
            [1, 1, 2, 2],
            # the differences of these offsets wrap around int64 to non-negative values
            [0, 2**62, 2**63 - 1, -(2**63) + 1, -(2**62), 2],
        ):
            path = write_v2(tmp_path / "m.model", indptr, [0, 1], [1.0, 2.0])
            with pytest.raises(ModelFormatError, match="weight row offsets"):
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
        ],
    )
    def test_bad_weight_entry(self, tmp_path, entries, match):
        pairs = [token.split(":") for token in entries.split()]
        indices = [0] + [int(i) for i, _ in pairs]
        data = [0.5] + [float(v) for _, v in pairs]
        path = write_v2(tmp_path / "m.model", [0, 1, len(indices), len(indices)], indices, data)
        with pytest.raises(ModelFormatError, match=f"^label 1: {match}"):
            load_model(path)

    def test_dimension_beyond_int64(self, tmp_path):
        path = write_v2(tmp_path / "m.model", [0, 0], [], [], dim=99999999999999999999)
        with pytest.raises(ModelFormatError, match="dimension and nonzero count must lie in"):
            load_model(path)

    def test_huge_label_count_is_truncated_not_allocated(self, tmp_path, monkeypatch):
        path = write_v2(tmp_path / "m.model", [0, 0], [], [], n_labels=10**15)

        def no_read(*args, **kwargs):
            raise AssertionError("an array was read before the length check")

        monkeypatch.setattr(np, "fromfile", no_read)
        with pytest.raises(ModelFormatError, match="its header needs 8000000000000059"):
            load_model(path)
