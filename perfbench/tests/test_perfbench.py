"""Self-tests of the benchmark. Run from the repository root with

    python3 -m pytest -q perfbench/tests
"""

import concurrent.futures
import json
import os
import re
import time

import numpy as np
import pytest

import bootstrap
import layers
import run
import workloads
import xova
from tracing import Tracer, check_self_times

from conftest import REPO

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def benchmark_spec():
    with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_topic_generator_is_deterministic_for_a_seed():
    a = workloads.topic_arrays(3, 300, 400, 30)
    b = workloads.topic_arrays(3, 300, 400, 30)
    c = workloads.topic_arrays(4, 300, 400, 30)
    for x, y in zip(a[:3], b[:3]):
        np.testing.assert_array_equal(x, y)
    assert all(np.array_equal(x, y) for x, y in zip(a[3], b[3]))
    assert not np.array_equal(a[2][:100], c[2][:100])


def test_topic_rows_are_normalised_and_labelled():
    indptr, indices, data, labels = workloads.topic_arrays(5, 300, 400, 30)
    sq = np.add.reduceat(data * data, indptr[:-1])
    np.testing.assert_allclose(sq, 1.0, rtol=1e-12)
    assert np.all(data > 0)
    assert all(lbls.size >= 1 for lbls in labels)
    features = xova.SparseMatrix(indptr, indices, data, 400)  # validates the CSR layout
    assert features.n_rows == 300


def test_metric_names_and_counts_match_the_spec():
    spec = benchmark_spec()
    e2e = [m["name"] for m in spec["end_to_end"]]
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert 1 <= len(e2e) <= 16 and 1 <= len(per_layer) <= 128
    names = e2e + per_layer
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(n) for n in names)
    assert e2e == run.END_TO_END_METRICS
    assert per_layer == layers.PER_LAYER_METRICS
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_wrappers_restore_the_original_functions():
    targets = layers.targets(xova)
    originals = [vars(owner)[attr] for owner, attr, _, _ in targets]
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(targets):
            assert all(vars(o)[a] is not f for (o, a, _, _), f in zip(targets, originals))
            raise RuntimeError("leave the context by an exception")
    assert all(vars(o)[a] is f for (o, a, _, _), f in zip(targets, originals))


def test_checkout_guard_refuses_a_directory_without_source(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(bootstrap.CheckoutError):
        bootstrap.import_xova()


def test_traced_and_untraced_rounds_agree(tmp_path, monkeypatch):
    monkeypatch.chdir(REPO)  # the round processes import xova from ./src
    mini = workloads.Workload("mini", "tail", 800, 60, 12)
    deadline = time.monotonic() + 120
    run.prepare(mini, 7, str(tmp_path), deadline)
    rounds = run.measure(str(tmp_path), seconds=0.0, trace=True, deadline=deadline)
    plain, traced = rounds
    assert not plain["traced"] and traced["traced"]
    assert plain["digests"] == traced["digests"]
    # one ratio to the reference per call; short steps repeat only untraced
    for r in rounds:
        assert {k: len(v) for k, v in r["ref_wall"].items()} == {k: len(v) for k, v in r["wall"].items()}
    assert all(len(v) == 1 for k, v in traced["wall"].items() if k != "setup_s")
    assert len(plain["wall"]["eval_s"]) > 1
    checks = run.round_checks(rounds)
    assert any("self times under each trainer.train_ova" in c for c, _, _ in checks)
    assert all(ok for _, ok, _ in checks), checks
    m = run.per_layer(rounds)
    assert list(m) == layers.PER_LAYER_METRICS
    assert m["solver.cg_iters.zero"] > 0 and m["sparse.hvp.nnz.zero"] > 0
    e2e = run.end_to_end(rounds, 0, 4 * mini.l * len(rounds), 0)
    assert list(e2e) == run.END_TO_END_METRICS


def test_self_times_add_up_across_worker_threads():
    tracer = Tracer()
    leaf = tracer.wrap(lambda: time.sleep(0.01), "leaf")
    mid = tracer.wrap(lambda: [leaf() for _ in range(2)], "mid")

    def root():
        with concurrent.futures.ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(lambda _: mid(), range(4)))

    tracer.wrap(root, "root", root=True)()
    spans = tracer.spans
    assert len(spans) == 1 + 4 + 8
    root_span = spans[0]
    assert all(s.trace == root_span.sid for s in spans)
    assert {s.parent for s in spans if s.name == "mid"} == {root_span.sid}
    assert check_self_times(spans, "root") == []
