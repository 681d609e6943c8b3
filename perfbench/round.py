"""One round of a workload, in a fresh process, as a user of the package runs it.

Usage (``run.py`` starts it, once per round)::

    python3 perfbench/round.py --work DIR --index I [--trace] [--extras aop|all]

``DIR`` holds the workload's ``train.txt`` and ``test.txt``. The round
runs the five steps, checks their outputs and writes ``round-I.json`` to
``DIR``. Each round is its own process, so that every round pays the same
first-touch costs a ``xova`` command pays, and so that no round inherits
another's memory layout.
"""

from __future__ import annotations

import bootstrap  # first: pins the thread pools before numpy loads

import argparse
import hashlib
import json
import os
import resource
import sys
import time

import numpy as np

import layers
from tracing import Tracer, check_self_times, write_spans

INITS = layers.INITS
SETUP_REPEATS = 2
# In untraced rounds a step is run again until its calls cover this many
# seconds, at most MAX_REPEATS times, so that short steps get more samples.
MIN_SAMPLE_S = 0.5
MAX_REPEATS = 8
# The reference computation does both kinds of work the package does:
# interpreter work (format, parse and sum floats, an integer loop) and
# numpy passes shaped like a sparse matrix-vector product and its transpose
# (gather, multiply, segment sums, scatter-add), about half the time each.
REF_VALUES = [i * 0.1234567 for i in range(3000)]
REF_LOOP = 40_000
_ref_rng = np.random.default_rng(0)
REF_INDEX = _ref_rng.integers(0, 2000, size=100_000)
REF_DATA = _ref_rng.random(REF_INDEX.size)
REF_ROWS = np.arange(0, REF_INDEX.size, 5)
REF_X = _ref_rng.random(2000)
REF_PASSES = 8
REF_TRIES = 2
EVAL_KS = [1, 3, 5]
ROOTS = ("trainer.train_ova", "cli.main", "metrics.evaluate")


def model_digest(model) -> str:
    """sha256 of a model's weights as held in memory."""
    h = hashlib.sha256(f"{model.n_labels} {model.dim} {model.bias_index}".encode())
    for w in model.weights:
        h.update(w.indices.tobytes())
        h.update(w.values.tobytes())
        h.update(b";")
    return h.hexdigest()


def reference_s() -> float:
    """Wall time of the reference computation, now: the host's current speed.

    The shortest of ``REF_TRIES`` tries (each 12 to 20 ms on a 2-vCPU Xeon
    virtual machine), so that one preemption does not count. On a shared
    host the speed of every step moves with the neighbours' load, by up to
    2x over tens of seconds, and a step's time over the reference time
    measured around it cancels most of that.
    """
    best = float("inf")
    for _ in range(REF_TRIES):
        t0 = time.perf_counter()
        text = " ".join(f"{v:.17g}" for v in REF_VALUES)
        sum(float(tok) for tok in text.split())
        sum(i * i for i in range(REF_LOOP))
        for _ in range(REF_PASSES):
            y = np.add.reduceat(REF_DATA * REF_X[REF_INDEX], REF_ROWS)
            np.bincount(REF_INDEX, weights=np.repeat(y, 5), minlength=REF_X.size)
        best = min(best, time.perf_counter() - t0)
    return best


def file_digest(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def precision_at_1_from_predictions(path, test) -> float:
    """P@1 of an ``xova predict`` output file: its first ``label:score`` per row."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if len(lines) != test.n:
        raise ValueError(f"{len(lines)} prediction lines for {test.n} test rows")
    hits = sum(int(line.split(":", 1)[0]) in relevant for line, relevant in zip(lines, test.labels))
    return hits / test.n


def top_frequent_p_at_5(stats, test) -> float:
    """P@5 of a predictor that always outputs the 5 most frequent training labels."""
    counts = np.array([p.size for p in stats.positives])
    top = set(np.argsort(-counts, kind="stable")[:5].tolist())
    return sum(len(top.intersection(lbls.tolist())) for lbls in test.labels) / (5 * test.n)


class Bench:
    def __init__(self, xova, work_dir, repeat: bool):
        self.xova = xova
        self.work = work_dir
        self.train_path = os.path.join(work_dir, "train.txt")
        self.test_path = os.path.join(work_dir, "test.txt")
        self.model_path = os.path.join(work_dir, "aop.model")
        self.pred_path = os.path.join(work_dir, "pred.txt")
        self.test = xova.augment_bias(xova.load_xmc_dataset(self.test_path))
        self.checks: list[tuple[str, bool, str]] = []
        self.repeat = repeat
        # per step: one entry per call, in seconds and over the reference
        self.out = {"wall": {}, "cpu": {}, "ref_wall": {}, "ref_cpu": {}, "ref_s": []}

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append((name, bool(ok), detail))

    def timed(self, key: str, fn, at_least: int = 1):
        """Run ``fn`` and record each call's wall and CPU time under ``key``.

        ``fn`` runs ``at_least`` times and, in untraced rounds, again until
        its calls cover ``MIN_SAMPLE_S``. Each call is recorded in seconds,
        and over the mean of the reference times measured just before and
        just after it. Returns the last call's result.
        """
        out, n, total = self.out, 0, 0.0
        while n < at_least or (self.repeat and total < MIN_SAMPLE_S and n < MAX_REPEATS):
            before = out["ref_s"][-1]
            c0, t0 = time.process_time(), time.perf_counter()
            result = fn()
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
            out["ref_s"].append(reference_s())
            ref = (before + out["ref_s"][-1]) / 2
            for field, value in (("wall", wall), ("cpu", cpu), ("ref_wall", wall / ref),
                                 ("ref_cpu", cpu / ref)):
                out[field].setdefault(key, []).append(value)
            n, total = n + 1, total + wall
        return result

    def steps(self) -> None:
        """The five timed steps.

        Every function is looked up at call time, so that a traced round
        goes through the wrappers.
        """
        x = self.xova
        self.out["ref_s"].append(reference_s())
        ds, self.stats = self.timed("setup_s", lambda: self.setup(x), at_least=SETUP_REPEATS)

        self.models, self.reports = {}, {}
        for init in INITS:
            cfg = x.TrainConfig(init=x.InitStrategy(kind=init))
            self.models[init], self.reports[init] = self.timed(
                f"train_s.{init}", lambda: x.trainer.train_ova(ds, self.stats, cfg))

        def model_io():
            x.trainer.save_model(self.models["aop"], self.model_path)
            return x.trainer.load_model(self.model_path)

        self.loaded = self.timed("model_io_s", model_io)
        argv = ["predict", "--model", self.model_path, "--data", self.test_path, "--k", "5",
                "--out", self.pred_path]
        self.predict_status = self.timed("predict_s", lambda: x.cli.main(argv))
        self.result = self.timed(
            "eval_s", lambda: x.metrics.evaluate(self.loaded, self.test, EVAL_KS))

    def setup(self, x):
        ds = x.dataio.augment_bias(x.dataio.load_xmc_dataset(self.train_path))
        return ds, x.dataio.compute_label_stats(ds)

    def check_outputs(self) -> None:
        aop, loaded = self.models["aop"], self.loaded
        exact = (
            (loaded.n_labels, loaded.dim, loaded.bias_index) == (aop.n_labels, aop.dim, aop.bias_index)
            and all(a == b for a, b in zip(loaded.weights, aop.weights))
        )
        self.check("load_model(save_model(aop)) is value-exact", exact)
        status = self.predict_status
        self.check("xova predict exits 0", status == 0, f"status {status}")
        if status == 0:
            p1, e1 = precision_at_1_from_predictions(self.pred_path, self.test), float(self.result.p_at[1])
            self.check("P@1 of xova predict equals evaluate's", p1 == e1, f"{p1!r} vs {e1!r}")
        self.out["digests"] = {i: model_digest(self.models[i]) for i in INITS}
        self.out["digests"]["aop.file"] = file_digest(self.model_path)
        self.out["reports"] = {
            i: {
                "label_ms": [r.wall_ms for r in rep.labels],
                "mean_outer_iters": rep.mean_outer_iters(),
                "failed_labels": sum(r.termination in layers.FAILED_TERMINATIONS for r in rep.labels),
            }
            for i, rep in self.reports.items()
        }

    def extras(self, save_all: bool) -> dict:
        """Per-init quality and saved-model digests, outside every timed step.

        Every round saves the ``aop`` model; the other three are saved only
        when ``save_all``, because saving a dense model takes seconds.
        """
        x = self.xova
        baseline = top_frequent_p_at_5(self.stats, self.test)
        models = {}
        for init in INITS:
            model = self.models[init]
            p = {k: float(v) for k, v in x.precision_at_k(model, self.test, EVAL_KS).items()}
            models[init] = {"p_at": p, "nnz": sum(w.nnz for w in model.weights)}
            if init == "aop" or save_all:
                path = os.path.join(self.work, f"{init}.model")
                x.save_model(model, path)
                models[init].update(sha256=file_digest(path), bytes=os.path.getsize(path))
            self.check(f"p_at_5.{init} beats the top-5-frequent predictor",
                       p[5] > baseline, f"{p[5]!r} vs {baseline!r}")
        return {"baseline_p_at_5": baseline, "models": models}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--work", required=True)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--extras", choices=("aop", "all"), default=None,
                        help="also record per-init quality, and the saved-model digest "
                             "of the aop model or of all four")
    parser.add_argument("--spans-out", default=None, help="write the round's spans here")
    args = parser.parse_args(argv)

    xova = bootstrap.import_xova()
    bench = Bench(xova, args.work, repeat=not args.trace)
    out = bench.out
    out["traced"] = args.trace
    if args.trace:
        tracer = Tracer()
        with tracer.installed(layers.targets(xova)):
            bench.steps()
        out["span_metrics"] = layers.span_metrics(tracer.spans)
        for root in ROOTS:
            problems = check_self_times(tracer.spans, root)
            bench.check(f"self times under each {root} span sum to its duration",
                        not problems, "; ".join(problems[:3]))
        if args.spans_out:
            write_spans(tracer.spans, args.spans_out)
    else:
        bench.steps()
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    bench.check_outputs()
    if args.extras:
        t0 = time.perf_counter()
        out["extras"] = bench.extras(save_all=args.extras == "all")
        out["extras_s"] = time.perf_counter() - t0
    out["checks"] = bench.checks
    with open(os.path.join(args.work, f"round-{args.index}.json"), "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
