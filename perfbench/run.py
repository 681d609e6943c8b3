"""The xova benchmark: train and score one workload, check the outputs, print metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload topic --seed 1 --seconds 55 --trace 0

The run writes the workload's files from ``--seed`` (``workloads.py``, in
a child process), then starts one fresh process per round
(``round.py``) until the next round would not fit in ``--seconds``. A
round runs the five steps a user of the package pays for: set-up,
``train_ova`` with each of the four initializers, save and reload of the
``aop`` model, ``xova predict`` and ``evaluate`` on the held-out file.
Each end-to-end time but ``setup_s`` is the median, over every call in
every round, of the call's wall time over a reference computation timed
around it (``round.reference_s``; unit ``ref``), so that the host's
changing speed cancels; ``setup_s`` is the median in seconds. Every
other metric is the median over the rounds. With ``--trace 0`` the last
line of standard output carries the end-to-end metrics; with ``--trace 1``
untraced and traced rounds alternate and it carries the per-layer metrics.
The line before it carries the host, the reached quality, the model
digests and every check. Exit status 1 means a check failed.
"""

from __future__ import annotations

import bootstrap  # first: pins the thread pools before numpy loads

import argparse
import dataclasses
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy as np

import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
INITS = layers.INITS
# A child still running this long after the run started is killed, so
# that a run that hangs ends, without a result, inside 180 seconds.
DEADLINE_S = 170
END_TO_END_METRICS = [
    "setup_s",
    *[f"train_s.{i}" for i in INITS],
    "train_cpu_s",
    "model_io_s",
    "predict_s",
    "eval_s",
    *[f"p_at_5.{i}" for i in INITS],
    "peak_rss_mb",
    "label_ok_frac",
]


def host_info() -> dict:
    import scipy

    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        blas = f"{deps['blas']['name']} {deps['blas'].get('version', '')}".strip()
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {v: os.environ.get(v) for v in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "loadavg_at_start": list(os.getloadavg()),
    }


def child(deadline: float, script: str, *args: str) -> None:
    """Run a script of the benchmark, killing it at ``deadline`` (``time.monotonic``)."""
    # The child's standard output goes to ours as standard error, so that
    # our last line stays the result.
    subprocess.run([sys.executable, os.path.join(HERE, script), *args], check=True,
                   stdout=sys.stderr, timeout=max(deadline - time.monotonic(), 1.0))


def prepare(w: workloads.Workload, seed: int, work: str, deadline: float) -> None:
    """Write the workload's files and its description into ``work``."""
    with open(os.path.join(work, "workload.json"), "w", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(w), fh)
    child(deadline, "workloads.py", "--work", work, "--seed", str(seed))


def measure(work: str, seconds: float, trace: bool, deadline: float,
            spans_out: str | None = None) -> list[dict]:
    """Run rounds until the next one would not fit in ``seconds``.

    When tracing, rounds alternate untraced, traced, untraced, ... and at
    least one of each runs. The first round also records the per-init
    quality and digests; that time is not counted against ``seconds``.
    """
    rounds: list[dict] = []
    t_start = time.perf_counter()
    while True:
        i = len(rounds)
        args = ["--work", work, "--index", str(i)]
        if trace and i % 2 == 1:
            args += ["--trace"] + (["--spans-out", spans_out] if spans_out else [])
        if i == 0:
            args += ["--extras", "all" if trace else "aop"]
        t0 = time.perf_counter()
        child(deadline, "round.py", *args)
        last = time.perf_counter() - t0
        with open(os.path.join(work, f"round-{i}.json"), encoding="utf-8") as fh:
            rounds.append(json.load(fh))
        t_start += rounds[-1].get("extras_s", 0.0)
        if trace and i == 0:
            continue
        if time.perf_counter() - t_start + last > seconds:
            return rounds


def median(values) -> float:
    return float(statistics.median(values))


def pooled(rounds, field: str, key: str) -> float:
    """Median of every call of one step, over all rounds."""
    return median([v for r in rounds for v in r[field][key]])


def train_cpu(r, field: str) -> float:
    """CPU time of the four ``train_ova`` calls of a round (the median call of each)."""
    return sum(median(r[field][f"train_s.{i}"]) for i in INITS)


def step_walls(r, field: str = "wall") -> dict:
    """Median time of each step of a round, in seconds or (``ref_wall``) over the reference."""
    return {key: median(v) for key, v in r[field].items()}


def end_to_end(rounds, failed_labels, labels_attempted, failed_checks) -> dict:
    """The end-to-end metrics: each time over the reference, but ``setup_s`` in seconds."""
    extras = rounds[0]["extras"]
    m = {key: pooled(rounds, "ref_wall", key) for key in rounds[0]["ref_wall"]}
    m["setup_s"] = pooled(rounds, "wall", "setup_s")
    m["train_cpu_s"] = median([train_cpu(r, "ref_cpu") for r in rounds])
    for init in INITS:
        m[f"p_at_5.{init}"] = extras["models"][init]["p_at"]["5"]
    m["peak_rss_mb"] = median([r["peak_rss_mb"] for r in rounds])
    m["label_ok_frac"] = 1.0 - (failed_labels / labels_attempted + failed_checks)
    return {name: m[name] for name in END_TO_END_METRICS}


def seconds(rounds) -> dict:
    """Every end-to-end time in seconds, and the median reference time."""
    m = {key: pooled(rounds, "wall", key) for key in rounds[0]["wall"]}
    m["train_cpu_s"] = median([train_cpu(r, "cpu") for r in rounds])
    m["reference"] = median([s for r in rounds for s in r["ref_s"]])
    return m


def per_layer(rounds) -> dict:
    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    m = {name: median([r["span_metrics"][name] for r in traced]) for name in layers.SPAN_METRICS}
    for init in INITS:
        pct = [np.percentile(r["reports"][init]["label_ms"], [50, 95]) for r in plain]
        m[f"trainer.label_ms.p50.{init}"] = median([p[0] for p in pct])
        m[f"trainer.label_ms.p95.{init}"] = median([p[1] for p in pct])
    # one worker: CPU seconds over wall seconds of the four train_ova calls
    m["trainer.parallel_efficiency"] = median(
        [train_cpu(r, "cpu") / sum(step_walls(r)[f"train_s.{i}"] for i in INITS) for r in plain]
    )
    aop = rounds[0]["extras"]["models"]["aop"]
    m["trainer.model_nnz"] = float(aop["nnz"])
    m["trainer.model_bytes"] = float(aop["bytes"])
    walls = [(r["traced"], sum(step_walls(r, "ref_wall").values())) for r in rounds]
    m["trace.overhead_frac"] = (median([t for traced, t in walls if traced])
                                / median([t for traced, t in walls if not traced]) - 1)
    return {name: float(m[name]) for name in layers.PER_LAYER_METRICS}


def round_checks(rounds) -> list[tuple[str, bool, str]]:
    """Every round's own checks, plus: every round trained the same models."""
    checks = []
    for i, r in enumerate(rounds):
        tag = "traced" if r["traced"] else "untraced"
        checks += [(f"round {i} ({tag}): {c}", ok, d) for c, ok, d in r["checks"]]
    for key in [*INITS, "aop.file"]:
        same = len({r["digests"][key] for r in rounds}) == 1
        checks.append((f"{key} model identical in every round, traced or not", same, ""))
    return checks


def load_units() -> dict[str, str]:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    host = host_info()
    try:
        bootstrap.import_xova()
        units = load_units()
    except (bootstrap.CheckoutError, ImportError, OSError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    trace = bool(args.trace)

    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(OUT_DIR, f"work-{tag}-{os.getpid()}")
    os.makedirs(work)
    try:
        prepare(w, args.seed, work, deadline)
        spans_out = os.path.join(OUT_DIR, f"{tag}.spans.jsonl.gz") if trace else None
        rounds = measure(work, args.seconds, trace, deadline, spans_out)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = round_checks(rounds)
    n_failed_checks = sum(not ok for _, ok, _ in checks)
    failed_labels = sum(r["reports"][i]["failed_labels"] for r in rounds for i in INITS)
    labels_attempted = len(INITS) * w.l * len(rounds)
    if trace:
        metrics = per_layer(rounds)
    else:
        metrics = end_to_end(rounds, failed_labels, labels_attempted, n_failed_checks)

    extras = rounds[0]["extras"]
    info = {
        "workload": dataclasses.asdict(w),
        "seed": args.seed,
        "host": host,
        "rounds": len(rounds),
        "seconds": seconds(rounds),
        "round_times": [{"traced": r["traced"], **step_walls(r)} for r in rounds],
        "mean_outer_iters": {i: rounds[0]["reports"][i]["mean_outer_iters"] for i in INITS},
        "p_at": {i: extras["models"][i]["p_at"] for i in INITS},
        "baseline_p_at_5": extras["baseline_p_at_5"],
        "model_sha256": {i: extras["models"][i].get("sha256") for i in INITS},
        "failed_labels": failed_labels,
        "checks": [{"check": c, "ok": ok, "detail": d} for c, ok, d in checks],
    }
    with open(os.path.join(OUT_DIR, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(info, fh, indent=1)
    print("perfbench info " + json.dumps(info))
    result = {
        "correct": n_failed_checks == 0,
        "attempted": labels_attempted + len(checks),
        "failed": failed_labels + n_failed_checks,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if n_failed_checks == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
