"""Acceptance suite.

One test per criterion. Each prints a single `[criterion N] ... PASS/FAIL`
line (run pytest with `-s` to see them live) and asserts both the criterion
itself and its runtime budget. Expensive shared fixtures charge their build
time to the first criterion that uses them.

Criterion 9 (real-data check) is optional: it runs only when the
XOVA_EURLEX_DIR environment variable points at a directory containing
`train.txt` and `test.txt` in the benchmark text format.
"""

import os
import time

import numpy as np
import pytest

from xova.dataio import (
    augment_bias,
    compute_label_stats,
    generate_synthetic,
    load_xmc_dataset,
    split_dataset,
)
from xova.initializers import AopPrecompute, InitStrategy, aop_init
from xova.losses import MarginLoss, active_set, ddphi
from xova.metrics import evaluate
from xova.solver import (
    BinaryProblem,
    SolverConfig,
    gradient,
    hessian_vec,
    margins,
    newton_cg,
    objective,
)
from xova.sparse import SparseVector
from xova.trainer import TrainConfig, save_model, train_ova

from conftest import dense_matrix, make_matrix, random_problem

SQH = MarginLoss.SQUARED_HINGE
LOG = MarginLoss.LOGISTIC

# Solver settings used by the convergence-sensitive criteria: the outer
# tolerance 1e-4 is fixed by criterion 4; the conjugate-gradient solves are
# run essentially to completion there so that the measured objective spread
# reflects the shared minimum rather than inner-solver truncation.
TIGHT = SolverConfig(eps_outer=1e-4, eps_cg=1e-8, max_cg=1000)
TIGHT_OUTER = SolverConfig(eps_outer=1e-4)

_COSTS: dict[str, float] = {}


def _charge(*names: str) -> float:
    return sum(_COSTS.pop(n, 0.0) for n in names)


def _report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {name}: {status}  {detail}")


@pytest.fixture(scope="module")
def synth():
    t0 = time.perf_counter()
    ds = generate_synthetic(2500, 100, 50, 1.2, 7)
    train, test = split_dataset(ds, 0.2, 7)
    train = augment_bias(train)
    test = augment_bias(test)
    stats = compute_label_stats(train)
    _COSTS["synth"] = time.perf_counter() - t0
    assert train.n == 2000 and train.n_labels == 50
    return train, test, stats


@pytest.fixture(scope="module")
def runs_tight(synth):
    train, test, stats = synth
    t0 = time.perf_counter()
    out = {}
    for name, st in [
        ("zero", InitStrategy("zero")),
        ("bias2", InitStrategy("bias", bias_scale=2.0)),
        ("ovap", InitStrategy("ovap")),
        ("aop", InitStrategy("aop")),
    ]:
        cfg = TrainConfig(init=st, solver=TIGHT)
        out[name] = train_ova(train, stats, cfg)
    _COSTS["runs_tight"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def runs_default(synth):
    train, test, stats = synth
    t0 = time.perf_counter()
    out = {}
    for name, st in [
        ("zero", InitStrategy("zero")),
        ("aop", InitStrategy("aop")),
        ("bias1", InitStrategy("bias", bias_scale=1.0)),
        ("bias2", InitStrategy("bias", bias_scale=2.0)),
    ]:
        cfg = TrainConfig(init=st)
        out[name] = train_ova(train, stats, cfg)
    _COSTS["runs_default"] = time.perf_counter() - t0
    return out


@pytest.fixture(scope="module")
def runs_logistic(synth):
    train, test, stats = synth
    t0 = time.perf_counter()
    out = {}
    for name, st in [("zero", InitStrategy("zero")), ("aop", InitStrategy("aop"))]:
        cfg = TrainConfig(loss=LOG, init=st, solver=TIGHT_OUTER)
        out[name] = train_ova(train, stats, cfg)
    _COSTS["runs_logistic"] = time.perf_counter() - t0
    return out


def test_criterion_1_gradient_and_hvp_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    h = 1e-5
    worst_grad = 0.0
    worst_hvp = 0.0
    for trial in range(50):
        loss = SQH if trial % 2 == 0 else LOG
        n = int(rng.integers(5, 61))
        d = int(rng.integers(2, 21))
        p = random_problem(rng, n=n, d=d, loss=loss, c=float(rng.uniform(0.5, 2.0)))
        while True:
            w = rng.normal(0, 0.5, d)
            if loss is LOG or np.min(np.abs(margins(p, w) - 1.0)) > 1e-3:
                break
        g = gradient(p, w)
        fd = np.zeros(d)
        for k in range(d):
            e = np.zeros(d)
            e[k] = h
            fd[k] = (objective(p, w + e) - objective(p, w - e)) / (2 * h)
        worst_grad = max(
            worst_grad, float(np.linalg.norm(g - fd)) / max(1.0, float(np.linalg.norm(g)))
        )

        m = margins(p, w)
        act = active_set(loss, m)
        D = dense_matrix(p.features)
        H = np.eye(d)
        for i in act:
            H += p.c * ddphi(loss, m[i]) * np.outer(D[i], D[i])
        v = rng.normal(0, 1, d)
        worst_hvp = max(worst_hvp, float(np.max(np.abs(hessian_vec(p, w, v, act) - H @ v))))
    elapsed = time.perf_counter() - t0
    ok = worst_grad <= 1e-6 and worst_hvp <= 1e-10 and elapsed < 5.0
    _report(1, "gradient/HVP correctness", ok,
            f"grad rel err {worst_grad:.2e} (<=1e-6), hvp abs err {worst_hvp:.2e} (<=1e-10), {elapsed:.2f}s (<5s)")
    assert worst_grad <= 1e-6
    assert worst_hvp <= 1e-10
    assert elapsed < 5.0


def test_criterion_2_closed_form_solve():
    t0 = time.perf_counter()
    errs = {}
    for n in (1, 10, 1000):
        X = make_matrix([{0: 1.0}] * n, 1)
        p = BinaryProblem(X, np.full(n, -1.0))
        g0 = float(np.linalg.norm(gradient(p, np.zeros(1))))
        w, _ = newton_cg(p, np.zeros(1), SolverConfig(), g0)
        errs[n] = abs(w[0] - (-2.0 * n / (1 + 2.0 * n)))
    elapsed = time.perf_counter() - t0
    ok = all(e < 1e-2 for e in errs.values()) and elapsed < 1.0
    _report(2, "closed-form all-negative solve", ok,
            f"errors {({k: float(f'{v:.2e}') for k, v in errs.items()})}, {elapsed:.2f}s (<1s)")
    assert all(e < 1e-2 for e in errs.values())
    assert elapsed < 1.0


def test_criterion_3_aop_constraints():
    t0 = time.perf_counter()
    rng = np.random.default_rng(33)
    checked = 0
    worst = 0.0
    while checked < 1000:
        d = int(rng.integers(2, 25))
        xbar = rng.uniform(0.05, 1.0, d)
        nz = np.sort(rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False))
        pbar = SparseVector(nz.astype(np.int64), rng.uniform(0.05, 1.0, nz.size))
        n = int(rng.integers(5, 2000))
        p_count = int(rng.integers(1, n))
        pd = pbar.to_dense(d)
        aa, bb, cc = float(pd @ pd), float(xbar @ pd), float(xbar @ xbar)
        if abs(bb * bb - aa * cc) <= 1e-6 * aa * cc:
            continue
        if abs(bb) <= 1e-6 * np.sqrt(aa * cc):
            continue
        s = float(rng.uniform(0.2, 3.0))
        t = float(rng.uniform(-4.0, -0.2))
        pre = AopPrecompute(xbar=xbar, xbar_sq=cc, n=n)
        w0 = aop_init(pbar, p_count, pre, s, t)
        nbar = (n * xbar - p_count * pd) / (n - p_count)
        worst = max(worst, abs(float(w0 @ pd) - s) / abs(s))
        worst = max(worst, abs(float(w0 @ nbar) - t) / abs(t))
        checked += 1

    # degenerate branch 1: means linearly dependent -> zero vector
    pre = AopPrecompute(xbar=np.array([0.5, 0.25]), xbar_sq=0.3125, n=10)
    w_par = aop_init(SparseVector.from_dict({0: 1.0, 1: 0.5}), 2, pre, 1.0, -2.0)
    deg1_ok = bool(np.all(w_par == 0.0))
    # degenerate branch 2: orthogonal means -> substituted formulas
    pre = AopPrecompute(xbar=np.array([0.0, 2.0]), xbar_sq=4.0, n=10)
    w_orth = aop_init(SparseVector.from_dict({0: 1.0}), 3, pre, 1.0, -2.0)
    u = 1.0 / 1.0
    v = (7 * -2.0 + 3 * 1.0) / (10 * 4.0)
    expect = u * np.array([1.0, 0.0]) + v * np.array([0.0, 2.0])
    deg2_ok = bool(np.allclose(w_orth, expect, rtol=1e-12))

    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and deg1_ok and deg2_ok and elapsed < 2.0
    _report(3, "aop constraint satisfaction", ok,
            f"1000 draws, worst rel err {worst:.2e} (<=1e-8), degenerate branches "
            f"{'ok' if deg1_ok and deg2_ok else 'BROKEN'}, {elapsed:.2f}s (<2s)")
    assert worst <= 1e-8
    assert deg1_ok and deg2_ok
    assert elapsed < 2.0


def test_criterion_4_convexity_init_independence(synth, runs_tight):
    t0 = time.perf_counter()
    train, test, stats = synth
    objs = {name: np.array([r.final_loss for r in rep.labels]) for name, (_, rep) in runs_tight.items()}
    p1 = {name: evaluate(model, test, [1]).p_at[1] for name, (model, _) in runs_tight.items()}
    stack = np.stack(list(objs.values()))
    rel = (stack.max(axis=0) - stack.min(axis=0)) / np.maximum(np.abs(stack.min(axis=0)), 1e-12)
    p1_spread = max(p1.values()) - min(p1.values())
    elapsed = time.perf_counter() - t0 + _charge("synth", "runs_tight")
    ok = float(rel.max()) <= 1e-3 and p1_spread <= 0.005 and elapsed < 120.0
    _report(4, "convexity / init-independence", ok,
            f"max objective spread {rel.max():.2e} (<=1e-3), P@1 spread {p1_spread:.4f} (<=0.005), "
            f"{elapsed:.1f}s (<120s)")
    assert float(rel.max()) <= 1e-3
    assert p1_spread <= 0.005
    assert elapsed < 120.0


def test_criterion_5_implicit_mining_speedup_proxy(runs_default):
    t0 = time.perf_counter()
    zero_rep = runs_default["zero"][1]
    aop_rep = runs_default["aop"][1]
    ratio = aop_rep.total_hvp_touches / zero_rep.total_hvp_touches
    zero_f0 = zero_rep.iterations["active_fraction_mean"][0]
    aop_f0 = aop_rep.iterations["active_fraction_mean"][0]
    elapsed = time.perf_counter() - t0 + _charge("synth", "runs_default")
    ok = ratio <= 0.6 and aop_f0 < 0.5 and zero_f0 == 1.0 and elapsed < 120.0
    _report(5, "implicit-negative-mining speedup proxy", ok,
            f"hvp-touch ratio {ratio:.4f} (<=0.6), iter-0 active fraction aop {aop_f0:.4f} (<0.5) "
            f"zero {zero_f0} (==1.0), {elapsed:.1f}s (<120s)")
    assert ratio <= 0.6
    assert aop_f0 < 0.5
    assert zero_f0 == 1.0
    assert elapsed < 120.0


def test_criterion_6_bias_pathology(runs_default):
    t0 = time.perf_counter()
    means = {}
    for name in ("bias1", "bias2"):
        rep = runs_default[name][1]
        firsts = [r.first_step_size for r in rep.labels if r.first_step_size is not None]
        means[name] = float(np.mean(firsts))
    elapsed = time.perf_counter() - t0 + _charge("synth", "runs_default")
    ok = means["bias1"] < 0.2 and means["bias2"] > 0.5 and elapsed < 120.0
    _report(6, "bias-initialization pathology", ok,
            f"mean first accepted multiplier: bias(1.0) {means['bias1']:.4f} (<0.2), "
            f"bias(2.0) {means['bias2']:.4f} (>0.5), {elapsed:.1f}s (<120s)")
    assert means["bias1"] < 0.2
    assert means["bias2"] > 0.5
    assert elapsed < 120.0


def test_criterion_7_monotonicity_and_determinism(synth, runs_default, tmp_path):
    t0 = time.perf_counter()
    train, test, stats = synth
    violations = 0
    n_traces = 0
    for _, rep in runs_default.values():
        for trace in rep.labels:
            seq = trace.losses()
            n_traces += 1
            if any(b > a for a, b in zip(seq, seq[1:])):
                violations += 1

    paths = []
    for threads in (1, 8):
        model, _ = train_ova(
            train, stats, TrainConfig(init=InitStrategy("aop"), threads=threads)
        )
        path = tmp_path / f"threads{threads}.model"
        save_model(model, path)
        paths.append(path)
    identical = paths[0].read_bytes() == paths[1].read_bytes()

    elapsed = time.perf_counter() - t0 + _charge("synth", "runs_default")
    ok = violations == 0 and identical and elapsed < 120.0
    _report(7, "monotonicity and determinism", ok,
            f"{n_traces} traces non-increasing ({violations} violations), model files "
            f"byte-identical across threads 1 vs 8: {identical}, {elapsed:.1f}s (<120s)")
    assert violations == 0
    assert identical
    assert elapsed < 120.0


def test_criterion_8_logistic_contrast(runs_logistic):
    t0 = time.perf_counter()
    ratio = (
        runs_logistic["aop"][1].total_hvp_touches
        / runs_logistic["zero"][1].total_hvp_touches
    )
    elapsed = time.perf_counter() - t0 + _charge("synth", "runs_logistic")
    ok = ratio >= 0.8 and elapsed < 180.0
    _report(8, "logistic-loss contrast", ok,
            f"aop/zero hvp-touch ratio {ratio:.4f} (>=0.8, no active-set sparsity to exploit), "
            f"{elapsed:.1f}s (<180s)")
    assert ratio >= 0.8
    assert elapsed < 180.0


def test_criterion_9_optional_real_dataset():
    root = os.environ.get("XOVA_EURLEX_DIR")
    if not root:
        _report(9, "optional real-data check", True, "SKIPPED (XOVA_EURLEX_DIR not set)")
        pytest.skip("set XOVA_EURLEX_DIR to a directory with train.txt/test.txt to run")
    train = augment_bias(load_xmc_dataset(os.path.join(root, "train.txt")))
    test = augment_bias(load_xmc_dataset(os.path.join(root, "test.txt")))
    stats = compute_label_stats(train)
    results = {}
    for name, st in [
        ("zero", InitStrategy("zero")),
        ("bias2", InitStrategy("bias", bias_scale=2.0)),
        ("ovap", InitStrategy("ovap")),
        ("aop", InitStrategy("aop")),
    ]:
        cfg = TrainConfig(init=st, threads=os.cpu_count() or 1)
        t0 = time.perf_counter()
        model, rep = train_ova(train, stats, cfg)
        wall = time.perf_counter() - t0
        results[name] = (wall, evaluate(model, test, [1, 3, 5]))
    faster = results["aop"][0] < results["zero"][0]
    spreads = {
        k: max(r.p_at[k] for _, r in results.values())
        - min(r.p_at[k] for _, r in results.values())
        for k in (1, 3, 5)
    }
    consistent = all(v <= 0.005 for v in spreads.values())
    ok = faster and consistent
    _report(9, "optional real-data check", ok,
            f"aop {results['aop'][0]:.1f}s vs zero {results['zero'][0]:.1f}s, "
            f"P@k spreads {spreads}")
    assert faster
    assert consistent
