import gc
from dataclasses import fields, replace

import numpy as np
import pytest

import xova.losses as losses_mod
import xova.solver as solver_mod
from xova.errors import ConfigError, NumericalError
from xova.losses import MarginLoss, active_set
from xova.solver import (
    BinaryProblem,
    SolverConfig,
    TERM_CONVERGED,
    TERM_LINE_SEARCH,
    TERM_NUMERICAL,
    backtracking_search,
    cg_solve,
    grad0_norm,
    gradient,
    hessian_vec,
    margins,
    newton_cg,
    objective,
)
from xova.sparse import SparseVector, SparseMatrix

from conftest import dense_matrix, make_matrix, random_problem

SQH = MarginLoss.SQUARED_HINGE
LOG = MarginLoss.LOGISTIC


def all_negative_1d(n):
    X = make_matrix([{0: 1.0}] * n, 1)
    return BinaryProblem(X, np.full(n, -1.0))


def grad0_ref(problem):
    return float(np.linalg.norm(gradient(problem, np.zeros(problem.dim))))


class TestConfig:
    def test_defaults(self):
        cfg = SolverConfig()
        assert cfg.eps_outer == 0.01
        assert cfg.eps_cg == 0.5
        assert cfg.precond_alpha == 0.01
        assert cfg.ls_beta == 0.5
        assert cfg.ls_eta == 0.01
        assert cfg.ls_max_steps == 20

    def test_only_the_settable_knobs_are_fields(self):
        assert [f.name for f in fields(SolverConfig)] == [
            "eps_outer", "eps_cg", "max_outer", "max_cg"
        ]
        with pytest.raises(TypeError):
            SolverConfig(ls_beta=0.3)
        assert SolverConfig().ls_beta == 0.5

    @pytest.mark.parametrize(
        "bad",
        [
            {"eps_outer": 0.0},
            {"eps_cg": -1.0},
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ConfigError):
            SolverConfig(**bad)

    @pytest.mark.parametrize("bad", [{"max_outer": 0}, {"max_cg": 0}])
    def test_iteration_limits_validated(self, bad):
        with pytest.raises(ConfigError, match="iteration limits"):
            SolverConfig(**bad)


class TestObjective:
    def test_single_instance_at_zero(self):
        p = BinaryProblem(make_matrix([{0: 1.0}], 2), np.array([1.0]))
        assert objective(p, np.zeros(2)) == 1.0

    def test_pure_regularizer_when_margins_large(self):
        p = BinaryProblem(make_matrix([{0: 1.0}], 2), np.array([1.0]))
        w = np.array([5.0, 1.0])  # margin 5 > 1
        assert objective(p, w) == 0.5 * 26.0

    def test_one_dimensional_minimum_value(self):
        # closed-form minimizer of 0.5 w^2 + (1 + w)^2 is w = -2/3, value 1/3
        p = all_negative_1d(1)
        assert objective(p, np.array([-2.0 / 3.0])) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_loss_weight_scales(self):
        p = BinaryProblem(make_matrix([{0: 1.0}], 1), np.array([1.0]), SQH, c=3.0)
        assert objective(p, np.zeros(1)) == 3.0


class TestGradient:
    def test_single_instance_at_zero(self):
        p = BinaryProblem(make_matrix([{0: 1.0}], 2), np.array([1.0]))
        np.testing.assert_allclose(gradient(p, np.zeros(2)), [-2.0, 0.0])

    def test_reduces_to_regularizer(self):
        p = BinaryProblem(make_matrix([{0: 1.0}], 2), np.array([1.0]))
        w = np.array([4.0, -1.0])
        np.testing.assert_allclose(gradient(p, w), w)

    @pytest.mark.parametrize("loss", [SQH, LOG])
    def test_finite_differences(self, loss, rng):
        h = 1e-5
        for _ in range(10):
            p = random_problem(rng, n=25, d=8, loss=loss, c=0.7)
            while True:
                w = rng.normal(0, 0.5, 8)
                if loss is LOG or np.min(np.abs(margins(p, w) - 1.0)) > 1e-3:
                    break
            g = gradient(p, w)
            fd = np.zeros_like(w)
            for k in range(w.shape[0]):
                e = np.zeros_like(w)
                e[k] = h
                fd[k] = (objective(p, w + e) - objective(p, w - e)) / (2 * h)
            err = np.linalg.norm(g - fd) / max(1.0, np.linalg.norm(g))
            assert err <= 1e-6

    @pytest.mark.parametrize("c", [0.1, 0.3, 1.0, 10.0])
    @pytest.mark.parametrize("loss", [SQH, LOG])
    def test_grad0_norm_is_gradient_norm_at_zero(self, loss, c, rng):
        # the stopping reference skips the X @ 0 pass but must keep every bit
        for _ in range(10):
            p = random_problem(rng, n=30, d=8, loss=loss, c=c)
            assert grad0_norm(p) == float(np.linalg.norm(gradient(p, np.zeros(p.dim))))


class TestHessianVec:
    def test_single_active_instance(self):
        p = BinaryProblem(make_matrix([{0: 1.0}], 2), np.array([1.0]))
        w = np.zeros(2)
        act = active_set(p.loss, margins(p, w))
        out = hessian_vec(p, w, np.array([1.0, 1.0]), act)
        np.testing.assert_allclose(out, [3.0, 1.0])

    def test_empty_active_set_is_identity(self):
        p = BinaryProblem(make_matrix([{0: 1.0}], 2), np.array([1.0]))
        w = np.array([5.0, 0.0])  # margin 5, inactive
        act = active_set(p.loss, margins(p, w))
        assert act.size == 0
        d = np.array([0.3, -0.7])
        np.testing.assert_allclose(hessian_vec(p, w, d, act), d)

    @pytest.mark.parametrize("loss", [SQH, LOG])
    def test_dense_assembly_oracle(self, loss, rng):
        for _ in range(8):
            n, d = 30, 10
            p = random_problem(rng, n=n, d=d, loss=loss, c=1.3)
            w = rng.normal(0, 0.6, d)
            m = margins(p, w)
            act = active_set(loss, m)
            D = dense_matrix(p.features)
            from xova.losses import ddphi

            H = np.eye(d)
            for i in act:
                H += p.c * ddphi(loss, m[i]) * np.outer(D[i], D[i])
            v = rng.normal(0, 1, d)
            np.testing.assert_allclose(hessian_vec(p, w, v, act), H @ v, atol=1e-10)


def separable_problem(rng, n, d):
    """A random problem whose signs are those of ``X @ w_true``: every margin
    along ``w_true`` is positive, so scaling it sweeps the active share."""
    p = random_problem(rng, n=n, d=d, loss=SQH)
    w_true = rng.normal(size=d)
    signs = np.where(p.features.matvec(w_true) >= 0.0, 1.0, -1.0)
    return BinaryProblem(p.features, signs, SQH), w_true


def other_labels(rng, p, count):
    """``count`` more labels over ``p``'s matrix, each with its own signs and iterate."""
    signs = [rng.choice([-1.0, 1.0], size=p.n) for _ in range(count)]
    return [BinaryProblem(p.features, s, p.loss, p.c) for s in signs], [
        rng.normal(size=p.dim) for _ in range(count)
    ]


def block_kernels(problems, ws, ds):
    """Each label's active-row gradient and HVP, from one block product each."""
    X = problems[0].features
    m = [margins(q, w) for q, w in zip(problems, ws)]
    idx = [active_set(q.loss, mk) for q, mk in zip(problems, m)]
    labels = list(zip(problems, m, idx))
    coef = [solver_mod._grad_coef(q.loss, q.c, mk, q.signs, i) for q, mk, i in labels]
    dd = [solver_mod._curvature(q.loss, q.c, mk, i) for q, mk, i in labels]
    G = solver_mod._gradient(X, np.stack(ws), idx, coef)
    H = solver_mod._hvp(X, idx, dd, np.stack(ds), range(len(problems)))
    return G, H, idx, dd


def overflowing_squares_problem(rng):
    """Row 0 sits far past the margin and its square overflows: over the
    whole X its curvature term would be 0 * inf = nan."""
    dense = rng.normal(size=(20, 3))
    dense[:, 2] = 1.0
    dense[0] = [1e200, 0.0, 1.0]
    X = SparseMatrix.stack([np.arange(3)] * 20, list(dense), 3)
    signs = rng.choice([-1.0, 1.0], size=20)
    signs[0] = 1.0
    return BinaryProblem(X, signs), np.array([1e-190, 0.0, 0.0])


class TestActiveRows:
    @pytest.mark.parametrize("mostly_active", [False, True])
    def test_active_row_sums_equal_the_full_sums(self, rng, mostly_active):
        # the kernels sum over the whole X with weight 0 on each label's
        # inactive rows, for a block of labels at once; the bits are those of
        # the label's own sum over every row, and of a copy of its active rows
        lo, hi = (0.5, 1.0) if mostly_active else (0.0, 0.5)
        for _ in range(10):
            p, w_true = separable_problem(rng, n=60, d=10)
            w = next(
                t * w_true
                for t in np.geomspace(1e-3, 1e3, 400)
                if lo < active_set(SQH, margins(p, t * w_true)).size / p.n < hi
            )
            others, other_ws = other_labels(rng, p, 2)
            d = rng.normal(size=p.dim)
            G, H, idx, dd = block_kernels([p] + others, [w] + other_ws, [d, d, -d])
            assert np.array_equal(G[0], gradient(p, w))
            act = active_set(SQH, margins(p, w))
            assert np.array_equal(H[0], hessian_vec(p, w, d, act))
            rows = p.features.submatrix(idx[0])
            assert np.array_equal(H[0], d + rows.rmatvec(dd[0] * rows.matvec(d)))

    def test_inactive_row_whose_product_overflows(self, rng):
        # row 0 is inactive and <x_0, d> overflows; rows 1 and 2 are active
        X = make_matrix([{0: 1e150}, {1: 1.0}, {1: -1.0}], 2)
        p = BinaryProblem(X, np.array([1.0, 1.0, -1.0]))
        w = np.array([1.0, 0.0])
        act = active_set(SQH, margins(p, w))
        assert act.tolist() == [1, 2]
        d = np.array([1e160, 1.0])
        assert hessian_vec(p, w, d, act).tolist() == [1e160, 5.0]
        # beside a label for which row 0 is active
        other = BinaryProblem(X, np.array([-1.0, 1.0, 1.0]))
        _, H, _, _ = block_kernels([p, other], [w, w], [d, d])
        assert H[0].tolist() == [1e160, 5.0]

    def test_inactive_row_whose_squares_overflow(self, rng):
        p, w0 = overflowing_squares_problem(rng)
        with np.errstate(over="ignore"):
            w, trace = newton_cg(p, w0, SolverConfig(), 1.0)
        assert trace.outer_iters > 0
        # the same label beside two others, in one block
        others, _ = other_labels(rng, p, 2)
        with np.errstate(over="ignore"):
            W, traces = solver_mod.newton_cg_block(
                [p] + others, np.stack([w0, -w0, 0 * w0]), SolverConfig(), [1.0] * 3
            )
        trace_block = traces[0]
        assert trace_block.failure is None
        assert W[0].tobytes() == w.tobytes()
        assert (trace_block.outer_iters, trace_block.hvp_touches) == (
            trace.outer_iters, trace.hvp_touches
        )

    @pytest.mark.filterwarnings("error")
    def test_overflowing_squares_warn_nothing(self, rng):
        # the squares overflow to inf quietly; the diagonal's fallback to a
        # copy of the active rows handles the 0 * inf
        p, w0 = overflowing_squares_problem(rng)
        _, trace = newton_cg(p, w0, SolverConfig(), 1.0)
        assert trace.outer_iters > 0


def cg_one(g, hvp, cfg, diag):
    """``cg_solve`` on a block of one: the direction, the iterations, the error."""
    res = cg_solve(g[None], lambda D, rows: hvp(D[0])[None], cfg, diag[None])
    return res.p[0], res.iters, res.errors[0]


class TestCgSolve:
    def test_identity_system_one_iteration(self):
        g = np.array([1.0, -2.0, 0.5])
        p, iters, _ = cg_one(g, lambda d: d, SolverConfig(), np.ones(3))
        np.testing.assert_allclose(p, -g)
        assert iters == 1

    def test_two_by_two_residual_bound(self):
        H = np.array([[4.0, 1.0], [1.0, 3.0]])
        g = np.array([1.0, 2.0])
        p, _, _ = cg_one(g, lambda d: H @ d, SolverConfig(), np.diag(H).copy())
        assert np.linalg.norm(H @ p + g) <= 0.5 * np.linalg.norm(g)
        # direct solve oracle: tight tolerance recovers -H^-1 g
        p_tight, _, _ = cg_one(g, lambda d: H @ d, SolverConfig(eps_cg=1e-12), np.diag(H).copy())
        np.testing.assert_allclose(p_tight, np.linalg.solve(H, -g), atol=1e-10)

    def test_zero_gradient(self):
        p, iters, _ = cg_one(np.zeros(4), lambda d: d, SolverConfig(), np.ones(4))
        assert iters == 0
        np.testing.assert_allclose(p, 0.0)

    def test_descent_direction(self, rng):
        A = rng.normal(0, 1, (6, 6))
        H = A @ A.T + np.eye(6)
        g = rng.normal(0, 1, 6)
        p, _, _ = cg_one(g, lambda d: H @ d, SolverConfig(), np.diag(H).copy())
        assert float(g @ p) < 0.0

    def test_non_positive_curvature_reported(self):
        _, iters, error = cg_one(np.array([1.0]), lambda d: -d, SolverConfig(), np.ones(1))
        assert iters == 0
        assert isinstance(error, NumericalError) and "non-positive curvature" in str(error)


class TestLineSearch:
    def test_direct_substitution(self):
        # L(w) = 10, slope -4, L(w + dir) = 8 <= 10 + 0.01 * (-4) = 9.96
        lam, ok = backtracking_search(lambda lam: 8.0, 10.0, -4.0, SolverConfig())
        assert ok and lam == 1.0

    def test_all_trials_fail(self):
        lam, ok = backtracking_search(lambda lam: 11.0, 10.0, -4.0, SolverConfig())
        assert not ok and lam == 0.0

    def test_geometric_schedule(self):
        # accepted only once the multiplier drops below 0.3
        lam, ok = backtracking_search(
            lambda lam: 10.0 if lam > 0.3 else 9.0, 10.0, -4.0, SolverConfig()
        )
        assert ok and lam == 0.25

    def test_full_step_in_quadratic_regime(self, rng):
        # all instances active along the whole segment: exact Newton step,
        # unit multiplier accepted
        X = make_matrix([{0: 1.0}] * 2 + [{0: 0.8, 1: 0.3}] * 2, 2)
        signs = np.array([1.0, -1.0, 1.0, -1.0])
        p = BinaryProblem(X, signs)
        w = np.array([0.2, -0.1])
        cfg = SolverConfig(eps_cg=1e-12, max_cg=100)
        m = margins(p, w)
        assert np.all(m < 1.0)
        act = active_set(p.loss, m)
        g = gradient(p, w)
        direction, _, _ = cg_one(g, lambda d: hessian_vec(p, w, d, act), cfg, np.ones(2))
        assert np.all(margins(p, w + direction) < 1.0)  # stays on the quadratic piece
        lam, ok = backtracking_search(
            lambda lam: objective(p, w + lam * direction), objective(p, w),
            float(np.dot(g, direction)), cfg,
        )
        assert ok and lam == 1.0


class TestNewtonCg:
    def test_block_problems_must_share_x_loss_and_c(self, rng, monkeypatch):
        p = random_problem(rng, n=20, d=5, loss=SQH)
        X = p.features
        same_values = SparseMatrix(X.indptr.copy(), X.indices.copy(), X.data.copy(), X.n_cols)
        assert same_values == X
        steps = []
        monkeypatch.setattr(losses_mod, "active_set", lambda *a: steps.append(a))
        for other in (
            BinaryProblem(same_values, p.signs, p.loss, p.c),
            BinaryProblem(X, p.signs, LOG, p.c),
            BinaryProblem(X, p.signs, p.loss, 2.0 * p.c),
        ):
            with pytest.raises(ConfigError):
                solver_mod.newton_cg_block([p, other], np.zeros((2, 5)), SolverConfig(), [1.0] * 2)
        assert steps == []

    @pytest.mark.parametrize("n", [1, 10, 1000])
    def test_closed_form_all_negative(self, n):
        p = all_negative_1d(n)
        w, trace = newton_cg(p, np.zeros(1), SolverConfig(), grad0_ref(p))
        assert abs(w[0] - (-2.0 * n / (1 + 2.0 * n))) < 1e-2
        assert trace.termination == TERM_CONVERGED

    def test_already_optimal_returns_unchanged(self):
        p = all_negative_1d(4)
        w_star, _ = newton_cg(p, np.zeros(1), SolverConfig(eps_outer=1e-8), grad0_ref(p))
        w, trace = newton_cg(p, w_star, SolverConfig(), grad0_ref(p))
        assert trace.outer_iters == 0
        np.testing.assert_array_equal(w, w_star)

    def test_separable_toy_margins(self, rng):
        rows = []
        signs = []
        for _ in range(20):
            rows.append({0: rng.uniform(1.5, 2.5), 2: 1.0})
            signs.append(1.0)
        for _ in range(20):
            rows.append({1: rng.uniform(1.5, 2.5), 2: 1.0})
            signs.append(-1.0)
        p = BinaryProblem(make_matrix(rows, 3), np.array(signs))
        w, trace = newton_cg(p, np.zeros(3), SolverConfig(), grad0_ref(p))
        assert trace.termination == TERM_CONVERGED
        assert np.min(margins(p, w)) >= 1.0 - 0.1

    def test_loss_sequence_non_increasing(self, rng):
        p = random_problem(rng, n=60, d=12, loss=SQH)
        _, trace = newton_cg(p, rng.normal(0, 1, 12), SolverConfig(eps_outer=1e-5), grad0_ref(p))
        losses = trace.losses()
        assert all(b <= a for a, b in zip(losses, losses[1:]))

    def test_implicit_mining_equivalence(self, rng, monkeypatch):
        def every_row(loss, m):
            return np.arange(m.shape[0], dtype=np.int64)

        for loss in (SQH, LOG):
            p = random_problem(rng, n=50, d=10, loss=loss)
            g0 = grad0_ref(p)
            cfg = SolverConfig(eps_outer=1e-6)
            w_active, _ = newton_cg(p, np.zeros(10), cfg, g0)
            with monkeypatch.context() as mp:
                mp.setattr(losses_mod, "active_set", every_row)
                w_full, _ = newton_cg(p, np.zeros(10), cfg, g0)
            fa = objective(p, w_active)
            ff = objective(p, w_full)
            assert abs(fa - ff) <= 1e-10 * max(1.0, abs(fa))

    def test_init_independence_small(self, rng):
        p = random_problem(rng, n=40, d=8, loss=SQH)
        g0 = grad0_ref(p)
        cfg = SolverConfig(eps_outer=1e-4, eps_cg=1e-8, max_cg=200)
        w1, _ = newton_cg(p, np.zeros(8), cfg, g0)
        w2, _ = newton_cg(p, rng.normal(0, 2, 8), cfg, g0)
        f1, f2 = objective(p, w1), objective(p, w2)
        assert abs(f1 - f2) <= 1e-3 * max(abs(f1), abs(f2))

    def test_active_set_recomputed_once_per_step(self, rng, monkeypatch):
        calls = {"n": 0}
        real = losses_mod.active_set

        def counting(loss, m):
            calls["n"] += 1
            return real(loss, m)

        monkeypatch.setattr(losses_mod, "active_set", counting)
        p = random_problem(rng, n=40, d=8, loss=SQH)
        _, trace = newton_cg(p, np.zeros(8), SolverConfig(), grad0_ref(p))
        assert trace.termination == TERM_CONVERGED
        # once per gradient: every accepted step, plus the final stopping test
        assert calls["n"] == trace.outer_iters + 1

    def test_trace_bookkeeping(self, rng):
        p = random_problem(rng, n=50, d=10, loss=SQH)
        _, trace = newton_cg(p, np.zeros(10), SolverConfig(), grad0_ref(p))
        assert trace.hvp_touches == sum(r.cg_iters * r.active_count for r in trace.rows)
        assert all(0 < r.step_size <= 1.0 for r in trace.rows)
        assert all(0 <= r.active_fraction <= 1.0 for r in trace.rows)
        assert trace.rows[0].active_fraction == 1.0  # all margins zero at w0 = 0

    def test_non_finite_data_raises_numerical_error(self):
        X = make_matrix([{0: 1e308}, {0: 1.0}], 1)
        p = BinaryProblem(X, np.array([1.0, -1.0]))
        with pytest.raises(NumericalError):
            newton_cg(p, np.zeros(1), SolverConfig(), 1.0)

    def test_cg_failure_keeps_accepted_steps(self, rng, monkeypatch):
        p = random_problem(rng, n=40, d=8, loss=SQH)
        g0 = grad0_ref(p)
        cfg = SolverConfig(eps_outer=1e-6)
        w_one, _ = newton_cg(p, np.zeros(8), replace(cfg, max_outer=1), g0)
        real, calls = solver_mod.cg_solve, []

        def second_call_fails(*args):
            result = real(*args)
            calls.append(1)
            if len(calls) == 2:
                result.errors[0] = NumericalError("injected CG failure")
            return result

        monkeypatch.setattr(solver_mod, "cg_solve", second_call_fails)
        with pytest.raises(NumericalError) as info:
            newton_cg(p, np.zeros(8), cfg, g0)
        np.testing.assert_array_equal(info.value.w_last, w_one)
        assert info.value.trace.outer_iters == 1

    def test_cg_failure_is_the_label_trace_failure(self, rng, monkeypatch):
        p = random_problem(rng, n=40, d=8, loss=SQH)
        others, _ = other_labels(rng, p, 2)
        problems = [p] + others
        real, calls = solver_mod.cg_solve, []

        def label_1_fails_in_its_first_step(*args):
            result = real(*args)
            calls.append(1)
            if len(calls) == 1:  # every label takes the first step; row 1 is label 1
                result.errors[1] = NumericalError("injected CG failure")
            return result

        monkeypatch.setattr(solver_mod, "cg_solve", label_1_fails_in_its_first_step)
        W, traces = solver_mod.newton_cg_block(
            problems, np.zeros((3, 8)), SolverConfig(), [grad0_ref(q) for q in problems]
        )
        assert [t.failure for t in traces] == [None, "injected CG failure", None]
        assert [t.termination for t in traces] == [TERM_CONVERGED, TERM_NUMERICAL, TERM_CONVERGED]
        assert traces[1].outer_iters == 0
        np.testing.assert_array_equal(W[1], 0.0)

    def test_newton_cg_raises_the_trace_failure(self, rng, monkeypatch):
        p = random_problem(rng, n=40, d=8, loss=SQH)
        real_cg, real_block, returned = solver_mod.cg_solve, solver_mod.newton_cg_block, []

        def fails(*args):
            result = real_cg(*args)
            result.errors[0] = NumericalError("injected CG failure")
            return result

        def spy(*args):
            returned.append(real_block(*args))
            return returned[-1]

        monkeypatch.setattr(solver_mod, "cg_solve", fails)
        monkeypatch.setattr(solver_mod, "newton_cg_block", spy)
        with pytest.raises(NumericalError) as info:
            newton_cg(p, rng.normal(size=8), SolverConfig(), grad0_ref(p))
        [(W, [trace])] = returned
        assert str(info.value) == trace.failure == "injected CG failure"
        assert info.value.trace is trace
        assert np.shares_memory(info.value.w_last, W)
        assert info.value.w_last.tobytes() == W[0].tobytes()

    def test_step_loss_is_the_accepted_trial_value(self, rng, monkeypatch):
        real, accepted = solver_mod.backtracking_search, []

        def spy(eval_at, loss0, g_dot_dir, cfg):
            values = []

            def recording(lam):
                values.append(eval_at(lam))
                return values[-1]

            lam, ok = real(recording, loss0, g_dot_dir, cfg)
            if ok:
                accepted.append(values[-1])
            return lam, ok

        monkeypatch.setattr(solver_mod, "backtracking_search", spy)
        rows = []
        for loss in (SQH, LOG):
            p = random_problem(rng, n=50, d=10, loss=loss)
            start = rng.normal(0, 3, 10)
            _, trace = newton_cg(p, start, SolverConfig(eps_outer=1e-6), grad0_ref(p))
            rows += trace.rows
        assert any(r.step_size < 1.0 for r in rows)  # some step took more than one trial
        assert np.array([r.loss for r in rows]).tobytes() == np.array(accepted).tobytes()

    def test_a_solve_leaves_no_reference_cycles(self, rng):
        # a cycle would hold each step's directions and margins until the
        # collector ran, and raise the peak memory of a training run
        p = random_problem(rng, n=50, d=10, loss=LOG)
        gc.collect()
        gc.disable()
        try:
            newton_cg(p, rng.normal(0, 3, 10), SolverConfig(eps_outer=1e-6), grad0_ref(p))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_line_search_failure_reported(self, rng, monkeypatch):
        # force every trial to fail by making the schedule empty of winners
        p = random_problem(rng, n=20, d=5, loss=SQH)
        monkeypatch.setattr(
            solver_mod, "backtracking_search", lambda *a, **k: (0.0, False)
        )
        _, trace = newton_cg(p, np.zeros(5), SolverConfig(), grad0_ref(p))
        assert trace.termination == TERM_LINE_SEARCH

    def test_signs_validated(self):
        X = make_matrix([{0: 1.0}], 1)
        with pytest.raises(ValueError):
            BinaryProblem(X, np.array([0.5]))
        with pytest.raises(Exception):
            BinaryProblem(X, np.array([1.0, -1.0]))
