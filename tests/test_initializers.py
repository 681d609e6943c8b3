import numpy as np
import pytest

import xova.solver as solver_mod
from xova.dataio import augment_bias, compute_label_stats, generate_synthetic
from xova.errors import ConfigError
from xova.initializers import (
    INIT_KINDS,
    AopPrecompute,
    InitStrategy,
    aop_init,
    bias_init,
    ovap_solve,
    zero_init,
)
from xova.losses import MarginLoss, active_set
from xova.solver import (
    TERM_NUMERICAL, BinaryProblem, SolverConfig, gradient, margins, objective
)
from xova.sparse import SparseVector
from xova.trainer import TrainConfig

from conftest import make_matrix


class TestStrategy:
    def test_kinds_validated(self):
        with pytest.raises(ConfigError):
            InitStrategy(kind="magic")
        with pytest.raises(ConfigError):
            InitStrategy(kind="ovap", ovap_stop_rel=1.5)

    @pytest.mark.parametrize(
        "bad",
        [
            {"bias_scale": True},
            {"aop_s": True},
            {"aop_t": False},
            {"ovap_stop_rel": True},
            {"kind": "bias", "bias_scale": np.float32(2)},
            {"bias_scale": "1"},
            {"aop_s": np.float32(1)},
            {"aop_t": "-2"},
            {"ovap_stop_rel": None},
            {"kind": "ovap", "ovap_stop_rel": np.float32(0.1)},
            {"kind": "bias", "bias_scale": 10**400},
        ],
    )
    def test_numbers_are_not_bools(self, bad):
        with pytest.raises(ConfigError):
            InitStrategy(**bad)

    @pytest.mark.parametrize("loss", list(MarginLoss), ids=lambda loss: loss.token)
    @pytest.mark.parametrize("kind", INIT_KINDS)
    def test_params_by_default(self, kind, loss):
        t = {MarginLoss.SQUARED_HINGE: -2.0, MarginLoss.LOGISTIC: -3.0}[loss]
        expected = {"zero": {}, "bias": {"scale": 1.0}, "ovap": {"stop_rel": 0.01},
                    "aop": {"s": 1.0, "t": t}}[kind]
        assert InitStrategy(kind).params(loss) == expected

    @pytest.mark.parametrize("loss", list(MarginLoss), ids=lambda loss: loss.token)
    @pytest.mark.parametrize(
        "kind, given, expected",
        [
            ("zero", {"bias_scale": 2.0, "aop_s": 2.0}, {}),
            ("bias", {"bias_scale": 2.0}, {"scale": 2.0}),
            ("ovap", {"ovap_stop_rel": 0.1}, {"stop_rel": 0.1}),
            ("aop", {"aop_s": 2.0, "aop_t": -1.0}, {"s": 2.0, "t": -1.0}),
        ],
        ids=INIT_KINDS,
    )
    def test_params_given(self, kind, given, expected, loss):
        assert InitStrategy(kind, **given).params(loss) == expected

    def test_aop_s_is_a_number(self):
        with pytest.raises(ConfigError, match="aop margin targets must be finite"):
            InitStrategy("aop", aop_s=None)

    def test_s_not_greater_than_t_warns(self, recwarn):
        st = InitStrategy(kind="aop", aop_s=-3.0, aop_t=-1.0)
        assert st.params(MarginLoss.SQUARED_HINGE) == {"s": -3.0, "t": -1.0}
        assert len(recwarn) == 0  # resolving the targets is pure
        cfg = TrainConfig(init=st)
        assert cfg.settings()["init_params"] == {"s": -3.0, "t": -1.0}
        assert cfg.digest()
        [w] = recwarn.list  # once, at construction
        assert issubclass(w.category, UserWarning) and "margin targets" in str(w.message)
        assert w.filename == __file__

    def test_no_warning_by_default(self, recwarn):
        TrainConfig()
        TrainConfig(init=InitStrategy(kind="aop"))
        TrainConfig(init=InitStrategy(kind="zero", aop_s=-3.0, aop_t=-1.0))
        assert len(recwarn) == 0


class TestZeroAndBias:
    def test_zero(self):
        np.testing.assert_array_equal(zero_init(3), [0.0, 0.0, 0.0])

    def test_objective_at_zero_counts_every_instance(self):
        p = BinaryProblem(make_matrix([{0: 1.0}] * 7, 2), np.full(7, -1.0), c=2.0)
        assert objective(p, zero_init(2)) == 2.0 * 7

    def test_gradient_at_zero_formula(self, rng):
        n, d = 12, 5
        rows = [{int(k): float(rng.uniform(0.1, 1)) for k in rng.choice(d, 2, replace=False)} for _ in range(n)]
        signs = rng.choice([-1.0, 1.0], n)
        p = BinaryProblem(make_matrix(rows, d), signs)
        expected = np.zeros(d)
        for row, y in zip(rows, signs):
            for k, v in row.items():
                expected[k] += -2.0 * y * v
        np.testing.assert_allclose(gradient(p, zero_init(d)), expected, rtol=1e-12)

    def test_bias_scale_one_zeroes_negatives(self):
        ds = augment_bias(generate_synthetic(60, 10, 4, 1.2, 3))
        w = bias_init(ds.dim, ds.bias_index, 1.0)
        signs = np.full(ds.n, -1.0)
        p = BinaryProblem(ds.features, signs)
        m = margins(p, w)
        # every instance classified negative with margin exactly one
        np.testing.assert_allclose(m, 1.0)
        assert objective(p, w) == pytest.approx(0.5, rel=1e-12)  # regularizer only

    def test_bias_scale_two_leaves_negatives_inactive(self):
        ds = augment_bias(generate_synthetic(60, 10, 4, 1.2, 3))
        w = bias_init(ds.dim, ds.bias_index, 2.0)
        p = BinaryProblem(ds.features, np.full(ds.n, -1.0))
        m = margins(p, w)
        np.testing.assert_allclose(m, 2.0)
        assert active_set(p.loss, m).size == 0

    def test_bias_scale_zero_is_zero_init(self):
        np.testing.assert_array_equal(bias_init(4, 3, 0.0), zero_init(4))

    def test_missing_bias_index(self):
        with pytest.raises(ConfigError, match="bias"):
            bias_init(4, None, 1.0)

    @pytest.mark.parametrize("index", [-1, 4])
    def test_bias_index_out_of_range(self, index):
        with pytest.raises(ConfigError, match=f"bias index {index} out of range"):
            bias_init(4, index, 1.0)


class TestOvap:
    def test_bias_only_closed_form(self):
        X = make_matrix([{0: 1.0}], 1)
        w = ovap_solve(X, MarginLoss.SQUARED_HINGE, 1.0, SolverConfig(), 0.01)[0]
        assert w[0] == pytest.approx(-2.0 / 3.0, abs=1e-2)

    def test_large_n_approaches_minus_one(self):
        n = 2000
        X = make_matrix([{0: 1.0}] * n, 1)
        w = ovap_solve(X, MarginLoss.SQUARED_HINGE, 1.0, SolverConfig(), 1e-6)[0]
        assert w[0] == pytest.approx(-2.0 * n / (1 + 2.0 * n), abs=1e-4)
        assert abs(w[0] + 1.0) < 1e-3

    def test_gradient_contract(self):
        ds = augment_bias(generate_synthetic(120, 12, 5, 1.2, 4))
        p = BinaryProblem(ds.features, np.full(ds.n, -1.0))
        g0 = float(np.linalg.norm(gradient(p, np.zeros(ds.dim))))
        w = ovap_solve(ds.features, p.loss, p.c, SolverConfig(), 0.01)[0]
        assert float(np.linalg.norm(gradient(p, w))) <= 0.01 * g0

    def test_overflow_is_a_failure_on_the_trace(self):
        # the rows of the CLI's huge.txt plus a bias column: the gradient at
        # the zero start overflows, so no step is accepted
        rows = [{0: 1e308, 1: 1.0, 2: 1.0}, {0: 1e308, 1: 2.0, 2: 1.0}, {1: 1.0, 2: 1.0}]
        X = make_matrix(rows, 3)
        w, trace = ovap_solve(X, MarginLoss.SQUARED_HINGE, 1.0, SolverConfig(), 0.01)
        assert trace.termination == TERM_NUMERICAL
        assert trace.failure == "non-finite gradient"
        np.testing.assert_array_equal(w, np.zeros(3))

    def test_is_one_newton_cg_call(self, monkeypatch):
        # looked up on the solver module at call time, so a wrapper sees the shared solve
        calls = []
        real = solver_mod.newton_cg

        def spy(problem, w0, cfg):
            calls.append((problem, w0, cfg))
            return real(problem, w0, cfg)

        monkeypatch.setattr(solver_mod, "newton_cg", spy)
        X = make_matrix([{0: 1.0, 1: 2.0}, {1: 1.0}], 2)
        w, trace = ovap_solve(X, MarginLoss.LOGISTIC, 0.5, SolverConfig(), 0.1)
        [(problem, w0, cfg)] = calls
        assert problem.signs.tolist() == [-1.0, -1.0]
        assert (problem.features, problem.loss, problem.c) == (X, MarginLoss.LOGISTIC, 0.5)
        assert w0.tolist() == [0.0, 0.0] and cfg.eps_outer == 0.1
        # the shared trace's stopping reference is the solver's pass over X
        assert trace.grad0_ref == float(np.linalg.norm(gradient(problem, np.zeros(2))))
        assert trace.outer_iters > 0


def brute_force_nbar(pbar, p_count, pre):
    n_neg = pre.n - p_count
    return (pre.n * pre.xbar - p_count * pbar.to_dense(pre.xbar.shape[0])) / n_neg


class TestAop:
    def test_worked_example(self):
        pre = AopPrecompute(xbar=np.array([0.5, 0.5]), n=10)
        pbar = SparseVector.from_dict({0: 1.0})
        w0 = aop_init(pbar, 1, pre, 1.0, -2.0)
        np.testing.assert_allclose(w0, [1.0, -4.4], rtol=1e-12)
        nbar = brute_force_nbar(pbar, 1, pre)
        assert float(w0 @ pbar.to_dense(2)) == pytest.approx(1.0, rel=1e-12)
        assert float(w0 @ nbar) == pytest.approx(-2.0, rel=1e-12)

    def test_degenerate_parallel_returns_zero(self):
        pre = AopPrecompute(xbar=np.array([0.5, 0.0]), n=10)
        pbar = SparseVector.from_dict({0: 1.0})  # pbar is 2 * xbar
        np.testing.assert_array_equal(aop_init(pbar, 1, pre, 1.0, -2.0), [0.0, 0.0])

    def test_degenerate_orthogonal_formulas(self):
        pre = AopPrecompute(xbar=np.array([0.0, 1.0]), n=10)
        pbar = SparseVector.from_dict({0: 1.0})
        s, t = 1.0, -2.0
        w0 = aop_init(pbar, 1, pre, s, t)
        u = s / 1.0
        v = (9 * t + 1 * s) / (10 * 1.0)
        np.testing.assert_allclose(w0, [u, v], rtol=1e-12)

    def test_no_positives_fallback(self):
        pre = AopPrecompute(xbar=np.array([1.0, 1.0]), n=10)
        empty = SparseVector(np.empty(0, dtype=np.int64), np.empty(0))
        w0 = aop_init(empty, 0, pre, 1.0, -2.0)
        np.testing.assert_allclose(w0, [-1.0, -1.0])
        assert float(w0 @ pre.xbar) == pytest.approx(-2.0)

    def test_no_positives_and_a_zero_mean_give_zero(self):
        pre = AopPrecompute(xbar=np.zeros(2), n=10)
        empty = SparseVector(np.empty(0, dtype=np.int64), np.empty(0))
        assert aop_init(empty, 0, pre, 1.0, -2.0).tolist() == [0.0, 0.0]

    def test_empty_precompute_rejected(self):
        pre = AopPrecompute(xbar=np.array([1.0]), n=0)
        empty = SparseVector(np.empty(0, dtype=np.int64), np.empty(0))
        with pytest.raises(ConfigError, match="empty dataset"):
            aop_init(empty, 0, pre, 1.0, -2.0)

    def test_constraints_random(self, rng):
        # smaller sibling of the acceptance-scale sweep
        for _ in range(200):
            d = int(rng.integers(2, 20))
            xbar = rng.uniform(0.1, 1.0, d)
            nz = np.sort(rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False))
            pbar = SparseVector(nz.astype(np.int64), rng.uniform(0.1, 1.0, nz.size))
            n = int(rng.integers(5, 500))
            p_count = int(rng.integers(1, n))
            pre = AopPrecompute(xbar=xbar, n=n)
            pd = pbar.to_dense(d)
            den = (xbar @ pd) ** 2 - (pd @ pd) * (xbar @ xbar)
            if abs(den) <= 1e-6 * (pd @ pd) * (xbar @ xbar):
                continue
            if abs(xbar @ pd) <= 1e-6 * np.linalg.norm(xbar) * np.linalg.norm(pd):
                continue
            s = float(rng.uniform(0.2, 3.0))
            t = float(rng.uniform(-4.0, -0.2))
            w0 = aop_init(pbar, p_count, pre, s, t)
            nbar = brute_force_nbar(pbar, p_count, pre)
            assert float(w0 @ pd) == pytest.approx(s, rel=1e-8)
            assert float(w0 @ nbar) == pytest.approx(t, rel=1e-8)

    def test_minimum_norm_span(self, rng):
        d = 12
        xbar = rng.uniform(0.1, 1.0, d)
        dense = rng.uniform(0.1, 1.0, d) * (rng.random(d) < 0.5)
        nz = np.flatnonzero(dense)
        pbar = SparseVector(nz, dense[nz]) if nz.size else SparseVector.from_dict({0: 1.0})
        pre = AopPrecompute(xbar=xbar, n=50)
        w0 = aop_init(pbar, 5, pre, 1.0, -2.0)
        basis = np.stack([pbar.to_dense(d), xbar])
        q, _ = np.linalg.qr(basis.T)
        residual = w0 - q @ (q.T @ w0)
        assert np.linalg.norm(residual) <= 1e-8 * np.linalg.norm(w0)

    def test_index_dtype_does_not_change_bits(self, rng):
        d = 30
        xbar = rng.uniform(0.1, 1.0, d)
        pre = AopPrecompute(xbar=xbar, n=50)
        nz = np.sort(rng.choice(d, size=12, replace=False))
        values = rng.uniform(0.1, 1.0, nz.size)
        w32 = aop_init(SparseVector(nz.astype(np.int32), values), 5, pre, 1.0, -2.0)
        w64 = aop_init(SparseVector(nz.astype(np.int64), values), 5, pre, 1.0, -2.0)
        assert w32.tobytes() == w64.tobytes()

    def test_pure_function_determinism(self):
        pre = AopPrecompute(xbar=np.array([0.5, 0.5]), n=10)
        pbar = SparseVector.from_dict({0: 1.0})
        a = aop_init(pbar, 1, pre, 1.0, -2.0)
        b = aop_init(pbar, 1, pre, 1.0, -2.0)
        np.testing.assert_array_equal(a, b)

    def test_precompute_derives_xbar_sq(self, rng):
        for xbar in (rng.uniform(0.1, 1.0, 37), np.zeros(3), rng.normal(size=5) * 1e150):
            pre = AopPrecompute(xbar=xbar, n=10)
            assert pre.xbar_sq.hex() == float(np.dot(xbar, xbar)).hex()
        with pytest.raises(TypeError):
            AopPrecompute(xbar=np.ones(2), n=10, xbar_sq=2.0)

    @pytest.mark.filterwarnings("error")
    def test_an_overflowing_xbar_sq_is_inf_without_a_warning(self):
        # the overflow of <xbar, xbar> makes every aop start non-finite,
        # which each label's solve reports
        pre = AopPrecompute(xbar=np.array([1e200, 1.0]), n=3)
        assert pre.xbar_sq == np.inf


class TestSparsityEffect:
    def test_active_fraction_below_one_for_every_label(self):
        ds = augment_bias(generate_synthetic(400, 40, 20, 1.2, 7))
        stats = compute_label_stats(ds)
        pre = AopPrecompute(xbar=stats.xbar, n=stats.n)
        for j in range(ds.n_labels):
            pos = stats.positives[j]
            if pos.size == 0:
                continue
            w0 = aop_init(stats.pbar.row(j), int(pos.size), pre, 1.0, -2.0)
            signs = np.full(ds.n, -1.0)
            signs[pos] = 1.0
            p = BinaryProblem(ds.features, signs)
            frac = active_set(p.loss, margins(p, w0)).size / ds.n
            assert frac < 1.0  # at the zero vector the fraction is exactly 1
