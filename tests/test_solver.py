import gc
import math
from dataclasses import asdict, fields, replace

import numpy as np
import pytest

import xova.losses as losses_mod
import xova.solver as solver_mod
from xova.dataio import Dataset, compute_label_stats
from xova.errors import ConfigError, DimensionMismatchError
from xova.initializers import AopPrecompute, aop_init, ovap_solve
from xova.losses import MarginLoss, active_set
from xova.solver import (
    BinaryProblem,
    SolverConfig,
    TERM_CONVERGED,
    TERM_LINE_SEARCH,
    TERM_MAX_OUTER,
    TERM_NUMERICAL,
    backtracking_search,
    cg_solve,
    gradient,
    hessian_vec,
    margins,
    newton_cg,
    norm,
    objective,
)
from xova.sparse import SparseMatrix, SparseVector
from xova.trainer import grad0_closed_form

from conftest import dense_matrix, make_matrix, random_problem

SQH = MarginLoss.SQUARED_HINGE
LOG = MarginLoss.LOGISTIC


def all_negative_1d(n):
    X = make_matrix([{0: 1.0}] * n, 1)
    return BinaryProblem(X, np.full(n, -1.0))


def grad0_ref(problem):
    return float(np.linalg.norm(gradient(problem, np.zeros(problem.dim))))


def solve_with_ref(p, w0, cfg, ref):
    """``newton_cg`` with the stopping reference ``ref`` in place of its pass over X."""
    W, [trace] = solver_mod.newton_cg_block(
        p.features, p.loss, p.c, [p.signs], w0[None], cfg, [ref]
    )
    return W[0], trace


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
        assert [f.name for f in fields(SolverConfig)] == ["eps_outer", "eps_cg"]
        assert SolverConfig.max_outer == 100
        assert SolverConfig.max_cg == 250
        with pytest.raises(TypeError):
            SolverConfig(ls_beta=0.3)
        assert SolverConfig().ls_beta == 0.5

    @pytest.mark.parametrize(
        "bad",
        [
            {"eps_outer": 0.0},
            {"eps_cg": -1.0},
            {"eps_outer": True},
            {"eps_cg": True},
            {"eps_outer": np.float32(0.1)},
            {"eps_outer": "0.1"},
            {"eps_outer": 10**400},
            {"eps_cg": None},
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ConfigError):
            SolverConfig(**bad)

    @pytest.mark.parametrize(
        "bad",
        [
            {"loss": "squared-hinge"},
            {"c": -1.0},
            {"c": 0.0},
            {"c": np.inf},
            {"c": True},
            {"c": None},
            {"c": np.float32(1.0)},
        ],
    )
    def test_binary_problem_validation(self, bad):
        with pytest.raises(ConfigError):
            BinaryProblem(make_matrix([{0: 1.0}], 1), np.ones(1), **bad)


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


class TestNorm:
    @pytest.mark.parametrize("v, want", [
        ([2e160, 0.0], 2e160),  # squaring overflows, the norm does not
        ([1.5e308, 1.5e308], np.inf),  # the norm itself is beyond the float range
        ([np.inf, 1.0], np.inf),
    ])
    def test_scaled_where_squaring_overflows(self, v, want):
        assert norm(np.array(v)) == want

    def test_the_plain_norm_wherever_it_is_finite(self, rng):
        for v in (rng.normal(size=50), rng.normal(size=7) * 1e150, np.zeros(3)):
            assert norm(v) == float(np.linalg.norm(v))


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
    def test_over_any_rows_given(self, loss, rng):
        # 36 of 40 rows: the curvature weights are then read at every row,
        # and the four rows left out must still weigh nothing
        p = random_problem(rng, n=40, d=6, loss=loss)
        w, d = rng.normal(0, 0.1, 6), rng.normal(size=6)
        rows = np.sort(rng.choice(40, size=36, replace=False))
        sub = p.features.submatrix(rows)
        dd = solver_mod._curvature(loss, p.c, margins(p, w), rows)
        assert np.array_equal(hessian_vec(p, w, d, rows), d + sub.rmatvec(dd * sub.matvec(d)))

    def test_direction_length_checked(self):
        p = BinaryProblem(make_matrix([{0: 1.0}], 2), np.array([1.0]))
        with pytest.raises(DimensionMismatchError, match="vector length 3 != n_cols 2"):
            hessian_vec(p, np.zeros(2), np.ones(3), np.array([0]))

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


def block_kernels(problems, ws, ds, rows=None):
    """Each label's active-row gradient, and the HVPs of the directions
    ``ds`` of the labels ``rows`` (every label by default), from one block
    product each, with the curvature weights built once as a step builds them."""
    X = problems[0].features
    m = [margins(q, w) for q, w in zip(problems, ws)]
    idx = [active_set(q.loss, mk) for q, mk in zip(problems, m)]
    labels = list(zip(problems, m, idx))
    dd = [solver_mod._curvature(q.loss, q.c, mk, i) for q, mk, i in labels]
    buffers = solver_mod.Buffers(X.n_rows, X.n_cols, len(problems))

    def coef(j, rows):
        return solver_mod._grad_coef(problems[j].loss, problems[j].c, m[j], problems[j].signs, rows)

    def curvature(j, rows):
        return solver_mod._curvature(problems[j].loss, problems[j].c, m[j], rows)

    G = solver_mod._gradient(X, np.stack(ws), idx, coef, buffers)
    DD = solver_mod._weights(X.n_rows, idx, curvature, buffers)
    rows = range(len(problems)) if rows is None else rows
    H = solver_mod._hvp(X, DD, idx, np.stack(ds), rows, buffers)
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

    def test_hvp_over_a_strict_subset_of_the_block(self, rng):
        # once CG has finished a label, the HVP runs over the labels still
        # live, here rows 0 and 2 of 3: each column must take its own label's
        # curvature weights, and keep the bits of that label's own HVP and of
        # a copy of its active rows
        def check(problems, ws, ds, rows):
            _, H, idx, dd = block_kernels(problems, ws, ds, rows)
            for h, d, k in zip(H, ds, rows):
                q, w = problems[k], ws[k]
                assert np.array_equal(h, hessian_vec(q, w, d, active_set(q.loss, margins(q, w))))
                active = q.features.submatrix(idx[k])
                assert np.array_equal(h, d + active.rmatvec(dd[k] * active.matvec(d)))
            return H

        for _ in range(5):
            p, w_true = separable_problem(rng, n=60, d=10)
            others, other_ws = other_labels(rng, p, 2)
            check([p] + others, [0.1 * w_true] + other_ws, rng.normal(size=(2, p.dim)), [0, 2])
        # the label of row 2 has the overflowing inactive row of the test
        # above; for label 1 that row is active, with a nonzero weight
        X = make_matrix([{0: 1e150}, {1: 1.0}, {1: -1.0}], 2)
        problems = [BinaryProblem(X, np.array(s)) for s in
                    ([1.0, -1.0, 1.0], [-1.0, 1.0, 1.0], [1.0, 1.0, -1.0])]
        ws = [np.zeros(2), np.array([1.0, 0.0]), np.array([1.0, 0.0])]
        H = check(problems, ws, np.array([[0.5, -2.0], [1e160, 1.0]]), [0, 2])
        assert np.isfinite(H[0]).all() and H[1].tolist() == [1e160, 5.0]

    def test_an_active_row_whose_weight_underflows_keeps_its_nan(self):
        # under the logistic loss every row is active; row 0's curvature
        # weight underflows to exactly 0 while <x_0, d> overflows, so its
        # 0 * inf is NaN in the label's own sum too. The mend copies the
        # label's active rows, not the rows whose weights are nonzero
        X = make_matrix([{0: 1e160, 1: 1.0}, {1: 1.0}, {1: -1.0}, {0: 1.0, 1: 0.5}], 2)
        p = BinaryProblem(X, np.array([1.0, 1.0, -1.0, -1.0]), LOG)
        w = np.array([1e-150, 0.0])
        m = margins(p, w)
        act = active_set(LOG, m)
        assert act.tolist() == [0, 1, 2, 3]
        assert solver_mod._curvature(LOG, 1.0, m, act).tolist() == [0.0, 0.25, 0.25, 0.25]
        d = np.array([1e160, 1.0])
        with np.errstate(invalid="ignore"):
            assert np.isnan(hessian_vec(p, w, d, act)).all()
            # as the second label of a block whose first has weight 0.25 on
            # every row, when CG iterates on the second alone
            other = BinaryProblem(X, np.array([-1.0, 1.0, -1.0, 1.0]), LOG)
            _, [h], _, _ = block_kernels([other, p], [np.zeros(2), w], [d], rows=[1])
        assert np.isnan(h).all()
        # the rows whose weights are nonzero would give a finite product
        nonzero = X.submatrix(act[1:])
        assert np.isfinite(d + nonzero.rmatvec(0.25 * nonzero.matvec(d))).all()

    def test_inactive_row_whose_squares_overflow(self, rng):
        p, w0 = overflowing_squares_problem(rng)
        w, trace = solve_with_ref(p, w0, SolverConfig(), 1.0)
        assert trace.outer_iters > 0
        # the same label beside two others, in one block
        others, _ = other_labels(rng, p, 2)
        W, traces = solver_mod.newton_cg_block(
            p.features, p.loss, p.c, [q.signs for q in [p] + others],
            np.stack([w0, -w0, 0 * w0]), SolverConfig(), [1.0] * 3,
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
        _, trace = solve_with_ref(p, w0, SolverConfig(), 1.0)
        assert trace.outer_iters > 0


# (_SPARSE_BELOW, _DENSE_FROM) that force each path of solver._weights
WEIGHT_PATHS = {"sparse": (np.inf, np.inf), "scatter": (0.0, np.inf), "dense": (0.0, 0.0)}
# per named share of n rows, the active rows per label, and the path it takes
SHARES = {
    "none": (lambda n: 0, "sparse"),
    "one_row": (lambda n: 1, "sparse"),
    "below_sparse": (lambda n: math.ceil(solver_mod._SPARSE_BELOW * n) - 1, "sparse"),
    "at_sparse": (lambda n: math.ceil(solver_mod._SPARSE_BELOW * n), "scatter"),
    "below_dense": (lambda n: math.ceil(solver_mod._DENSE_FROM * n) - 1, "scatter"),
    "at_dense": (lambda n: math.ceil(solver_mod._DENSE_FROM * n), "dense"),
    "every_row": (lambda n: n, "dense"),
}


def force_path(monkeypatch, path):
    below, dense_from = WEIGHT_PATHS[path]
    monkeypatch.setattr(solver_mod, "_SPARSE_BELOW", below)
    monkeypatch.setattr(solver_mod, "_DENSE_FROM", dense_from)


def counted_block(rng, count, loss=SQH, n=200, b=3):
    """``b`` labels over one ``n``-row matrix, each with ``count`` active rows
    at random, two of which, where there are two, at a margin of +0 and of
    -0. Column ``k`` holds label ``k``'s margins before its signs, and
    ``w_k`` is its unit vector; the four other columns are random."""
    dense = np.zeros((n, b + 4))
    dense[:, b:] = rng.normal(size=(n, 4)) * (rng.random((n, 4)) < 0.6)
    signs = rng.choice([-1.0, 1.0], size=(b, n))
    for k in range(b):
        active = rng.choice(n, size=count, replace=False)
        dense[:, k] = 2.0 * signs[k]  # a margin of 2: inactive
        dense[active, k] = rng.uniform(-1.0, 0.9, size=count)
        dense[active[:2], k] = 0.0  # a margin of y * (+0)
        signs[k, active[:2]] = [1.0, -1.0][:count]
    X = make_matrix([{j: v for j, v in enumerate(row) if v != 0.0} for row in dense], b + 4)
    problems = [BinaryProblem(X, y, loss) for y in signs]
    return problems, list(np.eye(b + 4)[:b])


def curvature_and_diag(problems, ws):
    """A step's curvature weights over the block, and its diagonal, as bytes."""
    X = problems[0].features
    m = [margins(q, w) for q, w in zip(problems, ws)]
    idx = [active_set(q.loss, mk) for q, mk in zip(problems, m)]

    def curvature(j, rows):
        return solver_mod._curvature(problems[j].loss, problems[j].c, m[j], rows)

    buffers = solver_mod.Buffers(X.n_rows, X.n_cols, len(problems))
    DD = solver_mod._weights(X.n_rows, idx, curvature, buffers)
    return DD.tobytes(), solver_mod._diag(X, DD, idx, buffers).tobytes()


class TestWeightPaths:
    @pytest.mark.parametrize("share", SHARES)
    def test_the_path_follows_the_share(self, share, monkeypatch):
        # a block of 3 labels over 200 rows. The path is read from the kernel
        # that ran: the sparse product, else the rows at which each label's
        # values were asked for, every row (a slice) on the label-major path.
        # The gradient takes one of three paths; the curvature, which builds
        # only the weights, one of two.
        count, path = SHARES[share][0](200), SHARES[share][1]
        idx = [np.arange(count)] * 3
        X, buffers = make_matrix([{0: 1.0}] * 200, 1), solver_mod.Buffers(200, 1, 3)
        sparse_rows = []
        product = SparseMatrix.rmatvec_sparse
        monkeypatch.setattr(SparseMatrix, "rmatvec_sparse",
                            lambda self, rows, *args, **kw:
                            sparse_rows.append(rows) or product(self, rows, *args, **kw))

        def taken(build) -> str:
            calls, sparse_rows[:] = [], []

            def values(j, rows):
                calls.append((j, rows))
                return np.zeros(200)[rows]

            build(values)
            assert [j for j, _ in calls] == [0, 1, 2]
            if sparse_rows:
                assert len(sparse_rows) == 1 and sparse_rows[0] is idx
                assert all(r is i for (_, r), i in zip(calls, idx))
                return "sparse"
            if all(isinstance(rows, slice) for _, rows in calls):
                return "dense"
            assert all(r is i for (_, r), i in zip(calls, idx))
            return "scatter"

        assert taken(lambda values: solver_mod._gradient(
            X, np.zeros((3, 1)), idx, values, buffers)) == path
        assert taken(lambda values: solver_mod._weights(
            200, idx, values, buffers)) == path.replace("sparse", "scatter")

    @pytest.mark.parametrize("loss, share", [(SQH, s) for s in SHARES] + [(LOG, "every_row")])
    def test_every_path_has_the_bits_of_the_one_label_kernels(self, rng, monkeypatch, loss, share):
        problems, ws = counted_block(rng, SHARES[share][0](200), loss)
        ds = list(rng.normal(size=(len(problems), problems[0].dim)))
        acts = [active_set(q.loss, margins(q, w)) for q, w in zip(problems, ws)]
        if loss is SQH:
            assert [a.size for a in acts] == [SHARES[share][0](200)] * 3
        # the one-label kernels, each on the path its own share takes
        want = [(gradient(q, w).tobytes(), hessian_vec(q, w, d, a).tobytes())
                for q, w, d, a in zip(problems, ws, ds, acts)]
        built = set()
        for path in WEIGHT_PATHS:
            force_path(monkeypatch, path)
            G, H, _, dd = block_kernels(problems, ws, ds)
            assert [(g.tobytes(), h.tobytes()) for g, h in zip(G, H)] == want
            built.add(curvature_and_diag(problems, ws))
        assert len(built) == 1
        # the diagonal has the bits of a copy of each label's active rows
        diag = np.frombuffer(built.pop()[1]).reshape(len(problems), -1)
        for k, (q, a) in enumerate(zip(problems, acts)):
            assert np.array_equal(diag[k], 1.0 + q.features.submatrix(a).rmatvec_squared(dd[k]))

    def test_an_inactive_row_whose_square_overflows_mends_alike(self, rng, monkeypatch):
        # row 0 is inactive for label 0, and its square and <x_0, d> overflow:
        # the NaN that 0 * inf makes is mended to the same bits on every path
        p, w0 = overflowing_squares_problem(rng)
        others, other_ws = other_labels(rng, p, 2)
        problems, ws = [p] + others, [w0] + other_ws
        d = np.array([1e160, 1.0, 1.0])
        act = active_set(SQH, margins(p, w0))
        assert 0 not in act
        want = hessian_vec(p, w0, d, act)
        assert np.isfinite(want).all()
        built = set()
        for path in WEIGHT_PATHS:
            force_path(monkeypatch, path)
            G, H, _, _ = block_kernels(problems, ws, [d, d, -d])
            assert H[0].tobytes() == want.tobytes()
            assert G[0].tobytes() == gradient(p, w0).tobytes()
            built.add((G.tobytes(), H.tobytes(), *curvature_and_diag(problems, ws)))
        assert len(built) == 1
        assert np.isfinite(np.frombuffer(built.pop()[3]).reshape(3, -1)[0]).all()


def cg_one(g, hvp, cfg, diag):
    """``cg_solve`` on a block of one: the direction, the iterations, the error."""
    buffers = solver_mod.Buffers(0, g.shape[0], 1)
    res = cg_solve(g[None], lambda D, rows: hvp(D[0])[None], cfg, diag[None], buffers)
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
        assert error == "non-positive curvature -1 in CG iteration 1"

    def test_an_infinite_diagonal_is_named(self):
        # M^-1 is 0 where the only nonzero gradient entry is: the first
        # direction would be 0, and its curvature 0
        g, diag = np.array([-2e160, 0.0]), np.array([np.inf, 5.0])
        p, iters, error = cg_one(g, lambda d: d, SolverConfig(), diag)
        assert error == "zero preconditioned gradient in CG: the Hessian diagonal is too large"
        assert iters == 0 and p.tolist() == [0.0, 0.0]

    @pytest.mark.parametrize("g, hvp, iters, message", [
        # finite, but its square overflows
        ([1e200], lambda d: d, 0, "non-finite preconditioned gradient norm in CG"),
        ([1.0], lambda d: d * np.inf, 0, "non-finite curvature in CG iteration 1"),
        # d'Hd = 1, so alpha = 1, but the residual's second entry becomes -1e200
        ([1.0, 0.0], lambda d: np.array([-1.0, 1e200]), 1,
         "non-finite residual in CG iteration 1"),
    ], ids=["gradient_norm", "curvature", "residual"])
    def test_non_finite_values_reported(self, g, hvp, iters, message):
        _, got_iters, error = cg_one(np.array(g), hvp, SolverConfig(), np.ones(len(g)))
        assert (got_iters, error) == (iters, message)


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
        cfg = SolverConfig(eps_cg=1e-12)
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
    @pytest.mark.parametrize("n", [1, 10, 1000])
    def test_closed_form_all_negative(self, n):
        p = all_negative_1d(n)
        w, trace = newton_cg(p, np.zeros(1), SolverConfig())
        assert abs(w[0] - (-2.0 * n / (1 + 2.0 * n))) < 1e-2
        assert trace.termination == TERM_CONVERGED

    def test_already_optimal_returns_unchanged(self):
        p = all_negative_1d(4)
        w_star, _ = newton_cg(p, np.zeros(1), SolverConfig(eps_outer=1e-8))
        w, trace = newton_cg(p, w_star, SolverConfig())
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
        w, trace = newton_cg(p, np.zeros(3), SolverConfig())
        assert trace.termination == TERM_CONVERGED
        assert np.min(margins(p, w)) >= 1.0 - 0.1

    def test_loss_sequence_non_increasing(self, rng):
        p = random_problem(rng, n=60, d=12, loss=SQH)
        _, trace = newton_cg(p, rng.normal(0, 1, 12), SolverConfig(eps_outer=1e-5))
        losses = trace.losses()
        assert all(b <= a for a, b in zip(losses, losses[1:]))

    def test_implicit_mining_equivalence(self, rng, monkeypatch):
        def every_row(loss, m):
            return np.arange(m.shape[0], dtype=np.int64)

        for loss in (SQH, LOG):
            p = random_problem(rng, n=50, d=10, loss=loss)
            cfg = SolverConfig(eps_outer=1e-6)
            w_active, _ = newton_cg(p, np.zeros(10), cfg)
            with monkeypatch.context() as mp:
                mp.setattr(losses_mod, "active_set", every_row)
                w_full, _ = newton_cg(p, np.zeros(10), cfg)
            fa = objective(p, w_active)
            ff = objective(p, w_full)
            assert abs(fa - ff) <= 1e-10 * max(1.0, abs(fa))

    def test_init_independence_small(self, rng):
        p = random_problem(rng, n=40, d=8, loss=SQH)
        cfg = SolverConfig(eps_outer=1e-4, eps_cg=1e-8)
        w1, _ = newton_cg(p, np.zeros(8), cfg)
        w2, _ = newton_cg(p, rng.normal(0, 2, 8), cfg)
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
        _, trace = newton_cg(p, np.zeros(8), SolverConfig())
        assert trace.termination == TERM_CONVERGED
        # once per gradient: every accepted step, plus the final stopping test
        assert calls["n"] == trace.outer_iters + 1

    def test_trace_bookkeeping(self, rng):
        p = random_problem(rng, n=50, d=10, loss=SQH)
        _, trace = newton_cg(p, np.zeros(10), SolverConfig())
        assert trace.hvp_touches == sum(r.cg_iters * r.active_count for r in trace.rows)
        assert all(0 < r.step_size <= 1.0 for r in trace.rows)
        assert all(0 <= r.active_fraction <= 1.0 for r in trace.rows)
        assert trace.rows[0].active_fraction == 1.0  # all margins zero at w0 = 0

    def test_non_finite_data_is_a_numerical_failure(self):
        X = make_matrix([{0: 1e308}, {0: 1.0}], 1)
        p = BinaryProblem(X, np.array([1.0, -1.0]))
        _, trace = solve_with_ref(p, np.zeros(1), SolverConfig(), 1.0)
        assert trace.termination == TERM_NUMERICAL

    @pytest.mark.parametrize("ref", [np.inf, np.nan])
    def test_a_non_finite_reference_is_a_numerical_failure(self, ref):
        # |grad| <= eps * inf would hold at any finite gradient, and nan never
        p = BinaryProblem(make_matrix([{0: 1.0}, {0: 2.0}], 1), np.array([1.0, -1.0]))
        w, trace = solve_with_ref(p, np.array([0.5]), SolverConfig(), ref)
        assert trace.termination == TERM_NUMERICAL
        assert trace.failure == "non-finite stopping reference"
        assert trace.outer_iters == 0 and np.isfinite(trace.final_grad_norm)
        assert w.tolist() == [0.5]

    def test_a_cg_failure_keeps_the_last_gradient_norm(self):
        # |grad(0)| = 2e160 is finite; the curvature 2e320 is not, so CG fails
        X = make_matrix([{0: 1e160}, {0: 1.0}], 1)
        p = BinaryProblem(X, np.array([1.0, -1.0]))
        w, trace = solve_with_ref(p, np.zeros(1), SolverConfig(), 2e160)
        assert trace.failure == (
            "zero preconditioned gradient in CG: the Hessian diagonal is too large"
        )
        assert (trace.outer_iters, trace.hvp_touches, trace.final_grad_norm) == (0, 0, 2e160)
        assert w.tolist() == [0.0]

    def test_an_empty_block_returns_at_once(self):
        X = make_matrix([{0: 1.0}, {1: 2.0}], 2)
        W, traces = solver_mod.newton_cg_block(X, SQH, 1.0, [], np.empty((0, 2)), SolverConfig(), [])
        assert W.shape == (0, 2) and traces == []

    def test_a_label_at_max_outer_keeps_its_trace_row_gradient_norms(self, rng, monkeypatch):
        p = random_problem(rng, n=40, d=8, loss=SQH)
        monkeypatch.setattr(SolverConfig, "max_outer", 2)
        _, trace = newton_cg(p, np.zeros(8), SolverConfig(eps_outer=1e-12))
        assert trace.termination == TERM_MAX_OUTER and trace.outer_iters == 2
        # each row holds the norm at its step's start; the trace, at the last stop test
        assert trace.rows[0].grad_norm == grad0_ref(p)
        assert trace.final_grad_norm < trace.rows[1].grad_norm < trace.rows[0].grad_norm

    def test_an_overflowing_start_keeps_a_nan_initial_loss(self):
        # the labels CSV writes nan, not inf, for a start with no finite objective
        p = BinaryProblem(make_matrix([{0: 1.0}, {0: 1.0}], 1), np.array([1.0, -1.0]))
        w, trace = solve_with_ref(p, np.array([1e200]), SolverConfig(), 1.0)
        assert trace.failure == "non-finite objective at the initial point"
        assert np.isnan(trace.initial_loss) and np.isnan(trace.final_loss)
        assert w.tolist() == [1e200]

    def test_cg_failure_keeps_accepted_steps(self, rng, monkeypatch):
        p = random_problem(rng, n=40, d=8, loss=SQH)
        cfg = SolverConfig(eps_outer=1e-6)
        with monkeypatch.context() as one_step:
            one_step.setattr(SolverConfig, "max_outer", 1)
            w_one, _ = newton_cg(p, np.zeros(8), cfg)
        real, calls = solver_mod.cg_solve, []

        def second_call_fails(*args):
            result = real(*args)
            calls.append(1)
            if len(calls) == 2:
                result.errors[0] = "injected CG failure"
            return result

        monkeypatch.setattr(solver_mod, "cg_solve", second_call_fails)
        w_last, trace = newton_cg(p, np.zeros(8), cfg)
        np.testing.assert_array_equal(w_last, w_one)
        assert trace.outer_iters == 1

    def test_cg_failure_is_the_label_trace_failure(self, rng, monkeypatch):
        p = random_problem(rng, n=40, d=8, loss=SQH)
        others, _ = other_labels(rng, p, 2)
        problems = [p] + others
        real, calls = solver_mod.cg_solve, []

        def label_1_fails_in_its_first_step(*args):
            result = real(*args)
            calls.append(1)
            if len(calls) == 1:  # every label takes the first step; row 1 is label 1
                result.errors[1] = "injected CG failure"
            return result

        monkeypatch.setattr(solver_mod, "cg_solve", label_1_fails_in_its_first_step)
        W, traces = solver_mod.newton_cg_block(
            p.features, p.loss, p.c, [q.signs for q in problems],
            np.zeros((3, 8)), SolverConfig(), [grad0_ref(q) for q in problems],
        )
        assert [t.failure for t in traces] == [None, "injected CG failure", None]
        assert [t.termination for t in traces] == [TERM_CONVERGED, TERM_NUMERICAL, TERM_CONVERGED]
        assert traces[1].outer_iters == 0
        np.testing.assert_array_equal(W[1], 0.0)

    def test_a_non_descent_direction_is_a_numerical_failure(self, rng, monkeypatch):
        # +G is an ascent direction: g.p = |g|^2 > 0
        monkeypatch.setattr(
            solver_mod, "cg_solve",
            lambda G, hvp, cfg, diag, buffers: solver_mod.CgBlock(
                G.copy(), len(G), [1] * len(G), [None] * len(G)
            ),
        )
        p = random_problem(rng, n=40, d=8, loss=SQH)
        w0 = rng.normal(size=8)
        w, trace = newton_cg(p, w0, SolverConfig())
        assert trace.termination == TERM_NUMERICAL
        assert trace.failure.startswith("CG returned a non-descent direction (g.p = ")
        assert trace.outer_iters == 0
        np.testing.assert_array_equal(w, w0)

    def test_newton_cg_returns_the_block_outcome(self, rng, monkeypatch):
        p = random_problem(rng, n=40, d=8, loss=SQH)
        real_cg, real_block, returned = solver_mod.cg_solve, solver_mod.newton_cg_block, []

        def fails(*args):
            result = real_cg(*args)
            result.errors[0] = "injected CG failure"
            return result

        def spy(*args):
            returned.append(real_block(*args))
            return returned[-1]

        monkeypatch.setattr(solver_mod, "cg_solve", fails)
        monkeypatch.setattr(solver_mod, "newton_cg_block", spy)
        w_last, trace_out = newton_cg(p, rng.normal(size=8), SolverConfig())
        [(W, [trace])] = returned
        assert trace.failure == "injected CG failure"
        assert trace_out is trace
        assert np.shares_memory(w_last, W)
        assert w_last.tobytes() == W[0].tobytes()

    @pytest.mark.parametrize("case", ["converged", "max_outer", "numerical_failure"])
    def test_one_label_call_is_a_block_of_one(self, rng, case, monkeypatch):
        # the block is given the pass's reference where it is finite
        if case == "numerical_failure":
            X = make_matrix([{0: 1e308}, {0: 1.0}], 1)
            p, ref = BinaryProblem(X, np.array([1.0, -1.0])), None
        else:
            p = random_problem(rng, n=40, d=8, loss=SQH)
            ref = grad0_ref(p)
        if case == "max_outer":
            monkeypatch.setattr(SolverConfig, "max_outer", 1)
        cfg = SolverConfig()
        w0 = np.zeros(p.dim)
        w, trace = newton_cg(p, w0, cfg)
        W, [block] = solver_mod.newton_cg_block(
            p.features, p.loss, p.c, [p.signs], w0[None], cfg, [ref]
        )
        assert trace.termination == block.termination == case
        assert trace.failure == block.failure
        assert w.tobytes() == W[0].tobytes()
        untimed = [asdict(t) for t in (trace, block)]
        for t in untimed:
            del t["wall_ms"], t["cpu_ms"]
        np.testing.assert_equal(*untimed)  # NaN equals NaN here

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
            _, trace = newton_cg(p, start, SolverConfig(eps_outer=1e-6))
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
            newton_cg(p, rng.normal(0, 3, 10), SolverConfig(eps_outer=1e-6))
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_line_search_failure_reported(self, rng, monkeypatch):
        # force every trial to fail by making the schedule empty of winners
        p = random_problem(rng, n=20, d=5, loss=SQH)
        monkeypatch.setattr(
            solver_mod, "backtracking_search", lambda *a, **k: (0.0, False)
        )
        _, trace = newton_cg(p, np.zeros(5), SolverConfig())
        assert trace.termination == TERM_LINE_SEARCH

    @pytest.mark.parametrize("shape", [(2, 2), (1, 3)])
    def test_starts_of_the_wrong_shape_rejected(self, shape):
        p = BinaryProblem(make_matrix([{0: 1.0}, {1: 1.0}], 2), np.array([1.0, -1.0]))
        with pytest.raises(DimensionMismatchError, match="starts of shape"):
            solver_mod.newton_cg_block(
                p.features, p.loss, p.c, [p.signs], np.zeros(shape), SolverConfig(), [1.0]
            )

    @pytest.mark.parametrize("n_refs, b", [(3, 1), (1, 2)])
    def test_one_stopping_reference_per_label(self, n_refs, b):
        X = make_matrix([{0: 1.0}, {1: 1.0}], 2)
        S, refs = [np.array([1.0, -1.0])] * b, [1.0] * n_refs
        message = f"^{n_refs} stopping references for {b} labels"
        with pytest.raises(DimensionMismatchError, match=message):
            solver_mod.newton_cg_block(X, SQH, 1.0, S, np.zeros((b, 2)), SolverConfig(), refs)

    @pytest.mark.parametrize("loss", [SQH, LOG], ids=["squared-hinge", "logistic"])
    def test_the_reference_is_the_pass_over_x(self, rng, loss):
        p = random_problem(rng, n=60, d=9, loss=loss, c=0.7)
        _, trace = newton_cg(p, rng.normal(size=9), SolverConfig())
        assert trace.grad0_ref == grad0_ref(p)  # bit for bit
        assert trace.termination == TERM_CONVERGED

    @pytest.mark.parametrize("loss", [SQH, LOG], ids=["squared-hinge", "logistic"])
    def test_a_block_takes_the_pass_where_no_reference_is_given(self, rng, loss):
        p = random_problem(rng, n=60, d=9, loss=loss)
        others, _ = other_labels(rng, p, 2)
        problems, r = [p] + others, 0.5 * grad0_ref(others[0])
        W0 = rng.normal(size=(3, 9))
        W, traces = solver_mod.newton_cg_block(
            p.features, loss, p.c, [q.signs for q in problems], W0, SolverConfig(), [None, r, None]
        )
        assert [t.grad0_ref for t in traces] == [grad0_ref(p), r, grad0_ref(others[1])]
        for k, q in enumerate(problems):
            ref = r if k == 1 else grad0_ref(q)
            w_alone, alone = solve_with_ref(q, W0[k], SolverConfig(), ref)
            assert W[k].tobytes() == w_alone.tobytes()
            assert untimed(traces[k]) == untimed(alone)

    def test_given_references_make_no_pass(self, rng, monkeypatch):
        # at max_outer 0 a solve makes one gradient for its stopping test and
        # stops; the labels without a reference share one more
        p = random_problem(rng, n=60, d=9, loss=SQH)
        others, _ = other_labels(rng, p, 2)
        S = [q.signs for q in [p] + others]
        calls = []
        real = solver_mod._gradient

        def spy(X, W, *args):
            calls.append(len(W))
            return real(X, W, *args)

        monkeypatch.setattr(solver_mod, "_gradient", spy)
        monkeypatch.setattr(SolverConfig, "max_outer", 0)
        W0 = np.zeros((3, 9))
        solver_mod.newton_cg_block(p.features, SQH, 1.0, S, W0, SolverConfig(), [1.0, 2.0, 3.0])
        assert calls == [3]
        calls.clear()
        solver_mod.newton_cg_block(p.features, SQH, 1.0, S, W0, SolverConfig(), [None, 2.0, None])
        assert calls == [2, 3]

    def test_signs_validated(self):
        X = make_matrix([{0: 1.0}], 1)
        with pytest.raises(ValueError):
            BinaryProblem(X, np.array([0.5]))
        with pytest.raises(Exception):
            BinaryProblem(X, np.array([1.0, -1.0]))


def untimed(trace):
    """A trace's fields but its times, for an exact comparison."""
    fields = asdict(trace)
    del fields["wall_ms"], fields["cpu_ms"]
    return fields


class TestBuffers:
    def test_one_set_serves_every_block_and_the_shared_solve(self, rng):
        # one worker's set passes through blocks of 16, 3 and 1 labels and
        # then the all-negative shared solve: every label must get the bits,
        # touches and trace rows of a fresh solve. The references are solved
        # in blocks of two or more, each with a fresh set; at b = 1 the
        # margins' transpose is contiguous, so margins that viewed the
        # product slot instead of copying it would be overwritten there
        p = random_problem(rng, n=120, d=10, loss=SQH)
        others, _ = other_labels(rng, p, 19)
        problems = [p] + others
        X, cfg = p.features, SolverConfig(eps_outer=1e-4)
        W0 = rng.normal(0, 0.5, size=(20, 10))
        refs = [grad0_ref(q) for q in problems]
        S = [q.signs for q in problems]
        W_fresh, fresh = solver_mod.newton_cg_block(X, SQH, 1.0, S, W0, cfg, refs)
        assert all(t.outer_iters > 1 and t.hvp_touches > 0 for t in fresh)
        buffers = solver_mod.Buffers(X.n_rows, X.n_cols, 16)
        for labels in (range(16), range(16, 19), range(19, 20)):
            W, traces = solver_mod.newton_cg_block(
                X, SQH, 1.0, [S[k] for k in labels], W0[labels], cfg,
                [refs[k] for k in labels], buffers,
            )
            for w, trace, k in zip(W, traces, labels):
                assert w.tobytes() == W_fresh[k].tobytes()
                assert untimed(trace) == untimed(fresh[k])
        negative = np.full(X.n_rows, -1.0)
        zero, shared_cfg = np.zeros((2, 10)), replace(cfg, eps_outer=0.01)
        ref = norm(gradient(BinaryProblem(X, negative), zero[0]))
        W_ovap, ovap_fresh = solver_mod.newton_cg_block(
            X, SQH, 1.0, [negative, S[0]], zero, shared_cfg, [ref, refs[0]]
        )
        [w], [trace] = solver_mod.newton_cg_block(
            X, SQH, 1.0, [negative], zero[:1], shared_cfg, [ref], buffers
        )
        assert ovap_fresh[0].hvp_touches > 0
        assert w.tobytes() == W_ovap[0].tobytes()
        assert untimed(trace) == untimed(ovap_fresh[0])
        w, trace = ovap_solve(X, SQH, 1.0, cfg, 0.01)
        assert w.tobytes() == W_ovap[0].tobytes()
        assert untimed(trace) == untimed(ovap_fresh[0])

    def test_a_slot_is_the_front_of_its_share_of_one_array(self):
        buffers = solver_mod.Buffers(5, 3, 4)
        product = buffers.get("product", (5, 4))
        small = buffers.get("product", (2, 3))
        assert small.flags.c_contiguous and small.shape == (2, 3)
        assert np.shares_memory(product, small) and small.base is product.base
        slots = [buffers.get(slot, (4, 3)) for slot in ("transposed", "diag", "cg_p")]
        assert all(a.base is product.base for a in slots)
        assert not any(np.shares_memory(a, b) for a in slots for b in slots + [product] if a is not b)
        with pytest.raises(ValueError, match="does not fit the 12 values of slot 'hvp'"):
            buffers.get("hvp", (5, 3))


def _start_overflows():
    p = BinaryProblem(make_matrix([{0: 1.0}, {0: 1.0}], 1), np.array([1.0, -1.0]))
    w, trace = solve_with_ref(p, np.array([1e200]), SolverConfig(), 1.0)
    assert trace.failure == "non-finite objective at the initial point"
    assert w.tolist() == [1e200]


def _cg_gradient_norm_overflows():
    buffers = solver_mod.Buffers(0, 1, 1)
    cg = cg_solve(np.array([[1e200]]), lambda D, rows: D, SolverConfig(), np.ones((1, 1)), buffers)
    assert cg.errors == ["non-finite preconditioned gradient norm in CG"]


def _norm_squares_overflow():
    assert norm(np.array([2e160, 0.0])) == 2e160


def _means_overflow():
    # the statistics of TestGrad0ClosedForm::test_non_finite_falls_back_to_the_pass
    X = make_matrix([{0: 1e308, 1: 1.0}, {0: 1e308, 1: 2.0}], 2)
    stats = compute_label_stats(Dataset(X, [np.array([0]), np.array([], dtype=np.int64)], 1))
    assert not np.isfinite(grad0_closed_form(stats, 0, SQH, 1.0))


def _aop_means_overflow():
    pre = AopPrecompute(xbar=np.array([1e308, 1.0]), n=3)
    pbar = SparseVector(np.array([0]), np.array([1e308]))
    assert isinstance(aop_init(pbar, 1, pre, 1.0, -2.0), np.ndarray)


@pytest.mark.parametrize("case", [
    _start_overflows, _cg_gradient_norm_overflows, _norm_squares_overflow, _means_overflow,
    _aop_means_overflow,
], ids=["newton_cg", "cg_solve", "norm", "grad0_closed_form", "aop"])
def test_overflow_is_returned_not_raised(case):
    # each function sets its own error state, so the caller's does not matter
    with np.errstate(all="raise"):
        case()
