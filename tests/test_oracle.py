"""An independent optimizer confirms the solver's optimum.

The objective ``0.5 * <w, w> + C * sum_i phi(y_i <w, x_i>)`` and its
gradient are written here in plain dense numpy, sharing no kernel of the
package, and minimized with scipy's L-BFGS-B at a tight tolerance. A
``newton_cg`` solve at ``eps_outer=1e-8``, from a random start, must reach
that objective.
"""

import numpy as np
import pytest
from scipy.optimize import minimize

from xova.losses import MarginLoss
from xova.solver import SolverConfig, newton_cg

from conftest import dense_matrix, random_problem

PROBLEMS_PER_CASE = 12
# newton_cg may exceed the oracle's objective by at most this share of max(1, |P|)
REL_TOL = 1e-9
TIGHT = SolverConfig(eps_outer=1e-8, eps_cg=1e-10)


def dense_objective(A, y, c, loss):
    """``P(w)`` and its gradient over the dense rows ``A`` and signs ``y``."""

    def f(w):
        m = y * (A @ w)
        if loss is MarginLoss.SQUARED_HINGE:
            z = np.maximum(1.0 - m, 0.0)
            value, dvalue = z * z, -2.0 * z
        else:
            value = np.logaddexp(0.0, -m)
            dvalue = -np.exp(-np.logaddexp(0.0, m))  # -1 / (1 + e^m)
        return 0.5 * w @ w + c * value.sum(), w + c * (A.T @ (dvalue * y))

    return f


@pytest.mark.parametrize("c", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("loss", list(MarginLoss), ids=lambda loss: loss.token)
def test_newton_cg_reaches_the_oracle_objective(loss, c):
    rng = np.random.default_rng([len(loss.token), int(10 * c)])
    for _ in range(PROBLEMS_PER_CASE):
        n, d = int(rng.integers(5, 61)), int(rng.integers(1, 9))
        problem = random_problem(rng, n, d, loss, c=c, density=float(rng.uniform(0.2, 0.9)))
        f = dense_objective(dense_matrix(problem.features), problem.signs, c, loss)
        oracle = minimize(f, np.zeros(d), jac=True, method="L-BFGS-B",
                          options={"gtol": 1e-13, "ftol": 1e-15, "maxiter": 10_000})
        w0 = rng.normal(0.0, float(rng.choice([0.1, 1.0, 5.0])), d)
        w, trace = newton_cg(problem, w0, TIGHT)
        # Near the optimum the decrease a step promises can fall below the
        # objective's rounding, and the line search then finds no step: a few
        # logistic solves end so at |grad| of 2-4e-8 of |grad(0)|, on the
        # oracle's objective. Every other solve converges.
        assert trace.termination in ("converged", "line_search_failed"), (n, d, trace.failure)
        best = min(oracle.fun, f(oracle.x)[0])
        assert f(w)[0] - best <= REL_TOL * max(1.0, abs(best)), (n, d, f(w)[0], best)
