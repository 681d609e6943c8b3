import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from xova.losses import (
    MarginLoss,
    active_set,
    ddphi,
    dphi,
    parse_loss,
    phi,
)

SQH = MarginLoss.SQUARED_HINGE
LOG = MarginLoss.LOGISTIC


class TestValues:
    def test_squared_hinge_at_margin_one(self):
        assert phi(SQH, 1.0) == 0.0

    def test_squared_hinge_negative_margin(self):
        assert phi(SQH, -1.0) == 4.0

    def test_logistic_at_zero(self):
        assert phi(LOG, 0.0) == pytest.approx(math.log(2), rel=1e-12)

    def test_dphi(self):
        assert dphi(SQH, 0.0) == -2.0
        assert dphi(SQH, 2.0) == 0.0
        assert dphi(LOG, 0.0) == -0.5

    def test_ddphi(self):
        assert ddphi(SQH, 0.999) == 2.0
        assert ddphi(SQH, 1.0) == 0.0  # kink resolved to zero
        assert ddphi(LOG, 0.0) == 0.25

    def test_vectorized(self):
        m = np.array([-1.0, 0.0, 1.0, 2.0])
        np.testing.assert_allclose(phi(SQH, m), [4.0, 1.0, 0.0, 0.0])
        np.testing.assert_allclose(dphi(SQH, m), [-4.0, -2.0, 0.0, 0.0])
        np.testing.assert_allclose(ddphi(SQH, m), [2.0, 2.0, 0.0, 0.0])

    def test_logistic_stable_at_extremes(self):
        assert phi(LOG, 800.0) == 0.0
        assert phi(LOG, -800.0) == pytest.approx(800.0)
        assert np.isfinite(dphi(LOG, -800.0))
        assert ddphi(LOG, 800.0) == 0.0

    def test_parse_loss(self):
        assert parse_loss("squared-hinge") is SQH
        assert parse_loss("logistic") is LOG
        with pytest.raises(Exception):
            parse_loss("hinge")


class TestDerivativesByFiniteDifferences:
    H = 1e-5

    def _check(self, loss, samples):
        for m in samples:
            fd1 = (phi(loss, m + self.H) - phi(loss, m - self.H)) / (2 * self.H)
            assert abs(dphi(loss, m) - fd1) <= 1e-6, f"dphi mismatch at m={m}"
            fd2 = (dphi(loss, m + self.H) - dphi(loss, m - self.H)) / (2 * self.H)
            assert abs(ddphi(loss, m) - fd2) <= 1e-6, f"ddphi mismatch at m={m}"

    def test_squared_hinge_away_from_kink(self, rng):
        samples = rng.uniform(-6, 6, 200)
        samples = samples[np.abs(samples - 1.0) > 0.01]
        self._check(SQH, samples)

    def test_logistic_everywhere(self, rng):
        self._check(LOG, rng.uniform(-8, 8, 200))


@given(
    m1=st.floats(min_value=-50, max_value=50, allow_nan=False),
    m2=st.floats(min_value=-50, max_value=50, allow_nan=False),
    lam=st.floats(min_value=0, max_value=1, allow_nan=False),
    loss=st.sampled_from([SQH, LOG]),
)
def test_convexity(m1, m2, lam, loss):
    mid = lam * m1 + (1 - lam) * m2
    assert phi(loss, mid) <= lam * phi(loss, m1) + (1 - lam) * phi(loss, m2) + 1e-12


def quad_approx_error(loss, m0, delta):
    """Second-order Taylor model of the loss at ``m0`` minus the loss at ``m0 + delta``."""
    model = phi(loss, m0) + delta * dphi(loss, m0) + 0.5 * delta * delta * ddphi(loss, m0)
    return model - phi(loss, m0 + delta)


class TestQuadApproxError:
    def test_inside_quadratic_region_exact(self):
        assert quad_approx_error(SQH, 0.0, 0.5) == 0.0

    def test_overestimates_past_margin(self):
        # model at m0=0 stays quadratic, true loss flattens at zero
        assert quad_approx_error(SQH, 0.0, 2.0) == 1.0

    def test_underestimates_behind_kink(self):
        # at m0=1 the model is identically zero, the true loss is 1 at m=0
        assert quad_approx_error(SQH, 1.0, -1.0) == -1.0

    def test_logistic_small_step_tiny_error(self):
        assert abs(quad_approx_error(LOG, 0.3, 1e-3)) < 1e-9


class TestActiveSet:
    def test_squared_hinge_strict_inequality(self):
        m = np.array([0.5, 1.0, 1.5])
        assert active_set(SQH, m).indices.tolist() == [0]

    def test_logistic_always_full(self):
        m = np.array([100.0, -100.0, 0.0])
        assert active_set(LOG, m).indices.tolist() == [0, 1, 2]

    def test_completeness_squared_hinge(self, rng):
        # instances outside the active set contribute exactly zero to value,
        # first derivative and curvature
        m = rng.uniform(-3, 4, 500)
        inactive = m >= 1.0
        assert np.all(phi(SQH, m[inactive]) == 0.0)
        assert np.all(dphi(SQH, m[inactive]) == 0.0)
        assert np.all(ddphi(SQH, m[inactive]) == 0.0)
        act = active_set(SQH, m).indices
        assert np.sum(phi(SQH, m)) == pytest.approx(np.sum(phi(SQH, m[act])), rel=1e-12)
        assert np.sum(dphi(SQH, m)) == pytest.approx(np.sum(dphi(SQH, m[act])), rel=1e-12)
