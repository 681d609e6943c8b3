"""Margin losses with value/derivative/curvature and active-set semantics.

The squared hinge vanishes identically past margin 1, so instances beyond
the margin contribute nothing to the value, gradient or Hessian and can be
skipped exactly. The logistic loss never vanishes, so its active set is
always the full instance range.

All three evaluation functions are vectorized: they accept a scalar or a
numpy array of margins and return the same shape.
"""

from __future__ import annotations

import enum

import numpy as np
from scipy.special import expit

from .errors import ConfigError


class MarginLoss(enum.Enum):
    SQUARED_HINGE = "squared-hinge"
    LOGISTIC = "logistic"

    @property
    def token(self) -> str:
        return self.value


def parse_loss(token: str) -> MarginLoss:
    for loss in MarginLoss:
        if loss.value == token:
            return loss
    raise ConfigError(f"unknown loss {token!r}; expected 'squared-hinge' or 'logistic'")


def phi(loss: MarginLoss, m):
    """Loss value at margin ``m``."""
    m = np.asarray(m, dtype=np.float64)
    if loss is MarginLoss.SQUARED_HINGE:
        z = np.maximum(0.0, 1.0 - m)
        out = z * z
    else:
        # log(1 + exp(-m)), split stably around m = 0
        out = np.log1p(np.exp(-np.abs(m))) + np.maximum(-m, 0.0)
    return out if out.ndim else float(out)


def dphi(loss: MarginLoss, m):
    """First derivative of the loss with respect to the margin."""
    m = np.asarray(m, dtype=np.float64)
    if loss is MarginLoss.SQUARED_HINGE:
        out = np.where(m < 1.0, -2.0 * (1.0 - m), 0.0)
    else:
        out = -expit(-m)
    return out if out.ndim else float(out)


def ddphi(loss: MarginLoss, m):
    """Second derivative of the loss with respect to the margin.

    The squared hinge has a kink at m = 1; the generalized second
    derivative there is taken as 0, matching the strict inequality used
    for the active set.
    """
    m = np.asarray(m, dtype=np.float64)
    if loss is MarginLoss.SQUARED_HINGE:
        out = np.where(m < 1.0, 2.0, 0.0)
    else:
        e = expit(m)
        out = e * (1.0 - e)
    return out if out.ndim else float(out)


def active_set(loss: MarginLoss, margins: np.ndarray) -> np.ndarray:
    """Sorted int64 indices of the instances that contribute to the Hessian
    at the given margins."""
    if loss is MarginLoss.SQUARED_HINGE:
        idx = np.flatnonzero(margins < 1.0)
    else:
        idx = np.arange(margins.shape[0], dtype=np.int64)
    return idx.astype(np.int64, copy=False)
