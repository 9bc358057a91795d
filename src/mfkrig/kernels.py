"""Gaussian (squared-exponential) ARD correlation function and its derivatives."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .exceptions import DimensionMismatch


@dataclass(frozen=True)
class LengthScales:
    """One strictly positive length scale per input dimension."""

    theta: np.ndarray

    def __post_init__(self):
        theta = np.atleast_1d(np.asarray(self.theta, dtype=float))
        if theta.ndim != 1 or theta.size == 0:
            raise DimensionMismatch("length scales must be a non-empty vector")
        if not np.all(theta > 0):
            raise ValueError("length scales must be strictly positive")
        object.__setattr__(self, "theta", theta)

    @property
    def ndim(self) -> int:
        return self.theta.size


@dataclass(frozen=True)
class KernelParams:
    """Kernel variance sigma2, noise ratio eta = sigma2_eps / sigma2, length scales."""

    theta: LengthScales
    sigma2: float
    eta: float

    def __post_init__(self):
        if self.sigma2 <= 0:
            raise ValueError("sigma2 must be strictly positive")
        if self.eta < 0:
            raise ValueError("eta must be non-negative")

    @property
    def noise_variance(self) -> float:
        return self.eta * self.sigma2


def _as_2d(x: np.ndarray, d: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x.reshape(-1, d) if d == 1 else x.reshape(1, -1)
    if x.ndim != 2 or x.shape[1] != d:
        raise DimensionMismatch(f"expected points of dimension {d}, got shape {x.shape}")
    return x


def gauss_corr(x: np.ndarray, x2: np.ndarray, theta: LengthScales) -> float:
    """exp(-0.5 * sum_d ((x_d - x2_d)/theta_d)^2), in (0, 1]."""
    x = np.asarray(x, dtype=float).ravel()
    x2 = np.asarray(x2, dtype=float).ravel()
    if x.shape != x2.shape or x.size != theta.ndim:
        raise DimensionMismatch("point dimensions do not match the length scales")
    h = (x - x2) / theta.theta
    return float(np.exp(-0.5 * np.dot(h, h)))


def corr_matrix(x: np.ndarray, x2: np.ndarray, theta: LengthScales) -> np.ndarray:
    """Cross-correlation matrix with entries gauss_corr(x_i, x2_j, theta)."""
    d = theta.ndim
    xs = _as_2d(x, d) / theta.theta
    xs2 = _as_2d(x2, d) / theta.theta
    if xs is xs2 or (xs.shape == xs2.shape and np.array_equal(xs, xs2)):
        sq = cdist(xs, xs, metric="sqeuclidean")
        r = np.exp(-0.5 * sq)
        np.fill_diagonal(r, 1.0)
        return r
    return np.exp(-0.5 * cdist(xs, xs2, metric="sqeuclidean"))


def corr_matrix_grad(x: np.ndarray, theta: LengthScales, r: np.ndarray) -> np.ndarray:
    """All length-scale partials of r = corr_matrix(x, x, theta), stacked as (N, N, D).

    Slice [:, :, d] has entries R_ij * (x_i^(d) - x_j^(d))^2 / theta_d^3; the
    diagonal is zero. The caller passes the R it already built.
    """
    xs = _as_2d(x, theta.ndim)
    n = xs.shape[0]
    r = np.asarray(r, dtype=float)
    if r.shape != (n, n):
        raise DimensionMismatch(f"expected a {n}x{n} correlation matrix, got shape {r.shape}")
    # (x_i - x_j)^2 / theta^3 is the squared difference of x / theta^1.5.
    xs = xs / theta.theta**1.5
    diff = xs[:, None, :] - xs[None, :, :]
    return r[:, :, None] * (diff * diff)
