"""Gaussian (squared-exponential) ARD correlation: cross-correlation matrices, and a
per-fit workspace that rebuilds R(theta) and contracts its length-scale gradient."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

from .exceptions import DimensionMismatch, InvalidConfig
from .optimize import as_points, as_vector, check_positive


@dataclass(frozen=True)
class LengthScales:
    """One finite, strictly positive length scale per input dimension."""

    theta: np.ndarray

    def __post_init__(self):
        theta = self.theta
        # The fit hands over a 1-D float64 array on every evaluation; as_vector
        # would return that same array, so only other inputs go through it.
        if not (type(theta) is np.ndarray and theta.ndim == 1 and theta.dtype == np.float64):
            theta = as_vector("length scales", theta)
        if theta.size == 0:
            raise DimensionMismatch("length scales must be a non-empty vector")
        # One pass over Python floats: the fit builds these on every evaluation.
        if not all([0.0 < t < math.inf for t in theta.tolist()]):
            raise InvalidConfig(f"length scales must be finite and > 0, got {theta}")
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
        check_positive("sigma2", self.sigma2)
        check_positive("eta", self.eta, zero_ok=True)

    @property
    def noise_variance(self) -> float:
        return self.eta * self.sigma2


def corr_matrix(x: np.ndarray, x2: np.ndarray, theta: LengthScales) -> np.ndarray:
    """Cross-correlation matrix, entries exp(-0.5 sum_d ((x_i^(d) - x2_j^(d)) / theta_d)^2).

    With x2 equal to x it is exactly symmetric with a unit diagonal, as the squared
    distances are exactly symmetric and exactly 0 there. For one input dimension
    they are NumPy's outer difference squared in place: cdist's "sqeuclidean" bits
    in about 60 % of its time (1,000 x 100 points). From two dimensions on cdist
    is the faster, as NumPy would make a pass per dimension."""
    d = theta.ndim
    xs = as_points("x", x, d) / theta.theta
    xs2 = as_points("x2", x2, d) / theta.theta
    if d == 1:
        r = np.subtract.outer(xs.ravel(), xs2.ravel())
        r *= r
    else:
        r = cdist(xs, xs2, metric="sqeuclidean")
    r *= -0.5
    return np.exp(r, out=r)


@dataclass(frozen=True)
class KernelWorkspace:
    """The squared coordinate differences of one input set, built once per fit.

    Entry (d, i*N + j) of the (D, N^2) array `d2` is (x_i^(d) - x_j^(d))^2, so
    every R(theta) over these inputs is one vector-matrix product and one exp,
    and every length-scale gradient is one matrix-vector product. Rows of length
    N^2 keep both products fast when D is small.
    """

    x: np.ndarray
    d2: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        x = as_points("kernel inputs", self.x)
        diff = x.T[:, :, None] - x.T[:, None, :]
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "d2", (diff * diff).reshape(x.shape[1], -1))

    @property
    def n(self) -> int:
        return self.x.shape[0]

    def corr(self, theta: LengthScales, eta: float = 0.0) -> np.ndarray:
        """R(theta) + eta I, with R(theta) = corr_matrix(x, x, theta). Entries (i, j)
        and (j, i) are the same sum of the same products, so it is exactly symmetric;
        R's diagonal is exactly 1, so writing 1 + eta there adds eta I bit for bit."""
        if theta.ndim != self.x.shape[1]:
            raise DimensionMismatch("point dimensions do not match the length scales")
        s = np.dot(-0.5 / theta.theta**2, self.d2)
        np.exp(s, out=s)
        s[:: self.n + 1] = 1.0 + eta
        return s.reshape(self.n, self.n)


def corr_matrix_grad(
    ws: KernelWorkspace, theta: LengthScales, r: np.ndarray, a: np.ndarray
) -> np.ndarray:
    """The contraction sum_ij A_ij dR_ij/dtheta_d for every length scale, as a D-vector.

    dR_ij/dtheta_d = R_ij (x_i^(d) - x_j^(d))^2 / theta_d^3, so all D contractions
    are one product of the workspace's squared differences with A o R; no
    (N, N, D) stack of partials is formed. The caller passes the R it built.
    """
    n = ws.n
    if r.shape != (n, n) or a.shape != (n, n):
        raise DimensionMismatch(f"expected {n}x{n} matrices, got shapes {r.shape}, {a.shape}")
    return np.dot(ws.d2, (a * r).reshape(-1)) / theta.theta**3
