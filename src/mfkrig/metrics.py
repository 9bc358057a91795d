"""Uncertainty-quantification metrics: predictivity, coverage probabilities,
interval widths, and integral absolute calibration errors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .exceptions import ConstantTruth, DimensionMismatch, DomainViolation, EmptyGrid
from .optimize import as_vector

DEFAULT_ALPHA_GRID = np.round(np.arange(1, 100) / 100.0, 2)


@dataclass(frozen=True)
class CalibrationReport:
    alpha_grid: np.ndarray
    cicp: np.ndarray
    picp: np.ndarray
    ciw: np.ndarray
    piw: np.ndarray
    iae_ci: float
    iae_pi: float
    q2: float

    def at_level(self, alpha: float, which: str = "cicp") -> float:
        idx = int(np.argmin(np.abs(self.alpha_grid - alpha)))
        if abs(self.alpha_grid[idx] - alpha) > 1e-9:
            raise DomainViolation(f"level {alpha} not on the grid")
        return float(getattr(self, which)[idx])


def q2(y_true: np.ndarray, mean_pred: np.ndarray) -> float:
    """Predictivity coefficient: 1 - SSE / SST about the test-set mean."""
    y_true = as_vector("y_true", y_true)
    mean_pred = as_vector("mean_pred", mean_pred)
    if y_true.shape != mean_pred.shape or y_true.size < 2:
        raise DimensionMismatch("need two same-length vectors of at least 2 entries")
    sst = float(np.sum((y_true - y_true.mean()) ** 2))
    if sst == 0.0:
        raise ConstantTruth("ground truth is constant; predictivity undefined")
    sse = float(np.sum((y_true - mean_pred) ** 2))
    return 1.0 - sse / sst


def gauss_quantile(p: float) -> float:
    """Inverse standard-normal CDF."""
    if not 0.0 < p < 1.0:
        raise DomainViolation("probability must lie strictly inside (0, 1)")
    return float(ndtri(p))


def coverage_report(
    y_true: np.ndarray,
    z_noisy: np.ndarray,
    mean_pred: np.ndarray,
    latent_sd: np.ndarray,
    noise_variance_hat: float,
    alpha_grid: np.ndarray | None = None,
) -> CalibrationReport:
    """Coverage, width, and IAE metrics over a grid of interval levels.

    Confidence intervals use the latent predictive sd; prediction intervals
    widen it by the model's noise-variance estimate, while `z_noisy` holds one
    fresh noisy draw per test point generated with the true noise variance.
    Interval membership is closed (boundaries count as covered).
    """
    alpha = DEFAULT_ALPHA_GRID if alpha_grid is None else as_vector("alpha_grid", alpha_grid)
    if alpha.size == 0 or np.any(alpha <= 0) or np.any(alpha >= 1):
        raise EmptyGrid("alpha grid must be non-empty with levels in (0, 1)")
    if alpha.size > 1 and np.any(np.diff(alpha) <= 0):
        raise EmptyGrid("alpha grid must be strictly increasing")
    y_true = as_vector("y_true", y_true)
    z_noisy = as_vector("z_noisy", z_noisy)
    mean_pred = as_vector("mean_pred", mean_pred)
    latent_sd = as_vector("latent_sd", latent_sd)
    if not y_true.size == z_noisy.size == mean_pred.size == latent_sd.size:
        raise DimensionMismatch("y_true, z_noisy, mean_pred and latent_sd differ in length")
    if np.any(latent_sd < 0):
        raise DomainViolation("latent sd must be non-negative")
    if noise_variance_hat < 0:
        raise DomainViolation("noise variance estimate must be non-negative")

    phi = ndtri((1.0 + alpha) / 2.0)  # (K,)
    pi_sd = np.sqrt(latent_sd**2 + noise_variance_hat)
    ci_err = np.abs(y_true - mean_pred)
    pi_err = np.abs(z_noisy - mean_pred)

    # (K, N) membership tables; closed intervals.
    cicp = np.mean(ci_err[None, :] <= phi[:, None] * latent_sd[None, :], axis=1)
    picp = np.mean(pi_err[None, :] <= phi[:, None] * pi_sd[None, :], axis=1)
    ciw = 2.0 * phi * float(np.mean(latent_sd))
    piw = 2.0 * phi * float(np.mean(pi_sd))

    if alpha.size > 1:
        iae_ci = float(np.trapezoid(np.abs(cicp - alpha), alpha))
        iae_pi = float(np.trapezoid(np.abs(picp - alpha), alpha))
    else:
        iae_ci = float(np.abs(cicp - alpha)[0])
        iae_pi = float(np.abs(picp - alpha)[0])

    return CalibrationReport(
        alpha_grid=alpha,
        cicp=cicp,
        picp=picp,
        ciw=ciw,
        piw=piw,
        iae_ci=iae_ci,
        iae_pi=iae_pi,
        q2=q2(y_true, mean_pred),
    )
