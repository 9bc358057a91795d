"""Uncertainty-quantification metrics: predictivity, coverage probabilities,
interval widths, and integral absolute calibration errors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .exceptions import ConstantTruth, DimensionMismatch, DomainViolation, InvalidConfig
from .optimize import as_vector, is_finite_real

DEFAULT_ALPHA_GRID = np.round(np.arange(1, 100) / 100.0, 2)
_LEVEL_TABLES = ("cicp", "picp", "ciw", "piw")


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
        """The `which` table, cicp, picp, ciw or piw, at the grid level `alpha`."""
        if not (isinstance(which, str) and which in _LEVEL_TABLES):
            raise InvalidConfig(f"which must be one of {', '.join(_LEVEL_TABLES)}, got {which!r}")
        if not is_finite_real(alpha):
            raise InvalidConfig(f"level must be a finite number, got {alpha!r}")
        idx = int(np.argmin(np.abs(self.alpha_grid - alpha)))
        if abs(self.alpha_grid[idx] - alpha) > 1e-9:
            raise DomainViolation(f"level {alpha} not on the grid")
        return float(getattr(self, which)[idx])


def _samples(**vectors) -> list[np.ndarray]:
    """The named arrays as 1-D float vectors of one length, at least 2, with only
    finite entries: DimensionMismatch for the lengths, DomainViolation naming the
    first argument with a non-finite entry."""
    out = [as_vector(name, values) for name, values in vectors.items()]
    if len({v.size for v in out}) > 1 or out[0].size < 2:
        names = ", ".join(vectors)
        raise DimensionMismatch(f"{names} must be same-length vectors of at least 2 entries")
    for name, v in zip(vectors, out):
        if not np.isfinite(v).all():
            raise DomainViolation(f"{name} must be finite")
    return out


def q2(y_true: np.ndarray, mean_pred: np.ndarray) -> float:
    """Predictivity coefficient: 1 - SSE / SST about the test-set mean."""
    y_true, mean_pred = _samples(y_true=y_true, mean_pred=mean_pred)
    sst = float(np.sum((y_true - y_true.mean()) ** 2))
    if sst == 0.0:
        raise ConstantTruth("ground truth is constant; predictivity undefined")
    sse = float(np.sum((y_true - mean_pred) ** 2))
    return 1.0 - sse / sst


def coverage_report(
    y_true: np.ndarray,
    z_noisy: np.ndarray,
    mean_pred: np.ndarray,
    latent_sd: np.ndarray,
    noise_variance_hat: float,
) -> CalibrationReport:
    """Coverage, width, and IAE metrics over the levels of DEFAULT_ALPHA_GRID.

    Confidence intervals use the latent predictive sd; prediction intervals
    widen it by the model's noise-variance estimate, while `z_noisy` holds one
    fresh noisy draw per test point generated with the true noise variance.
    Interval membership is closed (boundaries count as covered).
    """
    y_true, z_noisy, mean_pred, latent_sd = _samples(
        y_true=y_true, z_noisy=z_noisy, mean_pred=mean_pred, latent_sd=latent_sd
    )
    if np.any(latent_sd < 0):
        raise DomainViolation("latent sd must be non-negative")
    if not is_finite_real(noise_variance_hat):
        raise InvalidConfig(
            f"noise variance estimate must be a finite number, got {noise_variance_hat!r}"
        )
    if noise_variance_hat < 0:
        raise DomainViolation("noise variance estimate must be non-negative")

    alpha = DEFAULT_ALPHA_GRID
    phi = ndtri((1.0 + alpha) / 2.0)  # (K,)
    pi_sd = np.sqrt(latent_sd**2 + noise_variance_hat)
    ci_err = np.abs(y_true - mean_pred)
    pi_err = np.abs(z_noisy - mean_pred)

    # (K, N) membership tables; closed intervals.
    cicp = np.mean(ci_err[None, :] <= phi[:, None] * latent_sd[None, :], axis=1)
    picp = np.mean(pi_err[None, :] <= phi[:, None] * pi_sd[None, :], axis=1)
    ciw = 2.0 * phi * float(np.mean(latent_sd))
    piw = 2.0 * phi * float(np.mean(pi_sd))

    return CalibrationReport(
        alpha_grid=alpha,
        cicp=cicp,
        picp=picp,
        ciw=ciw,
        piw=piw,
        iae_ci=float(np.trapezoid(np.abs(cicp - alpha), alpha)),
        iae_pi=float(np.trapezoid(np.abs(picp - alpha), alpha)),
        q2=q2(y_true, mean_pred),
    )
