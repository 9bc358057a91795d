"""SPD linear algebra: Cholesky factorization with jitter escalation, solves, log-determinants.

Likelihood and prediction code consumes :class:`SpdFactorization` objects; the
likelihood gradients also take the explicit inverse from the cached factor.
Prediction takes full and cross covariances from solves, and diagonal variances
from one triangular product with the inverse factor, computed on first use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import blas, cho_solve, lapack

from .exceptions import DimensionMismatch, NotPositiveDefinite, NotSymmetric

# Jitter multipliers applied to mean(diag(M)) when the bare factorization fails.
JITTER_SCHEDULE = (1e-10, 1e-8, 1e-6)

SYMMETRY_RTOL = 1e-9


@dataclass(frozen=True)
class SpdFactorization:
    """Lower-triangular Cholesky factor of (M + jitter_used * I)."""

    lower_factor: np.ndarray
    jitter_used: float

    @property
    def n(self) -> int:
        return self.lower_factor.shape[0]

    @cached_property
    def lower_inverse(self) -> np.ndarray:
        """L^-1, lower triangular and read-only, from LAPACK dtrtri on first use.

        Only prediction reads it, so the factorizations of a fit never compute it.
        """
        inv, info = lapack.dtrtri(self.lower_factor, lower=1)
        if info != 0:
            raise NotPositiveDefinite(f"dtrtri failed to invert the factor (info={info})")
        inv.flags.writeable = False
        return inv


def chol_factor(m: np.ndarray) -> SpdFactorization:
    """Cholesky-factorize a symmetric matrix, escalating diagonal jitter on failure.

    The validating front of `chol_core`, for public callers and model assembly:
    raises DimensionMismatch for a non-square matrix, NotPositiveDefinite if an
    entry is not finite and NotSymmetric if the symmetric mismatch exceeds the
    relative tolerance, then factorizes by `chol_core`.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    hi, lo = m.max(), m.min()  # NaN propagates to both
    if not (math.isfinite(hi) and math.isfinite(lo)):
        raise NotPositiveDefinite("matrix has a non-finite entry")
    # M - M^T is exactly antisymmetric, so its max is its largest absolute entry.
    if (m - m.T).max() > SYMMETRY_RTOL * max(hi, -lo, 1.0):
        raise NotSymmetric("matrix is not symmetric within tolerance")
    return chol_core(m)


def chol_core(m: np.ndarray) -> SpdFactorization:
    """Cholesky factor of a float matrix from its lower triangle, escalating
    diagonal jitter on failure, with no O(N^2) validation pass: for matrices that
    are symmetric by construction, such as every R~ = R + eta I of a fit.

    LAPACK dpotrf factors the lower triangle and zeroes the upper one; a nonzero
    `info` means the leading minor of that order is not positive definite. The
    jitter scale mean(diag(M)) is computed only when the bare factorization fails.
    NotPositiveDefinite if every jitter level fails, or if the lower triangle
    holds a NaN or an infinity, which reaches the factor's diagonal if it passes.
    """
    lower, info = lapack.dpotrf(m, lower=1, clean=1)
    jitter = 0.0
    if info != 0:
        mean_diag = float(np.mean(np.diag(m)))
        for level in JITTER_SCHEDULE:
            jitter = level * mean_diag
            lower, info = lapack.dpotrf(m + jitter * np.eye(m.shape[0]), lower=1, clean=1)
            if info == 0:
                break
    if info != 0:
        raise NotPositiveDefinite("matrix is not positive definite even after jitter escalation")
    # A finite matrix's factor cannot overflow this sum (cheaper than a NumPy reduction).
    if not math.isfinite(sum(lower.diagonal().tolist())):
        raise NotPositiveDefinite("matrix has a non-finite entry")
    return SpdFactorization(lower, jitter)


def _check_rows(f: SpdFactorization, b: np.ndarray) -> np.ndarray:
    b = np.asarray(b, dtype=float)
    if b.shape[0] != f.n:
        raise DimensionMismatch(
            f"right-hand side has {b.shape[0]} rows, factorization is {f.n}x{f.n}"
        )
    return b


def solve_spd(f: SpdFactorization, b: np.ndarray) -> np.ndarray:
    """Solve (M + jitter_used * I) X = B using the cached factorization."""
    return cho_solve((f.lower_factor, True), _check_rows(f, b))


def whiten(f: SpdFactorization, b: np.ndarray) -> np.ndarray:
    """U = L^-1 B for the cached lower factor L, as one triangular product (BLAS
    dtrmm) with the cached inverse factor, for diagonal variances only: column j
    of U has squared norm b_j^T (M + jitter_used * I)^-1 b_j. A 1-D B is one column.

    A product runs at matrix-multiply speed where a triangular solve against many
    right-hand sides does not, and dtrmm skips the zeros a dense product with the
    triangular L^-1 would multiply; the inverse costs one dtrtri per factorization.
    Its rounding grows with the condition number of L, so full and cross
    covariances take B_a^T times a solve (`solve_spd`) instead of U_a^T U_b.
    """
    b = _check_rows(f, b)
    u = blas.dtrmm(1.0, f.lower_inverse, b[:, None] if b.ndim == 1 else b, lower=1)
    return u.reshape(b.shape)


def inv_spd(f: SpdFactorization) -> np.ndarray:
    """Explicit symmetric inverse of (M + jitter_used * I) from the cached factor.

    LAPACK dtrtri inverts the factor, passed as its Fortran-ordered upper
    transpose L^T (no copy); the inverse is then L^-T L^-1 = U^-1 U^-T, which
    NumPy forms as one symmetric rank-k update, so the result is exactly
    symmetric. This is what dpotri computes, but OpenBLAS runs dpotri
    multi-threaded at every size, and at these sizes its thread synchronization
    costs milliseconds per call once the cores are shared (as in a process-pool
    campaign); dtrtri stays on one thread for small factors.
    """
    upper_inv, info = lapack.dtrtri(f.lower_factor.T, lower=0)
    if info != 0:
        raise NotPositiveDefinite(f"dtrtri failed to invert the factor (info={info})")
    return np.dot(upper_inv, upper_inv.T)


def logdet_spd(f: SpdFactorization) -> float:
    """log det of (M + jitter_used * I)."""
    return 2.0 * float(np.log(f.lower_factor.diagonal()).sum())
