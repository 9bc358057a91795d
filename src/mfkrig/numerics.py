"""SPD linear algebra: Cholesky factorization with jitter escalation, solves, log-determinants.

Likelihood and prediction code consumes :class:`SpdFactorization` objects, each
inverting its factor at most once, into its cached inverse factor U^-1. The
single-fidelity likelihood applies the inverse by solves with the cached factor and
takes one triangle of the explicit inverse only for its gradient's trace terms; the
HF M-step takes that triangle for every product. Prediction takes full and cross
covariances from solves, and diagonal variances from one NumPy matrix product with
U^-T.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import blas, lapack

from .exceptions import DimensionMismatch, NotPositiveDefinite

# Jitter multipliers applied to mean(diag(M)) when the bare factorization fails.
JITTER_SCHEDULE = (1e-10, 1e-8, 1e-6)


@dataclass(frozen=True)
class SpdFactorization:
    """Lower Cholesky factor L of (M + jitter_used * I), with its cached inverse factor."""

    lower_factor: np.ndarray
    jitter_used: float

    @property
    def n(self) -> int:
        return self.lower_factor.shape[0]

    @cached_property
    def upper_inverse(self) -> np.ndarray:
        """The one inverse factor U^-1 = (L^T)^-1: upper triangular, Fortran-ordered
        and read-only, from LAPACK dtrtri on first use. `inv_spd` (BLAS dsyrk) and
        `whiten` (NumPy's product with its transpose) read it, so a factorization
        inverts its factor at most once."""
        inv, info = lapack.dtrtri(self.lower_factor.T, lower=0)
        if info != 0:
            raise NotPositiveDefinite(f"dtrtri failed to invert the factor (info={info})")
        inv.setflags(write=False)
        return inv


def chol_factor(m: np.ndarray) -> SpdFactorization:
    """Cholesky factor of the symmetric matrix whose lower triangle is m's lower
    triangle, escalating diagonal jitter on failure. The upper triangle is never
    read, and no O(N^2) validation pass runs on success: every R~ = R + eta I of a
    fit and every assembled covariance is symmetric and finite by construction.

    LAPACK dpotrf factors the lower triangle and zeroes the upper one; a nonzero
    `info` means the leading minor of that order is not positive definite. Only
    then is the lower triangle checked for a NaN or an infinity, before the jitter
    scale mean(diag(M)) is computed. DimensionMismatch for a non-square matrix;
    NotPositiveDefinite if every jitter level fails, or if the lower triangle holds
    a non-finite entry, which reaches the factor's diagonal if dpotrf passes it.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {m.shape}")
    lower, info = lapack.dpotrf(m, lower=1, clean=1)
    jitter = 0.0
    if info != 0:
        if not np.isfinite(np.tril(m)).all():
            raise NotPositiveDefinite("matrix has a non-finite entry")
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
    """Solve (M + jitter_used * I) X = B by two triangular solves with the cached
    lower factor (LAPACK dpotrs), for a 1-D or 2-D B, in a new array of B's shape.

    It is the call `scipy.linalg.cho_solve((L, True), B)` makes, bit for bit,
    without that wrapper's two finiteness scans: the factor is finite by
    `chol_factor`, and B is built by the package. dpotrs's `info` is nonzero only
    for an illegal argument, which the checked shapes rule out.
    """
    return lapack.dpotrs(f.lower_factor, _check_rows(f, b), lower=1)[0]


def whiten(f: SpdFactorization, b: np.ndarray) -> np.ndarray:
    """L^-1 B = U^-T B for the cached lower factor L = U^T, by one NumPy matrix
    product with the transpose of the cached inverse factor, for diagonal variances
    only: column j has squared norm b_j^T (M + jitter_used * I)^-1 b_j. A 1-D B is
    one column, and the result has B's shape, in a new array.

    A product runs at matrix-multiply speed where a triangular solve against many
    right-hand sides does not; the inverse costs one dtrtri per factorization. Its
    rounding grows with the condition number of L, so full and cross covariances
    take B_a^T times a solve (`solve_spd`), not whitened products.

    `@` (np.matmul) releases the GIL for the whole product, so the row blocks of a
    prediction whiten on several threads at once. `np.dot` gives the same bits but
    held the GIL for its first 6 to 10 ms of a 0.2 s product at 1,500 x 3,000, as
    it zeroes its output. With NumPy's bundled OpenBLAS, a 1,000-column B gave the
    same bits on 1 and 2 BLAS threads at N = 20 to 200, while other widths could
    change in their last columns from N = 40 on: observed behaviour of that build,
    not a documented guarantee.
    """
    return f.upper_inverse.T @ _check_rows(f, b)


def inv_spd(f: SpdFactorization) -> np.ndarray:
    """The upper triangle of the symmetric inverse of (M + jitter_used * I), from the
    cached factor: an N x N Fortran-ordered array holding (M + jitter_used * I)^-1 on
    and above its diagonal and exact zeros below it. Callers read that one triangle.
    The single-fidelity likelihood reads it only for its gradient's trace terms and
    applies the inverse to vectors by `solve_spd`, whose rounding is far smaller at
    an ill-conditioned matrix; the HF M-step needs the full inverse and mirrors it.

    BLAS dsyrk forms the upper triangle of U^-1 U^-T from the cached U^-1, which
    skips the mirror of a full product. LAPACK dlauum would form it in 70 % of
    dsyrk's time at N = 100 on one thread, but OpenBLAS runs dlauum (and dpotri,
    which is dtrtri + dlauum) on all its threads at every size: unpinned it took
    5 to 8 times as long at N <= 75, and its result bits depended on the thread
    count from N = 10 on, where dsyrk's and dtrtri's did not up to N = 100.
    """
    return blas.dsyrk(1.0, f.upper_inverse)


def logdet_spd(f: SpdFactorization) -> float:
    """log det of (M + jitter_used * I)."""
    return 2.0 * float(np.log(f.lower_factor.diagonal()).sum())
