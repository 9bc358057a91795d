"""SPD linear algebra: Cholesky factorization with jitter escalation, solves, log-determinants.

Likelihood and prediction code consumes :class:`SpdFactorization` objects, each
inverting its factor at most once, into its cached inverse factor U^-1. The
single-fidelity likelihood applies the inverse by solves with the cached factor and
takes one triangle of the explicit inverse only for its gradient's trace terms; the
HF M-step takes that triangle for every product. Prediction takes full and cross
covariances from solves, and diagonal variances from one product with U^-1.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import blas, cython_blas, lapack

from .exceptions import DimensionMismatch, NotPositiveDefinite

# Jitter multipliers applied to mean(diag(M)) when the bare factorization fails.
JITTER_SCHEDULE = (1e-10, 1e-8, 1e-6)


def _cython_blas_routine(name: str, n_args: int):
    """scipy's BLAS routine `name`, through the function pointer that
    scipy.linalg.cython_blas exports, as a ctypes function of `n_args` pointers
    (every Fortran argument is one).

    It is the routine `scipy.linalg.blas` wraps, but ctypes releases the GIL for the
    length of the call, where the f2py wrapper holds it, so threads that call it
    run at the same time. A capsule's name is its C signature, which
    PyCapsule_GetPointer must be given back.
    """
    capsule = cython_blas.__pyx_capi__[name]
    api = ctypes.pythonapi
    get_name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    get_pointer = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api)
    )
    prototype = ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * n_args)
    return prototype(get_pointer(capsule, get_name(capsule)))


# dtrmm(side, uplo, transa, diag, m, n, alpha, A, lda, B, ldb): B := alpha op(A) B.
_DTRMM = _cython_blas_routine("dtrmm", 11)
# The arguments that never change, built once.
_LEFT, _UPPER, _TRANSPOSED, _NO = (ctypes.byref(ctypes.c_char(c)) for c in (b"L", b"U", b"T", b"N"))
_ONE = ctypes.byref(ctypes.c_double(1.0))
_SHAPE = ctypes.c_int * 2


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
        and read-only, from LAPACK dtrtri on first use. `inv_spd` and `whiten` read
        it, so a factorization inverts its factor at most once."""
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
    """L^-1 B = U^-T B for the cached lower factor L = U^T, by one triangular product
    (BLAS dtrmm) with the cached inverse factor, for diagonal variances only: column
    j has squared norm b_j^T (M + jitter_used * I)^-1 b_j. A 1-D B is one column.

    A product runs at matrix-multiply speed where a triangular solve against many
    right-hand sides does not, and dtrmm skips the zeros a dense product with the
    triangular U^-T would multiply; the inverse costs one dtrtri per factorization.
    Its rounding grows with the condition number of L, so full and cross
    covariances take B_a^T times a solve (`solve_spd`), not whitened products.

    dtrmm is scipy's, called through ctypes so that the GIL is released while it
    runs: the row blocks of a prediction whiten on several threads at once. The
    product is the one `scipy.linalg.blas.dtrmm(1.0, U^-1, B, lower=0, trans_a=1)`
    returns, bit for bit, in the Fortran-ordered copy of B that wrapper makes.
    """
    b = _check_rows(f, b)
    u = np.array(b[:, None] if b.ndim == 1 else b, order="F")
    if u.size:  # an empty product is a no-op, and from_buffer refuses an empty buffer
        shape = _SHAPE(*u.shape)
        m, n = ctypes.byref(shape), ctypes.byref(shape, 4)
        # from_buffer takes a C-ordered buffer; u.T is one, on u's memory.
        out = ctypes.byref(ctypes.c_char.from_buffer(u.T))
        _DTRMM(_LEFT, _UPPER, _TRANSPOSED, _NO, m, n, _ONE, f.upper_inverse.ctypes.data, m, out, m)
    return u.reshape(b.shape)


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
