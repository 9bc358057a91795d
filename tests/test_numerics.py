import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import blas, cho_solve, lapack, solve_triangular

from mfkrig import numerics
from mfkrig.exceptions import DimensionMismatch, NotPositiveDefinite

from conftest import det_cofactor, random_spd


class TestCholFactor:
    def test_identity(self):
        f = numerics.chol_factor(np.eye(3))
        assert np.allclose(f.lower_factor, np.eye(3))
        assert f.jitter_used == 0.0

    def test_diagonal(self):
        f = numerics.chol_factor(np.diag([4.0, 9.0]))
        assert np.allclose(f.lower_factor, np.diag([2.0, 3.0]))

    def test_reconstruction_oracle(self, rng):
        a = random_spd(rng, 10)
        f = numerics.chol_factor(a)
        recon = f.lower_factor @ f.lower_factor.T - f.jitter_used * np.eye(10)
        assert np.linalg.norm(recon - a) / np.linalg.norm(a) < 1e-10

    def test_positive_diagonal(self, rng):
        f = numerics.chol_factor(random_spd(rng, 7))
        assert np.all(np.diag(f.lower_factor) > 0)

    def test_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            numerics.chol_factor(-np.eye(3))

    def test_jitter_rescues_singular(self):
        # Rank-deficient PSD matrix: bare factorization fails, jitter succeeds.
        m = np.ones((4, 4))
        f = numerics.chol_factor(m)
        assert f.jitter_used > 0

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatch):
            numerics.chol_factor(np.ones((2, 3)))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", [(0, 0), (1, 1), (0, 1)])
    def test_non_finite_entry_rejected(self, bad, where):
        m = np.eye(3)
        m[where] = m[where[::-1]] = bad
        with pytest.raises(NotPositiveDefinite, match="non-finite"):
            numerics.chol_factor(m)

    def test_reads_only_the_lower_triangle(self, rng):
        m = random_spd(rng, 6)
        garbled = m.copy()
        garbled[np.triu_indices(6, 1)] = np.nan
        assert np.array_equal(
            numerics.chol_factor(garbled).lower_factor, numerics.chol_factor(m).lower_factor
        )

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("n", [5, 100])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_lower_entry_rejected(self, rng, n, bad):
        # OpenBLAS's dpotrf returns info = 0 on some of these (a NaN pivot passes
        # its positivity test), so the factor's diagonal is checked too.
        for where in [(0, 0), (n - 1, n - 1), (1, 0), (n - 1, 0), (n - 1, n - 2), (n // 2, 1)]:
            m = random_spd(rng, n)
            m[where] = bad
            with pytest.raises(NotPositiveDefinite, match="non-finite"):
                numerics.chol_factor(m)


class TestSolveSpd:
    def test_identity(self):
        f = numerics.chol_factor(np.eye(3))
        b = np.array([1.0, 2.0, 3.0])
        assert np.allclose(numerics.solve_spd(f, b), b)

    def test_diagonal(self):
        f = numerics.chol_factor(np.diag([4.0, 9.0]))
        assert np.allclose(numerics.solve_spd(f, np.array([4.0, 9.0])), [1.0, 1.0])

    def test_residual_oracle(self, rng):
        a = random_spd(rng, 12)
        b = rng.normal(size=12)
        f = numerics.chol_factor(a)
        x = numerics.solve_spd(f, b)
        assert np.linalg.norm(a @ x - b) / np.linalg.norm(b) < 1e-9

    def test_dimension_mismatch(self):
        f = numerics.chol_factor(np.eye(3))
        with pytest.raises(DimensionMismatch):
            numerics.solve_spd(f, np.ones(4))

    @pytest.mark.parametrize("n", [1, 7, 50, 100])
    @pytest.mark.parametrize("shape", [(), (1,), (3,), (4,), (0,)],
                             ids=["1d", "1col", "3col", "4col_zero_col", "no_col"])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_equals_cho_solve_bit_for_bit(self, rng, n, shape, order):
        # The one solve path is scipy's cho_solve without its finiteness scans.
        f = numerics.chol_factor(random_spd(rng, n))
        b = np.asarray(rng.normal(size=(n, *shape)), order=order)
        if shape == (4,):
            b[:, 2] = 0.0
        x = numerics.solve_spd(f, b)
        ref = cho_solve((f.lower_factor, True), b)
        assert x.shape == ref.shape == b.shape
        assert x.tobytes() == ref.tobytes()
        assert not np.shares_memory(x, b)


class TestLogdetSpd:
    def test_identity(self):
        assert numerics.logdet_spd(numerics.chol_factor(np.eye(3))) == 0.0

    def test_diagonal(self):
        f = numerics.chol_factor(np.diag([4.0, 9.0]))
        assert np.isclose(numerics.logdet_spd(f), np.log(36.0))

    def test_determinant_oracle(self, rng):
        a = random_spd(rng, 6)
        f = numerics.chol_factor(a)
        assert abs(numerics.logdet_spd(f) - np.log(det_cofactor(a))) < 1e-8

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_small_matrix_oracle(self, rng, n):
        a = random_spd(rng, n, cond=10.0)
        f = numerics.chol_factor(a)
        assert abs(numerics.logdet_spd(f) - np.log(det_cofactor(a))) < 1e-8

    def test_diagonal_shift_on_known_spectrum(self, rng):
        lam = np.array([0.5, 1.0, 2.0, 5.0, 10.0])
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        m = q @ np.diag(lam) @ q.T
        c = 0.7
        base = numerics.logdet_spd(numerics.chol_factor(m))
        shifted = numerics.logdet_spd(numerics.chol_factor(m + c * np.eye(5)))
        assert abs(shifted - base - np.sum(np.log((lam + c) / lam))) < 1e-6


class TestInvSpd:
    @staticmethod
    def _check(f):
        # One Fortran-ordered triangle: the inverse on and above the diagonal,
        # exact zeros below it.
        inv = numerics.inv_spd(f)
        ref = cho_solve((f.lower_factor, True), np.eye(f.n))
        assert inv.shape == (f.n, f.n) and inv.flags.f_contiguous
        assert np.all(np.tril(inv, -1) == 0.0)
        assert np.max(np.abs(inv - np.triu(ref))) <= 1e-12 * np.max(np.abs(ref))

    def test_matches_solve_against_identity(self, rng):
        f = numerics.chol_factor(random_spd(rng, 15))
        assert f.jitter_used == 0.0
        self._check(f)

    def test_matches_solve_against_identity_with_jitter(self):
        # Rank-deficient PSD matrix: the inverse is that of (M + jitter * I).
        x = np.linspace(0.0, 1.0, 6)
        m = np.outer(x, x) + np.outer(1.0 - x, 1.0 - x)
        f = numerics.chol_factor(m)
        assert f.jitter_used > 0
        self._check(f)
        # M + jitter * I has condition number ~1e10, hence the loose tolerance.
        upper = numerics.inv_spd(f)
        recon = (upper + np.triu(upper, 1).T) @ (m + f.jitter_used * np.eye(6))
        assert np.allclose(recon, np.eye(6), atol=1e-4)

    def test_zero_pivot_raises(self):
        f = numerics.SpdFactorization(lower_factor=np.diag([1.0, 0.0]), jitter_used=0.0)
        with pytest.raises(NotPositiveDefinite):
            numerics.inv_spd(f)


class TestLowerInverse:
    """The one inverse factor, U^-1 = (L^T)^-1, whose transpose is L^-1."""

    def test_inverts_the_factor(self, rng):
        f = numerics.chol_factor(random_spd(rng, 12))
        inv = f.upper_inverse
        assert np.array_equal(inv, np.triu(inv)) and inv.flags.f_contiguous
        assert np.allclose(f.lower_factor.T @ inv, np.eye(12), atol=1e-12)
        assert np.array_equal(inv, lapack.dtrtri(f.lower_factor.T, lower=0)[0])

    def test_computed_once_on_first_use_and_read_only(self, rng):
        # Built by whichever of inv_spd and whiten reads it first, then shared.
        f = numerics.chol_factor(random_spd(rng, 8))
        numerics.solve_spd(f, np.ones(8))
        assert "upper_inverse" not in vars(f)
        upper = numerics.inv_spd(f)
        inv = vars(f)["upper_inverse"]
        assert np.array_equal(upper, blas.dsyrk(1.0, inv))
        numerics.whiten(f, np.ones(8))
        assert f.upper_inverse is inv
        with pytest.raises(ValueError, match="read-only"):
            inv[0, 0] = 1.0

    def test_zero_pivot_raises(self):
        f = numerics.SpdFactorization(lower_factor=np.diag([1.0, 0.0]), jitter_used=0.0)
        with pytest.raises(NotPositiveDefinite):
            f.upper_inverse


class TestWhiten:
    @staticmethod
    def _check(f, b):
        u = numerics.whiten(f, b)
        assert np.array_equal(u, np.dot(f.upper_inverse.T, b))
        assert np.allclose(f.lower_factor @ u, b, atol=1e-12)
        ref = solve_triangular(f.lower_factor, b, lower=True)
        assert np.max(np.abs(u - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_equals_triangular_solve(self, rng):
        f = numerics.chol_factor(random_spd(rng, 12))
        self._check(f, rng.normal(size=(12, 30)))

    def test_quadratic_form_matches_solve(self, rng):
        # U_a^T U_b = B_a^T M^-1 B_b, the identity prediction relies on.
        f = numerics.chol_factor(random_spd(rng, 10))
        ba, bb = rng.normal(size=(10, 4)), rng.normal(size=(10, 3))
        ref = ba.T @ numerics.solve_spd(f, bb)
        got = numerics.whiten(f, ba).T @ numerics.whiten(f, bb)
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_vector_right_hand_side(self, rng):
        f = numerics.chol_factor(random_spd(rng, 6))
        b = rng.normal(size=6)
        u = numerics.whiten(f, b)
        assert u.shape == (6,) and np.array_equal(u, numerics.whiten(f, b[:, None])[:, 0])
        ref = np.dot(f.upper_inverse.T, b[:, None])
        assert np.array_equal(u, ref[:, 0])

    def test_dimension_mismatch(self):
        f = numerics.chol_factor(np.eye(3))
        with pytest.raises(DimensionMismatch):
            numerics.whiten(f, np.ones((4, 2)))

    def test_factor_with_jitter(self):
        # Rank-deficient PSD matrix: whitening is with the factor of (M + jitter * I).
        x = np.linspace(0.0, 1.0, 6)
        m = np.outer(x, x) + np.outer(1.0 - x, 1.0 - x)
        f = numerics.chol_factor(m)
        assert f.jitter_used > 0
        self._check(f, np.eye(6))

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n, m", [(12, 30), (50, 3), (7, 1), (5, 0), (100, 1000)])
    def test_equals_scipy_dtrmm_bit_for_bit(self, rng, order, n, m):
        # The bit-for-bit oracle is NumPy's product with U^-T, which `whiten` forms;
        # scipy's triangular BLAS product, which names the test, agrees to rounding.
        f = numerics.chol_factor(random_spd(rng, n))
        b = np.asarray(rng.normal(size=(n, m)), order=order)
        before = b.copy()
        u = numerics.whiten(f, b)
        assert u.shape == (n, m)
        assert np.array_equal(u, np.dot(f.upper_inverse.T, b))
        ref = blas.dtrmm(1.0, f.upper_inverse, b, lower=0, trans_a=1)
        assert np.max(np.abs(u - ref), initial=0.0) <= 1e-13 * np.max(np.abs(ref), initial=1.0)
        # The product is a new array: neither a C- nor an F-ordered B is overwritten.
        assert np.array_equal(b, before) and not np.shares_memory(u, b)

    def test_releases_the_gil(self):
        # A helper thread whitens for about 0.2 s while the main thread stamps the
        # clock in a Python loop. A call that held the GIL through its product would
        # stall the loop for the whole call, which is that one product; NumPy
        # releases the GIL for it, so the loop's gaps are scheduler gaps of a few
        # ms. The 10x margin keeps those from failing the test on a loaded machine.
        # It runs in a fresh process with one BLAS thread: a multi-threaded product
        # takes every core of a 2-core machine, and the loop then waits for a core
        # (up to 24 ms in a 0.23 s call), whether or not the GIL is released.
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", GIL_PROBE], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        gap, call_s = map(float, out.stdout.split())
        assert gap < call_s / 10, f"loop stalled {gap:.3f} s in a {call_s:.3f} s call"


SRC = os.path.dirname(os.path.dirname(numerics.__file__))

# Prints the longest gap of the main thread's clock loop while a helper thread
# whitens, and the length of the helper's call, in seconds.
GIL_PROBE = """
import threading, time
import numpy as np
from mfkrig import numerics
n, m = 1500, 3000
rng = np.random.default_rng(0)
f = numerics.SpdFactorization(np.tril(rng.uniform(size=(n, n))) + n * np.eye(n), 0.0)
f.upper_inverse
b = rng.normal(size=(n, m))
done, call_s = threading.Event(), []

def helper():
    try:
        start = time.perf_counter()
        numerics.whiten(f, b)
        call_s.append(time.perf_counter() - start)
    finally:
        done.set()

thread = threading.Thread(target=helper)
last, gap = time.perf_counter(), 0.0
deadline = last + 60.0
thread.start()
while not done.is_set() and last < deadline:
    now = time.perf_counter()
    gap, last = max(gap, now - last), now
thread.join(timeout=60.0)
assert not thread.is_alive() and call_s, "the helper's call did not complete"
print(gap, call_s[0])
"""
