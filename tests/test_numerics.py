import numpy as np
import pytest
from scipy.linalg import cho_solve, solve_triangular

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
        inv = numerics.inv_spd(f)
        ref = cho_solve((f.lower_factor, True), np.eye(f.n))
        assert np.array_equal(inv, inv.T)
        assert np.max(np.abs(inv - ref)) <= 1e-12 * np.max(np.abs(ref))

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
        recon = numerics.inv_spd(f) @ (m + f.jitter_used * np.eye(6))
        assert np.allclose(recon, np.eye(6), atol=1e-4)

    def test_zero_pivot_raises(self):
        f = numerics.SpdFactorization(lower_factor=np.diag([1.0, 0.0]), jitter_used=0.0)
        with pytest.raises(NotPositiveDefinite):
            numerics.inv_spd(f)


class TestLowerInverse:
    def test_inverts_the_factor(self, rng):
        f = numerics.chol_factor(random_spd(rng, 12))
        inv = f.lower_inverse
        assert np.array_equal(inv, np.tril(inv))
        assert np.allclose(inv @ f.lower_factor, np.eye(12), atol=1e-12)

    def test_computed_once_on_first_use_and_read_only(self, rng):
        f = numerics.chol_factor(random_spd(rng, 8))
        numerics.inv_spd(f)
        numerics.solve_spd(f, np.ones(8))
        assert "lower_inverse" not in vars(f)
        inv = f.lower_inverse
        assert f.lower_inverse is inv
        with pytest.raises(ValueError, match="read-only"):
            inv[0, 0] = 1.0

    def test_zero_pivot_raises(self):
        f = numerics.SpdFactorization(lower_factor=np.diag([1.0, 0.0]), jitter_used=0.0)
        with pytest.raises(NotPositiveDefinite):
            f.lower_inverse


class TestWhiten:
    @staticmethod
    def _check(f, b):
        u = numerics.whiten(f, b)
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
        assert np.array_equal(numerics.whiten(f, b), numerics.whiten(f, b[:, None])[:, 0])

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
