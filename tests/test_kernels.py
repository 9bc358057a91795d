import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfkrig import kernels, numerics
from mfkrig.exceptions import DimensionMismatch
from mfkrig.kernels import LengthScales


class TestGaussCorr:
    def test_zero_distance(self):
        th = LengthScales(np.array([1.0, 2.0]))
        assert kernels.gauss_corr([0.3, -1.0], [0.3, -1.0], th) == 1.0

    def test_one_length_scale_apart(self):
        th = LengthScales(np.array([0.7]))
        assert np.isclose(kernels.gauss_corr([0.0], [0.7], th), np.exp(-0.5))

    def test_product_form(self):
        th = LengthScales(np.array([1.0, 2.0]))
        val = kernels.gauss_corr([0.0, 0.0], [1.0, 2.0], th)
        assert np.isclose(val, np.exp(-0.5) * np.exp(-0.5))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            kernels.gauss_corr([0.0], [0.0, 1.0], LengthScales(np.array([1.0])))

    @given(
        x=st.lists(st.floats(-5, 5), min_size=2, max_size=2),
        x2=st.lists(st.floats(-5, 5), min_size=2, max_size=2),
    )
    @settings(max_examples=50, deadline=None)
    def test_range_and_identity(self, x, x2):
        th = LengthScales(np.array([0.5, 1.5]))
        val = kernels.gauss_corr(x, x2, th)
        assert 0.0 < val <= 1.0
        if x == x2:
            assert val == 1.0
        elif val == 1.0:
            # exp(-y) rounds to 1.0 for y up to about 2**-54, so distinct points can
            # give 1.0; only the scaled squared distance is bounded.
            y = 0.5 * np.sum(((np.asarray(x) - np.asarray(x2)) / th.theta) ** 2)
            assert y < 2.0**-52


class TestCorrMatrix:
    def test_single_point(self):
        th = LengthScales(np.array([1.0]))
        x = np.array([[0.4]])
        assert np.allclose(kernels.corr_matrix(x, x, th), [[1.0]])

    def test_two_points_at_theta(self):
        th = LengthScales(np.array([0.3]))
        x = np.array([[0.0], [0.3]])
        r = kernels.corr_matrix(x, x, th)
        assert np.isclose(r[0, 1], np.exp(-0.5))

    def test_symmetry_and_unit_diagonal(self, rng):
        x = rng.uniform(size=(5, 3))
        th = LengthScales(np.array([0.5, 1.0, 2.0]))
        r = kernels.corr_matrix(x, x, th)
        assert np.allclose(r, r.T)
        assert np.allclose(np.diag(r), 1.0)

    def test_spd_with_nugget(self, rng):
        for seed in range(5):
            x = np.random.default_rng(seed).uniform(size=(20, 2))
            r = kernels.corr_matrix(x, x, LengthScales(np.array([0.4, 0.4])))
            f = numerics.chol_factor(r + 1e-6 * np.eye(20))
            assert f.jitter_used == 0.0


def _grad_stack(x, theta):
    th = LengthScales(theta)
    return kernels.corr_matrix_grad(x, th, kernels.corr_matrix(x, x, th))


class TestCorrMatrixGrad:
    def test_coincident_points(self):
        g = _grad_stack(np.zeros((3, 2)), np.array([1.0, 1.0]))
        assert g.shape == (3, 3, 2)
        assert np.allclose(g, 0.0)

    def test_two_points_hand_derivative(self):
        theta = 0.8
        g = _grad_stack(np.array([[0.0], [theta]]), np.array([theta]))
        assert g.shape == (2, 2, 1)
        assert np.isclose(g[0, 1, 0], np.exp(-0.5) / theta)
        assert g[0, 0, 0] == 0.0

    @pytest.mark.parametrize("d_dim", [0, 1])
    def test_finite_difference_oracle(self, rng, d_dim):
        x = rng.uniform(size=(4, 2))
        theta = np.array([0.6, 1.2])
        g = _grad_stack(x, theta)
        assert g.shape == (4, 4, 2)
        h = 1e-5 * theta[d_dim]
        tp, tm = theta.copy(), theta.copy()
        tp[d_dim] += h
        tm[d_dim] -= h
        fd = (
            kernels.corr_matrix(x, x, LengthScales(tp))
            - kernels.corr_matrix(x, x, LengthScales(tm))
        ) / (2 * h)
        denom = np.maximum(np.abs(fd), 1e-10)
        assert np.max(np.abs(g[:, :, d_dim] - fd) / denom) < 1e-6

    def test_wrong_r_shape(self):
        x = np.zeros((3, 1))
        th = LengthScales(np.array([1.0]))
        for r in (np.eye(2), np.ones((3, 3, 1)), np.ones(3)):
            with pytest.raises(DimensionMismatch):
                kernels.corr_matrix_grad(x, th, r)


def test_length_scales_validation():
    with pytest.raises(ValueError):
        LengthScales(np.array([1.0, -0.5]))


def test_kernel_params_noise_variance():
    kp = kernels.KernelParams(theta=LengthScales(np.array([1.0])), sigma2=4.0, eta=0.25)
    assert kp.noise_variance == 1.0
    with pytest.raises(ValueError):
        kernels.KernelParams(theta=LengthScales(np.array([1.0])), sigma2=0.0, eta=0.1)
