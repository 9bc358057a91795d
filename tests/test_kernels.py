import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_solve
from scipy.spatial.distance import cdist

from mfkrig import gp, kernels, numerics
from mfkrig.exceptions import DimensionMismatch, InvalidConfig
from mfkrig.kernels import KernelWorkspace, LengthScales

from conftest import gauss_corr, random_spd


class TestGaussCorr:
    def test_zero_distance(self):
        th = LengthScales(np.array([1.0, 2.0]))
        assert gauss_corr([0.3, -1.0], [0.3, -1.0], th) == 1.0

    def test_one_length_scale_apart(self):
        th = LengthScales(np.array([0.7]))
        assert np.isclose(gauss_corr([0.0], [0.7], th), np.exp(-0.5))

    def test_product_form(self):
        th = LengthScales(np.array([1.0, 2.0]))
        val = gauss_corr([0.0, 0.0], [1.0, 2.0], th)
        assert np.isclose(val, np.exp(-0.5) * np.exp(-0.5))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            gauss_corr([0.0], [0.0, 1.0], LengthScales(np.array([1.0])))

    @given(
        x=st.lists(st.floats(-5, 5), min_size=2, max_size=2),
        x2=st.lists(st.floats(-5, 5), min_size=2, max_size=2),
    )
    @settings(max_examples=50, deadline=None)
    def test_range_and_identity(self, x, x2):
        th = LengthScales(np.array([0.5, 1.5]))
        val = gauss_corr(x, x2, th)
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
        # D = 1 takes NumPy's outer difference, D >= 2 cdist: both exactly symmetric.
        for theta in ([0.7], [0.5, 1.0, 2.0], [0.5, 1.0, 2.0, 0.3]):
            th = LengthScales(np.array(theta))
            for n in (1, 5, 40):
                x = rng.uniform(-3.0, 3.0, size=(n, th.ndim))
                r = kernels.corr_matrix(x, x, th)
                assert np.array_equal(r, r.T)
                assert np.all(np.diag(r) == 1.0)

    @pytest.mark.parametrize("case", ["random", "coincident", "negative", "large"])
    def test_one_dimension_equals_cdist(self, rng, case):
        """The D = 1 branch gives cdist's bits, including where differences cancel
        exactly and where rounding of large inputs shows."""
        x, x2 = rng.uniform(size=300), rng.uniform(size=70)
        if case == "coincident":
            x2 = np.concatenate([x[:40], x[:30]])
        elif case == "negative":
            x, x2 = -5.0 * x - 1.0, 3.0 * x2 - 2.5
        elif case == "large":
            x, x2 = 1e6 + 50.0 * x, 1e6 * (1.0 + x2)
        for theta in (0.013, 0.4, 3.0, 2.5e5):
            th = LengthScales(np.array([theta]))
            expected = cdist_corr(x, x2, th)
            assert np.array_equal(kernels.corr_matrix(x, x2, th), expected)
            assert np.array_equal(kernels.corr_matrix(x[:, None], x2[:, None], th), expected)

    def test_spd_with_nugget(self, rng):
        for seed in range(5):
            x = np.random.default_rng(seed).uniform(size=(20, 2))
            r = kernels.corr_matrix(x, x, LengthScales(np.array([0.4, 0.4])))
            f = numerics.chol_factor(r + 1e-6 * np.eye(20))
            assert f.jitter_used == 0.0


def cdist_corr(x, x2, theta):
    """corr_matrix by cdist's squared Euclidean distances at any D: the oracle
    of the one-dimensional branch."""
    d = theta.ndim
    r = cdist(
        np.reshape(x, (-1, d)) / theta.theta, np.reshape(x2, (-1, d)) / theta.theta, "sqeuclidean"
    )
    r *= -0.5
    return np.exp(r, out=r)


def dense_grad_stack(x, theta, r):
    """All length-scale partials of r = corr_matrix(x, x, theta), stacked as (N, N, D):
    slice d holds R_ij (x_i^(d) - x_j^(d))^2 / theta_d^3. This is the stack the
    workspace contraction avoids; here it is the oracle for that contraction."""
    xs = np.asarray(x, dtype=float) / theta.theta**1.5
    diff = xs[:, None, :] - xs[None, :, :]
    return r[:, :, None] * (diff * diff)


def _contraction(x, theta, a):
    ws = KernelWorkspace(x)
    th = LengthScales(theta)
    return kernels.corr_matrix_grad(ws, th, ws.corr(th), a)


class TestKernelWorkspace:
    @pytest.mark.parametrize("dim", [1, 4])
    def test_exactly_symmetric_unit_diagonal(self, rng, dim):
        for n in (1, 2, 7, 20, 33, 75):
            x = rng.uniform(size=(n, dim)) * rng.uniform(0.5, 20.0, dim)
            th = LengthScales(rng.uniform(0.2, 3.0, dim))
            r = KernelWorkspace(x).corr(th)
            assert np.array_equal(r, r.T)
            assert np.all(np.diag(r) == 1.0)
            # Both paths round exp's argument; far pairs (log R down to about -700)
            # carry that rounding into R at a relative 1e-13 or so.
            np.testing.assert_allclose(r, kernels.corr_matrix(x, x, th), rtol=1e-12, atol=0)

    def test_one_dimensional_inputs_are_a_column(self):
        ws = KernelWorkspace(np.array([0.0, 0.3, 1.0]))
        assert ws.x.shape == (3, 1) and ws.n == 3
        assert ws.d2.shape == (1, 9)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            KernelWorkspace(np.zeros((3, 2))).corr(LengthScales(np.array([1.0])))


class TestCorrMatrixGrad:
    def test_coincident_points(self, rng):
        g = _contraction(np.zeros((3, 2)), np.array([1.0, 1.0]), rng.normal(size=(3, 3)))
        assert g.shape == (2,)
        assert np.all(g == 0.0)

    def test_two_points_hand_derivative(self):
        theta = 0.8
        g = _contraction(np.array([[0.0], [theta]]), np.array([theta]), np.array([[0.0, 1.0],
                                                                                  [0.0, 0.0]]))
        assert g.shape == (1,)
        assert np.isclose(g[0], np.exp(-0.5) / theta)

    @pytest.mark.parametrize("d_dim", [0, 1])
    def test_finite_difference_oracle(self, rng, d_dim):
        x = rng.uniform(size=(4, 2))
        theta = np.array([0.6, 1.2])
        th = LengthScales(theta)
        stack = dense_grad_stack(x, th, kernels.corr_matrix(x, x, th))
        assert stack.shape == (4, 4, 2)
        h = 1e-5 * theta[d_dim]
        tp, tm = theta.copy(), theta.copy()
        tp[d_dim] += h
        tm[d_dim] -= h
        fd = (
            kernels.corr_matrix(x, x, LengthScales(tp))
            - kernels.corr_matrix(x, x, LengthScales(tm))
        ) / (2 * h)
        denom = np.maximum(np.abs(fd), 1e-10)
        assert np.max(np.abs(stack[:, :, d_dim] - fd) / denom) < 1e-6
        # The contraction with any A is A : (slice d) of the oracle stack.
        a = rng.normal(size=(4, 4))
        expected = np.sum(a * stack[:, :, d_dim])
        assert abs(_contraction(x, theta, a)[d_dim] - expected) <= 1e-13 * abs(expected)

    @pytest.mark.parametrize("dim", [1, 4])
    def test_diagonal_of_r_is_not_read(self, rng, dim):
        # gp.profiled_gls passes R~ = R + eta I in R's buffer; the contraction must
        # give the same bits, as the squared differences on the diagonal are 0.
        x = rng.uniform(size=(20, dim))
        ws = KernelWorkspace(x)
        th = LengthScales(rng.uniform(0.2, 2.0, dim))
        a = rng.normal(size=(20, 20))
        r = ws.corr(th)
        r_tilde = r.copy()
        np.fill_diagonal(r_tilde, 1.0 + 0.37)
        assert np.array_equal(kernels.corr_matrix_grad(ws, th, r_tilde, a),
                              kernels.corr_matrix_grad(ws, th, r, a))

    def test_wrong_r_shape(self):
        ws = KernelWorkspace(np.zeros((3, 1)))
        th = LengthScales(np.array([1.0]))
        for r in (np.eye(2), np.ones((3, 3, 1)), np.ones(3)):
            with pytest.raises(DimensionMismatch):
                kernels.corr_matrix_grad(ws, th, r, np.eye(3))
        with pytest.raises(DimensionMismatch):
            kernels.corr_matrix_grad(ws, th, np.eye(3), np.eye(2))


def dense_profiled_objective(x, z, h, theta, eta, latent=None):
    """The profiled objective with R from corr_matrix and its gradient from the
    (N, N, D) oracle stack: the reference for the workspace path."""
    n, d = len(z), theta.ndim
    r = kernels.corr_matrix(x, x, theta)
    fact = numerics.chol_factor(r + eta * np.eye(n))
    rt_inv = cho_solve((fact.lower_factor, True), np.eye(n))
    t_mat = np.zeros((h.shape[1], h.shape[1]))
    if latent is not None:
        g, sigma = latent
        t_mat[: g.shape[1], : g.shape[1]] = g.T @ ((rt_inv * sigma) @ g)
    beta = np.linalg.solve(h.T @ rt_inv @ h + t_mat, h.T @ rt_inv @ z)
    resid = z - h @ beta
    ri_resid = rt_inv @ resid
    sigma2 = (resid @ ri_resid + beta @ t_mat @ beta) / n
    kappa = ri_resid / np.sqrt(sigma2)
    a = rt_inv - np.outer(kappa, kappa)
    if latent is not None:
        rho = g @ beta[: g.shape[1]]
        a = a - rt_inv @ (np.outer(rho, rho) * sigma) @ rt_inv / sigma2
    value = 0.5 * n * np.log(sigma2) + 0.5 * numerics.logdet_spd(fact)
    value += 0.5 * n * (1.0 + np.log(2.0 * np.pi))
    grad = np.empty(d + 1)
    grad[:d] = a.reshape(-1) @ dense_grad_stack(x, theta, r).reshape(n * n, d)
    grad[d] = np.trace(a)
    return value, 0.5 * grad


class TestWorkspaceAgreement:
    @pytest.mark.parametrize("dim", [1, 4])
    @pytest.mark.parametrize("with_latent", [False, True])
    def test_value_and_gradient_match_dense_oracle(self, dim, with_latent):
        rng = np.random.default_rng(40 + dim)
        for n in (12, 20, 75):
            x = rng.uniform(size=(n, dim))
            z = np.sin(3 * x[:, 0]) + x.sum(axis=1) + rng.normal(scale=0.3, size=n)
            g = np.column_stack([np.ones(n), x[:, 0]])
            latent = None
            if with_latent:
                mu = z + rng.normal(scale=0.2, size=n)
                h = np.hstack([g * mu[:, None], np.ones((n, 1))])
                latent = (g, 0.05 * random_spd(rng, n, cond=50.0))
            else:
                h = g
            theta = LengthScales(rng.uniform(0.2, 1.5, dim))
            eta = float(rng.uniform(0.01, 0.5))
            value, grad = gp.profiled_objective(KernelWorkspace(x), z, h, theta, eta, latent)
            ref_value, ref_grad = dense_profiled_objective(x, z, h, theta, eta, latent)
            assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
            assert np.all(np.abs(grad - ref_grad) <= 1e-10 * np.abs(ref_grad))


def test_length_scales_validation():
    with pytest.raises(InvalidConfig):
        LengthScales(np.array([1.0, -0.5]))


@pytest.mark.parametrize("bad", [0.0, np.inf, np.nan])
def test_length_scales_reject_zero_and_non_finite(bad):
    with pytest.raises(InvalidConfig, match="length scales"):
        LengthScales(np.array([1.0, bad]))


def test_kernel_params_noise_variance():
    kp = kernels.KernelParams(theta=LengthScales(np.array([1.0])), sigma2=4.0, eta=0.25)
    assert kp.noise_variance == 1.0
    with pytest.raises(InvalidConfig):
        kernels.KernelParams(theta=LengthScales(np.array([1.0])), sigma2=0.0, eta=0.1)


@pytest.mark.parametrize(
    "field, value",
    [("sigma2", -1.0), ("sigma2", np.inf), ("sigma2", np.nan), ("eta", -1e-12),
     ("eta", np.inf), ("eta", np.nan)],
)
def test_kernel_params_reject_bad_values(field, value):
    kwargs = {"theta": LengthScales(np.array([1.0])), "sigma2": 1.0, "eta": 0.0, field: value}
    with pytest.raises(InvalidConfig, match=field):
        kernels.KernelParams(**kwargs)
