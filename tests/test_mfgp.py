import dataclasses
import functools
import math
import threading

import numpy as np
import pytest
from scipy.linalg import cho_solve

from mfkrig import design, gp, kernels, mfgp, numerics
from mfkrig.cli import load_model, save_model
from mfkrig.gp import (
    PREDICT_BLOCK_ROWS,
    BasisSpec,
    Dataset,
    GpHyper,
    MultiStartConfig,
    TrainedGp,
    constant_basis,
    default_bounds,
    fit_gp,
    log_space_search,
    posterior_cross_cov,
    predict_gp,
)
from mfkrig.exceptions import (
    DimensionMismatch,
    DomainViolation,
    InvalidConfig,
    NotPositiveDefinite,
    RankDeficientBasis,
    SingularNormalEquations,
)
from mfkrig.kernels import KernelParams, KernelWorkspace, LengthScales
from mfkrig.metrics import q2
from mfkrig.mfgp import (
    INNER_N_STARTS,
    EmConfig,
    EStepState,
    HfParams,
    HfWorkspace,
    MfData,
    MfModel,
    ar_marginal,
    e_step,
    em_fit_hf,
    fit_mf,
    hf_observed_loglik,
    hf_workspace,
    m_step_closed_forms,
    predict_mf,
    q_tilde_and_grad,
)

from conftest import (
    central_differences,
    count_calls,
    det_cofactor,
    first_search_callback,
    gauss_corr,
)


def _lf_moments(lf_model, x):
    """LF posterior mean and full covariance at x."""
    pred = predict_gp(lf_model, x, cov="full")
    return pred.mean, pred.covariance


def _ar_marginal(data, lf_model, params, hf_basis, rho_basis):
    """The AR(1) marginal at params, on a freshly built HF workspace."""
    return ar_marginal(hf_workspace(data, lf_model, hf_basis, rho_basis), params)


def _ar_cov(ar):
    """L L^T of the AR(1) marginal's factor: its covariance, as no jitter was added."""
    assert ar.factorization.jitter_used == 0.0
    low = ar.factorization.lower_factor
    return low @ low.T


def _nested_lf(n_lf=20, n_hf=8, seed=0):
    """Noise-free LF fit whose training set contains the HF inputs."""
    pair = design.ANALYTIC_1D
    x_lf = design.scale_to_domain(pair, design.lhs(n_lf, 1, seed=seed).points)
    z_lf = design.eval_testfn(pair, "lf", x_lf)
    lf_model = fit_gp(
        Dataset(x_lf, z_lf),
        config=MultiStartConfig(n_starts=5, rng_seed=seed + 1),
        fixed_eta=0.0,
    )
    x_hf = x_lf[:n_hf]
    return lf_model, x_lf, z_lf, x_hf


def _noisy_lf(n_lf=40, seed=0, noise_sd=0.05):
    pair = design.ANALYTIC_1D
    x_lf = design.scale_to_domain(pair, design.lhs(n_lf, 1, seed=seed).points)
    z_lf = design.add_noise(
        design.eval_testfn(pair, "lf", x_lf), noise_sd**2, seed=seed + 100
    )
    return fit_gp(Dataset(x_lf, z_lf), config=MultiStartConfig(n_starts=5, rng_seed=seed))


def _some_params(dim=1, beta_rho=(0.8,), beta_h=(0.3,), sigma2=0.5, eta=0.2):
    return HfParams(
        beta_rho=np.array(beta_rho),
        beta_h=np.array(beta_h),
        sigma2_h=sigma2,
        theta_h=LengthScales(np.full(dim, 0.6)),
        eta_h=eta,
    )


class TestLfPosteriorMoments:
    def test_nested_noise_free(self):
        lf_model, x_lf, z_lf, x_hf = _nested_lf()
        mean, cov = _lf_moments(lf_model, x_hf)
        assert np.max(np.abs(mean - z_lf[: len(x_hf)])) < 1e-6
        assert np.max(np.abs(cov)) < 1e-8

    def test_prior_reversion(self):
        lf_model = _noisy_lf()
        x_far = np.array([[500.0], [501.0]])
        mean, cov = _lf_moments(lf_model, x_far)
        k = lf_model.hyper.kernel
        assert np.allclose(mean, lf_model.hyper.beta[0], atol=1e-8)
        expected = k.sigma2 * kernels.corr_matrix(x_far, x_far, k.theta)
        assert np.allclose(cov, expected, atol=1e-8)

    def test_psd_at_random_points(self, rng):
        lf_model = _noisy_lf()
        x = rng.uniform(0, 2, size=(6, 1))
        _, cov = _lf_moments(lf_model, x)
        assert np.allclose(cov, cov.T, atol=1e-10)
        assert np.linalg.eigvalsh(cov).min() >= -1e-8


class TestEStep:
    def test_zero_scaling_independence(self, rng):
        lf_model = _noisy_lf()
        x_hf = rng.uniform(0, 2, size=(10, 1))
        z_hf = rng.normal(size=10)
        data = Dataset(x_hf, z_hf)
        params = _some_params(beta_rho=(0.0,))
        state = e_step(_ar_marginal(data, lf_model, params, constant_basis(), constant_basis()))
        mean, cov = _lf_moments(lf_model, x_hf)
        assert np.allclose(state.mu_y_given_z, mean, atol=1e-10)
        assert np.allclose(state.sigma_y_given_z, cov, atol=1e-10)

    def test_nested_noise_free_collapse(self):
        lf_model, x_lf, z_lf, x_hf = _nested_lf()
        z_hf = np.sin(x_hf[:, 0])
        data = Dataset(x_hf, z_hf)
        params = _some_params()
        state = e_step(_ar_marginal(data, lf_model, params, constant_basis(), constant_basis()))
        assert np.max(np.abs(state.sigma_y_given_z)) < 1e-7
        assert np.max(np.abs(state.mu_y_given_z - z_lf[: len(x_hf)])) < 1e-5

    def test_joint_conditioning_oracle(self, rng):
        lf_model = _noisy_lf()
        n_h = 7
        x_hf = rng.uniform(0, 2, size=(n_h, 1))
        z_hf = rng.normal(size=n_h)
        data = Dataset(x_hf, z_hf)
        params = _some_params(beta_rho=(1.4,), beta_h=(-0.5,), sigma2=0.3, eta=0.15)
        basis = constant_basis()
        state = e_step(_ar_marginal(data, lf_model, params, basis, basis))

        m, v = _lf_moments(lf_model, x_hf)
        rho = basis.design_matrix(x_hf) @ params.beta_rho
        f_beta = basis.design_matrix(x_hf) @ params.beta_h
        r_h = kernels.corr_matrix(x_hf, x_hf, params.theta_h)
        d_rho = np.diag(rho)
        cov_zz = d_rho @ v @ d_rho + params.sigma2_h * (
            r_h + params.eta_h * np.eye(n_h)
        )
        cov_yz = v @ d_rho
        mean_z = rho * m + f_beta
        mu_oracle = m + cov_yz @ np.linalg.solve(cov_zz, z_hf - mean_z)
        sig_oracle = v - cov_yz @ np.linalg.solve(cov_zz, cov_yz.T)
        assert np.allclose(state.mu_y_given_z, mu_oracle, atol=1e-8)
        assert np.allclose(state.sigma_y_given_z, sig_oracle, atol=1e-8)

    def test_h_matrix_structure(self, rng):
        lf_model = _noisy_lf()
        x_hf = rng.uniform(0, 2, size=(6, 1))
        data = Dataset(x_hf, rng.normal(size=6))
        lin = BasisSpec((lambda v: np.ones(v.shape[0]), lambda v: v[:, 0]))
        params = HfParams(
            beta_rho=np.array([0.7, 0.1]),
            beta_h=np.array([0.2]),
            sigma2_h=0.4,
            theta_h=LengthScales(np.array([0.5])),
            eta_h=0.1,
        )
        ar = _ar_marginal(data, lf_model, params, constant_basis(), lin)
        state = e_step(ar)
        expected = np.hstack(
            [
                ar.hf.g_matrix * state.mu_y_given_z[:, None],
                ar.hf.f_matrix,
            ]
        )
        assert np.array_equal(state.h_matrix, expected)
        assert state.h_matrix.shape == (6, 3)

    def test_sigma_zz_spd_and_cond_psd(self, rng):
        lf_model = _noisy_lf()
        x_hf = rng.uniform(0, 2, size=(9, 1))
        data = Dataset(x_hf, rng.normal(size=9))
        ar = _ar_marginal(data, lf_model, _some_params(), constant_basis(), constant_basis())
        state = e_step(ar)
        assert np.linalg.eigvalsh(_ar_cov(ar)).min() > 0
        assert np.linalg.eigvalsh(state.sigma_y_given_z).min() >= -1e-8


def _synthetic_state(rng, n_h, mu=None, sigma_cond=None):
    """Hand-assembled EStepState with q = p_H = 1 over random HF inputs."""
    x_hf = rng.uniform(0, 2, size=(n_h, 1))
    g = np.ones((n_h, 1))
    f = np.ones((n_h, 1))
    mu = mu if mu is not None else rng.normal(size=n_h)
    sigma_cond = sigma_cond if sigma_cond is not None else np.zeros((n_h, n_h))
    h = np.hstack([g * mu[:, None], f])
    state = EStepState(mu_y_given_z=mu, sigma_y_given_z=sigma_cond, h_matrix=h)
    return state, x_hf


def _synthetic_hf(x_hf, z_hf):
    """HF workspace for a hand-assembled state with q = p_H = 1: the M-step reads
    only the HF data, G and the kernel workspace, so the LF moments are placeholders."""
    n_h = len(z_hf)
    return HfWorkspace(
        data=Dataset(x_hf, z_hf),
        ws=KernelWorkspace(x_hf),
        g_matrix=np.ones((n_h, 1)),
        f_matrix=np.ones((n_h, 1)),
        lf_mean=np.zeros(n_h),
        lf_cov=np.zeros((n_h, n_h)),
    )


class TestMStep:
    def test_gls_oracle_when_t_zero(self, rng):
        n_h = 12
        state, x_hf = _synthetic_state(rng, n_h)
        z_hf = rng.normal(size=n_h)
        hf = _synthetic_hf(x_hf, z_hf)
        theta, eta = LengthScales(np.array([0.5])), 0.3
        beta, sigma2 = m_step_closed_forms(state, hf, theta, eta)

        cov = kernels.corr_matrix(x_hf, x_hf, theta) + eta * np.eye(n_h)
        w = np.linalg.inv(cov)
        h = state.h_matrix
        beta_o = np.linalg.solve(h.T @ w @ h, h.T @ w @ z_hf)
        resid = z_hf - h @ beta_o
        sigma2_o = float(resid @ w @ resid) / n_h
        assert np.allclose(beta, beta_o, atol=1e-10)
        assert np.isclose(sigma2, sigma2_o, atol=1e-10)

    def test_zero_residual(self, rng):
        n_h = 10
        state, x_hf = _synthetic_state(rng, n_h)
        c = np.array([1.2, -0.7])
        z_hf = state.h_matrix @ c
        hf = _synthetic_hf(x_hf, z_hf)
        beta, sigma2 = m_step_closed_forms(
            state, hf, LengthScales(np.array([0.6])), 0.2
        )
        assert np.allclose(beta, c, atol=1e-8)
        assert sigma2 < 1e-12

    def test_beta_is_stationary_point(self, rng):
        # The returned coefficients must zero the objective's beta-gradient
        # H' Rt^-1 (z - H beta) - T beta.
        lf_model = _noisy_lf()
        n_h = 11
        x_hf = rng.uniform(0, 2, size=(n_h, 1))
        z_hf = rng.normal(size=n_h)
        hf = hf_workspace(
            Dataset(x_hf, z_hf), lf_model,
            constant_basis(), constant_basis(),
        )
        state = e_step(ar_marginal(hf, _some_params()))
        theta, eta = LengthScales(np.array([0.7])), 0.25
        beta, _ = m_step_closed_forms(state, hf, theta, eta)

        cov = kernels.corr_matrix(x_hf, x_hf, theta) + eta * np.eye(n_h)
        w = np.linalg.inv(cov)
        t_block = hf.g_matrix.T @ ((w * state.sigma_y_given_z) @ hf.g_matrix)
        t_mat = np.zeros((2, 2))
        t_mat[:1, :1] = t_block
        h = state.h_matrix
        grad = h.T @ w @ (z_hf - h @ beta) - t_mat @ beta
        assert np.linalg.norm(grad) < 1e-8 * max(1.0, np.linalg.norm(z_hf))

    def test_identical_columns_singular_normal_equations(self, rng):
        # Far-apart inputs make R~ = 4 I exactly; with dyadic mu summing to 0 the
        # normal equations are [[4, 0, 0], [0, 2, 2], [0, 2, 2]], exactly singular.
        n_h = 8
        x_hf = 100.0 * np.arange(float(n_h)).reshape(-1, 1)
        mu = np.array([1.0, -1.0, 1.0, -1.0, 2.0, -2.0, 0.0, 0.0])
        state = EStepState(
            mu_y_given_z=mu,
            sigma_y_given_z=0.5 * np.eye(n_h),
            h_matrix=np.column_stack([mu, np.ones(n_h), np.ones(n_h)]),
        )
        z_hf = rng.normal(size=n_h)
        hf = _synthetic_hf(x_hf, z_hf)
        with pytest.raises(SingularNormalEquations):
            m_step_closed_forms(state, hf, LengthScales(np.array([0.5])), 3.0)


def _per_dimension_q_tilde(state, hf, theta_h, eta_h):
    """Reference value and gradient of q_tilde_and_grad by the per-dimension
    formula: R and dR/dtheta_d rebuilt for every d, two N^3 products per d, and
    the inverse taken by solving against the identity."""
    x_h, z_h, n_h = hf.data.x, hf.data.z, hf.data.n
    d = theta_h.ndim
    g_mat, h = hf.g_matrix, state.h_matrix
    q, p = g_mat.shape[1], h.shape[1]
    lower = np.linalg.cholesky(
        kernels.corr_matrix(x_h, x_h, theta_h) + eta_h * np.eye(n_h)
    )
    rt_inv = cho_solve((lower, True), np.eye(n_h))
    t_mat = np.zeros((p, p))
    t_mat[:q, :q] = g_mat.T @ ((rt_inv * state.sigma_y_given_z) @ g_mat)
    gram = h.T @ cho_solve((lower, True), h) + t_mat
    beta = np.linalg.solve(gram, h.T @ cho_solve((lower, True), z_h))
    resid = z_h - h @ beta
    ri_resid = cho_solve((lower, True), resid)
    sigma2 = (resid @ ri_resid + beta @ t_mat @ beta) / n_h
    value = (
        0.5 * n_h * math.log(sigma2)
        + np.sum(np.log(np.diag(lower)))
        + 0.5 * n_h * (1 + math.log(2 * math.pi))
    )
    kappa = ri_resid / math.sqrt(sigma2)
    rho = g_mat @ beta[:q]
    grad = np.empty(d + 1)
    for j in range(d + 1):
        if j < d:
            diff = x_h[:, j][:, None] - x_h[:, j][None, :]
            dr = kernels.corr_matrix(x_h, x_h, theta_h) * diff**2 / theta_h.theta[j] ** 3
            ri_dr = rt_inv @ dr
            trace_term = 0.5 * (np.sum(rt_inv * dr) - kappa @ dr @ kappa)
        else:
            ri_dr = rt_inv
            trace_term = 0.5 * (np.trace(rt_inv) - kappa @ kappa)
        m = ri_dr @ rt_inv
        grad[j] = trace_term - rho @ ((m * state.sigma_y_given_z) @ rho) / (2 * sigma2)
    return value, grad


class TestQTilde:
    def test_matches_per_dimension_reference(self):
        # D = 4, N_H = 20, a linear scaling basis (q = 2), and a sparse noisy LF
        # level so that the Hadamard term carries a large share of the gradient.
        rng = np.random.default_rng(2024)
        dim, n_lf, n_hf = 4, 15, 20
        x_lf = rng.uniform(size=(n_lf, dim))
        z_lf = np.sin(3 * x_lf[:, 0]) + x_lf[:, 1:].sum(axis=1) ** 2
        z_lf = z_lf + rng.normal(scale=0.3, size=n_lf)
        lf_model = fit_gp(Dataset(x_lf, z_lf), config=MultiStartConfig(n_starts=2, rng_seed=1))
        x_hf = rng.uniform(size=(n_hf, dim))
        z_hf = 1.3 * np.sin(3 * x_hf[:, 0]) + x_hf[:, 2] + rng.normal(scale=0.1, size=n_hf)
        data = Dataset(x_hf, z_hf)
        rho_basis = BasisSpec(functions=(lambda x: np.ones(x.shape[0]), lambda x: x[:, 0]))
        params = HfParams(
            beta_rho=np.array([1.1, 0.2]),
            beta_h=np.array([0.3]),
            sigma2_h=0.4,
            theta_h=LengthScales(np.full(dim, 0.5)),
            eta_h=0.1,
        )
        hf = hf_workspace(data, lf_model, constant_basis(), rho_basis)
        state = e_step(ar_marginal(hf, params))
        assert np.max(np.abs(state.sigma_y_given_z)) > 0.1
        for _ in range(5):
            theta = LengthScales(rng.uniform(0.2, 1.5, dim))
            eta = float(rng.uniform(0.01, 0.5))
            value, grad = q_tilde_and_grad(state, hf, theta, eta)
            ref_value, ref_grad = _per_dimension_q_tilde(state, hf, theta, eta)
            assert abs(value - ref_value) <= 1e-12 * abs(ref_value)
            assert np.all(np.abs(grad - ref_grad) <= 1e-10 * np.abs(ref_grad))

    def test_gradient_finite_differences(self, rng):
        lf_model = _noisy_lf()
        n_h = 10
        x_hf = rng.uniform(0, 2, size=(n_h, 1))
        z_hf = np.sin(2 * x_hf[:, 0]) + rng.normal(scale=0.2, size=n_h)
        hf = hf_workspace(
            Dataset(x_hf, z_hf), lf_model,
            constant_basis(), constant_basis(),
        )
        state = e_step(ar_marginal(hf, _some_params()))
        for _ in range(5):
            theta = LengthScales(rng.uniform(0.3, 1.2, 1))
            eta = rng.uniform(0.05, 0.6)
            _, grad = q_tilde_and_grad(state, hf, theta, eta)
            h = 1e-6
            for j in range(2):
                if j == 0:
                    vp, _ = q_tilde_and_grad(
                        state, hf, LengthScales(theta.theta + h), eta
                    )
                    vm, _ = q_tilde_and_grad(
                        state, hf, LengthScales(theta.theta - h), eta
                    )
                else:
                    vp, _ = q_tilde_and_grad(state, hf, theta, eta + h)
                    vm, _ = q_tilde_and_grad(state, hf, theta, eta - h)
                fd = (vp - vm) / (2 * h)
                assert abs(grad[j] - fd) / max(abs(fd), 1e-8) < 1e-4

    def test_reduces_to_profiled_nll_form_when_cond_zero(self, rng):
        # With a zero conditional covariance the objective is the single-level
        # profiled negative log-likelihood of z on the H basis.
        n_h = 12
        state, x_hf = _synthetic_state(rng, n_h)
        z_hf = rng.normal(size=n_h)
        hf = _synthetic_hf(x_hf, z_hf)
        theta, eta = LengthScales(np.array([0.5])), 0.3
        value, grad = q_tilde_and_grad(state, hf, theta, eta)

        _, sigma2 = m_step_closed_forms(state, hf, theta, eta)
        cov = kernels.corr_matrix(x_hf, x_hf, theta) + eta * np.eye(n_h)
        sign, logdet = np.linalg.slogdet(cov)
        expected = (
            0.5 * n_h * math.log(sigma2)
            + 0.5 * logdet
            + 0.5 * n_h * (1 + math.log(2 * math.pi))
        )
        assert np.isclose(value, expected, atol=1e-8)
        # Hadamard correction vanishes, leaving the kappa/trace gradient; check
        # against finite differences of the same reduced objective.
        h = 1e-6
        vp, _ = q_tilde_and_grad(state, hf, LengthScales(theta.theta + h), eta)
        vm, _ = q_tilde_and_grad(state, hf, LengthScales(theta.theta - h), eta)
        assert abs(grad[0] - (vp - vm) / (2 * h)) < 1e-4 * max(abs(grad[0]), 1.0)

    def test_permutation_invariance(self, rng):
        lf_model = _noisy_lf()
        n_h = 9
        x_hf = rng.uniform(0, 2, size=(n_h, 1))
        z_hf = rng.normal(size=n_h)
        params = _some_params()
        theta, eta = LengthScales(np.array([0.8])), 0.2

        def value_for(order):
            data = Dataset(x_hf[order], z_hf[order])
            hf = hf_workspace(data, lf_model, constant_basis(), constant_basis())
            return q_tilde_and_grad(e_step(ar_marginal(hf, params)), hf, theta, eta)[0]

        base = value_for(np.arange(n_h))
        perm = rng.permutation(n_h)
        assert np.isclose(value_for(perm), base, atol=1e-8)


class TestHfObservedLoglik:
    def test_scalar_case(self):
        lf_model = _noisy_lf()
        x_hf = np.array([[1.0]])
        z_hf = np.array([2.0])
        data = Dataset(x_hf, z_hf)
        params = _some_params(beta_rho=(1.1,), beta_h=(0.4,), sigma2=0.6, eta=0.3)
        val = hf_observed_loglik(
            _ar_marginal(data, lf_model, params, constant_basis(), constant_basis())
        )

        m, v = _lf_moments(lf_model, x_hf)
        mean = params.beta_rho[0] * m[0] + params.beta_h[0]
        var = params.beta_rho[0] ** 2 * v[0, 0] + params.sigma2_h * (1 + params.eta_h)
        expected = -0.5 * (
            (z_hf[0] - mean) ** 2 / var + math.log(var) + math.log(2 * math.pi)
        )
        assert np.isclose(val, expected, atol=1e-10)

    def test_dense_assembly_oracle(self, rng):
        lf_model = _noisy_lf()
        n_h = 7
        x_hf = rng.uniform(0, 2, size=(n_h, 1))
        z_hf = rng.normal(size=n_h)
        data = Dataset(x_hf, z_hf)
        params = _some_params(beta_rho=(0.9,), beta_h=(-0.2,), sigma2=0.5, eta=0.1)
        val = hf_observed_loglik(
            _ar_marginal(data, lf_model, params, constant_basis(), constant_basis())
        )

        m, v = _lf_moments(lf_model, x_hf)
        rho = np.full(n_h, params.beta_rho[0])
        mean = rho * m + params.beta_h[0]
        r_h = kernels.corr_matrix(x_hf, x_hf, params.theta_h)
        cov = np.outer(rho, rho) * v + params.sigma2_h * (
            r_h + params.eta_h * np.eye(n_h)
        )
        resid = z_hf - mean
        expected = -0.5 * (
            float(resid @ np.linalg.solve(cov, resid))
            + np.log(det_cofactor(cov))
            + n_h * math.log(2 * math.pi)
        )
        assert abs(val - expected) < 1e-8


@pytest.fixture(scope="module")
def fitted_mf():
    pair = design.ANALYTIC_1D
    x_lf = design.scale_to_domain(pair, design.lhs(40, 1, seed=10).points)
    z_lf = design.add_noise(design.eval_testfn(pair, "lf", x_lf), 0.05**2, seed=11)
    x_hf = design.scale_to_domain(pair, design.lhs(15, 1, seed=12).points)
    z_hf = design.add_noise(design.eval_testfn(pair, "hf", x_hf), 0.05**2, seed=13)
    data = MfData(Dataset(x_lf, z_lf), Dataset(x_hf, z_hf))
    return fit_mf(
        data,
        lf_config=MultiStartConfig(n_starts=5, rng_seed=1),
        hf_config=MultiStartConfig(n_starts=5, rng_seed=2),
    )


@pytest.mark.parametrize(
    "field, value",
    [("sigma2_h", -1.0), ("sigma2_h", 0.0), ("sigma2_h", np.nan), ("sigma2_h", np.inf),
     ("eta_h", -1e-12), ("eta_h", np.nan), ("eta_h", np.inf),
     ("beta_rho", [np.nan]), ("beta_rho", [-np.inf]), ("beta_h", [np.nan]), ("beta_h", [np.inf])],
)
def test_hf_params_reject_bad_values(field, value):
    kwargs = dict(beta_rho=[1.0], beta_h=[0.0], sigma2_h=1.0,
                  theta_h=LengthScales(np.array([0.5])), eta_h=0.1)
    with pytest.raises(InvalidConfig, match=field):
        HfParams(**{**kwargs, field: value})


@pytest.mark.parametrize("field", ["beta_rho", "beta_h"])
def test_hf_params_refuse_a_matrix_of_coefficients(field):
    kwargs = dict(beta_rho=[1.0], beta_h=[0.0], sigma2_h=1.0,
                  theta_h=LengthScales(np.array([0.5])), eta_h=0.1)
    with pytest.raises(DimensionMismatch, match=field):
        HfParams(**{**kwargs, field: np.ones((2, 2))})


class TestEmConfig:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_em_iterations", 0),
            ("max_em_iterations", 2.5),
            ("max_em_iterations", True),
            ("max_em_iterations", "100"),
            ("loglik_rel_tolerance", -1e-8),
            ("loglik_rel_tolerance", float("nan")),
            ("loglik_rel_tolerance", float("inf")),
            ("loglik_rel_tolerance", True),
            ("loglik_rel_tolerance", "tight"),
        ],
    )
    def test_rejects_bad_value(self, field, value):
        with pytest.raises(InvalidConfig, match=field):
            EmConfig(**{field: value})

    def test_zero_tolerance_allowed(self):
        assert EmConfig(loglik_rel_tolerance=0).loglik_rel_tolerance == 0


class TestEmFit:
    def test_em_log_monotone(self, fitted_mf):
        diffs = np.diff(fitted_mf.em_log)
        assert np.all(diffs >= -1e-8)

    def test_determinism(self, fitted_mf):
        data = fitted_mf.hf_data
        p1, log1 = em_fit_hf(
            data, fitted_mf.lf_model, config=MultiStartConfig(n_starts=5, rng_seed=2)
        )
        p2, log2 = em_fit_hf(
            data, fitted_mf.lf_model, config=MultiStartConfig(n_starts=5, rng_seed=2)
        )
        assert np.array_equal(p1.beta_rho, p2.beta_rho)
        assert np.array_equal(p1.beta_h, p2.beta_h)
        assert p1.sigma2_h == p2.sigma2_h
        assert np.array_equal(p1.theta_h.theta, p2.theta_h.theta)
        assert p1.eta_h == p2.eta_h
        assert log1 == log2

    def test_lf_moments_once_per_fit(self, fitted_mf, monkeypatch):
        calls = []

        def counting_predict_gp(*args, **kwargs):
            calls.append(kwargs.get("cov"))
            return predict_gp(*args, **kwargs)

        monkeypatch.setattr(mfgp, "predict_gp", counting_predict_gp)
        _, em_log = em_fit_hf(
            fitted_mf.hf_data, fitted_mf.lf_model, config=MultiStartConfig(n_starts=2, rng_seed=2)
        )
        assert len(em_log) > 2
        assert calls == ["full"]

    @pytest.mark.parametrize("which", ["hf_basis", "rho_basis"])
    def test_duplicated_basis_column_is_rank_deficient(self, fitted_mf, which):
        duplicated = BasisSpec((lambda v: np.ones(v.shape[0]), lambda v: np.ones(v.shape[0])))
        with pytest.raises(RankDeficientBasis):
            em_fit_hf(fitted_mf.hf_data, fitted_mf.lf_model, **{which: duplicated},
                      config=MultiStartConfig(n_starts=1))

    def test_configs_are_keyword_only(self, fitted_mf):
        # A positional run config is refused by the signature, before any work, so
        # a wrapper that reads `em_config` can find it by keyword alone.
        basis, config = constant_basis(), MultiStartConfig(n_starts=1)
        with pytest.raises(TypeError, match="positional"):
            em_fit_hf(fitted_mf.hf_data, fitted_mf.lf_model, basis, basis, config,
                      EmConfig(max_em_iterations=2))
        with pytest.raises(TypeError, match="positional"):
            em_fit_hf(fitted_mf.hf_data, fitted_mf.lf_model, basis, basis, config)

    @pytest.mark.parametrize("entry", ["fit_gp", "hf_basis", "rho_basis"])
    def test_empty_basis_is_refused(self, fitted_mf, entry):
        # An empty basis would have no design matrix to build.
        lf_data = fitted_mf.lf_model.data
        config = MultiStartConfig(n_starts=1)
        with pytest.raises(InvalidConfig, match="at least one function"):
            if entry == "fit_gp":
                fit_gp(lf_data, basis=BasisSpec(()), config=config)
            else:
                fit_mf(MfData(lf_data, fitted_mf.hf_data), lf_config=config,
                       hf_config=config, **{entry: BasisSpec(())})

    def test_zero_lf_mean_is_rank_deficient(self, fitted_mf):
        # All-zero LF data give m_L = 0 at X_H, so G o m_L = 0 leaves rho unidentified.
        lf_data = Dataset(fitted_mf.lf_model.data.x, np.zeros(fitted_mf.lf_model.data.n))
        lf = TrainedGp(lf_data, constant_basis(), GpHyper(np.zeros(1), KernelParams(
            theta=LengthScales(np.array([0.5])), sigma2=1.0, eta=0.1)))
        with pytest.raises(RankDeficientBasis, match="LF-mean-scaled"):
            em_fit_hf(fitted_mf.hf_data, lf, config=MultiStartConfig(n_starts=1))

    def test_lf_separation_contract(self, fitted_mf):
        lf_alone = fit_gp(
            fitted_mf.lf_model.data, config=MultiStartConfig(n_starts=5, rng_seed=1)
        )
        assert np.array_equal(
            lf_alone.hyper.kernel.theta.theta,
            fitted_mf.lf_model.hyper.kernel.theta.theta,
        )
        assert lf_alone.hyper.kernel.eta == fitted_mf.lf_model.hyper.kernel.eta
        assert np.array_equal(lf_alone.hyper.beta, fitted_mf.lf_model.hyper.beta)

    def test_analytic1d_quality(self):
        pair = design.ANALYTIC_1D
        x_lf = design.scale_to_domain(pair, design.lhs(100, 1, seed=20).points)
        z_lf = design.eval_testfn(pair, "lf", x_lf)
        x_hf = design.scale_to_domain(pair, design.lhs(50, 1, seed=21).points)
        z_hf = design.add_noise(design.eval_testfn(pair, "hf", x_hf), 0.008**2, seed=22)
        data = MfData(Dataset(x_lf, z_lf), Dataset(x_hf, z_hf))
        model = fit_mf(
            data,
            lf_config=MultiStartConfig(n_starts=5, rng_seed=3),
            hf_config=MultiStartConfig(n_starts=5, rng_seed=4),
        )
        xt = np.linspace(0, 2, 2000).reshape(-1, 1)
        pred = predict_mf(model, xt, level="hf")
        assert q2(design.eval_testfn(pair, "hf", xt), pred.mean) > 0.999

    def test_simulation_consistency(self):
        # Data drawn exactly from the AR(1) prior: the scaling coefficient
        # estimate should be unbiased to within Monte Carlo resolution.
        lf_model = _noisy_lf(n_lf=40, seed=30, noise_sd=0.1)
        n_h, n_rep = 40, 20
        true = HfParams(
            beta_rho=np.array([1.3]),
            beta_h=np.array([0.5]),
            sigma2_h=0.09,
            theta_h=LengthScales(np.array([0.5])),
            eta_h=0.05,
        )
        basis = constant_basis()
        estimates = []
        for r in range(n_rep):
            rng_r = np.random.default_rng(
                np.random.SeedSequence((777, r)).generate_state(4)
            )
            x_hf = rng_r.uniform(0, 2, size=(n_h, 1))
            m, v = _lf_moments(lf_model, x_hf)
            rho = np.full(n_h, true.beta_rho[0])
            r_h = kernels.corr_matrix(x_hf, x_hf, true.theta_h)
            cov = np.outer(rho, rho) * v + true.sigma2_h * (
                r_h + true.eta_h * np.eye(n_h)
            )
            mean = rho * m + true.beta_h[0]
            z_hf = rng_r.multivariate_normal(mean, cov, method="svd")
            data = Dataset(x_hf, z_hf)
            params, _ = em_fit_hf(
                data,
                lf_model,
                config=MultiStartConfig(n_starts=5, rng_seed=r),
                em_config=EmConfig(max_em_iterations=40),
            )
            estimates.append(params.beta_rho[0])
        estimates = np.array(estimates)
        se = estimates.std(ddof=1) / np.sqrt(n_rep)
        assert abs(estimates.mean() - true.beta_rho[0]) <= 3 * max(se, 1e-3)


def _spy_searches(monkeypatch) -> list[tuple[int, int]]:
    """Record (random starts asked for, starts run) of every EM M-step search."""
    searches = []

    def spy(*args, **kwargs):
        result = log_space_search(*args, **kwargs)
        searches.append((kwargs["n_random"], len(result[3])))
        return result

    monkeypatch.setattr(mfgp, "log_space_search", spy)
    return searches


def _assert_gem_schedule(searches, em_log, n_starts, em_config=EmConfig()):
    """The generalized-EM schedule: iteration 0 multi-starts; a warm step that
    stalls (gains no more than the tolerance) is followed by an escape check with
    INNER_N_STARTS random starts; a stalled multi-start step ends the fit."""
    tol = em_config.loglik_rel_tolerance
    stalled = [b - a <= tol * max(1.0, abs(a)) for a, b in zip(em_log, em_log[1:])]
    assert len(searches) == len(stalled)
    expected = [n_starts] + [INNER_N_STARTS if s else 0 for s in stalled[:-1]]
    assert [n for n, _ in searches] == expected
    # Every step runs the current point plus its random starts; a warm step runs one.
    assert all(runs == n + 1 for n, runs in searches)
    assert not any(s and n for s, (n, _) in zip(stalled[:-1], searches[:-1]))
    if len(stalled) < em_config.max_em_iterations:
        assert stalled[-1] and searches[-1][0] > 0


def _further_m_step(data, lf_model, params, seed):
    """Observed log-likelihood after one multi-start M-step from params."""
    hf = hf_workspace(data, lf_model, constant_basis(), constant_basis())
    state = e_step(ar_marginal(hf, params))
    theta, eta, _, _ = log_space_search(
        functools.partial(q_tilde_and_grad, state, hf), default_bounds(data),
        MultiStartConfig(n_starts=INNER_N_STARTS, rng_seed=seed),
        extra_starts=[np.append(params.theta_h.theta, params.eta_h)],
    )
    beta, sigma2 = m_step_closed_forms(state, hf, theta, eta)
    new = HfParams(beta_rho=beta[:1], beta_h=beta[1:], sigma2_h=sigma2, theta_h=theta, eta_h=eta)
    return hf_observed_loglik(ar_marginal(hf, new))


@pytest.fixture(scope="module")
def park_em_case():
    """A small noisy Park instance whose EM runs escape checks that gain and go
    back to warm steps, then stops on tolerance after a multi-start step."""
    pair = design.PARK_4D
    x_lf = design.lhs(30, 4, seed=1).points
    z_lf = design.add_noise(design.eval_testfn(pair, "lf", x_lf), 1.0, seed=101)
    x_hf = design.lhs(12, 4, seed=201).points
    z_hf = design.add_noise(design.eval_testfn(pair, "hf", x_hf), 1.0, seed=301)
    lf = fit_gp(Dataset(x_lf, z_lf), config=MultiStartConfig(n_starts=3, rng_seed=1))
    return Dataset(x_hf, z_hf), lf


@pytest.fixture(scope="module")
def park_escape_case():
    """A small noisy Park instance whose escape checks at EM iterations 10 and 15 are
    won by random starts (indices 4 and 2), by 0.049 and 0.81 of the negated EM
    objective over the current-point start; EM stops on tolerance at iteration 25."""
    pair = design.PARK_4D
    x_lf = design.lhs(30, 4, seed=0).points
    z_lf = design.add_noise(design.eval_testfn(pair, "lf", x_lf), 1.0, seed=102)
    x_hf = design.lhs(12, 4, seed=10).points
    z_hf = design.add_noise(design.eval_testfn(pair, "hf", x_hf), 1.0, seed=202)
    lf = fit_gp(Dataset(x_lf, z_lf), config=MultiStartConfig(n_starts=3, rng_seed=2))
    return Dataset(x_hf, z_hf), lf


class TestGemSchedule:
    def test_analytic1d_schedule(self, fitted_mf, monkeypatch):
        searches = _spy_searches(monkeypatch)
        _, em_log = em_fit_hf(
            fitted_mf.hf_data, fitted_mf.lf_model, config=MultiStartConfig(n_starts=5, rng_seed=2)
        )
        _assert_gem_schedule(searches, em_log, 5)
        assert 0 in [n for n, _ in searches]
        assert searches[-1] == (INNER_N_STARTS, INNER_N_STARTS + 1)

    def test_escape_that_gains_returns_to_warm_steps(self, park_em_case, monkeypatch):
        data, lf = park_em_case
        searches = _spy_searches(monkeypatch)
        _, em_log = em_fit_hf(data, lf, config=MultiStartConfig(n_starts=3, rng_seed=1))
        _assert_gem_schedule(searches, em_log, 3)
        random = [n for n, _ in searches]
        assert random.count(INNER_N_STARTS) >= 2
        assert random[random.index(INNER_N_STARTS) + 1] == 0
        assert np.all(np.diff(em_log) >= -1e-8)

    def test_escape_check_random_start_can_win(self, park_escape_case, monkeypatch):
        # The escape check's random starts are not redundant with the current point:
        # here two of them find a higher EM objective than the current-point start.
        data, lf = park_escape_case
        escapes = []

        def spy(*args, **kwargs):
            result = log_space_search(*args, **kwargs)
            if kwargs["n_random"] == INNER_N_STARTS:
                escapes.append([start.value for start in result[3]])
            return result

        monkeypatch.setattr(mfgp, "log_space_search", spy)
        _, em_log = em_fit_hf(data, lf, config=MultiStartConfig(n_starts=3, rng_seed=2))
        assert len(em_log) - 1 < EmConfig().max_em_iterations
        tol = EmConfig().loglik_rel_tolerance * max(1.0, abs(em_log[-1]))
        wins = [(int(np.argmin(values)), values[0] - min(values)) for values in escapes]
        assert any(index > 0 and gain > tol for index, gain in wins), wins

    def test_cap_may_end_on_a_warm_step(self, fitted_mf, monkeypatch):
        searches = _spy_searches(monkeypatch)
        em_config = EmConfig(max_em_iterations=3)
        _, em_log = em_fit_hf(fitted_mf.hf_data, fitted_mf.lf_model,
                              config=MultiStartConfig(n_starts=5, rng_seed=2), em_config=em_config)
        assert len(em_log) == 4
        _assert_gem_schedule(searches, em_log, 5, em_config)
        assert searches[-1] == (0, 1)

    @pytest.mark.parametrize("case", ["analytic1d", "park4d"])
    def test_stopping_point_is_certified(self, case, fitted_mf, park_em_case):
        data, lf = (fitted_mf.hf_data, fitted_mf.lf_model) if case == "analytic1d" else park_em_case
        params, em_log = em_fit_hf(data, lf, config=MultiStartConfig(n_starts=3, rng_seed=1))
        assert len(em_log) - 1 < EmConfig().max_em_iterations
        tol = EmConfig().loglik_rel_tolerance * max(1.0, abs(em_log[-1]))
        for seed in (0, 1, 2):
            further = _further_m_step(data, lf, params, seed)
            assert em_log[-1] - 1e-6 <= further <= em_log[-1] + tol

    def test_determinism_of_the_schedule(self, park_em_case, monkeypatch):
        data, lf = park_em_case
        runs = []
        for _ in range(2):
            searches = _spy_searches(monkeypatch)
            params, em_log = em_fit_hf(data, lf, config=MultiStartConfig(n_starts=3, rng_seed=1))
            coefficients = np.concatenate([params.beta_rho, params.beta_h])
            runs.append((searches, em_log, coefficients.tolist(), params.sigma2_h,
                         params.theta_h.theta.tolist(), params.eta_h))
        assert runs[0] == runs[1]

    def test_rank_deficient_e_step_basis(self, fitted_mf, monkeypatch):
        # An E-step whose [G o mu, F] loses rank stops the fit before its M-step.
        def degenerate_e_step(ar):
            state = e_step(ar)
            return dataclasses.replace(state, h_matrix=np.ones_like(state.h_matrix))

        monkeypatch.setattr(mfgp, "e_step", degenerate_e_step)
        with pytest.raises(RankDeficientBasis, match="E-step"):
            em_fit_hf(fitted_mf.hf_data, fitted_mf.lf_model, config=MultiStartConfig(n_starts=1))


class TestArMarginal:
    def test_dense_oracle(self, fitted_mf):
        lf_model, data = fitted_mf.lf_model, fitted_mf.hf_data
        x_h, z_h = data.x, data.z
        n_h = len(x_h)
        lin = BasisSpec((lambda v: np.ones(v.shape[0]), lambda v: v[:, 0]))
        params = HfParams(
            beta_rho=np.array([0.9, 0.2]),
            beta_h=np.array([-0.3]),
            sigma2_h=0.4,
            theta_h=LengthScales(np.array([0.5])),
            eta_h=0.05,
        )
        ar = _ar_marginal(data, lf_model, params, constant_basis(), lin)

        m, v = _lf_moments(lf_model, x_h)
        rho = 0.9 + 0.2 * x_h[:, 0]
        cov = np.outer(rho, rho) * v + params.sigma2_h * (
            kernels.corr_matrix(x_h, x_h, params.theta_h) + params.eta_h * np.eye(n_h)
        )
        resid = z_h - rho * m + 0.3
        assert np.array_equal(ar.hf.lf_mean, m) and np.array_equal(ar.hf.lf_cov, v)
        assert np.array_equal(ar.hf.g_matrix, np.column_stack([np.ones(n_h), x_h[:, 0]]))
        assert np.array_equal(ar.hf.f_matrix, np.ones((n_h, 1)))
        assert np.allclose(ar.rho, rho, rtol=1e-14)
        assert np.allclose(ar.residual, resid, rtol=1e-12, atol=1e-12)
        low = ar.factorization.lower_factor
        assert np.allclose(low @ low.T, cov, atol=1e-12)
        assert np.allclose(ar.residual_solve, np.linalg.solve(cov, resid), rtol=1e-8, atol=1e-8)

    def test_loglik_and_model_caches_share_it(self, fitted_mf):
        lf_model, data, params = fitted_mf.lf_model, fitted_mf.hf_data, fitted_mf.hf_params
        basis = constant_basis()
        ar = _ar_marginal(data, lf_model, params, basis, basis)
        n_h = data.n
        loglik = hf_observed_loglik(_ar_marginal(data, lf_model, params, basis, basis))
        expected = -0.5 * (
            float(ar.residual @ ar.residual_solve)
            + numerics.logdet_spd(ar.factorization)
            + n_h * math.log(2 * math.pi)
        )
        assert loglik == expected
        assert np.array_equal(fitted_mf.ar.rho, ar.rho)
        assert np.array_equal(fitted_mf.ar.residual_solve, ar.residual_solve)
        assert np.array_equal(
            fitted_mf.ar.factorization.lower_factor, ar.factorization.lower_factor
        )


def test_models_assemble_their_own_caches(fitted_mf):
    lf = fitted_mf.lf_model
    with pytest.raises(TypeError):
        TrainedGp(lf.data, lf.basis, lf.hyper, factorization=lf.factorization)
    with pytest.raises(TypeError):
        MfModel(lf, fitted_mf.hf_params, fitted_mf.hf_basis, fitted_mf.rho_basis,
                fitted_mf.hf_data, ar=fitted_mf.ar)
    with pytest.raises(dataclasses.FrozenInstanceError):
        fitted_mf.hf_params = fitted_mf.hf_params
    rebuilt = MfModel(lf, fitted_mf.hf_params, fitted_mf.hf_basis, fitted_mf.rho_basis,
                      fitted_mf.hf_data)
    assert np.array_equal(rebuilt.ar.residual_solve, fitted_mf.ar.residual_solve)
    assert np.array_equal(rebuilt.lf_cross_solve, fitted_mf.lf_cross_solve)
    assert GpHyper([1, 2], lf.hyper.kernel).beta.dtype == float


@pytest.mark.parametrize("fit", [False, True], ids=["model", "em_fit_hf"])
def test_hf_data_of_another_dimension_is_refused(fitted_mf, fit):
    # The LF training set lives only in the LF model, so the HF set is checked
    # against it: 2-D HF inputs beside a 1-D LF model.
    x_hf = np.column_stack([fitted_mf.hf_data.x[:, 0], fitted_mf.hf_data.x[:, 0]])
    hf = Dataset(x_hf, fitted_mf.hf_data.z)
    with pytest.raises(DimensionMismatch):
        if fit:
            em_fit_hf(hf, fitted_mf.lf_model, config=MultiStartConfig(n_starts=1))
        else:
            MfModel(fitted_mf.lf_model, fitted_mf.hf_params, constant_basis(),
                    constant_basis(), hf)


class TestArCovariance:
    def test_zero_scaling(self, fitted_mf):
        params = HfParams(
            beta_rho=np.array([0.0]),
            beta_h=np.array([0.7]),
            sigma2_h=0.4,
            theta_h=LengthScales(np.array([0.6])),
            eta_h=0.1,
        )
        x_h = fitted_mf.hf_data.x
        n_h = len(x_h)
        basis = constant_basis()
        cov = _ar_cov(_ar_marginal(fitted_mf.hf_data, fitted_mf.lf_model, params, basis, basis))
        r_h = kernels.corr_matrix(x_h, x_h, params.theta_h)
        assert np.allclose(cov, params.sigma2_h * (r_h + params.eta_h * np.eye(n_h)), atol=1e-12)
        # Far from every training input the HF posterior is the discrepancy prior.
        model = MfModel(
            fitted_mf.lf_model, params, constant_basis(), constant_basis(), fitted_mf.hf_data
        )
        pred = predict_mf(model, np.array([[50.0]]), level="hf")
        assert np.isclose(pred.mean[0], 0.7, atol=1e-12)
        assert np.isclose(pred.variance[0], params.sigma2_h, atol=1e-12)

    def test_nested_noise_free_simplification(self):
        lf_model, x_lf, z_lf, x_hf = _nested_lf()
        params = _some_params(beta_rho=(1.5,), sigma2=0.3)
        n_h = len(x_hf)
        data = Dataset(x_hf, np.zeros(n_h))
        basis = constant_basis()
        cov = _ar_cov(_ar_marginal(data, lf_model, params, basis, basis))
        r_h = kernels.corr_matrix(x_hf, x_hf, params.theta_h)
        assert np.allclose(cov, params.sigma2_h * (r_h + params.eta_h * np.eye(n_h)), atol=1e-7)
        # The LF posterior covariance vanishes at nested noise-free inputs, so
        # the HF cross-covariance reduces to sigma2_H R_H there.
        v_cross = posterior_cross_cov(lf_model, x_hf, x_hf)
        assert np.allclose(1.5**2 * v_cross, 0.0, atol=1e-7)

    def test_elementwise_oracle(self, fitted_mf, rng):
        params = fitted_mf.hf_params
        x_h = fitted_mf.hf_data.x
        n_h = len(x_h)
        rho = rng.normal(size=n_h)
        _, v_hh = _lf_moments(fitted_mf.lf_model, x_h)
        # One scaling column G = rho with beta_rho = 1 gives each HF input its own rho_i.
        basis = constant_basis()
        hf = hf_workspace(fitted_mf.hf_data, fitted_mf.lf_model, basis, basis)
        hf = dataclasses.replace(hf, g_matrix=rho[:, None])
        cov = _ar_cov(ar_marginal(hf, dataclasses.replace(params, beta_rho=np.array([1.0]))))
        oracle = np.empty((n_h, n_h))
        for i in range(n_h):
            for j in range(n_h):
                oracle[i, j] = rho[i] * rho[j] * v_hh[i, j] + params.sigma2_h * (
                    gauss_corr(x_h[i], x_h[j], params.theta_h)
                    + params.eta_h * (i == j)
                )
        assert np.allclose(cov, oracle, atol=1e-12)


def _two_solve_predict_gp(model, x_star, mode, cov):
    """predict_gp as it was before the whitened path: cho_solve against R(X, x*)."""
    k = model.hyper.kernel
    r_cross = kernels.corr_matrix(x_star, model.data.x, k.theta)
    mean = model.basis.design_matrix(x_star) @ model.hyper.beta + r_cross @ model.residual_solve
    solved = cho_solve((model.factorization.lower_factor, True), r_cross.T)
    noise = k.noise_variance if mode == "noisy" else 0.0
    if cov == "full":
        c = k.sigma2 * (kernels.corr_matrix(x_star, x_star, k.theta) - r_cross @ solved)
        c = 0.5 * (c + c.T)
        np.fill_diagonal(c, np.clip(np.diag(c), 0.0, None) + noise)
        return mean, c
    var = k.sigma2 * (1.0 - np.einsum("ij,ji->i", r_cross, solved))
    return mean, np.clip(var, 0.0, None) + noise


def _two_solve_predict_mf(model, x_star, mode, cov):
    """predict_mf as it was before the whitened path: separate LF predictions
    for the mean and the variance, and cho_solve for every cross term."""
    lf, params, x_h = model.lf_model, model.hf_params, model.hf_data.x
    kl = lf.hyper.kernel
    rho_star = model.rho_basis.design_matrix(x_star) @ params.beta_rho
    m_yl, _ = _two_solve_predict_gp(lf, x_star, "latent", "diagonal")
    m_ar = rho_star * m_yl + model.hf_basis.design_matrix(x_star) @ params.beta_h
    ra = kernels.corr_matrix(x_star, lf.data.x, kl.theta)
    rb = kernels.corr_matrix(x_h, lf.data.x, kl.theta)
    v_cross = kl.sigma2 * (
        kernels.corr_matrix(x_star, x_h, kl.theta)
        - ra @ cho_solve((lf.factorization.lower_factor, True), rb.T)
    )
    k_cross = (
        rho_star[:, None] * model.ar.rho[None, :] * v_cross
        + params.sigma2_h * kernels.corr_matrix(x_star, x_h, params.theta_h)
    )
    mean = m_ar + k_cross @ model.ar.residual_solve
    solved = cho_solve((model.ar.factorization.lower_factor, True), k_cross.T)
    _, v_yl = _two_solve_predict_gp(lf, x_star, "latent", cov)
    noise = params.noise_variance if mode == "noisy" else 0.0
    if cov == "full":
        r_star = kernels.corr_matrix(x_star, x_star, params.theta_h)
        c = np.outer(rho_star, rho_star) * v_yl + params.sigma2_h * r_star - k_cross @ solved
        c = 0.5 * (c + c.T)
        np.fill_diagonal(c, np.clip(np.diag(c), 0.0, None) + noise)
        return mean, c
    var = rho_star**2 * v_yl + params.sigma2_h - np.einsum("ij,ji->i", k_cross, solved)
    return mean, np.clip(var, 0.0, None) + noise


def _longdouble_cholesky(a):
    """Lower Cholesky factor of a in np.longdouble (80-bit on x86), column by column."""
    a = np.asarray(a, dtype=np.longdouble)
    low = np.zeros_like(a)
    for j in range(len(a)):
        low[j, j] = np.sqrt(a[j, j] - low[j, :j] @ low[j, :j])
        low[j + 1 :, j] = (a[j + 1 :, j] - low[j + 1 :, :j] @ low[j, :j]) / low[j, j]
    return low


def _longdouble_solve(low, b):
    """(L L^T)^-1 b by forward and back substitution in np.longdouble."""
    y = np.zeros_like(b)
    for i in range(len(low)):
        y[i] = (b[i] - low[i, :i] @ y[:i]) / low[i, i]
    x = np.zeros_like(b)
    for i in reversed(range(len(low))):
        x[i] = (y[i] - low[i + 1 :, i] @ x[i + 1 :]) / low[i, i]
    return x


def _park_model():
    """A 4D model with a linear scaling basis, assembled from fixed hyperparameters."""
    pair = design.PARK_4D
    x_lf = design.lhs(30, 4, seed=50).points
    z_lf = design.add_noise(design.eval_testfn(pair, "lf", x_lf), 0.1**2, seed=51)
    x_hf = design.lhs(12, 4, seed=52).points
    z_hf = design.add_noise(design.eval_testfn(pair, "hf", x_hf), 0.1**2, seed=53)
    lf_model = TrainedGp(Dataset(x_lf, z_lf), constant_basis(), GpHyper(
        np.array([z_lf.mean()]),
        KernelParams(theta=LengthScales(np.array([0.5, 0.7, 0.9, 1.1])),
                     sigma2=float(np.var(z_lf)), eta=1e-3),
    ))
    params = HfParams(
        beta_rho=np.array([1.1, -0.2]),
        beta_h=np.array([0.3]),
        sigma2_h=0.5,
        theta_h=LengthScales(np.array([0.4, 0.6, 0.8, 1.0])),
        eta_h=0.01,
    )
    lin = BasisSpec((lambda v: np.ones(v.shape[0]), lambda v: v[:, 0]))
    return MfModel(lf_model, params, constant_basis(), lin,
                   Dataset(x_hf, z_hf))


class TestPredictMf:
    @pytest.mark.parametrize("dim", [1, 4])
    @pytest.mark.parametrize("level", ["hf", "lf"])
    @pytest.mark.parametrize("mode", ["latent", "noisy"])
    @pytest.mark.parametrize("cov", ["diagonal", "full"])
    def test_matches_two_solve_reference(self, fitted_mf, dim, level, mode, cov):
        model = fitted_mf if dim == 1 else _park_model()
        rng = np.random.default_rng(dim)
        x = np.vstack([rng.uniform(0, 2 if dim == 1 else 1, size=(40, dim)),
                       model.hf_data.x[:5]])
        pred = predict_mf(model, x, level=level, mode=mode, cov=cov)
        if level == "hf":
            mean, spread = _two_solve_predict_mf(model, x, mode, cov)
        else:
            mean, spread = _two_solve_predict_gp(model.lf_model, x, mode, cov)
        np.testing.assert_allclose(pred.mean, mean, rtol=0, atol=1e-12 * np.abs(mean).max())
        got = pred.covariance if cov == "full" else pred.variance
        np.testing.assert_allclose(got, spread, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dim", [1, 4])
    @pytest.mark.parametrize("level", ["hf", "lf"])
    @pytest.mark.parametrize("mode", ["latent", "noisy"])
    @pytest.mark.parametrize(
        "n", [PREDICT_BLOCK_ROWS - 1, PREDICT_BLOCK_ROWS, PREDICT_BLOCK_ROWS + 1,
              2 * PREDICT_BLOCK_ROWS + 7]
    )
    def test_blocked_batch_matches_two_solve_reference(self, fitted_mf, dim, level, mode, n):
        model = fitted_mf if dim == 1 else _park_model()
        x = np.random.default_rng(n).uniform(0, 2 if dim == 1 else 1, size=(n, dim))
        pred = predict_mf(model, x, level=level, mode=mode)
        if level == "hf":
            mean, var = _two_solve_predict_mf(model, x, mode, "diagonal")
        else:
            mean, var = _two_solve_predict_gp(model.lf_model, x, mode, "diagonal")
        np.testing.assert_allclose(pred.mean, mean, rtol=0, atol=1e-12 * np.abs(mean).max())
        np.testing.assert_allclose(pred.variance, var, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("dim", [1, 4])
    @pytest.mark.parametrize("level", ["hf", "lf"])
    def test_blocks_equal_predicting_them_alone(self, fitted_mf, monkeypatch, dim, level):
        # A block of at most PREDICT_BLOCK_ROWS rows runs as one call on the calling
        # thread, so "alone" is the serial result; level "lf" is predict_gp. With 2
        # threads, 3B + 7 rows (4 blocks) catch a block placed out of order.
        model = fitted_mf if dim == 1 else _park_model()
        b = PREDICT_BLOCK_ROWS
        for n in (b + 1, 2 * b + 7, 3 * b + 7):
            x = np.random.default_rng(n + dim).uniform(0, 1, size=(n, dim))
            for mode in ("latent", "noisy"):
                alone = [predict_mf(model, x[i : i + b], level=level, mode=mode)
                         for i in range(0, n, b)]
                for threads in ("1", "2", "3"):
                    monkeypatch.setenv("MFKRIG_THREADS", threads)
                    pred = predict_mf(model, x, level=level, mode=mode)
                    assert np.array_equal(pred.mean, np.concatenate([a.mean for a in alone]))
                    assert np.array_equal(
                        pred.variance, np.concatenate([a.variance for a in alone])
                    )

    @pytest.mark.parametrize("level", ["hf", "lf"])
    def test_block_error_on_a_helper_thread_reaches_the_caller(
        self, fitted_mf, monkeypatch, level
    ):
        b = PREDICT_BLOCK_ROWS
        x = np.random.default_rng(0).uniform(0, 2, size=(3 * b + 7, 1))
        real_corr = kernels.corr_matrix
        on_main = []

        def corr_matrix(xa, xb, theta):
            if xa.shape[0] <= b and np.array_equal(xa[0], x[b]):  # block 1: a helper's
                on_main.append(threading.current_thread() is threading.main_thread())
                if failing:
                    raise NotPositiveDefinite("block 1 failed")
            return real_corr(xa, xb, theta)

        monkeypatch.setattr(kernels, "corr_matrix", corr_matrix)
        monkeypatch.setenv("MFKRIG_THREADS", "2")
        before = threading.active_count()
        failing = True
        with pytest.raises(NotPositiveDefinite, match="^block 1 failed$"):
            predict_mf(fitted_mf, x, level=level)
        assert threading.active_count() == before
        failing = False
        assert np.all(np.isfinite(predict_mf(fitted_mf, x, level=level).variance))
        assert threading.active_count() == before
        assert on_main and not any(on_main)

    def test_cached_lf_cross_solve_equals_a_fresh_solve(self, fitted_mf, tmp_path):
        save_model(fitted_mf, str(tmp_path / "m.json"))
        for model in (fitted_mf, load_model(str(tmp_path / "m.json"))):
            lf = model.lf_model
            r_lh = kernels.corr_matrix(lf.data.x, model.hf_data.x, lf.hyper.kernel.theta)
            assert np.array_equal(model.lf_cross_solve, numerics.solve_spd(lf.factorization, r_lh))

    @pytest.mark.parametrize("level", ["hf", "lf"])
    @pytest.mark.parametrize("cov", ["diagonal", "full"])
    def test_empty_batch(self, fitted_mf, level, cov):
        pred = predict_mf(fitted_mf, np.empty((0, 1)), level=level, cov=cov)
        assert pred.mean.shape == (0,)
        spread = pred.covariance if cov == "full" else pred.variance
        assert spread.shape == ((0, 0) if cov == "full" else (0,))

    @pytest.mark.parametrize("level", ["hf", "lf"])
    @pytest.mark.parametrize("n", [40, 2 * PREDICT_BLOCK_ROWS + 7])
    def test_noise_free_lf_matches_two_solve_reference(self, fitted_mf, level, n):
        # eta_L at the 1e-8 lower bound of the fit, where the analytic1d LF fits end:
        # the LF factor is as ill-conditioned as prediction meets it.
        lf = fitted_mf.lf_model
        k = lf.hyper.kernel
        lf = TrainedGp(lf.data, lf.basis, GpHyper(
            lf.hyper.beta, KernelParams(theta=k.theta, sigma2=k.sigma2, eta=1e-8)))
        model = MfModel(lf, fitted_mf.hf_params, fitted_mf.hf_basis, fitted_mf.rho_basis,
                        fitted_mf.hf_data)
        x = np.random.default_rng(n).uniform(0, 2, size=(n, 1))
        pred = predict_mf(model, x, level=level)
        if level == "hf":
            mean, var = _two_solve_predict_mf(model, x, "latent", "diagonal")
        else:
            mean, var = _two_solve_predict_gp(lf, x, "latent", "diagonal")
        np.testing.assert_allclose(pred.mean, mean, rtol=0, atol=1e-12 * np.abs(mean).max())
        np.testing.assert_allclose(pred.variance, var, rtol=0, atol=1e-12)

    def test_noise_free_lf_full_covariance_matches_longdouble_oracle(self, fitted_mf):
        # The EM's LF input at X_H, from the same eta_L = 1e-8 LF model (cond R~ ~ 1.6e9).
        # A product of two whitened terms was 2.0e-13 off this oracle; a solve is ~5e-16.
        lf = fitted_mf.lf_model
        k = lf.hyper.kernel
        lf = TrainedGp(lf.data, lf.basis, GpHyper(
            lf.hyper.beta, KernelParams(theta=k.theta, sigma2=k.sigma2, eta=1e-8)))
        x_h, x_l = fitted_mf.hf_data.x, lf.data.x
        r_tilde = KernelWorkspace(x_l).corr(k.theta, 1e-8)
        r_tilde += lf.factorization.jitter_used * np.eye(len(x_l))
        r = kernels.corr_matrix(x_h, x_l, k.theta).astype(np.longdouble)
        solved = _longdouble_solve(_longdouble_cholesky(r_tilde), r.T)
        oracle = np.longdouble(k.sigma2) * (kernels.corr_matrix(x_h, x_h, k.theta) - r @ solved)
        cov = predict_gp(lf, x_h, cov="full").covariance
        assert np.max(np.abs(cov - oracle)) < 1e-14
        hf = hf_workspace(fitted_mf.hf_data, lf, fitted_mf.hf_basis, fitted_mf.rho_basis)
        assert np.array_equal(hf.lf_cov, cov)

    @pytest.mark.parametrize("level", ["hf", "lf"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises(self, fitted_mf, level, bad):
        with pytest.raises(DomainViolation, match="finite"):
            predict_mf(fitted_mf, np.array([[0.2], [bad]]), level=level)

    @pytest.mark.parametrize("level", ["hf", "lf"])
    @pytest.mark.parametrize(
        "option", [{"level": "mf"}, {"mode": "noisey"}, {"cov": "ful"}], ids=str
    )
    def test_unknown_option_raises(self, fitted_mf, level, option):
        kwargs = {"level": level, **option}
        with pytest.raises(InvalidConfig, match=next(iter(option))):
            predict_mf(fitted_mf, np.array([[0.2]]), **kwargs)

    def test_interpolation_exact_covariance(self):
        lf_model, x_lf, z_lf, x_hf = _nested_lf(n_lf=20, n_hf=10)
        z_hf = design.eval_testfn(design.ANALYTIC_1D, "hf", x_hf)
        data = Dataset(x_hf, z_hf)
        params = HfParams(
            beta_rho=np.array([1.0]),
            beta_h=np.array([0.0]),
            sigma2_h=1.0,
            theta_h=LengthScales(np.array([0.5])),
            eta_h=0.0,
        )
        model = MfModel(lf_model, params, constant_basis(), constant_basis(), data)
        pred = predict_mf(model, x_hf, level="hf")
        assert np.max(np.abs(pred.mean - z_hf)) < 1e-6

    def test_zero_scaling_decoupling(self, fitted_mf, rng):
        params = HfParams(
            beta_rho=np.array([0.0]),
            beta_h=np.array([0.4]),
            sigma2_h=0.5,
            theta_h=LengthScales(np.array([0.7])),
            eta_h=0.2,
        )
        model = MfModel(
            fitted_mf.lf_model, params, constant_basis(), constant_basis(), fitted_mf.hf_data
        )
        single = TrainedGp(fitted_mf.hf_data, constant_basis(), GpHyper(
            params.beta_h,
            KernelParams(theta=params.theta_h, sigma2=params.sigma2_h, eta=params.eta_h),
        ))
        x = rng.uniform(0, 2, size=(20, 1))
        mf_pred = predict_mf(model, x, level="hf")
        sf_pred = predict_gp(single, x)
        assert np.allclose(mf_pred.mean, sf_pred.mean, atol=1e-10)
        assert np.allclose(mf_pred.variance, sf_pred.variance, atol=1e-10)

    def test_full_covariance_psd(self, fitted_mf, rng):
        x = rng.uniform(0, 2, size=(6, 1))
        pred = predict_mf(fitted_mf, x, level="hf", cov="full")
        assert np.allclose(pred.covariance, pred.covariance.T)
        assert np.linalg.eigvalsh(pred.covariance).min() >= -1e-8

    def test_noisy_adds_noise_variance(self, fitted_mf, rng):
        x = rng.uniform(0, 2, size=(8, 1))
        latent = predict_mf(fitted_mf, x, level="hf", mode="latent")
        noisy = predict_mf(fitted_mf, x, level="hf", mode="noisy")
        assert np.allclose(
            noisy.variance - latent.variance, fitted_mf.hf_params.noise_variance
        )

    def test_lf_level_delegates(self, fitted_mf, rng):
        x = rng.uniform(0, 2, size=(10, 1))
        mf_pred = predict_mf(fitted_mf, x, level="lf")
        gp_pred = predict_gp(fitted_mf.lf_model, x)
        assert np.array_equal(mf_pred.mean, gp_pred.mean)
        assert np.array_equal(mf_pred.variance, gp_pred.variance)

    def test_diagonal_matches_full(self, fitted_mf, rng):
        x = rng.uniform(0, 2, size=(7, 1))
        diag = predict_mf(fitted_mf, x, level="hf", cov="diagonal")
        full = predict_mf(fitted_mf, x, level="hf", cov="full")
        assert np.allclose(diag.variance, np.diag(full.covariance), atol=1e-10)
        assert np.allclose(diag.mean, full.mean)

    def test_linear_rho_basis(self, linear_rho_mf):
        pair = design.ANALYTIC_1D
        model = linear_rho_mf
        assert model.hf_params.beta_rho.shape == (2,)
        xt = np.linspace(0, 2, 500).reshape(-1, 1)
        pred = predict_mf(model, xt, level="hf")
        assert np.all(np.isfinite(pred.mean)) and np.all(np.isfinite(pred.variance))
        assert q2(design.eval_testfn(pair, "hf", xt), pred.mean) > 0.9


class TestMStepSearchCallback:
    """The HF M-step's search callback: value and gradient in psi = log(theta_H, eta_H),
    with the chain rule applied in the callback itself."""

    @staticmethod
    def psi_points(rng, count=5):
        omega = np.column_stack([rng.uniform(0.3, 2.0, (count, 4)), rng.uniform(0.01, 1.0, count)])
        return np.log(omega)

    @staticmethod
    def first_m_step(park_em_case, monkeypatch):
        data, lf = park_em_case
        return first_search_callback(
            monkeypatch, lambda: em_fit_hf(data, lf, config=MultiStartConfig(n_starts=2))
        )

    def test_same_bits_as_the_raw_gradient_times_omega(self, park_em_case, monkeypatch, rng):
        callback, evaluate = self.first_m_step(park_em_case, monkeypatch)
        assert evaluate.func is mfgp.q_tilde_and_grad
        state, hf = evaluate.args
        assert np.any(state.sigma_y_given_z != 0.0)
        for psi in self.psi_points(rng):
            omega = np.exp(psi)
            value, grad = q_tilde_and_grad(state, hf, LengthScales(omega[:4]), float(omega[4]))
            got_value, got_grad = callback(psi)
            assert got_value == value
            assert np.array_equal(got_grad, grad * omega)

    @pytest.mark.parametrize("latent_term", [True, False])
    def test_central_differences_in_psi(self, park_em_case, monkeypatch, rng, latent_term):
        _, evaluate = self.first_m_step(park_em_case, monkeypatch)
        state, hf = evaluate.args
        if not latent_term:
            state = dataclasses.replace(state, sigma_y_given_z=np.zeros_like(state.sigma_y_given_z))
        callback, _ = first_search_callback(
            monkeypatch,
            lambda: log_space_search(functools.partial(q_tilde_and_grad, state, hf),
                                     default_bounds(hf.data), MultiStartConfig()),
        )
        for psi in self.psi_points(rng):
            grad = callback(psi)[1]
            assert np.allclose(central_differences(callback, psi), grad,
                               rtol=1e-5, atol=1e-5 * np.max(np.abs(grad)))


def test_every_factorization_goes_through_chol_factor(park_em_case, monkeypatch):
    # One entry point. fit_gp factorizes once per evaluation, once for the closed
    # forms at the optimum and once for its model; em_fit_hf once per evaluation,
    # once for its initial AR(1) marginal and, per iteration, once for the M-step
    # closed forms and once for the new marginal.
    factorizations = count_calls(monkeypatch, numerics, "chol_factor")
    lf_evaluations = count_calls(monkeypatch, gp, "profiled_nll_and_grad")
    hf_evaluations = count_calls(monkeypatch, mfgp, "q_tilde_and_grad")
    data, lf = park_em_case
    fit_gp(data, config=MultiStartConfig(n_starts=10, rng_seed=0))
    assert len(lf_evaluations) > 100
    assert len(factorizations) == len(lf_evaluations) + 2
    factorizations.clear()
    _, em_log = em_fit_hf(data, lf, config=MultiStartConfig(n_starts=3, rng_seed=1),
                          em_config=EmConfig(max_em_iterations=3))
    assert len(hf_evaluations) > 10
    assert len(factorizations) == len(hf_evaluations) + 1 + 2 * (len(em_log) - 1)


def test_fit_mf_factorization_count(monkeypatch, factorization_sizes):
    # One factorization per objective evaluation of either level. Beyond them the
    # LF fit factorizes for its closed forms and its model, EM for its initial
    # AR(1) marginal and, per iteration, for the M-step closed forms and the new
    # marginal, and the model once for its marginal. The pinned total also catches
    # a model rebuilt after the fit.
    lf_evaluations = count_calls(monkeypatch, gp, "profiled_nll_and_grad")
    hf_evaluations = count_calls(monkeypatch, mfgp, "q_tilde_and_grad")
    pair = design.ANALYTIC_1D
    x_lf = design.scale_to_domain(pair, design.lhs(25, 1, seed=1).points)
    x_hf = design.scale_to_domain(pair, design.lhs(10, 1, seed=2).points)
    z_lf = design.add_noise(design.eval_testfn(pair, "lf", x_lf), 0.01, seed=3)
    z_hf = design.add_noise(design.eval_testfn(pair, "hf", x_hf), 0.01, seed=4)
    model = fit_mf(MfData(Dataset(x_lf, z_lf), Dataset(x_hf, z_hf)),
                   lf_config=MultiStartConfig(n_starts=3, rng_seed=1),
                   hf_config=MultiStartConfig(n_starts=3, rng_seed=1))
    iterations = len(model.em_log) - 1
    evaluations = len(lf_evaluations) + len(hf_evaluations)
    assert len(factorization_sizes) == evaluations + 4 + 2 * iterations == 410
