import numpy as np
import pytest

from mfkrig import design, gp, kernels, numerics
from mfkrig.exceptions import (
    DimensionMismatch,
    DomainViolation,
    InvalidConfig,
    RankDeficientBasis,
    SingularNormalEquations,
)
from mfkrig.gp import (
    BasisSpec,
    Dataset,
    GpHyper,
    MultiStartConfig,
    constant_basis,
    fit_gp,
    posterior_cross_cov,
    predict_gp,
)
from mfkrig.kernels import KernelParams, KernelWorkspace, LengthScales
from mfkrig.metrics import q2

from conftest import central_differences, count_calls, first_search_callback


def profiled_estimates(data, basis, theta, eta):
    """Closed-form GLS estimate of beta and the profiled variance, with fit_gp's rank check."""
    f = gp.check_rank(basis.design_matrix(data.x), "basis")
    return gp.profiled_gls(KernelWorkspace(data.x), data.z, f, theta, eta)[:2]


def nll_and_grad(data, basis, theta, eta):
    """The LF objective of fit_gp at (theta, eta) on a dataset."""
    return gp.profiled_nll_and_grad(
        KernelWorkspace(data.x), data.z, basis.design_matrix(data.x), theta, eta
    )


def gls_oracle(f_mat, cov, z):
    """GLS estimate via explicit dense inversion (independent of the Cholesky path)."""
    w = np.linalg.inv(cov)
    beta = np.linalg.solve(f_mat.T @ w @ f_mat, f_mat.T @ w @ z)
    resid = z - f_mat @ beta
    return beta, float(resid @ w @ resid) / len(z)


class TestProfiledEstimates:
    def test_large_eta_approaches_sample_mean(self, rng):
        x = rng.uniform(size=(12, 2))
        z = rng.normal(size=12)
        data = Dataset(x, z)
        theta = LengthScales(np.array([0.5, 0.5]))
        beta, _ = profiled_estimates(data, constant_basis(), theta, eta=1e6)
        assert np.isclose(beta[0], z.mean(), atol=1e-4)

    def test_matches_gls_oracle(self, rng):
        x = rng.uniform(size=(10, 1))
        z = rng.normal(size=10)
        data = Dataset(x, z)
        theta = LengthScales(np.array([0.4]))
        eta = 0.3
        beta, sigma2 = profiled_estimates(data, constant_basis(), theta, eta)
        from mfkrig.kernels import corr_matrix

        cov = corr_matrix(x, x, theta) + eta * np.eye(10)
        f_mat = np.ones((10, 1))
        beta_o, sigma2_o = gls_oracle(f_mat, cov, z)
        assert np.allclose(beta, beta_o, atol=1e-10)
        assert np.isclose(sigma2, sigma2_o, atol=1e-10)

    def test_two_point_orthogonal_limit(self):
        # Far-separated points with eta = 0: R is essentially the identity.
        data = Dataset(np.array([[0.0], [1000.0]]), np.array([1.0, 3.0]))
        theta = LengthScales(np.array([1.0]))
        beta, sigma2 = profiled_estimates(data, constant_basis(), theta, eta=0.0)
        assert np.isclose(beta[0], 2.0)
        assert np.isclose(sigma2, ((1.0 - 2.0) ** 2 + (3.0 - 2.0) ** 2) / 2)

    def test_zero_residual(self, rng):
        x = rng.uniform(size=(8, 1))
        basis = BasisSpec((lambda v: np.ones(v.shape[0]), lambda v: v[:, 0]))
        c = np.array([2.0, -1.5])
        z = basis.design_matrix(x) @ c
        beta, sigma2 = profiled_estimates(
            Dataset(x, z), basis, LengthScales(np.array([0.5])), eta=0.1
        )
        assert np.allclose(beta, c, atol=1e-8)
        assert sigma2 < 1e-12

    def test_rank_deficient_basis(self, rng):
        x = rng.uniform(size=(6, 1))
        basis = BasisSpec((lambda v: np.ones(v.shape[0]), lambda v: np.ones(v.shape[0])))
        with pytest.raises(RankDeficientBasis):
            profiled_estimates(Dataset(x, rng.normal(size=6)), basis,
                               LengthScales(np.array([0.5])), eta=0.1)

    def test_identical_columns_singular_normal_equations(self, rng):
        # Far-apart inputs make R~ = 4 I exactly, so H^T R~^-1 H = [[2, 2], [2, 2]].
        x = 100.0 * np.arange(8.0).reshape(-1, 1)
        with pytest.raises(SingularNormalEquations):
            gp.profiled_gls(KernelWorkspace(x), rng.normal(size=8), np.ones((8, 2)),
                            LengthScales(np.array([0.5])), 3.0)


class TestProfiledNll:
    @pytest.mark.parametrize("dim", [1, 2, 4])
    def test_gradient_finite_differences(self, dim):
        rng = np.random.default_rng(100 + dim)
        basis = constant_basis()
        for _ in range(5):
            x = rng.uniform(size=(12, dim))
            z = rng.normal(size=12)
            data = Dataset(x, z)
            theta = LengthScales(rng.uniform(0.3, 1.5, dim))
            eta = rng.uniform(0.05, 0.8)
            _, grad = nll_and_grad(data, basis, theta, eta)
            for j in range(dim + 1):
                h = 1e-6
                if j < dim:
                    tp, tm = theta.theta.copy(), theta.theta.copy()
                    tp[j] += h
                    tm[j] -= h
                    vp, _ = nll_and_grad(data, basis, LengthScales(tp), eta)
                    vm, _ = nll_and_grad(data, basis, LengthScales(tm), eta)
                else:
                    vp, _ = nll_and_grad(data, basis, theta, eta + h)
                    vm, _ = nll_and_grad(data, basis, theta, eta - h)
                fd = (vp - vm) / (2 * h)
                assert abs(grad[j] - fd) / max(abs(fd), 1e-8) < 1e-5

    def test_single_point_degenerate(self):
        data = Dataset(np.array([[0.5]]), np.array([1.0]))
        value, _ = nll_and_grad(
            data, constant_basis(), LengthScales(np.array([1.0])), eta=0.1
        )
        assert value == np.inf

    def test_output_scaling(self, rng):
        x = rng.uniform(size=(15, 1))
        z = rng.normal(size=15)
        theta = LengthScales(np.array([0.6]))
        eta = 0.2
        v1, g1 = nll_and_grad(Dataset(x, z), constant_basis(), theta, eta)
        v2, g2 = nll_and_grad(Dataset(x, 2 * z), constant_basis(), theta, eta)
        assert np.isclose(v2 - v1, 15 * np.log(2.0))
        assert np.allclose(g1, g2, atol=1e-8)


class TestDataset:
    @pytest.mark.parametrize(
        "x, z",
        [
            (np.array([[0.1], [np.nan]]), np.array([1.0, 2.0])),
            (np.array([[0.1], [np.inf]]), np.array([1.0, 2.0])),
            (np.array([[0.1], [0.2]]), np.array([1.0, -np.inf])),
            (np.array([[0.1], [0.2]]), np.array([np.nan, 2.0])),
            (np.empty((0, 1)), np.empty(0)),
            (np.empty((3, 0)), np.zeros(3)),
        ],
        ids=["nan-x", "inf-x", "minus-inf-z", "nan-z", "no-rows", "no-columns"],
    )
    def test_rejects_non_finite_or_empty(self, x, z):
        with pytest.raises(InvalidConfig):
            Dataset(x, z)

    def test_rejects_inputs_of_three_or_more_dimensions(self, rng):
        with pytest.raises(DimensionMismatch, match="N x D"):
            Dataset(rng.random((8, 2, 2)), rng.random(8))


@pytest.mark.parametrize("beta", [[np.nan], [0.0, np.inf], [-np.inf]])
def test_gp_hyper_rejects_non_finite_beta(beta):
    with pytest.raises(InvalidConfig, match="beta must be finite"):
        GpHyper(beta, KernelParams(LengthScales([0.3]), 1.0, 1e-6))


class TestFitGp:
    def test_noise_free_interpolation(self):
        pair = design.ANALYTIC_1D
        x = design.scale_to_domain(pair, design.lhs(20, 1, seed=0).points)
        z = design.eval_testfn(pair, "lf", x)
        model = fit_gp(
            Dataset(x, z), config=MultiStartConfig(n_starts=5, rng_seed=1), fixed_eta=0.0
        )
        pred = predict_gp(model, x, mode="latent", cov="diagonal")
        assert np.max(np.abs(pred.mean - z)) < 1e-6
        assert np.max(pred.variance) < 1e-8

    def test_analytic1d_lf_quality(self):
        pair = design.ANALYTIC_1D
        x = design.scale_to_domain(pair, design.lhs(100, 1, seed=2).points)
        z = design.eval_testfn(pair, "lf", x)
        model = fit_gp(Dataset(x, z), config=MultiStartConfig(n_starts=5, rng_seed=3))
        xt = np.linspace(0, 2, 2000).reshape(-1, 1)
        pred = predict_gp(model, xt)
        assert q2(design.eval_testfn(pair, "lf", xt), pred.mean) > 0.999

    def test_fit_never_inverts_a_factor(self, rng, monkeypatch):
        # Only prediction reads the inverse factor; the thousands of
        # factorizations of a fit must not pay for it.
        made = []
        chol_factor = numerics.chol_factor

        def recording_chol_factor(m):
            made.append(chol_factor(m))
            return made[-1]

        monkeypatch.setattr(numerics, "chol_factor", recording_chol_factor)
        x = rng.uniform(size=(15, 2))
        z = np.sin(3 * x[:, 0]) + x[:, 1] + rng.normal(scale=0.1, size=15)
        model = fit_gp(Dataset(x, z), config=MultiStartConfig(n_starts=2))
        assert len(made) > 10
        assert not any("lower_inverse" in vars(f) for f in made)
        predict_gp(model, x)
        assert "lower_inverse" in vars(model.factorization)

    def test_fit_factorizes_once_per_evaluation_plus_two(self, monkeypatch,
                                                         factorization_sizes):
        # One factorization per objective evaluation, one for the closed forms at
        # the optimum and one in the model's construction. A model rebuilt after
        # the fit (a dataclasses.replace re-runs the construction) would add one.
        evaluations = count_calls(monkeypatch, gp, "profiled_nll_and_grad")
        pair = design.ANALYTIC_1D
        x = design.scale_to_domain(pair, design.lhs(30, 1, seed=1).points)
        fit_gp(Dataset(x, design.eval_testfn(pair, "lf", x)),
               config=MultiStartConfig(n_starts=3, rng_seed=0))
        assert len(factorization_sizes) == len(evaluations) + 2 == 98
        assert set(factorization_sizes) == {30}

    def test_refit_determinism(self, rng):
        x = rng.uniform(size=(20, 2))
        z = np.sin(3 * x[:, 0]) + rng.normal(scale=0.1, size=20)
        config = MultiStartConfig(n_starts=4, rng_seed=7)
        m1 = fit_gp(Dataset(x, z), config=config)
        m2 = fit_gp(Dataset(x, z), config=config)
        assert np.array_equal(m1.hyper.kernel.theta.theta, m2.hyper.kernel.theta.theta)
        assert m1.hyper.kernel.eta == m2.hyper.kernel.eta
        assert np.array_equal(m1.hyper.beta, m2.hyper.beta)

    def test_fit_log_nll_is_the_objective_at_the_fit(self, rng):
        # The minimum over the starts is checked in test_optimize.
        x = rng.uniform(size=(15, 1))
        z = rng.normal(size=15)
        model = fit_gp(Dataset(x, z), config=MultiStartConfig(n_starts=6, rng_seed=9))
        k = model.hyper.kernel
        f = model.basis.design_matrix(x)
        nll, _ = gp.profiled_nll_and_grad(KernelWorkspace(x), model.data.z, f, k.theta, k.eta)
        assert model.fit_log == {"nll": nll}

    def test_residual_solve_invariant(self, rng):
        x = rng.uniform(size=(18, 1))
        z = np.cos(4 * x[:, 0]) + rng.normal(scale=0.05, size=18)
        model = fit_gp(Dataset(x, z), config=MultiStartConfig(n_starts=4, rng_seed=5))
        from mfkrig.kernels import corr_matrix

        k = model.hyper.kernel
        rt = corr_matrix(x, x, k.theta)
        rt += (k.eta + model.factorization.jitter_used) * np.eye(18)
        resid = z - np.ones(18) * model.hyper.beta[0]
        lhs = rt @ model.residual_solve
        assert np.linalg.norm(lhs - resid) / max(np.linalg.norm(resid), 1e-12) < 1e-8


@pytest.fixture(scope="module")
def model():
    rng = np.random.default_rng(21)
    x = rng.uniform(size=(25, 2))
    z = np.sin(3 * x[:, 0]) * np.cos(2 * x[:, 1]) + rng.normal(scale=0.05, size=25)
    return fit_gp(Dataset(x, z), config=MultiStartConfig(n_starts=4, rng_seed=2))


class TestLogSpaceCallback:
    """The LF fit's search callback: value and gradient in psi = log(theta, eta),
    with the chain rule applied in the callback itself."""

    @pytest.fixture(scope="class")
    def park_data(self):
        x = design.lhs(25, 4, seed=11).points
        z = design.add_noise(design.eval_testfn(design.PARK_4D, "lf", x), 1.0, seed=12)
        return Dataset(x, z)

    @staticmethod
    def psi_points(rng, d, count=5):
        omega = np.column_stack([rng.uniform(0.3, 2.0, (count, d)), rng.uniform(0.01, 1.0, count)])
        return np.log(omega)

    @pytest.mark.parametrize("fixed_eta", [None, 0.0])
    def test_same_bits_as_the_raw_gradient_times_omega(self, park_data, monkeypatch, rng,
                                                      fixed_eta):
        callback, evaluate = first_search_callback(
            monkeypatch, lambda: fit_gp(park_data, fixed_eta=fixed_eta)
        )
        assert evaluate.func is gp.profiled_nll_and_grad
        f = constant_basis().design_matrix(park_data.x)
        for psi in self.psi_points(rng, 4):
            if fixed_eta is not None:
                psi = psi[:4]
            omega = np.exp(psi)
            eta = float(omega[4]) if fixed_eta is None else fixed_eta
            value, grad = gp.profiled_nll_and_grad(
                KernelWorkspace(park_data.x), park_data.z, f, LengthScales(omega[:4]), eta
            )
            got_value, got_grad = callback(psi)
            assert got_value == value
            assert np.array_equal(got_grad, grad[: omega.size] * omega)

    def test_central_differences_in_psi(self, park_data, monkeypatch, rng):
        callback, _ = first_search_callback(monkeypatch, lambda: fit_gp(park_data))
        for psi in self.psi_points(rng, 4):
            grad = callback(psi)[1]
            assert np.allclose(central_differences(callback, psi), grad,
                               rtol=1e-5, atol=1e-5 * np.max(np.abs(grad)))


class TestPredictGp:
    def test_prior_reversion_far_away(self, model):
        x_far = np.array([[100.0, -100.0]])
        pred = predict_gp(model, x_far)
        assert np.isclose(pred.mean[0], model.hyper.beta[0], atol=1e-8)
        assert np.isclose(pred.variance[0], model.hyper.kernel.sigma2, rtol=1e-8)

    def test_full_covariance_psd(self, model, rng):
        x_star = rng.uniform(size=(5, 2))
        pred = predict_gp(model, x_star, cov="full")
        eig = np.linalg.eigvalsh(pred.covariance)
        assert eig.min() >= -1e-8
        assert np.allclose(pred.covariance, pred.covariance.T)

    def test_latent_variance_below_prior(self, model, rng):
        x_star = rng.uniform(size=(200, 2))
        pred = predict_gp(model, x_star)
        assert np.all(pred.variance <= model.hyper.kernel.sigma2 + 1e-10)

    def test_noisy_adds_noise_variance(self, model, rng):
        x_star = rng.uniform(size=(10, 2))
        latent = predict_gp(model, x_star, mode="latent")
        noisy = predict_gp(model, x_star, mode="noisy")
        assert np.allclose(
            noisy.variance - latent.variance, model.hyper.kernel.noise_variance
        )

    def test_diagonal_matches_full(self, model, rng):
        x_star = rng.uniform(size=(6, 2))
        diag = predict_gp(model, x_star, cov="diagonal")
        full = predict_gp(model, x_star, cov="full")
        assert np.allclose(diag.variance, np.diag(full.covariance), atol=1e-10)
        assert np.allclose(diag.mean, full.mean)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_raises(self, model, bad):
        with pytest.raises(DomainViolation, match="finite"):
            predict_gp(model, np.array([[0.2, 0.3], [bad, 0.5]]))

    @pytest.mark.parametrize("option", [{"mode": "noisey"}, {"cov": "ful"}])
    def test_unknown_option_raises(self, model, option):
        with pytest.raises(InvalidConfig, match=next(iter(option))):
            predict_gp(model, np.array([[0.2, 0.3]]), **option)

    def test_cross_cov_matches_dense_oracle(self, model, rng):
        # sigma2 (R(a, b) - r_a^T (R + eta I)^-1 r_b) by explicit dense inversion.
        xa, xb = rng.uniform(size=(4, 2)), rng.uniform(size=(3, 2))
        k = model.hyper.kernel
        x = model.data.x
        corr = lambda p, q: kernels.corr_matrix(p, q, k.theta)
        rt_inv = np.linalg.inv(corr(x, x) + k.eta * np.eye(len(x)))
        ref = k.sigma2 * (corr(xa, xb) - corr(xa, x) @ rt_inv @ corr(x, xb))
        assert np.allclose(posterior_cross_cov(model, xa, xb), ref, atol=1e-10)
        full = predict_gp(model, xa, cov="full").covariance
        assert np.allclose(posterior_cross_cov(model, xa, xa), full, atol=1e-12)
