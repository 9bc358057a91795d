"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL
line to the terminal (bypassing capture) so the criterion status is visible in
the test log."""

import numpy as np
import pytest

from mfkrig import design
from mfkrig.bench import BenchmarkConfig, run_benchmark
from mfkrig.gp import (
    BasisSpec,
    Dataset,
    MultiStartConfig,
    constant_basis,
    fit_gp,
    predict_gp,
    profiled_nll_and_grad,
)
from mfkrig.kernels import KernelWorkspace, LengthScales
from mfkrig.mfgp import (
    EmConfig,
    HfParams,
    MfData,
    ar_marginal,
    e_step,
    em_fit_hf,
    fit_mf,
    hf_workspace,
    q_tilde_and_grad,
)

CICP_LEVELS = ("cicp_10", "cicp_50", "cicp_90", "cicp_95")
PICP_LEVELS = ("picp_10", "picp_50", "picp_90", "picp_95")

TABLE1_MF = (0.078, 0.425, 0.804, 0.864)
TABLE1_HF_ONLY = (0.098, 0.504, 0.895, 0.939)
TABLE2_MF = (0.089, 0.449, 0.839, 0.897)
TABLE_TOLERANCE = 0.06


def _announce(capsys, name, ok, detail=""):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        suffix = f"  ({detail})" if detail else ""
        print(f"\n[acceptance] {name}: {status}{suffix}")
    assert ok, f"{name}: {detail}"


def _model_rows(rows, name):
    picked = [r for r in rows if r["model_name"] == name]
    assert picked, f"no rows for model {name}"
    assert all(r["failed"] == 0 for r in picked), f"failed replications for {name}"
    return picked


def _means(rows, columns):
    return tuple(float(np.mean([r[c] for r in rows])) for c in columns)


@pytest.fixture(scope="module")
def analytic1d_campaign():
    config = BenchmarkConfig(
        benchmark="analytic1d",
        n_lf=100,
        n_hf=50,
        noise_sd_lf=0.0,
        noise_sd_hf=0.166,
        n_test=10_000,
        n_replications=50,
        seed=42,
        models=("mf", "hf_only"),
    )
    return run_benchmark(config)


@pytest.fixture(scope="module")
def park_campaign():
    config = BenchmarkConfig(
        benchmark="park4d",
        n_lf=75,
        n_hf=20,
        noise_sd_lf=1.0,
        noise_sd_hf=1.0,
        n_test=10_000,
        n_replications=50,
        seed=7,
        models=("mf", "hf_only"),
    )
    return run_benchmark(config)


class TestCoverageTables:
    def test_table1_cicp(self, analytic1d_campaign, capsys):
        mf = _means(_model_rows(analytic1d_campaign, "mf"), CICP_LEVELS)
        hf = _means(_model_rows(analytic1d_campaign, "hf_only"), CICP_LEVELS)
        mf_ok = all(abs(a - b) <= TABLE_TOLERANCE for a, b in zip(mf, TABLE1_MF))
        hf_ok = all(abs(a - b) <= TABLE_TOLERANCE for a, b in zip(hf, TABLE1_HF_ONLY))
        detail = (
            f"MF CICP {tuple(round(v, 3) for v in mf)} vs {TABLE1_MF}; "
            f"HF-only CICP {tuple(round(v, 3) for v in hf)} vs {TABLE1_HF_ONLY}"
        )
        _announce(capsys, "mean-CICP reproduction (bi-fidelity 1D benchmark)",
                  mf_ok and hf_ok, detail)

    def test_table2_picp(self, analytic1d_campaign, capsys):
        mf = _means(_model_rows(analytic1d_campaign, "mf"), PICP_LEVELS)
        ok = all(abs(a - b) <= TABLE_TOLERANCE for a, b in zip(mf, TABLE2_MF))
        detail = f"MF PICP {tuple(round(v, 3) for v in mf)} vs {TABLE2_MF}"
        _announce(capsys, "mean-PICP reproduction (bi-fidelity 1D benchmark)", ok, detail)


class TestParkOrdering:
    def test_mf_beats_hf_only(self, park_campaign, capsys):
        mf = np.median([1.0 - float(r["q2"]) for r in _model_rows(park_campaign, "mf")])
        hf = np.median(
            [1.0 - float(r["q2"]) for r in _model_rows(park_campaign, "hf_only")]
        )
        detail = f"median(1-Q2): MF {mf:.4f} < HF-only {hf:.4f}"
        _announce(capsys, "Park 4D ordering (MF beats HF-only at low N_H)",
                  mf < hf, detail)


class TestEmMonotonicity:
    def test_synthetic_instances(self, capsys):
        worst = np.inf
        for i in range(50):
            rng = np.random.default_rng(
                np.random.SeedSequence((2024, i)).generate_state(4)
            )
            d = int(rng.integers(1, 3))
            n_lf = 25
            x_lf = rng.uniform(size=(n_lf, d))
            z_lf = np.sin(3 * x_lf[:, 0]) + 0.5 * x_lf.sum(axis=1)
            z_lf = z_lf + rng.normal(scale=0.1, size=n_lf)
            lf_model = fit_gp(
                Dataset(x_lf, z_lf), config=MultiStartConfig(n_starts=3, rng_seed=i)
            )
            n_hf = 10
            x_hf = rng.uniform(size=(n_hf, d))
            rho_true = rng.uniform(0.5, 2.0)
            z_hf = rho_true * np.sin(3 * x_hf[:, 0]) + rng.normal(
                scale=0.3, size=n_hf
            )
            _, em_log = em_fit_hf(
                Dataset(x_hf, z_hf),
                lf_model,
                config=MultiStartConfig(n_starts=4, rng_seed=1000 + i),
                em_config=EmConfig(max_em_iterations=15),
            )
            if len(em_log) > 1:
                worst = min(worst, float(np.min(np.diff(em_log))))
        ok = worst >= -1e-8
        _announce(capsys, "EM monotonicity (50 randomized instances)", ok,
                  f"worst log-likelihood step {worst:.3e} >= -1e-8")

    def test_no_benchmark_failures(self, analytic1d_campaign, park_campaign, capsys):
        n_failed = sum(
            int(r["failed"]) for r in analytic1d_campaign + park_campaign
        )
        _announce(capsys, "EM monotonicity (all benchmark fits completed)",
                  n_failed == 0, f"{n_failed} failed replications")


def _fd_check(value_fn, grad, point_args, perturb, tol):
    """Componentwise central finite differences against an analytic gradient."""
    worst = 0.0
    for j in range(len(grad)):
        h = 1e-6
        vp = value_fn(*perturb(point_args, j, +h))
        vm = value_fn(*perturb(point_args, j, -h))
        fd = (vp - vm) / (2 * h)
        err = abs(grad[j] - fd) / max(abs(fd), 1e-8)
        worst = max(worst, err)
    return worst < tol, worst


class TestGradientSuites:
    @pytest.mark.parametrize("dim", [1, 2, 4])
    def test_profiled_nll_gradient(self, dim, capsys):
        basis = constant_basis()
        worst_overall = 0.0
        ok = True
        for i in range(20):
            rng = np.random.default_rng(
                np.random.SeedSequence((31, dim, i)).generate_state(4)
            )
            n = int(rng.integers(10, 18))
            x = rng.uniform(size=(n, dim))
            z = rng.normal(size=n)
            ws, f = KernelWorkspace(x), basis.design_matrix(x)
            theta = rng.uniform(0.3, 1.5, dim)
            eta = rng.uniform(0.05, 0.8)
            _, grad = profiled_nll_and_grad(ws, z, f, LengthScales(theta), eta)

            def value(th, et):
                return profiled_nll_and_grad(ws, z, f, LengthScales(th), et)[0]

            def perturb(args, j, h):
                th, et = args[0].copy(), args[1]
                if j < dim:
                    th[j] += h
                else:
                    et += h
                return th, et

            inst_ok, worst = _fd_check(value, grad, (theta, eta), perturb, 1e-4)
            worst_overall = max(worst_overall, worst)
            ok = ok and inst_ok
        _announce(
            capsys,
            f"profiled-NLL gradient vs finite differences (D={dim}, 20 instances)",
            ok, f"worst relative error {worst_overall:.2e} < 1e-4",
        )

    @pytest.mark.parametrize("dim", [1, 2, 4])
    def test_q_tilde_gradient(self, dim, capsys):
        rng0 = np.random.default_rng(500 + dim)
        n_lf = 30
        x_lf = rng0.uniform(size=(n_lf, dim))
        z_lf = np.cos(2 * x_lf[:, 0]) + 0.3 * x_lf.sum(axis=1)
        z_lf = z_lf + rng0.normal(scale=0.1, size=n_lf)
        lf_model = fit_gp(
            Dataset(x_lf, z_lf), config=MultiStartConfig(n_starts=3, rng_seed=dim)
        )
        worst_overall = 0.0
        ok = True
        for i in range(20):
            rng = np.random.default_rng(
                np.random.SeedSequence((71, dim, i)).generate_state(4)
            )
            n_hf = int(rng.integers(8, 14))
            x_hf = rng.uniform(size=(n_hf, dim))
            z_hf = rng.normal(size=n_hf)
            params = HfParams(
                beta_rho=np.array([rng.uniform(0.5, 1.5)]),
                beta_h=np.array([rng.normal()]),
                sigma2_h=rng.uniform(0.2, 1.0),
                theta_h=LengthScales(rng.uniform(0.4, 1.2, dim)),
                eta_h=rng.uniform(0.05, 0.5),
            )
            hf = hf_workspace(Dataset(x_hf, z_hf), lf_model, constant_basis(), constant_basis())
            state = e_step(ar_marginal(hf, params))
            theta = rng.uniform(0.3, 1.2, dim)
            eta = rng.uniform(0.05, 0.6)
            _, grad = q_tilde_and_grad(state, hf, LengthScales(theta), eta)

            def value(th, et):
                return q_tilde_and_grad(state, hf, LengthScales(th), et)[0]

            def perturb(args, j, h):
                th, et = args[0].copy(), args[1]
                if j < dim:
                    th[j] += h
                else:
                    et += h
                return th, et

            inst_ok, worst = _fd_check(value, grad, (theta, eta), perturb, 1e-4)
            worst_overall = max(worst_overall, worst)
            ok = ok and inst_ok
        _announce(
            capsys,
            f"EM-objective gradient vs finite differences (D={dim}, 20 instances)",
            ok, f"worst relative error {worst_overall:.2e} < 1e-4",
        )


def _rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-12)


class TestNestedNoiseFreeEquivalence:
    def test_em_matches_direct_mle(self, capsys):
        pair = design.ANALYTIC_1D
        worst = 0.0
        ok = True
        opt = MultiStartConfig(n_starts=12, max_iterations=500,
                               gradient_tolerance=1e-9, rng_seed=0)
        for i in range(10):
            x_lf = design.scale_to_domain(pair, design.lhs(30, 1, seed=100 + i).points)
            z_lf = design.eval_testfn(pair, "lf", x_lf)
            lf_model = fit_gp(
                Dataset(x_lf, z_lf),
                config=MultiStartConfig(n_starts=5, rng_seed=i),
                fixed_eta=0.0,
            )
            x_hf = x_lf[:15]
            z_hf = design.add_noise(
                design.eval_testfn(pair, "hf", x_hf), 0.05**2, seed=200 + i
            )
            params, _ = em_fit_hf(
                Dataset(x_hf, z_hf),
                lf_model,
                config=MultiStartConfig(n_starts=12, max_iterations=500,
                                        gradient_tolerance=1e-9, rng_seed=300 + i),
                em_config=EmConfig(max_em_iterations=50, loglik_rel_tolerance=1e-12),
            )
            # Direct MLE oracle: a single-fidelity profiled-likelihood fit of
            # z_H on the design [y_L(x), 1] -- valid because the LF posterior
            # is degenerate at nested noise-free points.
            oracle_basis = BasisSpec(
                (
                    lambda v: design.eval_testfn(pair, "lf", v),
                    lambda v: np.ones(v.shape[0]),
                )
            )
            oracle = fit_gp(Dataset(x_hf, z_hf), basis=oracle_basis, config=opt)
            pairs = [
                (params.beta_rho[0], oracle.hyper.beta[0]),
                (params.beta_h[0], oracle.hyper.beta[1]),
                (params.sigma2_h, oracle.hyper.kernel.sigma2),
                (params.theta_h.theta[0], oracle.hyper.kernel.theta.theta[0]),
                (params.eta_h, oracle.hyper.kernel.eta),
            ]
            inst_worst = max(_rel_err(a, b) for a, b in pairs)
            worst = max(worst, inst_worst)
            ok = ok and inst_worst < 1e-3
        _announce(
            capsys,
            "nested noise-free EM equals direct MLE (10 instances)",
            ok, f"worst relative parameter error {worst:.2e} < 1e-3",
        )


class TestLemmas:
    def test_quadratic_expectation_monte_carlo(self, capsys):
        # E[Y'AY] = mu'A mu + tr(A Sigma) for Y ~ (mu, Sigma).
        rng = np.random.default_rng(90210)
        ok = True
        worst_sigmas = 0.0
        n_draws = 1_000_000
        for _ in range(50):
            n = int(rng.integers(2, 7))
            mu = rng.normal(size=n)
            half = rng.normal(size=(n, n)) / np.sqrt(n)
            sigma = half @ half.T + 0.1 * np.eye(n)
            a = rng.normal(size=(n, n))
            chol = np.linalg.cholesky(sigma)
            draws = mu + rng.standard_normal((n_draws, n)) @ chol.T
            quad = np.einsum("ij,jk,ik->i", draws, a, draws)
            exact = float(mu @ a @ mu + np.trace(a @ sigma))
            se = quad.std(ddof=1) / np.sqrt(n_draws)
            z = abs(quad.mean() - exact) / se
            worst_sigmas = max(worst_sigmas, z)
            ok = ok and z <= 3.0
        _announce(capsys, "quadratic-form expectation identity (Monte Carlo, 50 instances)",
                  ok, f"worst deviation {worst_sigmas:.2f} sigma <= 3")

    def test_hadamard_trace_identity(self, capsys):
        # tr(Diag(x)' A Diag(y) B') = x'(A o B)y.
        rng = np.random.default_rng(777)
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(2, 9))
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            a = rng.normal(size=(n, n))
            b = rng.normal(size=(n, n))
            lhs = np.trace(np.diag(x).T @ a @ np.diag(y) @ b.T)
            rhs = float(x @ ((a * b) @ y))
            worst = max(worst, abs(lhs - rhs))
        _announce(capsys, "Hadamard trace identity (exact, 50 instances)",
                  worst < 1e-12, f"worst absolute error {worst:.2e} < 1e-12")


class TestInterpolationProperty:
    def test_noise_free_fits_interpolate(self, capsys):
        worst_mean, worst_var = 0.0, 0.0
        # 1D analytical pair plus 2D smooth instances.
        cases = []
        pair = design.ANALYTIC_1D
        x1 = design.scale_to_domain(pair, design.lhs(20, 1, seed=0).points)
        cases.append((x1, design.eval_testfn(pair, "lf", x1)))
        for seed in (1, 2):
            rng = np.random.default_rng(seed)
            x2 = rng.uniform(size=(15, 2))
            cases.append((x2, np.sin(3 * x2[:, 0]) * np.cos(2 * x2[:, 1])))
        for k, (x, z) in enumerate(cases):
            model = fit_gp(
                Dataset(x, z),
                config=MultiStartConfig(n_starts=5, rng_seed=k),
                fixed_eta=0.0,
            )
            pred = predict_gp(model, x, mode="latent", cov="diagonal")
            worst_mean = max(worst_mean, float(np.max(np.abs(pred.mean - z))))
            worst_var = max(worst_var, float(np.max(pred.variance)))
        ok = worst_mean < 1e-6 and worst_var < 1e-8
        _announce(capsys, "noise-free interpolation property",
                  ok, f"worst mean error {worst_mean:.2e} < 1e-6, "
                      f"worst variance {worst_var:.2e} < 1e-8")


class TestComplexityProperty:
    def test_no_joint_factorization(self, capsys, factorization_sizes):
        pair = design.ANALYTIC_1D
        n_lf, n_hf = 30, 12
        x_lf = design.scale_to_domain(pair, design.lhs(n_lf, 1, seed=3).points)
        z_lf = design.add_noise(design.eval_testfn(pair, "lf", x_lf), 0.05**2, 4)
        x_hf = design.scale_to_domain(pair, design.lhs(n_hf, 1, seed=5).points)
        z_hf = design.add_noise(design.eval_testfn(pair, "hf", x_hf), 0.05**2, 6)
        fit_mf(
            MfData(Dataset(x_lf, z_lf), Dataset(x_hf, z_hf)),
            lf_config=MultiStartConfig(n_starts=4, rng_seed=1),
            hf_config=MultiStartConfig(n_starts=4, rng_seed=2),
        )
        sizes = factorization_sizes
        peak = max(sizes)
        ok = peak == max(n_lf, n_hf) and (n_lf + n_hf) not in sizes
        _announce(capsys, "per-level factorization complexity",
                  ok, f"peak factorized dimension {peak} == max(N_L, N_H) = "
                      f"{max(n_lf, n_hf)}; no {n_lf + n_hf}-dim factorization")
