"""Recursive AR(1) bi-fidelity co-kriging for noisy, non-nested designs.

The low-fidelity level is a fitted single-fidelity GP. The high-fidelity level
links to the LF posterior through a linear scaling plus an independent
discrepancy GP; its parameters are selected by an EM algorithm whose M-step has
closed-form updates for the linear coefficients and the discrepancy variance,
leaving only (theta_H, eta_H) for numerical search.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import kernels, numerics
from .exceptions import (
    DimensionMismatch,
    InvalidConfig,
    NonMonotoneEM,
)
from .gp import (
    _SIGMA2_FLOOR,
    DIAGONAL,
    FULL,
    LATENT,
    NOISY,
    BasisSpec,
    Dataset,
    MultiStartConfig,
    PredictiveDistribution,
    TrainedGp,
    check_predict_options,
    check_rank,
    constant_basis,
    default_bounds,
    fit_gp,
    in_blocks,
    kriging_step,
    latent_spread,
    log_space_search,
    predict_gp,
    predictive,
    profiled_gls,
    profiled_objective,
    query_points,
)
from .kernels import LengthScales
from .optimize import as_vector, check_count, check_finite, check_positive

LF = "lf"
HF = "hf"

# Random starts of each escape-check M-step of EM: the step that follows a warm
# (current-point-only) step gaining less than the tolerance. Iteration 0 uses the
# caller's n_starts.
INNER_N_STARTS = 5


@dataclass(frozen=True)
class MfData:
    """Low- and high-fidelity training sets over a shared input space.

    The HF inputs are not required to be a subset of the LF inputs.
    """

    lf: Dataset
    hf: Dataset

    def __post_init__(self):
        if self.lf.d != self.hf.d:
            raise DimensionMismatch("LF and HF inputs have different dimensions")


@dataclass(frozen=True)
class HfParams:
    """High-fidelity parameters: scaling coefficients, discrepancy mean
    coefficients, discrepancy variance, length scales, noise ratio."""

    beta_rho: np.ndarray
    beta_h: np.ndarray
    sigma2_h: float
    theta_h: LengthScales
    eta_h: float

    def __post_init__(self):
        for name in ("beta_rho", "beta_h"):
            beta = as_vector(name, getattr(self, name))
            check_finite(name, beta)
            object.__setattr__(self, name, beta)
        check_positive("sigma2_h", self.sigma2_h)
        check_positive("eta_h", self.eta_h, zero_ok=True)

    @property
    def noise_variance(self) -> float:
        return self.eta_h * self.sigma2_h


@dataclass(frozen=True)
class EStepState:
    """Conditional moments of the latent LF values at the HF inputs, and the
    M-step design matrix H = [G o mu_{Y|Z}, F]."""

    mu_y_given_z: np.ndarray
    sigma_y_given_z: np.ndarray
    h_matrix: np.ndarray


@dataclass(frozen=True)
class HfWorkspace:
    """What no HF parameter changes, built once per fit: the HF data, the kernel
    workspace at the HF inputs X_H, the scaling and discrepancy design matrices
    G and F, and the LF posterior mean and covariance at X_H."""

    data: Dataset
    ws: kernels.KernelWorkspace
    g_matrix: np.ndarray
    f_matrix: np.ndarray
    lf_mean: np.ndarray
    lf_cov: np.ndarray


@dataclass(frozen=True)
class ArMarginal:
    """The AR(1) marginal of the HF observations at given parameters: the HF
    workspace it was built on, the scaling rho, the residual
    z_H - rho o m_L - F beta_H, the factor of the AR covariance and its solve."""

    hf: HfWorkspace
    rho: np.ndarray
    residual: np.ndarray
    factorization: numerics.SpdFactorization
    residual_solve: np.ndarray


@dataclass(frozen=True)
class EmConfig:
    max_em_iterations: int = 100
    loglik_rel_tolerance: float = 1e-8

    def __post_init__(self):
        check_count("max_em_iterations", self.max_em_iterations)
        check_positive("loglik_rel_tolerance", self.loglik_rel_tolerance, zero_ok=True)


@dataclass(frozen=True)
class MfModel:
    """The fitted co-kriging model: the LF GP, which holds the LF training set, the
    HF parameters and bases, and the HF training set (DimensionMismatch if its inputs
    are not the LF GP's width). Construction builds what every HF prediction reads:
    the AR(1) marginal of the HF observations at `hf_params` (`ar_marginal`, with its
    factor and solve) and the LF solve R~_L^-1 R_L(X_L, X_H)."""

    lf_model: TrainedGp
    hf_params: HfParams
    hf_basis: BasisSpec
    rho_basis: BasisSpec
    hf_data: Dataset
    em_log: list[float] = field(default_factory=list, compare=False)
    ar: ArMarginal = field(init=False, repr=False, compare=False)
    lf_cross_solve: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lf, params = self.lf_model, self.hf_params
        if params.beta_rho.size != self.rho_basis.p or params.beta_h.size != self.hf_basis.p:
            raise DimensionMismatch("beta_rho and beta_h must have one entry per basis function")
        hf = hf_workspace(self.hf_data, lf, self.hf_basis, self.rho_basis)
        object.__setattr__(self, "ar", ar_marginal(hf, self.hf_params))
        r_lh = kernels.corr_matrix(lf.data.x, self.hf_data.x, lf.hyper.kernel.theta)
        object.__setattr__(self, "lf_cross_solve", numerics.solve_spd(lf.factorization, r_lh))


def hf_workspace(
    hf_data: Dataset, lf_model: TrainedGp, hf_basis: BasisSpec, rho_basis: BasisSpec
) -> HfWorkspace:
    """Build the HF workspace. Its LF posterior moments at X_H, from one full-covariance
    LF prediction (the covariance by `gp.posterior_cross_cov`), are the only path by
    which the HF stage sees LF information."""
    x_h = hf_data.x
    lf_post = predict_gp(lf_model, x_h, mode=LATENT, cov=FULL)
    return HfWorkspace(
        data=hf_data,
        ws=kernels.KernelWorkspace(x_h),
        g_matrix=rho_basis.design_matrix(x_h),
        f_matrix=hf_basis.design_matrix(x_h),
        lf_mean=lf_post.mean,
        lf_cov=lf_post.covariance,
    )


def ar_marginal(hf: HfWorkspace, params: HfParams) -> ArMarginal:
    """Assemble the AR(1) marginal of the HF observations, the one path by which
    the E-step, the observed log-likelihood and the prediction caches see it.

    Its covariance is rho rho^T o V_L + sigma2_H (R_H + eta_H I), with the LF
    posterior covariance V_L at X_H and R_H from the workspace at the HF inputs.
    """
    rho = hf.g_matrix @ params.beta_rho
    cov = np.outer(rho, rho) * hf.lf_cov + params.sigma2_h * hf.ws.corr(
        params.theta_h, params.eta_h
    )
    fact = numerics.chol_factor(cov)
    resid = hf.data.z - rho * hf.lf_mean - hf.f_matrix @ params.beta_h
    return ArMarginal(hf, rho, resid, fact, numerics.solve_spd(fact, resid))


def e_step(ar: ArMarginal) -> EStepState:
    """Condition the latent LF values at the HF inputs on the HF observations."""
    hf = ar.hf
    sigma_yz = hf.lf_cov * ar.rho[None, :]
    mu = hf.lf_mean + sigma_yz @ ar.residual_solve
    sigma_cond = hf.lf_cov - sigma_yz @ numerics.solve_spd(ar.factorization, sigma_yz.T)
    sigma_cond = 0.5 * (sigma_cond + sigma_cond.T)
    h_mat = np.hstack([hf.g_matrix * mu[:, None], hf.f_matrix])
    return EStepState(mu_y_given_z=mu, sigma_y_given_z=sigma_cond, h_matrix=h_mat)


def m_step_closed_forms(
    state: EStepState, hf: HfWorkspace, theta_h: LengthScales, eta_h: float
) -> tuple[np.ndarray, float]:
    """Closed-form (beta_rho_h, sigma2_h) at fixed (theta_h, eta_h)."""
    latent = (hf.g_matrix, state.sigma_y_given_z)
    return profiled_gls(hf.ws, hf.data.z, state.h_matrix, theta_h, eta_h, latent)[:2]


def q_tilde_and_grad(
    state: EStepState, hf: HfWorkspace, theta_h: LengthScales, eta_h: float
) -> tuple[float, np.ndarray]:
    """Negated profiled EM objective over (theta_H, eta_H) and its gradient: the
    shared profiled likelihood with the latent-value term of Sigma_{Y|Z}."""
    latent = (hf.g_matrix, state.sigma_y_given_z)
    return profiled_objective(hf.ws, hf.data.z, state.h_matrix, theta_h, eta_h, latent)


def hf_observed_loglik(ar: ArMarginal) -> float:
    """Exact marginal Gaussian log-density of the HF observations.

    This is the quantity whose monotone increase certifies each EM iteration.
    """
    quad = float(ar.residual @ ar.residual_solve)
    logdet = numerics.logdet_spd(ar.factorization)
    return -0.5 * (quad + logdet + len(ar.residual) * math.log(2.0 * math.pi))


def _initial_params(hf: HfWorkspace) -> HfParams:
    """Scale-aware neutral starting point: identity scaling, residual mean and
    variance, per-dimension input ranges, moderate noise ratio."""
    x_h, z_h = hf.data.x, hf.data.z
    g_mat, f_mat = hf.g_matrix, hf.f_matrix
    beta_rho, *_ = np.linalg.lstsq(g_mat, np.ones(hf.data.n), rcond=None)
    rho = g_mat @ beta_rho
    resid = z_h - rho * hf.lf_mean
    beta_h, *_ = np.linalg.lstsq(f_mat, resid, rcond=None)
    resid2 = resid - f_mat @ beta_h
    sigma2 = max(float(np.var(resid2)), 1e-8 * max(float(np.var(z_h)), 1.0))
    ranges = np.ptp(x_h, axis=0)
    ranges = np.where(ranges > 0, ranges, 1.0)
    return HfParams(
        beta_rho=beta_rho,
        beta_h=beta_h,
        sigma2_h=sigma2,
        theta_h=LengthScales(ranges),
        eta_h=0.1,
    )


def em_fit_hf(
    hf_data: Dataset,
    lf_model: TrainedGp,
    hf_basis: BasisSpec = constant_basis(),
    rho_basis: BasisSpec = constant_basis(),
    *,
    config: MultiStartConfig = MultiStartConfig(),
    em_config: EmConfig = EmConfig(),
) -> tuple[HfParams, list[float]]:
    """Generalized-EM estimation of the HF parameters.

    Each iteration conditions the latent LF values on the HF data, then raises
    the resulting objective: closed forms for the linear coefficients and
    variance, quasi-Newton for (theta_H, eta_H) in the same log-space search as
    the LF fit. Iteration 0 searches from config.n_starts random starts plus the
    initial point. Every later M-step starts from the current point alone (a
    warm step), except the escape check after a warm step that gains less than
    the tolerance: that step adds INNER_N_STARTS random starts, and EM stops
    when it gains less than the tolerance too. So a fit that stops on tolerance
    ends on a multi-start M-step. The current point is the first start, and the
    search's distance filter stops each later start once an iterate comes within
    `optimize.MERGE_RADIUS` (in log space) of an earlier start's end, so a random
    start of the escape check that falls back into the current point's basin
    stops there; a warm step has one start, which the filter never stops. The
    current point is always a start, which
    guarantees a non-decreasing observed-data log-likelihood (Dempster, Laird &
    Rubin 1977). One HF workspace serves the whole fit, and one AR(1) marginal
    per iterate serves its log-likelihood and the next E-step. The scaling and
    discrepancy design matrices G and F, G o m_L with the LF posterior mean m_L
    at X_H, and each E-step's H = [G o mu_{Y|Z}, F] must have full column rank
    (RankDeficientBasis otherwise). `config` and `em_config` are keyword-only.
    """
    q, p_h = rho_basis.p, hf_basis.p
    if hf_data.n < q + p_h + 1:
        raise InvalidConfig(
            f"need at least {q + p_h + 1} high-fidelity points, got {hf_data.n}"
        )
    bounds = default_bounds(hf_data)
    hf = hf_workspace(hf_data, lf_model, hf_basis, rho_basis)
    check_rank(hf.g_matrix, "HF scaling (rho) basis")
    check_rank(hf.f_matrix, "HF basis")
    check_rank(hf.g_matrix * hf.lf_mean[:, None], "LF-mean-scaled HF scaling (rho)")

    params = _initial_params(hf)
    ar = ar_marginal(hf, params)
    loglik = hf_observed_loglik(ar)
    em_log = [loglik]
    multi_start = True

    for t in range(em_config.max_em_iterations):
        state = e_step(ar)
        check_rank(state.h_matrix, "E-step HF scaling (rho) and HF basis")

        n_random = (config.n_starts if t == 0 else INNER_N_STARTS) if multi_start else 0
        seed = np.random.SeedSequence((config.rng_seed, t)).generate_state(1)[0]
        current = np.append(params.theta_h.theta, params.eta_h)
        theta_new, eta_new, _, _ = log_space_search(
            functools.partial(q_tilde_and_grad, state, hf), bounds,
            replace(config, rng_seed=int(seed)), extra_starts=[current], n_random=n_random,
        )
        beta, sigma2 = m_step_closed_forms(state, hf, theta_new, eta_new)
        params = HfParams(
            beta_rho=beta[:q],
            beta_h=beta[q:],
            sigma2_h=max(sigma2, _SIGMA2_FLOOR * 1e50),
            theta_h=theta_new,
            eta_h=eta_new,
        )
        ar = ar_marginal(hf, params)
        new_loglik = hf_observed_loglik(ar)
        em_log.append(new_loglik)
        if new_loglik < loglik - 1e-6:
            raise NonMonotoneEM(
                f"observed-data log-likelihood decreased at EM iteration {t}: "
                f"{loglik} -> {new_loglik}"
            )
        stalled = new_loglik - loglik <= em_config.loglik_rel_tolerance * max(1.0, abs(loglik))
        loglik = new_loglik
        if stalled and multi_start:
            break
        multi_start = stalled
    return params, em_log


def fit_mf(
    data: MfData,
    hf_basis: BasisSpec = constant_basis(),
    rho_basis: BasisSpec = constant_basis(),
    lf_config: MultiStartConfig = MultiStartConfig(),
    hf_config: MultiStartConfig = MultiStartConfig(),
    em_config: EmConfig = EmConfig(),
) -> MfModel:
    """Fit the full model: LF by profiled MLE on LF data alone, then HF by EM."""
    lf_model = fit_gp(data.lf, config=lf_config)
    params, em_log = em_fit_hf(
        data.hf, lf_model, hf_basis, rho_basis, config=hf_config, em_config=em_config
    )
    return MfModel(lf_model, params, hf_basis, rho_basis, data.hf, em_log)


def predict_mf(
    model: MfModel,
    x_star: np.ndarray,
    level: str = HF,
    mode: str = LATENT,
    cov: str = DIAGONAL,
) -> PredictiveDistribution:
    """Co-kriging posterior at new points for either fidelity level.

    Each block of x_star takes its LF mean and covariance with the HF inputs from
    one LF kriging step and the model's cached solve R~_L^-1 R_L(X_L, X_H), and its
    HF variances from one whitening of k_cross with the AR factor (one NumPy product
    with its cached inverse factor, as for the LF variances). A full covariance is
    prior - k_cross C^-1 k_cross^T by one solve with the factor of the AR
    covariance C, its LF block from `gp.posterior_cross_cov`.
    """
    if level == LF:
        return predict_gp(model.lf_model, x_star, mode=mode, cov=cov)
    if level != HF:
        raise InvalidConfig(f"level must be {LF!r} or {HF!r}, got {level!r}")
    check_predict_options(mode, cov)
    x_star = query_points(x_star, model.hf_data.d)
    lf, params, x_h = model.lf_model, model.hf_params, model.hf_data.x
    kl = lf.hyper.kernel
    noise = params.noise_variance if mode == NOISY else 0.0

    def predict_block(x: np.ndarray) -> PredictiveDistribution:
        m_yl, r = kriging_step(lf, x)
        lf_post = predictive(m_yl, latent_spread(lf, x, r, cov), 0.0)
        rho_star = model.rho_basis.design_matrix(x) @ params.beta_rho
        # k_cross = rho* rho_H^T o V_cross + sigma2_H R_H(x, X_H), with the LF cross
        # covariance V_cross = sigma2_L (R_L(x, X_H) - r R~_L^-1 R_L(X_L, X_H)), built
        # in one buffer by the same operations in the same order.
        k_cross = kernels.corr_matrix(x, x_h, kl.theta)
        k_cross -= r @ model.lf_cross_solve
        k_cross *= kl.sigma2
        k_cross *= rho_star[:, None] * model.ar.rho
        r_h = kernels.corr_matrix(x, x_h, params.theta_h)
        r_h *= params.sigma2_h
        k_cross += r_h
        m_ar = rho_star * m_yl + model.hf_basis.design_matrix(x) @ params.beta_h
        mean = m_ar + k_cross @ model.ar.residual_solve
        if cov == FULL:
            prior = np.outer(rho_star, rho_star) * lf_post.covariance + params.sigma2_h * (
                kernels.corr_matrix(x, x, params.theta_h)
            )
            spread = prior - k_cross @ numerics.solve_spd(model.ar.factorization, k_cross.T)
        else:
            w = numerics.whiten(model.ar.factorization, k_cross.T)
            spread = rho_star**2 * lf_post.variance + params.sigma2_h - np.einsum("ij,ij->j", w, w)
        return predictive(mean, spread, noise)

    return in_blocks(predict_block, x_star, cov)
