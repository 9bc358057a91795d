"""Single-fidelity noisy GP regression with a linear-predictor prior mean.

Fitting profiles out the mean coefficients and the kernel variance in closed
form and optimizes (theta, eta) numerically in log-space with multi-start;
the HF level of the co-kriging model shares that profiled step
(`profiled_gls`, `profiled_objective`) and that search (`log_space_search`).
"""

from __future__ import annotations

import functools
import math
import os
from concurrent import futures
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import blas, lapack

from . import kernels, numerics, optimize
from .exceptions import (
    AllStartsFailed,
    DimensionMismatch,
    DomainViolation,
    InvalidConfig,
    RankDeficientBasis,
    SingularNormalEquations,
)
from .kernels import KernelParams, LengthScales
from .numerics import SpdFactorization
from .optimize import (
    BoxBounds, MultiStartConfig, as_points, as_vector, check_finite, check_positive,
)

LATENT = "latent"
NOISY = "noisy"
FULL = "full"
DIAGONAL = "diagonal"

# Below this, the profiled variance is treated as degenerate and the NLL is +inf.
_SIGMA2_FLOOR = 1e-300

# The free search's upper bound on the noise ratio eta, and the largest `fixed_eta`.
ETA_MAX = 1e2

# Query rows per block of a diagonal-covariance prediction, and its unit of work
# on threads (`in_blocks`). A block's cross-correlations (rows x N) stay in cache
# across the steps that read them. A 10^4-point predict_mf call at N_L = 100, BLAS
# on one thread, 2-vCPU VM: serial, 500- and 1,000-row blocks ran within 2 %,
# 2,000 rows 10 % and 5,000 rows 43 % slower; on two threads, 500 rows ran within
# 11 % of 1,000 (either side), and 2,000 rows (5 blocks on 2 threads) 35 to 45 %
# slower.
PREDICT_BLOCK_ROWS = 1000


@dataclass(frozen=True)
class Dataset:
    """Training inputs (N x D) and noisy outputs (N,): non-empty and finite."""

    x: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        x = as_points("training inputs", self.x)
        z = as_vector("training outputs", self.z)
        if x.shape[0] != z.shape[0]:
            raise DimensionMismatch("inputs and outputs have different lengths")
        if x.size == 0:
            raise InvalidConfig(f"training data is empty (inputs of shape {x.shape})")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(z))):
            raise InvalidConfig("training inputs and outputs must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "z", z)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


@dataclass(frozen=True)
class BasisSpec:
    """At least one ordered feature map f_j: (N, D) array -> (N,) vector for the prior mean."""

    functions: tuple[Callable[[np.ndarray], np.ndarray], ...]

    def __post_init__(self):
        if not self.functions:
            raise InvalidConfig("a basis needs at least one function")

    @property
    def p(self) -> int:
        return len(self.functions)

    def design_matrix(self, x: np.ndarray) -> np.ndarray:
        x = as_points("basis inputs", x)
        cols = [as_vector("basis function values", f(x)) for f in self.functions]
        if any(col.size != x.shape[0] for col in cols):
            raise DimensionMismatch(f"each basis function must return {x.shape[0]} values")
        return np.column_stack(cols)


_CONSTANT_BASIS = BasisSpec(functions=(lambda x: np.ones(x.shape[0]),))


def constant_basis() -> BasisSpec:
    """The constant basis; one shared instance, so `basis is constant_basis()` tests for it."""
    return _CONSTANT_BASIS


@dataclass(frozen=True)
class GpHyper:
    beta: np.ndarray
    kernel: KernelParams

    def __post_init__(self):
        beta = as_vector("beta", self.beta)
        check_finite("beta", beta)
        object.__setattr__(self, "beta", beta)


@dataclass(frozen=True)
class PredictiveDistribution:
    """Posterior mean with either a variance diagonal or a full covariance."""

    mean: np.ndarray
    variance: np.ndarray | None = None
    covariance: np.ndarray | None = None

    @property
    def sd(self) -> np.ndarray:
        var = self.variance if self.variance is not None else np.diag(self.covariance)
        return np.sqrt(var)


@dataclass(frozen=True)
class TrainedGp:
    """A GP fixed by its data, basis and hyperparameters; `fit_log` holds the fit's
    negative log-likelihood `nll` when it is known.

    Construction factorizes R~ = R(theta) + eta I, built by a kernel workspace as in
    the fit's objective, so the model factorizes the same matrix the fit scored at
    these hyperparameters, and caches R~^-1 (z - F beta) for prediction.
    """

    data: Dataset
    basis: BasisSpec
    hyper: GpHyper
    fit_log: dict = field(default_factory=dict, compare=False)
    factorization: SpdFactorization = field(init=False, repr=False, compare=False)
    residual_solve: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        k, x = self.hyper.kernel, self.data.x
        if self.hyper.beta.size != self.basis.p:
            raise DimensionMismatch(f"beta must have one entry per basis function ({self.basis.p})")
        fact = numerics.chol_factor(kernels.KernelWorkspace(x).corr(k.theta, k.eta))
        resid = self.data.z - self.basis.design_matrix(x) @ self.hyper.beta
        object.__setattr__(self, "factorization", fact)
        object.__setattr__(self, "residual_solve", numerics.solve_spd(fact, resid))


def default_bounds(data: Dataset, with_eta: bool = True) -> BoxBounds:
    """Box for (theta_1..theta_D[, eta]): length scales span 1e-3..1e3 times each
    input range, eta spans negligible to dominating noise."""
    ranges = np.ptp(data.x, axis=0)
    ranges = np.where(ranges > 0, ranges, 1.0)
    lower, upper = 1e-3 * ranges, 1e3 * ranges
    if with_eta:
        lower, upper = np.append(lower, 1e-8), np.append(upper, ETA_MAX)
    return BoxBounds(lower=lower, upper=upper)


def check_rank(h: np.ndarray, what: str) -> np.ndarray:
    """Raise RankDeficientBasis unless the design matrix h has full column rank."""
    if np.linalg.matrix_rank(h) < h.shape[1]:
        raise RankDeficientBasis(f"{what} design matrix is rank deficient on this data")
    return h


def profiled_gls(
    ws: kernels.KernelWorkspace, z: np.ndarray, h: np.ndarray, theta: LengthScales,
    eta: float, latent: tuple[np.ndarray, np.ndarray] | None = None,
):
    """The profiled generalized-least-squares step of both levels at fixed (theta, eta).

    Builds R~ = R(theta) + eta I from the fit's workspace, factorizes it by
    `numerics.chol_factor` (R~ is exactly symmetric, and finite because `Dataset`,
    `LengthScales` and the search box are), inverts it, solves
    (H^T R~^-1 H + T) beta = H^T R~^-1 z by LAPACK dgesv and, with r = z - H beta,
    returns beta, sigma2 = (r^T R~^-1 r + beta^T T beta) / n, R~, the factor, R~^-1
    and R~^-1 r. R~ differs from R only on the diagonal, which the length-scale
    gradient never reads: the workspace's squared differences are exactly 0 there.

    T = 0 for a single-fidelity fit, which takes R~^-1 H and R~^-1 r from the
    factor by `numerics.solve_spd` (Rasmussen & Williams 2006, Alg. 2.1): at the
    R~ of a noise-free fit (cond(R~) about 3e9), products with the explicit inverse
    would leave about 1e-6 of rounding noise in the value and the gradient, enough
    to keep L-BFGS-B searching, and solves about 5e-8. Its R~^-1, the upper triangle
    `numerics.inv_spd` returns, serves only the gradient's trace terms. The HF M-step
    passes `latent = (G, Sigma_{Y|Z})`: its scaling rho = G beta_rho multiplies uncertain
    latent LF values, so T's leading block is G^T (R~^-1 o Sigma) G (Le Gratiet &
    Garnier 2014). Its Hadamard product and matrix products need the full R~^-1,
    mirrored from the triangle exactly once, and use np.dot: the BLAS calls of `@`
    without its per-call overhead at these sizes.
    """
    n = len(z)
    r_tilde = ws.corr(theta, eta)
    fact = numerics.chol_factor(r_tilde)
    rt_inv = numerics.inv_spd(fact)
    if latent is None:
        ri_h = numerics.solve_spd(fact, h)
    else:
        # Exact and exactly symmetric: each off-diagonal entry is added to a zero.
        full = rt_inv + rt_inv.T
        full.ravel(order="K")[:: n + 1] = rt_inv.diagonal()  # a view: full is contiguous
        rt_inv = full
        ri_h = np.dot(rt_inv, h)
    normal = np.dot(h.T, ri_h)
    if latent is not None:
        g, sigma = latent
        q = g.shape[1]
        t_block = np.dot(g.T, np.dot(rt_inv * sigma, g))
        normal[:q, :q] += t_block
    beta, info = lapack.dgesv(normal, np.dot(ri_h.T, z))[2:]
    if info > 0:
        raise SingularNormalEquations("normal equations of the GLS step are singular")
    resid = z - np.dot(h, beta)
    ri_resid = numerics.solve_spd(fact, resid) if latent is None else np.dot(rt_inv, resid)
    sigma2 = float(np.dot(resid, ri_resid))
    if latent is not None:
        sigma2 += float(np.dot(np.dot(beta[:q], t_block), beta[:q]))
    return beta, max(sigma2 / n, 0.0), r_tilde, fact, rt_inv, ri_resid


def profiled_objective(
    ws: kernels.KernelWorkspace, z: np.ndarray, h: np.ndarray, theta: LengthScales,
    eta: float, latent: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[float, np.ndarray]:
    """Negative profiled log-likelihood of the `profiled_gls` step and its raw-space
    gradient in (theta, eta), whose derivative along any perturbation dR~ of R~ is
    tr(A dR~) / 2 with A = R~^-1 - kappa kappa^T - W / sigma2 and
    kappa = R~^-1 r / sqrt(sigma2) (Rasmussen & Williams 2006, sec. 5.4.1); dR~/deta = I.

    With `latent` it is the negated EM objective of the HF M-step, and
    W = R~^-1 (rho rho^T o Sigma) R~^-1 carries its Hadamard term; without it W = 0,
    and A is the rank-1 update (BLAS dsyr) of the upper triangle of R~^-1 by the
    solved kappa, so the explicit inverse enters only A's trace terms. A is built
    in the buffer of R~^-1, which is not read afterwards. The length-scale gradient
    contracts A with the partials of R (`kernels.corr_matrix_grad`), passed R~ in
    place of R: the diagonal, where they differ, is multiplied by squared differences
    that are exactly 0. So the contraction of the upper triangle of the symmetric A
    is half that of A, and the eta component is A's trace either way.
    A degenerate profiled variance yields (+inf, zeros) so the optimizer retreats.
    """
    beta, sigma2, r_tilde, fact, rt_inv, ri_resid = profiled_gls(ws, z, h, theta, eta, latent)
    if sigma2 < _SIGMA2_FLOOR:
        return np.inf, np.zeros(theta.ndim + 1)
    grad = np.empty(theta.ndim + 1)
    if latent is None:
        a = blas.dsyr(-1.0 / sigma2, ri_resid, a=rt_inv, overwrite_a=1)
        # The triangle's contraction is half of A's, so the gradient's 1/2 cancels.
        # a.T, the triangle transposed, is C-ordered like R~: a contiguous product.
        grad[:-1] = kernels.corr_matrix_grad(ws, theta, r_tilde, a.T)
    else:
        g, sigma = latent
        # W / sigma2 = B Sigma B^T with B = R~^-1 diag(rho) / sqrt(sigma2).
        b = rt_inv * (np.dot(g, beta[: g.shape[1]]) / math.sqrt(sigma2))
        w = np.dot(np.dot(b, sigma), b.T)
        a = rt_inv
        # In place: a.T is the F-ordered view of the symmetric a.
        blas.dger(-1.0 / sigma2, ri_resid, ri_resid, a=a.T, overwrite_a=1)
        a -= w
        grad[:-1] = 0.5 * kernels.corr_matrix_grad(ws, theta, r_tilde, a)
    grad[-1] = 0.5 * a.trace()
    n = len(z)
    value = 0.5 * n * math.log(sigma2) + 0.5 * numerics.logdet_spd(fact)
    return value + 0.5 * n * (1.0 + math.log(2.0 * math.pi)), grad


def profiled_nll_and_grad(
    ws: kernels.KernelWorkspace, z: np.ndarray, f: np.ndarray, theta: LengthScales,
    eta: float,
) -> tuple[float, np.ndarray]:
    """Negative profiled log-likelihood of a single-fidelity GP with design matrix f,
    in (theta, eta), and its raw-space gradient."""
    return profiled_objective(ws, z, f, theta, eta)


def log_space_search(
    evaluate: Callable[[LengthScales, float], tuple[float, np.ndarray]],
    bounds: BoxBounds,
    config: MultiStartConfig,
    extra_starts: Sequence[np.ndarray] = (),
    n_random: int | None = None,
    fixed_eta: float | None = None,
) -> tuple[LengthScales, float, float, list[optimize.StartResult]]:
    """Multi-start minimization of evaluate(theta, eta) -> (value, gradient) over a
    positive box of omega = (theta, eta), or theta alone with `fixed_eta`, searched
    in psi = log(omega) by one callback that also applies the chain rule.

    The raw extra starts come first, then `n_random` random starts
    (config.n_starts by default; 0 for none), uniform in psi, i.e. log-uniform
    over the box, drawn from config.rng_seed. Every start runs
    `optimize.minimize_box` with one memo for the whole search, so a point one
    start evaluated does not reach `evaluate` again, and with the end points of
    the starts before it, so a start stops, merged into the first of them, once an
    iterate comes within `optimize.MERGE_RADIUS` of one in psi (max norm). The
    lowest value wins, ties going to the lowest start index. Returns the best
    theta and eta, the value there and the start log, in which a start that
    failed (non-finite at its start point) and the start each merged start joined
    are marked; raises AllStartsFailed if every start failed.
    """
    log_bounds = BoxBounds(np.log(bounds.lower), np.log(bounds.upper))
    d = bounds.ndim if fixed_eta is not None else bounds.ndim - 1

    def hyper(omega: np.ndarray) -> tuple[LengthScales, float]:
        return LengthScales(omega[:d]), float(omega[d]) if fixed_eta is None else fixed_eta

    def in_log_space(psi: np.ndarray) -> tuple[float, np.ndarray]:
        omega = np.exp(psi)
        value, grad = evaluate(*hyper(omega))
        return value, grad[: omega.size] * omega

    n_random = config.n_starts if n_random is None else n_random
    rng = np.random.default_rng(config.rng_seed)
    starts = [np.log(s) for s in extra_starts]
    starts.extend(rng.uniform(log_bounds.lower, log_bounds.upper, size=(n_random, log_bounds.ndim)))

    seen: dict[bytes, tuple[float, np.ndarray]] = {}
    log: list[optimize.StartResult] = []
    for start in starts:
        ends = [None if entry.failed else entry.x for entry in log]
        log.append(optimize.StartResult(start, *optimize.minimize_box(
            in_log_space, log_bounds, start, config, seen, ends)))
    best = min(log, key=lambda entry: entry.value)  # the first of equal values
    if best.failed:
        raise AllStartsFailed("the objective is not finite at any start point")
    return (*hyper(np.exp(best.x)), best.value, log)


def fit_gp(
    data: Dataset,
    basis: BasisSpec = constant_basis(),
    config: MultiStartConfig = MultiStartConfig(),
    fixed_eta: float | None = None,
) -> TrainedGp:
    """Fit (theta, eta) by multi-start minimization of the profiled NLL.

    `fixed_eta` pins the noise ratio (e.g. 0 for noise-free interpolation) and
    restricts the search to theta; it must be a number from 0 to the free search's
    upper bound ETA_MAX (InvalidConfig otherwise, before any evaluation).
    """
    if fixed_eta is not None:
        check_positive("fixed_eta", fixed_eta, zero_ok=True)
        if fixed_eta > ETA_MAX:
            raise InvalidConfig(f"fixed_eta must be at most {ETA_MAX:g}, got {fixed_eta!r}")
    if data.n < basis.p + 1:
        raise InvalidConfig(f"need at least {basis.p + 1} training points, got {data.n}")
    f = check_rank(basis.design_matrix(data.x), "basis")
    ws = kernels.KernelWorkspace(data.x)
    theta, eta, best_val, _ = log_space_search(
        functools.partial(profiled_nll_and_grad, ws, data.z, f),
        default_bounds(data, with_eta=fixed_eta is None),
        config,
        fixed_eta=fixed_eta,
    )
    beta, sigma2 = profiled_gls(ws, data.z, f, theta, eta)[:2]
    hyper = GpHyper(beta, KernelParams(theta=theta, sigma2=sigma2, eta=eta))
    return TrainedGp(data, basis, hyper, fit_log={"nll": best_val})


def query_points(x_star: np.ndarray, d: int) -> np.ndarray:
    """Prediction inputs as a finite (n, d) array."""
    x_star = as_points("prediction inputs", x_star, d)
    if not np.all(np.isfinite(x_star)):
        raise DomainViolation("prediction inputs must be finite")
    return x_star


def check_predict_options(mode: str, cov: str) -> None:
    """Raise InvalidConfig unless mode is latent or noisy and cov is diagonal or full."""
    if mode not in (LATENT, NOISY):
        raise InvalidConfig(f"mode must be {LATENT!r} or {NOISY!r}, got {mode!r}")
    if cov not in (DIAGONAL, FULL):
        raise InvalidConfig(f"cov must be {DIAGONAL!r} or {FULL!r}, got {cov!r}")


def predictive(mean: np.ndarray, spread: np.ndarray, noise: float) -> PredictiveDistribution:
    """Posterior from variances or a full covariance: symmetrized, clipped at 0, plus noise."""
    if spread.ndim == 2:
        c = 0.5 * (spread + spread.T)
        np.fill_diagonal(c, np.clip(np.diag(c), 0.0, None) + noise)
        return PredictiveDistribution(mean=mean, covariance=c)
    return PredictiveDistribution(mean=mean, variance=np.clip(spread, 0.0, None) + noise)


def kriging(
    model: TrainedGp, x_star: np.ndarray, cov: str, noise: float
) -> tuple[PredictiveDistribution, np.ndarray]:
    """Kriging posterior at checked points x_star, through `predictive` with `noise`, and
    r = R(x_star, X): the mean F beta + r R~^-1 (z - F beta) by the cached solve, and the
    latent covariance by `posterior_cross_cov` (full) or sigma2 (1 - |U^-T r^T|^2), r
    whitened by the cached inverse factor (`numerics.whiten`) (diagonal)."""
    r = kernels.corr_matrix(x_star, model.data.x, model.hyper.kernel.theta)
    mean = model.basis.design_matrix(x_star) @ model.hyper.beta + r @ model.residual_solve
    if cov == FULL:
        spread = posterior_cross_cov(model, x_star)
    else:
        u = numerics.whiten(model.factorization, r.T)
        spread = model.hyper.kernel.sigma2 * (1.0 - np.einsum("ij,ij->j", u, u))
    return predictive(mean, spread, noise), r


def worker_count() -> int:
    """How many cores one mfkrig process may use: MFKRIG_THREADS if set (an integer
    >= 1), else the core count. A campaign splits it among its worker processes
    (`bench.run_benchmark`), and a prediction runs its row blocks on up to that
    many threads (`in_blocks`)."""
    env = os.environ.get("MFKRIG_THREADS")
    if env:
        try:
            workers = int(env)
        except ValueError:
            workers = 0  # refused below
        if workers < 1:
            raise InvalidConfig(f"MFKRIG_THREADS must be an integer >= 1, got {env!r}")
        return workers
    return os.cpu_count() or 1


def in_blocks(
    predict_block: Callable[[np.ndarray], PredictiveDistribution], x_star: np.ndarray, cov: str
) -> PredictiveDistribution:
    """predict_block over row blocks of PREDICT_BLOCK_ROWS query points, concatenated
    in block order.

    Rows of a diagonal prediction are independent, so blocking changes no formula.
    The blocks run on t = min(blocks, worker_count()) threads: the calling thread
    takes blocks 0, t, 2t, ... and each of t - 1 helper threads, started and joined
    within this call, the next residue class. A block's result does not depend on
    the thread that computes it, so every output bit is the serial one for any t.
    An error raised in a block, on any thread, reaches the caller. A full
    covariance couples every pair of points, so it and a batch of at most one
    block run as a single call.
    """
    n = x_star.shape[0]
    if cov == FULL or n <= PREDICT_BLOCK_ROWS:
        return predict_block(x_star)
    starts = range(0, n, PREDICT_BLOCK_ROWS)
    t = min(len(starts), worker_count())

    def residue_class(k: int) -> list[PredictiveDistribution]:
        return [predict_block(x_star[i : i + PREDICT_BLOCK_ROWS]) for i in starts[k::t]]

    # A pool starts its threads on submit, so with t = 1 no thread starts.
    with futures.ThreadPoolExecutor(max_workers=max(t - 1, 1)) as pool:
        helpers = [pool.submit(residue_class, k) for k in range(1, t)]
        classes = [residue_class(0)] + [helper.result() for helper in helpers]
    parts = [classes[b % t][b // t] for b in range(len(starts))]
    return PredictiveDistribution(
        mean=np.concatenate([p.mean for p in parts]),
        variance=np.concatenate([p.variance for p in parts]),
    )


def predict_gp(
    model: TrainedGp,
    x_star: np.ndarray,
    mode: str = LATENT,
    cov: str = DIAGONAL,
) -> PredictiveDistribution:
    """Kriging posterior at new points: latent or noisy, diagonal or full."""
    check_predict_options(mode, cov)
    x_star = query_points(x_star, model.data.d)
    noise = model.hyper.kernel.noise_variance if mode == NOISY else 0.0
    return in_blocks(lambda x: kriging(model, x, cov, noise)[0], x_star, cov)


def posterior_cross_cov(model: TrainedGp, x_star: np.ndarray) -> np.ndarray:
    """Latent posterior covariance sigma2 (R(x*, x*) - r R~^-1 r^T) among the points
    x_star, r = R(x*, X), by one solve (Rasmussen & Williams 2006, Alg. 2.1), accurate
    where a whitened product U^T U is not: the covariance of a full-covariance
    `kriging` step. `mfgp.predict_mf` builds its LF cross covariance with X_H from the
    model's cached LF solve, and the E-step and a full HF covariance solve with the
    AR factor."""
    k, x = model.hyper.kernel, model.data.x
    r = kernels.corr_matrix(x_star, x, k.theta)
    solve = numerics.solve_spd(model.factorization, r.T)
    return k.sigma2 * (kernels.corr_matrix(x_star, x_star, k.theta) - r @ solve)
