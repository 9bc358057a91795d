import numpy as np
import pytest
from hypothesis import settings

from mfkrig import design, gp, mfgp, numerics, optimize
from mfkrig.exceptions import DimensionMismatch
from mfkrig.gp import BasisSpec, Dataset, MultiStartConfig
from mfkrig.kernels import LengthScales
from mfkrig.mfgp import MfData, fit_mf


def random_spd(rng: np.random.Generator, n: int, cond: float = 100.0) -> np.ndarray:
    """SPD matrix with a controlled spectrum."""
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    lam = np.geomspace(1.0, cond, n)
    return q @ np.diag(lam) @ q.T


def det_cofactor(m: np.ndarray) -> float:
    """Brute-force determinant by cofactor expansion (independent oracle)."""
    n = m.shape[0]
    if n == 1:
        return float(m[0, 0])
    total = 0.0
    for j in range(n):
        minor = np.delete(np.delete(m, 0, axis=0), j, axis=1)
        total += (-1.0) ** j * m[0, j] * det_cofactor(minor)
    return total


def gauss_corr(x, x2, theta: LengthScales) -> float:
    """Pointwise oracle of the correlation: exp(-0.5 * sum_d ((x_d - x2_d)/theta_d)^2)."""
    x = np.asarray(x, dtype=float).ravel()
    x2 = np.asarray(x2, dtype=float).ravel()
    if x.shape != x2.shape or x.size != theta.ndim:
        raise DimensionMismatch("point dimensions do not match the length scales")
    h = (x - x2) / theta.theta
    return float(np.exp(-0.5 * np.dot(h, h)))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def factorization_sizes(monkeypatch):
    """The dimension of every matrix factorized during the test, in call order.

    Every factorization runs `numerics.chol_core`: the fit's evaluations call it
    through the module attribute, and the validating `chol_factor` through its
    module global, so wrapping it there sees every factorization of a fit.
    """
    sizes: list[int] = []
    chol_core = numerics.chol_core

    def recording_chol_core(m):
        sizes.append(np.shape(m)[0])
        return chol_core(m)

    monkeypatch.setattr(numerics, "chol_core", recording_chol_core)
    return sizes


def count_calls(monkeypatch, module, name: str) -> list:
    """Wrap `module.name` so every call through the module attribute appends its
    arguments to the returned list."""
    calls: list = []
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


class _SearchStarted(Exception):
    pass


def first_search_callback(monkeypatch, run):
    """The search callback psi -> (value, gradient in psi) of the first
    `log_space_search` that `run()` starts, and the evaluate(theta, eta) it wraps
    when `run` calls the search through the gp or mfgp module (else None).

    `run` is stopped where that search would start its first minimization.
    """
    found = {}
    search = gp.log_space_search

    def spy(evaluate, *args, **kwargs):
        found["evaluate"] = evaluate
        return search(evaluate, *args, **kwargs)

    def stop(objective, *args, **kwargs):
        found["callback"] = objective
        raise _SearchStarted

    with monkeypatch.context() as patch, pytest.raises(_SearchStarted):
        patch.setattr(gp, "log_space_search", spy)
        patch.setattr(mfgp, "log_space_search", spy)
        patch.setattr(optimize, "minimize_box", stop)
        run()
    return found["callback"], found.get("evaluate")


def central_differences(callback, psi: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of callback's value in psi."""
    grad = np.empty(psi.size)
    for i in range(psi.size):
        e = np.zeros(psi.size)
        e[i] = step
        grad[i] = (callback(psi + e)[0] - callback(psi - e)[0]) / (2.0 * step)
    return grad


@pytest.fixture(scope="session")
def linear_rho_mf():
    """A 1D model fitted with the linear scaling basis rho(x) = b0 + b1 x."""
    pair = design.ANALYTIC_1D
    x_lf = design.scale_to_domain(pair, design.lhs(40, 1, seed=40).points)
    z_lf = design.add_noise(design.eval_testfn(pair, "lf", x_lf), 0.02**2, seed=41)
    x_hf = design.scale_to_domain(pair, design.lhs(20, 1, seed=42).points)
    z_hf = design.add_noise(design.eval_testfn(pair, "hf", x_hf), 0.02**2, seed=43)
    data = MfData(Dataset(x_lf, z_lf), Dataset(x_hf, z_hf))
    lin = BasisSpec((lambda v: np.ones(v.shape[0]), lambda v: v[:, 0]))
    return fit_mf(
        data,
        rho_basis=lin,
        lf_config=MultiStartConfig(n_starts=4, rng_seed=5),
        hf_config=MultiStartConfig(n_starts=4, rng_seed=6),
    )


# Property-based tests replay the same examples on every run, with no time limit
# per example, so the suite stays deterministic.
settings.register_profile("mfkrig", derandomize=True, deadline=None, database=None)
settings.load_profile("mfkrig")
