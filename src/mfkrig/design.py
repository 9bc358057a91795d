"""Experimental designs (LHS, maximin LHS), analytical test-function pairs,
and Gaussian noise injection."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.spatial.distance import pdist

from .exceptions import DimensionMismatch, DomainViolation, InvalidConfig
from .optimize import as_points, as_vector, check_count, check_positive

LF = "lf"
HF = "hf"
MAXIMIN_RESTARTS = 100


@dataclass(frozen=True)
class Design:
    """An N x D point set in the unit cube."""

    points: np.ndarray


@dataclass(frozen=True)
class TestFunctionPair:
    name: str
    input_dim: int
    domain_lower: np.ndarray
    domain_upper: np.ndarray
    lf_evaluator: Callable[[np.ndarray], np.ndarray]
    hf_evaluator: Callable[[np.ndarray], np.ndarray]


def lhs(n: int, d: int, seed: int) -> Design:
    """Latin hypercube sample: one point per stratum [k/n, (k+1)/n) per dimension."""
    check_count("n", n)
    check_count("d", d)
    check_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    points = np.empty((n, d))
    for j in range(d):
        perm = rng.permutation(n)
        points[:, j] = (perm + rng.uniform(size=n)) / n
    return Design(points=points)


def maximin_lhs(n: int, d: int, seed: int = 0) -> Design:
    """Best of MAXIMIN_RESTARTS LHS candidates by the maximin (min pairwise
    distance) criterion; ties broken by first occurrence."""
    check_count("n", n, 2)
    check_count("seed", seed, 0)
    sub_seeds = np.random.SeedSequence(seed).generate_state(MAXIMIN_RESTARTS)
    best: Design | None = None
    best_dist = -np.inf
    for s in sub_seeds:
        cand = lhs(n, d, int(s))
        dist = float(pdist(cand.points).min())
        if dist > best_dist:
            best, best_dist = cand, dist
    return best


def _analytic1d_lf(x: np.ndarray) -> np.ndarray:
    return np.sin(2.0 * np.pi * x[:, 0])


def _analytic1d_hf(x: np.ndarray) -> np.ndarray:
    t = x[:, 0]
    return (t / 4.0 - np.sqrt(2.0)) * np.sin(2.0 * np.pi * t + np.pi)


def _park4d_hf(x: np.ndarray) -> np.ndarray:
    x1, x2, x3, x4 = x[:, 0], x[:, 1], x[:, 2], x[:, 3]
    # The x4 / x1^2 term is singular at x1 = 0; clamp keeps it finite with an
    # error below 1e-5 over the stated range.
    x1c = np.maximum(x1, 1e-6)
    return x1 / 2.0 * (np.sqrt(1.0 + (x2 + x3**2) * x4 / x1c**2) - 1.0) + (
        x1 + 3.0 * x4
    ) * np.exp(1.0 + np.sin(x3))


def _park4d_lf(x: np.ndarray) -> np.ndarray:
    x1, x2, x3 = x[:, 0], x[:, 1], x[:, 2]
    return (
        (1.0 + np.sin(x1) / 10.0) * _park4d_hf(x)
        - 2.0 * x1
        + x2**2
        + x3**2
        + 0.5
    )


ANALYTIC_1D = TestFunctionPair(
    name="analytic1d",
    input_dim=1,
    domain_lower=np.array([0.0]),
    domain_upper=np.array([2.0]),
    lf_evaluator=_analytic1d_lf,
    hf_evaluator=_analytic1d_hf,
)

PARK_4D = TestFunctionPair(
    name="park4d",
    input_dim=4,
    domain_lower=np.zeros(4),
    domain_upper=np.ones(4),
    lf_evaluator=_park4d_lf,
    hf_evaluator=_park4d_hf,
)

_PAIRS = {p.name: p for p in (ANALYTIC_1D, PARK_4D)}


def get_pair(name: str) -> TestFunctionPair:
    try:
        return _PAIRS[name]
    except KeyError:
        raise InvalidConfig(f"unknown test-function pair {name!r}") from None


def scale_to_domain(pair: TestFunctionPair, unit_points: np.ndarray) -> np.ndarray:
    """Affine map from the unit cube to the pair's domain, of points read by
    `as_points` with the pair's input dimension."""
    unit_points = as_points("unit points", unit_points, pair.input_dim)
    return pair.domain_lower + unit_points * (pair.domain_upper - pair.domain_lower)


def eval_testfn(pair: TestFunctionPair, level: str, x: np.ndarray) -> np.ndarray:
    """Evaluate one fidelity level of a pair on an (N, D) input array."""
    try:
        x = as_points("x", x, pair.input_dim)
    except DimensionMismatch as exc:
        raise DomainViolation(f"{pair.name} inputs: {exc}") from None
    slack = 1e-12
    if np.any(x < pair.domain_lower - slack) or np.any(x > pair.domain_upper + slack):
        raise DomainViolation(f"inputs outside the {pair.name} domain")
    if level == LF:
        return pair.lf_evaluator(x)
    if level == HF:
        return pair.hf_evaluator(x)
    raise InvalidConfig(f"level must be {LF!r} or {HF!r}, got {level!r}")


def add_noise(y: np.ndarray, noise_variance: float, seed: int) -> np.ndarray:
    """y, read by `as_vector`, plus i.i.d. N(0, noise_variance) noise; a zero
    variance returns y unchanged."""
    check_positive("noise_variance", noise_variance, zero_ok=True)
    check_count("seed", seed, 0)
    y = as_vector("y", y)
    if noise_variance == 0.0:
        return y.copy()
    rng = np.random.default_rng(seed)
    return y + rng.normal(scale=np.sqrt(noise_variance), size=y.shape)
